//! `simbench-traced`: the traced benchmark run (per-layer metrics).
//!
//! This binary alone installs a counting global allocator, so the
//! untraced `simbench` binary's timings never pay for it.
//!
//! ```sh
//! python3 simbench/run.py --workload r64-hotspot --seed 1 --seconds 15 --trace 1
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use simbench::host::Fingerprint;
use simbench::output::result_line;
use simbench::{cli, traced};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench-traced: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        eprintln!("simbench-traced: --trace 0 runs the simbench binary");
        return ExitCode::from(2);
    }
    let outcome = match traced::run(&args, allocations) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench-traced: {e}");
            return ExitCode::from(1);
        }
    };
    println!("# workload: {} (traced)", args.workload.name());
    println!("# seed: {}", args.seed);
    println!("# fingerprint: {}", Fingerprint::current().to_json());
    println!(
        "# checked runs: {} failed: {}",
        outcome.checked, outcome.failed
    );
    println!(
        "# traced-process cycles/s, unscaled: {} (compare the untraced run's unscaled cycles_per_s)",
        outcome.traced_cycles_per_s
    );
    for m in &outcome.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.checked.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
