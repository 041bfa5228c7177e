//! `simbench`: the untraced benchmark run (end-to-end metrics).
//!
//! ```sh
//! python3 simbench/run.py --workload r64-hotspot --seed 1 --seconds 15 --trace 0
//! ```

use std::process::ExitCode;

use simbench::host::{check_timed_build, Fingerprint};
use simbench::output::result_line;
use simbench::{bench, cli};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!("simbench: --trace 1 runs the simbench-traced binary");
        return ExitCode::from(2);
    }
    if let Err(e) = check_timed_build() {
        eprintln!("simbench: {e}");
        return ExitCode::from(3);
    }
    let outcome = match bench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("# workload: {}", args.workload.name());
    println!("# seed: {}", args.seed);
    println!("# fingerprint: {}", Fingerprint::current().to_json());
    println!(
        "# ops: {} ops_failed: {} reps: {}",
        outcome.ops, outcome.ops_failed, outcome.reps
    );
    for m in &outcome.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "# before contention scaling: cycles_per_s = {} dense_cycles_per_s = {}",
        outcome.raw_cycles_per_s, outcome.raw_dense_cycles_per_s
    );
    println!(
        "# latency_p99_cycles samples: {}",
        outcome.simulated.latency_p99.samples
    );
    println!(
        "{}",
        result_line(
            outcome.ops_failed == 0,
            outcome.ops,
            outcome.ops_failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
