//! `cargo xtask bench`: the perf-trajectory harness (ROADMAP item 5).
//!
//! Runs a small runner × radix × load matrix — the dense `Runner` vs.
//! the idle-skipping `BitparRunner`, radix 16 and 64, Bernoulli-0.5 /
//! saturated / periodic-5% uniform traffic (the last is the
//! idle-skipping showcase) — and reports wall-clock simulated
//! cycles/sec plus the in-switch profiler's prepare/arbitrate breakdown
//! (xtask compiles `ssq-core` with the `prof` feature; feature
//! unification keeps that scoped to this binary's build graph).
//!
//! * `--json` writes a schema-versioned `results/BENCH_<pr>.json`
//!   ([`ssq_prof::BenchDoc`]) embedding the phase breakdown and host
//!   metadata.
//! * `--diff` locates the latest prior `results/BENCH_*.json`, compares
//!   per-(runner, radix, load) cycles/sec, and exits nonzero when any
//!   cell regresses past `--threshold` (default 0.5 = half the prior
//!   throughput). Cross-profile (debug vs release) comparisons are
//!   skipped, not failed.
//! * `--quick` shrinks the matrix (radix 16, fewer cycles) for the
//!   `scripts/check.sh` regression gate. A quick probe is not a
//!   trajectory record: it takes no PR slot and refuses `--json`. Its
//!   `--diff` compares quick against quick: every full capture also
//!   measures the quick cells (medians of the same repetitions) and
//!   records them in the document's `quick_record`, and the probe
//!   diffs against the newest record that has one.
//! * `--pr N` overrides the trajectory slot (default: one past the
//!   newest existing document).
//! * `--outputs` additionally prints the per-output arbitrate
//!   attribution.
//!
//! Record trajectory numbers with a release build:
//! `cargo run --release -p xtask -- bench --json --diff`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ssq_arbiter::CounterPolicy;
use ssq_core::{Policy, QosSwitch, SwitchConfig};
use ssq_net::{Fabric, FlowSpec, LinkDiscipline, Topology};
use ssq_prof::{trajectory, BenchCell, BenchDoc, BenchEngine, BenchPhase, ProfReport, QuickRecord};
use ssq_sim::{BitparRunner, Runner, Schedule};
use ssq_traffic::{Bernoulli, Injector, Periodic, Saturating, TrafficSource, UniformDest};
use ssq_types::{Cycles, Geometry, InputId, OutputId, Rate, TrafficClass};

/// Full-matrix schedule (matches the BENCH_6 seed).
const WARMUP: u64 = 200;
const MEASURE: u64 = 1_500;
/// `--quick` schedule for the CI regression gate.
const QUICK_WARMUP: u64 = 100;
const QUICK_MEASURE: u64 = 400;

const RADICES: &[usize] = &[16, 64];
const QUICK_RADICES: &[usize] = &[16];

/// Timed repetitions per runner row; the recorded rate is their
/// median, so one descheduled run on a shared host cannot move a cell
/// (single quick-probe samples of one cell spread up to 2x).
const REPS: usize = 5;

/// The offered-load points of the matrix.
#[derive(Clone, Copy)]
enum Load {
    /// Bernoulli arrivals at 0.5 flits/cycle/input.
    Bernoulli50,
    /// A source that always has a packet ready (saturation throughput).
    Saturated,
    /// Deterministic 5% load: an 8-flit packet every 160 cycles. The
    /// arrivals are predictable, so this is the cell where idle
    /// skipping engages.
    Periodic5,
}

impl Load {
    fn name(self) -> &'static str {
        match self {
            Load::Bernoulli50 => "bernoulli-0.5",
            Load::Saturated => "saturated",
            Load::Periodic5 => "periodic-0.05",
        }
    }

    fn source(self, seed: u64) -> Box<dyn TrafficSource + Send + Sync> {
        match self {
            Load::Bernoulli50 => Box::new(Bernoulli::new(0.5, 8, seed)),
            Load::Saturated => Box::new(Saturating::new(8)),
            // Aligned phases: every input bursts on the same cycle, so
            // the switch drains to a genuinely quiescent window between
            // bursts — the shape the idle wheel is built for.
            Load::Periodic5 => {
                let _ = seed;
                Box::new(Periodic::new(160, 0, 8))
            }
        }
    }
}

/// Builds the benchmark rig: per-input GB reservations at each input's
/// "home" output keep the SSVC machinery engaged on every output, and
/// best-effort uniform traffic contends all outputs.
fn rig(radix: usize, load: Load) -> QosSwitch {
    let width = Geometry::min_bus_width(radix, 3).max(128);
    let geometry = Geometry::new(radix, width).expect("valid geometry");
    let mut config = SwitchConfig::builder(geometry)
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .build()
        .expect("valid config");
    for i in 0..radix {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(i),
                Rate::new(0.5).expect("valid rate"),
                8,
            )
            .expect("reservations fit");
    }
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for i in 0..radix {
        switch.add_injector(
            Injector::new(
                load.source(7_000 + i as u64),
                Box::new(UniformDest::new(radix, 1_000 + i as u64)),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

/// Times `run` on [`REPS`] fresh models from `build` (construction is
/// not timed): (median cycles/sec, delivered flits of the last run).
fn median_rate<M>(
    schedule: Schedule,
    build: impl Fn() -> M,
    run: impl Fn(&mut M) -> u64,
) -> (f64, u64) {
    let cycles = schedule.warmup().value() + schedule.measure().value();
    let mut rates = Vec::with_capacity(REPS);
    let mut flits = 0;
    for _ in 0..REPS {
        let mut model = build();
        let start = Instant::now();
        flits = run(&mut model);
        rates.push(cycles as f64 / start.elapsed().as_secs_f64());
    }
    rates.sort_by(f64::total_cmp);
    (rates[REPS / 2], flits)
}

/// Times unprofiled runs on the dense runner, or with `skip_idle` on
/// the idle-skipping one: (median cycles/sec, delivered flits).
fn timed_run(radix: usize, load: Load, schedule: Schedule, skip_idle: bool) -> (f64, u64) {
    median_rate(
        schedule,
        || rig(radix, load),
        |switch| {
            if skip_idle {
                BitparRunner::new(schedule).run(switch);
            } else {
                Runner::new(schedule).run(switch);
            }
            switch.counters().delivered_flits
        },
    )
}

/// Runs the kernel profiler over the measured phase of an idle-skipping
/// run: every stepped measured cycle is sampled and arbitrate time is
/// attributed per output. This run is never used for throughput
/// numbers — the timer laps would inflate them.
fn kernel_profile(radix: usize, load: Load, schedule: Schedule) -> ProfReport {
    let mut switch = rig(radix, load);
    // The switch clears the accumulators at the measurement boundary.
    switch.prof_arm_detailed(1);
    BitparRunner::new(schedule).run(&mut switch);
    switch
        .prof_report()
        .expect("xtask builds ssq-core with the prof feature")
}

/// Measures one (radix, load) cell: throughput on both runners and the
/// kernel phase breakdown. Returns the cell and the full kernel report
/// (for the per-output table).
fn measure_cell(radix: usize, load: Load, schedule: Schedule) -> (BenchCell, ProfReport) {
    let (dense_rate, dense_flits) = timed_run(radix, load, schedule, false);
    let (skip_rate, skip_flits) = timed_run(radix, load, schedule, true);
    assert_eq!(
        dense_flits,
        skip_flits,
        "idle-skipping runner diverged from dense (radix {radix}, {})",
        load.name()
    );
    let kernel = kernel_profile(radix, load, schedule);
    let phases = kernel
        .phases
        .iter()
        .map(|p| BenchPhase {
            phase: p.name.clone(),
            ns_per_cycle: kernel.ns_per_cycle(&p.name).unwrap_or(0.0),
            fraction: kernel.fraction(&p.name).unwrap_or(0.0),
        })
        .collect();
    let cell = BenchCell {
        radix: radix as u64,
        load: load.name().to_string(),
        phases,
        engines: vec![
            BenchEngine {
                engine: "dense".to_string(),
                cycles_per_sec: dense_rate,
                delivered_flits: dense_flits,
            },
            BenchEngine {
                engine: "idle-skip".to_string(),
                cycles_per_sec: skip_rate,
                delivered_flits: skip_flits,
            },
        ],
    };
    (cell, kernel)
}

/// Multi-hop fabric throughput: a 3-hop credit-backpressure chain with
/// two GB flows and a GL flow spanning the whole path (the healthy
/// chain-credit campaign rig). One trajectory row pins the fabric's
/// dense cycles/sec, so a slowdown in the hop/link machinery fails the
/// same gate as the switch kernel. Phases stay empty: the fabric drives
/// whole switches, so the kernel profiler's prepare/arbitrate split
/// does not apply.
fn measure_fabric_cell(schedule: Schedule) -> BenchCell {
    let topology = Topology::chain(3, LinkDiscipline::Credit);
    let flows = [
        FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .rate(0.4)
            .every(20),
        FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .ports(5, 5)
            .rate(0.2)
            .every(40),
        FlowSpec::new(0, 3, TrafficClass::GuaranteedLatency)
            .ports(6, 6)
            .rate(0.05)
            .every(100),
    ];
    let (rate, flits) = median_rate(
        schedule,
        || Fabric::new(topology.clone(), &flows, 7).expect("valid fabric"),
        |fabric| {
            Runner::new(schedule).run(fabric);
            fabric.counters().delivered_flits
        },
    );
    BenchCell {
        radix: 8,
        load: "fabric-chain3-credit".to_string(),
        phases: Vec::new(),
        engines: vec![BenchEngine {
            engine: "dense".to_string(),
            cycles_per_sec: rate,
            delivered_flits: flits,
        }],
    }
}

/// Prints one cell's human-readable summary.
fn print_cell(cell: &BenchCell, kernel: Option<&ProfReport>, outputs: bool) {
    for e in &cell.engines {
        println!(
            "bench/radix{:<3} {:<20} {:<10} {:>12.0} cycles/sec  ({} flits)",
            cell.radix, cell.load, e.engine, e.cycles_per_sec, e.delivered_flits
        );
    }
    for p in &cell.phases {
        println!(
            "bench/radix{:<3} {:<20} phase {:<9} {:>8.0} ns/cycle  {:>5.1}%",
            cell.radix,
            cell.load,
            p.phase,
            p.ns_per_cycle,
            p.fraction * 100.0
        );
    }
    if let Some(kernel) = kernel.filter(|_| outputs) {
        print!("{}", kernel.output_table().to_text());
    }
}

/// The host CPU model (`model name` in `/proc/cpuinfo`), if readable.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// The `rustc --version` line of the toolchain on `PATH` (or `$RUSTC`),
/// if it runs.
fn rustc_version() -> Option<String> {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let out = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

/// Measures and prints the runner × load matrix at each radix, plus the
/// fabric cell.
fn measure_matrix(radices: &[usize], schedule: Schedule, outputs: bool) -> Vec<BenchCell> {
    let mut cells = Vec::new();
    for &radix in radices {
        for load in [Load::Bernoulli50, Load::Saturated, Load::Periodic5] {
            let (cell, kernel) = measure_cell(radix, load, schedule);
            print_cell(&cell, Some(&kernel), outputs);
            cells.push(cell);
        }
    }
    let fabric_cell = measure_fabric_cell(schedule);
    print_cell(&fabric_cell, None, outputs);
    cells.push(fabric_cell);
    cells
}

/// Entry point for
/// `cargo xtask bench [--json] [--diff] [--quick] [--threshold R] [--pr N] [--outputs]`.
pub fn run(args: &[String], root: &Path) -> ExitCode {
    let mut json = false;
    let mut diff = false;
    let mut quick = false;
    let mut outputs = false;
    let mut threshold = 0.5f64;
    let mut pr_override: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--diff" => diff = true,
            "--quick" => quick = true,
            "--outputs" => outputs = true,
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v <= 1.0 => threshold = v,
                _ => {
                    eprintln!("--threshold needs a ratio in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            "--pr" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => pr_override = Some(v),
                None => {
                    eprintln!("--pr needs a number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown bench flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if quick && (json || pr_override.is_some()) {
        eprintln!("a --quick probe is not a trajectory record: it takes no --json or --pr");
        return ExitCode::FAILURE;
    }

    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (host_cpu, host_rustc) = (cpu_model(), rustc_version());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let (radices, warmup, measure) = if quick {
        (QUICK_RADICES, QUICK_WARMUP, QUICK_MEASURE)
    } else {
        (RADICES, WARMUP, MEASURE)
    };
    let schedule = Schedule::new(Cycles::new(warmup), Cycles::new(measure));

    let results_dir = root.join("results");
    let existing = trajectory::find_benches(&results_dir);
    // A quick probe has no slot of its own (pr 0) and diffs against the
    // newest record.
    let pr = if quick {
        0
    } else {
        pr_override.unwrap_or_else(|| existing.last().map_or(1, |(n, _)| n + 1))
    };
    let label = if quick {
        "quick probe".to_string()
    } else {
        format!("BENCH_{pr}")
    };

    println!(
        "== xtask bench ({label}: {} cycles/cell, host cores: {host_cores}, profile: {profile}) ==",
        warmup + measure,
    );
    println!(
        "host: {}; {}",
        host_cpu.as_deref().unwrap_or("unknown CPU"),
        host_rustc.as_deref().unwrap_or("unknown rustc")
    );

    let cells = measure_matrix(radices, schedule, outputs);
    // A full capture also records the quick probe's cells, so a later
    // `--quick --diff` compares like with like.
    let quick_record = (!quick).then(|| {
        println!(
            "-- quick cells ({} cycles/cell) --",
            QUICK_WARMUP + QUICK_MEASURE
        );
        QuickRecord {
            warmup_cycles: QUICK_WARMUP,
            measure_cycles: QUICK_MEASURE,
            cells: measure_matrix(
                QUICK_RADICES,
                Schedule::new(Cycles::new(QUICK_WARMUP), Cycles::new(QUICK_MEASURE)),
                outputs,
            ),
        }
    });

    let doc = BenchDoc {
        schema: trajectory::CURRENT_SCHEMA,
        pr,
        profile: profile.to_string(),
        quick,
        host_cores: host_cores as u64,
        host_cpu,
        host_rustc,
        warmup_cycles: warmup,
        measure_cycles: measure,
        cells,
        quick_record,
    };

    let mut failed = false;
    if diff {
        // The baseline is the newest document strictly older than the
        // slot being (re)measured, so regenerating BENCH_<pr> still
        // diffs against its predecessor; a quick probe takes the quick
        // cells of the newest document that recorded them.
        let mut baseline = None;
        for (n, path) in existing.iter().rev().filter(|(n, _)| quick || *n < pr) {
            let prev = match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| BenchDoc::parse(&text))
            {
                Ok(prev) => prev,
                Err(err) => {
                    eprintln!("cannot load {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let prev = if quick {
                prev.quick_baseline()
            } else {
                Some(prev)
            };
            if let Some(prev) = prev {
                baseline = Some((*n, prev));
                break;
            }
        }
        match baseline {
            None if quick => eprintln!(
                "bench diff: no BENCH_*.json records quick cells; record one with \
                 `cargo run --release -p xtask -- bench --json`"
            ),
            None => println!("bench diff: no prior BENCH_*.json to compare against"),
            Some((n, prev)) => {
                let what = if quick { " quick cells" } else { "" };
                println!("bench diff vs BENCH_{n}{what} (threshold {threshold:.2}x):");
                let report = trajectory::diff(&prev, &doc, threshold);
                if let Some(note) = &report.skipped {
                    println!("bench diff: {note}");
                    if note.contains("host mismatch") {
                        eprintln!("bench diff REFUSED: {note}");
                    }
                }
                for line in &report.lines {
                    println!("  {line}");
                }
                for reg in &report.regressions {
                    eprintln!("bench REGRESSION: {reg}");
                }
                failed = !report.passed();
            }
        }
    }

    if json {
        if let Err(err) = std::fs::create_dir_all(&results_dir) {
            eprintln!("cannot create {}: {err}", results_dir.display());
            return ExitCode::FAILURE;
        }
        let path = results_dir.join(format!("BENCH_{pr}.json"));
        if let Err(err) = std::fs::write(&path, doc.render()) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("bench JSON written to {}", path.display());
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_schedule() -> Schedule {
        Schedule::new(Cycles::new(20), Cycles::new(60))
    }

    #[test]
    fn kernel_profile_samples_every_stepped_measured_cycle() {
        let report = kernel_profile(8, Load::Saturated, tiny_schedule());
        assert_eq!(
            report.sampled_cycles, 60,
            "saturated: every measured cycle steps"
        );
        let f: f64 = ["prepare", "arbitrate"]
            .iter()
            .map(|p| report.fraction(p).expect("phase present"))
            .sum();
        assert!(
            (f - 1.0).abs() < 1e-9,
            "phase fractions partition the cycle"
        );
        assert_eq!(report.outputs.len(), 8, "per-output arbitrate attribution");
        assert!(report.outputs.iter().any(|s| s.ns > 0));
    }

    #[test]
    fn kernel_profile_counts_only_stepped_cycles_when_skipping() {
        let report = kernel_profile(8, Load::Periodic5, tiny_schedule());
        assert!(
            report.cycles < 60,
            "periodic load skips idle cycles: {} stepped",
            report.cycles
        );
    }

    #[test]
    fn measured_cell_embeds_phases_for_both_runners() {
        let (cell, _kernel) = measure_cell(8, Load::Bernoulli50, tiny_schedule());
        assert_eq!(cell.radix, 8);
        assert_eq!(cell.phases.len(), 2);
        assert_eq!(cell.engines.len(), 2);
        assert_eq!(
            cell.engines[0].delivered_flits, cell.engines[1].delivered_flits,
            "the runners agree bit for bit"
        );
    }

    #[test]
    fn fabric_cell_delivers_over_the_chain() {
        let cell = measure_fabric_cell(Schedule::new(Cycles::new(50), Cycles::new(250)));
        assert_eq!(cell.radix, 8);
        assert_eq!(cell.load, "fabric-chain3-credit");
        assert_eq!(cell.engines.len(), 1);
        assert!(
            cell.engines[0].delivered_flits > 0,
            "the 3-hop chain must deliver within 300 cycles"
        );
        assert!(cell.phases.is_empty());
    }

    #[test]
    fn rendered_doc_round_trips_through_the_parser() {
        let (cell, _) = measure_cell(8, Load::Saturated, tiny_schedule());
        let doc = BenchDoc {
            schema: trajectory::CURRENT_SCHEMA,
            pr: 99,
            profile: "debug".to_string(),
            quick: true,
            host_cores: 4,
            host_cpu: None,
            host_rustc: None,
            warmup_cycles: 20,
            measure_cycles: 60,
            cells: vec![cell],
            quick_record: None,
        };
        // Rendering quantizes floats, so live-measured values only
        // stabilize after one pass: render → parse → render must be
        // byte-identical (the trajectory lives in git).
        let text = doc.render();
        let parsed = BenchDoc::parse(&text).expect("round trip");
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed.pr, 99);
        assert_eq!(parsed.cells.len(), 1);
        assert_eq!(parsed.cells[0].phases.len(), 2);
    }
}
