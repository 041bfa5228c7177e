//! The untraced run: the end-to-end numbers.
//!
//! After the reference runs ([`crate::gate`]), the run repeats the
//! workload's batch until `--seconds` have passed since it started (at
//! least [`MIN_REPS`] times). Each repetition builds every simulation afresh
//! and runs it once on the fast engine and once on the dense engine,
//! alternating which goes first; each run is timed around the runner
//! call alone on the thread's CPU clock ([`CpuTimer`]) and must
//! reproduce the reference digest. Each run is scaled to an uncontended
//! host by a [`ContentionProbe`] read just before and after it.
//! Throughput comes from each simulation's median scaled run time
//! ([`median_throughput`]); set-up time is the median over repetitions.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ssq_sim::{BitparRunner, Runner};

use crate::cli::Args;
use crate::gate::{fabric_digest, reference_batch, switch_digest, Reference, Simulated};
use crate::host::{peak_rss_mib, ContentionProbe, CpuTimer, PROBE_NOMINAL_S};
use crate::metrics::median;
use crate::output::Metric;
use crate::workload::{Batch, FabricSim, SwitchSim};

/// Fewest repetitions a run makes, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// The end-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("cycles_per_s", "cycles/s"),
    ("dense_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("accepted_flits_per_cycle", "flits/cycle"),
    ("gb_shortfall_max", "flits/cycle"),
    ("gl_wait_bound_ratio", "ratio"),
    ("latency_p99_cycles", "cycles"),
];

/// The result of an untraced run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every end-to-end metric, in [`END_TO_END`] order.
    pub metrics: Vec<Metric>,
    /// `cycles_per_s` before contention scaling.
    pub raw_cycles_per_s: f64,
    /// `dense_cycles_per_s` before contention scaling.
    pub raw_dense_cycles_per_s: f64,
    /// The batch-level simulated metrics.
    pub simulated: Simulated,
    /// Operations attempted: one per simulation per repetition.
    pub ops: u64,
    /// Operations that failed the gate.
    pub ops_failed: u64,
    /// Repetitions made.
    pub reps: usize,
}

/// One timed engine run.
struct Timed {
    setup: Duration,
    /// CPU seconds of the runner call.
    run: f64,
    /// `run` scaled to an uncontended host: times the ratio of the
    /// nominal to the measured contention-probe time around the run.
    scaled: f64,
    agrees: bool,
}

fn timed<M>(
    probe: &mut ContentionProbe,
    build: impl FnOnce() -> Result<crate::workload::Built<M>, String>,
    run: impl FnOnce(&mut M),
    digest: impl FnOnce(&M) -> Vec<u64>,
    reference: &[u64],
) -> Result<Timed, String> {
    let built = build()?;
    let mut model = built.model;
    let before = probe.sample();
    let start = CpuTimer::start();
    run(&mut model);
    let elapsed = start.elapsed().as_secs_f64();
    let after = probe.sample();
    Ok(Timed {
        setup: built.setup,
        run: elapsed,
        scaled: elapsed * PROBE_NOMINAL_S * 2.0 / (before + after),
        agrees: digest(&model) == reference,
    })
}

fn fast_run(
    probe: &mut ContentionProbe,
    sim: &SwitchSim,
    reference: &[u64],
) -> Result<Timed, String> {
    timed(
        probe,
        || sim.build(),
        |m| {
            BitparRunner::new(sim.schedule).run(m);
        },
        switch_digest,
        reference,
    )
}

fn dense_run(
    probe: &mut ContentionProbe,
    sim: &SwitchSim,
    reference: &[u64],
) -> Result<Timed, String> {
    timed(
        probe,
        || sim.build(),
        |m| {
            Runner::new(sim.schedule).run(m);
        },
        switch_digest,
        reference,
    )
}

fn fabric_run(
    probe: &mut ContentionProbe,
    sim: &FabricSim,
    reference: &[u64],
) -> Result<Timed, String> {
    timed(
        probe,
        || sim.build(),
        |m| {
            Runner::new(sim.schedule).run(m);
        },
        fabric_digest,
        reference,
    )
}

/// Runs `f`, turning a panic or an error into a failed operation.
fn guarded(what: &str, f: impl FnOnce() -> Result<Timed, String>) -> Option<Timed> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(t)) => {
            if !t.agrees {
                eprintln!("gate: {what}: simulated statistics differ from the reference run");
            }
            Some(t)
        }
        Ok(Err(e)) => {
            eprintln!("gate: {what}: {e}");
            None
        }
        Err(_) => {
            eprintln!("gate: {what}: panicked");
            None
        }
    }
}

/// Timing samples of every repetition.
struct Samples {
    probe: ContentionProbe,
    /// Fast-engine `(raw, scaled)` run times (s), per simulation.
    fast: Vec<Vec<(f64, f64)>>,
    /// Dense-engine `(raw, scaled)` run times (s), per simulation.
    dense: Vec<Vec<(f64, f64)>>,
    /// Set-up time of the whole batch (s), twice per repetition.
    setup_s: Vec<f64>,
}

impl Samples {
    fn new(sims: usize) -> Self {
        Samples {
            probe: ContentionProbe::new(),
            fast: vec![Vec::new(); sims],
            dense: vec![Vec::new(); sims],
            setup_s: Vec::new(),
        }
    }
}

/// Batch throughput: the batch's cycles over the sum of each
/// simulation's median run time (contention-scaled when `scaled`).
fn median_throughput(times: &[Vec<(f64, f64)>], cycles: &[u64], scaled: bool) -> f64 {
    if times.iter().any(Vec::is_empty) {
        return 0.0;
    }
    let total: f64 = times
        .iter()
        .map(|t| {
            let v: Vec<f64> = t
                .iter()
                .map(|&(raw, s)| if scaled { s } else { raw })
                .collect();
            median(&v)
        })
        .sum();
    cycles.iter().sum::<u64>() as f64 / total
}

/// One repetition of a single-switch batch; returns failed operations.
fn switch_rep(sims: &[SwitchSim], refs: &[Reference], dense_first: bool, s: &mut Samples) -> u64 {
    let mut failed = 0;
    let (mut setup_fast, mut setup_dense) = (Duration::ZERO, Duration::ZERO);
    let mut complete = true;
    for (k, (sim, reference)) in sims.iter().zip(refs).enumerate() {
        let digest = &reference.digest;
        let probe = &mut s.probe;
        let fast = |p: &mut ContentionProbe| {
            guarded(&format!("{} fast", sim.label), || fast_run(p, sim, digest))
        };
        let dense = |p: &mut ContentionProbe| {
            guarded(&format!("{} dense", sim.label), || {
                dense_run(p, sim, digest)
            })
        };
        let (f, d) = if dense_first {
            let d = dense(probe);
            (fast(probe), d)
        } else {
            let f = fast(probe);
            (f, dense(probe))
        };
        let ok = match (&f, &d) {
            (Some(f), Some(d)) => f.agrees && d.agrees,
            _ => false,
        };
        if !ok || !reference.failures.is_empty() {
            failed += 1;
        }
        match (f, d) {
            (Some(f), Some(d)) => {
                s.fast[k].push((f.run, f.scaled));
                s.dense[k].push((d.run, d.scaled));
                setup_fast += f.setup;
                setup_dense += d.setup;
            }
            _ => complete = false,
        }
    }
    if complete {
        s.setup_s.push(setup_fast.as_secs_f64());
        s.setup_s.push(setup_dense.as_secs_f64());
    }
    failed
}

/// One repetition of the fabric; returns failed operations. The fabric
/// has only the dense engine, so one timed run feeds both throughput
/// metrics.
fn fabric_rep(sim: &FabricSim, reference: &Reference, s: &mut Samples) -> u64 {
    let probe = &mut s.probe;
    match guarded("fabric", || fabric_run(probe, sim, &reference.digest)) {
        Some(t) => {
            s.fast[0].push((t.run, t.scaled));
            s.dense[0].push((t.run, t.scaled));
            s.setup_s.push(t.setup.as_secs_f64());
            u64::from(!t.agrees || !reference.failures.is_empty())
        }
        None => 1,
    }
}

/// The untraced run.
///
/// # Errors
///
/// Returns a message when a workload model cannot be built or its
/// reference run panics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let batch = args.workload.batch(args.seed, args.tiny);
    let (refs, simulated) = catch_unwind(AssertUnwindSafe(|| reference_batch(&batch)))
        .map_err(|_| "reference run panicked".to_owned())??;
    for failure in refs.iter().flat_map(|r| &r.failures) {
        eprintln!("gate: {failure}");
    }
    let cycles: Vec<u64> = match &batch {
        Batch::Switch(sims) => sims.iter().map(SwitchSim::cycles).collect(),
        Batch::Fabric(sim) => vec![sim.cycles()],
    };
    let mut samples = Samples::new(cycles.len());
    let (mut ops, mut ops_failed, mut reps) = (0u64, 0u64, 0usize);
    // Repeat until another repetition (as long as the slowest so far)
    // would overrun `--seconds`.
    let mut longest = 0.0f64;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() + longest < args.seconds {
        let rep_start = Instant::now();
        match &batch {
            Batch::Switch(sims) => {
                ops += sims.len() as u64;
                ops_failed += switch_rep(sims, &refs, reps % 2 == 1, &mut samples);
            }
            Batch::Fabric(sim) => {
                ops += 1;
                ops_failed += fabric_rep(sim, &refs[0], &mut samples);
            }
        }
        reps += 1;
        longest = longest.max(rep_start.elapsed().as_secs_f64());
    }
    let values = [
        median_throughput(&samples.fast, &cycles, true),
        median_throughput(&samples.dense, &cycles, true),
        median(&samples.setup_s),
        peak_rss_mib().unwrap_or(0.0),
        simulated.accepted_flits_per_cycle,
        simulated.gb_shortfall_max,
        simulated.gl_wait_bound_ratio,
        simulated.latency_p99.value as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect();
    Ok(Outcome {
        metrics,
        raw_cycles_per_s: median_throughput(&samples.fast, &cycles, false),
        raw_dense_cycles_per_s: median_throughput(&samples.dense, &cycles, false),
        simulated,
        ops,
        ops_failed,
        reps,
    })
}
