//! The traced run: per-layer numbers from outside-in probes.
//!
//! It never reports end-to-end metrics. Its probes are:
//!
//! * a counting [`TraceSink`] attached with [`Tracer::attach`]
//!   (`ssq_trace::Tracer::attach`), which counts events per kind and
//!   captures the first [`CAPTURE`] of them;
//! * the heap-allocation counter of the traced binary's counting global
//!   allocator, passed in as a function;
//! * the benchmark's own copy of the `BitparRunner` and `Runner` loops,
//!   which time every `skip_idle`, `step_fast` and `step` call;
//! * a standalone replay of each workload's injectors from the same
//!   seeds, which times `Injector::poll` and `Injector::next_arrival`.
//!
//! Every loop copy must reproduce the reference digest, so the probes
//! are checked by the same gate as the untraced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ssq_check::Preflight;
use ssq_core::QosSwitch;
use ssq_net::Fabric;
use ssq_sim::{BitparRunner, CycleModel, EventModel, Runner};
use ssq_stats::MetricsMatrix;
use ssq_trace::{Event, EventKind, RingSink, TraceSink};
use ssq_types::{Cycle, InputId, OutputId};

use crate::cli::Args;
use crate::gate::{fabric_digest, reference_batch, switch_digest, Reference};
use crate::host::CpuTimer;
use crate::metrics::median;
use crate::output::Metric;
use crate::workload::{Batch, FabricSim, SwitchSim};

/// How many events the counting sink keeps for the ring replay.
pub const CAPTURE: usize = 65_536;

/// Capacity of the ring the captured events are replayed into.
pub const REPLAY_RING: usize = 4_096;

/// Every trace event kind, by its wire label.
pub const EVENT_KINDS: [&str; 19] = [
    "decision",
    "grant",
    "chained",
    "inhibit",
    "auxvc",
    "decay",
    "gl_policed",
    "reject",
    "fault",
    "detected",
    "degraded",
    "guarantee_revoked",
    "readmitted",
    "hop_enqueue",
    "credit_pause",
    "credit_resume",
    "drop",
    "nack_retransmit",
    "reroute",
];

/// The per-layer metrics other than the per-kind event rates: name and
/// unit. A layer a workload does not have (the fabric has no fast
/// engine or injectors; a single switch has no links) reports 0.
pub const LAYERS: [(&str, &str); 40] = [
    ("sim.step_fast_ns", "ns"),
    ("sim.step_dense_ns", "ns"),
    ("sim.skip_probe_ns", "ns"),
    ("sim.skip_hit_ratio", "ratio"),
    ("sim.skipped_share", "ratio"),
    ("sim.allocs_per_step", "allocs/cycle"),
    ("core.build_s", "s"),
    ("stats.matrix_build_s", "s"),
    ("check.preflight_s", "s"),
    ("net.build_s", "s"),
    ("core.begin_measurement_s", "s"),
    ("core.offered_packets", "count"),
    ("core.accepted_packets", "count"),
    ("core.dropped_packets", "count"),
    ("core.accept_ratio", "ratio"),
    ("core.delivered_flits", "count"),
    ("core.chained_packets", "count"),
    ("core.gl_policed_cycles", "count"),
    ("core.grants_per_cycle", "1/cycle"),
    ("arbiter.decisions", "1/cycle"),
    ("arbiter.inhibits", "1/cycle"),
    ("arbiter.auxvc_charges", "1/cycle"),
    ("arbiter.auxvc_saturations", "1/cycle"),
    ("arbiter.decay_epochs", "1/cycle"),
    ("traffic.poll_ns", "ns"),
    ("traffic.allocs_per_poll", "allocs/poll"),
    ("traffic.next_arrival_ns", "ns"),
    ("trace.events_per_cycle", "1/cycle"),
    ("trace.ring_record_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("net.step_ns", "ns"),
    ("net.allocs_per_step", "allocs/cycle"),
    ("net.idle_node_share", "ratio"),
    ("net.hop_events", "count"),
    ("net.credit_pauses", "count"),
    ("net.drops", "count"),
    ("net.retransmits", "count"),
    ("net.source_blocked", "count"),
    ("net.event_log_len", "count"),
    ("probe.overhead_ratio", "ratio"),
];

/// Every per-layer metric name with its unit, in report order.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    let at = all
        .iter()
        .position(|(n, _)| n == "trace.events_per_cycle")
        .map_or(all.len(), |i| i + 1);
    let kinds = EVENT_KINDS
        .iter()
        .map(|k| (format!("trace.events_per_cycle.{k}"), "1/cycle"));
    all.splice(at..at, kinds);
    all
}

fn kind_index(kind: &EventKind) -> usize {
    let label = kind.label();
    EVENT_KINDS.iter().position(|&k| k == label).unwrap_or(0)
}

/// Event counts shared between a [`CountingSink`] and its reader.
#[derive(Debug, Default)]
struct Counts {
    kinds: [AtomicU64; 19],
    saturations: AtomicU64,
    captured: Mutex<Vec<Event>>,
}

impl Counts {
    /// Events of each kind, in [`EVENT_KINDS`] order.
    #[must_use]
    fn per_kind(&self) -> [u64; 19] {
        std::array::from_fn(|i| self.kinds[i].load(Ordering::Relaxed))
    }

    /// `auxvc` events whose counter saturated.
    #[must_use]
    fn saturations(&self) -> u64 {
        self.saturations.load(Ordering::Relaxed)
    }

    /// The captured events.
    #[must_use]
    fn take_captured(&self) -> Vec<Event> {
        self.captured
            .lock()
            .map(|mut v| std::mem::take(&mut *v))
            .unwrap_or_default()
    }
}

/// A trace sink that counts events per kind and keeps the first
/// [`CAPTURE`] of them.
#[derive(Debug)]
struct CountingSink(Arc<Counts>);

impl TraceSink for CountingSink {
    fn record(&mut self, event: &Event) {
        self.0.kinds[kind_index(&event.kind)].fetch_add(1, Ordering::Relaxed);
        if matches!(
            event.kind,
            EventKind::AuxVc {
                saturated: true,
                ..
            }
        ) {
            self.0.saturations.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(mut v) = self.0.captured.lock() {
            if v.len() < CAPTURE {
                v.push(event.clone());
            }
        }
    }
}

/// Accumulated probe readings over every pass and simulation.
#[derive(Debug, Default)]
struct Probe {
    /// Per-pass sums of set-up probe times, by metric name.
    setup: BTreeMap<&'static str, Vec<f64>>,
    fast_ns: f64,
    fast_steps: u64,
    fast_allocs: u64,
    probe_ns: f64,
    probes: u64,
    hits: u64,
    skipped: u64,
    fast_cycles: u64,
    own_fast_s: f64,
    plain_fast_s: f64,
    traced_fast_s: f64,
    dense_ns: f64,
    dense_steps: u64,
    dense_allocs: u64,
    own_dense_s: f64,
    plain_dense_s: f64,
    poll_ns: f64,
    polls: u64,
    poll_allocs: u64,
    next_ns: f64,
    nexts: u64,
    /// Event counts per kind and the cycles they were counted over.
    kinds: [f64; 19],
    saturations: f64,
    traced_cycles: u64,
    captured: Vec<Event>,
    idle_node_cycles: u64,
    node_cycles: u64,
    checked: u64,
    mismatched: u64,
}

impl Probe {
    fn check(&mut self, what: &str, digest: Vec<u64>, reference: &Reference) {
        self.checked += 1;
        if digest != reference.digest {
            self.mismatched += 1;
            eprintln!("gate: traced {what}: simulated statistics differ from the reference run");
        }
    }

    fn count_events(&mut self, counts: &Counts, cycles: u64) {
        for (k, n) in counts.per_kind().iter().enumerate() {
            self.kinds[k] += *n as f64;
        }
        self.saturations += counts.saturations() as f64;
        self.traced_cycles += cycles;
        let mut events = counts.take_captured();
        let room = CAPTURE.saturating_sub(self.captured.len());
        events.truncate(room);
        self.captured.extend(events);
    }

    fn setup_sample(&mut self, name: &'static str, secs: f64, pass: usize) {
        let v = self.setup.entry(name).or_default();
        if v.len() <= pass {
            v.resize(pass + 1, 0.0);
        }
        v[pass] += secs;
    }
}

fn ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run's result.
#[derive(Debug, Clone)]
pub struct TracedOutcome {
    /// Every per-layer metric, in [`per_layer_metrics`] order.
    pub metrics: Vec<Metric>,
    /// Cycles per CPU second of plain runner calls on the fastest engine
    /// in this (instrumented) process, without contention scaling: set it
    /// against the untraced run's unscaled figure.
    pub traced_cycles_per_s: f64,
    /// Runs checked against the reference digest.
    pub checked: u64,
    /// Runs that failed the gate.
    pub failed: u64,
}

/// The traced run. `allocs` reads the process's allocation counter.
///
/// # Errors
///
/// Returns a message when a model cannot be built or a reference run
/// panics.
pub fn run(args: &Args, allocs: fn() -> u64) -> Result<TracedOutcome, String> {
    let start = Instant::now();
    let batch = args.workload.batch(args.seed, args.tiny);
    let (refs, _) = std::panic::catch_unwind(|| reference_batch(&batch))
        .map_err(|_| "reference run panicked".to_owned())??;
    let ref_failures: u64 = refs.iter().map(|r| r.failures.len() as u64).sum();
    for failure in refs.iter().flat_map(|r| &r.failures) {
        eprintln!("gate: {failure}");
    }
    let mut p = Probe::default();
    let mut counters = BTreeMap::new();
    let mut pass = 0;
    let mut longest = 0.0f64;
    while pass == 0 || start.elapsed().as_secs_f64() + longest < args.seconds {
        let pass_start = Instant::now();
        match &batch {
            Batch::Switch(sims) => {
                for (sim, reference) in sims.iter().zip(&refs) {
                    switch_pass(sim, reference, pass, allocs, &mut p, &mut counters)?;
                }
            }
            Batch::Fabric(sim) => fabric_pass(sim, &refs[0], pass, allocs, &mut p, &mut counters)?,
        }
        pass += 1;
        longest = longest.max(pass_start.elapsed().as_secs_f64());
    }
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    for (name, samples) in &p.setup {
        v.insert((*name).to_owned(), median(samples));
    }
    let passes = pass as f64;
    for (name, total) in counters {
        v.insert(name.to_owned(), total / passes);
    }
    v.insert(
        "sim.step_fast_ns".into(),
        ratio(p.fast_ns, p.fast_steps as f64),
    );
    v.insert(
        "sim.step_dense_ns".into(),
        ratio(p.dense_ns, p.dense_steps as f64),
    );
    v.insert(
        "sim.skip_probe_ns".into(),
        ratio(p.probe_ns, p.probes as f64),
    );
    v.insert(
        "sim.skip_hit_ratio".into(),
        ratio(p.hits as f64, p.probes as f64),
    );
    v.insert(
        "sim.skipped_share".into(),
        ratio(p.skipped as f64, p.fast_cycles as f64),
    );
    let offered = v.get("core.offered_packets").copied().unwrap_or(0.0);
    let accepted = v.get("core.accepted_packets").copied().unwrap_or(0.0);
    v.insert("core.accept_ratio".into(), ratio(accepted, offered));
    v.insert("traffic.poll_ns".into(), ratio(p.poll_ns, p.polls as f64));
    v.insert(
        "traffic.allocs_per_poll".into(),
        ratio(p.poll_allocs as f64, p.polls as f64),
    );
    v.insert(
        "traffic.next_arrival_ns".into(),
        ratio(p.next_ns, p.nexts as f64),
    );
    let cycles = p.traced_cycles as f64;
    let per_cycle = |n: f64| ratio(n, cycles);
    let k = |label: &str| EVENT_KINDS.iter().position(|&x| x == label).unwrap_or(0);
    v.insert(
        "trace.events_per_cycle".into(),
        per_cycle(p.kinds.iter().sum()),
    );
    for (i, label) in EVENT_KINDS.iter().enumerate() {
        v.insert(
            format!("trace.events_per_cycle.{label}"),
            per_cycle(p.kinds[i]),
        );
    }
    v.insert(
        "core.grants_per_cycle".into(),
        per_cycle(p.kinds[k("grant")]),
    );
    v.insert(
        "arbiter.decisions".into(),
        per_cycle(p.kinds[k("decision")]),
    );
    v.insert("arbiter.inhibits".into(), per_cycle(p.kinds[k("inhibit")]));
    v.insert(
        "arbiter.auxvc_charges".into(),
        per_cycle(p.kinds[k("auxvc")]),
    );
    v.insert("arbiter.auxvc_saturations".into(), per_cycle(p.saturations));
    v.insert(
        "arbiter.decay_epochs".into(),
        per_cycle(p.kinds[k("decay")]),
    );
    v.insert("trace.ring_record_ns".into(), ring_record_ns(&p.captured));
    v.insert(
        "trace.overhead_ratio".into(),
        ratio(p.traced_fast_s, p.plain_fast_s),
    );
    v.insert(
        "probe.overhead_ratio".into(),
        ratio(
            p.own_fast_s + p.own_dense_s,
            p.plain_fast_s + p.plain_dense_s,
        ),
    );
    if matches!(batch, Batch::Fabric(_)) {
        v.insert(
            "net.step_ns".into(),
            ratio(p.dense_ns, p.dense_steps as f64),
        );
        v.insert(
            "net.allocs_per_step".into(),
            ratio(p.dense_allocs as f64, p.dense_steps as f64),
        );
        v.insert(
            "net.idle_node_share".into(),
            ratio(p.idle_node_cycles as f64, p.node_cycles as f64),
        );
        v.insert(
            "sim.allocs_per_step".into(),
            ratio(p.dense_allocs as f64, p.dense_steps as f64),
        );
    } else {
        v.insert(
            "sim.allocs_per_step".into(),
            ratio(p.fast_allocs as f64, p.fast_steps as f64),
        );
    }
    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = v.get(&name).copied().unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect();
    // The fabric's fastest engine is the dense one; its plain runs cover
    // as many cycles as its instrumented loop stepped.
    let traced_cycles_per_s = match batch {
        Batch::Fabric(_) => ratio(p.dense_steps as f64, p.plain_dense_s),
        Batch::Switch(_) => ratio(p.fast_cycles as f64, p.plain_fast_s),
    };
    Ok(TracedOutcome {
        metrics,
        traced_cycles_per_s,
        checked: p.checked,
        failed: p.mismatched + ref_failures,
    })
}

/// Replays captured events through `TraceSink::record` into a fresh
/// ring: ns per record.
fn ring_record_ns(events: &[Event]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let mut ring = RingSink::new(REPLAY_RING);
    let start = Instant::now();
    for e in events {
        ring.record(black_box(e));
    }
    black_box(&ring);
    ratio(ns(start), events.len() as f64)
}

/// Adds a switch's measured-window counters to the per-layer totals.
fn add_counters(counters: &mut BTreeMap<&'static str, f64>, sw: &QosSwitch) {
    let c = sw.counters();
    for (name, value) in [
        ("core.offered_packets", c.offered_packets),
        ("core.accepted_packets", c.accepted_packets),
        ("core.dropped_packets", c.dropped_packets),
        ("core.delivered_flits", c.delivered_flits),
        ("core.chained_packets", c.chained_packets),
        ("core.gl_policed_cycles", c.gl_policed_cycles),
    ] {
        *counters.entry(name).or_default() += value as f64;
    }
}

/// Set-up probes of one switch simulation.
fn switch_setup(sim: &SwitchSim, pass: usize, p: &mut Probe) -> Result<(), String> {
    let config = sim.config()?;
    let t = CpuTimer::start();
    let report = black_box(config.analyze());
    p.setup_sample("check.preflight_s", t.elapsed().as_secs_f64(), pass);
    drop(report);
    let t = CpuTimer::start();
    let switch = QosSwitch::new(config).map_err(|e| e.to_string())?;
    p.setup_sample("core.build_s", t.elapsed().as_secs_f64(), pass);
    drop(switch);
    let t = CpuTimer::start();
    let matrices: [MetricsMatrix; 3] = std::array::from_fn(|_| MetricsMatrix::new(sim.radix));
    p.setup_sample("stats.matrix_build_s", t.elapsed().as_secs_f64(), pass);
    drop(black_box(matrices));
    Ok(())
}

/// One traced pass over a single-switch simulation.
fn switch_pass(
    sim: &SwitchSim,
    reference: &Reference,
    pass: usize,
    allocs: fn() -> u64,
    p: &mut Probe,
    counters: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    switch_setup(sim, pass, p)?;
    let warm = Cycle::ZERO + sim.schedule.warmup();
    let end = Cycle::new(sim.cycles());

    // The dense engine, one timed `step` at a time.
    let mut sw = sim.build()?.model;
    let loop_start = CpuTimer::start();
    let mut now = Cycle::ZERO;
    while now < end {
        if now == warm {
            let t = CpuTimer::start();
            sw.begin_measurement(now);
            p.setup_sample("core.begin_measurement_s", t.elapsed().as_secs_f64(), pass);
        }
        let a = allocs();
        let t = Instant::now();
        sw.step(now);
        p.dense_ns += ns(t);
        p.dense_allocs += allocs() - a;
        p.dense_steps += 1;
        now = now.next();
    }
    p.own_dense_s += loop_start.elapsed().as_secs_f64();
    p.check(
        &format!("{} dense loop", sim.label),
        switch_digest(&sw),
        reference,
    );
    add_counters(counters, &sw);
    drop(sw);

    // The fast engine: a copy of `BitparRunner`'s loop with every
    // `skip_idle` and `step_fast` call timed.
    let mut sw = sim.build()?.model;
    let loop_start = CpuTimer::start();
    let mut now = Cycle::ZERO;
    for phase_end in [warm, end] {
        if phase_end == end {
            sw.begin_measurement(now);
        }
        while now < phase_end {
            let t = Instant::now();
            let next = sw.skip_idle(now, phase_end);
            p.probe_ns += ns(t);
            p.probes += 1;
            if next > now {
                p.hits += 1;
                p.skipped += next.value() - now.value();
                now = next;
                continue;
            }
            let a = allocs();
            let t = Instant::now();
            sw.step_fast(now);
            p.fast_ns += ns(t);
            p.fast_allocs += allocs() - a;
            p.fast_steps += 1;
            now = now.next();
        }
    }
    p.own_fast_s += loop_start.elapsed().as_secs_f64();
    p.fast_cycles += sim.cycles();
    p.check(
        &format!("{} fast loop", sim.label),
        switch_digest(&sw),
        reference,
    );
    drop(sw);

    // Plain engine calls, for the probes' own overhead.
    let mut sw = sim.build()?.model;
    let t = CpuTimer::start();
    BitparRunner::new(sim.schedule).run(&mut sw);
    p.plain_fast_s += t.elapsed().as_secs_f64();
    drop(sw);
    let mut sw = sim.build()?.model;
    let t = CpuTimer::start();
    Runner::new(sim.schedule).run(&mut sw);
    p.plain_dense_s += t.elapsed().as_secs_f64();
    drop(sw);

    // Tracing on: a counting sink beside whatever the workload attaches.
    let mut sw = sim.build()?.model;
    let counts = Arc::new(Counts::default());
    sw.tracer_mut()
        .attach(Box::new(CountingSink(Arc::clone(&counts))));
    let t = CpuTimer::start();
    BitparRunner::new(sim.schedule).run(&mut sw);
    p.traced_fast_s += t.elapsed().as_secs_f64();
    p.check(
        &format!("{} traced run", sim.label),
        switch_digest(&sw),
        reference,
    );
    drop(sw);
    p.count_events(&counts, sim.cycles());

    // The sources alone, replayed from the same seeds.
    let mut injectors = sim.injectors();
    let a = allocs();
    let t = Instant::now();
    let mut now = Cycle::ZERO;
    while now < end {
        for inj in &mut injectors {
            black_box(inj.poll(now));
        }
        now = now.next();
    }
    p.poll_ns += ns(t);
    p.poll_allocs += allocs() - a;
    p.polls += sim.cycles() * injectors.len() as u64;
    let injectors = sim.injectors();
    let t = Instant::now();
    let mut now = Cycle::ZERO;
    while now < end {
        for inj in &injectors {
            black_box(inj.next_arrival(black_box(now)));
        }
        now = now.next();
    }
    p.next_ns += ns(t);
    p.nexts += sim.cycles() * injectors.len() as u64;
    Ok(())
}

/// Whether a fabric node is idle: every input buffer empty and every
/// output channel idle.
fn node_idle(sw: &QosSwitch) -> bool {
    let radix = sw.config().geometry().radix();
    (0..radix).all(|i| sw.port(InputId::new(i)).total_occupancy() == 0)
        && (0..radix).all(|o| sw.channel(OutputId::new(o)).is_idle())
}

/// One traced pass over the fabric.
fn fabric_pass(
    sim: &FabricSim,
    reference: &Reference,
    pass: usize,
    allocs: fn() -> u64,
    p: &mut Probe,
    counters: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let t = CpuTimer::start();
    let fab = Fabric::new(sim.topology(), &sim.flows, sim.seed).map_err(|e| e.to_string())?;
    p.setup_sample("net.build_s", t.elapsed().as_secs_f64(), pass);
    let t = CpuTimer::start();
    let report = black_box(fab.preflight());
    p.setup_sample("check.preflight_s", t.elapsed().as_secs_f64(), pass);
    drop(report);
    let configs: Vec<_> = (0..fab.node_count())
        .map(|n| fab.node(n).config().clone())
        .collect();
    drop(fab);
    for config in configs {
        let radix = config.geometry().radix();
        let t = CpuTimer::start();
        let sw = QosSwitch::new(config).map_err(|e| e.to_string())?;
        p.setup_sample("core.build_s", t.elapsed().as_secs_f64(), pass);
        drop(sw);
        let t = CpuTimer::start();
        let matrices: [MetricsMatrix; 3] = std::array::from_fn(|_| MetricsMatrix::new(radix));
        p.setup_sample("stats.matrix_build_s", t.elapsed().as_secs_f64(), pass);
        drop(black_box(matrices));
    }

    // `Fabric::step`, one timed call at a time.
    let warm = Cycle::ZERO + sim.schedule.warmup();
    let end = Cycle::new(sim.cycles());
    let mut fab = sim.build()?.model;
    let loop_start = CpuTimer::start();
    let mut idle_s = 0.0;
    let mut now = Cycle::ZERO;
    while now < end {
        if now == warm {
            let t = CpuTimer::start();
            fab.begin_measurement(now);
            p.setup_sample("core.begin_measurement_s", t.elapsed().as_secs_f64(), pass);
        }
        let a = allocs();
        let t = Instant::now();
        fab.step(now);
        p.dense_ns += ns(t);
        p.dense_allocs += allocs() - a;
        p.dense_steps += 1;
        let t = Instant::now();
        for n in 0..fab.node_count() {
            p.idle_node_cycles += u64::from(node_idle(fab.node(n)));
        }
        idle_s += t.elapsed().as_secs_f64();
        p.node_cycles += fab.node_count() as u64;
        now = now.next();
    }
    p.own_dense_s += loop_start.elapsed().as_secs_f64() - idle_s;
    p.check("fabric step loop", fabric_digest(&fab), reference);

    for n in 0..fab.node_count() {
        add_counters(counters, fab.node(n));
    }
    let c = fab.counters();
    let events = fab.events();
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count();
    for (name, value) in [
        ("net.hop_events", count("hop_enqueue") as u64),
        ("net.credit_pauses", count("credit_pause") as u64),
        ("net.drops", c.dropped_packets),
        ("net.retransmits", c.retransmits),
        ("net.source_blocked", c.source_blocked),
        ("net.event_log_len", events.len() as u64),
    ] {
        *counters.entry(name).or_default() += value as f64;
    }

    // Trace volume: the fabric's own hop log is complete; each node's
    // flight-recorder ring holds its most recent events, so node-level
    // kinds are rated over the cycles the ring spans.
    let mut kinds = [0.0f64; 19];
    for e in events {
        kinds[kind_index(&e.kind)] += 1.0;
    }
    let cycles = sim.cycles() as f64;
    let mut captured: Vec<Event> = events.to_vec();
    let mut saturations = 0.0;
    for ring in fab.node_events() {
        let (Some(first), Some(last)) = (ring.first(), ring.last()) else {
            continue;
        };
        let span = (last.cycle - first.cycle + 1) as f64;
        for e in &ring {
            kinds[kind_index(&e.kind)] += cycles / span;
            if matches!(
                e.kind,
                EventKind::AuxVc {
                    saturated: true,
                    ..
                }
            ) {
                saturations += cycles / span;
            }
        }
        captured.extend(ring);
    }
    for (k, n) in kinds.iter().enumerate() {
        p.kinds[k] += n;
    }
    p.saturations += saturations;
    p.traced_cycles += sim.cycles();
    let room = CAPTURE.saturating_sub(p.captured.len());
    captured.truncate(room);
    p.captured.extend(captured);
    drop(fab);

    let mut fab = sim.build()?.model;
    let t = CpuTimer::start();
    Runner::new(sim.schedule).run(&mut fab);
    p.plain_dense_s += t.elapsed().as_secs_f64();
    drop(fab);
    Ok(())
}
