//! Inline runner differential battery for `xtask verify`.
//!
//! The fast verify tier model-checks the switch's invariants; this
//! battery checks the two *runners* against each other. Each scenario
//! builds the same switch twice and drives the copies with the dense
//! [`Runner`] and the idle-skipping [`BitparRunner`], then compares
//! every observable: the aggregate counters, the GB metrics table (as
//! CSV bytes), and the full event trace. Any difference is a verify
//! failure — idle skipping's contract is bit-exactness, not statistical
//! agreement. (The stepping kernel itself is pinned by the recorded
//! digests in `tests/golden/`, checked by `cargo test`.)

use std::fmt::Write as _;

use ssq_arbiter::CounterPolicy;
use ssq_core::{Policy, QosSwitch, SwitchConfig, SwitchCounters};
use ssq_sim::{BitparRunner, Runner, Schedule};
use ssq_trace::{Event, RingSink};
use ssq_traffic::{Bernoulli, FixedDest, Injector, Periodic, Saturating, UniformDest};
use ssq_types::{Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

/// Warm-up cycles per battery scenario.
const WARMUP: u64 = 200;
/// Measured cycles per battery scenario.
const MEASURE: u64 = 2_000;

/// Battery switches are all 8x8.
const RADIX: usize = 8;

/// One engine run's complete observable state.
struct Observation {
    counters: SwitchCounters,
    metrics_csv: String,
    events: Vec<Event>,
}

/// The battery scenarios: `(name, builder)`.
fn scenarios() -> Vec<(&'static str, fn() -> QosSwitch)> {
    vec![
        ("lrg-uniform-be", lrg_uniform_be),
        ("ssvc-subtract-saturated-gb", ssvc_subtract_saturated_gb),
        ("ssvc-halve-gb-be-mix", ssvc_halve_gb_be_mix),
        ("ssvc-reset-three-class", ssvc_reset_three_class),
        ("four-level-contended", four_level_contended),
        ("ssvc-long-periodic-chained", ssvc_long_periodic_chained),
    ]
}

fn base_config(policy: Policy) -> SwitchConfig {
    SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
        .policy(policy)
        .gb_buffer_flits(16)
        .sig_bits(3)
        .build()
        .expect("valid config")
}

fn reserve(config: &mut SwitchConfig, rates: &[f64]) {
    for (i, &r) in rates.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(0),
                Rate::new(r).expect("valid rate"),
                8,
            )
            .expect("reservation fits");
    }
}

fn lrg_uniform_be() -> QosSwitch {
    let config = base_config(Policy::LrgOnly);
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..8 {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.6, 4, 200 + i as u64)),
                Box::new(UniformDest::new(8, 300 + i as u64)),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

fn ssvc_subtract_saturated_gb() -> QosSwitch {
    let mut config = base_config(Policy::Ssvc(CounterPolicy::SubtractRealClock));
    reserve(&mut config, &[0.4, 0.3, 0.2]);
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..3 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

fn ssvc_halve_gb_be_mix() -> QosSwitch {
    let mut config = base_config(Policy::Ssvc(CounterPolicy::Halve));
    reserve(&mut config, &[0.5, 0.25]);
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..2 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    for i in 2..6 {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.4, 4, 500 + i as u64)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

fn ssvc_reset_three_class() -> QosSwitch {
    let mut config = base_config(Policy::Ssvc(CounterPolicy::Reset));
    reserve(&mut config, &[0.4, 0.3]);
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(0), Rate::new(0.05).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..2 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch.add_injector(
        Injector::new(
            Box::new(Periodic::new(100, 0, 1)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::GuaranteedLatency,
        )
        .for_input(InputId::new(7)),
    );
    switch.add_injector(
        Injector::new(
            Box::new(Bernoulli::new(0.5, 2, 900)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::BestEffort,
        )
        .for_input(InputId::new(4)),
    );
    switch
}

fn four_level_contended() -> QosSwitch {
    let mut config = base_config(Policy::FourLevel);
    reserve(&mut config, &[0.3, 0.3]);
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..2 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(4)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    for i in 2..5 {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.5, 4, 700 + i as u64)),
                Box::new(UniformDest::new(8, 800 + i as u64)),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

/// Sparse periodic packets of 24 to 120 flits with packet chaining and
/// a GL heartbeat: most cycles only move flits, so the idle-skipping
/// runner skips through transmissions here.
fn ssvc_long_periodic_chained() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(256)
        .be_buffer_flits(128)
        .sig_bits(3)
        .packet_chaining(true)
        .build()
        .expect("valid config");
    for (i, len) in [(0, 120), (1, 24)] {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(0),
                Rate::new(0.3).expect("valid rate"),
                len,
            )
            .expect("reservation fits");
    }
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(0), Rate::new(0.05).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid");
    let sources: [(usize, u64, u64, u64, TrafficClass); 5] = [
        (0, 600, 0, 120, TrafficClass::GuaranteedBandwidth),
        (0, 600, 1, 120, TrafficClass::GuaranteedBandwidth),
        (1, 150, 70, 24, TrafficClass::GuaranteedBandwidth),
        (5, 211, 9, 1, TrafficClass::GuaranteedLatency),
        (6, 400, 33, 60, TrafficClass::BestEffort),
    ];
    for (i, interval, phase, len, class) in sources {
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(interval, phase, len)),
                Box::new(FixedDest::new(OutputId::new(0))),
                class,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

/// Serializes every per-flow metric across all three classes to exact
/// CSV: integer counters verbatim and latencies as `f64` bit patterns,
/// so two runs compare bit-for-bit with no formatting slack.
fn metrics_csv(switch: &QosSwitch) -> String {
    let mut csv = String::from("flow,class,packets,flits,mean_bits,max\n");
    for i in 0..RADIX {
        for o in 0..RADIX {
            let flow = FlowId::new(InputId::new(i), OutputId::new(o));
            for (label, metrics) in [
                ("BE", switch.be_metrics()),
                ("GB", switch.gb_metrics()),
                ("GL", switch.gl_metrics()),
            ] {
                let m = metrics.flow(flow);
                if m.packets() == 0 {
                    continue;
                }
                let _ = writeln!(
                    csv,
                    "{flow},{label},{},{},{:#x},{}",
                    m.packets(),
                    m.flits(),
                    m.mean_latency().to_bits(),
                    m.max_latency().unwrap_or(0),
                );
            }
        }
    }
    csv
}

fn observe(switch: &QosSwitch) -> Observation {
    Observation {
        counters: switch.counters(),
        metrics_csv: metrics_csv(switch),
        events: switch
            .tracer()
            .ring()
            .map(RingSink::events)
            .unwrap_or_default(),
    }
}

/// Runs one scenario on the dense runner, or with `skip_idle` on the
/// idle-skipping one.
fn run(build: fn() -> QosSwitch, skip_idle: bool) -> Observation {
    let mut switch = build();
    switch.tracer_mut().attach_ring(1 << 16);
    let schedule = Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE));
    if skip_idle {
        BitparRunner::new(schedule).run(&mut switch);
    } else {
        Runner::new(schedule).run(&mut switch);
    }
    observe(&switch)
}

/// Compares two observations; `None` when identical, else what differed.
fn diff(dense: &Observation, skipping: &Observation) -> Option<String> {
    if dense.counters != skipping.counters {
        return Some(format!(
            "counters differ: {:?} vs {:?}",
            dense.counters, skipping.counters
        ));
    }
    if dense.metrics_csv != skipping.metrics_csv {
        return Some("GB metrics CSV differs".to_string());
    }
    if dense.events != skipping.events {
        let first = dense
            .events
            .iter()
            .zip(skipping.events.iter())
            .position(|(a, b)| a != b);
        return Some(format!(
            "event traces differ ({} vs {} events, first divergence at {:?})",
            dense.events.len(),
            skipping.events.len(),
            first
        ));
    }
    None
}

/// The battery's outcome: per-scenario report lines for the caller to
/// print, and a failure description per diverging run (empty = clean).
pub struct DiffReport {
    /// One human-readable line per scenario, in battery order.
    pub lines: Vec<String>,
    /// One entry per scenario that diverged.
    pub failures: Vec<String>,
}

/// Runs every scenario on both runners.
#[must_use]
pub fn run_battery() -> DiffReport {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (name, build) in scenarios() {
        let dense = run(build, false);
        if let Some(what) = diff(&dense, &run(build, true)) {
            failures.push(format!("{name}: {what}"));
        }
        lines.push(format!(
            "verify[diff] {:<28} {:>7} events {:>8} flits  dense == idle-skip",
            name,
            dense.events.len(),
            dense.counters.delivered_flits,
        ));
    }
    DiffReport { lines, failures }
}
