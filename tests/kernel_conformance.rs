//! Kernel conformance: the stepping kernel reproduces the digests
//! recorded before the parallel engine and the separate decide and
//! commit passes were deleted, and the idle-skipping [`BitparRunner`] is **byte-identical**
//! to the dense [`Runner`] — same grants, same counters, same per-flow
//! metrics, same trace events — on every scenario.
//!
//! The battery sweeps seeded random request matrices across every
//! arbitration policy (the three SSVC counter policies plus LRG-only,
//! exact Virtual Clock, GSF, WRR, DWRR, WFQ and the 4-level design) and
//! {BE, GB, GL} class mixes, plus a fabric-checked SSVC subset, runs
//! each on both runners, and compares the complete observable state.
//! The fig4 test exports the fig4-style scenario's JSONL trace through
//! both runners and compares the files byte for byte.
//!
//! Every scenario's dense observation is also pinned against a recorded
//! digest in `tests/golden/`: FNV-1a over the counters, the per-flow
//! metrics CSV and the JSONL trace. The smoke test pins the traces
//! `ssq faults --smoke` and `ssq net --smoke` export with
//! `--trace-dir`, and their verdict tables, the same way. Set
//! `SSQ_BLESS_GOLDENS=1` to (re)write the digest files instead of
//! checking them.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig, SwitchCounters};
use swizzle_qos::sim::{BitparRunner, Runner, Schedule};
use swizzle_qos::trace::{Event, RingSink};
use swizzle_qos::traffic::{
    Bernoulli, FixedDest, Injector, Periodic, Saturating, Trace, UniformDest,
};
use swizzle_qos::types::{
    Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass, Xoshiro256StarStar,
};

const RADIX: usize = 8;
const WARMUP: u64 = 50;
const MEASURE: u64 = 400;

/// Which traffic classes a scenario mixes.
#[derive(Clone, Copy, Debug)]
enum Mix {
    BeOnly,
    GbBe,
    GbGlBe,
}

const POLICIES: &[CounterPolicy] = &[
    CounterPolicy::SubtractRealClock,
    CounterPolicy::Halve,
    CounterPolicy::Reset,
];
const MIXES: &[Mix] = &[Mix::BeOnly, Mix::GbBe, Mix::GbGlBe];
/// Seeds per (SSVC counter policy, mix) cell: 3 × 3 × 24 = 216
/// scenarios.
const SEEDS_PER_CELL: u64 = 24;
/// Every non-SSVC arbitration policy.
const OTHER_POLICIES: &[Policy] = &[
    Policy::LrgOnly,
    Policy::ExactVirtualClock,
    Policy::Gsf,
    Policy::Wrr,
    Policy::Dwrr,
    Policy::Wfq,
    Policy::FourLevel,
];
/// Seeds per (other policy, mix) cell: 7 × 3 × 8 = 168 scenarios.
const SEEDS_PER_OTHER_CELL: u64 = 8;
/// Seeds per (SSVC counter policy, mix) cell of the fabric-checked
/// subset: 3 × 3 × 4 = 36 scenarios.
const SEEDS_PER_FABRIC_CELL: u64 = 4;

/// One battery scenario: a pure function of its fields.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    policy: Policy,
    mix: Mix,
    seed: u64,
    /// Run every SSVC and GL arbitration through the inhibit fabric too.
    fabric_checked: bool,
}

impl Scenario {
    /// The scenario's key in the digest file.
    fn id(&self) -> String {
        let fabric = if self.fabric_checked { "fabric/" } else { "" };
        format!("{fabric}{:?}/{:?}/{}", self.policy, self.mix, self.seed)
    }
}

/// Spreads cells across seed space so no two cells share a generator
/// stream.
fn cell_seed(policy_index: u64, mix: Mix, s: u64) -> u64 {
    s.wrapping_add(0x9E37_79B9 * (policy_index + 1))
        .wrapping_add(0xC2B2_AE35 * (mix as u64 + 1))
}

/// The whole battery, in a fixed order.
fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for &policy in POLICIES {
        for &mix in MIXES {
            for s in 0..SEEDS_PER_CELL {
                out.push(Scenario {
                    policy: Policy::Ssvc(policy),
                    mix,
                    seed: cell_seed(policy as u64, mix, s),
                    fabric_checked: false,
                });
            }
        }
    }
    for (k, &policy) in OTHER_POLICIES.iter().enumerate() {
        for &mix in MIXES {
            for s in 0..SEEDS_PER_OTHER_CELL {
                out.push(Scenario {
                    policy,
                    mix,
                    seed: cell_seed(16 + k as u64, mix, s),
                    fabric_checked: false,
                });
            }
        }
    }
    for &policy in POLICIES {
        for &mix in MIXES {
            for s in 0..SEEDS_PER_FABRIC_CELL {
                out.push(Scenario {
                    policy: Policy::Ssvc(policy),
                    mix,
                    seed: cell_seed(32 + policy as u64, mix, s),
                    fabric_checked: true,
                });
            }
        }
    }
    out
}

/// Builds one seeded random scenario. Reservations, request matrix,
/// rates, and packet lengths are all drawn from the scenario's own
/// deterministic generator, so a scenario is a pure function of
/// `(policy, mix, seed)` and both runners receive identical copies.
fn build(policy: CounterPolicy, mix: Mix, seed: u64) -> QosSwitch {
    build_scenario(Scenario {
        policy: Policy::Ssvc(policy),
        mix,
        seed,
        fabric_checked: false,
    })
}

fn build_scenario(scenario: Scenario) -> QosSwitch {
    let Scenario {
        policy,
        mix,
        seed,
        fabric_checked,
    } = scenario;
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(policy)
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .sig_bits(3)
        .fabric_checked(fabric_checked)
        .build()
        .expect("valid config");

    // GB reservations: 2-4 flows contending for one hot output.
    let hot = OutputId::new(rng.index(RADIX));
    let mut gb_inputs = Vec::new();
    if !matches!(mix, Mix::BeOnly) {
        let flows = 2 + rng.index(3);
        let budget = 0.2 + 0.6 * rng.f64();
        for _ in 0..flows {
            let mut input = InputId::new(rng.index(RADIX));
            while gb_inputs.contains(&input) {
                input = InputId::new(rng.index(RADIX));
            }
            let len = 1 << rng.index(4);
            config
                .reservations_mut()
                .reserve_gb(
                    input,
                    hot,
                    Rate::new(budget / flows as f64).expect("valid rate"),
                    len,
                )
                .expect("reservation fits");
            gb_inputs.push(input);
        }
    }
    if matches!(mix, Mix::GbGlBe) {
        config
            .reservations_mut()
            .reserve_gl(hot, Rate::new(0.02 + 0.06 * rng.f64()).expect("valid rate"))
            .expect("GL reservation fits");
    }

    let mut switch = QosSwitch::new(config).expect("valid switch");

    // GB traffic: saturating sources pinned to the reserved output.
    for &input in &gb_inputs {
        let len = 1 << rng.index(4);
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(len)),
                Box::new(FixedDest::new(hot)),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(input),
        );
    }
    // One GL flow from an unreserved input, when the mix has GL.
    if matches!(mix, Mix::GbGlBe) {
        let mut input = InputId::new(rng.index(RADIX));
        while gb_inputs.contains(&input) {
            input = InputId::new(rng.index(RADIX));
        }
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(rng.range(40, 150), rng.below(20), 1)),
                Box::new(FixedDest::new(hot)),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(input),
        );
        gb_inputs.push(input);
    }
    // BE background: every remaining input fires with some probability,
    // either at the hot output or uniformly.
    for i in 0..RADIX {
        let input = InputId::new(i);
        if gb_inputs.contains(&input) || !rng.chance(0.7) {
            continue;
        }
        let rate = 0.1 + 0.6 * rng.f64();
        let len = 1 << rng.index(3);
        let dest: Box<dyn swizzle_qos::traffic::DestinationPattern + Send + Sync> =
            if rng.chance(0.5) {
                Box::new(FixedDest::new(hot))
            } else {
                Box::new(UniformDest::new(RADIX, rng.next_u64()))
            };
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(rate, len, rng.next_u64())),
                dest,
                TrafficClass::BestEffort,
            )
            .for_input(input),
        );
    }
    switch
}

/// One run's complete observable state.
#[derive(PartialEq)]
struct Observation {
    counters: SwitchCounters,
    metrics: String,
    events: Vec<Event>,
    /// Per-output channel state and utilization, then per-input buffer
    /// occupancy: compared across runners but outside the digest.
    datapath: Vec<String>,
}

/// Per-flow metrics across all three classes, serialized exactly:
/// integers verbatim, latency means as `f64` bit patterns.
fn metrics_csv(switch: &QosSwitch) -> String {
    use std::fmt::Write as _;
    let radix = switch.config().geometry().radix();
    let mut csv = String::new();
    for i in 0..radix {
        for o in 0..radix {
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

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The JSONL text a trace export writes for `events`.
fn jsonl(events: &[Event]) -> String {
    let mut text = String::new();
    for event in events {
        text.push_str(&event.to_jsonl());
        text.push('\n');
    }
    text
}

impl Observation {
    /// One digest over the counters, the metrics CSV and the JSONL trace.
    fn digest(&self) -> u64 {
        let text = format!(
            "{:?}\n--\n{}--\n{}",
            self.counters,
            self.metrics,
            jsonl(&self.events)
        );
        fnv1a(text.as_bytes())
    }
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Checks `got` (id → digest) against the recorded digest file `name`,
/// or records it when `SSQ_BLESS_GOLDENS` is set.
fn check_goldens(name: &str, got: &[(String, u64)]) {
    let path = golden_path(name);
    if std::env::var_os("SSQ_BLESS_GOLDENS").is_some() {
        let mut text =
            String::from("# FNV-1a digests recorded before the stepping-kernel cut; never edit.\n");
        for (id, d) in got {
            text.push_str(&format!("{id} {d:016x}\n"));
        }
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, text).expect("write goldens");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (record with SSQ_BLESS_GOLDENS=1)", path.display()));
    let want: BTreeMap<&str, &str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.rsplit_once(' ').expect("`id digest` line"))
        .collect();
    assert_eq!(want.len(), got.len(), "{name}: scenario count changed");
    let mut bad = Vec::new();
    for (id, d) in got {
        let hex = format!("{d:016x}");
        match want.get(id.as_str()) {
            Some(&w) if w == hex => {}
            Some(&w) => bad.push(format!("{id}: recorded {w}, got {hex}")),
            None => bad.push(format!("{id}: not recorded")),
        }
    }
    assert!(
        bad.is_empty(),
        "{name}: {} digest mismatch(es), first: {}",
        bad.len(),
        bad[..bad.len().min(5)].join("; ")
    );
}

fn observe(switch: &QosSwitch) -> Observation {
    Observation {
        counters: switch.counters(),
        metrics: metrics_csv(switch),
        events: switch
            .tracer()
            .ring()
            .map(RingSink::events)
            .unwrap_or_default(),
        datapath: datapath(switch),
    }
}

/// The end-of-run datapath state the digests leave out: each output
/// channel's FSM state and utilization counters, and each input port's
/// buffer occupancy.
fn datapath(switch: &QosSwitch) -> Vec<String> {
    let radix = switch.config().geometry().radix();
    let channels = (0..radix).map(|o| {
        let ch = switch.channel(OutputId::new(o));
        format!(
            "{:?} busy {} arb {}",
            ch.state(),
            ch.busy_flit_cycles(),
            ch.arbitration_cycles()
        )
    });
    let ports = (0..radix).map(|i| switch.port(InputId::new(i)).to_string());
    channels.chain(ports).collect()
}

/// Drives `switch` through `schedule` on the dense runner, or with
/// `skip_idle` on the idle-skipping one.
fn run(switch: &mut QosSwitch, schedule: Schedule, skip_idle: bool) {
    if skip_idle {
        BitparRunner::new(schedule).run(switch);
    } else {
        Runner::new(schedule).run(switch);
    }
}

fn run_traced(mut switch: QosSwitch, skip_idle: bool) -> Observation {
    switch.tracer_mut().attach_ring(1 << 16);
    let schedule = Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE));
    run(&mut switch, schedule, skip_idle);
    observe(&switch)
}

fn assert_identical(seq: &Observation, other: &Observation, scenario: &str) {
    let tag = format!("[{scenario}]");
    assert_eq!(seq.counters, other.counters, "{tag} counters diverged");
    assert_eq!(
        seq.metrics, other.metrics,
        "{tag} per-flow metrics diverged"
    );
    assert_eq!(
        seq.datapath, other.datapath,
        "{tag} channel or buffer state diverged"
    );
    assert_eq!(
        seq.events.len(),
        other.events.len(),
        "{tag} event counts diverged"
    );
    for (n, (a, b)) in seq.events.iter().zip(other.events.iter()).enumerate() {
        assert_eq!(a, b, "{tag} first event divergence at index {n}");
    }
}

/// The headline battery: 420 seeded scenarios, each run on the dense
/// and the idle-skipping runner — every observable identical across the
/// two runs and equal to the recorded digest.
#[test]
fn runners_match_goldens_across_seeded_scenarios() {
    let mut digests = Vec::new();
    for scenario in scenarios() {
        let id = scenario.id();
        let dense = run_traced(build_scenario(scenario), false);
        let skipping = run_traced(build_scenario(scenario), true);
        assert_identical(&dense, &skipping, &id);
        digests.push((id, dense.digest()));
    }
    check_goldens("seeded_battery.digests", &digests);
}

/// A long saturated run exercising counter-policy epochs (decay, halve,
/// reset) far past the short battery's horizon, on both runners.
#[test]
fn runners_match_on_long_saturated_run() {
    let mut digests = Vec::new();
    for &policy in POLICIES {
        let build_long = |policy| {
            let mut switch = build(policy, Mix::GbBe, 4242);
            switch.tracer_mut().attach_ring(1 << 17);
            switch
        };
        let schedule = Schedule::new(Cycles::new(500), Cycles::new(8_000));
        let mut dense_switch = build_long(policy);
        run(&mut dense_switch, schedule, false);
        let dense = observe(&dense_switch);
        let mut skip_switch = build_long(policy);
        run(&mut skip_switch, schedule, true);
        let skipping = observe(&skip_switch);
        assert!(
            dense == skipping,
            "{policy:?}: long-run idle-skip divergence (events {} vs {})",
            dense.events.len(),
            skipping.events.len()
        );
        digests.push((format!("long/{policy:?}"), dense.digest()));
    }
    check_goldens("long_run.digests", &digests);
}

/// Builds the fig4-style saturated-GB scenario used by the paper's
/// throughput figure: eight saturating GB flows with skewed reserved
/// rates, all contending for output 0.
fn fig4_switch() -> QosSwitch {
    const FIG4_RATES: [f64; 8] = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .sig_bits(4)
        .build()
        .expect("valid config");
    for (i, &r) in FIG4_RATES.iter().enumerate() {
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
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for i in 0..RADIX {
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

/// Trace-ordering golden: the JSONL trace the idle-skipping runner
/// writes for the fig4 scenario is byte-identical to the dense runner's,
/// and equal to the recorded digest.
#[test]
fn fig4_jsonl_trace_is_byte_identical() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let schedule = Schedule::new(Cycles::new(200), Cycles::new(3_000));

    let mut paths = Vec::new();
    for (label, skip_idle) in [("dense", false), ("idle-skip", true)] {
        let path = dir.join(format!("ssq-fig4-conformance-{pid}-{label}.jsonl"));
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut switch = fig4_switch();
        switch
            .tracer_mut()
            .attach_jsonl(Box::new(std::io::BufWriter::new(file)));
        run(&mut switch, schedule, skip_idle);
        switch.tracer_mut().flush();
        assert!(
            switch.tracer().jsonl().and_then(|j| j.io_error()).is_none(),
            "trace write failed for {label}"
        );
        drop(switch);
        paths.push(path);
    }

    let mut golden = Vec::new();
    std::fs::File::open(&paths[0])
        .expect("open golden")
        .read_to_end(&mut golden)
        .expect("read golden");
    assert!(!golden.is_empty(), "dense trace is empty");
    check_goldens("fig4_trace.digests", &[("fig4".to_owned(), fnv1a(&golden))]);
    for path in &paths[1..] {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .expect("open idle-skip trace")
            .read_to_end(&mut bytes)
            .expect("read idle-skip trace");
        assert_eq!(
            golden,
            bytes,
            "idle-skip JSONL trace differs from dense ({})",
            path.display()
        );
    }
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

/// Runs `ssq <args> --trace-dir <dir> --csv` and returns the digests of
/// its stdout (the verdict table) and of every trace file it exported.
fn smoke_digests(label: &str, args: &[&str]) -> Vec<(String, u64)> {
    let dir =
        std::env::temp_dir().join(format!("ssq-smoke-goldens-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ssq"))
        .args(args)
        .arg("--trace-dir")
        .arg(&dir)
        .arg("--csv")
        .output()
        .expect("run ssq");
    assert!(
        out.status.success(),
        "ssq {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut digests = vec![(format!("{label}/table.csv"), fnv1a(&out.stdout))];
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("trace dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    for path in files {
        let bytes = std::fs::read(&path).expect("read trace");
        let name = path.file_name().expect("file name").to_string_lossy();
        digests.push((format!("{label}/{name}"), fnv1a(&bytes)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

/// The chaos smokes' exported traces and verdict tables equal the
/// recorded digests.
#[test]
fn smoke_traces_match_goldens() {
    let mut digests = smoke_digests("faults", &["faults", "--smoke", "--seed", "7"]);
    digests.extend(smoke_digests("net", &["net", "--smoke", "--seed", "7"]));
    check_goldens("smoke_traces.digests", &digests);
}

/// A mid-run control action applied at the start of a cycle, before
/// that cycle's step.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// Take an input link down (`false`) or bring it back up.
    Link(usize, bool),
    /// Swallow the next `n` decay epochs at an output's SSVC clock.
    SkipEpochs(usize, u64),
    /// Heal every persistent fault and disarm detection.
    HealAll,
    /// Renegotiate `(input, output)`'s GB reservation to a new rate.
    Reserve(usize, usize, f64),
    /// Attach a freshly built injector.
    Attach(fn() -> Injector),
}

/// A scripted scenario: a switch, a horizon, and timed actions.
struct Scripted {
    id: &'static str,
    switch: fn() -> QosSwitch,
    cycles: u64,
    warmup: u64,
    acts: Vec<(u64, Act)>,
}

fn apply(switch: &mut QosSwitch, act: Act, now: swizzle_qos::types::Cycle) {
    match act {
        Act::Link(i, up) => switch.fault_set_link(InputId::new(i), up, now),
        Act::SkipEpochs(o, n) => switch.fault_skip_epochs(OutputId::new(o), n, now),
        Act::HealAll => switch.fault_heal_all(now),
        Act::Reserve(i, o, rate) => switch
            .update_gb_reservation(
                InputId::new(i),
                OutputId::new(o),
                Rate::new(rate).expect("valid rate"),
                8,
            )
            .expect("renegotiated rate fits"),
        Act::Attach(injector) => switch.add_injector(injector()),
    }
}

/// Drives a scripted scenario cycle by cycle (dense) or with idle
/// skipping that never jumps over an action or the warm-up boundary,
/// and returns its observation.
fn drive(s: &Scripted, skip_idle: bool) -> Observation {
    use swizzle_qos::sim::{CycleModel as _, EventModel as _};
    use swizzle_qos::types::Cycle;
    let mut switch = (s.switch)();
    switch.tracer_mut().attach_ring(1 << 18);
    let mut stops: Vec<u64> = s.acts.iter().map(|&(at, _)| at).collect();
    stops.extend([s.warmup, s.cycles]);
    stops.sort_unstable();
    let mut now = 0;
    while now < s.cycles {
        if now == s.warmup {
            switch.begin_measurement(Cycle::new(now));
        }
        for &(_, act) in s.acts.iter().filter(|&&(at, _)| at == now) {
            apply(&mut switch, act, Cycle::new(now));
        }
        if skip_idle {
            let limit = stops.iter().copied().find(|&c| c > now).unwrap_or(s.cycles);
            let next = switch.skip_idle(Cycle::new(now), Cycle::new(limit));
            if next.value() > now {
                now = next.value();
                continue;
            }
        }
        switch.step(Cycle::new(now));
        now += 1;
    }
    observe(&switch)
}

fn gb(switch_config: &mut SwitchConfig, i: usize, o: usize, rate: f64, len: u64) {
    switch_config
        .reservations_mut()
        .reserve_gb(
            InputId::new(i),
            OutputId::new(o),
            Rate::new(rate).expect("valid rate"),
            len,
        )
        .expect("reservation fits");
}

fn inject(
    switch: &mut QosSwitch,
    i: usize,
    source: Box<dyn swizzle_qos::traffic::TrafficSource + Send + Sync>,
    dest: Box<dyn swizzle_qos::traffic::DestinationPattern + Send + Sync>,
    class: TrafficClass,
) {
    switch.add_injector(Injector::new(source, dest, class).for_input(InputId::new(i)));
}

/// Radix 64 under SSVC: GB flows from inputs 0, 1, 62 and 63 into
/// output 63 and from input 63 into output 0, a GL flow into output
/// 63, and uniform BE background — every word operation touches bit 63.
fn radix64_switch(policy: CounterPolicy) -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(64, 256).expect("valid geometry"))
        .policy(Policy::Ssvc(policy))
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .sig_bits(3)
        .gl_policing(true)
        .build()
        .expect("valid config");
    for (i, rate) in [(0, 0.3), (1, 0.2), (62, 0.15), (63, 0.1)] {
        gb(&mut config, i, 63, rate, 8);
    }
    gb(&mut config, 63, 0, 0.5, 4);
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(63), Rate::new(0.05).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for i in [0, 1, 62, 63] {
        inject(
            &mut switch,
            i,
            Box::new(Saturating::new(8)),
            Box::new(FixedDest::new(OutputId::new(63))),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    inject(
        &mut switch,
        63,
        Box::new(Bernoulli::new(0.3, 4, 11)),
        Box::new(FixedDest::new(OutputId::new(0))),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        31,
        Box::new(Periodic::new(61, 7, 1)),
        Box::new(FixedDest::new(OutputId::new(63))),
        TrafficClass::GuaranteedLatency,
    );
    for i in (2..62).step_by(3) {
        inject(
            &mut switch,
            i,
            Box::new(Bernoulli::new(0.2, 2, 100 + i as u64)),
            Box::new(UniformDest::new(64, 7 * i as u64 + 1)),
            TrafficClass::BestEffort,
        );
    }
    switch
}

/// The 4-level design (two-cycle arbitration) with GL, GB and BE
/// contending at outputs 2 and 5 while input links flap, cutting off
/// requests in the middle of two-cycle waits.
fn four_level_flap_switch() -> QosSwitch {
    let config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::FourLevel)
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .build()
        .expect("valid config");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let two = || Box::new(FixedDest::new(OutputId::new(2)));
    inject(
        &mut switch,
        0,
        Box::new(Saturating::new(4)),
        two(),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        1,
        Box::new(Bernoulli::new(0.4, 2, 5)),
        two(),
        TrafficClass::BestEffort,
    );
    inject(
        &mut switch,
        4,
        Box::new(Periodic::new(13, 3, 1)),
        two(),
        TrafficClass::GuaranteedLatency,
    );
    inject(
        &mut switch,
        3,
        Box::new(Bernoulli::new(0.5, 1, 9)),
        Box::new(FixedDest::new(OutputId::new(5))),
        TrafficClass::BestEffort,
    );
    inject(
        &mut switch,
        6,
        Box::new(Bernoulli::new(0.3, 3, 21)),
        Box::new(UniformDest::new(RADIX, 77)),
        TrafficClass::BestEffort,
    );
    switch
}

/// Link flaps on inputs 0, 3 and 4 at staggered phases, so some land
/// while an output sits one cycle into its two-cycle arbitration.
fn flap_acts() -> Vec<(u64, Act)> {
    let mut acts = Vec::new();
    for k in 0..40u64 {
        let base = 60 + 37 * k;
        let input = [0usize, 3, 4][(k % 3) as usize];
        acts.push((base + k % 2, Act::Link(input, false)));
        acts.push((base + 3 + k % 4, Act::Link(input, true)));
    }
    acts.sort_by_key(|&(at, _)| at);
    acts
}

/// GSF with bursty GB flows that overrun their per-frame budgets and
/// long idle gaps, so frames roll over inside skipped stretches.
fn gsf_sparse_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Gsf)
        .gb_buffer_flits(64)
        .be_buffer_flits(16)
        .build()
        .expect("valid config");
    gb(&mut config, 0, 1, 0.05, 8);
    gb(&mut config, 2, 1, 0.1, 8);
    gb(&mut config, 5, 1, 0.2, 8);
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let one = || Box::new(FixedDest::new(OutputId::new(1)));
    for k in 0..8 {
        inject(
            &mut switch,
            0,
            Box::new(Periodic::new(1700, k, 8)),
            one(),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    for k in 0..5 {
        inject(
            &mut switch,
            2,
            Box::new(Periodic::new(2300, 400 + k, 8)),
            one(),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    for k in 0..3 {
        inject(
            &mut switch,
            5,
            Box::new(Periodic::new(1100, 900 + 2 * k, 8)),
            one(),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    inject(
        &mut switch,
        7,
        Box::new(Periodic::new(997, 31, 2)),
        one(),
        TrafficClass::BestEffort,
    );
    switch
}

/// SSVC under subtract-real-clock with saturated GB flows, GL with
/// policing and packet chaining, for the epoch-skip and live
/// renegotiation scripts.
fn ssvc_script_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .sig_bits(3)
        .gl_policing(true)
        .packet_chaining(true)
        .build()
        .expect("valid config");
    for (i, rate) in [(0, 0.4), (1, 0.2), (2, 0.1)] {
        gb(&mut config, i, 3, rate, 8);
    }
    gb(&mut config, 4, 6, 0.3, 8);
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(3), Rate::new(0.02).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let three = || Box::new(FixedDest::new(OutputId::new(3)));
    for i in 0..3 {
        inject(
            &mut switch,
            i,
            Box::new(Saturating::new(8)),
            three(),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    inject(
        &mut switch,
        5,
        Box::new(Saturating::new(1)),
        three(),
        TrafficClass::GuaranteedLatency,
    );
    inject(
        &mut switch,
        4,
        Box::new(Periodic::new(29, 0, 8)),
        Box::new(FixedDest::new(OutputId::new(6))),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        7,
        Box::new(Bernoulli::new(0.3, 2, 3)),
        Box::new(UniformDest::new(RADIX, 5)),
        TrafficClass::BestEffort,
    );
    switch
}

/// Sparse periodic SSVC traffic with GL policing: decay epochs, the
/// policer and swallowed epochs all advance across skipped stretches.
fn ssvc_sparse_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(64)
        .sig_bits(3)
        .gl_policing(true)
        .packet_chaining(true)
        .build()
        .expect("valid config");
    gb(&mut config, 0, 2, 0.3, 8);
    gb(&mut config, 1, 2, 0.1, 8);
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(2), Rate::new(0.005).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let two = || Box::new(FixedDest::new(OutputId::new(2)));
    for k in 0..6 {
        inject(
            &mut switch,
            0,
            Box::new(Periodic::new(1300, k, 8)),
            two(),
            TrafficClass::GuaranteedBandwidth,
        );
        inject(
            &mut switch,
            1,
            Box::new(Periodic::new(1300, 2 * k, 8)),
            two(),
            TrafficClass::GuaranteedBandwidth,
        );
        inject(
            &mut switch,
            3,
            Box::new(Periodic::new(1300, 1 + 3 * k, 1)),
            two(),
            TrafficClass::GuaranteedLatency,
        );
    }
    switch
}

/// Packets of 40 to 200 flits, far longer than any arrival gap or
/// clock period, from periodic and trace sources in all three classes:
/// most cycles only move flits on busy channels.
fn long_packet_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(400)
        .be_buffer_flits(256)
        .gl_buffer_flits(16)
        .sig_bits(3)
        .build()
        .expect("valid config");
    gb(&mut config, 0, 1, 0.3, 200);
    gb(&mut config, 2, 1, 0.2, 40);
    gb(&mut config, 3, 4, 0.4, 120);
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(1), Rate::new(0.02).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let one = || Box::new(FixedDest::new(OutputId::new(1)));
    for (i, interval, phase, len) in [(0, 700, 0, 200), (0, 1_400, 350, 200), (2, 230, 17, 40)] {
        inject(
            &mut switch,
            i,
            Box::new(Periodic::new(interval, phase, len)),
            one(),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    inject(
        &mut switch,
        3,
        Box::new(Trace::new(vec![
            (90, 120),
            (95, 64),
            (1_500, 200),
            (4_000, 77),
        ])),
        Box::new(FixedDest::new(OutputId::new(4))),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        5,
        Box::new(Periodic::new(900, 44, 150)),
        Box::new(UniformDest::new(RADIX, 13)),
        TrafficClass::BestEffort,
    );
    inject(
        &mut switch,
        6,
        Box::new(Periodic::new(333, 101, 1)),
        one(),
        TrafficClass::GuaranteedLatency,
    );
    switch
}

/// Packet chaining with bursts of queued packets on one VOQ, so chains
/// of up to `CHAIN_LIMIT` packets run through stretches where nothing
/// else happens; a competing flow and a GL source break some chains.
fn chaining_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::Halve))
        .gb_buffer_flits(128)
        .be_buffer_flits(64)
        .sig_bits(3)
        .gl_policing(true)
        .packet_chaining(true)
        .build()
        .expect("valid config");
    gb(&mut config, 1, 2, 0.4, 24);
    gb(&mut config, 4, 2, 0.2, 16);
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(2), Rate::new(0.02).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let two = || Box::new(FixedDest::new(OutputId::new(2)));
    for k in 0..5 {
        inject(
            &mut switch,
            1,
            Box::new(Periodic::new(640, k, 24)),
            two(),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    for k in 0..3 {
        inject(
            &mut switch,
            4,
            Box::new(Periodic::new(1_280, 60 + 2 * k, 16)),
            two(),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    for k in 0..4 {
        inject(
            &mut switch,
            6,
            Box::new(Periodic::new(910, 300 + k, 12)),
            Box::new(FixedDest::new(OutputId::new(5))),
            TrafficClass::BestEffort,
        );
    }
    inject(
        &mut switch,
        7,
        Box::new(Periodic::new(777, 41, 2)),
        two(),
        TrafficClass::GuaranteedLatency,
    );
    switch
}

/// The 4-level design while every requester of an output is busy on
/// another one: inputs 0-2 stream long packets to outputs 0-2 and then
/// request output 3, and input 5 is taken by output 4 one cycle into
/// output 2's two-cycle wait.
fn four_level_busy_switch() -> QosSwitch {
    let config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::FourLevel)
        .gb_buffer_flits(128)
        .be_buffer_flits(64)
        .build()
        .expect("valid config");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let to = |o: usize| Box::new(FixedDest::new(OutputId::new(o)));
    for i in 0..3 {
        inject(
            &mut switch,
            i,
            Box::new(Periodic::new(500, 10 * i as u64, 60)),
            to(i),
            TrafficClass::GuaranteedBandwidth,
        );
        inject(
            &mut switch,
            i,
            Box::new(Periodic::new(500, 25 + i as u64, 8)),
            to(3),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    inject(
        &mut switch,
        5,
        Box::new(Periodic::new(400, 200, 30)),
        to(4),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        5,
        Box::new(Periodic::new(400, 201, 10)),
        to(2),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        6,
        Box::new(Periodic::new(250, 30, 1)),
        to(3),
        TrafficClass::GuaranteedLatency,
    );
    inject(
        &mut switch,
        7,
        Box::new(Periodic::new(610, 7, 20)),
        to(1),
        TrafficClass::BestEffort,
    );
    switch
}

/// Trace bursts (back-to-back arrival cycles) landing in the middle of
/// long packets, on the transmitting input and on idle ones.
fn trace_burst_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::Reset))
        .gb_buffer_flits(256)
        .be_buffer_flits(64)
        .sig_bits(3)
        .build()
        .expect("valid config");
    gb(&mut config, 0, 3, 0.3, 64);
    gb(&mut config, 1, 3, 0.3, 8);
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let three = || Box::new(FixedDest::new(OutputId::new(3)));
    inject(
        &mut switch,
        0,
        Box::new(Periodic::new(1_000, 100, 64)),
        three(),
        TrafficClass::GuaranteedBandwidth,
    );
    let burst = |start: u64, n: u64, len: u64| (start..start + n).map(move |c| (c, len));
    inject(
        &mut switch,
        0,
        Box::new(Trace::new(
            burst(130, 4, 64).chain(burst(2_140, 3, 64)).collect(),
        )),
        three(),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        1,
        Box::new(Trace::new(
            burst(120, 6, 8)
                .chain(burst(1_150, 5, 8))
                .chain(burst(3_160, 8, 8))
                .collect(),
        )),
        three(),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        2,
        Box::new(Trace::new(
            burst(1_133, 5, 3).chain(burst(3_170, 4, 5)).collect(),
        )),
        Box::new(UniformDest::new(RADIX, 3)),
        TrafficClass::BestEffort,
    );
    switch
}

/// Long packets whose input links go down and come back mid-packet.
fn mid_packet_flap_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(256)
        .be_buffer_flits(128)
        .sig_bits(3)
        .packet_chaining(true)
        .build()
        .expect("valid config");
    gb(&mut config, 0, 1, 0.4, 100);
    gb(&mut config, 2, 1, 0.2, 50);
    let mut switch = QosSwitch::new(config).expect("valid switch");
    let one = || Box::new(FixedDest::new(OutputId::new(1)));
    for k in 0..2 {
        inject(
            &mut switch,
            0,
            Box::new(Periodic::new(600, k, 100)),
            one(),
            TrafficClass::GuaranteedBandwidth,
        );
    }
    inject(
        &mut switch,
        2,
        Box::new(Periodic::new(450, 30, 50)),
        one(),
        TrafficClass::GuaranteedBandwidth,
    );
    inject(
        &mut switch,
        4,
        Box::new(Periodic::new(520, 12, 90)),
        Box::new(FixedDest::new(OutputId::new(6))),
        TrafficClass::BestEffort,
    );
    switch
}

/// Link flaps timed inside transmissions of inputs 0, 2 and 4.
fn mid_packet_flap_acts() -> Vec<(u64, Act)> {
    let mut acts = Vec::new();
    for k in 0..8u64 {
        let base = 640 + 600 * k;
        let input = [0usize, 2, 4][(k % 3) as usize];
        acts.push((base + 20 * (k % 3), Act::Link(input, false)));
        acts.push((base + 31 + 20 * (k % 3), Act::Link(input, true)));
    }
    acts.sort_by_key(|&(at, _)| at);
    acts
}

/// A sparse periodic switch that gains injectors mid-run.
fn attach_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(64)
        .be_buffer_flits(64)
        .sig_bits(3)
        .build()
        .expect("valid config");
    gb(&mut config, 0, 2, 0.3, 32);
    gb(&mut config, 3, 2, 0.3, 16);
    let mut switch = QosSwitch::new(config).expect("valid switch");
    inject(
        &mut switch,
        0,
        Box::new(Periodic::new(300, 5, 32)),
        Box::new(FixedDest::new(OutputId::new(2))),
        TrafficClass::GuaranteedBandwidth,
    );
    switch
}

fn attach_acts() -> Vec<(u64, Act)> {
    vec![
        // Due on the attach cycle itself.
        (
            1_505,
            Act::Attach(|| {
                Injector::new(
                    Box::new(Periodic::new(300, 5, 16)),
                    Box::new(FixedDest::new(OutputId::new(2))),
                    TrafficClass::GuaranteedBandwidth,
                )
                .for_input(InputId::new(3))
            }),
        ),
        // Attached while output 2 is transmitting, first due later.
        (
            2_110,
            Act::Attach(|| {
                Injector::new(
                    Box::new(Trace::new(vec![(2_130, 40), (2_131, 40), (3_000, 24)])),
                    Box::new(FixedDest::new(OutputId::new(5))),
                    TrafficClass::BestEffort,
                )
                .for_input(InputId::new(6))
            }),
        ),
        // A saturating source for a while, then a silent one.
        (
            4_020,
            Act::Attach(|| {
                Injector::new(
                    Box::new(Saturating::new(16)),
                    Box::new(FixedDest::new(OutputId::new(7))),
                    TrafficClass::BestEffort,
                )
                .for_input(InputId::new(7))
            }),
        ),
        (4_020, Act::Link(7, false)),
        (4_300, Act::Link(7, true)),
    ]
}

fn scripted() -> Vec<Scripted> {
    vec![
        Scripted {
            id: "radix64/SubtractRealClock",
            switch: || radix64_switch(CounterPolicy::SubtractRealClock),
            cycles: 1_500,
            warmup: 100,
            acts: Vec::new(),
        },
        Scripted {
            id: "radix64/Halve",
            switch: || radix64_switch(CounterPolicy::Halve),
            cycles: 1_500,
            warmup: 100,
            acts: Vec::new(),
        },
        Scripted {
            id: "four-level/link-flaps",
            switch: four_level_flap_switch,
            cycles: 1_700,
            warmup: 50,
            acts: flap_acts(),
        },
        Scripted {
            id: "gsf/sparse-frames",
            switch: gsf_sparse_switch,
            cycles: 14_000,
            warmup: 300,
            acts: Vec::new(),
        },
        Scripted {
            id: "ssvc/skip-epochs-and-renegotiate",
            switch: ssvc_script_switch,
            cycles: 4_000,
            warmup: 200,
            acts: vec![
                (300, Act::SkipEpochs(3, 2)),
                (900, Act::Reserve(2, 3, 0.3)),
                (1_400, Act::SkipEpochs(6, 1)),
                (2_200, Act::Reserve(0, 3, 0.1)),
                (2_900, Act::HealAll),
            ],
        },
        Scripted {
            id: "ssvc/sparse-skip-epochs",
            switch: ssvc_sparse_switch,
            cycles: 12_000,
            warmup: 500,
            acts: vec![
                (700, Act::SkipEpochs(2, 3)),
                (701, Act::HealAll),
                (5_000, Act::Reserve(1, 2, 0.4)),
                (6_100, Act::SkipEpochs(2, 1)),
                (6_100, Act::HealAll),
            ],
        },
        Scripted {
            id: "long-packets/40-200-flits",
            switch: long_packet_switch,
            cycles: 9_000,
            warmup: 400,
            acts: Vec::new(),
        },
        Scripted {
            id: "chaining/chains-across-skips",
            switch: chaining_switch,
            cycles: 8_000,
            warmup: 300,
            acts: Vec::new(),
        },
        Scripted {
            id: "four-level/requesters-busy-elsewhere",
            switch: four_level_busy_switch,
            cycles: 6_000,
            warmup: 100,
            acts: Vec::new(),
        },
        Scripted {
            id: "trace/bursts-mid-packet",
            switch: trace_burst_switch,
            cycles: 4_000,
            warmup: 50,
            acts: Vec::new(),
        },
        Scripted {
            id: "link-flap/mid-packet",
            switch: mid_packet_flap_switch,
            cycles: 6_000,
            warmup: 200,
            acts: mid_packet_flap_acts(),
        },
        Scripted {
            id: "attach/injector-mid-run",
            switch: attach_switch,
            cycles: 6_000,
            warmup: 1_000,
            acts: attach_acts(),
        },
    ]
}

/// Scripted scenarios past the seeded battery's reach: radix 64 (the
/// bit-63 word edges), 4-level two-cycle waits cut by link flaps, GSF
/// frames spanning idle skips, and mid-run epoch-skip faults and live
/// renegotiation — dense and idle-skipping runs identical and equal to
/// the recorded digests.
#[test]
fn scripted_scenarios_match_goldens() {
    let mut digests = Vec::new();
    for s in scripted() {
        let dense = drive(&s, false);
        let skipping = drive(&s, true);
        assert_identical(&dense, &skipping, s.id);
        digests.push((s.id.to_owned(), dense.digest()));
    }
    check_goldens("scripted.digests", &digests);
}
