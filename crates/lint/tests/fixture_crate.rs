//! Fixture-crate integration tests: every registered lint is exercised
//! through its fire, waive, and baseline paths by feeding the files
//! under `fixtures/` to the engine at synthetic workspace paths that
//! trigger each rule's crate/file scoping.

use ssq_lint::{run_sources, Baseline, Diagnostic, EngineConfig, Report};

fn src(rel: &str, text: &str) -> (String, String) {
    (rel.to_string(), text.to_string())
}

/// The nine textual rules plus the two whole-set semantic lints, one
/// fixture file each, mapped to the paths their scoping demands.
fn textual_fixture_set() -> Vec<(String, String)> {
    vec![
        src(
            "crates/core/src/hot.rs",
            include_str!("../fixtures/textual_core.rs"),
        ),
        src(
            "crates/stats/src/counter.rs",
            include_str!("../fixtures/narrowing_counter.rs"),
        ),
        src(
            "crates/trace/src/lib.rs",
            "//! Stub lib root so `report.rs` counts as library code.\npub mod report;\n",
        ),
        src(
            "crates/trace/src/report.rs",
            include_str!("../fixtures/print_in_lib.rs"),
        ),
        src(
            "crates/core/src/switch.rs",
            include_str!("../fixtures/invariant_coverage.rs"),
        ),
        src(
            "crates/core/src/admission.rs",
            include_str!("../fixtures/silent_degrade.rs"),
        ),
        src(
            "crates/sim/src/order.rs",
            include_str!("../fixtures/nondet_order.rs"),
        ),
        src(
            "crates/faults/src/inject.rs",
            include_str!("../fixtures/feature_defs.rs"),
        ),
        src(
            "crates/circuit/src/uses.rs",
            include_str!("../fixtures/feature_use.rs"),
        ),
    ]
}

fn run_textual_fixtures() -> Report {
    run_sources(textual_fixture_set(), &EngineConfig::default())
}

fn by_rule<'r>(report: &'r Report, rule: &str) -> Vec<&'r Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .collect()
}

#[test]
fn every_non_reachability_lint_fires_exactly_once() {
    let report = run_textual_fixtures();
    let mut rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec![
            "feature-gate-hygiene",
            "invariant-site-coverage",
            "must-use-decision",
            "no-lossy-index",
            "no-narrowing-cast",
            "no-nondeterministic-order",
            "no-print-in-lib",
            "no-silent-degrade",
            "no-todo",
            "no-unwrap",
        ],
        "each fixture carries exactly one un-waived site per rule"
    );
    assert_eq!(report.blocking().len(), 10);
}

#[test]
fn fire_sites_land_on_the_expected_lines() {
    let report = run_textual_fixtures();
    let expect: &[(&str, &str, usize)] = &[
        ("no-unwrap", "crates/core/src/hot.rs", 6),
        ("no-todo", "crates/core/src/hot.rs", 13),
        ("must-use-decision", "crates/core/src/hot.rs", 21),
        ("no-lossy-index", "crates/core/src/hot.rs", 30),
        ("no-narrowing-cast", "crates/stats/src/counter.rs", 5),
        ("no-print-in-lib", "crates/trace/src/report.rs", 4),
        ("invariant-site-coverage", "crates/core/src/switch.rs", 11),
        ("no-silent-degrade", "crates/core/src/admission.rs", 6),
        ("no-nondeterministic-order", "crates/sim/src/order.rs", 8),
        ("feature-gate-hygiene", "crates/circuit/src/uses.rs", 6),
    ];
    for &(rule, file, line) in expect {
        let hits = by_rule(&report, rule);
        assert_eq!(hits.len(), 1, "{rule}: {hits:?}");
        assert_eq!(
            (hits[0].file.as_str(), hits[0].line),
            (file, line),
            "{rule}"
        );
    }
}

#[test]
fn waivers_suppress_the_twin_sites() {
    // Each fixture pairs every firing site with a waived twin; if a
    // waiver stopped parsing we would see a second finding for its rule.
    let report = run_textual_fixtures();
    for rule in [
        "no-unwrap",
        "no-todo",
        "must-use-decision",
        "no-lossy-index",
        "no-narrowing-cast",
        "no-print-in-lib",
        "invariant-site-coverage",
        "no-silent-degrade",
        "no-nondeterministic-order",
        "feature-gate-hygiene",
    ] {
        assert_eq!(by_rule(&report, rule).len(), 1, "waiver failed for {rule}");
    }
}

#[test]
fn feature_gate_stub_and_exempt_crate_pass() {
    let report = run_textual_fixtures();
    let hits = by_rule(&report, "feature-gate-hygiene");
    // The faults-crate reference and every FaultPlan mention stay clean;
    // only the ungated inject_fault reference in circuit fires.
    assert!(hits.iter().all(|d| d.file == "crates/circuit/src/uses.rs"));
    assert!(hits.iter().all(|d| d.message.contains("inject_fault")));
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("FaultPlan")));
}

#[test]
fn prof_stub_twins_satisfy_feature_gate_hygiene() {
    // The profiler's CycleProf pattern: the type name is
    // dual-defined (real under `prof`, zero-sized stub otherwise) and
    // never fires; a prof-only helper with no stub twin fires exactly
    // once, from the one ungated reference.
    let report = run_sources(
        vec![
            src(
                "crates/core/src/prof.rs",
                include_str!("../fixtures/prof_stub_twin.rs"),
            ),
            src(
                "crates/sim/src/engineprof.rs",
                include_str!("../fixtures/prof_stub_use.rs"),
            ),
        ],
        &EngineConfig::default(),
    );
    let hits = by_rule(&report, "feature-gate-hygiene");
    assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(hits[0].file, "crates/sim/src/engineprof.rs");
    assert!(
        hits[0].message.contains("arm_detail_buffer"),
        "{}",
        hits[0].message
    );
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("CycleProf")));
}

#[test]
fn panic_freedom_profiles_reachable_functions() {
    let report = run_sources(
        vec![src(
            "crates/core/src/switch.rs",
            include_str!("../fixtures/panic_freedom.rs"),
        )],
        &EngineConfig::default(),
    );
    let hits = by_rule(&report, "panic-freedom-reachability");
    assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
    let d = hits[0];
    assert!(d.message.contains("QosSwitch::commit"));
    assert_eq!(d.anchor, "QosSwitch::commit|p1i1a1");
    // `waived_hot` indexes a slot but carries a waiver.
    assert!(!report
        .diagnostics
        .iter()
        .any(|x| x.anchor.contains("waived_hot")));
    // The same `.unwrap()` also trips the textual hot-path rule.
    assert_eq!(by_rule(&report, "no-unwrap").len(), 1);
}

fn run_reachability_fixtures() -> Report {
    // One connected workspace: the switch-file root calls into the
    // arbitration-pass fixture, which calls into the arbiter crate.
    run_sources(
        vec![
            src(
                "crates/core/src/switch.rs",
                include_str!("../fixtures/mask_width.rs"),
            ),
            src(
                "crates/core/src/kernel.rs",
                include_str!("../fixtures/hot_arith.rs"),
            ),
            src(
                "crates/arbiter/src/lrg.rs",
                include_str!("../fixtures/cross_crate_pick.rs"),
            ),
        ],
        &EngineConfig::default(),
    )
}

#[test]
fn mask_width_fires_on_shift_by_unbounded_variable() {
    let report = run_reachability_fixtures();
    let hits = by_rule(&report, "mask-width-safety");
    let unbounded = hits
        .iter()
        .find(|d| d.message.contains("shift_unbounded"))
        .expect("the raw parameter shift fires");
    assert_eq!(unbounded.file, "crates/core/src/switch.rs");
    assert_eq!(unbounded.line, 21, "anchored on the raw `1u64 << amt`");
    // The waived twin shifts by the same raw parameter but stays quiet
    // (it still fires panic-freedom — the waiver names only this rule).
    assert!(!report
        .diagnostics
        .iter()
        .any(|x| x.rule == "mask-width-safety" && x.anchor.contains("shift_waived")));
}

#[test]
fn mask_width_fires_on_the_assert_bounded_shift() {
    // An `assert!` bound is not a type: the shift must go through
    // `PortSet`/`BitIndex` or carry a waiver.
    let report = run_reachability_fixtures();
    let hits = by_rule(&report, "mask-width-safety");
    assert_eq!(hits.len(), 2, "{hits:?}");
    let proven = hits
        .iter()
        .find(|d| d.message.contains("shift_proven"))
        .expect("assert-bounded shift fires");
    assert_eq!(
        (proven.file.as_str(), proven.line),
        ("crates/core/src/switch.rs", 26)
    );
    assert!(proven.message.contains("`<<`"), "{}", proven.message);
}

#[test]
fn hot_arith_fires_and_waives() {
    let report = run_reachability_fixtures();
    let hits = by_rule(&report, "unchecked-hot-arith");
    // Both raw adds fire — masking an operand first is no declared
    // type — and the waived indexing site stays quiet.
    let lines: Vec<(&str, usize)> = hits.iter().map(|d| (d.file.as_str(), d.line)).collect();
    assert_eq!(
        lines,
        vec![
            ("crates/core/src/kernel.rs", 15),
            ("crates/core/src/kernel.rs", 20)
        ],
        "{hits:?}"
    );
    assert!(hits.iter().any(|d| d.anchor.contains("unbounded_sum")));
    assert!(hits.iter().any(|d| d.anchor.contains("bounded_diff")));
    assert!(!hits.iter().any(|d| d.anchor.contains("waived_mix")));
}

fn run_site_rule_fixture() -> Report {
    run_sources(
        vec![src(
            "crates/core/src/switch.rs",
            include_str!("../fixtures/site_rules.rs"),
        )],
        &EngineConfig::default(),
    )
}

#[test]
fn site_rules_accept_literal_shifts_floats_and_nonzero_divisors() {
    let report = run_site_rule_fixture();
    for accepted in ["literal_shifts", "float_ops", "nonzero_div"] {
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.message.contains(accepted)),
            "{accepted} holds no site: {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn site_rules_still_fire_on_raw_shifts_and_integer_division() {
    let report = run_site_rule_fixture();
    let shifts = by_rule(&report, "mask-width-safety");
    assert_eq!(shifts.len(), 1, "{shifts:?}");
    assert_eq!(shifts[0].line, 41);
    assert!(shifts[0].message.contains("raw_shift"));
    let mut anchors: Vec<&str> = by_rule(&report, "panic-freedom-reachability")
        .iter()
        .map(|d| d.anchor.as_str())
        .collect();
    anchors.sort_unstable();
    assert_eq!(
        anchors,
        vec![
            "QosSwitch::plain_div|p0i0a1",
            "QosSwitch::raw_shift|p0i0a1",
            "QosSwitch::rebound|p0i0a1",
        ]
    );
}

#[test]
fn panic_freedom_reaches_across_crates_in_two_hops() {
    // step (core) -> hot_decide (core) -> cross_hop -> lrg::pick_winner
    // (arbiter): the unified workspace graph must carry the panic-freedom
    // contract into the second crate.
    let report = run_reachability_fixtures();
    let hits = by_rule(&report, "panic-freedom-reachability");
    let cross = hits
        .iter()
        .find(|d| d.file == "crates/arbiter/src/lrg.rs")
        .expect("cross-crate target must be profiled");
    assert!(cross.message.contains("pick_winner"), "{}", cross.message);
    assert_eq!(cross.anchor, "pick_winner|p0i1a0");
}

#[test]
fn baseline_round_trip_unblocks_recorded_findings_only() {
    let report = run_textual_fixtures();
    assert_eq!(report.blocking().len(), 10);

    // Grandfather today's findings, re-run, apply: nothing blocks.
    let baseline = Baseline::parse(&ssq_lint::baseline::render(&report.diagnostics));
    assert_eq!(baseline.len(), 10);
    let mut rerun = run_textual_fixtures();
    baseline.apply(&mut rerun.diagnostics);
    assert!(rerun.blocking().is_empty(), "{:?}", rerun.blocking());

    // A brand-new violation still blocks against the same baseline.
    let mut sources = textual_fixture_set();
    sources.push(src(
        "crates/core/src/fresh.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
    ));
    let mut with_new = run_sources(sources, &EngineConfig::default());
    baseline.apply(&mut with_new.diagnostics);
    let blocking = with_new.blocking();
    assert_eq!(blocking.len(), 1);
    assert_eq!(blocking[0].file, "crates/core/src/fresh.rs");
    assert_eq!(blocking[0].rule, "no-unwrap");
}

#[test]
fn runs_are_deterministic() {
    let a = run_textual_fixtures();
    let b = run_textual_fixtures();
    let key = |r: &Report| -> Vec<(String, usize, String, String)> {
        r.diagnostics
            .iter()
            .map(|d| (d.file.clone(), d.line, d.rule.to_string(), d.anchor.clone()))
            .collect()
    };
    assert_eq!(key(&a), key(&b));
}
