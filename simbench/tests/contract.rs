//! The benchmark's contract: every metric named in `BENCHMARK.json` is
//! printed with its unit, the traced run emits every per-layer metric,
//! and seeds fix (and vary) the arrival streams.

mod common;

use std::path::PathBuf;

use simbench::bench::{self, END_TO_END};
use simbench::cli::Args;
use simbench::output::result_line;
use simbench::traced::{self, per_layer_metrics};
use simbench::workload::{Batch, Workload};
use ssq_types::Cycle;

fn benchmark_json() -> common::Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    common::parse(&text)
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(doc: &common::Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.001,
        trace,
        tiny: true,
    }
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_this_crate_reports() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    let want = listed(&benchmark_json(), "end_to_end");
    for workload in Workload::ALL {
        let outcome = bench::run(&tiny(workload, 1, false)).expect("tiny run");
        assert_eq!(outcome.ops_failed, 0, "{}: gate failed", workload.name());
        assert!(outcome.ops >= bench::MIN_REPS as u64);
        let line = result_line(true, outcome.ops, outcome.ops_failed, &outcome.metrics);
        let result = common::parse(&line);
        assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
        let metrics = result.get("metrics");
        for (name, unit) in &want {
            let m = metrics.get(name);
            assert_eq!(m.get("unit").str(), unit, "{}: {name}", workload.name());
            assert!(m.get("value").num().is_finite());
        }
        assert_eq!(metrics.keys().len(), want.len());
    }
}

#[test]
fn the_traced_run_emits_every_per_layer_metric() {
    let want = listed(&benchmark_json(), "per_layer");
    for workload in Workload::ALL {
        let outcome = traced::run(&tiny(workload, 1, true), || 0).expect("tiny traced run");
        assert_eq!(outcome.failed, 0, "{}: gate failed", workload.name());
        assert!(outcome.checked > 0);
        let got: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect();
        assert_eq!(got, want, "{}", workload.name());
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
    }
}

/// Each switch injector's arrivals over `cycles` cycles, replayed from
/// the workload's own specs; for the fabric, each flow's injection
/// period (its arrivals are periodic).
fn arrivals(workload: Workload, seed: u64, cycles: u64) -> Vec<(u64, usize, usize, u64)> {
    match workload.batch(seed, true) {
        Batch::Switch(sims) => {
            let mut out = Vec::new();
            for sim in &sims {
                let mut injectors = sim.injectors();
                for t in 0..cycles {
                    for inj in &mut injectors {
                        if let Some(p) = inj.poll(Cycle::new(t)) {
                            out.push((t, inj.input().index(), p.output.index(), p.len_flits));
                        }
                    }
                }
            }
            out
        }
        Batch::Fabric(sim) => sim
            .flows
            .iter()
            .map(|f| (f.period, f.src, f.dest, f.len_flits))
            .collect(),
    }
}

#[test]
fn seeds_vary_the_arrivals_and_both_pass_the_gate() {
    for workload in Workload::ALL {
        let a = arrivals(workload, 1, 2_000);
        let b = arrivals(workload, 2, 2_000);
        assert_eq!(
            a,
            arrivals(workload, 1, 2_000),
            "{}: same seed",
            workload.name()
        );
        assert_ne!(a, b, "{}: seeds 1 and 2 gave one stream", workload.name());
        for seed in [1, 2] {
            let outcome = bench::run(&tiny(workload, seed, false)).expect("tiny run");
            assert_eq!(outcome.ops_failed, 0, "{} seed {seed}", workload.name());
        }
    }
}

#[test]
fn simulated_metrics_repeat_exactly_for_a_seed() {
    for workload in Workload::ALL {
        let a = bench::run(&tiny(workload, 3, false)).expect("tiny run");
        let b = bench::run(&tiny(workload, 3, false)).expect("tiny run");
        assert_eq!(a.simulated, b.simulated, "{}", workload.name());
    }
}
