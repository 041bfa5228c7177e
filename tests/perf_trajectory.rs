//! Pins the checked-in perf-trajectory record (`results/BENCH_<n>.json`):
//! every document parses, the current-schema documents render
//! byte-stably, the newest capture holds the regression gate against
//! its predecessor, and `ssq perf-report`'s table spans the whole
//! trajectory.

use std::path::Path;

use swizzle_qos::prof::trajectory::{diff, CURRENT_SCHEMA};
use swizzle_qos::prof::{find_benches, trajectory_table, BenchDoc};

fn load_all() -> Vec<BenchDoc> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let found = find_benches(&dir);
    assert!(
        !found.is_empty(),
        "no BENCH_<n>.json under {}",
        dir.display()
    );
    found
        .iter()
        .map(|(n, path)| {
            let text = std::fs::read_to_string(path).expect("readable");
            let doc = BenchDoc::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(doc.pr, *n, "{}: pr field vs file name", path.display());
            doc
        })
        .collect()
}

#[test]
fn every_recorded_bench_document_parses() {
    let docs = load_all();
    for doc in &docs {
        assert!(
            doc.schema <= CURRENT_SCHEMA,
            "{}: future schema",
            doc.name()
        );
        assert!(!doc.cells.is_empty(), "{}: empty matrix", doc.name());
        for cell in &doc.cells {
            assert!(!cell.engines.is_empty());
        }
    }
}

#[test]
fn current_schema_documents_render_byte_stably() {
    // The trajectory lives in git: one render pass must be a fixed
    // point, so regenerating a document never churns the diff.
    for doc in load_all().iter().filter(|d| d.schema == CURRENT_SCHEMA) {
        let rendered = doc.render();
        let reparsed = BenchDoc::parse(&rendered).expect("own render parses");
        assert_eq!(
            reparsed.render(),
            rendered,
            "{} not byte-stable",
            doc.name()
        );
    }
}

#[test]
fn newest_capture_holds_the_gate_against_its_predecessor() {
    let docs = load_all();
    if docs.len() < 2 {
        return; // a fresh trajectory has nothing to diff against
    }
    let (prev, next) = (&docs[docs.len() - 2], &docs[docs.len() - 1]);
    let report = diff(prev, next, 0.4);
    assert!(
        report.passed(),
        "{} regressed vs {}: {:?}",
        next.name(),
        prev.name(),
        report.regressions
    );
    // Same-profile captures must actually compare, not silently skip.
    if prev.profile == next.profile {
        assert!(report.skipped.is_none());
        assert!(!report.lines.is_empty());
    }
}

#[test]
fn trajectory_table_covers_every_recorded_pr() {
    let docs = load_all();
    let csv = trajectory_table(&docs).to_csv();
    for doc in &docs {
        assert!(
            csv.lines().any(|l| l.starts_with(&format!("{},", doc.pr))),
            "PR {} missing from trajectory table:\n{csv}",
            doc.pr
        );
    }
}
