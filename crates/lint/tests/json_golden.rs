//! Golden-file test for the `--json` document: the rendered schema is
//! part of the tool contract (scripts/check.sh and external tooling
//! parse it), so any shape change must be made deliberately by
//! regenerating the golden with `UPDATE_GOLDEN=1 cargo test -p ssq-lint`.

use std::fs;
use std::path::PathBuf;

use ssq_lint::{render_json, rule_names, run_sources, EngineConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint.json")
}

/// A small deterministic run: one firing file, one baselined-free file.
fn document() -> String {
    let report = run_sources(
        vec![
            (
                "crates/core/src/hot.rs".to_string(),
                "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\nfn g() {\n    todo!()\n}\n"
                    .to_string(),
            ),
            (
                "crates/stats/src/counter.rs".to_string(),
                "pub fn fold(total: u64) -> u32 {\n    total as u32\n}\n".to_string(),
            ),
        ],
        &EngineConfig::default(),
    );
    render_json(&report.diagnostics, report.files_scanned, &rule_names())
}

#[test]
fn json_document_matches_golden() {
    let doc = document();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &doc).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test -p ssq-lint",
            path.display()
        )
    });
    assert_eq!(
        doc, golden,
        "JSON schema drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn json_document_structural_contract() {
    let doc = document();
    for key in [
        "\"schema\": 3",
        "\"engine\": \"ssq-lint\"",
        "\"files_scanned\": 2",
        "\"rules\": [",
        "\"summary\": {\"total\": 3, \"new\": 3, \"baselined\": 0}",
        "\"findings\": [",
        "\"fingerprint\": \"",
        "\"severity\": \"deny\"",
    ] {
        assert!(doc.contains(key), "missing {key} in:\n{doc}");
    }
    // Schema 3 carries no certificate section.
    assert!(!doc.contains("discharged"), "{doc}");
    // Every registered rule is listed.
    for rule in rule_names() {
        assert!(doc.contains(&format!("\"{rule}\"")), "rule {rule} unlisted");
    }
    // Balanced braces/brackets — the cheap well-formedness check an
    // offline workspace can afford without a JSON parser dependency.
    let opens = doc.matches(['{', '[']).count();
    let closes = doc.matches(['}', ']']).count();
    assert_eq!(opens, closes);
    assert!(doc.ends_with("}\n"));
}
