//! The lint registry and the engine driver: rule metadata, engine
//! configuration, workspace loading, and the full
//! lex → parse → rules → waivers → sort pipeline behind
//! `cargo xtask lint`.

use std::fs;
use std::io;
use std::path::Path;

use crate::diag::{Diagnostic, Severity};
use crate::parse::{parse, ParsedFile};
use crate::rules;
use crate::source::SourceFile;

/// Metadata for one registered lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// The rule identifier (usable in `ssq-lint: allow(...)` and the
    /// baseline file).
    pub name: &'static str,
    /// How new findings gate CI.
    pub severity: Severity,
    /// One-line summary for `--help`-style listings.
    pub summary: &'static str,
}

/// Every lint the engine knows, in stable listing order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: "no-unwrap",
        severity: Severity::Deny,
        summary: "no .unwrap()/.expect()/panic! in hot-path crates",
    },
    LintInfo {
        name: "no-narrowing-cast",
        severity: Severity::Deny,
        summary: "no narrowing `as` casts in counter/thermometer arithmetic",
    },
    LintInfo {
        name: "no-print-in-lib",
        severity: Severity::Deny,
        summary: "no println!/eprintln! in library crates",
    },
    LintInfo {
        name: "no-todo",
        severity: Severity::Deny,
        summary: "no todo!/unimplemented! outside tests",
    },
    LintInfo {
        name: "must-use-decision",
        severity: Severity::Deny,
        summary: "arbitration result types must be #[must_use]",
    },
    LintInfo {
        name: "no-lossy-index",
        severity: Severity::Deny,
        summary: "no narrowing casts applied to port/flow identifiers",
    },
    LintInfo {
        name: "invariant-site-coverage",
        severity: Severity::Deny,
        summary: "grant/inhibit/chain emissions need a nearby sanitize:: check",
    },
    LintInfo {
        name: "no-silent-degrade",
        severity: Severity::Deny,
        summary: "QoS degradation sites need a nearby fault-family trace event",
    },
    LintInfo {
        name: "panic-freedom-reachability",
        severity: Severity::Deny,
        summary: "panic/index/overflow sites reachable from QosSwitch::step, per fn",
    },
    LintInfo {
        name: "mask-width-safety",
        severity: Severity::Deny,
        summary: "no shift by a non-literal amount reachable from QosSwitch::step",
    },
    LintInfo {
        name: "unchecked-hot-arith",
        severity: Severity::Deny,
        summary: "arbitration-pass arithmetic/indexing needs a declared-type bound or a waiver",
    },
    LintInfo {
        name: "no-nondeterministic-order",
        severity: Severity::Deny,
        summary: "no HashMap/HashSet iteration-order dependence in kernel crates",
    },
    LintInfo {
        name: "feature-gate-hygiene",
        severity: Severity::Deny,
        summary: "feature-only names must be referenced under their cfg gate",
    },
];

/// The registered rule names, in listing order.
#[must_use]
pub fn rule_names() -> Vec<&'static str> {
    LINTS.iter().map(|l| l.name).collect()
}

/// Engine knobs: the semantic lints' roots and crate scopes. Defaults
/// describe the real workspace; tests override them to point at
/// fixtures.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bare name of the panic-freedom root function.
    pub panic_root_fn: String,
    /// Path suffix of the file declaring the panic-freedom root.
    pub panic_root_file: String,
    /// Crates under `no-nondeterministic-order`.
    pub kernel_crates: Vec<String>,
    /// Crates exempt from `feature-gate-hygiene` (they force-enable the
    /// features whose surface they drive).
    pub feature_exempt_crates: Vec<String>,
    /// Files whose step-reachable functions are held to
    /// `unchecked-hot-arith` (the per-output arbitration pass).
    pub hot_arith_files: Vec<String>,
    /// Crates excluded from the workspace call graph entirely: the
    /// analysis tooling itself (its `step`/`reduce`/`peek` methods
    /// collide by name with switch hot-path code but can never be
    /// called from it).
    pub graph_exempt_crates: Vec<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let owned = |names: &[&str]| names.iter().map(|s| (*s).to_string()).collect();
        EngineConfig {
            panic_root_fn: "step".to_string(),
            panic_root_file: "crates/core/src/switch.rs".to_string(),
            kernel_crates: owned(&["types", "arbiter", "circuit", "core", "sim", "prof"]),
            feature_exempt_crates: owned(&["faults", "net"]),
            hot_arith_files: owned(&["crates/core/src/kernel.rs"]),
            graph_exempt_crates: owned(&["lint", "xtask"]),
        }
    }
}

/// The outcome of one engine run.
#[derive(Debug)]
pub struct Report {
    /// All findings after waiver filtering, in deterministic order
    /// (file, line, rule, anchor).
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that should fail CI: new (un-baselined) `Deny`
    /// findings. Waived findings were already dropped by the engine.
    #[must_use]
    pub fn blocking(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| !d.baselined && d.severity == Severity::Deny)
            .collect()
    }
}

/// Runs the full engine over in-memory sources: `(workspace-relative
/// path, text)` pairs. This is the pure core `cargo xtask lint` wraps;
/// fixture tests call it directly with synthetic paths.
#[must_use]
pub fn run_sources(sources: Vec<(String, String)>, config: &EngineConfig) -> Report {
    let files: Vec<SourceFile> = sources
        .into_iter()
        .map(|(rel, text)| SourceFile::new(&rel, text))
        .collect();
    let parsed: Vec<ParsedFile> = files.iter().enumerate().map(|(i, f)| parse(f, i)).collect();

    // Crates that have a lib.rs in the scanned set (the root crate's
    // library is `src/lib.rs`, keyed by the empty crate name).
    let libs: std::collections::BTreeSet<&str> = files
        .iter()
        .filter(|f| {
            f.rel == "src/lib.rs"
                || (f.rel.starts_with("crates/") && f.rel.ends_with("/src/lib.rs"))
        })
        .map(|f| f.crate_name.as_str())
        .collect();

    let mut diags = Vec::new();
    for (file, parsed_file) in files.iter().zip(&parsed) {
        let crate_has_lib = libs.contains(file.crate_name.as_str());
        rules::textual::check_file(file, parsed_file, crate_has_lib, &mut diags);
    }
    rules::semantic::check(&files, &parsed, config, &mut diags);

    // Drop waived findings: the waiver line is the finding's own line
    // (`diag.line` is 1-based; waivers are 0-based).
    let by_rel = |rel: &str| files.iter().find(|f| f.rel == rel);
    diags.retain(|d| by_rel(&d.file).is_none_or(|f| !f.waived(d.line.saturating_sub(1), d.rule)));

    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.anchor.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.anchor.as_str(),
        ))
    });
    Report {
        files_scanned: files.len(),
        diagnostics: diags,
    }
}

/// Loads every workspace Rust source the engine lints: `crates/*/src`
/// trees plus the root `src/` tree, sorted by relative path. Fixture
/// directories (anything not under a `src/`) are not loaded.
pub fn load_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(root, &src, &mut sources)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(root, &root_src, &mut sources)?;
    }
    sources.sort();
    Ok(sources)
}

/// Recursively collects `.rs` files under `dir` as `(rel, text)`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(rel: &str, text: &str) -> (String, String) {
        (rel.to_string(), text.to_string())
    }

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let names = rule_names();
        assert_eq!(names.len(), 13);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn engine_runs_end_to_end_and_sorts_deterministically() {
        let report = run_sources(
            vec![
                src(
                    "crates/core/src/b.rs",
                    "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
                ),
                src("crates/core/src/a.rs", "fn g() {\n    todo!()\n}\n"),
            ],
            &EngineConfig::default(),
        );
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["no-todo", "no-unwrap"]);
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.blocking().len(), 2);
    }

    #[test]
    fn waived_findings_are_dropped_entirely() {
        let report = run_sources(
            vec![src(
                "crates/core/src/a.rs",
                "fn f(x: Option<u8>) -> u8 {\n    // ssq-lint: allow(no-unwrap)\n    x.unwrap()\n}\n",
            )],
            &EngineConfig::default(),
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }
}
