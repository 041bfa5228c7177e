//! The semantic lints: checks that need the call graph, the workspace
//! definition map, or cfg-gate analysis rather than a single line of
//! tokens.
//!
//! * `panic-freedom-reachability` — aggregate per-function profile of
//!   panic-capable sites (indexing, unwrap/expect, unchecked
//!   arithmetic) reachable from `QosSwitch::step`.
//! * `no-nondeterministic-order` — no `HashMap`/`HashSet` in kernel
//!   crates, whose iteration order would break replay determinism.
//! * `feature-gate-hygiene` — names defined *only* under a cargo
//!   feature must not be referenced outside that feature's gate.

use std::collections::BTreeMap;

use crate::dataflow::sites::{self, SiteKind};
use crate::dataflow::{analyze_fn, FnAnalysis, SiteProof, WorkspaceFacts};
use crate::diag::{Diagnostic, Discharge, Severity};
use crate::graph::{CallGraph, Reachability};
use crate::parse::{FnItem, ParsedFile};
use crate::registry::EngineConfig;
use crate::source::SourceFile;

use super::textual::{hot_tokens, push};

/// Runs every semantic lint over the whole scanned set.
pub fn check(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
    discharged: &mut Vec<Discharge>,
) {
    no_nondeterministic_order(files, config, out);
    feature_gate_hygiene(files, parsed, config, out);

    // All reachability lints share one *workspace-wide* call graph:
    // every scanned crate's functions join, and module-qualified free
    // functions resolve across crate boundaries.
    let rels: Vec<String> = files.iter().map(|f| f.rel.clone()).collect();
    let mut graph_fns: Vec<FnItem> = Vec::new();
    let mut locs: Vec<(usize, usize)> = Vec::new();
    for (fi, p) in parsed.iter().enumerate() {
        if config.graph_exempt_crates.contains(&files[fi].crate_name) {
            continue;
        }
        for (fk, f) in p.fns.iter().enumerate() {
            graph_fns.push(f.clone());
            locs.push((fi, fk));
        }
    }
    let graph = CallGraph::build_workspace(&graph_fns, files);

    // The panic-freedom family shares the step-kernel reachable set and
    // one abstract-interpreter pass per reachable function.
    let roots = graph.roots(&config.panic_root_fn, Some(&config.panic_root_file), &rels);
    if roots.is_empty() {
        return;
    }
    let reach = graph.reachable(&roots);
    let facts = WorkspaceFacts::build(files, parsed);
    let analyses: BTreeMap<usize, FnAnalysis> = reach
        .seen
        .iter()
        .map(|&idx| {
            let (fi, fk) = locs[idx];
            (idx, analyze_fn(files, parsed, &facts, fi, fk))
        })
        .collect();

    panic_freedom(files, &graph, &reach, &analyses, config, out, discharged);
    mask_width_safety(files, &graph, &reach, &analyses, config, out, discharged);
    unchecked_hot_arith(files, &graph, &reach, &analyses, config, out, discharged);
}

/// `no-nondeterministic-order`: kernel crates must not touch hash-order
/// collections. Sweep replays (DESIGN.md §9) require byte-identical
/// event streams across runs; `HashMap`/`HashSet` iteration order is
/// seeded per-process and silently breaks that.
fn no_nondeterministic_order(
    files: &[SourceFile],
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
) {
    for file in files {
        if !config.kernel_crates.iter().any(|c| c == &file.crate_name) {
            continue;
        }
        for (_, line, text) in hot_tokens(file) {
            if matches!(text, "HashMap" | "HashSet") {
                push(
                    file,
                    out,
                    "no-nondeterministic-order",
                    line,
                    format!(
                        "`{text}` in a kernel crate: iteration order is per-process random \
                         and breaks replay determinism; use Vec/BTreeMap/BTreeSet (or sort \
                         before iterating)"
                    ),
                );
            }
        }
    }
}

/// `feature-gate-hygiene`: a name whose every definition requires some
/// cargo feature forms that feature's gated API surface; referencing it
/// without a covering `#[cfg(feature = ...)]` won't compile in default
/// builds. Dual-definition stubs (a real item under the feature plus an
/// ungated no-op twin) make the name unconditional and pass
/// automatically.
fn feature_gate_hygiene(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
) {
    // name → the feature lists of each of its definitions.
    let mut defs: BTreeMap<&str, Vec<&[String]>> = BTreeMap::new();
    for p in parsed {
        for d in &p.defs {
            defs.entry(d.name.as_str()).or_default().push(&d.features);
        }
    }
    // The gated surface: names where every definition needs a feature,
    // keyed to the features common to all definitions.
    let mut gated: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (name, feats) in &defs {
        if feats.iter().any(|f| f.is_empty()) {
            continue;
        }
        let common: Vec<&str> = feats[0]
            .iter()
            .map(String::as_str)
            .filter(|f| feats.iter().all(|list| list.iter().any(|x| x == f)))
            .collect();
        if !common.is_empty() {
            gated.insert(name, common);
        }
    }
    if gated.is_empty() {
        return;
    }

    for file in files {
        if config
            .feature_exempt_crates
            .iter()
            .any(|c| c == &file.crate_name)
        {
            continue;
        }
        for (_, line, text) in hot_tokens(file) {
            let Some(required) = gated.get(text) else {
                continue;
            };
            let granted = file.line_features(line);
            if required.iter().any(|f| granted.iter().any(|g| g == f)) {
                continue;
            }
            push(
                file,
                out,
                "feature-gate-hygiene",
                line,
                format!(
                    "`{text}` is only defined under #[cfg(feature = \"{}\")] but is referenced \
                     here without that gate; add the cfg (or an ungated stub definition)",
                    required.join("\" / \"")
                ),
            );
        }
    }
}

/// Per-function panic-site profile.
#[derive(Debug, Default, PartialEq, Eq)]
struct PanicProfile {
    /// `.unwrap(` / `.expect(` / `panic!` / `unreachable!` / `assert*!`.
    panics: usize,
    /// `expr[...]` indexing sites.
    indexing: usize,
    /// Overflow/underflow/div-by-zero capable operators on values.
    arithmetic: usize,
}

/// Counts panic-capable sites in a function body, via the shared
/// [`sites`] enumerator the dataflow interpreter also consumes — the
/// profile and the per-site proofs are over the *same* site set by
/// construction.
fn panic_profile(file: &SourceFile, f: &FnItem) -> PanicProfile {
    let mut p = PanicProfile::default();
    for site in sites::enumerate(file, f) {
        match site.kind {
            SiteKind::Panic => p.panics += 1,
            SiteKind::Index => p.indexing += 1,
            SiteKind::Arith(_) | SiteKind::Shl => p.arithmetic += 1,
            // `>>` cannot overflow and was never profiled.
            SiteKind::Shr => {}
        }
    }
    p
}

/// Compresses a function's site proofs into one bounded evidence line.
fn evidence_summary(proofs: &[&SiteProof]) -> String {
    let mut parts: Vec<String> = proofs
        .iter()
        .take(3)
        .map(|p| format!("L{}: {}", p.site.line + 1, p.why))
        .collect();
    if proofs.len() > 3 {
        parts.push(format!("(+{} more)", proofs.len() - 3));
    }
    let mut s = parts.join("; ");
    if s.len() > 360 {
        s.truncate(357);
        s.push_str("...");
    }
    s
}

/// `panic-freedom-reachability`: one aggregate finding per function
/// reachable from the step root that contains panic-capable sites. The
/// anchor embeds the site counts, so adding a site to an already-known
/// function re-fires CI while untouched functions stay baselined.
///
/// Functions whose every profiled arithmetic/indexing site the abstract
/// interpreter proves in-bounds (and that hold no panic-capable calls)
/// are *discharged*: the finding is suppressed and its fingerprint plus
/// evidence land in the report's `discharged` section, licensing the
/// removal of the matching `lint-baseline.txt` entry.
fn panic_freedom(
    files: &[SourceFile],
    graph: &CallGraph<'_>,
    reach: &Reachability,
    analyses: &BTreeMap<usize, FnAnalysis>,
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
    discharged: &mut Vec<Discharge>,
) {
    for &idx in &reach.seen {
        let f = &graph.fns[idx];
        let file = &files[f.file];
        let p = panic_profile(file, f);
        if p == PanicProfile::default() {
            continue;
        }
        let diag = Diagnostic {
            rule: "panic-freedom-reachability",
            severity: Severity::Deny,
            file: file.rel.clone(),
            line: f.line + 1,
            message: format!(
                "`{}` is reachable from `{}` and holds {} panic-capable call(s), {} unchecked \
                 indexing site(s), {} overflow-capable arithmetic op(s); prefer get()/checked \
                 ops, or baseline deliberate sites",
                f.qual, config.panic_root_fn, p.panics, p.indexing, p.arithmetic
            ),
            anchor: format!("{}|p{}i{}a{}", f.qual, p.panics, p.indexing, p.arithmetic),
            baselined: false,
        };
        let analysis = analyses.get(&idx);
        if p.panics == 0 && analysis.is_some_and(FnAnalysis::all_profiled_safe) {
            let proofs: Vec<&SiteProof> = analysis
                .map(|a| {
                    a.proofs
                        .values()
                        .filter(|pr| pr.site.kind.profiled())
                        .collect()
                })
                .unwrap_or_default();
            discharged.push(Discharge {
                rule: diag.rule,
                file: diag.file.clone(),
                line: diag.line,
                fingerprint: diag.fingerprint(),
                evidence: format!(
                    "`{}`: all {} profiled site(s) proven in-bounds — {}",
                    f.qual,
                    proofs.len(),
                    evidence_summary(&proofs)
                ),
            });
            continue;
        }
        out.push(diag);
    }
}

/// `mask-width-safety`: every shift reachable from the step kernel must
/// have a provably in-range amount (`< lhs width`, i.e. bounded by the
/// radix for the u64 port masks). Proven sites become `discharged`
/// certificates carrying the interpreter's evidence; unprovable sites
/// fire.
fn mask_width_safety(
    files: &[SourceFile],
    graph: &CallGraph<'_>,
    reach: &Reachability,
    analyses: &BTreeMap<usize, FnAnalysis>,
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
    discharged: &mut Vec<Discharge>,
) {
    for &idx in &reach.seen {
        let f = &graph.fns[idx];
        let file = &files[f.file];
        let Some(analysis) = analyses.get(&idx) else {
            continue;
        };
        let mut occ = 0usize;
        for proof in analysis.proofs.values() {
            let op = match proof.site.kind {
                SiteKind::Shl => "<<",
                SiteKind::Shr => ">>",
                _ => continue,
            };
            let diag = Diagnostic {
                rule: "mask-width-safety",
                severity: Severity::Deny,
                file: file.rel.clone(),
                line: proof.site.line + 1,
                message: format!(
                    "`{}` is reachable from `{}` and shifts (`{}`) by an amount the dataflow \
                     layer cannot bound below the operand width: {}; mask the amount (`& 63`), \
                     assert! the bound, or waive with evidence",
                    f.qual, config.panic_root_fn, op, proof.why
                ),
                anchor: format!("{}|{}#{}", f.qual, op, occ),
                baselined: false,
            };
            occ += 1;
            if proof.safe {
                discharged.push(Discharge {
                    rule: diag.rule,
                    file: diag.file.clone(),
                    line: diag.line,
                    fingerprint: diag.fingerprint(),
                    evidence: format!("`{}` `{}`: {}", f.qual, op, proof.why),
                });
            } else {
                out.push(diag);
            }
        }
    }
}

/// `unchecked-hot-arith`: add/sub/mul/div/index sites in the configured
/// hot files (the per-output arbitration pass) reachable from the step root whose
/// operands the joint interval/known-bits domains cannot bound. Proven
/// sites become `discharged` certificates.
fn unchecked_hot_arith(
    files: &[SourceFile],
    graph: &CallGraph<'_>,
    reach: &Reachability,
    analyses: &BTreeMap<usize, FnAnalysis>,
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
    discharged: &mut Vec<Discharge>,
) {
    for &idx in &reach.seen {
        let f = &graph.fns[idx];
        let file = &files[f.file];
        if !config.hot_arith_files.iter().any(|h| &file.rel == h) {
            continue;
        }
        let Some(analysis) = analyses.get(&idx) else {
            continue;
        };
        let mut occ = 0usize;
        for proof in analysis.proofs.values() {
            let what = match proof.site.kind {
                SiteKind::Arith(op) => format!("`{op}`"),
                SiteKind::Index => "indexing".to_string(),
                _ => continue,
            };
            let diag = Diagnostic {
                rule: "unchecked-hot-arith",
                severity: Severity::Deny,
                file: file.rel.clone(),
                line: proof.site.line + 1,
                message: format!(
                    "`{}` is hot-path code reachable from `{}` with {} whose operands the \
                     dataflow layer cannot bound: {}; tighten the types, guard the range, or \
                     use checked/wrapping ops",
                    f.qual, config.panic_root_fn, what, proof.why
                ),
                anchor: format!("{}|{}#{}", f.qual, what, occ),
                baselined: false,
            };
            occ += 1;
            if proof.safe {
                discharged.push(Discharge {
                    rule: diag.rule,
                    file: diag.file.clone(),
                    line: diag.line,
                    fingerprint: diag.fingerprint(),
                    evidence: format!("`{}` {}: {}", f.qual, what, proof.why),
                });
            } else {
                out.push(diag);
            }
        }
    }
}
