//! The semantic lints: checks that need the call graph, the workspace
//! definition map, or cfg-gate analysis rather than a single line of
//! tokens.
//!
//! * `panic-freedom-reachability` — aggregate per-function profile of
//!   panic-capable sites (indexing, unwrap/expect, unchecked
//!   arithmetic) reachable from `QosSwitch::step`.
//! * `mask-width-safety` — no shift by a non-literal amount reachable
//!   from `step` outside the `PortSet`/`BitIndex` primitives.
//! * `unchecked-hot-arith` — arithmetic and indexing sites of the
//!   arbitration pass reachable from `step`.
//! * `no-nondeterministic-order` — no `HashMap`/`HashSet` in kernel
//!   crates, whose iteration order would break replay determinism.
//! * `feature-gate-hygiene` — names defined *only* under a cargo
//!   feature must not be referenced outside that feature's gate.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Severity};
use crate::graph::CallGraph;
use crate::parse::{FnItem, ParsedFile};
use crate::registry::EngineConfig;
use crate::source::SourceFile;

use super::sites::{self, Decls, Site, SiteKind};
use super::textual::{hot_tokens, push};

/// Runs every semantic lint over the whole scanned set.
pub fn check(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
) {
    no_nondeterministic_order(files, config, out);
    feature_gate_hygiene(files, parsed, config, out);

    // All reachability lints share one *workspace-wide* call graph:
    // every scanned crate's functions join, and module-qualified free
    // functions resolve across crate boundaries.
    let rels: Vec<String> = files.iter().map(|f| f.rel.clone()).collect();
    let graph_fns: Vec<FnItem> = parsed
        .iter()
        .enumerate()
        .filter(|(fi, _)| !config.graph_exempt_crates.contains(&files[*fi].crate_name))
        .flat_map(|(_, p)| p.fns.iter().cloned())
        .collect();
    let graph = CallGraph::build_workspace(&graph_fns, files);

    // The panic-freedom family shares the step-kernel reachable set and
    // one site enumeration per reachable function.
    let roots = graph.roots(&config.panic_root_fn, Some(&config.panic_root_file), &rels);
    if roots.is_empty() {
        return;
    }
    let reach = graph.reachable(&roots);
    let decls = Decls::build(files);
    let sites: BTreeMap<usize, Vec<Site>> = reach
        .seen
        .iter()
        .map(|&idx| {
            let f = &graph.fns[idx];
            (idx, sites::enumerate(&files[f.file], f, &decls))
        })
        .collect();

    panic_freedom(files, &graph, &sites, config, out);
    mask_width_safety(files, &graph, &sites, config, out);
    unchecked_hot_arith(files, &graph, &sites, config, out);
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

/// Counts a function's panic-capable sites, as enumerated by the shared
/// [`sites`] enumerator.
fn panic_profile(sites: &[Site]) -> PanicProfile {
    let mut p = PanicProfile::default();
    for site in sites {
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

/// `panic-freedom-reachability`: one aggregate finding per function
/// reachable from the step root that contains panic-capable sites. The
/// anchor embeds the site counts, so adding a site to an already-known
/// function re-fires CI while untouched functions stay baselined.
fn panic_freedom(
    files: &[SourceFile],
    graph: &CallGraph<'_>,
    sites: &BTreeMap<usize, Vec<Site>>,
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
) {
    for (&idx, fn_sites) in sites {
        let f = &graph.fns[idx];
        let p = panic_profile(fn_sites);
        if p == PanicProfile::default() {
            continue;
        }
        out.push(Diagnostic {
            rule: "panic-freedom-reachability",
            severity: Severity::Deny,
            file: files[f.file].rel.clone(),
            line: f.line + 1,
            message: format!(
                "`{}` is reachable from `{}` and holds {} panic-capable call(s), {} unchecked \
                 indexing site(s), {} overflow-capable arithmetic op(s); prefer get()/checked \
                 ops, or baseline deliberate sites",
                f.qual, config.panic_root_fn, p.panics, p.indexing, p.arithmetic
            ),
            anchor: format!("{}|p{}i{}a{}", f.qual, p.panics, p.indexing, p.arithmetic),
            baselined: false,
        });
    }
}

/// `mask-width-safety`: every shift reachable from the step kernel by a
/// non-literal amount fires. Literal amounts are not sites (rustc
/// rejects an out-of-range one); variable shifts belong in the
/// `PortSet`/`BitIndex` primitives of `ssq-types`, whose shift methods
/// carry the waivers.
fn mask_width_safety(
    files: &[SourceFile],
    graph: &CallGraph<'_>,
    sites: &BTreeMap<usize, Vec<Site>>,
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
) {
    for (&idx, fn_sites) in sites {
        let f = &graph.fns[idx];
        let shifts = fn_sites.iter().filter_map(|s| match s.kind {
            SiteKind::Shl => Some((s.line, "<<")),
            SiteKind::Shr => Some((s.line, ">>")),
            _ => None,
        });
        for (occ, (line, op)) in shifts.enumerate() {
            out.push(Diagnostic {
                rule: "mask-width-safety",
                severity: Severity::Deny,
                file: files[f.file].rel.clone(),
                line: line + 1,
                message: format!(
                    "`{}` is reachable from `{}` and shifts (`{}`) by a non-literal amount; \
                     shift through `PortSet` or `ssq_types::BitIndex` (in range by \
                     construction), or waive with evidence",
                    f.qual, config.panic_root_fn, op
                ),
                anchor: format!("{}|{}#{}", f.qual, op, occ),
                baselined: false,
            });
        }
    }
}

/// `unchecked-hot-arith`: every add/sub/mul/div/index site in the
/// configured hot files (the per-output arbitration pass) reachable
/// from the step root fires unless a declared type exempts it (see
/// [`sites`]); deliberate sites carry per-line waivers.
fn unchecked_hot_arith(
    files: &[SourceFile],
    graph: &CallGraph<'_>,
    sites: &BTreeMap<usize, Vec<Site>>,
    config: &EngineConfig,
    out: &mut Vec<Diagnostic>,
) {
    for (&idx, fn_sites) in sites {
        let f = &graph.fns[idx];
        let file = &files[f.file];
        if !config.hot_arith_files.iter().any(|h| &file.rel == h) {
            continue;
        }
        let hot = fn_sites.iter().filter_map(|s| match s.kind {
            SiteKind::Arith(op) => Some((s.line, format!("`{op}`"))),
            SiteKind::Index => Some((s.line, "indexing".to_string())),
            _ => None,
        });
        for (occ, (line, what)) in hot.enumerate() {
            out.push(Diagnostic {
                rule: "unchecked-hot-arith",
                severity: Severity::Deny,
                file: file.rel.clone(),
                line: line + 1,
                message: format!(
                    "`{}` is hot-path code reachable from `{}` with {} on operands no declared \
                     type bounds; tighten the types, use checked/wrapping ops, or waive with \
                     evidence",
                    f.qual, config.panic_root_fn, what
                ),
                anchor: format!("{}|{}#{}", f.qual, what, occ),
                baselined: false,
            });
        }
    }
}
