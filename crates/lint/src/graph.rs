//! The per-workspace call graph and its reachability queries.
//!
//! Nodes are the parsed functions; edges come from name-based call-site
//! resolution. With no type information the resolution is deliberately
//! an *over*-approximation — a `.decide(…)` site links to every method
//! named `decide` in the scanned crates — which is the sound direction
//! for the reachability lints: extra edges can only widen the set of
//! functions held to the purity/panic-freedom contracts, never let a
//! real violation slip outside it. Std-library calls (`Vec::push`,
//! `iter`, `collect`) resolve to nothing and simply terminate paths.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{CallSite, FnItem};
use crate::source::SourceFile;

/// The resolved call graph over a set of parsed functions.
pub struct CallGraph<'a> {
    /// All functions, indexed by position.
    pub fns: &'a [FnItem],
    /// name → indices of non-test functions with that bare name.
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// `Qual::name` (final two segments) → indices.
    by_suffix: BTreeMap<String, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Indexes `fns` for resolution. Test-gated functions are excluded
    /// as call targets and roots: test helpers must not widen hot-path
    /// reachability.
    #[must_use]
    pub fn build(fns: &'a [FnItem]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_suffix: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            by_name.entry(&f.name).or_default().push(idx);
            let segs: Vec<&str> = f.qual.rsplit("::").collect();
            if segs.len() >= 2 {
                by_suffix
                    .entry(format!("{}::{}", segs[1], segs[0]))
                    .or_default()
                    .push(idx);
            }
        }
        CallGraph {
            fns,
            by_name,
            by_suffix,
        }
    }

    /// Indexes `fns` for *workspace-wide* resolution. On top of
    /// [`CallGraph::build`], every non-test free function also gains
    /// module-qualified aliases derived from its defining file — the
    /// file stem (`fairness::jains` for `crates/stats/src/fairness.rs`)
    /// and the owning crate (`ssq_stats::jains`) — so cross-crate
    /// `module::fn` call sites resolve to their targets instead of
    /// dead-ending at the crate boundary. The old per-crate index could
    /// only resolve `Type::method` suffixes, which provably missed
    /// two-hop chains entering another crate through a module-qualified
    /// free function.
    #[must_use]
    pub fn build_workspace(fns: &'a [FnItem], files: &[SourceFile]) -> Self {
        let mut g = Self::build(fns);
        for (idx, f) in fns.iter().enumerate() {
            if f.is_test || f.is_method {
                continue;
            }
            let Some(file) = files.get(f.file) else {
                continue;
            };
            let stem = file
                .rel
                .rsplit('/')
                .next()
                .unwrap_or("")
                .trim_end_matches(".rs");
            if !stem.is_empty() && !matches!(stem, "lib" | "mod" | "main") {
                push_unique(&mut g.by_suffix, format!("{stem}::{}", f.name), idx);
            }
            if !file.crate_name.is_empty() {
                let krate = file.crate_name.replace('-', "_");
                push_unique(&mut g.by_suffix, format!("ssq_{krate}::{}", f.name), idx);
                push_unique(&mut g.by_suffix, format!("{krate}::{}", f.name), idx);
            }
        }
        g
    }

    /// The function indices a call site may land on.
    #[must_use]
    pub fn resolve(&self, from: &FnItem, call: &CallSite) -> Vec<usize> {
        if let Some(q) = &call.qualifier {
            // `Qual::name`: exact suffix match only — `Vec::new` must
            // not fan out to every constructor in the workspace.
            return self
                .by_suffix
                .get(&format!("{q}::{}", call.name))
                .cloned()
                .unwrap_or_default();
        }
        let Some(candidates) = self.by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        if call.method {
            // `.name(…)`: any method with that name.
            return candidates
                .iter()
                .copied()
                .filter(|&i| self.fns[i].is_method)
                .collect();
        }
        // Bare `name(…)`: prefer same-file free functions, then fall
        // back to every free function with the name.
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| !self.fns[i].is_method && self.fns[i].file == from.file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        candidates
            .iter()
            .copied()
            .filter(|&i| !self.fns[i].is_method)
            .collect()
    }

    /// Finds root functions by bare name, optionally constrained to a
    /// file (path suffix match on the owning file's `rel`).
    #[must_use]
    pub fn roots(&self, name: &str, file_rel: Option<&str>, rels: &[String]) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| {
                        file_rel.is_none_or(|want| {
                            rels.get(self.fns[i].file)
                                .is_some_and(|r| r.ends_with(want))
                        })
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Every function reachable from `roots` (inclusive), as a sorted
    /// set of indices, with the call edge that first reached each node
    /// (for explainable diagnostics).
    #[must_use]
    pub fn reachable(&self, roots: &[usize]) -> Reachability {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut via: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if seen.insert(r) {
                queue.push(r);
            }
        }
        while let Some(at) = queue.pop() {
            let f = &self.fns[at];
            for call in &f.calls {
                for target in self.resolve(f, call) {
                    if seen.insert(target) {
                        via.insert(target, at);
                        queue.push(target);
                    }
                }
            }
        }
        Reachability { seen, via }
    }
}

/// Inserts `idx` under `key` unless already recorded there.
fn push_unique(map: &mut BTreeMap<String, Vec<usize>>, key: String, idx: usize) {
    let v = map.entry(key).or_default();
    if !v.contains(&idx) {
        v.push(idx);
    }
}

/// The result of a reachability sweep.
pub struct Reachability {
    /// Every reachable function index, roots included.
    pub seen: BTreeSet<usize>,
    /// For each non-root reached node: the caller that first reached it.
    via: BTreeMap<usize, usize>,
}

impl Reachability {
    /// A `root -> … -> target` path of qualified names, for messages.
    #[must_use]
    pub fn path_to(&self, target: usize, fns: &[FnItem]) -> String {
        let mut segs = vec![fns[target].qual.clone()];
        let mut at = target;
        let mut hops = 0;
        while let Some(&parent) = self.via.get(&at) {
            segs.push(fns[parent].qual.clone());
            at = parent;
            hops += 1;
            if hops > 32 {
                break;
            }
        }
        segs.reverse();
        segs.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::source::SourceFile;

    fn graph_of(src: &str) -> (Vec<FnItem>, Vec<String>) {
        let f = SourceFile::new("crates/core/src/demo.rs", src.to_string());
        (parse(&f, 0).fns, vec![f.rel.clone()])
    }

    #[test]
    fn two_hop_reachability_resolves_methods_and_frees() {
        let (fns, rels) = graph_of(
            "impl Switch {\n    fn decide_output(&self) { self.gather(); }\n    fn gather(&self) { tally(); }\n}\nfn tally() {}\nfn unrelated() {}\n",
        );
        let g = CallGraph::build(&fns);
        let roots = g.roots("decide_output", Some("demo.rs"), &rels);
        assert_eq!(roots.len(), 1);
        let r = g.reachable(&roots);
        let names: Vec<&str> = r.seen.iter().map(|&i| fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["decide_output", "gather", "tally"]);
        let tally = fns.iter().position(|f| f.name == "tally").unwrap();
        assert_eq!(
            r.path_to(tally, &fns),
            "Switch::decide_output -> Switch::gather -> tally"
        );
    }

    #[test]
    fn qualified_calls_do_not_fan_out_by_bare_name() {
        let (fns, _) = graph_of(
            "impl A {\n    fn new() { touch(); }\n}\nimpl B {\n    fn new() {}\n}\nfn root() { B::new(); }\nfn touch() {}\n",
        );
        let g = CallGraph::build(&fns);
        let root = vec![fns.iter().position(|f| f.name == "root").unwrap()];
        let r = g.reachable(&root);
        let names: Vec<&str> = r.seen.iter().map(|&i| fns[i].qual.as_str()).collect();
        assert!(names.contains(&"B::new"));
        assert!(!names.contains(&"A::new"));
        assert!(!names.contains(&"touch"));
    }

    #[test]
    fn workspace_graph_resolves_cross_crate_module_calls() {
        // `fairness::jains(...)` from core must reach the free fn in
        // `crates/stats/src/fairness.rs` — the per-crate `Type::method`
        // index alone cannot resolve this two-hop chain.
        let files = vec![
            SourceFile::new(
                "crates/core/src/kernel.rs",
                "fn kernel() { helper(); }\nfn helper() { fairness::jains(1); }\n".to_string(),
            ),
            SourceFile::new(
                "crates/stats/src/fairness.rs",
                "pub fn jains(x: u64) -> u64 { x }\n".to_string(),
            ),
        ];
        let fns: Vec<FnItem> = files
            .iter()
            .enumerate()
            .flat_map(|(i, f)| parse(f, i).fns)
            .collect();

        let per_crate = CallGraph::build(&fns);
        let root = vec![fns.iter().position(|f| f.name == "kernel").unwrap()];
        assert_eq!(per_crate.reachable(&root).seen.len(), 2, "old graph stops");

        let ws = CallGraph::build_workspace(&fns, &files);
        let r = ws.reachable(&root);
        let names: Vec<&str> = r.seen.iter().map(|&i| fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["kernel", "helper", "jains"]);
        let jains = fns.iter().position(|f| f.name == "jains").unwrap();
        assert_eq!(r.path_to(jains, &fns), "kernel -> helper -> jains");
    }

    #[test]
    fn test_fns_are_not_targets() {
        let (fns, _) = graph_of(
            "fn root() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn helper() { std::fs::write(); }\n}\n",
        );
        let g = CallGraph::build(&fns);
        let root = vec![fns.iter().position(|f| f.name == "root").unwrap()];
        let r = g.reachable(&root);
        assert_eq!(r.seen.len(), 1);
    }
}
