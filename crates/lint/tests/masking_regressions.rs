//! Regression pins for the regex engine's false-positive class: rule
//! patterns appearing inside string literals, comments, or doc examples
//! used to be flagged as real findings (and, worse, a quoted waiver
//! marker used to *suppress* real findings). The token engine must
//! leave all of these clean — and still catch the adjacent real sites.

use ssq_lint::{run_sources, EngineConfig, Report};

fn run_one(rel: &str, text: &str) -> Report {
    run_sources(
        vec![(rel.to_string(), text.to_string())],
        &EngineConfig::default(),
    )
}

#[test]
fn unwrap_inside_string_literal_is_not_a_finding() {
    let r = run_one(
        "crates/core/src/hot.rs",
        "pub fn f() -> &'static str {\n    \"call x.unwrap() at your peril\"\n}\n",
    );
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn panic_in_comment_and_doc_example_is_not_a_finding() {
    let r = run_one(
        "crates/arbiter/src/dwrr.rs",
        "// never panic! here\n/// ```\n/// x.unwrap();\n/// panic!(\"boom\");\n/// ```\npub fn f() {}\n",
    );
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn todo_inside_raw_string_is_not_a_finding() {
    let r = run_one(
        "crates/sim/src/run.rs",
        "pub fn marker() -> &'static str {\n    r#\"todo!() unimplemented!()\"#\n}\n",
    );
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn quoted_event_site_does_not_need_sanitizer_coverage() {
    // The window rules scan code-only line renders: an EventKind name
    // inside a string is not an emission site.
    let r = run_one(
        "crates/core/src/switch.rs",
        "pub fn label() -> &'static str {\n    \"EventKind::Grant\"\n}\n",
    );
    assert!(
        !r.diagnostics
            .iter()
            .any(|d| d.rule == "invariant-site-coverage"),
        "{:?}",
        r.diagnostics
    );
}

#[test]
fn quoted_degrade_site_is_not_a_degradation() {
    let r = run_one(
        "crates/core/src/admission.rs",
        "pub fn help() -> &'static str {\n    \".set_gl_demoted( flips an output\" // .readmit( too\n}\n",
    );
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn hashmap_in_string_is_not_nondeterminism() {
    let r = run_one(
        "crates/core/src/order.rs",
        "pub fn why() -> &'static str {\n    \"HashMap iteration order is random\"\n}\n",
    );
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn waiver_quoted_in_string_is_phantom_no_more() {
    // The regex engine read waivers from raw source text, so a quoted
    // marker on one line silently suppressed a real finding on the
    // next. The token engine reads waivers from comment tokens only:
    // the real .unwrap() below must still fire.
    let r = run_one(
        "crates/core/src/hot.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    let _m = \"// ssq-lint: allow(no-unwrap)\";\n    x.unwrap()\n}\n",
    );
    let rules: Vec<&str> = r.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec!["no-unwrap"], "{:?}", r.diagnostics);
    assert_eq!(r.diagnostics[0].line, 3);
}

#[test]
fn real_sites_next_to_quoted_lookalikes_still_fire() {
    // Masking must not cut the other way: blanking literal bytes from
    // the line render keeps columns, so neighbor-token logic still sees
    // the real call.
    let r = run_one(
        "crates/core/src/hot.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    let _s = \"x.unwrap()\"; x.unwrap()\n}\n",
    );
    let unwraps: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.rule == "no-unwrap")
        .collect();
    assert_eq!(unwraps.len(), 1, "{:?}", r.diagnostics);
}
