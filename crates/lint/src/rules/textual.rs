//! The nine legacy rules, ported from the regex scanner to the token
//! stream. Semantics and rule names are unchanged — existing
//! `ssq-lint: allow(...)` waivers keep working — but matching now
//! happens on code tokens (or on the code-only line render for the
//! window rules), so nothing can fire inside a string literal or a
//! comment by construction.

use crate::diag::{Diagnostic, Severity};
use crate::parse::ParsedFile;
use crate::source::SourceFile;

/// Crates whose non-test code sits on the simulation hot path: panics
/// there abort entire sweeps, so fallible APIs must return `Result`.
const NO_PANIC_CRATES: &[&str] = &["arbiter", "circuit", "core", "sim"];

/// Files doing counter/thermometer arithmetic, where a narrowing `as`
/// cast silently truncates `auxVC` state.
const NO_NARROWING_FILES: &[&str] = &[
    "crates/arbiter/src/ssvc.rs",
    "crates/arbiter/src/thermometer.rs",
    "crates/stats/src/counter.rs",
];

/// Runs every applicable legacy rule over one file. `crate_has_lib`
/// says whether the owning crate has a `lib.rs` — binary-only crates
/// (like `xtask` itself) legitimately own stdout.
pub fn check_file(
    file: &SourceFile,
    parsed: &ParsedFile,
    crate_has_lib: bool,
    out: &mut Vec<Diagnostic>,
) {
    let rel = file.rel.as_str();
    let crate_name = file.crate_name.as_str();

    if NO_PANIC_CRATES.contains(&crate_name) {
        no_unwrap(file, out);
    }
    if NO_NARROWING_FILES.contains(&rel) {
        no_narrowing_cast(file, out);
    }
    if crate_has_lib && is_library_source(rel) {
        no_print_in_lib(file, out);
    }
    no_todo(file, out);
    must_use_decisions(file, parsed, out);
    if crate_name != "types" {
        no_lossy_index(file, out);
    }
    if rel.ends_with("crates/core/src/switch.rs") {
        invariant_site_coverage(file, out);
    }
    if rel.contains("crates/core/src/") || rel.contains("crates/faults/src/") {
        no_silent_degrade(file, out);
    }
}

/// Whether `rel` is library code of a workspace crate: under a `src/`
/// directory but neither a binary (`src/bin/`) nor a binary crate root
/// (`main.rs`).
fn is_library_source(rel: &str) -> bool {
    rel.contains("/src/") && !rel.contains("/src/bin/") && !rel.ends_with("/main.rs")
}

/// Emits one finding, anchored on the trimmed code-line text plus the
/// number of earlier same-rule findings on the same text (so repeated
/// lines stay distinct but the baseline survives line-number drift).
pub(crate) fn push(
    file: &SourceFile,
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    line: usize,
    message: String,
) {
    let text = file.code_line(line).trim().to_string();
    let occurrence = out
        .iter()
        .filter(|d| d.rule == rule && d.anchor.starts_with(&text) && d.file == file.rel)
        .count();
    out.push(Diagnostic {
        rule,
        severity: Severity::Deny,
        file: file.rel.clone(),
        line: line + 1,
        message,
        anchor: format!("{text}#{occurrence}"),
        baselined: false,
    });
}

/// Iterates non-test code tokens as `(stream index, line, text)`.
pub(crate) fn hot_tokens<'f>(
    file: &'f SourceFile,
) -> impl Iterator<Item = (usize, usize, &'f str)> {
    file.code_tokens()
        .filter(|(_, t)| !file.is_test_line(t.line))
        .map(|(i, t)| (i, t.line, t.text(&file.text)))
}

/// The code token at stream index `i`, as text (comments and literals
/// are transparent to neighbor checks — they are skipped).
pub(crate) fn code_text_at(file: &SourceFile, i: usize, step: isize) -> Option<&str> {
    let mut j = i as isize;
    loop {
        j += step;
        let tok = file.tokens.get(usize::try_from(j).ok()?)?;
        if tok.kind.is_code() {
            return Some(tok.text(&file.text));
        }
    }
}

/// `no-unwrap`: no `.unwrap()`, `.expect(...)`, or `panic!` in non-test
/// code of hot-path crates.
fn no_unwrap(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line, text) in hot_tokens(file) {
        let (hit, advice) = match text {
            "unwrap"
                if code_text_at(file, i, -1) == Some(".")
                    && code_text_at(file, i, 1) == Some("(") =>
            {
                (
                    true,
                    "return a Result (or use unwrap_or/match) instead of .unwrap()",
                )
            }
            "expect"
                if code_text_at(file, i, -1) == Some(".")
                    && code_text_at(file, i, 1) == Some("(") =>
            {
                (
                    true,
                    "return a Result instead of .expect(); panics here abort whole sweeps",
                )
            }
            "panic" if code_text_at(file, i, 1) == Some("!") => (
                true,
                "propagate an error instead of panic! on the simulation hot path",
            ),
            _ => (false, ""),
        };
        if hit {
            push(file, out, "no-unwrap", line, advice.to_string());
        }
    }
}

/// `no-narrowing-cast`: no `as u8/u16/u32/i8/i16/i32` in counter and
/// thermometer arithmetic — `auxVC` values are 64-bit and a narrowing
/// cast silently truncates.
fn no_narrowing_cast(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    for (i, line, text) in hot_tokens(file) {
        if text == "as" {
            if let Some(target) = code_text_at(file, i, 1).filter(|t| NARROW.contains(t)) {
                push(
                    file,
                    out,
                    "no-narrowing-cast",
                    line,
                    format!(
                        "`as {target}` truncates counter state; use try_from or widen the type"
                    ),
                );
            }
        }
    }
}

/// `no-print-in-lib`: no `println!` / `eprintln!` in library crates
/// outside `cfg(test)` — libraries return data (or emit trace events);
/// only binaries own stdout.
fn no_print_in_lib(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line, text) in hot_tokens(file) {
        if matches!(text, "println" | "eprintln") && code_text_at(file, i, 1) == Some("!") {
            push(
                file,
                out,
                "no-print-in-lib",
                line,
                format!(
                    "{text}! in library code; return data (or emit a trace event) and let \
                     the binary print"
                ),
            );
        }
    }
}

/// `no-todo`: no `todo!` / `unimplemented!` outside tests, anywhere.
fn no_todo(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line, text) in hot_tokens(file) {
        if matches!(text, "todo" | "unimplemented") && code_text_at(file, i, 1) == Some("!") {
            push(
                file,
                out,
                "no-todo",
                line,
                format!("{text}! must not ship in non-test code"),
            );
        }
    }
}

/// `must-use-decision`: arbitration result types (`*Decision`, `*Grant`,
/// `*Outcome`) must be `#[must_use]` — dropping one silently discards an
/// arbitration.
fn must_use_decisions(file: &SourceFile, parsed: &ParsedFile, out: &mut Vec<Diagnostic>) {
    for ty in &parsed.types {
        if file.is_test_line(ty.line) {
            continue;
        }
        let decisionish = ["Decision", "Grant", "Outcome"]
            .iter()
            .any(|suffix| ty.name.ends_with(suffix) && ty.name.len() > suffix.len());
        if !decisionish || ty.attrs.iter().any(|a| a.contains("must_use")) {
            continue;
        }
        push(
            file,
            out,
            "must-use-decision",
            ty.line,
            format!(
                "arbitration result type `{}` must be #[must_use]: dropping one discards a grant",
                ty.name
            ),
        );
    }
}

/// `no-lossy-index`: no narrowing `as` cast applied directly to a
/// port/flow identifier — `winner as u32`, `input.index() as u32` —
/// outside `ssq-types` (which owns the identifier newtypes).
fn no_lossy_index(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    /// Identifier-ish names whose direct narrowing loses port/flow bits.
    const ID_TOKENS: &[&str] = &["input", "output", "winner", "port", "flow", "lane", "index"];
    const NARROW: &[&str] = &["usize", "u8", "u16", "u32"];
    for (i, line, text) in hot_tokens(file) {
        if text != "as" {
            continue;
        }
        let Some(target) = code_text_at(file, i, 1).filter(|t| NARROW.contains(t)) else {
            continue;
        };
        let prev = code_text_at(file, i, -1);
        // `x.index() as u32` / `x.raw() as u32`: accessor narrowing.
        let accessor = prev == Some(")")
            && code_text_at(file, i, -2) == Some("(")
            && matches!(code_text_at(file, i, -3), Some("index") | Some("raw"))
            && code_text_at(file, i, -4) == Some(".");
        let ident_hit = prev.filter(|p| ID_TOKENS.contains(p));
        if accessor || ident_hit.is_some() {
            let what = if accessor {
                format!("{}()", code_text_at(file, i, -3).unwrap_or("index"))
            } else {
                ident_hit.unwrap_or("identifier").to_string()
            };
            push(
                file,
                out,
                "no-lossy-index",
                line,
                format!(
                    "`{what} as {target}` narrows a port/flow identifier; keep the newtype \
                     (or usize) and narrow through the waived wire() funnel"
                ),
            );
        }
    }
}

/// Whether `needle` occurs in the code-line `line` *not* followed by an
/// identifier continuation.
fn find_token(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = line[from..].find(needle) {
        let end = from + rel + needle.len();
        let boundary = line[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_');
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// `invariant-site-coverage`: every grant/inhibit/chain emission site in
/// the switch core must sit within sight of a sanitizer check — a
/// `sanitize::` call in the preceding window — so the runtime
/// invariant-sanitizer (DESIGN.md §7) cannot silently drift out of the
/// hot path as the code evolves.
fn invariant_site_coverage(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    /// How many preceding lines may separate a check from its site.
    const WINDOW: usize = 25;
    const SITES: &[&str] = &[
        "EventKind::Grant",
        "EventKind::Inhibit",
        "EventKind::Chained",
    ];
    let lines = file.code_lines();
    for (idx, line) in lines.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        let Some(site) = SITES.iter().find(|s| find_token(line, s)) else {
            continue;
        };
        let start = idx.saturating_sub(WINDOW);
        let covered = lines[start..=idx].iter().any(|l| l.contains("sanitize::"));
        if !covered {
            push(
                file,
                out,
                "invariant-site-coverage",
                idx,
                format!(
                    "{site} emission has no paired sanitize:: check within {WINDOW} lines; \
                     add the invariant-sanitizer call (or a waiver)"
                ),
            );
        }
    }
}

/// `no-silent-degrade`: every QoS degradation site — flipping an output
/// into LRG fallback or GL demotion, or re-running admission — must sit
/// within sight of a fault-family trace emission. The two-outcome
/// contract of DESIGN.md §8 says a guarantee never weakens without a
/// structured event on the record.
fn no_silent_degrade(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    /// How many lines, in either direction, may separate a degradation
    /// from the event that announces it.
    const WINDOW: usize = 25;
    const SITES: &[&str] = &[".set_lrg_fallback(", ".set_gl_demoted(", ".readmit("];
    const LOUD: &[&str] = &[
        "EventKind::Degraded",
        "EventKind::GuaranteedRevoked",
        "EventKind::GuaranteeRevoked",
        "EventKind::Readmitted",
        "EventKind::Detected",
        "emit_degraded(",
        "detected_degrade(",
    ];
    let lines = file.code_lines();
    for (idx, line) in lines.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        // Collapse whitespace so `.readmit (` and token-spaced renders
        // still match the site patterns.
        let Some(site) = SITES.iter().find(|s| line.contains(**s)) else {
            continue;
        };
        let start = idx.saturating_sub(WINDOW);
        let end = (idx + WINDOW).min(lines.len().saturating_sub(1));
        let covered = lines[start..=end]
            .iter()
            .any(|l| LOUD.iter().any(|n| l.contains(n)));
        if !covered {
            push(
                file,
                out,
                "no-silent-degrade",
                idx,
                format!(
                    "degradation site `{}` has no fault-family trace emission within \
                     {WINDOW} lines; emit Degraded/GuaranteeRevoked/Readmitted (or add a waiver)",
                    site.trim_start_matches('.').trim_end_matches('(')
                ),
            );
        }
    }
}
