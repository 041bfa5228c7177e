//! The checked-in finding baseline: legacy findings recorded by
//! fingerprint so they stop blocking CI while anything *new* still
//! fails it.
//!
//! Format — one finding per line, tab-separated:
//!
//! ```text
//! <rule>\t<file>\t<fingerprint hex16>\t<informational excerpt>
//! ```
//!
//! Only the first three fields are semantic; the excerpt exists so
//! humans can review the file in place. Lines are sorted, `#` starts a
//! comment, and the file is regenerated wholesale by
//! `cargo xtask lint --update-baseline`.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;

/// The canonical baseline file name at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.txt";

/// A parsed baseline: the set of grandfathered fingerprints.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeSet<(String, String, u64)>,
}

impl Baseline {
    /// Parses baseline text. Unparseable lines are ignored (an edited
    /// baseline should fail *open* into stricter linting, not panic).
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut entries = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(rule), Some(file), Some(fp)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            if let Ok(fp) = u64::from_str_radix(fp.trim(), 16) {
                entries.insert((rule.to_string(), file.to_string(), fp));
            }
        }
        Baseline { entries }
    }

    /// The number of grandfathered findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `diag` is grandfathered.
    #[must_use]
    pub fn contains(&self, diag: &Diagnostic) -> bool {
        self.entries
            .contains(&(diag.rule.to_string(), diag.file.clone(), diag.fingerprint()))
    }

    /// Marks every grandfathered finding in `diags` as baselined.
    pub fn apply(&self, diags: &mut [Diagnostic]) {
        for d in diags {
            d.baselined = self.contains(d);
        }
    }
}

/// Renders `diags` as a fresh baseline file (sorted, commented header).
#[must_use]
pub fn render(diags: &[Diagnostic]) -> String {
    let mut lines: Vec<String> = diags
        .iter()
        .map(|d| {
            let excerpt: String = d.anchor.chars().take(80).collect();
            format!(
                "{}\t{}\t{:016x}\t{}",
                d.rule,
                d.file,
                d.fingerprint(),
                excerpt.replace(['\t', '\n'], " ")
            )
        })
        .collect();
    lines.sort();
    lines.dedup();
    let mut out = String::from(
        "# ssq-lint baseline: findings grandfathered when the token-aware engine landed.\n\
         # New findings are NOT covered and fail `cargo xtask lint`.\n\
         # Regenerate intentionally with: cargo xtask lint --update-baseline\n\
         # Format: rule<TAB>file<TAB>fingerprint<TAB>excerpt (first 3 fields semantic)\n\
         #\n\
         # Shrink policy: this file may only lose entries over time. Remove an entry\n\
         # when its site is (a) fixed at the source, (b) ruled out by a type (a\n\
         # literal shift amount, float arithmetic, a `NonZero*` divisor, or a shift\n\
         # through `PortSet`/`BitIndex`; see DESIGN.md §12), or (c) waived in-source\n\
         # with an evidence comment. `scripts/check.sh` fails any change that\n\
         # *grows* the entry count versus the committed copy.\n",
    );
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn diag(rule: &'static str, file: &str, anchor: &str) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Deny,
            file: file.to_string(),
            line: 1,
            message: "m".to_string(),
            anchor: anchor.to_string(),
            baselined: false,
        }
    }

    #[test]
    fn round_trip_marks_only_recorded_findings() {
        let old = vec![diag("no-unwrap", "a.rs", "x"), diag("no-todo", "b.rs", "y")];
        let baseline = Baseline::parse(&render(&old));
        assert_eq!(baseline.len(), 2);
        let mut now = vec![
            diag("no-unwrap", "a.rs", "x"),
            diag("no-unwrap", "a.rs", "brand new"),
        ];
        baseline.apply(&mut now);
        assert!(now[0].baselined);
        assert!(!now[1].baselined);
    }

    #[test]
    fn comments_blanks_and_garbage_are_ignored() {
        let b = Baseline::parse("# header\n\nnot a baseline line\nrule\tfile\tnothex\tmeh\n");
        assert!(b.is_empty());
    }

    #[test]
    fn excerpt_field_is_informational_only() {
        let recorded = render(&[diag("no-unwrap", "a.rs", "anchor text")]);
        let edited = recorded.replace("anchor text", "reworded by a human");
        let b = Baseline::parse(&edited);
        assert!(b.contains(&diag("no-unwrap", "a.rs", "anchor text")));
    }
}
