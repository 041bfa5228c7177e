//! Lint diagnostics: severity, stable fingerprints, and the
//! machine-readable JSON rendering behind `cargo xtask lint --json`.
//!
//! Fingerprints are FNV-1a over `(rule, file, anchor)`, where the
//! anchor is a drift-stable identity payload chosen by each rule —
//! typically the trimmed source line text plus an occurrence index, so
//! findings survive unrelated line-number churn, or a per-function
//! summary for the aggregated reachability lints. The baseline matches
//! on fingerprints, never on line numbers.

/// How a finding gates CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A new (un-baselined, un-waived) finding fails the lint pass.
    Deny,
    /// Reported for visibility; never fails the pass.
    Warn,
}

impl Severity {
    /// The JSON/label spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule identifier (usable in `ssq-lint: allow(...)`).
    pub rule: &'static str,
    /// Whether a new instance fails the pass.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong and what to do instead.
    pub message: String,
    /// Drift-stable identity payload (see module docs).
    pub anchor: String,
    /// Whether the checked-in baseline already records this finding.
    pub baselined: bool,
}

impl Diagnostic {
    /// The finding's stable fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(self.rule.as_bytes());
        h.write(&[0]);
        h.write(self.file.as_bytes());
        h.write(&[0]);
        h.write(self.anchor.as_bytes());
        h.finish()
    }

    /// The human one-liner, matching the engine's historic format.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{} · {} · {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// FNV-1a, 64-bit: the one hash the offline workspace needs.
pub struct Fnv(u64);

impl Fnv {
    /// The standard offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Escapes `s` for a JSON string body.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full diagnostics document (schema version 3: summary and
/// findings). Findings must already be in their final deterministic
/// order.
#[must_use]
pub fn render_json(diags: &[Diagnostic], files_scanned: usize, rules: &[&str]) -> String {
    let mut out = String::from("{\n  \"schema\": 3,\n  \"engine\": \"ssq-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!(
        "  \"rules\": [{}],\n",
        rules
            .iter()
            .map(|r| format!("\"{}\"", json_escape(r)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let new = diags.iter().filter(|d| !d.baselined).count();
    out.push_str(&format!(
        "  \"summary\": {{\"total\": {}, \"new\": {}, \"baselined\": {}}},\n",
        diags.len(),
        new,
        diags.len() - new,
    ));
    out.push_str("  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"fingerprint\": \"{:016x}\", \"baselined\": {}, \"message\": \"{}\"}}",
            json_escape(d.rule),
            d.severity.label(),
            json_escape(&d.file),
            d.line,
            d.fingerprint(),
            d.baselined,
            json_escape(&d.message),
        ));
    }
    out.push_str(if diags.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, anchor: &str) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Deny,
            file: "crates/core/src/demo.rs".to_string(),
            line: 3,
            message: "msg with \"quotes\" and\nnewline".to_string(),
            anchor: anchor.to_string(),
            baselined: false,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_anchor_sensitive() {
        let a = diag("no-unwrap", "x.unwrap();#0");
        let b = diag("no-unwrap", "x.unwrap();#0");
        let c = diag("no-unwrap", "x.unwrap();#1");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_line_numbers() {
        let mut a = diag("no-unwrap", "same");
        let mut b = diag("no-unwrap", "same");
        a.line = 10;
        b.line = 999;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn json_escaping_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_document_shape() {
        let doc = render_json(&[diag("no-unwrap", "a")], 2, &["no-unwrap"]);
        assert!(doc.contains("\"schema\": 3"));
        assert!(doc.contains("\"files_scanned\": 2"));
        assert!(doc.contains("\"summary\": {\"total\": 1, \"new\": 1, \"baselined\": 0}"));
        assert!(doc.contains("\"rule\": \"no-unwrap\""));
        assert!(!doc.contains("discharged"));
        let opens = doc.matches(['{', '[']).count();
        assert_eq!(opens, doc.matches(['}', ']']).count());
    }

    #[test]
    fn empty_document_is_well_formed() {
        let doc = render_json(&[], 1, &["mask-width-safety"]);
        assert!(doc.ends_with("\"findings\": []\n}\n"), "{doc}");
        assert!(doc.contains("\"summary\": {\"total\": 0, \"new\": 0, \"baselined\": 0}"));
    }
}
