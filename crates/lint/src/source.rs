//! The lint-ready view of one source file: its token stream plus the
//! derived per-line facts every rule consumes — `#[cfg(...)]` gating
//! (test regions and feature requirements), `ssq-lint: allow(...)`
//! waivers, and a column-preserving render of only the *code* tokens.
//!
//! Waivers are collected exclusively from comment tokens, and the code
//! render contains no bytes from strings, chars, or comments — the two
//! properties that retire the regex engine's false-positive and
//! phantom-suppression classes in one move.

use crate::lexer::{lex, Token, TokenKind};

/// What a `#[cfg(...)]` region grants to the lines it covers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineGates {
    /// Covered by a cfg gating on the `test` token (`#[cfg(test)]`,
    /// `#[cfg(all(test, feature = "faults"))]`, …) or by `#[test]`.
    pub test: bool,
    /// Cargo features the covering cfg attributes mention un-negated
    /// (`#[cfg(feature = "faults")]` grants `faults`).
    pub features: Vec<String>,
}

/// One source file, lexed and annotated.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated
    /// (`crates/core/src/kernel.rs`).
    pub rel: String,
    /// The owning crate's directory name under `crates/` (`core`), or
    /// the empty string for the root `src/` crate.
    pub crate_name: String,
    /// The raw source text.
    pub text: String,
    /// The complete token stream.
    pub tokens: Vec<Token>,
    /// Per 0-based line: cfg gates in force.
    gates: Vec<LineGates>,
    /// Per 0-based line: rules waived there.
    waivers: Vec<Vec<String>>,
    /// Per 0-based line: the line's code tokens only, columns kept.
    code_lines: Vec<String>,
}

impl SourceFile {
    /// Lexes and annotates `text` as the file at `rel`.
    #[must_use]
    pub fn new(rel: &str, text: String) -> Self {
        let rel = rel.replace('\\', "/");
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        let tokens = lex(&text);
        let line_count = text.lines().count().max(1);
        let code_lines = render_code_lines(&text, &tokens, line_count);
        let gates = line_gates(&text, &tokens, line_count);
        let waivers = collect_waivers(&text, &tokens, &code_lines, line_count);
        SourceFile {
            rel,
            crate_name,
            text,
            tokens,
            gates,
            waivers,
            code_lines,
        }
    }

    /// The number of lines.
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.code_lines.len()
    }

    /// The 0-based line's code-only render (strings, chars, and
    /// comments blanked; columns preserved).
    #[must_use]
    pub fn code_line(&self, line: usize) -> &str {
        self.code_lines.get(line).map_or("", String::as_str)
    }

    /// All code-only line renders, for window-scanning rules.
    #[must_use]
    pub fn code_lines(&self) -> &[String] {
        &self.code_lines
    }

    /// Whether the 0-based line sits inside a test-gated region.
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        self.gates.get(line).is_some_and(|g| g.test)
    }

    /// The features granted to the 0-based line by covering cfgs.
    #[must_use]
    pub fn line_features(&self, line: usize) -> &[String] {
        self.gates.get(line).map_or(&[], |g| &g.features)
    }

    /// Whether `rule` is waived on the 0-based line.
    #[must_use]
    pub fn waived(&self, line: usize, rule: &str) -> bool {
        self.waivers
            .get(line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }

    /// The token's text.
    #[must_use]
    pub fn tok_text(&self, tok: &Token) -> &str {
        tok.text(&self.text)
    }

    /// Iterates the code tokens (everything except comments and
    /// string/char literals) with their stream indices.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.is_code())
    }
}

/// Renders each line keeping only code tokens at their original
/// columns; bytes from comments and literals become spaces.
fn render_code_lines(text: &str, tokens: &[Token], line_count: usize) -> Vec<String> {
    // Start byte of each line.
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    let mut lines: Vec<Vec<u8>> = text
        .lines()
        .map(|l| vec![b' '; l.len()])
        .collect::<Vec<_>>();
    lines.resize(line_count.max(lines.len()), Vec::new());
    for tok in tokens.iter().filter(|t| t.kind.is_code()) {
        // Code tokens never span lines (only strings and comments do).
        let Some(&line_start) = starts.get(tok.line) else {
            continue;
        };
        let col = tok.start - line_start;
        if let Some(row) = lines.get_mut(tok.line) {
            let end = (col + (tok.end - tok.start)).min(row.len());
            row[col..end].copy_from_slice(&text.as_bytes()[tok.start..tok.start + (end - col)]);
        }
    }
    lines
        .into_iter()
        .map(|row| String::from_utf8_lossy(&row).into_owned())
        .collect()
}

/// Computes per-line cfg gates by walking every `#[cfg(...)]` / `#[test]`
/// attribute in the code-token stream and brace-matching the item (or
/// statement) it covers.
fn line_gates(text: &str, tokens: &[Token], line_count: usize) -> Vec<LineGates> {
    let mut gates = vec![LineGates::default(); line_count];
    // Strings stay in this stream (comments do not): an attribute's
    // normalized text must keep `feature = "faults"` values. A string
    // can never *start* an attribute (`#` and `[` are Punct tokens), so
    // gating still cannot be conjured from literal content.
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.kind.is_comment())
        .collect();

    let mut ci = 0;
    while ci < code.len() {
        let (_, tok) = code[ci];
        let is_outer_attr = tok.kind == TokenKind::Punct
            && tok.text(text) == "#"
            && code
                .get(ci + 1)
                .is_some_and(|(_, t)| t.text(text) == "[" && t.kind == TokenKind::Punct);
        if !is_outer_attr {
            ci += 1;
            continue;
        }
        // Bracket-match the attribute in the code stream.
        let attr_start_ci = ci;
        let mut depth = 0usize;
        let mut cj = ci + 1;
        while cj < code.len() {
            match code[cj].1.text(text) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        cj += 1;
                        break;
                    }
                }
                _ => {}
            }
            cj += 1;
        }
        let attr_norm: String = code[attr_start_ci + 2..cj.saturating_sub(1)]
            .iter()
            .map(|(_, t)| t.text(text))
            .collect();
        let (is_cfg, is_test_attr) = (
            attr_norm.starts_with("cfg(") || attr_norm.starts_with("cfg_attr("),
            attr_norm == "test",
        );
        if !is_cfg && !is_test_attr {
            ci = cj.max(ci + 1);
            continue;
        }
        let grants_test = is_test_attr || cfg_mentions(&attr_norm, "test");
        let features = cfg_features(&attr_norm);
        if !grants_test && features.is_empty() {
            ci = cj.max(ci + 1);
            continue;
        }

        // Skip any further attributes to the covered item/statement.
        let mut ck = cj;
        while ck + 1 < code.len()
            && code[ck].1.text(text) == "#"
            && code[ck + 1].1.text(text) == "["
        {
            let mut d = 0usize;
            let mut cm = ck + 1;
            while cm < code.len() {
                match code[cm].1.text(text) {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            cm += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                cm += 1;
            }
            ck = cm;
        }
        // Brace-match the covered region: to the matching close of the
        // first `{`, or to a `;`/`,` at depth 0, or to the close of the
        // enclosing block (an annotated last-in-block expression).
        let mut d = 0usize;
        let mut end_line = code.get(ck).map_or(tok.line, |(_, t)| t.line);
        let mut cm = ck;
        while cm < code.len() {
            let t = code[cm].1;
            match t.text(text) {
                "{" => d += 1,
                "}" if d > 0 => {
                    d -= 1;
                    if d == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                "}" => break, // enclosing block closed first
                ";" | "," if d == 0 => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            end_line = t.line;
            cm += 1;
        }
        for g in gates
            .iter_mut()
            .take(end_line.min(line_count.saturating_sub(1)) + 1)
            .skip(tok.line)
        {
            if grants_test {
                g.test = true;
            }
            for f in &features {
                if !g.features.contains(f) {
                    g.features.push(f.clone());
                }
            }
        }
        ci = cj.max(ci + 1);
    }
    gates
}

/// Whether the normalized cfg text mentions the bare token `word`
/// outside a `not(...)` — `cfg(all(test,feature="x"))` mentions `test`,
/// `cfg(not(test))` and `cfg(feature="latest")` do not.
fn cfg_mentions(norm: &str, word: &str) -> bool {
    let bytes = norm.as_bytes();
    let mut from = 0;
    while let Some(rel) = norm[from..].find(word) {
        let at = from + rel;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let after = at + word.len();
        let after_ok =
            after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
        if before_ok && after_ok && !norm[..at].ends_with("not(") {
            return true;
        }
        from = after;
    }
    false
}

/// Feature names the normalized cfg text grants: every
/// `feature="name"` occurrence outside a `not(...)`.
fn cfg_features(norm: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = norm[from..].find("feature=\"") {
        let at = from + rel;
        let val_start = at + "feature=\"".len();
        let Some(close) = norm[val_start..].find('"') else {
            break;
        };
        let name = &norm[val_start..val_start + close];
        if !norm[..at].ends_with("not(") && !out.iter().any(|n| n == name) {
            out.push(name.to_string());
        }
        from = val_start + close + 1;
    }
    out
}

/// Collects `ssq-lint: allow(rule, …)` waivers from comment tokens. A
/// waiver applies to the comment's own line; when that line holds no
/// code, it also applies to the next line.
fn collect_waivers(
    text: &str,
    tokens: &[Token],
    code_lines: &[String],
    line_count: usize,
) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = vec![Vec::new(); line_count];
    for tok in tokens.iter().filter(|t| t.kind.is_comment()) {
        let body = tok.text(text);
        let mut from = 0;
        while let Some(rel) = body[from..].find("ssq-lint: allow(") {
            let start = from + rel + "ssq-lint: allow(".len();
            let Some(close) = body[start..].find(')') else {
                break;
            };
            let rules: Vec<String> = body[start..start + close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let comment_only = code_lines.get(tok.line).is_none_or(|l| l.trim().is_empty());
            if let Some(slot) = out.get_mut(tok.line) {
                slot.extend(rules.iter().cloned());
            }
            if comment_only {
                if let Some(slot) = out.get_mut(tok.line + 1) {
                    slot.extend(rules);
                }
            }
            from = start + close;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/core/src/demo.rs", src.to_string())
    }

    #[test]
    fn code_lines_blank_strings_and_comments() {
        let f = file("let a = \".unwrap()\"; // panic!\nlet b = 2;\n");
        assert!(!f.code_line(0).contains("unwrap"));
        assert!(!f.code_line(0).contains("panic"));
        assert!(f.code_line(0).contains("let a ="));
        assert_eq!(f.code_line(1), "let b = 2;");
    }

    #[test]
    fn code_lines_preserve_columns() {
        let f = file("abc(\"xx\", y);\n");
        assert_eq!(f.code_line(0), "abc(    , y);");
    }

    #[test]
    fn cfg_test_region_spans_the_module() {
        let f = file("fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn also() {}\n");
        let flags: Vec<bool> = (0..6).map(|l| f.is_test_line(l)).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_all_test_feature_grants_both() {
        let f = file("#[cfg(all(test, feature = \"faults\"))]\nmod m {\n    fn t() {}\n}\n");
        assert!(f.is_test_line(2));
        assert_eq!(f.line_features(2), ["faults"]);
    }

    #[test]
    fn cfg_not_test_and_lookalike_features_do_not_gate() {
        let f = file("#[cfg(not(test))]\nfn a() {}\n#[cfg(feature = \"latest\")]\nfn b() {}\n");
        assert!((0..4).all(|l| !f.is_test_line(l)));
        assert!(f.line_features(3).is_empty() || f.line_features(3) == ["latest"]);
    }

    #[test]
    fn statement_level_feature_gate_covers_the_statement() {
        let f = file(
            "fn f(&mut self) {\n    #[cfg(feature = \"faults\")]\n    self.faultctl.note();\n    self.other();\n}\n",
        );
        assert_eq!(f.line_features(2), ["faults"]);
        assert!(f.line_features(3).is_empty());
    }

    #[test]
    fn test_attribute_gates_the_function() {
        let f = file("#[test]\nfn t() {\n    boom();\n}\nfn hot() {}\n");
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(4));
    }

    #[test]
    fn cfg_test_enum_variant_covers_only_its_lines() {
        let f = file("enum T {\n    A,\n    #[cfg(test)]\n    B,\n}\nfn hot() {}\n");
        let flags: Vec<bool> = (0..6).map(|l| f.is_test_line(l)).collect();
        assert_eq!(flags, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn waiver_applies_to_own_and_next_line() {
        let f = file(
            "// ssq-lint: allow(no-unwrap)\nlet a = x.unwrap();\nlet b = 1; // ssq-lint: allow(no-todo, no-unwrap)\nlet c = 2;\n",
        );
        assert!(f.waived(0, "no-unwrap"));
        assert!(f.waived(1, "no-unwrap"));
        assert!(f.waived(2, "no-todo") && f.waived(2, "no-unwrap"));
        assert!(!f.waived(3, "no-unwrap"));
    }

    #[test]
    fn waiver_inside_string_literal_is_phantom_no_more() {
        // The regex engine read waivers from raw source, so a quoted
        // marker suppressed real findings on the next line. The token
        // engine reads only comment tokens.
        let f = file("let s = \"// ssq-lint: allow(no-unwrap)\";\nlet a = x.unwrap();\n");
        assert!(!f.waived(0, "no-unwrap"));
        assert!(!f.waived(1, "no-unwrap"));
    }

    #[test]
    fn cfg_gate_inside_a_string_does_not_gate() {
        let f = file("let s = \"#[cfg(test)] mod t {\";\nfn hot() {}\n");
        assert!(!f.is_test_line(1));
    }
}
