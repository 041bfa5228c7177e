//! A lightweight item parser over the token stream: enough structure to
//! build a per-crate call graph — functions with qualified names and
//! body spans, the calls each body makes, `static` items, type
//! declarations with their attributes, and the cfg requirements of
//! every definition.
//!
//! This is deliberately not a full Rust parser. It tracks module and
//! `impl` nesting by brace-matching, recognizes `fn`/`struct`/`enum`/
//! `static` items, and extracts call sites as name references
//! (`path::segment(`, `.method(`, `bare(`). Name-based resolution
//! over-approximates the true call graph, which is the safe direction
//! for the reachability lints: a spurious edge can only make the purity
//! and panic-freedom checks *stricter*, never let a real violation
//! escape.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "loop", "in", "move", "break", "continue", "else",
    "unsafe", "let", "ref", "mut", "box", "dyn", "impl", "where", "as", "fn",
];

/// How a call site names its callee.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee's final name segment (`decide`, `push`, `new`).
    pub name: String,
    /// For path calls, the qualifying segment before the final `::`
    /// (`Request` in `Request::new`).
    pub qualifier: Option<String>,
    /// Whether this is a `.name(...)` method call.
    pub method: bool,
    /// 0-based line of the call.
    pub line: usize,
}

/// One parsed function (free function or method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the owning file in the engine's file list.
    pub file: usize,
    /// The bare name (`decide_output`).
    pub name: String,
    /// The qualified name: enclosing modules and `impl` type joined
    /// with `::` (`QosSwitch::decide_output`, `tests::helper`).
    pub qual: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function is declared inside an `impl` block.
    pub is_method: bool,
    /// Whether it sits in a test-gated region (excluded from the call
    /// graph: test helpers must not widen hot-path reachability).
    pub is_test: bool,
    /// Token-index range of the parameter list, exclusive of the
    /// parentheses (the source of declared parameter types).
    pub params: std::ops::Range<usize>,
    /// Token-index range of the body, exclusive of the braces. Empty
    /// for bodyless trait-method declarations.
    pub body: std::ops::Range<usize>,
    /// Every call site extracted from the body.
    pub calls: Vec<CallSite>,
}

/// A `struct`/`enum` declaration, for attribute-driven rules.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// The declared name.
    pub name: String,
    /// 0-based line of the declaring keyword.
    pub line: usize,
    /// Normalized texts of the attributes directly above it
    /// (`derive(Debug)`, `must_use`, `cfg(test)`).
    pub attrs: Vec<String>,
}

/// Any named definition with the cfg features it requires — the raw
/// material for the `feature-gate-hygiene` surface map.
#[derive(Debug, Clone)]
pub struct Definition {
    /// The defined name (`fault_set_link`, `FaultControl`).
    pub name: String,
    /// Features required by covering cfg gates at the definition site.
    pub features: Vec<String>,
}

/// Everything the parser extracted from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// `struct`/`enum` declarations, in source order.
    pub types: Vec<TypeItem>,
    /// All named definitions (fns, types, statics) with cfg features.
    pub defs: Vec<Definition>,
}

/// Parses `file` (index `file_idx` in the engine's list).
#[must_use]
pub fn parse(file: &SourceFile, file_idx: usize) -> ParsedFile {
    let code: Vec<(usize, Token)> = file.code_tokens().map(|(i, t)| (i, *t)).collect();
    let mut out = ParsedFile::default();
    // Context stack: one frame per open brace.
    let mut stack: Vec<Frame> = Vec::new();
    let mut ci = 0;
    while ci < code.len() {
        let text = file.tok_text(&code[ci].1);
        let kind = code[ci].1.kind;
        match (kind, text) {
            (TokenKind::Punct, "{") => {
                stack.push(Frame::Block);
                ci += 1;
            }
            (TokenKind::Punct, "}") => {
                stack.pop();
                ci += 1;
            }
            (TokenKind::Ident, "mod") => {
                // `mod name {` contributes a segment; `mod name;` none.
                let name = code
                    .get(ci + 1)
                    .filter(|(_, t)| t.kind == TokenKind::Ident)
                    .map(|(_, t)| file.tok_text(t).to_string());
                if code
                    .get(ci + 2)
                    .is_some_and(|(_, t)| file.tok_text(t) == "{")
                {
                    stack.push(name.map_or(Frame::Block, Frame::Mod));
                    ci += 3;
                } else {
                    ci += 1;
                }
            }
            (TokenKind::Ident, "impl") => {
                let (seg, next) = impl_type(file, &code, ci);
                if next < code.len() && file.tok_text(&code[next].1) == "{" {
                    stack.push(seg.map_or(Frame::Block, Frame::Impl));
                    ci = next + 1;
                } else {
                    ci = next.max(ci + 1);
                }
            }
            (TokenKind::Ident, "fn") => {
                ci = parse_fn(file, file_idx, &code, ci, &stack, &mut out);
            }
            (TokenKind::Ident, "struct" | "enum") => {
                if let Some((_, t)) = code.get(ci + 1).filter(|(_, t)| t.kind == TokenKind::Ident) {
                    let name = file.tok_text(t).to_string();
                    let line = code[ci].1.line;
                    out.defs.push(Definition {
                        name: name.clone(),
                        features: file.line_features(line).to_vec(),
                    });
                    out.types.push(TypeItem {
                        name,
                        line,
                        attrs: attrs_before(file, &code, ci),
                    });
                }
                ci += 2;
            }
            (TokenKind::Ident, "static") => {
                // `static NAME` or `static mut NAME`.
                let mut cj = ci + 1;
                if code.get(cj).is_some_and(|(_, t)| file.tok_text(t) == "mut") {
                    cj += 1;
                }
                if let Some((_, t)) = code.get(cj).filter(|(_, t)| t.kind == TokenKind::Ident) {
                    out.defs.push(Definition {
                        name: file.tok_text(t).to_string(),
                        features: file.line_features(code[ci].1.line).to_vec(),
                    });
                }
                ci = cj + 1;
            }
            _ => ci += 1,
        }
    }
    out
}

/// One open brace on the parser's context stack.
#[derive(Debug, Clone)]
enum Frame {
    /// A plain block (fn body, trait body, expression block, …).
    Block,
    /// A named module body.
    Mod(String),
    /// An `impl` body for the named `Self` type.
    Impl(String),
}

impl Frame {
    fn segment(&self) -> Option<&str> {
        match self {
            Frame::Block => None,
            Frame::Mod(s) | Frame::Impl(s) => Some(s),
        }
    }
}

/// Reads an `impl` header: returns the contributed path segment (the
/// `Self` type's final name) and the code index of the opening `{` (or
/// wherever scanning stopped).
fn impl_type(
    file: &SourceFile,
    code: &[(usize, Token)],
    impl_ci: usize,
) -> (Option<String>, usize) {
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut cj = impl_ci + 1;
    while cj < code.len() {
        let t = &code[cj].1;
        let s = file.tok_text(t);
        match (t.kind, s) {
            (TokenKind::Punct, "{") if angle <= 0 => break,
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => {
                // `->` decrements nothing; a bare `>` closes a bracket.
                let arrow = cj > 0 && file.tok_text(&code[cj - 1].1) == "-";
                if !arrow {
                    angle -= 1;
                }
            }
            (TokenKind::Ident, "for") if angle <= 0 => saw_for = true,
            (TokenKind::Ident, "where") if angle <= 0 => {
                // Type name is settled; scan on to the brace.
            }
            (TokenKind::Ident, _) if angle <= 0 => {
                if saw_for {
                    after_for = Some(s.to_string());
                } else {
                    last_ident = Some(s.to_string());
                }
            }
            _ => {}
        }
        cj += 1;
    }
    (after_for.or(last_ident), cj)
}

/// Parses one `fn` item starting at the `fn` keyword; returns the code
/// index to continue from (just past the signature — the body is
/// consumed here for call extraction but re-walked by the outer loop so
/// nested items are still seen).
fn parse_fn(
    file: &SourceFile,
    file_idx: usize,
    code: &[(usize, Token)],
    fn_ci: usize,
    stack: &[Frame],
    out: &mut ParsedFile,
) -> usize {
    let Some((_, name_tok)) = code
        .get(fn_ci + 1)
        .filter(|(_, t)| t.kind == TokenKind::Ident)
    else {
        return fn_ci + 1;
    };
    let name = file.tok_text(name_tok).to_string();
    let line = code[fn_ci].1.line;

    // Find the body's opening brace: first `{` outside parens/angles.
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut cj = fn_ci + 2;
    let mut body_open: Option<usize> = None;
    // The parameter list is the first parenthesized group outside
    // generics; later groups (`-> impl Fn(u8)`) are return types.
    let mut params_open: Option<usize> = None;
    let mut params: Option<std::ops::Range<usize>> = None;
    while cj < code.len() {
        let t = &code[cj].1;
        match (t.kind, file.tok_text(t)) {
            (TokenKind::Punct, "(") => {
                if paren == 0 && angle <= 0 && params_open.is_none() {
                    params_open = Some(code[cj].0 + 1);
                }
                paren += 1;
            }
            (TokenKind::Punct, ")") => {
                paren -= 1;
                if paren == 0 && params.is_none() {
                    params = params_open.map(|open| open..code[cj].0);
                }
            }
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => {
                if !(cj > 0 && file.tok_text(&code[cj - 1].1) == "-") {
                    angle -= 1;
                }
            }
            (TokenKind::Punct, "{") if paren == 0 => {
                body_open = Some(cj);
                break;
            }
            (TokenKind::Punct, ";") if paren == 0 && angle <= 0 => break,
            _ => {}
        }
        cj += 1;
    }

    let mut body = 0..0;
    let mut calls = Vec::new();
    if let Some(open) = body_open {
        // Brace-match the body in code-token space. Malformed input
        // (an unclosed brace) degrades to "body runs to end of file"
        // rather than panicking — lint must cope with any source.
        let mut depth = 0usize;
        let mut close = code.len().saturating_sub(1);
        for (k, (_, t)) in code.iter().enumerate().skip(open) {
            match file.tok_text(t) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let close = close.max(open);
        body = code[open].0 + 1..code.get(close).map_or(code[open].0 + 1, |(i, _)| *i);
        calls = extract_calls(file, &code[open + 1..close.max(open + 1)]);
    }

    let qual_segments: Vec<&str> = stack
        .iter()
        .filter_map(Frame::segment)
        .chain(std::iter::once(name.as_str()))
        .collect();
    out.defs.push(Definition {
        name: name.clone(),
        features: file.line_features(line).to_vec(),
    });
    out.fns.push(FnItem {
        file: file_idx,
        qual: qual_segments.join("::"),
        is_method: matches!(stack.last(), Some(Frame::Impl(_))),
        is_test: file.is_test_line(line),
        name,
        line,
        params: params.unwrap_or(0..0),
        body,
        calls,
    });
    // Continue from just inside the body (or past the signature) so the
    // outer loop's brace tracking stays balanced and nested items are
    // parsed in their own right.
    body_open.map_or(cj + 1, |open| open)
}

/// Extracts call sites from a body slice of code tokens.
fn extract_calls(file: &SourceFile, body: &[(usize, Token)]) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for k in 0..body.len() {
        let t = &body[k].1;
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = file.tok_text(t);
        let next = body.get(k + 1).map(|(_, t)| file.tok_text(t));
        if next != Some("(") || NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `name!(…)` is a macro, not a call — but `!` precedes `(` in
        // the token stream, so `next` already filtered it out. Check
        // the *previous* token for `.` (method) or `::` (path).
        let prev = k.checked_sub(1).map(|p| file.tok_text(&body[p].1));
        let prev2 = k.checked_sub(2).map(|p| file.tok_text(&body[p].1));
        if prev == Some(".") {
            calls.push(CallSite {
                name: name.to_string(),
                qualifier: None,
                method: true,
                line: t.line,
            });
        } else if prev == Some(":") && prev2 == Some(":") {
            // Walk back over `Qual::name`: the qualifier is the ident
            // before the `::` (turbofish and longer paths keep just
            // their final qualifying segment).
            let qualifier = k
                .checked_sub(3)
                .map(|p| &body[p].1)
                .filter(|q| q.kind == TokenKind::Ident)
                .map(|q| file.tok_text(q).to_string());
            calls.push(CallSite {
                name: name.to_string(),
                qualifier,
                method: false,
                line: t.line,
            });
        } else {
            calls.push(CallSite {
                name: name.to_string(),
                qualifier: None,
                method: false,
                line: t.line,
            });
        }
    }
    calls
}

/// Normalized texts of the attribute groups directly above the item
/// whose keyword sits at code index `item_ci`, skipping visibility and
/// other modifiers (`pub`, `pub(crate)`, `const`, `unsafe`, …).
fn attrs_before(file: &SourceFile, code: &[(usize, Token)], item_ci: usize) -> Vec<String> {
    const MODIFIERS: &[&str] = &[
        "pub", "crate", "const", "unsafe", "async", "extern", "default", "in", "super", "self",
    ];
    let mut attrs = Vec::new();
    let mut cj = item_ci;
    loop {
        // Step back over modifiers (and the parens of `pub(crate)`).
        while cj > 0 {
            let prev = file.tok_text(&code[cj - 1].1);
            if MODIFIERS.contains(&prev) || prev == ")" || prev == "(" {
                cj -= 1;
            } else {
                break;
            }
        }
        // An attribute group ends with `]` directly above.
        if cj == 0 || file.tok_text(&code[cj - 1].1) != "]" {
            break;
        }
        let close = cj - 1;
        let mut depth = 0usize;
        let mut open = close;
        while open > 0 {
            match file.tok_text(&code[open].1) {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            open -= 1;
        }
        if open == 0 || file.tok_text(&code[open - 1].1) != "#" {
            break;
        }
        let norm: String = code[open + 1..close]
            .iter()
            .map(|(_, t)| file.tok_text(t))
            .collect();
        attrs.push(norm);
        cj = open - 1;
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> ParsedFile {
        parse(
            &SourceFile::new("crates/core/src/demo.rs", src.to_string()),
            0,
        )
    }

    #[test]
    fn free_fn_and_method_qualified_names() {
        let p = parsed(
            "fn top() {}\nmod inner {\n    fn nested() {}\n}\nimpl QosSwitch {\n    fn decide_output(&self) {}\n}\nimpl Model for QosSwitch {\n    fn step(&mut self) {}\n}\n",
        );
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "top",
                "inner::nested",
                "QosSwitch::decide_output",
                "QosSwitch::step"
            ]
        );
        assert!(p.fns[2].is_method);
        assert!(!p.fns[0].is_method);
    }

    #[test]
    fn generic_impl_header_resolves_self_type() {
        let p = parsed("impl<'a, T: Clone> Holder<'a, T> {\n    fn get(&self) {}\n}\n");
        assert_eq!(p.fns[0].qual, "Holder::get");
    }

    #[test]
    fn calls_are_extracted_with_shape() {
        let p = parsed(
            "fn f(&self) {\n    self.gather(1);\n    Request::new(2);\n    helper();\n    mac!(ignored);\n    if (x) {}\n}\n",
        );
        let c = &p.fns[0].calls;
        assert_eq!(c.len(), 3, "{c:?}");
        assert!(c[0].method && c[0].name == "gather");
        assert_eq!(c[1].qualifier.as_deref(), Some("Request"));
        assert!(!c[2].method && c[2].qualifier.is_none() && c[2].name == "helper");
    }

    #[test]
    fn nested_fn_is_its_own_item() {
        let p = parsed("fn outer() {\n    fn inner() { leaf(); }\n    inner();\n}\n");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner"));
    }

    #[test]
    fn test_gated_fns_are_marked() {
        let p = parsed("#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn hot() {}\n");
        assert!(p.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(!p.fns.iter().find(|f| f.name == "hot").unwrap().is_test);
    }

    #[test]
    fn types_carry_their_attributes() {
        let p =
            parsed("#[derive(Debug)]\n#[must_use]\npub struct StepDecision;\nenum Plain { A }\n");
        assert_eq!(p.types[0].name, "StepDecision");
        assert!(p.types[0].attrs.iter().any(|a| a == "must_use"));
        assert!(p.types[1].attrs.is_empty());
    }

    #[test]
    fn statics_and_gated_defs_are_recorded() {
        let p = parsed(
            "static GLOBAL: u64 = 0;\nstatic mut DANGER: u64 = 0;\n#[cfg(feature = \"faults\")]\nfn fault_set_link() {}\n",
        );
        let names: Vec<&str> = p.defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names[..2], ["GLOBAL", "DANGER"]);
        let def = p.defs.iter().find(|d| d.name == "fault_set_link").unwrap();
        assert_eq!(def.features, vec!["faults"]);
    }

    #[test]
    fn bodyless_trait_method_has_empty_body() {
        let p = parsed("trait Model {\n    fn step(&mut self, now: Cycle);\n}\n");
        let f = p.fns.iter().find(|f| f.name == "step").unwrap();
        assert!(f.body.is_empty());
        assert!(f.calls.is_empty());
    }

    #[test]
    fn where_clause_and_return_arrow_do_not_confuse_body_search() {
        let p = parsed("fn f<T>(x: T) -> Vec<u8>\nwhere\n    T: Into<u8>,\n{\n    convert(x)\n}\n");
        let f = &p.fns[0];
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].name, "convert");
    }
}
