//! Canonical enumeration of panic-capable sites in a function body.
//!
//! This is the single source of truth shared by the three reachability
//! lints: `panic-freedom-reachability` counts sites into its
//! `p{}i{}a{}` anchor, `mask-width-safety` reports the shift sites, and
//! `unchecked-hot-arith` the arithmetic and indexing sites of the hot
//! file.
//!
//! Profiled kinds (counted into the anchor): explicit panics, `expr[…]`
//! indexing, and overflow-capable arithmetic operators including
//! adjacent `<<`. Right shifts are additionally enumerated for
//! `mask-width-safety` but are *not* profiled — `>>` cannot overflow a
//! value, only the shift amount can be out of range, and the profile
//! never counted it.
//!
//! # Guarantees the enumerator takes from rustc and declared types
//!
//! A token is a site unless rustc, or a type written in the source,
//! already guarantees it cannot panic. Nothing is inferred from
//! assertions or data flow:
//!
//! * **(a)** a shift by an integer literal is not a site: rustc's
//!   deny-by-default `arithmetic_overflow` lint rejects a literal
//!   amount at or above the operand width at compile time;
//! * **(b)** `+ - * / %` with an operand that is a float literal, an
//!   `as f32`/`as f64` cast, or a name *declared* `f32`/`f64` is not a
//!   site: float arithmetic cannot panic;
//! * **(c)** `/` or `%` by a name declared `NonZero*` is not a site: the
//!   divisor cannot be zero.
//!
//! "Declared" means a struct field, a fn parameter, or an annotated
//! `let x: T` — the [`Decls`] table and the per-function local table
//! built here. A name with conflicting declarations (two structs typing
//! a field name differently, an un-annotated `let` rebinding a
//! parameter) is unknown and its operator stays a site. Match-arm
//! bindings are not tracked: a float-declared name shadowed by an
//! integer match binding of the same name would hide that one
//! operator, an approximation the workspace's naming does not hit.

use std::collections::BTreeMap;

use crate::lexer::{Token, TokenKind};
use crate::parse::FnItem;
use crate::source::SourceFile;

/// Identifier-position keywords that can legally precede `[` or an
/// arithmetic operator without making the site value-like.
const VALUE_BREAK_KEYWORDS: &[&str] = &[
    "in", "return", "else", "match", "if", "while", "loop", "break", "mut", "ref", "let", "move",
    "box", "dyn", "as", "unsafe", "impl", "where", "for", "const", "static", "use", "pub",
];

/// Whether the token text can end a value expression (making a
/// following `[` an index and a following `+` a binary op).
fn value_end(text: Option<&str>, kind: Option<TokenKind>) -> bool {
    match (text, kind) {
        (Some(t), Some(TokenKind::Ident)) => !VALUE_BREAK_KEYWORDS.contains(&t),
        (_, Some(TokenKind::Num)) => true,
        (Some(")" | "]"), Some(TokenKind::Punct)) => true,
        _ => false,
    }
}

/// What kind of panic-capable site a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap(`/`.expect(`/`panic!`/`unreachable!`/`assert*!`.
    Panic,
    /// `expr[…]` indexing (the `[` token).
    Index,
    /// An overflow/underflow/div-by-zero capable binary operator
    /// (`+ - * / %`, including the compound-assignment forms).
    Arith(char),
    /// An adjacent `<<` left shift (the first `<` token).
    Shl,
    /// An adjacent `>>` right shift (the first `>` token). Enumerated
    /// for `mask-width-safety` only; never profiled.
    Shr,
}

/// One panic-capable site in a function body.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// 0-based line of the site.
    pub line: usize,
    /// Site classification.
    pub kind: SiteKind,
}

/// What a declaration says about a name's type, as far as the site
/// rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclTy {
    /// `f32` or `f64`.
    Float,
    /// `NonZeroU64`, `NonZeroUsize`, … (path-qualified or not).
    NonZero,
    /// Anything else, or conflicting declarations.
    Other,
}

impl DeclTy {
    /// Classifies a declared type's tokens. Only a plain, optionally
    /// path-qualified type name counts (`f64`, `std::num::NonZeroU64`);
    /// references, generics, tuples and arrays are `Other`.
    fn of(toks: &[&str]) -> DeclTy {
        let plain = toks.last().is_some_and(|t| t.chars().all(ident_char))
            && toks.iter().all(|t| *t == ":" || t.chars().all(ident_char));
        match toks.last() {
            Some(&("f32" | "f64")) if plain => DeclTy::Float,
            Some(t) if plain && t.starts_with("NonZero") => DeclTy::NonZero,
            _ => DeclTy::Other,
        }
    }
}

fn ident_char(c: char) -> bool {
    c == '_' || c.is_ascii_alphanumeric()
}

/// Records `ty` for `name`, demoting to `Other` on a conflict.
fn declare(map: &mut BTreeMap<String, DeclTy>, name: &str, ty: DeclTy) {
    map.entry(name.to_string())
        .and_modify(|old| {
            if *old != ty {
                *old = DeclTy::Other;
            }
        })
        .or_insert(ty);
}

/// The workspace's declared struct field types.
#[derive(Debug, Default)]
pub struct Decls {
    /// Struct name → field name → declared type.
    structs: BTreeMap<String, BTreeMap<String, DeclTy>>,
}

impl Decls {
    /// Harvests the named-field structs of every non-test region.
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Decls {
        let mut decls = Decls::default();
        for file in files {
            let code: Vec<&str> = file.code_tokens().map(|(_, t)| file.tok_text(t)).collect();
            let lines: Vec<usize> = file.code_tokens().map(|(_, t)| t.line).collect();
            for k in 0..code.len() {
                if code[k] != "struct"
                    || file.is_test_line(lines[k])
                    || !code.get(k + 1).is_some_and(|t| t.chars().all(ident_char))
                {
                    continue;
                }
                let Some(open) = struct_body(&code, k + 2) else {
                    continue;
                };
                let fields = decls.structs.entry(code[k + 1].to_string()).or_default();
                for seg in split_top(&code[open + 1..], "}") {
                    let seg = strip_attrs_and_vis(seg);
                    if let [name, ":", ty @ ..] = seg {
                        if ty.first() != Some(&":") {
                            declare(fields, name, DeclTy::of(ty));
                        }
                    }
                }
            }
        }
        decls
    }

    /// The type of `field` read through `self` inside `impl ty`, falling
    /// back to [`Decls::any_field`] when `ty` declares no such field.
    fn self_field(&self, ty: &str, field: &str) -> Option<DeclTy> {
        match self.structs.get(ty).and_then(|f| f.get(field)) {
            Some(&t) => Some(t),
            None => self.any_field(field),
        }
    }

    /// The type of a field named `field` of an unknown struct: known
    /// only when every struct declaring it agrees.
    fn any_field(&self, field: &str) -> Option<DeclTy> {
        let mut seen = self.structs.values().filter_map(|f| f.get(field));
        let first = *seen.next()?;
        Some(if seen.all(|&t| t == first) {
            first
        } else {
            DeclTy::Other
        })
    }
}

/// Index of the `{` opening a struct's named-field list, scanning from
/// just past the struct name over generics and `where` clauses; `None`
/// for tuple and unit structs.
fn struct_body(code: &[&str], from: usize) -> Option<usize> {
    let mut angle = 0i32;
    for (j, &t) in code.iter().enumerate().skip(from) {
        match t {
            "<" => angle += 1,
            ">" if code.get(j.wrapping_sub(1)) != Some(&"-") => angle -= 1,
            "{" if angle <= 0 => return Some(j),
            "(" | ";" if angle <= 0 => return None,
            _ => {}
        }
    }
    None
}

/// Splits `toks` on top-level commas, stopping at the first top-level
/// `close` (or the end). Depth counts `()`, `[]`, `{}` and `<>` (an
/// arrow's `>` closes nothing).
fn split_top<'t>(toks: &'t [&'t str], close: &str) -> Vec<&'t [&'t str]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (j, &t) in toks.iter().enumerate() {
        if depth == 0 && (t == "," || t == close) {
            out.push(&toks[start..j]);
            start = j + 1;
            if t == close {
                return out;
            }
            continue;
        }
        match t {
            "(" | "[" | "{" | "<" => depth += 1,
            ">" if j > 0 && toks[j - 1] == "-" => {}
            ")" | "]" | "}" | ">" => depth -= 1,
            _ => {}
        }
    }
    out.push(&toks[start..]);
    out
}

/// Drops leading `#[…]` attributes and `pub`/`pub(…)` from a field.
fn strip_attrs_and_vis<'t>(mut seg: &'t [&'t str]) -> &'t [&'t str] {
    loop {
        match seg {
            ["#", "[", ..] => {
                let close = seg.iter().position(|t| *t == "]").unwrap_or(seg.len() - 1);
                seg = &seg[close + 1..];
            }
            ["pub", "(", ..] => {
                let close = seg.iter().position(|t| *t == ")").unwrap_or(seg.len() - 1);
                seg = &seg[close + 1..];
            }
            ["pub", rest @ ..] => seg = rest,
            _ => return seg,
        }
    }
}

/// One function's view for operand classification: its code tokens,
/// its local declarations, and its `Self` type.
struct FnScope<'a> {
    body: Vec<(&'a str, TokenKind)>,
    locals: BTreeMap<String, DeclTy>,
    self_ty: Option<&'a str>,
    decls: &'a Decls,
}

impl<'a> FnScope<'a> {
    fn new(
        file: &'a SourceFile,
        f: &'a FnItem,
        body: &[(usize, &Token)],
        decls: &'a Decls,
    ) -> Self {
        let body: Vec<(&str, TokenKind)> = body
            .iter()
            .map(|(_, t)| (file.tok_text(t), t.kind))
            .collect();
        let mut locals = BTreeMap::new();
        // Parameters: `[mut] name: Ty`.
        let params: Vec<&str> = file.tokens[f.params.clone()]
            .iter()
            .filter(|t| t.kind.is_code())
            .map(|t| file.tok_text(t))
            .collect();
        for seg in split_top(&params, ")") {
            let seg = seg.strip_prefix(&["mut"]).unwrap_or(seg);
            if let [name, ":", ty @ ..] = seg {
                if ty.first() != Some(&":") {
                    declare(&mut locals, name, DeclTy::of(ty));
                }
            }
        }
        // Bindings in the body: `let [mut] name: Ty` declares; every
        // other `let`/`for`/closure binding makes its names unknown.
        let texts: Vec<&str> = body.iter().map(|(t, _)| *t).collect();
        let mut k = 0;
        while k < texts.len() {
            match texts[k] {
                "let" => {
                    let pat_end = texts[k + 1..]
                        .iter()
                        .position(|t| matches!(*t, "=" | ";" | "else"))
                        .map_or(texts.len(), |p| k + 1 + p);
                    let pat = &texts[k + 1..pat_end];
                    let pat = pat.strip_prefix(&["mut"]).unwrap_or(pat);
                    match pat {
                        [name, ":", ty @ ..] if ty.first() != Some(&":") => {
                            declare(&mut locals, name, DeclTy::of(ty));
                        }
                        _ => unknown_names(&mut locals, &body[k + 1..pat_end]),
                    }
                    k = pat_end;
                }
                "for" => {
                    let end = texts[k..]
                        .iter()
                        .position(|t| *t == "in")
                        .map_or(k + 1, |p| k + p);
                    unknown_names(&mut locals, &body[k + 1..end]);
                    k = end.max(k + 1);
                }
                "|" if k == 0 || matches!(texts[k - 1], "(" | "," | "=" | "move" | "{" | ";") => {
                    let end = texts[k + 1..]
                        .iter()
                        .position(|t| *t == "|")
                        .map_or(k, |p| k + 1 + p);
                    unknown_names(&mut locals, &body[k + 1..end.max(k + 1)]);
                    k = end + 1;
                }
                _ => k += 1,
            }
        }
        let self_ty = if f.is_method {
            f.qual.rsplit("::").nth(1)
        } else {
            None
        };
        FnScope {
            body,
            locals,
            self_ty,
            decls,
        }
    }

    fn text(&self, k: usize) -> Option<&'a str> {
        self.body.get(k).map(|(t, _)| *t)
    }

    fn is_ident(&self, k: usize) -> bool {
        self.body
            .get(k)
            .is_some_and(|(_, kind)| *kind == TokenKind::Ident)
    }

    /// The declared type of a place chain `a.b.c` (idents only).
    fn resolve(&self, chain: &[&str]) -> Option<DeclTy> {
        match chain {
            ["self"] => None,
            [name] => self.locals.get(*name).copied(),
            ["self", field] => match self.self_ty {
                Some(ty) => self.decls.self_field(ty, field),
                None => self.decls.any_field(field),
            },
            [.., field] => self.decls.any_field(field),
            [] => None,
        }
    }

    /// Classifies the operand ending at body index `j` (the left side
    /// of a binary operator).
    fn left(&self, j: usize) -> Option<DeclTy> {
        let t = self.text(j)?;
        if j > 0 && self.text(j - 1) == Some("as") {
            return Some(cast_ty(t));
        }
        match self.body[j].1 {
            TokenKind::Num => Some(lit_ty(t)),
            TokenKind::Ident => {
                let mut start = j;
                while start >= 2 && self.text(start - 1) == Some(".") && self.is_ident(start - 2) {
                    start -= 2;
                }
                if start > 0 && matches!(self.text(start - 1), Some("." | ":")) {
                    return None;
                }
                let chain: Vec<&str> = (start..=j)
                    .step_by(2)
                    .filter_map(|i| self.text(i))
                    .collect();
                self.resolve(&chain)
            }
            _ => None,
        }
    }

    /// Classifies the operand starting at body index `j` (the right
    /// side of a binary operator).
    fn right(&self, j: usize) -> Option<DeclTy> {
        let t = self.text(j)?;
        let (end, ty) = match self.body[j].1 {
            TokenKind::Num => (j, Some(lit_ty(t))),
            TokenKind::Ident => {
                let mut end = j;
                while self.text(end + 1) == Some(".") && self.is_ident(end + 2) {
                    end += 2;
                }
                let chain: Vec<&str> = (j..=end).step_by(2).filter_map(|i| self.text(i)).collect();
                (end, self.resolve(&chain))
            }
            _ => return None,
        };
        match self.text(end + 1) {
            Some("as") => self.text(end + 2).map(cast_ty),
            Some("(" | "[" | "." | "?" | ":" | "!") => None,
            _ => ty,
        }
    }

    /// Rule (b)/(c): whether the arithmetic operator at `k` (operand
    /// starting at `rhs`) provably cannot panic by a declared type.
    fn arith_exempt(&self, op: char, k: usize, rhs: usize) -> bool {
        let (l, r) = (self.left(k - 1), self.right(rhs));
        l == Some(DeclTy::Float)
            || r == Some(DeclTy::Float)
            || (matches!(op, '/' | '%') && r == Some(DeclTy::NonZero))
    }

    /// Rule (a): whether the shift amount starting at `j` is a bare
    /// integer literal (nothing of higher precedence follows it).
    fn literal_amount(&self, j: usize) -> bool {
        self.body
            .get(j)
            .is_some_and(|(t, kind)| *kind == TokenKind::Num && lit_ty(t) == DeclTy::Other)
            && !matches!(
                self.text(j + 1),
                Some("as" | "." | "(" | "[" | "?" | "+" | "-" | "*" | "/" | "%")
            )
    }
}

/// Marks every identifier in a binding pattern as unknown.
fn unknown_names(locals: &mut BTreeMap<String, DeclTy>, pat: &[(&str, TokenKind)]) {
    for (name, kind) in pat {
        if *kind == TokenKind::Ident {
            declare(locals, name, DeclTy::Other);
        }
    }
}

/// The type a numeric literal has: `Float` for `1.5`, `2e3`, `1f64`;
/// `Other` for integers (`0xE0`, `1usize`).
fn lit_ty(t: &str) -> DeclTy {
    const INT_SUFFIXES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    let radix = ["0x", "0o", "0b"].iter().any(|p| t.starts_with(p));
    let int_suffix = INT_SUFFIXES.iter().any(|s| t.ends_with(s));
    if !radix
        && !int_suffix
        && (t.contains(['.', 'e', 'E']) || t.ends_with("f32") || t.ends_with("f64"))
    {
        DeclTy::Float
    } else {
        DeclTy::Other
    }
}

/// The type an `as` cast produces, as far as the rules care.
fn cast_ty(target: &str) -> DeclTy {
    if matches!(target, "f32" | "f64") {
        DeclTy::Float
    } else {
        DeclTy::Other
    }
}

/// Enumerates every panic-capable site in `f`'s body, in token order.
#[must_use]
pub fn enumerate(file: &SourceFile, f: &FnItem, decls: &Decls) -> Vec<Site> {
    let body: Vec<(usize, &Token)> = file.tokens[f.body.clone()]
        .iter()
        .enumerate()
        .map(|(k, t)| (f.body.start + k, t))
        .filter(|(_, t)| t.kind.is_code())
        .collect();
    let scope = FnScope::new(file, f, &body, decls);
    let text_of = |k: usize| body.get(k).map(|(_, t)| file.tok_text(t));
    let kind_of = |k: usize| body.get(k).map(|(_, t)| t.kind);
    let mut out = Vec::new();
    let mut push = |tok: &Token, kind| {
        out.push(Site {
            line: tok.line,
            kind,
        })
    };
    for (k, &(_, tok)) in body.iter().enumerate() {
        let s = file.tok_text(tok);
        match tok.kind {
            TokenKind::Ident => {
                let method = matches!(s, "unwrap" | "expect")
                    && k > 0
                    && text_of(k - 1) == Some(".")
                    && text_of(k + 1) == Some("(");
                let bang = matches!(
                    s,
                    "panic" | "unreachable" | "assert" | "assert_eq" | "assert_ne"
                ) && text_of(k + 1) == Some("!");
                if method || bang {
                    push(tok, SiteKind::Panic);
                }
            }
            TokenKind::Punct => {
                let prev_ok = k > 0 && value_end(text_of(k - 1), kind_of(k - 1));
                match s {
                    "[" if prev_ok => push(tok, SiteKind::Index),
                    "+" | "-" | "*" | "/" | "%" if prev_ok => {
                        // `->` is an arrow, not subtraction; a shifted
                        // `<<` is handled below.
                        if s == "-" && text_of(k + 1) == Some(">") {
                            continue;
                        }
                        let next_ok = matches!(
                            (text_of(k + 1), kind_of(k + 1)),
                            (_, Some(TokenKind::Ident | TokenKind::Num))
                                | (Some("(" | "&" | "-" | "*" | "!" | "="), _)
                        );
                        let op = s.as_bytes()[0] as char;
                        let rhs = if text_of(k + 1) == Some("=") {
                            k + 2
                        } else {
                            k + 1
                        };
                        if next_ok && !scope.arith_exempt(op, k, rhs) {
                            push(tok, SiteKind::Arith(op));
                        }
                    }
                    "<" if prev_ok => {
                        // Adjacent `<<` is a shift; a spaced `< <` is not.
                        let shifted = body
                            .get(k + 1)
                            .is_some_and(|(_, n)| file.tok_text(n) == "<" && n.start == tok.end);
                        if shifted && !scope.literal_amount(amount_start(&text_of, k)) {
                            push(tok, SiteKind::Shl);
                        }
                    }
                    ">" if prev_ok => {
                        // Adjacent `>>` with a value-position operand on
                        // the right is a right shift — unless the pair
                        // closes a nested generic argument list
                        // (`Vec<Vec<u64>>`, `collect::<Vec<_>>()`).
                        // Those are told apart by scanning back for the
                        // `<` the pair would match: a matched opener
                        // preceded by a type path means generics.
                        let shifted = body
                            .get(k + 1)
                            .is_some_and(|(_, n)| file.tok_text(n) == ">" && n.start == tok.end);
                        let operand = matches!(
                            (text_of(k + 2), kind_of(k + 2)),
                            (_, Some(TokenKind::Ident | TokenKind::Num))
                                | (Some("(" | "&" | "-" | "*" | "!" | "="), _)
                        ) && text_of(k + 2) != Some("as");
                        if shifted
                            && operand
                            && text_of(k - 1) != Some(">")
                            && !closes_generics(file, &body, k)
                            && !scope.literal_amount(amount_start(&text_of, k))
                        {
                            push(tok, SiteKind::Shr);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    out
}

/// Body index of a shift's amount operand: past the operator pair and
/// the `=` of a compound `<<=`/`>>=`.
fn amount_start<'t>(text_of: &impl Fn(usize) -> Option<&'t str>, k: usize) -> usize {
    if text_of(k + 2) == Some("=") {
        k + 3
    } else {
        k + 2
    }
}

/// Whether the adjacent `>>` pair whose first `>` sits at body index `k`
/// closes a nested generic argument list rather than shifting a value:
/// scan backwards for the `<` the pair would match (the pair closes two
/// angle levels), balancing parens/brackets, and check what precedes it.
/// A matched opener after an identifier or `::` is a type path; hitting
/// expression punctuation first means the `>>` operates on a value.
fn closes_generics(file: &SourceFile, body: &[(usize, &Token)], k: usize) -> bool {
    let mut angle = 2i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    for j in (0..k).rev().take(64) {
        let t = body[j].1;
        if t.kind != TokenKind::Punct {
            continue;
        }
        let s = file.tok_text(t);
        match s {
            ")" => paren += 1,
            "]" => bracket += 1,
            "(" if paren > 0 => paren -= 1,
            "[" if bracket > 0 => bracket -= 1,
            _ if paren > 0 || bracket > 0 => {}
            // `->` (fn-type arrows inside generics) closes nothing.
            ">" if !(j > 0 && file.tok_text(body[j - 1].1) == "-") => angle += 1,
            "<" => {
                angle -= 1;
                if angle == 0 {
                    return j > 0
                        && (body[j - 1].1.kind == TokenKind::Ident
                            || file.tok_text(body[j - 1].1) == ":");
                }
            }
            // Arrow halves are type syntax; a bare minus is a value.
            "-" if body.get(j + 1).is_none_or(|(_, n)| file.tok_text(n) != ">") => return false,
            "(" | "[" | "{" | "}" | ";" | "=" | "+" | "*" | "/" | "%" | "!" | "?" | "#" | "." => {
                return false
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    /// Sites of `body` inside `fn f(x: u64, v: Vec<u64>, w: f64)`, with
    /// `decls` as extra workspace source (struct declarations).
    fn sites_with(decls: &str, body: &str) -> Vec<SiteKind> {
        let src = format!(
            "{decls}\nimpl Demo {{\nfn f(&self, x: u64, v: Vec<u64>, w: f64) -> Vec<u64> {{\n{body}\n}}\n}}\n"
        );
        let file = SourceFile::new("crates/core/src/demo.rs", src);
        let parsed = parse(&file, 0);
        let f = parsed
            .fns
            .iter()
            .find(|f| f.name == "f")
            .expect("fixture fn");
        let decls = Decls::build(std::slice::from_ref(&file));
        enumerate(&file, f, &decls).iter().map(|s| s.kind).collect()
    }

    fn sites_of(body: &str) -> Vec<SiteKind> {
        sites_with("", body)
    }

    #[test]
    fn panics_indexing_and_arith_are_counted() {
        assert_eq!(
            sites_of("let a = v[0] + x; y.unwrap(); assert!(x > 0);"),
            vec![
                SiteKind::Index,
                SiteKind::Arith('+'),
                SiteKind::Panic,
                SiteKind::Panic
            ]
        );
    }

    #[test]
    fn shifts_are_classified_by_direction() {
        assert_eq!(
            sites_of("let a = x << s; let b = x >> t;"),
            vec![SiteKind::Shl, SiteKind::Shr]
        );
    }

    #[test]
    fn generic_closers_are_not_right_shifts() {
        assert_eq!(sites_of("let a: Vec<Vec<u64>> = make();"), vec![]);
        assert_eq!(sites_of("let a = frob::<Vec<u64>>();"), vec![]);
        assert_eq!(sites_of("let a: Vec<Vec<(u32, u32)>> = make();"), vec![]);
        assert_eq!(
            sites_of("let f: Vec<Box<dyn Fn() -> u64>> = make();"),
            vec![]
        );
    }

    #[test]
    fn parenthesized_shift_operand_still_fires() {
        assert_eq!(sites_of("let y = (x & m) >> s;"), vec![SiteKind::Shr]);
    }

    #[test]
    fn arrow_and_spaced_angles_do_not_fire() {
        assert_eq!(sites_of("let f = |q: u64| -> u64 { q };"), vec![]);
        assert_eq!(sites_of("let c = x < 3 && 4 < x;"), vec![]);
    }

    #[test]
    fn compound_assignment_counts_once() {
        assert_eq!(sites_of("x += 1;"), vec![SiteKind::Arith('+')]);
        assert_eq!(sites_of("x <<= s;"), vec![SiteKind::Shl]);
    }

    #[test]
    fn rule_a_literal_shift_amounts_are_not_sites() {
        assert_eq!(
            sites_of("let a = (x << 17) ^ (x >> 0x3F) ^ (1u64 << 63);"),
            vec![]
        );
        assert_eq!(sites_of("x <<= 1; x >>= 2;"), vec![]);
        // A higher-precedence operator makes the amount an expression.
        assert_eq!(
            sites_of("let a = x << 2 + s;"),
            vec![SiteKind::Shl, SiteKind::Arith('+')]
        );
        assert_eq!(sites_of("let a = x >> 3 as u32;"), vec![SiteKind::Shr]);
        assert_eq!(sites_of("let a = x << n.get();"), vec![SiteKind::Shl]);
    }

    #[test]
    fn rule_b_float_operands_are_not_sites() {
        // Float literal, cast, declared parameter, annotated let.
        assert_eq!(sites_of("let a = x as f64 * 2.0 + w / 1e3;"), vec![]);
        assert_eq!(sites_of("let y: f64 = 0.5; let z = y - q;"), vec![]);
        assert_eq!(sites_of("let a = q * 2.5f32;"), vec![]);
        // Integers stay sites, suffixed or hex literals included.
        assert_eq!(
            sites_of("let a = x * 2usize + 0xE0;"),
            vec![SiteKind::Arith('*'), SiteKind::Arith('+')]
        );
        // A float name rebound without annotation is no longer known.
        assert_eq!(
            sites_of("let w = x; let a = w - x;"),
            vec![SiteKind::Arith('-')]
        );
        assert_eq!(
            sites_of("for w in v { let _ = w + 1; }"),
            vec![SiteKind::Arith('+')]
        );
        // A `for` with no `in` (a higher-ranked bound) binds nothing.
        assert_eq!(
            sites_of("fn g<F: for<'a> Fn(&'a u64)>(_f: F) {} let a = w * q;"),
            vec![]
        );
        // A method call or index on a float name is not the name.
        assert_eq!(sites_of("let a = q + w.len();"), vec![SiteKind::Arith('+')]);
    }

    #[test]
    fn rule_b_reads_declared_field_types() {
        let decls = "pub struct Demo { rate: f64, count: u64 }";
        assert_eq!(sites_with(decls, "let a = self.rate * q + 3.0;"), vec![]);
        assert_eq!(
            sites_with(decls, "let a = self.count * 3;"),
            vec![SiteKind::Arith('*')]
        );
        // A field name two structs type differently is unknown.
        let clash = "pub struct Demo { rate: f64 }\npub struct Other { rate: u64 }";
        assert_eq!(
            sites_with(clash, "let a = other.rate * q;"),
            vec![SiteKind::Arith('*')]
        );
        // Through `self`, the impl's own struct decides.
        assert_eq!(sites_with(clash, "let a = self.rate * q;"), vec![]);
    }

    #[test]
    fn rule_c_nonzero_divisors_are_not_sites() {
        let decls = "pub struct Demo { period: std::num::NonZeroU64, plain: u64 }";
        assert_eq!(
            sites_with(decls, "let a = (x / self.period) ^ (x % self.period);"),
            vec![]
        );
        assert_eq!(
            sites_with(decls, "let a = x / self.plain;"),
            vec![SiteKind::Arith('/')]
        );
        // Only division and remainder: NonZero does not bound a product.
        assert_eq!(
            sites_with(decls, "let a = x * self.period;"),
            vec![SiteKind::Arith('*')]
        );
        assert_eq!(
            sites_with(decls, "let n: NonZeroUsize = k; let a = x % n;"),
            vec![]
        );
    }

    #[test]
    fn declared_types_classify_plain_names_only() {
        assert_eq!(DeclTy::of(&["f64"]), DeclTy::Float);
        assert_eq!(
            DeclTy::of(&["std", ":", ":", "num", ":", ":", "NonZeroU64"]),
            DeclTy::NonZero
        );
        assert_eq!(DeclTy::of(&["&", "f64"]), DeclTy::Other);
        assert_eq!(DeclTy::of(&["Vec", "<", "f64", ">"]), DeclTy::Other);
        assert_eq!(lit_ty("1.5e-3"), DeclTy::Float);
        assert_eq!(lit_ty("1usize"), DeclTy::Other);
        assert_eq!(lit_ty("0xE0"), DeclTy::Other);
    }
}
