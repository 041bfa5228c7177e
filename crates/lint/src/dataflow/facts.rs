//! Workspace-level facts feeding the abstract interpreter: struct field
//! types, constructor-established field invariants, literal `const`/
//! `static` values, array shapes, and a method map used for bounded
//! accessor inlining.
//!
//! Everything here is harvested from the token stream with the same
//! deliberately-approximate discipline as the item parser: when a shape
//! is ambiguous the fact is *dropped*, never guessed, so the
//! interpreter can trust whatever survives. Constructor invariants are
//! additionally guarded by a whole-workspace construction scan — a
//! struct-literal construction of `T` outside `T::new` (in non-test
//! code) invalidates every invariant `T::new`'s asserts established.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::parse::ParsedFile;
use crate::source::SourceFile;

/// The shape of a type as far as the interpreter cares: integer width,
/// signedness, float-ness, array/vec structure, or a named struct that
/// can be looked up in [`WorkspaceFacts::structs`].
#[derive(Debug, Clone, Default)]
pub struct TyInfo {
    /// Final path segment of a named (non-primitive) type.
    pub name: Option<String>,
    /// Bit width for primitive integers (`u8` → 8, `usize` → 64).
    /// `None` for non-integers and for `u128`/`i128`, which exceed the
    /// value domain and stay unmodeled.
    pub width: Option<u32>,
    /// Whether the primitive integer is signed.
    pub signed: bool,
    /// Whether the type is `f32`/`f64` (arithmetic on floats cannot
    /// panic, so float sites discharge unconditionally).
    pub float: bool,
    /// Whether the type is a `Vec<_>` (length in `[0, isize::MAX]`).
    pub is_vec: bool,
    /// Element count for `[T; N]` arrays with a literal or resolvable
    /// const length.
    pub arr_len: Option<u128>,
    /// Element type for arrays, slices, and vecs.
    pub elem: Option<Box<TyInfo>>,
}

impl TyInfo {
    /// A primitive-integer `TyInfo` by name, if `name` is one.
    #[must_use]
    pub fn prim(name: &str) -> Option<TyInfo> {
        let (width, signed, float) = match name {
            "u8" => (Some(8), false, false),
            "u16" => (Some(16), false, false),
            "u32" => (Some(32), false, false),
            "u64" | "usize" => (Some(64), false, false),
            "i8" => (Some(8), true, false),
            "i16" => (Some(16), true, false),
            "i32" => (Some(32), true, false),
            "i64" | "isize" => (Some(64), true, false),
            "bool" => (Some(1), false, false),
            "f32" | "f64" => (None, false, true),
            // Wider than the value domain: keep the name, drop the width
            // so every operation on it degrades to unbounded.
            "u128" | "i128" => (None, name.starts_with('i'), false),
            _ => return None,
        };
        Some(TyInfo {
            name: Some(name.to_string()),
            width,
            signed,
            float,
            ..TyInfo::default()
        })
    }

    /// Largest representable value, when the width is known and the
    /// type unsigned (signed types keep their positive half).
    #[must_use]
    pub fn max_value(&self) -> Option<u128> {
        let w = self.width?;
        if self.float {
            return None;
        }
        let bits = if self.signed { w.saturating_sub(1) } else { w };
        Some(if bits >= 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        })
    }
}

/// One struct field: its type plus any constructor-proved value bounds.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Parsed field type.
    pub ty: TyInfo,
    /// Inclusive lower bound established by `T::new` asserts.
    pub lo: Option<u128>,
    /// Inclusive upper bound established by `T::new` asserts.
    pub hi: Option<u128>,
    /// Human-readable evidence for the bounds (empty when none).
    pub why: String,
}

/// A constructor-proved ordering between two fields of one struct.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Smaller field name.
    pub lhs: String,
    /// Larger field name.
    pub rhs: String,
    /// `lhs < rhs` when true, `lhs <= rhs` when false.
    pub strict: bool,
    /// Evidence string.
    pub why: String,
}

/// Everything known about one struct type.
#[derive(Debug, Clone, Default)]
pub struct StructFacts {
    /// Fields by name (tuple structs use `"0"`, `"1"`, …).
    pub fields: BTreeMap<String, FieldInfo>,
    /// Constructor-proved field orderings.
    pub relations: Vec<Relation>,
    /// Whether ctor invariants hold workspace-wide: false once any
    /// non-test struct-literal construction outside `T::new` is seen.
    pub invariants_valid: bool,
}

/// A literal `const`/immutable-`static` value.
#[derive(Debug, Clone)]
pub struct ConstVal {
    /// The literal value.
    pub value: u128,
    /// Where it was defined (`file:line`).
    pub why: String,
}

/// `(file index, fn index within that file's `ParsedFile::fns`)`.
pub type FnRef = (usize, usize);

/// The assembled workspace fact base.
#[derive(Debug, Default)]
pub struct WorkspaceFacts {
    /// Struct shapes and invariants by type name. Ambiguous names
    /// (defined more than once workspace-wide) are absent.
    pub structs: BTreeMap<String, StructFacts>,
    /// Bare-name literal consts and immutable statics. Ambiguous names
    /// are absent.
    pub consts: BTreeMap<String, ConstVal>,
    /// `const`/`static` arrays: name → (length, element type).
    pub arrays: BTreeMap<String, (Option<u128>, TyInfo)>,
    /// `(TypeName, method)` → definition, for accessor inlining.
    /// Ambiguous pairs (duplicate inherent/trait impls) are absent.
    pub methods: BTreeMap<(String, String), FnRef>,
}

/// Paper-premise summaries for identifier-like accessors whose bounds
/// are a stated modeling assumption rather than a local proof. The
/// radix bound is the paper's own premise (high-radix crossbar,
/// radix ≤ 64) and is restated in every evidence string that uses it.
#[must_use]
pub fn seed_summary(ty: &str, method: &str) -> Option<(u128, u128, &'static str)> {
    const PORT: &str = "port id < 64 by the paper's radix <= 64 premise (ids are \
                        constructed from geometry-bounded port loops)";
    match (ty, method) {
        ("InputId" | "OutputId", "index") => Some((0, 63, PORT)),
        _ => None,
    }
}

/// Parses a numeric literal token text: value plus the suffix type, if
/// any (`63`, `0x3F`, `1_000u64`, `0b1_0000usize`).
#[must_use]
pub fn parse_num(text: &str) -> Option<(u128, Option<TyInfo>)> {
    let t = text.replace('_', "");
    if t.contains('.') {
        return None;
    }
    let (body, suffix) = match t
        .char_indices()
        .find(|&(i, c)| c.is_ascii_alphabetic() && !(i == 1 && matches!(c, 'x' | 'o' | 'b')))
        .map(|(i, _)| i)
    {
        // `0x3F` hex digits are alphabetic: retry the split after the
        // radix prefix by scanning for a known suffix instead.
        Some(_) if t.starts_with("0x") || t.starts_with("0X") => {
            let digits_end = 2 + t[2..]
                .find(|c: char| !c.is_ascii_hexdigit())
                .unwrap_or(t.len() - 2);
            (&t[..digits_end], &t[digits_end..])
        }
        Some(i) => (&t[..i], &t[i..]),
        None => (t.as_str(), ""),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u128::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        u128::from_str_radix(bin, 2).ok()?
    } else if let Some(oct) = body.strip_prefix("0o").or_else(|| body.strip_prefix("0O")) {
        u128::from_str_radix(oct, 8).ok()?
    } else {
        body.parse::<u128>().ok()?
    };
    let ty = if suffix.is_empty() {
        None
    } else {
        // An unknown suffix poisons the literal rather than mistyping it.
        Some(TyInfo::prim(suffix)?)
    };
    Some((value, ty))
}

impl WorkspaceFacts {
    /// Harvests facts from every scanned file.
    #[must_use]
    pub fn build(files: &[SourceFile], parsed: &[ParsedFile]) -> WorkspaceFacts {
        let mut facts = WorkspaceFacts::default();
        let mut dup_structs = BTreeSet::new();
        let mut dup_consts = BTreeSet::new();
        let mut dup_methods = BTreeSet::new();

        // Pass 1: consts/statics first, so array lengths written as
        // named consts resolve during struct parsing.
        for file in files {
            harvest_consts(file, &mut facts, &mut dup_consts);
        }
        for name in &dup_consts {
            facts.consts.remove(name);
            facts.arrays.remove(name);
        }

        // Pass 2: struct shapes.
        for file in files {
            harvest_structs(file, &facts.consts.clone(), &mut facts, &mut dup_structs);
        }
        for name in &dup_structs {
            facts.structs.remove(name);
        }

        // Pass 3: method map from the item parser's qualified names.
        for (fi, p) in parsed.iter().enumerate() {
            for (k, f) in p.fns.iter().enumerate() {
                if f.is_test || !f.is_method {
                    continue;
                }
                let Some((ty, _)) = f.qual.rsplit_once("::") else {
                    continue;
                };
                let ty = ty.rsplit("::").next().unwrap_or(ty).to_string();
                let key = (ty, f.name.clone());
                if facts.methods.insert(key.clone(), (fi, k)).is_some() {
                    dup_methods.insert(key);
                }
            }
        }
        for key in &dup_methods {
            facts.methods.remove(key);
        }

        // Pass 4: constructor invariants, then the workspace-wide
        // construction scan that can revoke them.
        harvest_ctor_invariants(files, parsed, &mut facts);
        revoke_escaped_constructions(files, parsed, &mut facts);
        revoke_assigned_fields(files, parsed, &mut facts);
        derive_relation_bounds(&mut facts);
        facts
    }

    /// Field lookup honoring invariant validity: bounds are stripped
    /// when the type's invariants were revoked.
    #[must_use]
    pub fn field(&self, ty: &str, field: &str) -> Option<FieldInfo> {
        let s = self.structs.get(ty)?;
        let f = s.fields.get(field)?;
        if s.invariants_valid {
            Some(f.clone())
        } else {
            Some(FieldInfo {
                ty: f.ty.clone(),
                lo: None,
                hi: None,
                why: String::new(),
            })
        }
    }

    /// Relations for `ty`, empty when invariants were revoked.
    #[must_use]
    pub fn relations(&self, ty: &str) -> &[Relation] {
        match self.structs.get(ty) {
            Some(s) if s.invariants_valid => &s.relations,
            _ => &[],
        }
    }
}

/// Collects the code tokens of a file.
fn code(file: &SourceFile) -> Vec<&Token> {
    file.tokens.iter().filter(|t| t.kind.is_code()).collect()
}

/// Public type-parsing entry for the interpreter: parses a `: Ty`
/// annotation's token slice.
#[must_use]
pub fn ty_of_tokens(
    file: &SourceFile,
    toks: &[&Token],
    consts: &BTreeMap<String, ConstVal>,
) -> TyInfo {
    parse_ty(file, toks, consts)
}

/// Parses a type from a token slice (a field's `: …` tail or a const's
/// annotation). Unknown shapes come back as `TyInfo::default()`.
fn parse_ty(file: &SourceFile, toks: &[&Token], consts: &BTreeMap<String, ConstVal>) -> TyInfo {
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        let s = file.tok_text(t);
        if t.kind == TokenKind::Lifetime || matches!(s, "&" | "mut" | "dyn") {
            i += 1;
        } else {
            break;
        }
    }
    let Some(&first) = toks.get(i) else {
        return TyInfo::default();
    };
    let s = file.tok_text(first);
    if s == "[" {
        // `[T; N]` array or `[T]` slice: split on the `;` at depth 1.
        let mut depth = 0i32;
        let mut semi = None;
        let mut close = toks.len();
        for (j, t) in toks.iter().enumerate().skip(i) {
            match file.tok_text(t) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                ";" if depth == 1 && semi.is_none() => semi = Some(j),
                _ => {}
            }
        }
        let elem_end = semi.unwrap_or(close);
        let elem = parse_ty(file, &toks[i + 1..elem_end.min(toks.len())], consts);
        let arr_len = semi.and_then(|j| {
            let t = toks.get(j + 1)?;
            let s = file.tok_text(t);
            match t.kind {
                TokenKind::Num => parse_num(s).map(|(v, _)| v),
                TokenKind::Ident => consts.get(s).map(|c| c.value),
                _ => None,
            }
        });
        return TyInfo {
            arr_len,
            elem: Some(Box::new(elem)),
            ..TyInfo::default()
        };
    }
    if first.kind != TokenKind::Ident {
        return TyInfo::default();
    }
    // Walk the path to its final segment before any generic args.
    let mut seg = s;
    let mut j = i;
    while toks.get(j + 1).is_some_and(|t| file.tok_text(t) == ":")
        && toks.get(j + 2).is_some_and(|t| file.tok_text(t) == ":")
        && toks.get(j + 3).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        j += 3;
        seg = file.tok_text(toks[j]);
    }
    if let Some(prim) = TyInfo::prim(seg) {
        return prim;
    }
    if seg == "Vec" && toks.get(j + 1).is_some_and(|t| file.tok_text(t) == "<") {
        // Element type: everything inside the matching angle pair.
        let mut depth = 0i32;
        let mut close = toks.len();
        for (k, t) in toks.iter().enumerate().skip(j + 1) {
            match file.tok_text(t) {
                "<" => depth += 1,
                ">" if !(k > 0 && file.tok_text(toks[k - 1]) == "-") => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let elem = parse_ty(file, &toks[j + 2..close.min(toks.len())], consts);
        return TyInfo {
            name: Some("Vec".to_string()),
            is_vec: true,
            elem: Some(Box::new(elem)),
            ..TyInfo::default()
        };
    }
    TyInfo {
        name: Some(seg.to_string()),
        ..TyInfo::default()
    }
}

/// Scans one file for literal consts, immutable statics, and
/// const/static arrays.
fn harvest_consts(file: &SourceFile, facts: &mut WorkspaceFacts, dups: &mut BTreeSet<String>) {
    let toks = code(file);
    let text = |k: usize| toks.get(k).map(|t| file.tok_text(t));
    for k in 0..toks.len() {
        let kw = file.tok_text(toks[k]);
        if !(kw == "const" || kw == "static") || toks[k].kind != TokenKind::Ident {
            continue;
        }
        // `const fn`, `static mut` (mutable → no stable value), and the
        // `*const T` pointer sigil all disqualify.
        if matches!(text(k + 1), Some("fn" | "mut")) {
            continue;
        }
        let Some(name_tok) = toks.get(k + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if text(k + 2) != Some(":") {
            continue;
        }
        let name = file.tok_text(name_tok).to_string();
        if file.is_test_line(toks[k].line) {
            continue;
        }
        // Type annotation runs to the `=` at zero bracket depth.
        let mut depth = 0i32;
        let mut eq = None;
        for (j, t) in toks.iter().enumerate().skip(k + 3) {
            match file.tok_text(t) {
                "[" | "(" | "<" => depth += 1,
                "]" | ")" => depth -= 1,
                ">" if !(j > 0 && file.tok_text(toks[j - 1]) == "-") => depth -= 1,
                "=" if depth == 0 => {
                    eq = Some(j);
                    break;
                }
                ";" | "{" if depth == 0 => break,
                _ => {}
            }
        }
        let Some(eq) = eq else { continue };
        let ty = parse_ty(file, &toks[k + 3..eq], &facts.consts);
        let why = format!("{}:{}", file.rel, toks[k].line + 1);
        if ty.elem.is_some() {
            if facts
                .arrays
                .insert(name.clone(), (ty.arr_len, ty))
                .is_some()
            {
                dups.insert(name);
            }
            continue;
        }
        // A scalar const with a single literal initializer.
        let lit = toks
            .get(eq + 1)
            .filter(|t| t.kind == TokenKind::Num && text(eq + 2) == Some(";"));
        let Some((value, _)) = lit.and_then(|t| parse_num(file.tok_text(t))) else {
            continue;
        };
        if facts
            .consts
            .insert(name.clone(), ConstVal { value, why })
            .is_some()
        {
            dups.insert(name);
        }
    }
}

/// Scans one file for struct declarations and their field lists.
fn harvest_structs(
    file: &SourceFile,
    consts: &BTreeMap<String, ConstVal>,
    facts: &mut WorkspaceFacts,
    dups: &mut BTreeSet<String>,
) {
    let toks = code(file);
    let text = |k: usize| toks.get(k).map(|t| file.tok_text(t));
    for k in 0..toks.len() {
        if file.tok_text(toks[k]) != "struct" || toks[k].kind != TokenKind::Ident {
            continue;
        }
        let Some(name_tok) = toks.get(k + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if file.is_test_line(toks[k].line) {
            continue;
        }
        let name = file.tok_text(name_tok).to_string();
        // Skip generics to the body opener.
        let mut j = k + 2;
        if text(j) == Some("<") {
            let mut depth = 0i32;
            while j < toks.len() {
                match text(j) {
                    Some("<") => depth += 1,
                    Some(">") if text(j - 1) != Some("-") => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let mut sf = StructFacts {
            invariants_valid: true,
            ..StructFacts::default()
        };
        match text(j) {
            Some("{") => {
                let mut fi = j + 1;
                while fi < toks.len() && text(fi) != Some("}") {
                    // Skip attributes and visibility.
                    while text(fi) == Some("#") {
                        fi += 1; // `[`
                        let mut d = 0i32;
                        while fi < toks.len() {
                            match text(fi) {
                                Some("[") => d += 1,
                                Some("]") => {
                                    d -= 1;
                                    if d == 0 {
                                        fi += 1;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            fi += 1;
                        }
                    }
                    if text(fi) == Some("pub") {
                        fi += 1;
                        if text(fi) == Some("(") {
                            while fi < toks.len() && text(fi) != Some(")") {
                                fi += 1;
                            }
                            fi += 1;
                        }
                    }
                    let Some(ft) = toks.get(fi).filter(|t| t.kind == TokenKind::Ident) else {
                        break;
                    };
                    if text(fi + 1) != Some(":") {
                        break;
                    }
                    let fname = file.tok_text(ft).to_string();
                    // Field type runs to the `,` or `}` at zero depth.
                    let start = fi + 2;
                    let mut depth = 0i32;
                    let mut end = start;
                    while end < toks.len() {
                        match text(end) {
                            Some("<" | "(" | "[") => depth += 1,
                            Some(")" | "]") => depth -= 1,
                            Some(">") if text(end - 1) != Some("-") => depth -= 1,
                            Some(",") if depth == 0 => break,
                            Some("}") if depth <= 0 => break,
                            _ => {}
                        }
                        end += 1;
                    }
                    sf.fields.insert(
                        fname,
                        FieldInfo {
                            ty: parse_ty(file, &toks[start..end], consts),
                            lo: None,
                            hi: None,
                            why: String::new(),
                        },
                    );
                    fi = if text(end) == Some(",") { end + 1 } else { end };
                }
            }
            Some("(") => {
                // Tuple struct: fields `0`, `1`, … split on depth-0 `,`.
                let mut depth = 0i32;
                let mut start = j + 1;
                let mut idx = 0usize;
                let mut end = j;
                loop {
                    end += 1;
                    let Some(s) = text(end) else { break };
                    match s {
                        "(" | "[" | "<" => depth += 1,
                        "]" => depth -= 1,
                        ">" if text(end - 1) != Some("-") => depth -= 1,
                        "," if depth == 0 => {
                            push_tuple_field(file, &toks, start..end, idx, consts, &mut sf);
                            idx += 1;
                            start = end + 1;
                        }
                        ")" => {
                            if depth == 0 {
                                if end > start {
                                    push_tuple_field(file, &toks, start..end, idx, consts, &mut sf);
                                }
                                break;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        if facts.structs.insert(name.clone(), sf).is_some() {
            dups.insert(name);
        }
    }
}

fn push_tuple_field(
    file: &SourceFile,
    toks: &[&Token],
    range: std::ops::Range<usize>,
    idx: usize,
    consts: &BTreeMap<String, ConstVal>,
    sf: &mut StructFacts,
) {
    // Visibility on tuple fields sits inside the range.
    let mut start = range.start;
    if toks.get(start).map(|t| file.tok_text(t)) == Some("pub") {
        start += 1;
        if toks.get(start).map(|t| file.tok_text(t)) == Some("(") {
            while start < range.end && toks.get(start).map(|t| file.tok_text(t)) != Some(")") {
                start += 1;
            }
            start += 1;
        }
    }
    sf.fields.insert(
        idx.to_string(),
        FieldInfo {
            ty: parse_ty(file, &toks[start..range.end], consts),
            lo: None,
            hi: None,
            why: String::new(),
        },
    );
}

/// For every struct with a `T::new`, harvests `assert!` conjuncts as
/// field invariants — but only for fields the constructor's struct
/// literal initializes by shorthand from the asserted binding, and only
/// when that binding is never reassigned in the body.
fn harvest_ctor_invariants(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    facts: &mut WorkspaceFacts,
) {
    let names: Vec<String> = facts.structs.keys().cloned().collect();
    for tname in names {
        let Some(&(fi, fk)) = facts.methods.get(&(tname.clone(), "new".to_string())) else {
            continue;
        };
        let file = &files[fi];
        let f = &parsed[fi].fns[fk];
        let body: Vec<&Token> = file.tokens[f.body.clone()]
            .iter()
            .filter(|t| t.kind.is_code())
            .collect();
        let text = |k: usize| body.get(k).map(|t| file.tok_text(t));

        // Bindings reassigned anywhere in the body lose their asserts.
        let mut reassigned = BTreeSet::new();
        for (k, tok) in body.iter().enumerate() {
            if tok.kind == TokenKind::Ident
                && text(k + 1) == Some("=")
                && text(k + 2) != Some("=")
                && !matches!(text(k.wrapping_sub(1)), Some("<" | ">" | "!" | "=" | "let"))
            {
                reassigned.insert(file.tok_text(tok).to_string());
            }
        }

        // Shorthand-initialized fields of the result struct literal
        // (`Self { sig_bits, … }` or `field: field`).
        let mut shorthand = BTreeSet::new();
        for k in 0..body.len() {
            let s = file.tok_text(body[k]);
            if !(s == "Self" || s == tname) || text(k + 1) != Some("{") {
                continue;
            }
            let mut j = k + 2;
            let mut depth = 1i32;
            while j < body.len() && depth > 0 {
                match text(j) {
                    Some("{") => depth += 1,
                    Some("}") => depth -= 1,
                    Some(",") | None => {}
                    _ => {}
                }
                if depth == 1 && body[j].kind == TokenKind::Ident {
                    let fname = file.tok_text(body[j]).to_string();
                    let ok = match text(j + 1) {
                        Some("," | "}") => true,
                        Some(":") => text(j + 2) == Some(fname.as_str()),
                        _ => false,
                    };
                    if ok && !reassigned.contains(&fname) {
                        shorthand.insert(fname);
                    }
                    // Skip this initializer to its depth-1 comma.
                    let mut d = 0i32;
                    while j < body.len() {
                        match text(j) {
                            Some("(" | "[" | "{") => d += 1,
                            Some(")" | "]") => d -= 1,
                            Some("}") => {
                                if d == 0 {
                                    break;
                                }
                                d -= 1;
                            }
                            Some(",") if d == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                }
                j += 1;
            }
        }

        // Harvest assert! conjuncts.
        let sf = facts.structs.get_mut(&tname).expect("present by loop");
        for k in 0..body.len() {
            if file.tok_text(body[k]) != "assert" || text(k + 1) != Some("!") {
                continue;
            }
            if text(k + 2) != Some("(") {
                continue;
            }
            let mut depth = 0i32;
            let mut close = body.len();
            for (j, t) in body.iter().enumerate().skip(k + 2) {
                match file.tok_text(t) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            close = j;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            // Split on depth-0 `&&`; a `,` ends the condition (message).
            let mut cstart = k + 3;
            let mut d = 0i32;
            let mut conjuncts: Vec<std::ops::Range<usize>> = Vec::new();
            for j in k + 3..close {
                match text(j) {
                    Some("(" | "[" | "{") => d += 1,
                    Some(")" | "]" | "}") => d -= 1,
                    Some(",") if d == 0 => {
                        conjuncts.push(cstart..j);
                        cstart = close;
                        break;
                    }
                    Some("&") if d == 0 && text(j + 1) == Some("&") && j > cstart => {
                        conjuncts.push(cstart..j);
                        cstart = j + 2;
                    }
                    _ => {}
                }
            }
            if cstart < close {
                conjuncts.push(cstart..close);
            }
            for c in conjuncts {
                apply_conjunct(file, &body, c, &tname, &shorthand, sf);
            }
        }
    }
}

/// Applies one assert conjunct as a field bound or relation.
fn apply_conjunct(
    file: &SourceFile,
    body: &[&Token],
    c: std::ops::Range<usize>,
    tname: &str,
    shorthand: &BTreeSet<String>,
    sf: &mut StructFacts,
) {
    let toks: Vec<&str> = body[c].iter().map(|t| file.tok_text(t)).collect();
    let render = toks.join(" ");
    let why = format!("{tname}::new asserts `{render}`");
    // `f.is_power_of_two()` implies `f >= 1` (zero is not a power).
    if toks
        == [
            toks.first().copied().unwrap_or(""),
            ".",
            "is_power_of_two",
            "(",
            ")",
        ]
        && sf.fields.contains_key(toks[0])
        && shorthand.contains(toks[0])
    {
        if let Some(f) = sf.fields.get_mut(toks[0]) {
            f.lo = Some(f.lo.map_or(1, |old| old.max(1)));
            if !f.why.is_empty() {
                f.why.push_str("; ");
            }
            f.why.push_str(&why);
        }
        return;
    }
    // Recognized shapes (op is one or two tokens):
    //   ident OP num | num OP ident | ident OP ident
    //   ident + ident OP num   (unsigned sum bound)
    let (l, op, r): (&[&str], String, &[&str]) = {
        let pos = toks.iter().position(|t| matches!(*t, "<" | ">" | "="));
        let Some(p) = pos else { return };
        let two = matches!(toks.get(p + 1).copied(), Some("=")) && toks[p] != "=";
        let eq = toks[p] == "=" && matches!(toks.get(p + 1).copied(), Some("="));
        let op = if two || eq {
            format!("{}{}", toks[p], "=")
        } else if toks[p] == "=" {
            return; // lone `=`: not a comparison
        } else {
            toks[p].to_string()
        };
        let rhs_start = if two || eq { p + 2 } else { p + 1 };
        (&toks[..p], op, &toks[rhs_start..])
    };
    let is_field = |name: &str| sf.fields.contains_key(name) && shorthand.contains(name);
    let num = |t: &[&str]| {
        if t.len() == 1 {
            parse_num(t[0]).map(|(v, _)| v)
        } else {
            None
        }
    };
    let ident = |t: &[&str]| {
        if t.len() == 1 && is_field(t[0]) {
            Some(t[0].to_string())
        } else {
            None
        }
    };
    fn apply_bound(
        fields: &mut BTreeMap<String, FieldInfo>,
        why: &str,
        name: &str,
        lo: Option<u128>,
        hi: Option<u128>,
    ) {
        if let Some(f) = fields.get_mut(name) {
            if let Some(v) = lo {
                f.lo = Some(f.lo.map_or(v, |old| old.max(v)));
            }
            if let Some(v) = hi {
                f.hi = Some(f.hi.map_or(v, |old| old.min(v)));
            }
            if !f.why.is_empty() {
                f.why.push_str("; ");
            }
            f.why.push_str(why);
        }
    }
    match (ident(l), num(l), ident(r), num(r)) {
        (Some(a), _, _, Some(k)) => match op.as_str() {
            "<" => apply_bound(&mut sf.fields, &why, &a, None, k.checked_sub(1)),
            "<=" => apply_bound(&mut sf.fields, &why, &a, None, Some(k)),
            ">" => apply_bound(&mut sf.fields, &why, &a, k.checked_add(1), None),
            ">=" => apply_bound(&mut sf.fields, &why, &a, Some(k), None),
            "==" => apply_bound(&mut sf.fields, &why, &a, Some(k), Some(k)),
            _ => {}
        },
        (_, Some(k), Some(a), _) => match op.as_str() {
            ">" => apply_bound(&mut sf.fields, &why, &a, None, k.checked_sub(1)),
            ">=" => apply_bound(&mut sf.fields, &why, &a, None, Some(k)),
            "<" => apply_bound(&mut sf.fields, &why, &a, k.checked_add(1), None),
            "<=" => apply_bound(&mut sf.fields, &why, &a, Some(k), None),
            "==" => apply_bound(&mut sf.fields, &why, &a, Some(k), Some(k)),
            _ => {}
        },
        (Some(a), _, Some(b), _) => {
            let (lhs, rhs, strict) = match op.as_str() {
                "<" => (a, b, true),
                "<=" => (a, b, false),
                ">" => (b, a, true),
                ">=" => (b, a, false),
                _ => return,
            };
            sf.relations.push(Relation {
                lhs,
                rhs,
                strict,
                why,
            });
        }
        _ => {
            // `a + b <= k`: for unsigned fields each addend is <= k.
            if l.len() == 3 && l[1] == "+" && matches!(op.as_str(), "<" | "<=") {
                if let Some(k) = num(r) {
                    let hi = if op == "<" { k.checked_sub(1) } else { Some(k) };
                    for name in [l[0], l[2]] {
                        let ok = shorthand.contains(name)
                            && sf
                                .fields
                                .get(name)
                                .is_some_and(|f| f.ty.width.is_some() && !f.ty.signed);
                        if ok {
                            apply_bound(&mut sf.fields, &why, name, None, hi);
                        }
                    }
                }
            }
        }
    }
}

/// Revokes ctor invariants for any type constructed by struct literal
/// outside its own `new` in non-test code. (Match-pattern destructuring
/// can over-trigger this; losing an invariant is the safe direction.)
/// Closes constructor bounds over constructor relations: `a < b` with
/// `b <= K` proves `a <= K - 1`, and `a >= K` proves `b >= K` (+1 when
/// strict). Runs after the revocation passes so derived bounds never
/// rest on facts that post-construction writes invalidated. A few
/// rounds reach the fixpoint for any realistic invariant chain.
fn derive_relation_bounds(facts: &mut WorkspaceFacts) {
    for sf in facts.structs.values_mut() {
        if !sf.invariants_valid {
            continue;
        }
        for _ in 0..4 {
            let mut changed = false;
            for r in sf.relations.clone() {
                let step = u128::from(r.strict);
                let ok = |f: Option<&FieldInfo>| {
                    f.is_some_and(|f| f.ty.width.is_some() && !f.ty.signed && !f.ty.float)
                };
                if !(ok(sf.fields.get(&r.lhs)) && ok(sf.fields.get(&r.rhs))) {
                    continue;
                }
                if let Some(hi) = sf.fields.get(&r.rhs).and_then(|f| f.hi) {
                    let new_hi = hi.saturating_sub(step);
                    let why = format!("{} and `{}` <= {hi}", r.why, r.rhs);
                    let f = sf.fields.get_mut(&r.lhs).expect("checked above");
                    if f.hi.is_none_or(|h| new_hi < h) {
                        f.hi = Some(new_hi);
                        if !f.why.is_empty() {
                            f.why.push_str("; ");
                        }
                        f.why.push_str(&why);
                        changed = true;
                    }
                }
                if let Some(lo) = sf.fields.get(&r.lhs).and_then(|f| f.lo) {
                    let new_lo = lo.saturating_add(step);
                    let why = format!("{} and `{}` >= {lo}", r.why, r.lhs);
                    let f = sf.fields.get_mut(&r.rhs).expect("checked above");
                    if f.lo.is_none_or(|l| new_lo > l) {
                        f.lo = Some(new_lo);
                        if !f.why.is_empty() {
                            f.why.push_str("; ");
                        }
                        f.why.push_str(&why);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

fn revoke_escaped_constructions(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    facts: &mut WorkspaceFacts,
) {
    const ITEM_KEYWORDS: &[&str] = &[
        "struct", "enum", "impl", "trait", "union", "mod", "fn", "let", "for",
    ];
    for (fi, file) in files.iter().enumerate() {
        let indexed: Vec<(usize, &Token)> = file.code_tokens().collect();
        let toks: Vec<&Token> = indexed.iter().map(|&(_, t)| t).collect();
        let text = |k: usize| toks.get(k).map(|t| file.tok_text(t));
        for k in 0..toks.len() {
            if toks[k].kind != TokenKind::Ident || text(k + 1) != Some("{") {
                continue;
            }
            let s = file.tok_text(toks[k]);
            let named = s.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            if !named {
                continue;
            }
            if k > 0 && ITEM_KEYWORDS.contains(&file.tok_text(toks[k - 1])) {
                continue;
            }
            // Require a field-list shape just inside the brace.
            let inner = text(k + 2);
            let field_like = match (toks.get(k + 2).map(|t| t.kind), text(k + 3)) {
                (Some(TokenKind::Ident), Some(":" | "," | "}")) => true,
                _ => inner == Some(".."),
            };
            if !field_like {
                continue;
            }
            // Pattern position: `T { … } =>` destructures, not builds.
            let mut d = 0i32;
            let mut close = toks.len();
            for (j, t) in toks.iter().enumerate().skip(k + 1) {
                match file.tok_text(t) {
                    "{" => d += 1,
                    "}" => {
                        d -= 1;
                        if d == 0 {
                            close = j;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if text(close + 1) == Some("=") && text(close + 2) == Some(">") {
                continue;
            }
            // Resolve `Self` through the enclosing fn's qualifier, and
            // find whether we are inside `T::new` or a test.
            let tok_idx = indexed[k].0;
            let encl = parsed[fi]
                .fns
                .iter()
                .filter(|f| f.body.contains(&tok_idx))
                .min_by_key(|f| f.body.len());
            let tname = if s == "Self" {
                match encl.and_then(|f| f.qual.rsplit_once("::")) {
                    Some((ty, _)) => ty.rsplit("::").next().unwrap_or(ty).to_string(),
                    None => continue,
                }
            } else {
                s.to_string()
            };
            let in_new = encl.is_some_and(|f| {
                f.name == "new"
                    && f.qual
                        .rsplit_once("::")
                        .is_some_and(|(ty, _)| ty.rsplit("::").next() == Some(tname.as_str()))
            });
            let in_test = encl.is_some_and(|f| f.is_test) || file.is_test_line(toks[k].line);
            if in_new || in_test {
                continue;
            }
            if let Some(sf) = facts.structs.get_mut(&tname) {
                sf.invariants_valid = false;
            }
        }
    }
}

/// Revokes per-field ctor bounds for any field assigned through a place
/// expression (`x.f = …`, `x.f += …`) anywhere in non-test code: a
/// post-construction write can violate whatever `T::new` asserted. The
/// scan is name-based across all structs (the receiver's type is not
/// known at token level); losing a bound is the safe direction.
fn revoke_assigned_fields(files: &[SourceFile], parsed: &[ParsedFile], facts: &mut WorkspaceFacts) {
    // `(Some(type), field)` for `self.field = …` inside an impl (only
    // that struct is touched); `(None, field)` for assignments through
    // arbitrary receivers (every struct with the field name, the sound
    // fallback without type inference).
    let mut hit: BTreeSet<(Option<String>, String)> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        let indexed: Vec<(usize, &Token)> = file.code_tokens().collect();
        let toks: Vec<&Token> = indexed.iter().map(|&(_, t)| t).collect();
        let text = |k: usize| toks.get(k).map(|t| file.tok_text(t));
        for k in 0..toks.len() {
            if toks[k].kind != TokenKind::Ident || k == 0 || text(k - 1) != Some(".") {
                continue;
            }
            let assigned = match text(k + 1) {
                // `x.f = v` but not `x.f == v`.
                Some("=") => text(k + 2) != Some("="),
                Some("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^") => text(k + 2) == Some("="),
                Some("<") => text(k + 2) == Some("<") && text(k + 3) == Some("="),
                Some(">") => text(k + 2) == Some(">") && text(k + 3) == Some("="),
                _ => false,
            };
            if !assigned {
                continue;
            }
            let tok_idx = indexed[k].0;
            let encl = parsed[fi]
                .fns
                .iter()
                .filter(|f| f.body.contains(&tok_idx))
                .min_by_key(|f| f.body.len());
            if encl.is_some_and(|f| f.is_test) || file.is_test_line(toks[k].line) {
                continue;
            }
            let impl_ty = (k >= 2 && text(k - 2) == Some("self"))
                .then(|| encl.filter(|f| f.is_method))
                .flatten()
                .and_then(|f| f.qual.rsplit("::").nth(1))
                .map(str::to_string);
            hit.insert((impl_ty, file.tok_text(toks[k]).to_string()));
        }
    }
    for (tyname, sf) in facts.structs.iter_mut() {
        let hits_here = |name: &str| {
            hit.contains(&(None, name.to_string()))
                || hit.contains(&(Some(tyname.clone()), name.to_string()))
        };
        for (name, f) in sf.fields.iter_mut() {
            if hits_here(name) {
                f.lo = None;
                f.hi = None;
                f.why.clear();
            }
        }
        sf.relations
            .retain(|r| !hits_here(&r.lhs) && !hits_here(&r.rhs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn build(srcs: &[(&str, &str)]) -> WorkspaceFacts {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, text)| SourceFile::new(rel, (*text).to_string()))
            .collect();
        let parsed: Vec<ParsedFile> = files.iter().enumerate().map(|(i, f)| parse(f, i)).collect();
        WorkspaceFacts::build(&files, &parsed)
    }

    #[test]
    fn struct_fields_parse_widths_arrays_and_vecs() {
        let facts = build(&[(
            "crates/core/src/demo.rs",
            "pub struct S {\n    pub a: u8,\n    b: [u64; 4],\n    c: Vec<u32>,\n    d: Other,\n}\n",
        )]);
        let s = &facts.structs["S"];
        assert_eq!(s.fields["a"].ty.width, Some(8));
        assert_eq!(s.fields["b"].ty.arr_len, Some(4));
        assert_eq!(s.fields["b"].ty.elem.as_ref().unwrap().width, Some(64));
        assert!(s.fields["c"].ty.is_vec);
        assert_eq!(s.fields["d"].ty.name.as_deref(), Some("Other"));
    }

    #[test]
    fn tuple_struct_and_const_array_lengths() {
        let facts = build(&[(
            "crates/types/src/demo.rs",
            "const LANES: usize = 4;\npub struct Cycle(pub u64);\npub struct R { s: [u64; LANES] }\n",
        )]);
        assert_eq!(facts.structs["Cycle"].fields["0"].ty.width, Some(64));
        assert_eq!(facts.structs["R"].fields["s"].ty.arr_len, Some(4));
        assert_eq!(facts.consts["LANES"].value, 4);
    }

    #[test]
    fn ctor_asserts_become_field_bounds_and_relations() {
        let facts = build(&[(
            "crates/core/src/cfg.rs",
            "pub struct C { sig: u8, cnt: u8 }\nimpl C {\n    pub fn new(sig: u8, cnt: u8) -> C {\n        assert!(sig >= 1 && sig < cnt && cnt <= 32);\n        C { sig, cnt }\n    }\n}\n",
        )]);
        let s = &facts.structs["C"];
        assert!(s.invariants_valid);
        // The relation-closure pass turns `sig < cnt <= 32` into a
        // numeric `sig <= 31` on top of the direct `sig >= 1`.
        assert_eq!(
            (s.fields["sig"].lo, s.fields["sig"].hi),
            (Some(1), Some(31))
        );
        assert_eq!(s.fields["cnt"].hi, Some(32));
        assert_eq!(s.fields["cnt"].lo, Some(2));
        assert_eq!(s.relations.len(), 1);
        assert!(s.relations[0].strict && s.relations[0].lhs == "sig");
    }

    #[test]
    fn escaped_construction_revokes_invariants() {
        let facts = build(&[(
            "crates/core/src/cfg.rs",
            "pub struct C { sig: u8 }\nimpl C {\n    pub fn new(sig: u8) -> C {\n        assert!(sig < 9);\n        C { sig }\n    }\n}\nfn sneak() -> C {\n    C { sig: 200 }\n}\n",
        )]);
        assert!(!facts.structs["C"].invariants_valid);
        assert_eq!(facts.field("C", "sig").unwrap().hi, None);
        // The type shape survives revocation.
        assert_eq!(facts.field("C", "sig").unwrap().ty.width, Some(8));
    }

    #[test]
    fn reassigned_binding_loses_its_assert() {
        let facts = build(&[(
            "crates/core/src/cfg.rs",
            "pub struct C { sig: u8 }\nimpl C {\n    pub fn new(mut sig: u8) -> C {\n        assert!(sig < 9);\n        sig = sig + 1;\n        C { sig }\n    }\n}\n",
        )]);
        assert_eq!(facts.structs["C"].fields["sig"].hi, None);
    }

    #[test]
    fn self_field_assignment_revokes_only_the_impl_type() {
        // Two structs share a field name; the builder mutates its own
        // `sig_bits` through `self`, which must not strip the unrelated
        // SsvcConfig-style struct of its ctor invariant.
        let facts = build(&[(
            "crates/core/src/cfg.rs",
            "pub struct A { sig_bits: u8 }\nimpl A {\n    pub fn new(sig_bits: u8) -> A {\n        assert!(sig_bits < 9);\n        A { sig_bits }\n    }\n}\npub struct B { sig_bits: u8 }\nimpl B {\n    pub fn new(sig_bits: u8) -> B {\n        assert!(sig_bits < 9);\n        B { sig_bits }\n    }\n    pub fn set(&mut self, v: u8) {\n        self.sig_bits = v;\n    }\n}\n",
        )]);
        assert_eq!(facts.structs["A"].fields["sig_bits"].hi, Some(8));
        assert_eq!(facts.structs["B"].fields["sig_bits"].hi, None);
    }

    #[test]
    fn bare_receiver_assignment_revokes_by_name_everywhere() {
        // `cfg.sig = …` outside any impl cannot be type-resolved, so the
        // sound fallback strips every struct holding that field name.
        let facts = build(&[(
            "crates/core/src/cfg.rs",
            "pub struct A { sig: u8 }\nimpl A {\n    pub fn new(sig: u8) -> A {\n        assert!(sig < 9);\n        A { sig }\n    }\n}\nfn poke(cfg: &mut A) {\n    cfg.sig = 200;\n}\n",
        )]);
        assert_eq!(facts.structs["A"].fields["sig"].hi, None);
    }

    #[test]
    fn power_of_two_assert_harvests_a_lower_bound() {
        let facts = build(&[(
            "crates/core/src/cfg.rs",
            "pub struct C { lanes: u64 }\nimpl C {\n    pub fn new(lanes: u64) -> C {\n        assert!(lanes.is_power_of_two());\n        C { lanes }\n    }\n}\n",
        )]);
        assert_eq!(facts.structs["C"].fields["lanes"].lo, Some(1));
    }

    #[test]
    fn num_literals_parse_radixes_and_suffixes() {
        assert_eq!(parse_num("63").unwrap().0, 63);
        assert_eq!(parse_num("0x3F").unwrap().0, 63);
        assert_eq!(parse_num("0b111_111").unwrap().0, 63);
        let (v, ty) = parse_num("64u64").unwrap();
        assert_eq!((v, ty.unwrap().width), (64, Some(64)));
        let (v, ty) = parse_num("0x40usize").unwrap();
        assert_eq!((v, ty.unwrap().width), (64, Some(64)));
        assert!(parse_num("1.5").is_none());
    }

    #[test]
    fn duplicate_names_are_dropped_not_guessed() {
        let facts = build(&[
            (
                "crates/a/src/x.rs",
                "pub struct D { f: u8 }\nconst K: u64 = 1;\n",
            ),
            (
                "crates/b/src/y.rs",
                "pub struct D { f: u64 }\nconst K: u64 = 2;\n",
            ),
        ]);
        assert!(!facts.structs.contains_key("D"));
        assert!(!facts.consts.contains_key("K"));
    }

    #[test]
    fn seed_summaries_cover_port_identifiers() {
        assert_eq!(seed_summary("InputId", "index").unwrap().1, 63);
        assert!(seed_summary("InputId", "other").is_none());
    }
}
