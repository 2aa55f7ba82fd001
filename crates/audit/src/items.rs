//! Item-level fact extraction from a token stream.
//!
//! The lexer gives an exact token sequence; this module walks it once and
//! records the facts SN007 needs: fn items with the float accumulators in
//! their loop bodies, whether each fn is test code, the suppression
//! markers, and the lines carrying a canonical-order note.
//!
//! This is deliberately not a full parser. It tracks brace depth, gulps
//! attributes / `use` statements / fn headers wholesale so their internal
//! punctuation cannot confuse the depth tracker, and pattern-matches the
//! handful of shapes the lint cares about. Unknown constructs fall through
//! harmlessly, and any token sequence, however truncated, parses without
//! panicking.

use crate::lexer::{allow_lines, comment_lines_containing, Token, TokenKind};

/// A `name += …` float accumulation inside a loop body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccumFact {
    /// The accumulator's identifier.
    pub name: String,
    /// 1-based line of the `+=`.
    pub line: usize,
}

/// Facts about one `fn` item.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FnFact {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Float accumulations inside loop bodies.
    pub accums: Vec<AccumFact>,
    /// Whether the fn is inside a `#[cfg(test)]` module or carries a
    /// `#[test]` / `#[cfg(test)]` attribute itself.
    pub in_test: bool,
}

/// Everything the SN007 pass needs to know about one source file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Workspace-relative path label (as used in diagnostics).
    pub path: String,
    /// All fn items, in source order.
    pub fns: Vec<FnFact>,
    /// `audit:allow(SNxxx)` markers: (line, code).
    pub allows: Vec<(usize, String)>,
    /// Lines whose comments contain "canonical" (SN007's escape hatch).
    pub canonical_lines: Vec<usize>,
}

impl FileFacts {
    /// Whether an `audit:allow(code)` marker covers `line` (same line or
    /// the line above).
    pub fn allowed(&self, code: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|(l, c)| c == code && (*l == line || l + 1 == line))
    }
}

/// Extracts [`FileFacts`] from a lexed file.
pub fn extract(path: &str, tokens: &[Token]) -> FileFacts {
    let sig: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut facts = FileFacts {
        path: path.to_string(),
        allows: allow_lines(tokens),
        canonical_lines: comment_lines_containing(tokens, "canonical"),
        ..FileFacts::default()
    };

    let mut depth: i64 = 0;
    let mut bracket: i64 = 0;
    let mut test_depth: Option<i64> = None;
    let mut pending_test_attr = false;
    let mut awaiting_test_brace = false;
    let mut awaiting_loop_brace = false;
    let mut impl_header = false;
    // (index into facts.fns, depth of the fn body's braces).
    let mut fn_stack: Vec<(usize, i64)> = Vec::new();
    let mut loop_depths: Vec<i64> = Vec::new();
    // (fn index, name) of float-zero-initialized `let mut` locals.
    let mut float_locals: Vec<(usize, String)> = Vec::new();

    let mut i = 0usize;
    while i < sig.len() {
        let t = sig[i];
        let text = t.text.as_str();
        match t.kind {
            TokenKind::Punct => match text {
                "{" => {
                    if awaiting_test_brace {
                        test_depth = test_depth.or(Some(depth));
                        awaiting_test_brace = false;
                    }
                    if awaiting_loop_brace {
                        loop_depths.push(depth + 1);
                        awaiting_loop_brace = false;
                    }
                    impl_header = false;
                    depth += 1;
                    i += 1;
                }
                "}" => {
                    depth -= 1;
                    if test_depth.is_some_and(|td| depth <= td) {
                        test_depth = None;
                    }
                    while fn_stack.last().is_some_and(|&(_, d)| depth < d) {
                        fn_stack.pop();
                    }
                    while loop_depths.last().is_some_and(|&d| depth < d) {
                        loop_depths.pop();
                    }
                    i += 1;
                }
                "[" => {
                    bracket += 1;
                    i += 1;
                }
                "]" => {
                    bracket -= 1;
                    i += 1;
                }
                ";" => {
                    if bracket == 0 {
                        awaiting_test_brace = false;
                        awaiting_loop_brace = false;
                        impl_header = false;
                    }
                    i += 1;
                }
                "#" => {
                    i = gulp_attribute(&sig, i, &mut pending_test_attr);
                }
                _ => i += 1,
            },
            TokenKind::Ident => match text {
                "use" => {
                    let mut j = i + 1;
                    while j < sig.len() && sig[j].text != ";" {
                        j += 1;
                    }
                    pending_test_attr = false;
                    i = j + 1;
                }
                "impl" | "trait" => {
                    impl_header = true;
                    pending_test_attr = false;
                    i += 1;
                }
                "mod" => {
                    if pending_test_attr {
                        awaiting_test_brace = true;
                        pending_test_attr = false;
                    }
                    i += 1;
                }
                "loop" => {
                    awaiting_loop_brace = true;
                    i += 1;
                }
                "while" if !impl_header => {
                    i = gulp_loop_header(&sig, i + 1);
                    awaiting_loop_brace = true;
                }
                "for" if !impl_header && sig.get(i + 1).is_none_or(|n| n.text != "<") => {
                    i = gulp_loop_header(&sig, i + 1);
                    awaiting_loop_brace = true;
                }
                "fn" => {
                    i = parse_fn_header(
                        &sig,
                        i,
                        &mut facts,
                        &mut fn_stack,
                        &mut depth,
                        test_depth.is_some() || pending_test_attr,
                    );
                    pending_test_attr = false;
                }
                "let" => {
                    record_float_local(&sig, i, &fn_stack, &mut float_locals);
                    i += 1;
                }
                "struct" | "enum" | "const" | "static" | "type" => {
                    pending_test_attr = false;
                    i += 1;
                }
                // A float `+=` accumulation inside a loop body.
                _ => {
                    if let Some(&(f, _)) = fn_stack.last() {
                        if sig.get(i + 1).is_some_and(|n| n.text == "+=")
                            && !loop_depths.is_empty()
                            && float_locals.iter().any(|(ff, n)| *ff == f && n == text)
                        {
                            facts.fns[f].accums.push(AccumFact {
                                name: t.text.clone(),
                                line: t.line,
                            });
                        }
                    }
                    i += 1;
                }
            },
            _ => i += 1,
        }
    }
    facts
}

/// Gulps a `#[…]` / `#![…]` attribute starting at the `#`; sets
/// `pending_test_attr` for `#[test]` and `#[cfg(test)]`. Returns the index
/// past the closing `]`.
fn gulp_attribute(sig: &[&Token], start: usize, pending_test_attr: &mut bool) -> usize {
    let mut j = start + 1;
    if sig.get(j).is_some_and(|t| t.text == "!") {
        j += 1;
    }
    if sig.get(j).is_none_or(|t| t.text != "[") {
        return start + 1;
    }
    let body_start = j + 1;
    let mut depth = 0i64;
    while let Some(t) = sig.get(j) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let body = &sig[body_start..j.min(sig.len())];
    let is_test_attr = body.first().is_some_and(|t| t.text == "test")
        || body
            .windows(3)
            .any(|w| w[0].text == "cfg" && w[1].text == "(" && w[2].text == "test");
    if is_test_attr {
        *pending_test_attr = true;
    }
    (j + 1).min(sig.len())
}

/// Skips a `for`/`while` header from just past the keyword to the body
/// `{`. Returns the index of the body `{` so the caller's
/// `awaiting_loop_brace` fires.
fn gulp_loop_header(sig: &[&Token], start: usize) -> usize {
    let mut j = start;
    let mut paren = 0i64;
    while let Some(t) = sig.get(j) {
        match t.text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" | ";" if paren == 0 => break,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parses a `fn` header starting at the `fn` keyword: name, generics,
/// params, return type, and where clause. Pushes the new fn and, when a
/// body opens, enters it. Returns the index past the body `{` or the `;`.
/// Every lookup is bounds-checked, so a header cut off anywhere (a file
/// ending in `fn`) yields a nameless fn rather than a panic.
fn parse_fn_header(
    sig: &[&Token],
    fn_idx_tok: usize,
    facts: &mut FileFacts,
    fn_stack: &mut Vec<(usize, i64)>,
    depth: &mut i64,
    in_test: bool,
) -> usize {
    let line = sig.get(fn_idx_tok).map_or(0, |t| t.line);
    let mut j = fn_idx_tok + 1;
    let name = sig
        .get(j)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default();
    j += 1;
    // Generics, then params: skip one balanced `open … close` group.
    for (open, close) in [("<", ">"), ("(", ")")] {
        if sig.get(j).is_some_and(|t| t.text == open) {
            let mut nest = 0i64;
            while let Some(t) = sig.get(j) {
                j += 1;
                if t.text == open {
                    nest += 1;
                } else if t.text == close {
                    nest -= 1;
                    if nest == 0 {
                        break;
                    }
                }
            }
        }
    }
    // Return type.
    if sig.get(j).is_some_and(|t| t.text == "->") {
        j += 1;
        let (mut a, mut p) = (0i64, 0i64);
        while let Some(t) = sig.get(j) {
            match t.text.as_str() {
                "{" | ";" | "where" if a == 0 && p == 0 => break,
                "<" => a += 1,
                ">" => a -= 1,
                "(" => p += 1,
                ")" => p -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    // Where clause.
    while sig.get(j).is_some_and(|t| t.text != "{" && t.text != ";") {
        j += 1;
    }
    let fn_idx = facts.fns.len();
    facts.fns.push(FnFact {
        name,
        line,
        in_test,
        ..FnFact::default()
    });
    match sig.get(j).map(|t| t.text.as_str()) {
        Some("{") => {
            fn_stack.push((fn_idx, *depth + 1));
            *depth += 1;
            j + 1
        }
        Some(";") => j + 1,
        _ => j,
    }
}

/// Records `let mut name = <float zero>` / `let mut name: f64` locals.
fn record_float_local(
    sig: &[&Token],
    let_at: usize,
    fn_stack: &[(usize, i64)],
    float_locals: &mut Vec<(usize, String)>,
) {
    let Some(&(f, _)) = fn_stack.last() else {
        return;
    };
    if sig.get(let_at + 1).is_none_or(|t| t.text != "mut") {
        return;
    }
    let Some(name) = sig
        .get(let_at + 2)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
    else {
        return;
    };
    let mut k = let_at + 3;
    let mut is_float = false;
    // Optional `: type` annotation.
    if sig.get(k).is_some_and(|t| t.text == ":") {
        while let Some(t) = sig.get(k) {
            if t.text == "=" || t.text == ";" {
                break;
            }
            if matches!(t.text.as_str(), "f64" | "f32") {
                is_float = true;
            }
            k += 1;
        }
    }
    if sig.get(k).is_some_and(|t| t.text == "=") {
        if let Some(v) = sig.get(k + 1) {
            if v.kind == TokenKind::Number
                && (v.text.contains('.') || v.text.contains("f64") || v.text.contains("f32"))
            {
                is_float = true;
            }
        }
    }
    if is_float {
        float_locals.push((f, name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn facts_of(src: &str) -> FileFacts {
        extract("t.rs", &lex(src))
    }

    #[test]
    fn fn_headers_of_every_shape_are_entered() {
        let src = "pub fn merge<'a, T: Into<u64>>(xs: &'a [T]) -> Vec<(u64, u64)> where T: Copy {\n    Vec::new()\n}\n\nfn helper() {}\nfn decl();\n";
        let f = facts_of(src);
        let names: Vec<_> = f.fns.iter().map(|x| (x.name.as_str(), x.line)).collect();
        assert_eq!(names, [("merge", 1), ("helper", 5), ("decl", 6)]);
    }

    #[test]
    fn float_accumulators_in_loops_are_found() {
        let src = "fn h(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    let mut count = 0u64;\n    for x in xs {\n        total += x;\n        count += 1;\n    }\n    let _ = count;\n    total\n}\n";
        let f = facts_of(src);
        assert_eq!(f.fns[0].accums.len(), 1);
        assert_eq!(f.fns[0].accums[0].name, "total");
        assert_eq!(f.fns[0].accums[0].line, 5);
    }

    #[test]
    fn float_accumulation_outside_a_loop_is_not_an_accum() {
        let src =
            "fn h(x: f64) -> f64 {\n    let mut total = 0.0;\n    total += x;\n    total\n}\n";
        let f = facts_of(src);
        assert!(f.fns[0].accums.is_empty());
    }

    #[test]
    fn test_modules_and_test_attrs_mark_fns() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        lib();\n    }\n}\n";
        let f = facts_of(src);
        assert_eq!(f.fns.len(), 2);
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test);
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "struct S;\nimpl Iterator for S {\n    type Item = u32;\n    fn next(&mut self) -> Option<u32> {\n        let mut t = 0.0;\n        t += 1.0;\n        None\n    }\n}\n";
        let f = facts_of(src);
        assert_eq!(f.fns[0].name, "next");
        assert!(f.fns[0].accums.is_empty());
    }

    #[test]
    fn allows_and_canonical_lines_are_recorded() {
        let src = "// audit:allow(SN007)\nfn f(xs: &[f64]) -> f64 {\n    // canonical order: sorted by id\n    let mut t = 0.0;\n    for x in xs {\n        t += x;\n    }\n    t\n}\n";
        let f = facts_of(src);
        assert_eq!(f.allows, vec![(1, "SN007".to_string())]);
        assert_eq!(f.canonical_lines, vec![3]);
        assert!(f.allowed("SN007", 2));
        assert!(!f.allowed("SN007", 3));
    }

    #[test]
    fn while_loops_count_as_loops_for_accums() {
        let src = "fn w(xs: &[f64]) -> f64 {\n    let mut t = 0.0;\n    let mut i = 0usize;\n    while i < xs.len() {\n        t += xs[i];\n        i += 1;\n    }\n    t\n}\n";
        let f = facts_of(src);
        assert_eq!(f.fns[0].accums.len(), 1);
        assert_eq!(f.fns[0].accums[0].name, "t");
    }
}
