//! Seeded fuzzing of the analyzer's per-file layers. Random Rust-ish
//! token soup — keywords, delimiters, attributes, literals, comments,
//! allow markers, multi-byte text, cut off at arbitrary points — goes
//! through the lexer, the item-fact extractor, and both per-file lint
//! passes. None may panic, and the lexer must round-trip every input: a
//! half-written file in the tree must never crash `starnuma lint`.

use std::panic::catch_unwind;

use starnuma_audit::items::extract;
use starnuma_audit::lexer::lex;
use starnuma_audit::lint_source;
use starnuma_audit::lints::dataflow::lint_dataflow;
use starnuma_types::SimRng;

/// Fragments the generator strings together.
#[rustfmt::skip]
const VOCAB: &[&str] = &[
    "fn", "fn ", "pub", "const", "async", "extern", "impl", "trait", "for", "while", "loop", "in",
    "mod", "use", "let", "mut", "struct", "enum", "static", "type", "where", "as", "self", "x",
    "total", "DetMap", "Instant", "HashMap", "f64", "u16", "u32", "0.0", "1u64", "2.5f64", "{",
    "}", "(", ")", "[", "]", "<", ">", ";", ":", "::", "->", "=>", ",", ".", "#", "!", "=", "+=",
    "&", "'a", "'x'", "'", "\"", "\"s\"", "r#\"", "\"#", "b'q'", "/*", "*/", "// ", "//! doc",
    "\n", " ", "\t", "#[cfg(test)]", "#[test]", "#![forbid(unsafe_code)]", ".unwrap()",
    ".expect(", "panic!(", "println!(", ".sort_unstable_by_key(", "available_parallelism",
    "// audit:allow(SN007)", "// canonical order:", "é", "—", "\\", "0x", "1e", "..", "r#type",
];

fn soup(rng: &mut SimRng) -> String {
    let len = rng.gen_range(0..60usize);
    let mut src = String::new();
    for _ in 0..len {
        src.push_str(VOCAB[rng.gen_range(0..VOCAB.len())]);
        if rng.gen_bool(0.5) {
            src.push(' ');
        }
    }
    // Cut at a random char boundary so every construct is seen half-written.
    let cut = rng.gen_range(0..src.len() + 1);
    let cut = (0..=cut)
        .rev()
        .find(|&i| src.is_char_boundary(i))
        .unwrap_or(0);
    src.truncate(cut);
    src
}

#[test]
fn token_soup_never_panics_and_always_round_trips() {
    let mut rng = SimRng::seed_from_u64(0x5EED_A0D1);
    for case in 0..20_000 {
        let src = soup(&mut rng);
        let outcome = catch_unwind(|| {
            let tokens = lex(&src);
            let concat: String = tokens.iter().map(|t| t.text.as_str()).collect();
            assert_eq!(concat, src, "lexer round trip");
            let facts = extract("fuzz.rs", &tokens);
            let _ = lint_dataflow(&facts);
            let _ = lint_source("fuzz.rs", &src, true);
        });
        assert!(outcome.is_ok(), "case {case} panicked on input {src:?}");
    }
}

#[test]
fn a_file_ending_in_fn_lints_cleanly() {
    for src in [
        "fn",
        "fn ",
        "pub fn",
        "fn f",
        "fn f<T",
        "fn f(x: u32",
        "fn f() ->",
    ] {
        assert!(extract("lib.rs", &lex(src)).fns.len() == 1, "{src:?}");
        assert!(lint_source("lib.rs", src, false).is_empty(), "{src:?}");
    }
}
