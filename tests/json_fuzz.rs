//! Seeded fuzzing of the workspace JSON codec (`starnuma_types::json`) and
//! of every reader built on it. Random value trees must survive
//! render → parse unchanged; truncated and byte-flipped copies of real
//! artifacts must never panic a reader; and a non-finite number must keep
//! a ledger line byte-stable through the `null` it renders as.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::panic::catch_unwind;

use starnuma::obs::{parse_flat_object, RunRecord};
use starnuma_types::json::{parse, Json};
use starnuma_types::SimRng;

/// Text fragments for generated strings: every control character, the
/// characters with short escapes, and multi-byte UTF-8.
fn fragment(rng: &mut SimRng) -> String {
    match rng.gen_range(0..6u32) {
        0 => char::from_u32(rng.gen_range(0..0x20u32))
            .expect("control char")
            .to_string(),
        1 => ["\"", "\\", "/", "\u{7f}"][rng.gen_range(0..4usize)].to_string(),
        2 => ["é", "—", "Ω", "😀", "\u{2028}", "日本"][rng.gen_range(0..6usize)].to_string(),
        3 => ["\\u0041", "\\n", "null", "1e5", "{\"a\":"][rng.gen_range(0..5usize)].to_string(),
        _ => char::from_u32(rng.gen_range(0x20..0x7fu32))
            .expect("printable ASCII")
            .to_string(),
    }
}

fn string(rng: &mut SimRng) -> String {
    (0..rng.gen_range(0..12usize))
        .map(|_| fragment(rng))
        .collect()
}

fn number(rng: &mut SimRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => -0.0,
        // Integers above 2^53, where f64 stops holding every integer.
        1 => (rng.gen_range((1u64 << 53)..u64::MAX) as f64).copysign(rng.gen_f64() - 0.5),
        2 => (rng.next_u64() >> 32) as f64 - 2e9,
        3 => rng.gen_f64() * 1e-3,
        // Any finite bit pattern: subnormals, huge exponents, everything.
        _ => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

fn value(rng: &mut SimRng, depth: usize) -> Json {
    let leaf_only = depth >= 4;
    match rng.gen_range(0..if leaf_only { 4u32 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(number(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0..5usize))
                .map(|_| value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (string(rng), value(rng, depth + 1)))
                .collect(),
        ),
    }
}

#[test]
fn random_trees_round_trip_through_render_and_parse() {
    let mut rng = SimRng::seed_from_u64(0x150C_0DEC);
    for case in 0..5_000 {
        let v = value(&mut rng, 0);
        let text = v.render();
        assert_eq!(parse(&text).as_ref(), Some(&v), "case {case}: {text}");
        // Any prefix may or may not parse, but must not panic.
        let cut = rng.gen_range(0..text.len() + 1);
        if let Some(prefix) = text.get(..cut) {
            let _ = parse(prefix);
        }
    }
}

/// One traced e2e line as `BENCH_history.jsonl` holds it.
const BENCH_LINE: &str = r#"{"schema_version":1,"bench":"e2e.sssp-starnuma","smoke":0,"version":"0.1.0","seed":42,"trace":1,"ops_total":4,"ops_failed":0,"sim.replay_ns_per_access":956.625092938948,"coherence.dir_ns_per_call":118.3481846209903,"traced.coverage":0.9974746970144435}"#;

const TRACE_LINE: &str = r#"{"type":"event","seq":31,"phase":0,"level":"info","cat":"checkpoint","name":"phase_checkpoint","planned_moves":3712,"modeled_moves":0,"budget_pages":0}"#;

fn ledger_line() -> &'static str {
    include_str!("../crates/cli/tests/fixtures/report/runs.jsonl")
        .lines()
        .next()
        .expect("fixture has a record")
}

/// Bytes a mutation swaps in to break structure rather than content.
const SYNTAX: &[u8] = b"{}[]\",:\\0-.enulu";

/// Feeds `text` to every reader of the codec; none may panic.
fn read_everywhere(text: &str) {
    let _ = parse(text);
    let _ = parse_flat_object(text);
    let _ = RunRecord::from_json_line(text);
}

#[test]
fn damaged_artifacts_never_panic_a_reader() {
    let artifacts = [
        TRACE_LINE,
        ledger_line(),
        BENCH_LINE,
        include_str!("../BENCHMARK.json"),
    ];
    for artifact in artifacts {
        assert!(
            parse(artifact).is_some(),
            "intact artifact parses: {artifact}"
        );
    }
    assert!(parse_flat_object(TRACE_LINE).is_some());
    assert!(parse_flat_object(BENCH_LINE).is_some());
    assert!(RunRecord::from_json_line(ledger_line()).is_some());

    let mut rng = SimRng::seed_from_u64(0x00DA_4A6E);
    for (i, artifact) in artifacts.iter().enumerate() {
        for case in 0..2_000 {
            let mut bytes = artifact.as_bytes().to_vec();
            for _ in 0..rng.gen_range(0..4usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = match rng.gen_range(0..3u32) {
                    0 => SYNTAX[rng.gen_range(0..SYNTAX.len())],
                    1 => bytes[at] ^ (1 << rng.gen_range(0..8u32)),
                    _ => rng.next_u64().to_le_bytes()[0],
                };
            }
            bytes.truncate(rng.gen_range(0..bytes.len() + 1));
            let text = String::from_utf8_lossy(&bytes);
            let outcome = catch_unwind(|| read_everywhere(&text));
            assert!(
                outcome.is_ok(),
                "artifact {i} case {case} panicked on {text:?}"
            );
        }
    }
}

#[test]
fn non_finite_numbers_render_null_and_keep_ledger_lines_stable() {
    assert_eq!(Json::Num(f64::NAN).render(), "null");
    assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null");

    let mut rec = RunRecord::from_json_line(ledger_line()).expect("fixture parses");
    rec.ipc = f64::NAN;
    rec.amat_ns = f64::INFINITY;
    let line = rec.to_json_line();
    assert!(line.contains("\"ipc\":null,\"amat_ns\":null"), "{line}");
    let back = RunRecord::from_json_line(&line).expect("null reads back");
    assert!(back.ipc.is_nan() && back.amat_ns.is_nan());
    assert_eq!(back.to_json_line(), line);
}
