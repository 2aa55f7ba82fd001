//! Bench-history lines written by `starnuma_bench::append_history` read
//! back through `starnuma bench-diff`. This is the only test in its binary
//! because it sets `STARNUMA_BENCH_HISTORY` for the whole process: a test
//! running beside it would race the `set_var` and append to its file.

use std::fs;
use std::process::Command;

/// A bench name and a key holding `"` and `\` stay one readable line, and
/// the keys the benches use today are written byte for byte as before.
#[test]
fn appended_history_round_trips_through_bench_diff() {
    let dir = std::env::temp_dir().join("starnuma-appended-history-cli");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    let history = dir.join("history.jsonl");
    std::env::set_var("STARNUMA_BENCH_HISTORY", &history);
    starnuma_bench::append_history(
        "e2e.sssp-starnuma",
        false,
        &[("accesses_per_sec".to_string(), 1012739.1086705892)],
    );
    starnuma_bench::append_history("odd\"bench", true, &[("we\"ird\\key_ns".to_string(), 2.5)]);
    let text = fs::read_to_string(&history).expect("history written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        format!(
            "{{\"schema_version\":1,\"bench\":\"e2e.sssp-starnuma\",\"smoke\":0,\"version\":\"{}\",\"accesses_per_sec\":1012739.1086705892}}",
            env!("CARGO_PKG_VERSION")
        )
    );

    let baseline = dir.join("baseline.json");
    fs::write(&baseline, "{\"odd\\\"bench.we\\\"ird\\\\key_ns\": 2.5}").expect("baseline written");
    let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .arg("bench-diff")
        .args([&baseline, &history])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "bench-diff failed: {out:?}");
    assert!(
        stdout.contains("odd\"bench.we\"ird\\key_ns") && stdout.contains("ok"),
        "the odd key must compare: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}
