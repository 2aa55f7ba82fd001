//! `starnuma run` through the real binary.

use std::process::Command;

use starnuma_types::json::{parse, Json};

/// `run --json` on BFS at a tiny scale, plus `extra` flags.
fn run_json(system: &str, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .args([
            "run",
            "--workload",
            "bfs",
            "--system",
            system,
            "--scale",
            "quick",
            "--phases",
            "2",
            "--instructions",
            "6000",
            "--jobs",
            "1",
            "--json",
        ])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "run failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(&text).unwrap_or_else(|| panic!("not JSON: {text}"))
}

/// A top-level number of `run --json`.
fn field(json: &Json, key: &str) -> f64 {
    let fields = json.as_object().expect("an object");
    let (_, value) = fields
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no {key} in {json:?}"));
    value
        .as_num()
        .unwrap_or_else(|| panic!("{key} is not a number"))
}

/// A zero replica budget is inert, so `--replication 0` must report the
/// flagless run — on the baseline too, whose reported result is the
/// better of its §IV-C oracle-dynamic and zero-migration candidates.
#[test]
fn zero_replication_matches_the_flagless_run() {
    for system in ["baseline", "starnuma"] {
        let plain = run_json(system, &[]);
        let replicated = run_json(system, &["--replication", "0"]);
        for key in ["ipc", "amat_ns", "pages_migrated"] {
            assert_eq!(
                field(&plain, key),
                field(&replicated, key),
                "{system}: {key} differs with --replication 0"
            );
        }
    }
}
