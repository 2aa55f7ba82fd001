//! `starnuma run` through the real binary.

use std::process::Command;

/// `run --json` on BFS at a tiny scale, plus `extra` flags.
fn run_json(system: &str, extra: &[&str]) -> String {
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
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The rendered value of a top-level numeric field of `run --json`.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let len = json[start..]
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} in {json}"));
    &json[start..start + len]
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
