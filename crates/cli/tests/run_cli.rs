//! `starnuma run` through the real binary.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

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

/// Regression: seeds above 2^53 lost precision in the run record (`u64::MAX`
/// and `u64::MAX - 1` both wrote `18446744073709552000`), so `--seed` is
/// capped at 2^53, which a trace and `inspect` carry exactly.
#[test]
fn seeds_are_capped_at_two_to_the_53_and_round_trip_there() {
    let run = |seed: &str, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_starnuma"))
            .current_dir(std::env::temp_dir())
            .args(["run", "--workload", "poa", "--scale", "quick"])
            .args(["--phases", "1", "--instructions", "2000", "--jobs", "1"])
            .args(["--seed", seed])
            .args(extra)
            .output()
            .expect("binary runs")
    };
    for seed in ["18446744073709551615", "9007199254740993"] {
        let out = run(seed, &[]);
        assert!(!out.status.success(), "--seed {seed} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("at most 2^53"), "stderr: {stderr}");
    }
    let trace = std::env::temp_dir().join("starnuma-run-cli-seed.jsonl");
    let trace_s = trace.to_str().expect("utf-8 path");
    let out = run("9007199254740992", &["--trace-out", trace_s]);
    assert!(out.status.success(), "--seed 2^53 must run: {out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let run_line = text.lines().next().expect("run line");
    assert!(
        run_line.contains("\"seed\":9007199254740992,"),
        "{run_line}"
    );
    let inspect = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .args(["inspect", trace_s])
        .output()
        .expect("binary runs");
    assert!(inspect.status.success());
    assert!(String::from_utf8_lossy(&inspect.stdout).contains("seed 9007199254740992 "));
    let _ = std::fs::remove_file(trace);
}

/// Regression: arguments the model checks reject panicked (exit 101) in
/// `Runner::new` or the trace generator; each must be a typed usage error
/// (exit 1) that names the finding.
#[test]
fn arguments_that_fail_model_checks_are_usage_errors() {
    let out_path = std::env::temp_dir().join("starnuma-run-cli-bad.sntr");
    let out_s = out_path.to_str().expect("utf-8 path");
    let _ = std::fs::remove_file(&out_path);
    let run = |extra: &[&'static str]| {
        let base = [
            "run",
            "--workload",
            "bfs",
            "--scale",
            "quick",
            "--jobs",
            "1",
        ];
        [&base[..], extra].concat()
    };
    let gen = |sockets| {
        let base = ["trace", "gen", "--workload", "bfs", "--out", out_s];
        [&base[..], &["--sockets", sockets]].concat()
    };
    let cases = [
        (run(&["--phases", "0"]), "RunConfig.phases = 0"),
        (
            run(&["--instructions", "0"]),
            "RunConfig.instructions_per_phase = 0",
        ),
        (gen("0"), "num_sockets = 0"),
        (gen("3"), "num_sockets = 3"),
        (gen("1028"), "num_sockets = 1028"),
        (
            vec!["topology", "--sockets", "13"],
            "SystemParams.num_sockets = 13",
        ),
        (
            vec![
                "compare",
                "--workload",
                "tc",
                "--jobs",
                "1",
                "--phases",
                "0",
            ],
            "RunConfig.phases = 0",
        ),
        (
            vec![
                "sweep",
                "--workloads",
                "tc",
                "--jobs",
                "1",
                "--instructions",
                "0",
            ],
            "RunConfig.instructions_per_phase = 0",
        ),
    ];
    for (args, finding) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(finding), "{args:?}: {stderr}");
    }
    assert!(
        !out_path.exists(),
        "a rejected trace gen must not write a file"
    );
}
