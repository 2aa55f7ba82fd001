//! `starnuma run` through the real binary.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::io::Read as _;
use std::process::{Command, Stdio};

use starnuma::obs::RunRecord;

/// The flags of a tiny `run --json` of BFS on `system`, plus `extra`.
fn run_json_args<'a>(system: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let base = [
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
    ];
    [&base[..], extra].concat()
}

/// Runs the binary with `args`, asserts success, and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `run --json` on BFS at a tiny scale, plus `extra` flags: the run's
/// record, printed as one line.
fn run_json(system: &str, extra: &[&str]) -> RunRecord {
    let text = stdout_of(&run_json_args(system, extra));
    let line = text
        .strip_suffix('\n')
        .expect("one newline-terminated line");
    RunRecord::from_json_line(line).unwrap_or_else(|| panic!("not a run record: {text}"))
}

/// A zero replica budget is inert, so `--replication 0` must report the
/// flagless run — on the baseline too, whose reported result is the
/// better of its §IV-C oracle-dynamic and zero-migration candidates.
#[test]
fn zero_replication_matches_the_flagless_run() {
    for system in ["baseline", "starnuma"] {
        let plain = run_json(system, &[]);
        let replicated = run_json(system, &["--replication", "0"]);
        let headline = |r: &RunRecord| (r.ipc, r.amat_ns, r.pages_migrated);
        assert_eq!(
            headline(&plain),
            headline(&replicated),
            "{system}: (ipc, amat_ns, pages_migrated) differ with --replication 0"
        );
    }
}

/// `run --json` prints the run line `--ledger` appends, byte for byte,
/// host fields included, and nothing else; the ledger holds that one run
/// line, at the head of the run's section. Recording a run does not
/// profile it: the record carries no profiler `site.*` fields.
#[test]
fn run_json_prints_the_ledger_record() {
    let dir = std::env::temp_dir().join(format!("starnuma-run-cli-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf-8 path");
    let printed = stdout_of(&run_json_args("starnuma", &["--ledger", dir_s]));
    let ledger = std::fs::read_to_string(dir.join("runs.jsonl")).expect("ledger written");
    let runs: Vec<&str> = ledger
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"run\""))
        .collect();
    assert_eq!(runs.len(), 1, "one run line: {ledger}");
    assert_eq!(
        ledger.lines().next(),
        Some(runs[0]),
        "the run line heads it"
    );
    assert_eq!(printed, format!("{}\n", runs[0]));
    let record = RunRecord::from_json_line(runs[0]).expect("a run record");
    assert_eq!((record.workload.as_str(), record.jobs), ("BFS", 1));
    assert!(record.wall_ns > 0, "host wall time stamped");
    assert!(
        !ledger.contains("\"site."),
        "profiler fields stamped: {ledger}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `compare --json` prints one record line per requested system, in the
/// requested order, even when the baseline is not listed first.
#[test]
fn compare_json_prints_one_record_per_requested_system() {
    let text = stdout_of(&[
        "compare",
        "--workload",
        "tc",
        "--systems",
        "starnuma,baseline",
        "--scale",
        "quick",
        "--phases",
        "1",
        "--instructions",
        "3000",
        "--jobs",
        "1",
        "--json",
    ]);
    let systems: Vec<String> = text
        .lines()
        .map(|line| {
            RunRecord::from_json_line(line)
                .unwrap_or_else(|| panic!("not a run record: {line}"))
                .system
        })
        .collect();
    assert_eq!(systems, ["StarNUMA (T16)", "Baseline"]);
}

/// A reader that closes the pipe before the output arrives (`starnuma
/// topology | head -1`) ends the command quietly with exit 0, where
/// printing used to panic with "failed printing to stdout: Broken pipe"
/// (exit 101).
#[test]
fn a_closed_stdout_pipe_is_not_a_failure() {
    for args in [
        vec!["topology", "--sockets", "64"],
        vec!["workloads"],
        run_json_args("starnuma", &[]),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_starnuma"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary starts");
        drop(child.stdout.take());
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("stderr readable");
        let status = child.wait().expect("binary exits");
        assert_eq!(status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Regression: seeds above 2^53 lost precision in the run record (`u64::MAX`
/// and `u64::MAX - 1` both wrote `18446744073709552000`), so `--seed` is
/// capped at 2^53, which the ledger and `inspect` carry exactly.
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
    let dir = std::env::temp_dir().join(format!("starnuma-run-cli-seed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(
        "9007199254740992",
        &["--ledger", dir.to_str().expect("utf-8 path")],
    );
    assert!(out.status.success(), "--seed 2^53 must run: {out:?}");
    let ledger = dir.join("runs.jsonl");
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    let run_line = text.lines().next().expect("run line");
    assert!(
        run_line.contains("\"seed\":9007199254740992,"),
        "{run_line}"
    );
    let inspect = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .arg("inspect")
        .arg(&ledger)
        .output()
        .expect("binary runs");
    assert!(inspect.status.success());
    assert!(String::from_utf8_lossy(&inspect.stdout).contains("seed 9007199254740992 "));
    let _ = std::fs::remove_dir_all(dir);
}

/// Regression: a path flag followed by `--json` took `--json` as its path,
/// so the run exited 0 and wrote a file named `--json`. A value that is
/// itself a flag is a usage error (exit 1) naming both flags, and nothing
/// runs: `--ledger --json` writes no ledger directory named `--json`.
#[test]
fn a_flag_is_not_taken_as_a_value() {
    let dir = std::env::temp_dir().join(format!("starnuma-run-cli-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .current_dir(&dir)
        .args(["run", "--workload", "poa", "--scale", "quick"])
        .args(["--phases", "1", "--instructions", "2000", "--jobs", "1"])
        .args(["--ledger", "--json"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--ledger") && stderr.contains("--json"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(left.is_empty(), "wrote {left:?}");
    let _ = std::fs::remove_dir(dir);
}

/// `--trace-out` is gone: the ledger holds each run's whole section. The
/// flag is unknown (exit 1), nothing runs and no file is written.
#[test]
fn trace_out_is_an_unknown_flag() {
    let dir = std::env::temp_dir().join(format!("starnuma-run-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .current_dir(&dir)
        .args(["run", "--workload", "poa", "--scale", "quick"])
        .args(["--phases", "1", "--instructions", "2000", "--jobs", "1"])
        .args(["--trace-out", "x"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag --trace-out"), "{stderr}");
    assert!(out.stdout.is_empty());
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(left.is_empty(), "wrote {left:?}");
    let _ = std::fs::remove_dir(dir);
}

/// Regression: arguments the model checks reject panicked (exit 101) in
/// `Runner::new` or the system-parameter checks; each must be a typed
/// usage error (exit 1) that names the finding.
#[test]
fn arguments_that_fail_model_checks_are_usage_errors() {
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
    let topology = |sockets| vec!["topology", "--sockets", sockets];
    let cases = [
        (run(&["--phases", "0"]), "RunConfig.phases = 0"),
        (
            run(&["--instructions", "0"]),
            "RunConfig.instructions_per_phase = 0",
        ),
        (topology("0"), "SystemParams.num_sockets = 0"),
        (topology("3"), "SystemParams.num_sockets = 3"),
        (topology("13"), "SystemParams.num_sockets = 13"),
        (topology("1028"), "SystemParams.num_sockets = 1028"),
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
}

/// `profile` prints its attribution tree after the wrapped command's
/// output, so with `--json` stdout would be a record line followed by
/// text. Each wrapped command rejects the pair with exit 1, runs nothing
/// and prints nothing to stdout.
#[test]
fn profile_rejects_json() {
    for sub in ["run", "compare", "sweep"] {
        let mut args = run_json_args("starnuma", &[]);
        args[0] = sub;
        args.insert(0, "profile");
        let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("profile cannot take --json"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
