//! The run ledger, `starnuma report` and `starnuma inspect`, exercised
//! through the real binary so the exit-code and output contracts are
//! tested end to end. Fixture invocations run with the fixture directory
//! as the working directory and pass `--ledger .`, so the paths the
//! report prints are stable for byte-exact goldens.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn starnuma() -> Command {
    Command::new(env!("CARGO_BIN_EXE_starnuma"))
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/report")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `report --json` over the checked-in ledger is byte-identical across
/// invocations and matches the committed golden, and a clean ledger
/// exits zero.
#[test]
fn report_json_matches_golden_and_is_stable() {
    let run = || {
        starnuma()
            .current_dir(fixtures())
            .args(["report", "--ledger", ".", "--json"])
            .output()
            .expect("binary runs")
    };
    let first = run();
    let second = run();
    assert!(first.status.success(), "clean ledger must exit zero");
    assert_eq!(
        first.stdout, second.stdout,
        "report output must be byte-identical across invocations"
    );
    let golden = fs::read(fixtures().join("report.json.golden")).expect("golden present");
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&golden),
        "report --json drifted from the committed golden"
    );
}

/// Two records with the same (config digest, seed) but different result
/// digests are determinism drift: flagged in the output, non-zero exit.
#[test]
fn report_flags_determinism_drift() {
    let out = starnuma()
        .current_dir(fixtures().join("drift"))
        .args(["report", "--ledger", "."])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "drift must fail the report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("determinism drift: 1 flag(s)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("0xdeadbeefdeadbeef"), "stdout: {stdout}");
}

/// A real run appends a parseable record per run, with no profiler
/// `site.*` fields even under a `profile` wrapper; `report --json` over
/// the fresh ledger succeeds, counts them, and finds no drift between the
/// profiled and unprofiled runs.
#[test]
fn run_appends_ledger_records_report_reads_back() {
    let dir = temp_dir("starnuma-report-cli-ledger");
    let dir_s = dir.to_str().expect("utf-8");
    for (wrapper, jobs) in [(None, "1"), (None, "2"), (Some("profile"), "1")] {
        let out = starnuma()
            .args(wrapper)
            .args([
                "run",
                "--workload",
                "poa",
                "--scale",
                "quick",
                "--phases",
                "1",
                "--instructions",
                "3000",
                "--jobs",
                jobs,
                "--ledger",
                dir_s,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "run with --ledger must succeed");
    }
    let ledger = fs::read_to_string(dir.join("runs.jsonl")).expect("ledger written");
    assert_eq!(ledger.lines().count(), 3, "one record per run");
    for line in ledger.lines() {
        assert!(!line.contains("\"site."), "profiler fields: {line}");
    }
    let out = starnuma()
        .args(["report", "--ledger", dir_s, "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "identical reruns must not be flagged as drift: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"records\":3"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

/// Regression: trends were keyed by (workload, system) alone, so two run
/// sizes of one system printed as one trend whose IPC delta was the size
/// change. Each configuration digest is now its own row.
#[test]
fn report_keeps_configurations_apart() {
    let dir = temp_dir("starnuma-report-cli-configs");
    let dir_s = dir.to_str().expect("utf-8");
    for instructions in ["3000", "40000"] {
        let out = starnuma()
            .args([
                "run",
                "--workload",
                "poa",
                "--scale",
                "quick",
                "--phases",
                "1",
                "--instructions",
                instructions,
                "--jobs",
                "1",
                "--ledger",
                dir_s,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "run failed: {out:?}");
    }
    let report = |json: bool| {
        let out = starnuma()
            .args(["report", "--ledger", dir_s])
            .args(json.then_some("--json"))
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "report failed: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let json = report(true);
    assert_eq!(json.matches("\"runs\":1,").count(), 2, "{json}");
    assert_eq!(json.matches("\"config_digest\":").count(), 2, "{json}");
    let text = report(false);
    let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("POA ")).collect();
    assert_eq!(rows.len(), 2, "{text}");
    let config = |row: &str| {
        row.split_whitespace()
            .find(|t| t.starts_with("0x"))
            .map(str::to_owned)
    };
    assert!(config(rows[0]).is_some(), "rows name their config: {text}");
    assert_ne!(config(rows[0]), config(rows[1]), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

/// `inspect` on a zero-event trace says so instead of rendering an empty
/// timeline, and phases no event mentions produce no placeholder rows.
#[test]
fn inspect_handles_sparse_and_empty_traces() {
    let empty = starnuma()
        .current_dir(fixtures())
        .args(["inspect", "empty_trace.jsonl"])
        .output()
        .expect("binary runs");
    assert!(empty.status.success());
    let stdout = String::from_utf8_lossy(&empty.stdout);
    assert!(stdout.contains("(no events recorded)"), "stdout: {stdout}");
    assert!(!stdout.contains("phase 0:"), "stdout: {stdout}");

    let late = starnuma()
        .current_dir(fixtures())
        .args(["inspect", "late_phase_trace.jsonl"])
        .output()
        .expect("binary runs");
    assert!(late.status.success());
    let stdout = String::from_utf8_lossy(&late.stdout);
    assert!(stdout.contains("phase 2:"), "stdout: {stdout}");
    assert!(
        !stdout.contains("phase 0:") && !stdout.contains("phase 1:"),
        "eventless phases must not render placeholder rows: {stdout}"
    );
}

/// Regression: `inspect` used to walk every phase number from 0 to the
/// largest one an event names, so a corrupt `"phase":1e12` kept it busy
/// indefinitely. It now visits only the phases that occur.
#[test]
fn inspect_renders_only_the_phases_that_occur() {
    let out = starnuma()
        .current_dir(fixtures())
        .args(["inspect", "huge_phase_trace.jsonl"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "inspect failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("  phase 1000000000000: | 1 regions -> 128 pages"),
        "stdout: {stdout}"
    );
    assert_eq!(stdout.matches("  phase ").count(), 1, "stdout: {stdout}");
}

/// Bad input to `report` is a usage error (exit 1, the reason on stderr).
/// Regressions: a negative count in a ledger line used to read back as 0
/// and pass, and now names its line; `--jobs`, which `report` accepted
/// and ignored although it runs nothing, is now an unknown flag.
#[test]
fn report_rejects_corrupt_ledgers_and_unknown_flags() {
    let dir = temp_dir("starnuma-report-cli-corrupt");
    let ledger = fs::read_to_string(fixtures().join("runs.jsonl")).expect("fixture ledger");
    let mut lines: Vec<&str> = ledger.lines().collect();
    let corrupt = lines[1].replacen("\"pages_migrated\":2763", "\"pages_migrated\":-3", 1);
    assert_ne!(corrupt, lines[1], "fixture carries the field");
    lines[1] = &corrupt;
    fs::write(dir.join("runs.jsonl"), lines.join("\n")).expect("write ledger");
    let cases: [(&Path, &[&str], &str); 2] = [
        (
            &dir,
            &["report", "--ledger", "."],
            "runs.jsonl:2: not a valid ledger record",
        ),
        (
            &fixtures(),
            &["report", "--ledger", ".", "--jobs", "2"],
            "unknown flag --jobs for command 'report'",
        ),
    ];
    for (cwd, args, expected) in cases {
        let out = starnuma()
            .current_dir(cwd)
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}
