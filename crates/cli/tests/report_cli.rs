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

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use starnuma_types::json::{parse, Json};

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

/// A real run appends a parseable record per run; `report --json` over
/// the fresh ledger succeeds and counts them.
#[test]
fn run_appends_ledger_records_report_reads_back() {
    let dir = temp_dir("starnuma-report-cli-ledger");
    let dir_s = dir.to_str().expect("utf-8");
    for jobs in ["1", "2"] {
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
    assert_eq!(ledger.lines().count(), 2, "one record per run");
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
    assert!(stdout.contains("\"records\":2"), "stdout: {stdout}");
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

/// Regression: a negative count in a ledger line used to read back as 0,
/// and `report` passed. A corrupt integer field now fails the report,
/// naming the line.
#[test]
fn report_rejects_corrupt_integer_fields() {
    let dir = temp_dir("starnuma-report-cli-corrupt");
    let ledger = fs::read_to_string(fixtures().join("runs.jsonl")).expect("fixture ledger");
    let mut lines: Vec<&str> = ledger.lines().collect();
    let corrupt = lines[1].replacen("\"pages_migrated\":2763", "\"pages_migrated\":-3", 1);
    assert_ne!(corrupt, lines[1], "fixture carries the field");
    lines[1] = &corrupt;
    fs::write(dir.join("runs.jsonl"), lines.join("\n")).expect("write ledger");
    let out = starnuma()
        .current_dir(&dir)
        .args(["report", "--ledger", "."])
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "a corrupt count must fail the report"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("runs.jsonl:2: not a valid ledger record"),
        "stderr: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `inspect --chrome` on a real trace: every paired `phase_checkpoint`
/// begin/end becomes one duration span lasting end seq − begin seq on its
/// phase's track, the pairing marker stays out of `args`, and every other
/// event stays an instant.
#[test]
fn inspect_chrome_pairs_checkpoint_edges_into_spans() {
    let dir = temp_dir("starnuma-report-cli-chrome");
    let run = starnuma()
        .current_dir(&dir)
        .args([
            "run",
            "--workload",
            "bfs",
            "--scale",
            "quick",
            "--jobs",
            "1",
        ])
        .args(["--trace-out", "t.jsonl"])
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "run failed: {run:?}");
    let inspect = starnuma()
        .current_dir(&dir)
        .args(["inspect", "t.jsonl", "--chrome", "c.json"])
        .output()
        .expect("binary runs");
    assert!(inspect.status.success(), "inspect failed: {inspect:?}");

    // Each phase's checkpoint edges in the trace: phase → (begin, end) seq.
    let trace = fs::read_to_string(dir.join("t.jsonl")).expect("trace written");
    let mut edges: BTreeMap<u64, (Option<f64>, Option<f64>)> = BTreeMap::new();
    let mut events = 0;
    for line in trace.lines() {
        let e = parse(line).expect("trace line parses");
        if field(&e, "type").as_str() != Some("event") {
            continue;
        }
        events += 1;
        if field(&e, "name").as_str() != Some("phase_checkpoint") {
            continue;
        }
        let seq = field(&e, "seq").as_num();
        let entry = edges.entry(num(&e, "phase") as u64).or_default();
        match get(&e, "edge").and_then(Json::as_str) {
            Some("begin") => entry.0 = seq,
            Some("end") => entry.1 = seq,
            _ => {}
        }
    }
    let paired: BTreeMap<u64, (f64, f64)> = edges
        .into_iter()
        .filter_map(|(phase, (b, e))| Some((phase, (b?, e?))))
        .collect();
    assert!(
        !paired.is_empty(),
        "the run must checkpoint at least one phase"
    );

    let chrome = parse(&fs::read_to_string(dir.join("c.json")).expect("chrome written"))
        .expect("chrome JSON parses");
    let trace_events = field(&chrome, "traceEvents").as_array().expect("array");
    let mut spans = BTreeMap::new();
    for e in trace_events {
        let args = field(e, "args").as_object().expect("args object");
        assert!(args.iter().all(|(k, _)| k != "edge"), "edge leaked: {e:?}");
        match field(e, "ph").as_str() {
            Some("X") => {
                assert_eq!(field(e, "name").as_str(), Some("phase_checkpoint"));
                let phase = num(e, "tid") as u64;
                assert!(
                    spans.insert(phase, (num(e, "ts"), num(e, "dur"))).is_none(),
                    "one span per phase"
                );
            }
            Some("i") => {}
            other => panic!("unexpected ph {other:?} in {e:?}"),
        }
    }
    let expected: BTreeMap<u64, (f64, f64)> = paired
        .iter()
        .map(|(&phase, &(begin, end))| (phase, (begin, end - begin)))
        .collect();
    assert_eq!(spans, expected, "span per paired phase, dur = end − begin");
    assert_eq!(
        trace_events.len(),
        events - paired.len(),
        "two edges fold into one span"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    let (_, value) = v.as_object()?.iter().find(|(k, _)| k == key)?;
    Some(value)
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    get(v, key).unwrap_or_else(|| panic!("no {key} in {v:?}"))
}

fn num(v: &Json, key: &str) -> f64 {
    field(v, key)
        .as_num()
        .unwrap_or_else(|| panic!("{key} not a number in {v:?}"))
}
