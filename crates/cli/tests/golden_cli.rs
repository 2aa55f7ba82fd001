//! Byte-exact pins on what the CLI prints and writes: the stdout of
//! `run`, `compare` and `sweep` (text and `--json`), the run-log sections
//! their `--ledger` appends, and the `inspect`, `report`, `topology` and
//! `workloads` output. Each output is reduced to an FNV-1a digest at a
//! tiny scale; the host fields `wall_ns` and `jobs` of every run-record
//! line are zeroed first, since they measure the host, not the model.
//! Every invocation runs in one scratch directory with relative paths, so
//! the paths `report` prints are stable.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use starnuma_types::{digest_hex, fnv1a_digest};

/// The flags every simulation case shares.
const TINY: [&str; 8] = [
    "--scale",
    "quick",
    "--phases",
    "2",
    "--instructions",
    "8000",
    "--jobs",
    "2",
];

/// Runs the binary in `dir` with `args`, asserts success, and returns its
/// stdout.
fn stdout_in(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
        .current_dir(dir)
        .args(args)
        .env_remove("STARNUMA_JOBS")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `text` with the value of every `"wall_ns":` and `"jobs":` member
/// replaced by 0.
fn normalize(text: &str) -> String {
    let mut out = text.to_string();
    for key in ["\"wall_ns\":", "\"jobs\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let len = out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "0");
            from = start + 1;
        }
    }
    out
}

/// A fresh scratch directory for this test binary.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("starnuma-golden-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every case's output digest, in case order.
fn digests(dir: &Path) -> Vec<(&'static str, String)> {
    let sim = |args: &[&str]| stdout_in(dir, &[args, &TINY[..]].concat());
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("output file");
    let mut cases: Vec<(&'static str, String)> = vec![
        ("run", sim(&["run", "--workload", "bfs"])),
        (
            "run-baseline-replication",
            sim(&[
                "run",
                "--workload",
                "tc",
                "--system",
                "baseline",
                "--replication",
                "0.1",
            ]),
        ),
        (
            "run-json",
            sim(&["run", "--workload", "sssp", "--system", "t0", "--json"]),
        ),
        ("compare", sim(&["compare", "--workload", "tc"])),
        (
            "compare-json",
            sim(&[
                "compare",
                "--workload",
                "sssp",
                "--systems",
                "starnuma,t0,starnuma",
                "--json",
            ]),
        ),
        ("sweep", sim(&["sweep"])),
        (
            "sweep-json",
            sim(&["sweep", "--system", "t0", "--workloads", "bfs,tc", "--json"]),
        ),
    ];
    // The outputs read from run logs: each command's ledger, one ledger
    // holding all three, and the commands that read them back.
    sim(&["run", "--workload", "bfs", "--ledger", "run"]);
    sim(&[
        "compare",
        "--workload",
        "cc",
        "--systems",
        "t0,starnuma",
        "--ledger",
        "compare",
    ]);
    sim(&["sweep", "--workloads", "poa,bfs", "--ledger", "sweep"]);
    let sections = ["run", "compare", "sweep"].map(|led| read(&format!("{led}/runs.jsonl")));
    std::fs::create_dir_all(dir.join("led")).expect("ledger dir");
    std::fs::write(dir.join("led/runs.jsonl"), sections.concat()).expect("write ledger");
    let [run, compare, sweep] = sections;
    cases.extend([
        ("run-trace", run),
        ("compare-trace", compare),
        ("sweep-trace", sweep),
        ("ledger", read("led/runs.jsonl")),
        (
            "inspect-run",
            stdout_in(dir, &["inspect", "run/runs.jsonl"]),
        ),
        (
            "inspect-compare",
            stdout_in(dir, &["inspect", "compare/runs.jsonl", "--top", "3"]),
        ),
        (
            "inspect-sweep",
            stdout_in(dir, &["inspect", "sweep/runs.jsonl"]),
        ),
        ("report", stdout_in(dir, &["report", "--ledger", "led"])),
        (
            "report-json",
            stdout_in(dir, &["report", "--ledger", "led", "--json"]),
        ),
        ("topology", stdout_in(dir, &["topology"])),
        (
            "topology-full-scale",
            stdout_in(dir, &["topology", "--sockets", "32", "--full-scale"]),
        ),
        ("workloads", stdout_in(dir, &["workloads"])),
    ]);
    cases
        .into_iter()
        .map(|(name, text)| (name, digest_hex(fnv1a_digest(normalize(&text).as_bytes()))))
        .collect()
}

/// The pinned digests, one per case.
const GOLDEN: &[(&str, &str)] = &[
    ("run", "0x307ecb8ca535609c"),
    ("run-baseline-replication", "0x54ec8cbe12b6628e"),
    ("run-json", "0x45571a3875e0ffc5"),
    ("compare", "0x6733209e8d62d0a4"),
    ("compare-json", "0x0686b5d6d4b4dab5"),
    ("sweep", "0x80609fda4b8b429e"),
    ("sweep-json", "0x2c91af150dc47aef"),
    ("run-trace", "0x313994dca3a6020c"),
    ("compare-trace", "0xfa1a6cb64992aa50"),
    ("sweep-trace", "0x2c4b52c15ef942a0"),
    ("ledger", "0x1fc20135ca09a17a"),
    ("inspect-run", "0x26c27a4f3aa36ade"),
    ("inspect-compare", "0x28512d58c55ae843"),
    ("inspect-sweep", "0x13304d825ec0f0b1"),
    ("report", "0xdca67ab195822555"),
    ("report-json", "0x804131eb1d51ed21"),
    ("topology", "0x900771d21021f540"),
    ("topology-full-scale", "0x6831282282e54217"),
    ("workloads", "0x7907628fce77a34e"),
];

#[test]
fn normalize_zeroes_only_host_fields() {
    assert_eq!(
        normalize("{\"jobs\":16,\"wall_ns\":123,\"seed\":42}\n{\"wall_ns\":9}"),
        "{\"jobs\":0,\"wall_ns\":0,\"seed\":42}\n{\"wall_ns\":0}"
    );
}

/// Every CLI output matches its pinned digest.
#[test]
fn cli_outputs_match_the_pinned_digests() {
    let dir = scratch();
    let got = digests(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let table: String = got
        .iter()
        .map(|(name, hex)| format!("    (\"{name}\", \"{hex}\"),\n"))
        .collect();
    let want: Vec<(&str, String)> = GOLDEN
        .iter()
        .map(|&(name, hex)| (name, hex.to_string()))
        .collect();
    assert_eq!(got, want, "CLI outputs drifted; digests now:\n{table}");
}
