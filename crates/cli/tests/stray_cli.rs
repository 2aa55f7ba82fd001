//! Every command states how many bare words it takes: one more is a usage
//! error that names it, through the real binary, never a run that ignores
//! it.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::process::Command;

/// A tiny simulation scale, so a command that wrongly accepts its stray
/// word still finishes quickly.
const TINY: [&str; 8] = [
    "--scale",
    "quick",
    "--phases",
    "1",
    "--instructions",
    "2000",
    "--jobs",
    "1",
];

#[test]
fn stray_positionals_are_rejected() {
    let ledger = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/report");
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["run", "poa", "--workload", "tc"], "poa"),
        (vec!["compare", "x", "--workload", "tc"], "x"),
        (vec!["sweep", "x", "--workloads", "poa"], "x"),
        (vec!["topology", "oops"], "oops"),
        (vec!["workloads", "extra"], "extra"),
        (vec!["report", "stray", "--ledger", ledger], "stray"),
        (vec!["inspect", "a", "b"], "b"),
        (vec!["bench-diff", "a", "b", "c"], "c"),
        (vec!["profile", "run", "x", "--workload", "tc"], "x"),
    ];
    let mut wrong = Vec::new();
    for (mut args, word) in cases {
        if matches!(args[0], "run" | "compare" | "sweep" | "profile") {
            args.extend(TINY);
        }
        let out = Command::new(env!("CARGO_BIN_EXE_starnuma"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or("");
        if out.status.code() != Some(1)
            || !first.starts_with("error: ")
            || !first.contains(&format!("'{word}'"))
        {
            wrong.push(format!(
                "{args:?}: exit {:?}, first stderr line {first:?}",
                out.status.code()
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "stray words not rejected by name:\n{}",
        wrong.join("\n")
    );
}
