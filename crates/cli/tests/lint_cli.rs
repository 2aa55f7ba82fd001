//! The `starnuma lint` subcommand, exercised through the real binary so
//! the exit-code, report, and flag contracts are tested end to end.

use std::path::{Path, PathBuf};
use std::process::Command;

fn starnuma() -> Command {
    Command::new(env!("CARGO_BIN_EXE_starnuma"))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn dirty_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../audit/tests/fixture_ws")
}

#[test]
fn lint_exits_nonzero_on_the_dirty_fixture() {
    let out = starnuma()
        .args(["lint", "--root", dirty_fixture().to_str().expect("utf-8")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "dirty tree must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SN001"), "stdout: {stdout}");
    assert!(stdout.contains("SN007"), "stdout: {stdout}");
    assert!(stdout.contains("SN012"), "stdout: {stdout}");
}

#[test]
fn lint_json_format_emits_a_versioned_report() {
    let out = starnuma()
        .args([
            "lint",
            "--root",
            dirty_fixture().to_str().expect("utf-8"),
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .trim_start()
            .starts_with("{\"schema_version\":2,\"findings\":[{"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"code\":\"SN001\""), "stdout: {stdout}");
    assert!(!stdout.contains("files_scanned"), "stdout: {stdout}");
}

#[test]
fn lint_exits_zero_on_the_workspace_itself() {
    let root = workspace_root();
    let out = starnuma()
        .args(["lint", "--root", root.to_str().expect("utf-8")])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "workspace must stay lint-clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim(), "audit: no findings");
}

#[test]
fn lint_rejects_unknown_format() {
    // Flags `lint` does not take fail loudly, never silently ignored.
    for removed in [
        ["--format", "json"],
        ["--sarif", "lint.sarif"],
        ["--baseline", "ci/lint_baseline.json"],
    ] {
        let out = starnuma()
            .arg("lint")
            .args(removed)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{removed:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {} for command 'lint'", removed[0])),
            "{removed:?}: stderr: {stderr}"
        );
    }
}
