//! End-to-end scan of the deliberately dirty fixture tree under
//! `tests/fixture_ws` (which carries no workspace `Cargo.toml`, so cargo
//! never compiles it — the analyzer sees it purely as text). The fixture
//! fires every rule at least once and carries clean twins that must stay
//! silent.

use std::fs;
use std::path::Path;

use starnuma_audit::{lint_workspace, render_human, render_json};

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixture_ws")
}

#[test]
fn fixture_violations_are_found_with_exact_codes() {
    let findings = lint_workspace(&fixture_root()).expect("fixture tree is readable");
    let got: Vec<(&str, &str)> = findings
        .iter()
        .map(|d| (d.location.as_str(), d.code))
        .collect();
    assert_eq!(
        got,
        [
            ("crates/sim/Cargo.toml:12", "SN012"),
            ("crates/sim/src/lib.rs:14", "SN007"),
            ("crates/sim/src/lib.rs:31", "SN008"),
            ("crates/sim/src/lib.rs:36", "SN009"),
            ("crates/sim/src/lib.rs:51", "SN011"),
            ("crates/sim/src/lib.rs:63", "SN005"),
            ("crates/sim/src/main.rs:1", "SN012"),
            ("src/lib.rs:1", "SN004"),
            ("src/lib.rs:1", "SN004"),
            ("src/lib.rs:5", "SN001"),
            ("src/lib.rs:8", "SN002"),
            ("src/lib.rs:9", "SN002"),
            ("src/lib.rs:12", "SN002"),
            ("src/lib.rs:13", "SN002"),
            ("src/lib.rs:16", "SN003"),
            ("src/lib.rs:17", "SN003"),
        ],
        "findings:\n{}",
        render_human(&findings)
    );
    assert!(findings.iter().all(|d| d.is_error()));
}

#[test]
fn every_rule_fires_in_the_fixture() {
    let findings = lint_workspace(&fixture_root()).expect("fixture tree is readable");
    let mut codes: Vec<&str> = findings.iter().map(|d| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(
        codes,
        [
            "SN001", "SN002", "SN003", "SN004", "SN005", "SN007", "SN008", "SN009", "SN011",
            "SN012"
        ]
    );
}

#[test]
fn comments_strings_and_scoping_exemptions_hold() {
    let findings = lint_workspace(&fixture_root()).expect("fixture tree is readable");
    // The allow-marked ProfClock-style Instant field (line 30), the
    // `InstantLike` identifiers (lines 33/35), the allow-marked unwrap
    // (line 41), and the test-module unwrap must not be reported — nor may
    // the `/* Instant */` block comment, the `r#"HashMap"#` raw string, or
    // the `"println!("` string literal at the bottom of the root file.
    assert_eq!(
        findings
            .iter()
            .filter(|d| d.location.starts_with("src/lib.rs"))
            .filter(|d| {
                let line: usize = d.location.rsplit_once(':').unwrap().1.parse().unwrap();
                line > 17
            })
            .count(),
        0,
        "nothing after root line 17 may fire:\n{}",
        render_human(&findings)
    );
    // Front-end scoping: the root package's println! is exempt from SN005.
    assert!(!findings
        .iter()
        .any(|d| d.code == "SN005" && d.location.starts_with("src/lib.rs")));
    // The clean twins in the sim crate stay silent: exactly one finding
    // per rule.
    for code in ["SN007", "SN008", "SN009", "SN011"] {
        assert_eq!(
            findings.iter().filter(|d| d.code == code).count(),
            1,
            "{code} must fire exactly once"
        );
    }
    // The allow-marked external dep in the fixture manifest stays clean.
    assert_eq!(findings.iter().filter(|d| d.code == "SN012").count(), 2);
}

#[test]
fn a_sourceless_root_is_an_error_not_a_clean_scan() {
    // A mistyped --root must not read as "no findings".
    let err = lint_workspace(Path::new("/nonexistent-starnuma-root")).expect_err("must fail");
    assert!(err.to_string().contains("no Rust sources"), "got: {err}");
}

#[test]
fn renderers_cover_every_finding() {
    let findings = lint_workspace(&fixture_root()).expect("fixture tree is readable");
    let human = render_human(&findings);
    assert!(human.contains("16 finding(s)"), "summary in: {human}");
    assert!(human.contains("error[SN004]"));
    assert!(human.contains("error[SN012]"));
    let json = render_json(&findings);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches("\"code\"").count(), 16);
}

#[test]
fn an_unreadable_manifest_is_an_error_not_a_clean_scan() {
    // A manifest with a crates.io dependency and one byte of invalid
    // UTF-8: skipping it would hide the SN012 finding.
    let root = std::env::temp_dir().join(format!("starnuma-audit-badtoml-{}", std::process::id()));
    fs::create_dir_all(root.join("src")).expect("temp tree");
    fs::write(
        root.join("src/lib.rs"),
        "//! ok\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n",
    )
    .expect("write lib.rs");
    fs::write(
        root.join("Cargo.toml"),
        b"[package]\nname = \"x\xff\"\n\n[dependencies]\nrand = \"0.8\"\n".as_slice(),
    )
    .expect("write Cargo.toml");
    let result = lint_workspace(&root);
    fs::remove_dir_all(&root).ok();
    let err = result.expect_err("a non-UTF-8 manifest must not lint as clean");
    assert!(err.to_string().contains("Cargo.toml"), "got: {err}");
}
