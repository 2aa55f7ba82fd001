//! The bench list and its docs agree. Every `[[bench]]` target in
//! `crates/bench/Cargo.toml` has a row in README's bench table and in
//! DESIGN.md's per-experiment index, and every bench either table names is
//! a declared target with a source file. A target no table lists prints
//! numbers no document reads; a row for a deleted bench points at nothing.

use std::collections::BTreeSet;
use std::path::Path;

/// The `name = "…"` of every `[[bench]]` table in a Cargo manifest.
fn declared_benches(manifest: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(name) = line.strip_prefix("name = ").filter(|_| in_bench) {
            names.insert(name.trim_matches('"').to_owned());
        }
    }
    names
}

/// The trimmed cells of each body row of the markdown table whose header
/// line starts with `header`.
fn table_rows<'a>(doc: &'a str, header: &str) -> Vec<Vec<&'a str>> {
    let mut lines = doc.lines().skip_while(|l| !l.starts_with(header));
    assert!(lines.next().is_some(), "no table headed {header:?}");
    lines
        .skip(1) // the |---| separator row
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect()
}

/// The `backticked` spans of a table cell.
fn code_spans(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

/// `(document, bench names its table lists)` for README and DESIGN.md.
fn documented_benches() -> [(&'static str, BTreeSet<String>); 2] {
    let readme = table_rows(include_str!("../README.md"), "| target | artifact |")
        .iter()
        .filter_map(|row| row.first())
        .flat_map(|cell| code_spans(cell))
        .map(str::to_owned)
        .collect();
    // DESIGN.md's last column names a bench by its source file, sometimes
    // with its `bench/benches/` path.
    let design = table_rows(include_str!("../DESIGN.md"), "| ID | Paper artifact |")
        .iter()
        .filter_map(|row| row.last())
        .flat_map(|cell| code_spans(cell))
        .filter_map(|span| span.strip_suffix(".rs"))
        .map(|path| path.rsplit('/').next().unwrap_or(path).to_owned())
        .collect();
    [("README.md", readme), ("DESIGN.md", design)]
}

#[test]
fn every_bench_target_has_a_row_in_both_tables() {
    let declared = declared_benches(include_str!("../crates/bench/Cargo.toml"));
    assert!(
        !declared.is_empty(),
        "crates/bench/Cargo.toml declares no bench"
    );
    for (doc, listed) in documented_benches() {
        let missing: Vec<&String> = declared.difference(&listed).collect();
        assert!(
            missing.is_empty(),
            "bench targets with no row in {doc}'s bench table: {missing:?}"
        );
    }
}

#[test]
fn every_documented_bench_is_a_target_with_a_source_file() {
    let declared = declared_benches(include_str!("../crates/bench/Cargo.toml"));
    let benches = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/benches");
    for (doc, listed) in documented_benches() {
        let stale: Vec<&String> = listed.difference(&declared).collect();
        assert!(
            stale.is_empty(),
            "{doc} lists benches that crates/bench/Cargo.toml does not declare: {stale:?}"
        );
        for name in &listed {
            assert!(
                benches.join(format!("{name}.rs")).is_file(),
                "{doc} lists {name}, which has no crates/bench/benches/{name}.rs"
            );
        }
    }
}
