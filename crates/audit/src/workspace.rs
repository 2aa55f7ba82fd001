//! The workspace lint driver.
//!
//! Discovers every `.rs` file (root `src/` plus `crates/*/src/`), runs the
//! source pass and the SN007 float-order pass per file, runs the manifest
//! pass, and returns one deduplicated finding list in stable
//! (path, line, code, message) order.

use std::fs;
use std::path::{Path, PathBuf};

use starnuma_types::{Diagnostic, StarNumaError};

use crate::items::extract;
use crate::lints::source::lint_source;
use crate::lints::{dataflow::lint_dataflow, manifest::lint_manifests, scope_findings};

/// Scans a workspace rooted at `root`: runs the source rules and SN007
/// over every `.rs` file and SN012 over the manifests, then dedupes and
/// sorts.
///
/// # Errors
///
/// Returns [`StarNumaError::Io`] when a source tree or an existing
/// manifest cannot be read, or when `root` contains no Rust sources at
/// all — a mistyped path must not read as a clean scan.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, StarNumaError> {
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut files_scanned = 0usize;

    for (src, crate_name) in source_dirs(root)? {
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            files_scanned += 1;
            let source = fs::read_to_string(&file)
                .map_err(|e| StarNumaError::Io(format!("{}: {e}", file.display())))?;
            let label = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .into_owned();
            let is_crate_root = file.file_name().is_some_and(|n| n == "lib.rs")
                && file.parent().is_some_and(|p| p.ends_with("src"));
            let mut f = lint_source(&label, &source, is_crate_root);
            scope_findings(&mut f, &crate_name);
            findings.extend(f);
            findings.extend(lint_dataflow(&extract(&label, &crate::lexer::lex(&source))));
        }
    }
    if files_scanned == 0 {
        return Err(StarNumaError::Io(format!(
            "{}: no Rust sources found (expected src/ or crates/*/src/)",
            root.display()
        )));
    }

    findings.extend(lint_manifests(root)?);
    sort_and_dedup(&mut findings);
    Ok(findings)
}

/// The source directories to scan: root `src/` plus every sorted
/// `crates/*/src/`, paired with the owning crate's directory name.
fn source_dirs(root: &Path) -> Result<Vec<(PathBuf, String)>, StarNumaError> {
    let mut src_dirs: Vec<(PathBuf, String)> = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        src_dirs.push((root_src, String::new()));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| StarNumaError::Io(format!("{}: {e}", crates_dir.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("src").is_dir())
            .collect();
        entries.sort();
        for c in entries {
            let name = c
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            src_dirs.push((c.join("src"), name));
        }
    }
    Ok(src_dirs)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), StarNumaError> {
    for entry in
        fs::read_dir(dir).map_err(|e| StarNumaError::Io(format!("{}: {e}", dir.display())))?
    {
        let entry = entry.map_err(|e| StarNumaError::Io(e.to_string()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Sorts findings by (path, numeric line, code, message) and removes exact
/// duplicates across passes.
pub fn sort_and_dedup(findings: &mut Vec<Diagnostic>) {
    fn split_loc(loc: &str) -> (String, usize) {
        match loc.rsplit_once(':') {
            Some((path, line)) => match line.parse::<usize>() {
                Ok(n) => (path.to_string(), n),
                Err(_) => (loc.to_string(), 0),
            },
            None => (loc.to_string(), 0),
        }
    }
    findings.sort_by(|a, b| {
        let (ap, al) = split_loc(&a.location);
        let (bp, bl) = split_loc(&b.location);
        (ap, al, a.code, &a.message).cmp(&(bp, bl, b.code, &b.message))
    });
    findings
        .dedup_by(|a, b| a.code == b.code && a.location == b.location && a.message == b.message);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_orders_by_path_then_numeric_line_then_code() {
        let mut f = vec![
            Diagnostic::error("SN003", "b.rs:2", "x", "h"),
            Diagnostic::error("SN001", "a.rs:10", "x", "h"),
            Diagnostic::error("SN001", "a.rs:2", "x", "h"),
            Diagnostic::error("SN002", "a.rs:2", "x", "h"),
        ];
        sort_and_dedup(&mut f);
        let keys: Vec<_> = f.iter().map(|d| (d.location.as_str(), d.code)).collect();
        assert_eq!(
            keys,
            vec![
                ("a.rs:2", "SN001"),
                ("a.rs:2", "SN002"),
                ("a.rs:10", "SN001"),
                ("b.rs:2", "SN003"),
            ]
        );
    }

    #[test]
    fn dedup_drops_exact_duplicates_only() {
        let mut f = vec![
            Diagnostic::error("SN001", "a.rs:2", "x", "h"),
            Diagnostic::error("SN001", "a.rs:2", "x", "h"),
            Diagnostic::error("SN001", "a.rs:2", "y", "h"),
        ];
        sort_and_dedup(&mut f);
        assert_eq!(f.len(), 2);
    }
}
