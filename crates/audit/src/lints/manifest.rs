//! Manifest drift lints (SN012) over `Cargo.toml` files.
//!
//! The workspace's dependency policy is structural: every crate depends on
//! sibling crates through `workspace = true` entries resolved by the root
//! manifest's path-only `[workspace.dependencies]` table, and every build
//! target forbids `unsafe_code` at its root. This pass parses just enough
//! TOML (sections, `key = value` lines, inline tables) to catch drift:
//! a crates.io dependency sneaking in, or a `main.rs` without the forbid.
//!
//! Suppression uses TOML comments: `# audit:allow(SN012)` on the line or
//! the line above — for a table-form `[dependencies.<name>]` section, on
//! or above its header.

use std::fs;
use std::path::Path;

use starnuma_types::{Diagnostic, StarNumaError};

/// Section headers whose entries are dependencies, after any
/// `target.<spec>.` prefix is stripped.
const DEP_SECTIONS: &[&str] = &[
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

/// How a manifest section relates to dependencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DepSection<'a> {
    /// `[dependencies]`: every `key = value` line is one dependency.
    Flat,
    /// `[dependencies.rand]`: the whole section is the one named dependency.
    Table(&'a str),
}

/// Classifies a section header (brackets stripped): `None` for sections
/// that hold no dependencies. `target.'cfg(unix)'.dependencies` and
/// friends count like their untargeted forms.
fn dep_section(section: &str) -> Option<DepSection<'_>> {
    let rest = match section.strip_prefix("target.") {
        // The spec is a bare triple or a quoted `cfg(…)` that may itself
        // contain dots.
        Some(spec) => match spec.chars().next() {
            Some(q @ ('\'' | '"')) => spec[1..].split_once(q)?.1.strip_prefix('.')?,
            _ => spec.split_once('.')?.1,
        },
        None => section,
    };
    DEP_SECTIONS
        .iter()
        .find_map(|kind| match rest.strip_prefix(kind)? {
            "" => Some(DepSection::Flat),
            name => name.strip_prefix('.').map(DepSection::Table),
        })
}

/// The SN012 finding for one dependency that is neither a workspace nor a
/// path dependency.
fn external_dep(label: &str, line_no: usize, name: &str, section: &str) -> Diagnostic {
    Diagnostic::error(
        "SN012",
        format!("{label}:{line_no}"),
        format!("dependency `{name}` in [{section}] is not a workspace/path dependency"),
        "route shared deps through [workspace.dependencies] with a \
         path (the workspace is zero-external-dependency by design), \
         or mark `# audit:allow(SN012)`",
    )
}

/// Lints one manifest's text. `label` names it in diagnostics.
pub fn lint_manifest_source(label: &str, source: &str) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    let mut section = String::new();
    // A `[dependencies.<name>]` table not yet shown to be in-repo: its
    // name and header line. Reported when the section ends.
    let mut open_table: Option<(String, usize)> = None;
    let mut prev_allowed = false;
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let allowed_here = raw.contains("audit:allow(SN012)");
        let allowed = allowed_here || prev_allowed;
        prev_allowed = allowed_here;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            if let Some((name, at)) = open_table.take() {
                findings.push(external_dep(label, at, &name, &section));
            }
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            if let Some(DepSection::Table(name)) = dep_section(&section) {
                if !allowed {
                    open_table = Some((name.to_string(), line_no));
                }
            }
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        match dep_section(&section) {
            Some(DepSection::Flat) => {
                // `foo.workspace = true` and `foo = { workspace = true }`
                // both delegate to the root table; `path = …` entries are
                // in-repo.
                let is_workspace_ref = name.ends_with(".workspace") && value == "true"
                    || value.contains("workspace = true")
                    || value.contains("workspace=true");
                let is_path_dep = value.contains("path =") || value.contains("path=");
                if !is_workspace_ref && !is_path_dep && !allowed {
                    let dep = name.trim_end_matches(".workspace");
                    findings.push(external_dep(label, line_no, dep, &section));
                }
            }
            Some(DepSection::Table(_))
                if name == "path" || name == "workspace" && value == "true" =>
            {
                open_table = None;
            }
            _ => {}
        }
    }
    if let Some((name, at)) = open_table {
        findings.push(external_dep(label, at, &name, &section));
    }
    findings
}

/// Lints every manifest under `root` (the root `Cargo.toml` plus each
/// `crates/*/Cargo.toml`), and checks that every build-target root
/// (`src/main.rs` next to a manifest) carries `#![forbid(unsafe_code)]` —
/// `lib.rs` roots are already covered by SN004.
///
/// # Errors
///
/// Returns [`StarNumaError::Io`] when the `crates/` directory, or a
/// manifest or bin root that exists, cannot be read as UTF-8 text: a file
/// the pass cannot see must not lint as clean.
pub fn lint_manifests(root: &Path) -> Result<Vec<Diagnostic>, StarNumaError> {
    let read = |path: &Path| {
        fs::read_to_string(path).map_err(|e| StarNumaError::Io(format!("{}: {e}", path.display())))
    };
    let label = |path: &Path| {
        path.strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned()
    };
    let mut findings = Vec::new();
    let mut manifest_dirs = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<_> = fs::read_dir(&crates_dir)
            .map_err(|e| StarNumaError::Io(format!("{}: {e}", crates_dir.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        manifest_dirs.extend(dirs);
    }
    for dir in manifest_dirs {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            findings.extend(lint_manifest_source(&label(&manifest), &read(&manifest)?));
        }
        let main_rs = dir.join("src").join("main.rs");
        if !main_rs.is_file() {
            continue;
        }
        let main_src = read(&main_rs)?;
        // Check *code*, not raw text: an attribute named inside a doc
        // comment must not satisfy the rule, and an allow marker is only
        // honored in a real comment.
        let tokens = crate::lexer::lex(&main_src);
        let code = crate::lexer::code_lines(&main_src, &tokens).join("\n");
        let allowed = crate::lexer::allow_lines(&tokens)
            .iter()
            .any(|(_, c)| c == "SN012");
        if !code.contains("#![forbid(unsafe_code)]") && !allowed {
            findings.push(Diagnostic::error(
                "SN012",
                format!("{}:1", label(&main_rs)),
                "binary root is missing `#![forbid(unsafe_code)]`",
                "bin targets are crate roots too; add the attribute \
                 below the crate-level doc comment",
            ));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_and_path_deps_are_clean() {
        for src in [
            "[package]\nname = \"x\"\n\n[dependencies]\nstarnuma-types = { workspace = true }\nstarnuma-sim.workspace = true\nlocal = { path = \"../local\" }\n",
            "[dependencies.local]\npath = \"../local\"\nversion = \"0.1\"\n\n[dependencies.types]\nworkspace = true\n",
            "[target.'cfg(unix)'.dependencies]\nstarnuma-types = { workspace = true }\n",
        ] {
            assert!(lint_manifest_source("Cargo.toml", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn external_deps_are_flagged() {
        let src = "[dependencies]\nserde = \"1.0\"\nrand = { version = \"0.8\" }\n";
        let f = lint_manifest_source("Cargo.toml", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|d| d.code == "SN012"));
        assert!(f[0].message.contains("`serde`"));
        // Table-form and target-specific sections: a table-form finding
        // points at its section header.
        for (src, lines) in [
            (
                "[dependencies.rand]\nversion = \"0.8\"\nfeatures = [\"small_rng\"]\n\n[dev-dependencies.criterion]\nversion = \"0.5\"\n",
                vec!["Cargo.toml:1", "Cargo.toml:5"],
            ),
            (
                "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n\n[target.x86_64-pc-windows-msvc.dev-dependencies]\nwinapi = \"0.3\"\n\n[target.'cfg(target_os = \"linux\")'.dependencies.nix]\nversion = \"0.27\"\n",
                vec!["Cargo.toml:2", "Cargo.toml:5", "Cargo.toml:7"],
            ),
        ] {
            let f = lint_manifest_source("Cargo.toml", src);
            let got: Vec<_> = f.iter().map(|d| d.location.as_str()).collect();
            assert_eq!(got, lines, "{src}");
        }
    }

    #[test]
    fn dev_dependencies_are_checked_too() {
        let src = "[dev-dependencies]\ncriterion = \"0.5\"\n";
        assert_eq!(lint_manifest_source("Cargo.toml", src).len(), 1);
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        for src in [
            "[dependencies]\nserde = \"1.0\" # audit:allow(SN012)\n# audit:allow(SN012)\nrand = \"0.8\"\n",
            "# audit:allow(SN012)\n[dependencies.rayon]\nversion = \"1.8\"\n",
        ] {
            assert!(lint_manifest_source("Cargo.toml", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let src = "[package]\nname = \"x\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[features]\ndefault = []\n";
        assert!(lint_manifest_source("Cargo.toml", src).is_empty());
    }

    #[test]
    fn workspace_dependencies_table_requires_paths() {
        let clean = "[workspace.dependencies]\nstarnuma-types = { path = \"crates/types\" }\n";
        assert!(lint_manifest_source("Cargo.toml", clean).is_empty());
        let dirty = "[workspace.dependencies]\nserde = \"1.0\"\n";
        assert_eq!(lint_manifest_source("Cargo.toml", dirty).len(), 1);
    }
}
