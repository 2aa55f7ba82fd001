//! Tier-1 audit gate: the two determinism rules clippy cannot express must
//! hold, invalid models must be rejected *before* simulation starts with
//! every problem named by its field, and same-seed runs must be
//! bit-identical.
//!
//! Every other rule is a stock lint: `[workspace.lints]` in the root
//! `Cargo.toml` and `clippy.toml` configure them, and CI's clippy step
//! enforces them. The two kept here:
//!
//! * **SN007** — float addition does not commute, so a float local summed
//!   with `+=` inside a `for`/`while`/`loop` body of non-test code needs a
//!   comment containing `canonical` (stating the iteration order) on that
//!   line or up to three lines above.
//! * **SN012** — every dependency in a workspace manifest is a
//!   `workspace = true` or `path = …` entry (the workspace has no external
//!   dependencies), and every manifest opts into `[lints] workspace = true`.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::fs;
use std::path::{Path, PathBuf};

use starnuma_migration::PolicyConfig;
use starnuma_sim::{RunConfig, Runner};
use starnuma_topology::{Network, SystemParams};
use starnuma_trace::Workload;
use starnuma_types::{Nanos, StarNumaError};

/// How many lines above a float accumulation a `canonical` comment still
/// covers it.
const CANONICAL_REACH: usize = 3;

/// The code tokens of a Rust source with their 1-based lines, plus the
/// lines of comments that contain `canonical`. Comments and the contents
/// of string and char literals produce no tokens, so a keyword in text
/// never counts.
fn lex(src: &str) -> (Vec<(usize, &str)>, Vec<usize>) {
    let b = src.as_bytes();
    let at = |i: usize| b.get(i).copied().unwrap_or(0);
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let (mut tokens, mut canonical) = (Vec::new(), Vec::new());
    let (mut i, mut line) = (0, 1);
    // Advances `i` to `end`, counting the newlines skipped.
    let skip_to = |i: &mut usize, line: &mut usize, end: usize| {
        *line += b[*i..end].iter().filter(|&&c| c == b'\n').count();
        *i = end;
    };
    while i < b.len() {
        let rest = &src[i..];
        // A string literal's prefix length and closing delimiter:
        // `"…"`, `b"…"`, `r#"…"#`, `br"…"`.
        let quote = {
            let p = usize::from(at(i) == b'b');
            let hashes = if at(i + p) == b'r' {
                b[i + p + 1..].iter().take_while(|&&c| c == b'#').count()
            } else {
                0
            };
            let raw = usize::from(at(i + p) == b'r');
            let open = i + p + raw + hashes;
            (at(open) == b'"' && (p + raw == 0 || !is_ident(at(i.wrapping_sub(1)))))
                .then(|| (open + 1, raw == 1, "\"".to_string() + &"#".repeat(hashes)))
        };
        if rest.starts_with("//") {
            let end = rest.find('\n').map_or(b.len(), |n| i + n);
            if src[i..end].contains("canonical") {
                canonical.push(line);
            }
            i = end;
        } else if rest.starts_with("/*") {
            let (start_line, mut nest, mut j) = (line, 0, i);
            while j < b.len() {
                if b[j..].starts_with(b"/*") {
                    nest += 1;
                    j += 2;
                } else if b[j..].starts_with(b"*/") {
                    nest -= 1;
                    j += 2;
                    if nest == 0 {
                        break;
                    }
                } else {
                    j += 1;
                }
            }
            if src[i..j.min(b.len())].contains("canonical") {
                canonical.push(start_line);
            }
            skip_to(&mut i, &mut line, j);
        } else if let Some((body, raw, close)) = quote {
            let mut j = body;
            while j < b.len() && !b[j..].starts_with(close.as_bytes()) {
                j += if !raw && b[j] == b'\\' { 2 } else { 1 };
            }
            skip_to(&mut i, &mut line, (j + close.len()).min(b.len()));
        } else if at(i) == b'\'' {
            // A char literal (`'x'`, `'\n'`, `'→'`) is skipped whole; a
            // lifetime's quote is dropped and its name lexes as an ident.
            let width = rest[1..].chars().next().map_or(0, char::len_utf8);
            if at(i + 1) == b'\\' {
                let end = rest
                    .get(3..)
                    .and_then(|r| r.find('\''))
                    .map_or(b.len(), |n| i + 4 + n);
                skip_to(&mut i, &mut line, end);
            } else if at(i + 1 + width) == b'\'' {
                i += 2 + width;
            } else {
                i += 1;
            }
        } else if is_ident(at(i)) {
            let mut j = i + 1;
            while is_ident(at(j))
                || at(j) == b'.' && at(i).is_ascii_digit() && at(j + 1).is_ascii_digit()
            {
                j += 1;
            }
            tokens.push((line, &src[i..j]));
            i = j;
        } else {
            let width = rest.chars().next().map_or(1, char::len_utf8);
            if at(i) == b'\n' {
                line += 1;
            } else if !at(i).is_ascii_whitespace() {
                tokens.push((line, &rest[..width]));
            }
            i += width;
        }
    }
    (tokens, canonical)
}

/// SN007: the lines of `src` where a float local is summed with `+=`
/// inside a loop body of non-test code without a `canonical` comment
/// within reach.
///
/// A float local is a `let mut x` whose type names `f32`/`f64` or whose
/// initializer is a float literal; it is forgotten when its block closes.
/// `#[cfg(test)]` modules and `#[test]` fns are skipped by brace depth.
fn float_order_findings(src: &str) -> Vec<usize> {
    let (tokens, canonical) = lex(src);
    let text = |i: usize| tokens.get(i).map_or("", |t| t.1);
    let mut findings = Vec::new();
    let (mut depth, mut nest) = (0usize, 0usize);
    // The depth to return to when the test item being skipped closes.
    let mut test_item: Option<usize> = None;
    let mut test_attr = false;
    let mut impl_header = false;
    // The paren nesting of a loop header still waiting for its body `{`.
    let mut loop_header: Option<usize> = None;
    // The depth inside each open loop body, and each float local's block.
    let mut loops: Vec<usize> = Vec::new();
    let mut floats: Vec<(&str, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (line, tok) = tokens[i];
        match tok {
            "{" => {
                if test_attr {
                    test_item.get_or_insert(depth);
                    test_attr = false;
                }
                depth += 1;
                if loop_header == Some(nest) {
                    loops.push(depth);
                    loop_header = None;
                }
                impl_header = false;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if test_item == Some(depth) {
                    test_item = None;
                }
                test_attr = false;
                loops.retain(|&d| d <= depth);
                floats.retain(|&(_, d)| d <= depth);
            }
            "(" | "[" => nest += 1,
            ")" | "]" => nest = nest.saturating_sub(1),
            ";" if nest == 0 => {
                test_attr = false;
                impl_header = false;
                loop_header = None;
            }
            "#" => {
                // Read the attribute whole, so its brackets never count.
                let body = i + 1 + usize::from(text(i + 1) == "!");
                let mut j = body;
                let mut brackets = 0;
                while j < tokens.len() {
                    match text(j) {
                        "[" => brackets += 1,
                        "]" => brackets -= 1,
                        _ => {}
                    }
                    j += 1;
                    if brackets == 0 {
                        break;
                    }
                }
                let attr: Vec<&str> = tokens[body.min(j)..j].iter().map(|t| t.1).collect();
                if attr.get(1) == Some(&"test")
                    || attr.windows(3).any(|w| w == ["cfg", "(", "test"])
                {
                    test_attr = true;
                }
                i = j;
                continue;
            }
            "impl" | "trait" => impl_header = true,
            "for" if !impl_header && text(i + 1) != "<" => loop_header = Some(nest),
            "while" | "loop" => loop_header = Some(nest),
            "let" if text(i + 1) == "mut" => {
                let mut j = i + 3;
                let mut is_float = false;
                while j < tokens.len() && !matches!(text(j), "=" | ";") {
                    is_float |= matches!(text(j), "f32" | "f64");
                    j += 1;
                }
                let init = text(j + 1);
                if text(j) == "=" && init.starts_with(|c: char| c.is_ascii_digit()) {
                    is_float |=
                        init.contains('.') || init.ends_with("f32") || init.ends_with("f64");
                }
                if is_float {
                    floats.push((text(i + 2), depth));
                }
            }
            name if test_item.is_none()
                && !loops.is_empty()
                && text(i + 1) == "+"
                && text(i + 2) == "="
                && floats.iter().any(|&(f, _)| f == name)
                && !canonical
                    .iter()
                    .any(|&c| c <= line && line - c <= CANONICAL_REACH) =>
            {
                findings.push(line);
            }
            _ => {}
        }
        i += 1;
    }
    findings
}

/// Dependency sections of a manifest.
const DEP_SECTIONS: &[&str] = &[
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

/// SN012: the findings for one `Cargo.toml`, as `line N: message`.
fn manifest_findings(src: &str) -> Vec<String> {
    let mut findings = Vec::new();
    let mut section = String::new();
    let mut lints_opt_in = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').trim().to_string();
            let table = DEP_SECTIONS
                .iter()
                .any(|d| section.starts_with(&format!("{d}.")));
            if table || section.starts_with("target.") {
                findings.push(format!(
                    "line {}: [{section}] tables are not used here",
                    idx + 1
                ));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.replace(' ', ""));
        if section == "lints" && key == "workspace" && value == "true" {
            lints_opt_in = true;
        }
        let in_repo = key.ends_with(".workspace") && value == "true"
            || value.contains("workspace=true")
            || value.contains("path=");
        if DEP_SECTIONS.contains(&section.as_str()) && !in_repo {
            findings.push(format!(
                "line {}: dependency `{key}` in [{section}] is not a workspace or path dependency",
                idx + 1
            ));
        }
    }
    if !lints_opt_in {
        findings.push("missing `[lints] workspace = true`".to_string());
    }
    findings
}

/// The root package and every `crates/*` member, sorted.
fn member_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs.insert(0, root.to_path_buf());
    dirs
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir is readable") {
        let path = entry.expect("source dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// SN007 over every `src/` tree and SN012 over every manifest, as
/// `path:line` findings.
fn workspace_findings(root: &Path) -> Vec<String> {
    let read = |p: &Path| fs::read_to_string(p).expect("workspace file is readable");
    let label = |p: &Path| p.strip_prefix(root).unwrap_or(p).display().to_string();
    let mut findings = Vec::new();
    let mut scanned = 0;
    for dir in member_dirs(root) {
        let manifest = dir.join("Cargo.toml");
        for f in manifest_findings(&read(&manifest)) {
            findings.push(format!("SN012 {} {f}", label(&manifest)));
        }
        let mut files = Vec::new();
        rust_sources(&dir.join("src"), &mut files);
        files.sort();
        scanned += files.len();
        for file in files {
            for line in float_order_findings(&read(&file)) {
                findings.push(format!(
                    "SN007 {}:{line}: float `+=` in a loop without a `canonical` order comment",
                    label(&file)
                ));
            }
        }
    }
    assert!(
        scanned > 50,
        "only {scanned} source files found under {}",
        root.display()
    );
    findings
}

/// The workspace must pass both scans. The only way to accept a float
/// accumulation is a `canonical` comment stating its iteration order.
#[test]
fn workspace_is_lint_clean_modulo_the_checked_in_baseline() {
    let findings = workspace_findings(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        findings.is_empty(),
        "audit scan must stay clean:\n{}",
        findings.join("\n")
    );
}

#[test]
fn float_order_scan_flags_only_uncovered_loop_sums_in_library_code() {
    let dirty = "fn mean(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    for x in xs {\n        total += x;\n    }\n    total\n}\n";
    assert_eq!(float_order_findings(dirty), [4]);
    for (src, lines) in [
        // A `while` body and an annotated local; the integer counter is fine.
        ("fn w(xs: &[f64]) -> f64 {\n    let mut t: f64 = 0.;\n    let mut i = 0usize;\n    while i < xs.len() {\n        t += xs[i];\n        i += 1;\n    }\n    t\n}\n", vec![5]),
        // A note four lines up is out of reach.
        ("fn f(xs: &[f64]) -> f64 {\n    // canonical order: slice order\n    let mut t = 0.0;\n    let n = xs.len();\n    for x in xs {\n        t += x;\n    }\n    t\n}\n", vec![6]),
        // Code after a test module is scanned again.
        ("#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn f(xs: &[f64]) -> f64 {\n    let mut t = 0.0;\n    loop {\n        t += 1.0;\n        if t > 2.0 { break; }\n    }\n    t\n}\n", vec![8]),
    ] {
        assert_eq!(float_order_findings(src), lines, "{src}");
    }
    for clean in [
        // A canonical-order note within reach.
        "fn mean(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    // canonical order: xs is slice-ordered by caller\n    for x in xs {\n        total += x;\n    }\n    total\n}\n",
        // A canonical-order note on the line itself.
        "fn mean(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    for x in xs {\n        total += x; // canonical order: all inputs are equal\n    }\n    total\n}\n",
        // Test code.
        "#[test]\nfn mean() {\n    let mut total = 0.0;\n    for x in [1.0, 2.0] {\n        total += x;\n    }\n    assert!(total > 0.0);\n}\n",
        // A sum outside any loop, and an `impl … for` header.
        "struct S;\nimpl Iterator for S {\n    type Item = f64;\n    fn next(&mut self) -> Option<f64> {\n        let mut t = 0.0;\n        t += 1.0;\n        Some(t)\n    }\n}\n",
        // Loops and sums inside strings and comments.
        "fn f() -> f64 {\n    let mut t = 0.0;\n    let s = \"for x in y { t += x }\";\n    /* for x in y {\n       t += x } */\n    let c = '{';\n    let _ = (s, c);\n    t\n}\n",
        // A float local whose block closed before the loop.
        "fn f(xs: &[u64]) -> u64 {\n    {\n        let mut t = 0.0;\n        t += 1.0;\n    }\n    let mut t = 0;\n    for x in xs {\n        t += x;\n    }\n    t\n}\n",
    ] {
        assert!(float_order_findings(clean).is_empty(), "{clean}");
    }
}

#[test]
fn manifest_scan_requires_in_repo_deps_and_the_lints_opt_in() {
    let clean = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n\n[dependencies]\nstarnuma-types = { workspace = true }\nstarnuma-sim.workspace = true\nlocal = { path = \"../local\" }\n\n[dev-dependencies]\nstarnuma-bench = { path = \"../bench\" } # harness\n";
    assert!(manifest_findings(clean).is_empty());
    let dirty = "[workspace.dependencies]\nserde = \"1.0\"\n\n[dev-dependencies]\nrand = { version = \"0.8\" }\n\n[dependencies.local]\npath = \"../local\"\n\n[target.'cfg(unix)'.dependencies]\nstarnuma-types = { workspace = true }\n";
    let found = manifest_findings(dirty);
    let lines: Vec<&str> = found
        .iter()
        .map(|f| f.split(':').next().unwrap_or(""))
        .collect();
    assert_eq!(
        lines,
        [
            "line 2",
            "line 5",
            "line 7",
            "line 10",
            "missing `[lints] workspace = true`"
        ],
        "{found:?}"
    );
}

/// The field each problem line of `err` names, in order: the text before
/// its ` = `.
fn rejected_fields(err: &StarNumaError) -> Vec<&str> {
    err.problems()
        .iter()
        .map(|line| line.split(" = ").next().unwrap_or(line))
        .collect()
}

#[test]
fn negative_latency_is_rejected_with_sn101() {
    let mut config = RunConfig::default();
    config.params.mem_base = Nanos::new(-1.0);
    let err = Runner::try_new(Workload::Bfs.profile(), config).expect_err("invalid");
    assert_eq!(rejected_fields(&err), ["SystemParams.mem_base"]);
}

#[test]
fn out_of_range_pool_fraction_is_rejected_with_sn102() {
    let config = RunConfig {
        pool_capacity_frac: 1.5,
        ..RunConfig::default()
    };
    let err = Runner::try_new(Workload::Tpcc.profile(), config).expect_err("invalid");
    assert_eq!(rejected_fields(&err), ["RunConfig.pool_capacity_frac"]);
}

#[test]
fn pool_below_hot_set_still_runs() {
    // The small-pool study and the failure-injection tests size the pool
    // below the workload's hot set on purpose.
    let config = RunConfig {
        pool_capacity_frac: 0.01,
        ..RunConfig::default()
    };
    let profile = Workload::Bfs.profile();
    let cap = config.pool_capacity_pages(profile.footprint_pages) as f64;
    assert!(cap < profile.footprint_pages as f64 * profile.hot_page_frac);
    assert!(Runner::try_new(profile, config).is_ok());
}

#[test]
fn policy_presets_nest_their_thresholds() {
    // Algorithm 1's adaptive thresholds only make sense when their bounds
    // nest; the presets are the only way the pipeline builds a policy.
    let nests =
        |c: PolicyConfig| c.hi_min <= c.hi_init && c.hi_init <= c.hi_max && c.lo_init <= c.lo_max;
    for mean in [0, 1, 2, 15, 16, 100, 20_000, 1 << 40] {
        assert!(nests(PolicyConfig::t16_scaled(mean)), "t16_scaled({mean})");
    }
    for sockets in [4, 16, 1024] {
        assert!(nests(PolicyConfig::t0(sockets)), "t0({sockets})");
    }
    let mut hi = PolicyConfig::t16_scaled(100);
    hi.hi_init = hi.hi_max + 1;
    let mut lo = PolicyConfig::t16_scaled(100);
    lo.lo_init = lo.lo_max + 1;
    assert!(!nests(hi) && !nests(lo));
}

#[test]
fn disconnected_topology_is_rejected_with_sn104() {
    let mut params = SystemParams::scaled_baseline();
    params.numalinks_per_chassis_pair = 0;
    let err = params.check().expect_err("invalid");
    assert_eq!(
        rejected_fields(&err),
        ["SystemParams.numalinks_per_chassis_pair"]
    );
    assert!(err.problems()[0].contains("disconnected"));
    let built = std::panic::catch_unwind(|| Network::new(&params));
    assert!(
        built.is_err(),
        "Network::new must refuse the same parameters"
    );
}

#[test]
fn diagnostics_accumulate_across_layers() {
    let mut config = RunConfig::default();
    config.params.upi_one_way = Nanos::new(0.0);
    config.params.numalinks_per_chassis_pair = 0;
    config.pool_capacity_frac = -0.5;
    let err = Runner::try_new(Workload::Cc.profile(), config).expect_err("invalid");
    assert_eq!(
        rejected_fields(&err),
        [
            "SystemParams.upi_one_way",
            "SystemParams.numalinks_per_chassis_pair",
            "RunConfig.pool_capacity_frac"
        ]
    );
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let config = RunConfig {
        phases: 2,
        instructions_per_phase: 12_000,
        warmup_instructions: 2_000,
        ..RunConfig::default()
    };
    let a = Runner::new(Workload::Bfs.profile(), config.clone()).run();
    let b = Runner::new(Workload::Bfs.profile(), config).run();
    assert_eq!(a, b, "two same-seed runs must produce identical RunResults");
}
