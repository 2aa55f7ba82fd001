//! Per-line source lints (SN001–SN005, SN008, SN009, SN011).
//!
//! These run over the lexer's reconstructed *code lines* — comments gone,
//! string/char contents blanked — so a forbidden token can never fire from
//! inside text, no matter how many lines the literal or comment spans.
//! The pass stays line-shaped on purpose: the brace-depth `#[cfg(test)]`
//! skip from the original scanner ports over unchanged.

use starnuma_types::Diagnostic;

use crate::lexer::{allow_lines, code_lines, lex};

/// Target types whose `as` casts SN009 treats as narrowing. Wider targets
/// (`u64`, `usize`, `f64`) cannot silently truncate the workspace's
/// counters; lossless widenings are not flagged.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Lints one source file's text. `label` names it in diagnostics;
/// `is_crate_root` enables the SN004 attribute check.
///
/// Fires every source rule unscoped; workspace-level crate scoping
/// (bench may read wall clocks, only sim/types get SN009, …) is applied
/// by [`crate::lints::scope_findings`] in the driver.
pub fn lint_source(label: &str, source: &str, is_crate_root: bool) -> Vec<Diagnostic> {
    let tokens = lex(source);
    let lines = code_lines(source, &tokens);
    let allows = allow_lines(&tokens);
    let mut findings = Vec::new();

    let mut depth: i64 = 0;
    // Depth at which the innermost `#[cfg(test)] mod { … }` was entered.
    let mut test_depth: Option<i64> = None;
    let mut pending_cfg_test = false;

    for (idx, code) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let trimmed = code.trim_start();

        if trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && !trimmed.starts_with('#') {
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                if code.contains('{') {
                    test_depth = test_depth.or(Some(depth));
                }
                // `mod x;` points at a separate file cargo only builds for
                // tests; nothing to skip here.
                pending_cfg_test = false;
            } else if !trimmed.is_empty() {
                pending_cfg_test = false;
            }
        }

        let in_test = test_depth.is_some();
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(td) = test_depth {
            if depth <= td {
                test_depth = None;
            }
        }

        if in_test || trimmed.is_empty() {
            continue;
        }

        let suppressed = |rule: &str| {
            allows
                .iter()
                .any(|(l, c)| c == rule && (*l == line_no || l + 1 == line_no))
        };
        let loc = format!("{label}:{line_no}");

        if !suppressed("SN001") {
            if code.contains(".unwrap()") {
                findings.push(Diagnostic::error(
                    "SN001",
                    loc.clone(),
                    "`unwrap()` in library code",
                    "return a typed StarNumaError (or mark `// audit:allow(SN001)` \
                     with a documented panic contract)",
                ));
            }
            if code.contains(".expect(") {
                findings.push(Diagnostic::error(
                    "SN001",
                    loc.clone(),
                    "`expect()` in library code",
                    "return a typed StarNumaError (or mark `// audit:allow(SN001)` \
                     with a documented panic contract)",
                ));
            }
            if code.contains("panic!(") {
                findings.push(Diagnostic::error(
                    "SN001",
                    loc.clone(),
                    "`panic!` in library code",
                    "return a typed StarNumaError (or mark `// audit:allow(SN001)` \
                     with a documented panic contract)",
                ));
            }
        }
        // Identifier-boundary match: a bare `Instant` binding smuggles the
        // host clock just as well as a literal `Instant::now()` call, but
        // `InstantLike`/`MyInstant` identifiers must not fire.
        if !suppressed("SN002")
            && (contains_identifier(code, "Instant") || contains_identifier(code, "SystemTime"))
        {
            findings.push(Diagnostic::error(
                "SN002",
                loc.clone(),
                "wall-clock type in a simulation crate",
                "simulated time only: derive timing from Cycles/Nanos; wall \
                 time goes through starnuma_prof::ProfClock (whose internals \
                 are the allow-listed exception)",
            ));
        }
        if !suppressed("SN003") && (code.contains("HashMap") || code.contains("HashSet")) {
            findings.push(Diagnostic::error(
                "SN003",
                loc.clone(),
                "hash collection in library code (iteration order is unstable)",
                "use BTreeMap/BTreeSet (all workspace keys are Ord), a dense \
                 Vec indexed by id, or drain through a sorted Vec",
            ));
        }
        // `println!(` is a suffix of `eprintln!(`, so one match covers both.
        if !suppressed("SN005") && code.contains("println!(") {
            findings.push(Diagnostic::error(
                "SN005",
                loc.clone(),
                "direct stdout/stderr print in library code",
                "emit a structured obs event instead (or mark \
                 `// audit:allow(SN005)` for deliberate operator output)",
            ));
        }
        if !suppressed("SN008")
            && (contains_identifier(code, "available_parallelism")
                || contains_identifier(code, "ThreadId")
                || code.contains("thread::current"))
        {
            findings.push(Diagnostic::error(
                "SN008",
                loc.clone(),
                "thread-topology read in a simulation crate",
                "worker counts and thread ids must never reach simulated \
                 state; keep them in the scheduling layer (or mark \
                 `// audit:allow(SN008)` with a determinism argument)",
            ));
        }
        if !suppressed("SN009") {
            if let Some(target) = narrowing_cast(code) {
                findings.push(Diagnostic::error(
                    "SN009",
                    loc.clone(),
                    format!("narrowing `as {target}` cast can silently truncate"),
                    "use `try_from` with a typed error, a lossless `::from`, \
                     or mark `// audit:allow(SN009)` with a bound argument",
                ));
            }
        }
        if !suppressed("SN011")
            && (code.contains(".sort_unstable_by(") || code.contains(".sort_unstable_by_key("))
        {
            findings.push(Diagnostic::error(
                "SN011",
                loc.clone(),
                "`sort_unstable` with a key extractor (ties reorder freely)",
                "use stable `sort_by` / `sort_by_key`, or mark \
                 `// audit:allow(SN011)` with a keys-are-unique argument",
            ));
        }
    }

    if is_crate_root {
        for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
            if !source.contains(attr) {
                findings.push(Diagnostic::error(
                    "SN004",
                    format!("{label}:1"),
                    format!("crate root is missing `{attr}`"),
                    "add the attribute below the crate-level doc comment",
                ));
            }
        }
    }

    findings
}

/// Whether `needle` occurs in `haystack` as a standalone identifier —
/// not as a substring of a longer one (`InstantLike`, `MyInstant`).
pub(crate) fn contains_identifier(haystack: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = !haystack[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !haystack[at + needle.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Finds the first narrowing `as <target>` cast on a code line, returning
/// the target type name.
fn narrowing_cast(code: &str) -> Option<&'static str> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find("as") {
        let at = start + pos;
        start = at + 2;
        // `as` must stand alone: not `alias`, not `has`.
        if code[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let rest = &code[at + 2..];
        if rest.chars().next().is_some_and(is_ident) {
            continue;
        }
        let target: String = rest
            .trim_start()
            .chars()
            .take_while(|c| is_ident(*c))
            .collect();
        if let Some(t) = NARROW_TARGETS.iter().find(|t| **t == target) {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_expect_and_panic() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let y = x.unwrap();\n    let z = x.expect(\"msg\");\n    panic!(\"no\");\n}\n";
        let codes: Vec<_> = lint_source("f.rs", src, false)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["SN001", "SN001", "SN001"]);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(lint_source("f.rs", src, false).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        None::<u32>.unwrap();\n        let m = std::collections::HashMap::<u32, u32>::new();\n        let _ = m;\n    }\n}\n";
        assert!(lint_source("f.rs", src, false).is_empty());
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\nfn after(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = lint_source("f.rs", src, false);
        assert_eq!(f.len(), 1);
        assert!(f[0].location.ends_with(":6"));
    }

    #[test]
    fn wallclock_and_hash_collections_flagged() {
        let src = "use std::time::Instant;\nuse std::collections::HashMap;\nfn f() { let _ = Instant::now(); }\n";
        let codes: Vec<_> = lint_source("f.rs", src, false)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["SN002", "SN003", "SN002"]);
    }

    #[test]
    fn bare_wallclock_types_flagged_on_identifier_boundaries() {
        let dirty = "pub struct Timer {\n    started: std::time::Instant,\n}\nfn f() -> u64 {\n    let t = std::time::SystemTime::UNIX_EPOCH;\n    let _ = t;\n    0\n}\n";
        let codes: Vec<_> = lint_source("f.rs", dirty, false)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["SN002", "SN002"]);
        let clean = "pub struct InstantLike;\npub struct MyInstant;\npub fn instant_of(x: InstantLike) -> InstantLike { x }\ntype SystemTimeout = u64;\n";
        assert!(lint_source("f.rs", clean, false).is_empty());
    }

    #[test]
    fn profclock_style_allow_markers_satisfy_sn002() {
        let clean = "use std::time::Instant; // audit:allow(SN002)\npub struct ProfClock {\n    at: Instant, // audit:allow(SN002)\n}\nimpl ProfClock {\n    pub fn stamp() -> Self {\n        // audit:allow(SN002)\n        ProfClock { at: Instant::now() }\n    }\n}\n";
        assert!(lint_source("f.rs", clean, false).is_empty());
    }

    #[test]
    fn ordered_and_dense_maps_are_accepted_where_hashmap_is_flagged() {
        let clean = "use std::collections::BTreeMap;\nuse starnuma_types::BlockAddr;\npub struct Directory {\n    entries: BTreeMap<BlockAddr, u32>,\n    slots: Vec<u32>,\n}\n";
        assert!(lint_source("f.rs", clean, false).is_empty());
        let dirty = "pub struct Directory {\n    entries: std::collections::HashMap<u64, u32>,\n    sharers: std::collections::HashSet<u64>,\n}\n";
        let codes: Vec<_> = lint_source("f.rs", dirty, false)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["SN003", "SN003"]);
    }

    #[test]
    fn allow_marker_suppresses_same_and_next_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // audit:allow(SN001)\n    let a = x.unwrap();\n    let b = x.unwrap(); // audit:allow(SN001)\n    a + b\n}\n";
        assert!(lint_source("f.rs", src, false).is_empty());
    }

    #[test]
    fn allow_marker_is_rule_specific() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // audit:allow(SN003)\n";
        assert_eq!(lint_source("f.rs", src, false).len(), 1);
    }

    #[test]
    fn direct_prints_are_flagged() {
        let src = "fn f() {\n    println!(\"hi\");\n    eprintln!(\"also\");\n}\n";
        let codes: Vec<_> = lint_source("f.rs", src, false)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["SN005", "SN005"]);
        let allowed = "fn f() {\n    eprintln!(\"ok\"); // audit:allow(SN005)\n}\n";
        assert!(lint_source("f.rs", allowed, false).is_empty());
    }

    #[test]
    fn tokens_inside_strings_do_not_fire() {
        let src = "fn f() -> &'static str { \"call .unwrap() or panic!(HashMap)\" }\n";
        assert!(lint_source("f.rs", src, false).is_empty());
    }

    #[test]
    fn tokens_inside_comments_do_not_fire() {
        let src = "fn f() {} // the old code called .unwrap() on a HashMap\n/// docs mention panic!(…) too\nfn g() {}\n";
        assert!(lint_source("f.rs", src, false).is_empty());
    }

    #[test]
    fn multiline_block_comments_and_raw_strings_do_not_leak() {
        // The line-based scanner's blind spots: tokens spanning or hiding
        // inside multi-line constructs.
        let src = "/* Instant\n   SystemTime on a later comment line */\nfn f() -> String {\n    let s = r#\"HashMap<u64, u64> println!(\"#.to_string();\n    let t = \"first\n.unwrap() second\".to_string();\n    s + &t\n}\n";
        assert!(lint_source("f.rs", src, false).is_empty());
    }

    #[test]
    fn crate_root_attributes_required() {
        let f = lint_source("src/lib.rs", "//! docs\npub fn x() {}\n", true);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|d| d.code == "SN004"));
        let ok = "//! docs\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn x() {}\n";
        assert!(lint_source("src/lib.rs", ok, true).is_empty());
    }

    #[test]
    fn lifetimes_do_not_confuse_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\n";
        assert!(lint_source("f.rs", src, false).is_empty());
    }

    #[test]
    fn should_panic_attribute_is_not_a_panic() {
        let src = "#[should_panic(expected = \"boom\")]\nfn not_really_lib() {}\n";
        assert!(lint_source("f.rs", src, false).is_empty());
    }

    #[test]
    fn thread_topology_reads_are_flagged() {
        let src = "fn f() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\nfn g() -> std::thread::ThreadId {\n    std::thread::current().id()\n}\n";
        let codes: Vec<_> = lint_source("f.rs", src, false)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["SN008", "SN008", "SN008"]);
        let allowed = "fn f() -> usize {\n    // audit:allow(SN008) worker count never reaches sim state\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
        assert!(lint_source("f.rs", allowed, false).is_empty());
    }

    #[test]
    fn narrowing_casts_are_flagged_and_widening_is_not() {
        let dirty = "fn f(x: u64) -> u32 { x as u32 }\n";
        let codes: Vec<_> = lint_source("f.rs", dirty, false)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["SN009"]);
        let clean = "fn f(x: u32) -> u64 { x as u64 }\nfn g(x: u32) -> usize { x as usize }\nfn h(x: u32) -> f64 { x as f64 }\nfn alias(x: u64) -> u64 { let has = x; has }\n";
        assert!(lint_source("f.rs", clean, false).is_empty());
        let allowed =
            "fn f(x: u64) -> u32 { x as u32 } // audit:allow(SN009) bounded by table size\n";
        assert!(lint_source("f.rs", allowed, false).is_empty());
    }

    #[test]
    fn keyed_unstable_sorts_are_flagged_but_plain_sorts_are_not() {
        let dirty = "fn f(v: &mut Vec<(u32, u32)>) {\n    v.sort_unstable_by_key(|e| e.0);\n    v.sort_unstable_by(|a, b| a.0.cmp(&b.0));\n}\n";
        let codes: Vec<_> = lint_source("f.rs", dirty, false)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["SN011", "SN011"]);
        let clean = "fn f(v: &mut Vec<u32>) {\n    v.sort_unstable();\n    v.sort();\n    v.sort_by_key(|e| *e);\n}\n";
        assert!(lint_source("f.rs", clean, false).is_empty());
    }
}
