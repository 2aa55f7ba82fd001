//! The float-order lint (SN007) over one file's item facts.
//!
//! Float addition does not commute, so a loop that sums floats produces
//! a result that depends on iteration order. The pass needs more than one
//! code line — which locals are float-typed, whether the `+=` sits inside
//! a loop body, whether the fn is test code — so it walks the facts
//! [`crate::items`] extracts rather than the line view.

use starnuma_types::Diagnostic;

use crate::items::FileFacts;

/// How many lines above a float accumulation a `canonical`-order comment
/// still counts as covering it.
const CANONICAL_COMMENT_REACH: usize = 3;

/// Runs SN007 over one file's facts: every float accumulation in a
/// non-test loop needs a canonical-order note or an allow marker.
pub fn lint_dataflow(file: &FileFacts) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for f in file.fns.iter().filter(|f| !f.in_test) {
        for acc in &f.accums {
            let covered = file
                .canonical_lines
                .iter()
                .any(|l| *l <= acc.line && acc.line - l <= CANONICAL_COMMENT_REACH);
            if covered || file.allowed("SN007", acc.line) {
                continue;
            }
            findings.push(Diagnostic::error(
                "SN007",
                format!("{}:{}", file.path, acc.line),
                format!(
                    "float accumulator `{}` summed in a loop without a \
                     canonical-order note",
                    acc.name
                ),
                "float addition is order-sensitive: state the iteration \
                 order in a `// canonical order: …` comment within 3 \
                 lines, or mark `// audit:allow(SN007)`",
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_dataflow(&extract("sim/m.rs", &lex(src)))
    }

    #[test]
    fn sn007_requires_canonical_note_within_reach() {
        let f = lint("fn mean(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    for x in xs {\n        total += x;\n    }\n    total\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "SN007");
        assert_eq!(f[0].location, "sim/m.rs:4");

        for clean in [
            // A canonical-order note within reach.
            "fn mean(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    // canonical order: xs is slice-ordered by caller\n    for x in xs {\n        total += x;\n    }\n    total\n}\n",
            // An allow marker on the line above.
            "fn mean(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    for x in xs {\n        // audit:allow(SN007) order-free: all inputs are equal\n        total += x;\n    }\n    total\n}\n",
            // Test code.
            "#[test]\nfn mean() {\n    let mut total = 0.0;\n    for x in [1.0, 2.0] {\n        total += x;\n    }\n    assert!(total > 0.0);\n}\n",
        ] {
            assert!(lint(clean).is_empty(), "{clean}");
        }
    }
}
