//! Profile reports: the top-down attribution tree.
//!
//! A report is one run-level edge set. An *edge* is
//! `(site, parent-site, inclusive ns, calls)` — the accumulator records
//! only one level of ancestry, which is exact for this codebase because
//! the one site that has children (`migration-policy`) appears in a
//! single parent context. Edges are always stored and rendered in
//! canonical order (root-parented edges first, then parents in
//! [`Site::ALL`] order; sites in [`Site::ALL`] order), which is what makes
//! two reports over the same merged counts byte-identical.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::site::Site;

/// One attribution edge: inclusive time and call count for `site` while
/// directly nested under `parent` (`None` = top level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfEdge {
    /// The site the time is charged to.
    pub site: Site,
    /// The enclosing site, or `None` for top-level scopes.
    pub parent: Option<Site>,
    /// Total inclusive nanoseconds across all calls.
    pub ns: u64,
    /// Number of scope entries.
    pub calls: u64,
}

/// Everything [`snapshot`](crate::snapshot) read, ready to render.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Edges in canonical order.
    pub edges: Vec<ProfEdge>,
    /// How many threads closed a top-level scope. Each thread's scopes
    /// lie inside the command's wall time, so the tree divides by wall ×
    /// this (taken as at least 1).
    pub threads: u64,
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl ProfReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total nanoseconds attributed at the top level (root-parented
    /// edges), summed over threads. This is what the ≥ 90 %-of-wall
    /// acceptance check compares against command wall time × the threads
    /// that recorded it.
    pub fn attributed_ns(&self) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.parent.is_none())
            .map(|e| e.ns)
            .fold(0, u64::saturating_add)
    }

    /// Render the top-down attribution tree: per site, percent of
    /// `wall_ns` × [`threads`](Self::threads), inclusive total, call
    /// count, and ns per call, children indented under their parent site.
    pub fn render_tree(&self, wall_ns: u64) -> String {
        let mut out = String::new();
        let attributed = self.attributed_ns();
        let threads = self.threads.max(1);
        let budget_ns = wall_ns.saturating_mul(threads);
        let across = if threads > 1 {
            format!(" × {threads} threads")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "profile: {} of {} wall{across} attributed ({:.1}%)",
            fmt_ns(attributed),
            fmt_ns(wall_ns),
            percent(attributed, budget_ns),
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>12} {:>12} {:>12}",
            "site", "% wall", "total", "calls", "ns/call"
        );
        let mut expanded = BTreeSet::new();
        for e in self.edges.iter().filter(|e| e.parent.is_none()) {
            render_edge(&mut out, &self.edges, e, 0, budget_ns, &mut expanded);
        }
        out
    }
}

/// `ns` as a percentage of `budget_ns` (0 for an empty budget).
fn percent(ns: u64, budget_ns: u64) -> f64 {
    if budget_ns > 0 {
        100.0 * ns as f64 / budget_ns as f64
    } else {
        0.0
    }
}

fn render_edge(
    out: &mut String,
    edges: &[ProfEdge],
    e: &ProfEdge,
    depth: usize,
    budget_ns: u64,
    expanded: &mut BTreeSet<usize>,
) {
    let pct = percent(e.ns, budget_ns);
    let ns_per_call = if e.calls > 0 {
        e.ns as f64 / e.calls as f64
    } else {
        0.0
    };
    let name = format!("{}{}", "  ".repeat(depth), e.site.label());
    let _ = writeln!(
        out,
        "  {:<28} {:>6.1}% {:>12} {:>12} {:>12.1}",
        name,
        pct,
        fmt_ns(e.ns),
        e.calls,
        ns_per_call
    );
    // Expand a site's children only at its first (canonically dominant)
    // occurrence; the edge model keeps one level of ancestry.
    if expanded.insert(e.site.index()) {
        for child in edges.iter().filter(|c| c.parent == Some(e.site)) {
            render_edge(out, edges, child, depth + 1, budget_ns, expanded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfReport {
        ProfReport {
            edges: vec![
                ProfEdge {
                    site: Site::Timing,
                    parent: None,
                    ns: 8_000,
                    calls: 2,
                },
                ProfEdge {
                    site: Site::MigrationPolicy,
                    parent: None,
                    ns: 2_000,
                    calls: 1,
                },
                ProfEdge {
                    site: Site::TraceGen,
                    parent: Some(Site::MigrationPolicy),
                    ns: 1_500,
                    calls: 2,
                },
            ],
            threads: 1,
        }
    }

    #[test]
    fn attributed_sums_root_edges_only() {
        assert_eq!(sample().attributed_ns(), 10_000);
    }

    #[test]
    fn tree_indents_children_and_reports_percentages() {
        let tree = sample().render_tree(20_000);
        assert!(
            tree.starts_with("profile: 10.0 us of 20.0 us wall attributed (50.0%)\n"),
            "attribution header: {tree}"
        );
        assert!(tree.contains("timing"), "{tree}");
        assert!(tree.contains("\n    trace-gen"), "child indented: {tree}");
        assert!(tree.contains("migration-policy"), "{tree}");
    }

    /// Scopes closed on several threads share one wall time: each row and
    /// the header divide by wall × threads, and the header says so.
    #[test]
    fn several_threads_divide_by_wall_times_threads() {
        let report = ProfReport {
            threads: 2,
            ..sample()
        };
        let tree = report.render_tree(20_000);
        assert!(
            tree.starts_with("profile: 10.0 us of 20.0 us wall × 2 threads attributed (25.0%)\n"),
            "attribution header: {tree}"
        );
        assert!(
            tree.contains("timing                         20.0%"),
            "{tree}"
        );
    }
}
