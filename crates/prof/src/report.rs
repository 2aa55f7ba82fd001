//! Profile reports: the attribution tree, `profile.json`, and folded
//! stacks for flamegraph tooling.
//!
//! A report is a list of per-phase edge sets. An *edge* is
//! `(site, parent-site, inclusive ns, calls)` — the accumulator records
//! only one level of ancestry, which is exact for this codebase because
//! every site that has children (`timing`, `migration-policy`) appears in
//! a single parent context. Edges are always stored and rendered in
//! canonical order (phases ascending; root-parented edges first, then
//! parents in [`Site::ALL`] order; sites in [`Site::ALL`] order), which is
//! what makes two reports over the same merged counts byte-identical.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use starnuma_types::json::{self, Json};

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

/// One phase's edges. `key` 0 is the setup/global bucket; key `k > 0` is
/// simulation phase `k - 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Phase key (0 = setup, else phase index + 1).
    pub key: u32,
    /// Edges in canonical order.
    pub edges: Vec<ProfEdge>,
}

impl PhaseProfile {
    /// Human label for this phase bucket.
    pub fn label(&self) -> String {
        if self.key == 0 {
            "setup".to_string()
        } else {
            format!("phase {}", self.key - 1)
        }
    }
}

/// A drained profile: everything [`take_report`](crate::take_report)
/// collected, ready to render or serialize.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Per-phase edge sets, phase keys ascending.
    pub phases: Vec<PhaseProfile>,
}

/// A profile loaded back from `profile.json` (`starnuma inspect
/// --profile`).
#[derive(Clone, Debug, PartialEq)]
pub struct SavedProfile {
    /// The wrapped CLI command line.
    pub command: String,
    /// Wall time of the whole command, ns.
    pub wall_ns: u64,
    /// The recorded report.
    pub report: ProfReport,
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
        self.phases.is_empty()
    }

    /// All phases summed into one edge set, in canonical order.
    pub fn merged_edges(&self) -> Vec<ProfEdge> {
        let mut out: Vec<ProfEdge> = Vec::new();
        for phase in &self.phases {
            for e in &phase.edges {
                if let Some(existing) = out
                    .iter_mut()
                    .find(|x| x.site == e.site && x.parent == e.parent)
                {
                    existing.ns = existing.ns.saturating_add(e.ns);
                    existing.calls = existing.calls.saturating_add(e.calls);
                } else {
                    out.push(*e);
                }
            }
        }
        // Canonical order: root edges first, then parents in ALL order;
        // within a parent, sites in ALL order.
        out.sort_by_key(|e| (e.parent.map(|p| 1 + p.index()).unwrap_or(0), e.site.index()));
        out
    }

    /// The `n` hottest top-level sites: `(label, inclusive ns, calls)`
    /// tuples for root-parented merged edges, heaviest first (ties broken
    /// by site order, so the ranking is deterministic). This is the
    /// summary the run ledger persists per run.
    pub fn top_sites(&self, n: usize) -> Vec<(String, u64, u64)> {
        let mut roots: Vec<ProfEdge> = self
            .merged_edges()
            .into_iter()
            .filter(|e| e.parent.is_none())
            .collect();
        roots.sort_by_key(|e| (std::cmp::Reverse(e.ns), e.site.index()));
        roots
            .into_iter()
            .take(n)
            .map(|e| (e.site.label().to_string(), e.ns, e.calls))
            .collect()
    }

    /// Total nanoseconds attributed at the top level (root-parented edges)
    /// across all phases. This is what the ≥ 90 %-of-wall acceptance check
    /// compares against command wall time.
    pub fn attributed_ns(&self) -> u64 {
        self.merged_edges()
            .iter()
            .filter(|e| e.parent.is_none())
            .map(|e| e.ns)
            .fold(0, u64::saturating_add)
    }

    /// Render the top-down attribution tree: per site, percent of `wall_ns`,
    /// inclusive total, call count, and ns per call, children indented under
    /// their parent site.
    pub fn render_tree(&self, wall_ns: u64) -> String {
        let merged = self.merged_edges();
        let mut out = String::new();
        let attributed = self.attributed_ns();
        let pct = if wall_ns > 0 {
            100.0 * attributed as f64 / wall_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "profile: {} of {} wall attributed ({pct:.1}%)",
            fmt_ns(attributed),
            fmt_ns(wall_ns),
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>12} {:>12} {:>12}",
            "site", "% wall", "total", "calls", "ns/call"
        );
        let mut expanded = BTreeSet::new();
        for e in merged.iter().filter(|e| e.parent.is_none()) {
            render_edge(&mut out, &merged, e, 0, wall_ns, &mut expanded);
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "  per-phase top-level totals:");
            for phase in &self.phases {
                let total: u64 = phase
                    .edges
                    .iter()
                    .filter(|e| e.parent.is_none())
                    .map(|e| e.ns)
                    .fold(0, u64::saturating_add);
                let _ = writeln!(out, "    {:<12} {:>12}", phase.label(), fmt_ns(total));
            }
        }
        out
    }

    /// Folded-stack output (`path;components value` lines) consumable by
    /// standard flamegraph tooling. Values are *self* nanoseconds
    /// (inclusive minus children), so the stack sums reproduce the
    /// inclusive totals.
    pub fn folded(&self) -> String {
        let merged = self.merged_edges();
        let mut out = String::new();
        let mut expanded = BTreeSet::new();
        for e in merged.iter().filter(|e| e.parent.is_none()) {
            fold_edge(&mut out, &merged, e, "starnuma", &mut expanded);
        }
        out
    }

    /// Serialize as schema-versioned `profile.json`.
    pub fn to_json(&self, command: &str, wall_ns: u64) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": 1,");
        out.push_str("  \"command\": ");
        json::write_str(&mut out, command);
        out.push_str(",\n");
        let _ = writeln!(out, "  \"wall_ns\": {wall_ns},");
        let _ = writeln!(out, "  \"attributed_ns\": {},", self.attributed_ns());
        out.push_str("  \"phases\": [\n");
        for (pi, phase) in self.phases.iter().enumerate() {
            let _ = writeln!(out, "    {{ \"key\": {}, \"edges\": [", phase.key);
            for (ei, e) in phase.edges.iter().enumerate() {
                let parent = match e.parent {
                    Some(p) => format!("\"{}\"", p.label()),
                    None => "null".to_string(),
                };
                let _ = write!(
                    out,
                    "      {{ \"site\": \"{}\", \"parent\": {parent}, \"ns\": {}, \"calls\": {} }}",
                    e.site.label(),
                    e.ns,
                    e.calls
                );
                out.push_str(if ei + 1 < phase.edges.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("    ] }");
            out.push_str(if pi + 1 < self.phases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a `profile.json` written by [`ProfReport::to_json`]. Returns
    /// `None` on malformed input or an unknown schema version.
    pub fn from_json(text: &str) -> Option<SavedProfile> {
        let value = json::parse(text)?;
        let obj = value.as_object()?;
        let schema = get(obj, "schema_version")?.as_num()?;
        if schema != 1.0 {
            return None;
        }
        let command = get(obj, "command")?.as_str()?.to_string();
        let wall_ns = get(obj, "wall_ns")?.as_num()? as u64;
        let mut phases = Vec::new();
        for phase_val in get(obj, "phases")?.as_array()? {
            let pobj = phase_val.as_object()?;
            let key = get(pobj, "key")?.as_num()? as u32;
            let mut edges = Vec::new();
            for edge_val in get(pobj, "edges")?.as_array()? {
                let eobj = edge_val.as_object()?;
                let site = Site::from_label(get(eobj, "site")?.as_str()?)?;
                let parent = match get(eobj, "parent")? {
                    Json::Null => None,
                    other => Some(Site::from_label(other.as_str()?)?),
                };
                edges.push(ProfEdge {
                    site,
                    parent,
                    ns: get(eobj, "ns")?.as_num()? as u64,
                    calls: get(eobj, "calls")?.as_num()? as u64,
                });
            }
            phases.push(PhaseProfile { key, edges });
        }
        Some(SavedProfile {
            command,
            wall_ns,
            report: ProfReport { phases },
        })
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn children_ns(merged: &[ProfEdge], site: Site) -> u64 {
    merged
        .iter()
        .filter(|e| e.parent == Some(site))
        .map(|e| e.ns)
        .fold(0, u64::saturating_add)
}

fn render_edge(
    out: &mut String,
    merged: &[ProfEdge],
    e: &ProfEdge,
    depth: usize,
    wall_ns: u64,
    expanded: &mut BTreeSet<usize>,
) {
    let pct = if wall_ns > 0 {
        100.0 * e.ns as f64 / wall_ns as f64
    } else {
        0.0
    };
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
        for child in merged.iter().filter(|c| c.parent == Some(e.site)) {
            render_edge(out, merged, child, depth + 1, wall_ns, expanded);
        }
    }
}

fn fold_edge(
    out: &mut String,
    merged: &[ProfEdge],
    e: &ProfEdge,
    prefix: &str,
    expanded: &mut BTreeSet<usize>,
) {
    let path = format!("{prefix};{}", e.site.label());
    if expanded.insert(e.site.index()) {
        let self_ns = e.ns.saturating_sub(children_ns(merged, e.site));
        let _ = writeln!(out, "{path} {self_ns}");
        for child in merged.iter().filter(|c| c.parent == Some(e.site)) {
            fold_edge(out, merged, child, &path, expanded);
        }
    } else {
        let _ = writeln!(out, "{path} {}", e.ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfReport {
        ProfReport {
            phases: vec![
                PhaseProfile {
                    key: 0,
                    edges: vec![ProfEdge {
                        site: Site::MigrationPolicy,
                        parent: None,
                        ns: 2_000,
                        calls: 1,
                    }],
                },
                PhaseProfile {
                    key: 1,
                    edges: vec![
                        ProfEdge {
                            site: Site::Timing,
                            parent: None,
                            ns: 8_000,
                            calls: 2,
                        },
                        ProfEdge {
                            site: Site::Llc,
                            parent: Some(Site::Timing),
                            ns: 3_000,
                            calls: 40,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn attributed_sums_root_edges_only() {
        assert_eq!(sample().attributed_ns(), 10_000);
    }

    #[test]
    fn top_sites_ranks_root_edges_by_time() {
        let top = sample().top_sites(5);
        assert_eq!(
            top,
            vec![
                ("timing".to_string(), 8_000, 2),
                ("migration-policy".to_string(), 2_000, 1),
            ]
        );
        // Child edges never appear, and `n` truncates the ranking.
        assert_eq!(sample().top_sites(1).len(), 1);
        assert_eq!(sample().top_sites(1)[0].0, "timing");
    }

    #[test]
    fn tree_indents_children_and_reports_percentages() {
        let tree = sample().render_tree(20_000);
        assert!(tree.contains("(50.0%)"), "attribution header: {tree}");
        assert!(tree.contains("timing"), "{tree}");
        assert!(tree.contains("  llc"), "child indented: {tree}");
        assert!(tree.contains("phase 0"), "{tree}");
        assert!(tree.contains("setup"), "{tree}");
    }

    #[test]
    fn folded_stacks_carry_self_time() {
        let folded = sample().folded();
        assert!(folded.contains("starnuma;timing 5000"), "{folded}");
        assert!(folded.contains("starnuma;timing;llc 3000"), "{folded}");
        assert!(
            folded.contains("starnuma;migration-policy 2000"),
            "{folded}"
        );
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let json = report.to_json("run --workload bfs", 20_000);
        let saved = ProfReport::from_json(&json);
        let saved = match saved {
            Some(s) => s,
            None => panic!("parse failed for:\n{json}"),
        };
        assert_eq!(saved.command, "run --workload bfs");
        assert_eq!(saved.wall_ns, 20_000);
        assert_eq!(saved.report, report);
    }

    #[test]
    fn from_json_rejects_garbage_and_wrong_schema() {
        assert_eq!(ProfReport::from_json("not json"), None);
        assert_eq!(
            ProfReport::from_json("{\"schema_version\": 2, \"phases\": []}"),
            None
        );
    }
}
