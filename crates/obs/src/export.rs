//! Exporters: the JSONL trace journal and the metrics JSON document — plus
//! [`parse_flat_object`], the flat-line reader `starnuma inspect`, the
//! ledger and the bench-history loader share.
//!
//! Both exporters stream text through the workspace codec's writers
//! ([`json::write_str`], [`json::write_num`]) rather than building a
//! [`Json`] tree, because their counters are `u64`. Output is
//! deterministic: counters come from `BTreeMap`s and nothing consults the
//! host clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use starnuma_types::json::{self, Json};

use crate::journal::{Event, FieldValue};
use crate::metrics::{LatencyHistogram, MetricsFrame, MetricsRegistry};
use crate::sink::ObsReport;

/// Self-describing run identity stamped into every export.
#[derive(Clone, PartialEq, Debug)]
pub struct RunMeta {
    /// Workload label (e.g. `bc-web`).
    pub workload: String,
    /// System label (e.g. `starnuma-dyn`).
    pub system: String,
    /// Scale preset label (`SC1`/`SC2`/`SC3`).
    pub preset: String,
    /// Worker count the harness ran with.
    pub jobs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Package version string (no git-describe, so builds stay
    /// reproducible).
    pub version: String,
}

fn field(key: &str, value: &FieldValue, out: &mut String) {
    json::write_str(out, key);
    out.push(':');
    match value {
        FieldValue::U64(u) => {
            let _ = write!(out, "{u}");
        }
        FieldValue::F64(f) => json::write_num(out, *f),
        FieldValue::Str(s) => json::write_str(out, s),
    }
}

fn meta_fields(meta: &RunMeta, out: &mut String) {
    out.push_str("\"workload\":");
    json::write_str(out, &meta.workload);
    out.push_str(",\"system\":");
    json::write_str(out, &meta.system);
    out.push_str(",\"preset\":");
    json::write_str(out, &meta.preset);
    let _ = write!(out, ",\"jobs\":{},\"seed\":{}", meta.jobs, meta.seed);
    out.push_str(",\"version\":");
    json::write_str(out, &meta.version);
}

fn event_line(e: &Event, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"event\",\"seq\":{},\"phase\":{},\"level\":\"{}\",\"cat\":\"{}\",\"name\":",
        e.seq,
        e.phase,
        e.level.label(),
        e.category.label()
    );
    json::write_str(out, e.name);
    for (k, v) in &e.fields {
        out.push(',');
        field(k, v, out);
    }
    out.push_str("}\n");
}

fn hist_line(socket: usize, label: &str, h: &LatencyHistogram, out: &mut String) {
    let _ = write!(out, "{{\"type\":\"hist\",\"socket\":{socket},\"class\":");
    json::write_str(out, label);
    let _ = write!(out, ",\"count\":{},\"mean_ns\":", h.count());
    json::write_num(out, h.mean_ns());
    out.push_str(",\"buckets\":[");
    for (i, b) in h.buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}\n");
}

/// Renders a run's journal and merged metrics as self-describing JSONL:
/// one `meta` line, one `event` line per retained event, one `hist` line
/// per non-empty (socket, class) histogram of the merged run, and one
/// `counters` line. This is the format `starnuma inspect` consumes.
pub fn trace_jsonl(meta: &RunMeta, report: &ObsReport) -> String {
    let mut out = String::new();
    out.push_str("{\"type\":\"meta\",");
    meta_fields(meta, &mut out);
    let _ = writeln!(
        out,
        ",\"events\":{},\"dropped_events\":{}}}",
        report.events.len(),
        report.dropped_events
    );
    for e in &report.events {
        event_line(e, &mut out);
    }
    let merged = report.metrics.merged();
    let labels = report.metrics.class_labels();
    for (socket, sm) in merged.sockets.iter().enumerate() {
        for (class, h) in sm.class_hist.iter().enumerate() {
            if h.count() > 0 {
                hist_line(socket, labels[class], h, &mut out);
            }
        }
    }
    out.push_str("{\"type\":\"counters\"");
    for (k, v) in &merged.counters {
        out.push(',');
        json::write_str(&mut out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("}\n");
    out
}

fn frame_json(
    frame: &MetricsFrame,
    labels: [&'static str; crate::metrics::NUM_CLASSES],
    out: &mut String,
) {
    let _ = write!(out, "{{\"phase\":{},\"sockets\":[", frame.phase);
    for (si, sm) in frame.sockets.iter().enumerate() {
        if si > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        for (ci, h) in sm.class_hist.iter().enumerate() {
            if h.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            json::write_str(out, labels[ci]);
            let _ = write!(out, ":{{\"count\":{},\"mean_ns\":", h.count());
            json::write_num(out, h.mean_ns());
            out.push_str(",\"buckets\":[");
            for (i, b) in h.buckets().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push('}');
    }
    out.push_str("],\"counters\":{");
    for (i, (k, v)) in frame.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("}}");
}

/// Renders the full metrics registry (per-phase frames plus the merged
/// whole-run frame) as one JSON object.
pub fn metrics_json(meta: &RunMeta, registry: &MetricsRegistry) -> String {
    let labels = registry.class_labels();
    let mut out = String::new();
    out.push_str("{\"meta\":{");
    meta_fields(meta, &mut out);
    out.push_str("},\"phases\":[");
    for (i, frame) in registry.frames().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        frame_json(frame, labels, &mut out);
    }
    out.push_str("],\"merged\":");
    frame_json(&registry.merged(), labels, &mut out);
    out.push('}');
    out
}

/// Parses one flat JSON object line: string keys with scalar values or
/// arrays of numbers (histogram buckets) — the shape of every trace line,
/// ledger record and bench-history entry. Nested objects and non-numeric
/// arrays are rejected, as is any syntax error. A repeated key keeps its
/// last value.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, Json>> {
    let Json::Obj(fields) = json::parse(line)? else {
        return None;
    };
    let flat = |v: &Json| match v {
        Json::Obj(_) => false,
        Json::Arr(items) => items.iter().all(|item| item.as_num().is_some()),
        _ => true,
    };
    fields
        .iter()
        .all(|(_, v)| flat(v))
        .then(|| fields.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventCategory, EventLevel};
    use crate::metrics::NUM_CLASSES;
    use crate::sink::ObsSink;

    const LABELS: [&str; NUM_CLASSES] = ["local", "1hop", "2hop", "pool", "bts", "btp"];

    fn meta() -> RunMeta {
        RunMeta {
            workload: "bc-web".to_string(),
            system: "starnuma-dyn".to_string(),
            preset: "SC1".to_string(),
            jobs: 4,
            seed: 42,
            version: "0.1.0".to_string(),
        }
    }

    fn sample_report() -> ObsReport {
        let mut sink = ObsSink::enabled(2, LABELS, 64);
        sink.begin_phase(0);
        sink.record_access(0, 1, 180.0);
        sink.record_access(1, 3, 400.0);
        sink.counter("dir.transactions", 12);
        sink.event(
            EventLevel::Info,
            EventCategory::Migration,
            "region_migrated",
            || {
                vec![
                    ("region", FieldValue::U64(7)),
                    ("dest", FieldValue::Str("pool".to_string())),
                    ("frac", FieldValue::F64(0.25)),
                ]
            },
        );
        sink.end_phase();
        sink.finish()
    }

    #[test]
    fn trace_jsonl_round_trips_through_the_parser() {
        let text = trace_jsonl(&meta(), &sample_report());
        let lines: Vec<&str> = text.lines().collect();
        // meta + 1 event + 2 hists + counters
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let obj = parse_flat_object(line).expect("every line parses");
            assert!(obj.contains_key("type"));
        }
        let meta_obj = parse_flat_object(lines[0]).unwrap();
        assert_eq!(meta_obj["type"].as_str(), Some("meta"));
        assert_eq!(meta_obj["preset"].as_str(), Some("SC1"));
        assert_eq!(meta_obj["jobs"].as_num(), Some(4.0));
        let ev = parse_flat_object(lines[1]).unwrap();
        assert_eq!(ev["name"].as_str(), Some("region_migrated"));
        assert_eq!(ev["dest"].as_str(), Some("pool"));
        assert_eq!(ev["frac"].as_num(), Some(0.25));
        let hist = parse_flat_object(lines[2]).unwrap();
        assert_eq!(hist["class"].as_str(), Some("1hop"));
        let buckets = hist["buckets"].as_array().expect("buckets array");
        assert_eq!(buckets.len(), crate::metrics::HIST_BUCKETS);
        assert_eq!(buckets.iter().filter_map(Json::as_num).sum::<f64>(), 1.0);
        let counters = parse_flat_object(lines[4]).unwrap();
        assert_eq!(counters["dir.transactions"].as_num(), Some(12.0));
    }

    #[test]
    fn metrics_json_contains_phases_and_merged() {
        let text = metrics_json(&meta(), &sample_report().metrics);
        assert!(text.starts_with("{\"meta\":{"));
        assert!(text.contains("\"phases\":["));
        assert!(text.contains("\"merged\":"));
        assert!(text.contains("\"1hop\":{\"count\":1"));
        assert!(text.contains("\"dir.transactions\":12"));
    }

    /// Regression: a control char in a meta string must leave the trace
    /// escaped (raw bytes would be invalid JSON and break `starnuma
    /// inspect` and Perfetto import) and read back unchanged.
    #[test]
    fn control_chars_in_meta_strings_round_trip() {
        let mut m = meta();
        m.workload = "bc\u{8}web".to_string();
        let text = trace_jsonl(&m, &sample_report());
        let meta_obj = parse_flat_object(text.lines().next().expect("meta line"))
            .expect("meta line with control char parses");
        assert_eq!(meta_obj["workload"].as_str(), Some("bc\u{8}web"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_flat_object("not json").is_none());
        assert!(parse_flat_object("{\"a\":}").is_none());
        assert!(parse_flat_object("{\"a\":1} trailing").is_none());
        assert!(parse_flat_object("{\"a\":[1,]}").is_none());
        assert!(parse_flat_object("[1]").is_none());
        assert!(parse_flat_object("{\"a\":{\"b\":1}}").is_none());
        assert!(parse_flat_object("{\"a\":[1,\"x\"]}").is_none());
        let obj = parse_flat_object("{\"b\":null,\"a\":1,\"a\":2}").expect("flat");
        assert_eq!(obj.keys().collect::<Vec<_>>(), ["a", "b"], "sorted keys");
        assert_eq!(obj["a"].as_num(), Some(2.0), "last value wins");
        assert_eq!(obj["b"], Json::Null);
        assert_eq!(parse_flat_object("{}").map(|m| m.len()), Some(0));
        assert_eq!(parse_flat_object("{ }").map(|m| m.len()), Some(0));
    }
}
