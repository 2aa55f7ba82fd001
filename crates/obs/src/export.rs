//! The trace exporter, [`trace_jsonl`], plus [`parse_flat_object`], the
//! flat-line reader `starnuma inspect`, the ledger and the bench history
//! loader share.
//!
//! Every line is a [`Json::Obj`] rendered by the workspace codec; the
//! counts it carries (sequence numbers, bucket counts) are far below
//! 2^53, so [`Json::Num`] holds them exactly. Output is deterministic:
//! nothing consults the host clock.

use std::collections::BTreeMap;

use starnuma_types::json::{self, Json};

use crate::journal::{Event, FieldValue};
use crate::ledger::RunRecord;
use crate::metrics::LatencyHistogram;
use crate::sink::ObsReport;

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn event_line(e: &Event) -> Json {
    let mut fields = vec![
        ("type".into(), text("event")),
        ("seq".into(), Json::Num(e.seq as f64)),
        ("phase".into(), Json::Num(f64::from(e.phase))),
        ("level".into(), text(e.level.label())),
        ("cat".into(), text(e.category.label())),
        ("name".into(), text(e.name)),
    ];
    fields.extend(e.fields.iter().map(|(key, value)| {
        let value = match value {
            FieldValue::U64(u) => Json::Num(*u as f64),
            FieldValue::F64(f) => Json::Num(*f),
            FieldValue::Str(s) => text(s),
        };
        (key.to_string(), value)
    }));
    Json::Obj(fields)
}

fn hist_line(socket: usize, label: &str, h: &LatencyHistogram) -> Json {
    let buckets = h.buckets().iter().map(|&b| Json::Num(b as f64)).collect();
    Json::Obj(vec![
        ("type".into(), text("hist")),
        ("socket".into(), Json::Num(socket as f64)),
        ("class".into(), text(label)),
        ("count".into(), Json::Num(h.count() as f64)),
        ("mean_ns".into(), Json::Num(h.mean_ns())),
        ("buckets".into(), Json::Arr(buckets)),
    ])
}

/// Renders one run's trace section as self-describing JSONL: the run's
/// [`RunRecord`] line (`"type":"run"`), one `event` line per retained
/// event, then one `hist` line per non-empty (socket, class) histogram of
/// the whole run. The record carries the run's counters. This is the
/// format `starnuma inspect` consumes.
pub fn trace_jsonl(record: &RunRecord, report: &ObsReport) -> String {
    let mut out = record.to_json_line();
    out.push('\n');
    let mut emit = |line: Json| {
        out.push_str(&line.render());
        out.push('\n');
    };
    for e in &report.events {
        emit(event_line(e));
    }
    for (socket, sm) in report.metrics.sockets.iter().enumerate() {
        for (h, label) in sm.class_hist.iter().zip(report.class_labels) {
            if h.count() > 0 {
                emit(hist_line(socket, label, h));
            }
        }
    }
    out
}

/// Parses one flat JSON object line: string keys with scalar values or
/// arrays of numbers (histogram buckets) — the shape of every trace line,
/// ledger record and bench history entry. Nested objects and non-numeric
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
    use crate::ledger::ClassSummary;
    use crate::metrics::NUM_CLASSES;
    use crate::sink::ObsSink;

    const LABELS: [&str; NUM_CLASSES] = ["local", "1hop", "2hop", "pool", "bts", "btp"];

    fn record() -> RunRecord {
        let overall = ClassSummary {
            label: "overall".to_string(),
            ..ClassSummary::default()
        };
        RunRecord {
            schema_version: crate::LEDGER_SCHEMA_VERSION,
            workload: "bc-web".to_string(),
            system: "starnuma-dyn".to_string(),
            preset: "SC1".to_string(),
            jobs: 4,
            seed: 42,
            version: "0.1.0".to_string(),
            config_digest: 1,
            result_digest: 2,
            wall_ns: 0,
            ipc: 1.5,
            amat_ns: 200.0,
            unloaded_amat_ns: 150.0,
            contention_ns: 50.0,
            mpki: 10.0,
            pages_migrated: 0,
            pages_to_pool: 0,
            dropped_events: 0,
            overall,
            classes: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn sample_report() -> ObsReport {
        let mut sink = ObsSink::enabled(2, LABELS, 64);
        sink.begin_phase(0);
        sink.record_access(0, 1, 180.0);
        sink.record_access(1, 3, 400.0);
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
        sink.finish()
    }

    #[test]
    fn trace_jsonl_round_trips_through_the_parser() {
        let text = trace_jsonl(&record(), &sample_report());
        let lines: Vec<&str> = text.lines().collect();
        // run + 1 event + 2 hists
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let obj = parse_flat_object(line).expect("every line parses");
            assert!(obj.contains_key("type"));
        }
        assert_eq!(RunRecord::from_json_line(lines[0]), Some(record()));
        let ev = parse_flat_object(lines[1]).unwrap();
        assert_eq!(ev["name"].as_str(), Some("region_migrated"));
        assert_eq!(ev["dest"].as_str(), Some("pool"));
        assert_eq!(ev["frac"].as_num(), Some(0.25));
        let hist = parse_flat_object(lines[2]).unwrap();
        assert!(!hist.contains_key("phase"));
        assert_eq!(hist["socket"].as_num(), Some(0.0));
        assert_eq!(hist["class"].as_str(), Some("1hop"));
        let buckets = hist["buckets"].as_array().expect("buckets array");
        assert_eq!(buckets.len(), crate::metrics::HIST_BUCKETS);
        assert_eq!(buckets.iter().filter_map(Json::as_num).sum::<f64>(), 1.0);
        let hist = parse_flat_object(lines[3]).unwrap();
        assert_eq!(hist["socket"].as_num(), Some(1.0));
        assert_eq!(hist["class"].as_str(), Some("pool"));
    }

    /// Regression: a control char in a run-line string must leave the
    /// trace escaped (raw bytes would be invalid JSON and break `starnuma
    /// inspect`) and read back unchanged.
    #[test]
    fn control_chars_in_run_line_strings_round_trip() {
        let mut r = record();
        r.workload = "bc\u{8}web".to_string();
        let text = trace_jsonl(&r, &sample_report());
        let head = RunRecord::from_json_line(text.lines().next().expect("run line"))
            .expect("run line with control char parses");
        assert_eq!(head.workload, "bc\u{8}web");
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
