//! The run log: its writer, [`trace_jsonl`], which renders one run's
//! section, [`append_run_log`], which appends sections to a ledger, and
//! its reader, [`parse_run_log`], which `starnuma report` and `starnuma
//! inspect` share — plus [`parse_flat_object`], the flat-line reader
//! under it and under the bench history loader.
//!
//! Every line is a [`Json::Obj`] rendered by the workspace codec; the
//! counts it carries (sequence numbers, bucket counts) are far below
//! 2^53, so [`Json::Num`] holds them exactly. Output is deterministic:
//! nothing consults the host clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use starnuma_types::json::{self, Json};

use crate::journal::{Event, FieldValue};
use crate::ledger::{RunRecord, LEDGER_FILE, LEDGER_SCHEMA_VERSION};
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

/// Renders one run's section of the run log as self-describing JSONL: the
/// run's [`RunRecord`] line (`"type":"run"`), one `event` line per
/// retained event, then one `hist` line per non-empty (socket, class)
/// histogram of the whole run. The record carries the run's counters.
/// [`parse_run_log`] reads it back.
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

/// Appends `sections` (concatenated [`trace_jsonl`] output) to the ledger
/// file [`LEDGER_FILE`] in `dir`, creating the directory if needed.
pub fn append_run_log(dir: &Path, sections: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(LEDGER_FILE))?
        .write_all(sections.as_bytes())
}

/// One run's section of the run log: the run record that heads it, then
/// its `event` and `hist` lines as flat objects. A section read from a
/// record-only ledger has neither.
#[derive(Debug, PartialEq)]
pub struct RunSection {
    /// The `run` line.
    pub record: RunRecord,
    /// The `event` lines, in file order.
    pub events: Vec<BTreeMap<String, Json>>,
    /// The `hist` lines, in file order.
    pub hists: Vec<BTreeMap<String, Json>>,
}

/// Reads the text of the run log at `path` into its sections, one per
/// `run` line. Any concatenation of [`trace_jsonl`] sections reads: a
/// ledger, a record-only ledger from an earlier build, a trace file from
/// an earlier build. Blank lines are skipped, and an empty log has no
/// sections.
///
/// # Errors
///
/// A line that is not a flat JSON object, has no `type`, is a `run` line
/// [`RunRecord::from_json_line`] rejects, is an `event` or `hist` line
/// before any `run` line, or has another type, fails the whole log with a
/// message that starts `path:line:`.
pub fn parse_run_log(path: &str, text: &str) -> Result<Vec<RunSection>, String> {
    let mut sections: Vec<RunSection> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |why: String| format!("{path}:{}: {why}", i + 1);
        let obj =
            parse_flat_object(line).ok_or_else(|| fail("not a flat JSON object line".into()))?;
        let kind = obj
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("line has no type field".into()))?;
        if kind == "run" {
            let record = RunRecord::from_flat(&obj).ok_or_else(|| {
                fail(format!(
                    "not a valid ledger record (schema {LEDGER_SCHEMA_VERSION})"
                ))
            })?;
            sections.push(RunSection {
                record,
                events: Vec::new(),
                hists: Vec::new(),
            });
            continue;
        }
        let section = sections
            .last_mut()
            .ok_or_else(|| fail(format!("'{kind}' line before any run line")))?;
        match kind {
            "event" => section.events.push(obj),
            "hist" => section.hists.push(obj),
            other => return Err(fail(format!("unknown line type '{other}'"))),
        }
    }
    Ok(sections)
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

    /// A log of two sections reads back as two sections holding their own
    /// lines, and a record-only ledger as sections without events or
    /// histograms.
    #[test]
    fn run_log_reads_back_sections_and_record_only_ledgers() {
        let section = trace_jsonl(&record(), &sample_report());
        let log = format!("{section}\n{section}");
        let sections = parse_run_log("runs.jsonl", &log).expect("log reads");
        assert_eq!(sections.len(), 2);
        for s in &sections {
            assert_eq!(s.record, record());
            assert_eq!((s.events.len(), s.hists.len()), (1, 2));
            assert_eq!(s.events[0]["name"].as_str(), Some("region_migrated"));
        }
        let records = format!("{}\n{}\n", record().to_json_line(), record().to_json_line());
        let sections = parse_run_log("runs.jsonl", &records).expect("record-only ledger reads");
        assert_eq!(sections.len(), 2);
        assert!(sections
            .iter()
            .all(|s| s.events.is_empty() && s.hists.is_empty()));
        assert_eq!(parse_run_log("runs.jsonl", " \n"), Ok(Vec::new()));
    }

    /// Every rejected log names the file and the line at fault.
    #[test]
    fn run_log_errors_name_path_and_line() {
        let run = record().to_json_line();
        let event = r#"{"type":"event","seq":0,"phase":0}"#;
        for (log, at, why) in [
            (format!("{run}\nnot json"), 2, "not a flat JSON object line"),
            (
                format!("\n{run}\n{{\"seq\":1}}"),
                3,
                "line has no type field",
            ),
            (
                format!("{run}\n{}", run.replacen("\"jobs\":4", "\"jobs\":-4", 1)),
                2,
                "not a valid ledger record (schema 4)",
            ),
            (
                format!("{event}\n{run}"),
                1,
                "'event' line before any run line",
            ),
            (
                format!("{run}\n{{\"type\":\"meta\"}}"),
                2,
                "unknown line type 'meta'",
            ),
        ] {
            assert_eq!(
                parse_run_log("runs.jsonl", &log),
                Err(format!("runs.jsonl:{at}: {why}"))
            );
        }
    }

    #[test]
    fn append_creates_directory_and_accumulates_sections() {
        let dir =
            std::env::temp_dir().join(format!("starnuma-run-log-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let section = trace_jsonl(&record(), &sample_report());
        append_run_log(&dir, &section).expect("append");
        append_run_log(&dir, &section).expect("append again");
        let text = std::fs::read_to_string(dir.join(LEDGER_FILE)).expect("ledger written");
        assert_eq!(text, format!("{section}{section}"));
        let _ = std::fs::remove_dir_all(&dir);
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
