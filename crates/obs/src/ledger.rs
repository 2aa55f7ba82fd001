//! The run record: one flat JSONL line per completed run, the single
//! summary every per-run output points to.
//!
//! `starnuma run/compare/sweep --ledger DIR` append each run's section of
//! the run log to `DIR/runs.jsonl` ([`append_run_log`](crate::append_run_log)):
//! its [`RunRecord`] line, then its events and histograms
//! ([`trace_jsonl`](crate::trace_jsonl)). `starnuma run/compare --json`
//! print the same record line. `starnuma report` reads the ledger's
//! records back and renders cross-run trends and determinism-drift flags;
//! `starnuma inspect` renders each section
//! ([`parse_run_log`](crate::parse_run_log) reads for both). A record
//! states a result the way the paper's Fig 8 does: AMAT split into
//! unloaded latency plus contention, and per access class a sample count
//! (its share is the count over `overall.count`), mean latency and
//! percentiles.
//! Records are *flat* JSON objects (dotted keys, like the bench history
//! file), rendered through the workspace codec ([`Json::render`]) and
//! read back with
//! [`parse_flat_object`](crate::parse_flat_object). Every field is a pure
//! function of the run's configuration except the host fields `jobs` and
//! `wall_ns`; determinism tests pin those and byte-compare whole lines.
//! Keys this build does not know — the `site.*` profiler fields older
//! schema-4 lines carry — are skipped on read.
//!
//! 64-bit digests travel as `"0x..."` hex strings: JSON numbers are
//! `f64` and silently lose integer precision above 2^53, so every integer
//! field must be a non-negative integer no larger than 2^53 or the line
//! is rejected. A non-finite float (IPC, AMAT, a percentile) is written as
//! `null` and read back as NaN, so a line still re-renders
//! byte-identically.

use std::collections::BTreeMap;

use starnuma_types::json::Json;
use starnuma_types::{digest_hex, parse_digest_hex};

use crate::export::parse_flat_object;
use crate::metrics::LatencyHistogram;

/// Version stamped into (and required of) every record line.
pub const LEDGER_SCHEMA_VERSION: u64 = 4;

/// File name appended to the ledger directory.
pub const LEDGER_FILE: &str = "runs.jsonl";

/// The largest integer a record field may hold: every integer up to 2^53
/// survives the codec's `f64` numbers exactly.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// Latency summary for one access class (or the all-class merge).
/// The mean and percentiles are 0 when `count` is 0 — the JSON rendering
/// omits them in that case, so an empty class cannot masquerade as a 0 ns
/// one. A class's share of accesses is not stored: it is `count` over the
/// overall summary's `count`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ClassSummary {
    /// Access-class label (`local`, `pool`, …) or `overall`.
    pub label: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in ns, as the timing model measured it (per-class
    /// summaries only; the overall mean is the record's `amat_ns`).
    pub mean_ns: f64,
    /// Median latency in ns.
    pub p50_ns: f64,
    /// 95th-percentile latency in ns.
    pub p95_ns: f64,
    /// 99th-percentile latency in ns.
    pub p99_ns: f64,
}

impl ClassSummary {
    /// Summarizes `hist` under `label`, with no mean (the caller sets a
    /// class's `mean_ns`).
    pub fn from_hist(label: &str, hist: &LatencyHistogram) -> Self {
        ClassSummary {
            label: label.to_string(),
            count: hist.count(),
            mean_ns: 0.0,
            p50_ns: hist.try_percentile_ns(0.50).unwrap_or(0.0),
            p95_ns: hist.try_percentile_ns(0.95).unwrap_or(0.0),
            p99_ns: hist.try_percentile_ns(0.99).unwrap_or(0.0),
        }
    }
}

/// One completed run, as it heads the run's section of the run log.
#[derive(Clone, PartialEq, Debug)]
pub struct RunRecord {
    /// Ledger schema version ([`LEDGER_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Workload label.
    pub workload: String,
    /// System label.
    pub system: String,
    /// Scale preset label.
    pub preset: String,
    /// Worker count the harness ran with (a host field).
    pub jobs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Package version string.
    pub version: String,
    /// FNV-1a digest of the run configuration.
    pub config_digest: u64,
    /// FNV-1a digest of the `RunResult`.
    pub result_digest: u64,
    /// Host wall time of the command in ns (a host field; 0 in
    /// determinism fixtures).
    pub wall_ns: u64,
    /// End-to-end IPC.
    pub ipc: f64,
    /// Average memory access time in ns.
    pub amat_ns: f64,
    /// The part of `amat_ns` an unloaded machine would see (Fig 8b).
    pub unloaded_amat_ns: f64,
    /// The contention part of `amat_ns` (`amat_ns − unloaded_amat_ns`).
    pub contention_ns: f64,
    /// Memory accesses per thousand instructions.
    pub mpki: f64,
    /// Pages migrated over the whole run.
    pub pages_migrated: u64,
    /// Pages migrated into the CXL pool.
    pub pages_to_pool: u64,
    /// Journal events the ring buffer shed.
    pub dropped_events: u64,
    /// All-class, all-socket latency summary.
    pub overall: ClassSummary,
    /// Per-class summaries, sorted by label.
    pub classes: Vec<ClassSummary>,
    /// The run's substrate counters.
    pub counters: BTreeMap<String, u64>,
}

impl RunRecord {
    /// Renders the record as one flat JSON line (no trailing newline),
    /// starting `{"type":"run",`. Field order is fixed, so identical records
    /// render byte-identically.
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<(String, Json)> = [
            ("type", Json::Str("run".into())),
            ("schema_version", int(self.schema_version)),
            ("workload", Json::Str(self.workload.clone())),
            ("system", Json::Str(self.system.clone())),
            ("preset", Json::Str(self.preset.clone())),
            ("jobs", int(self.jobs)),
            ("seed", int(self.seed)),
            ("version", Json::Str(self.version.clone())),
            ("config_digest", Json::Str(digest_hex(self.config_digest))),
            ("result_digest", Json::Str(digest_hex(self.result_digest))),
            ("wall_ns", int(self.wall_ns)),
            ("ipc", Json::Num(self.ipc)),
            ("amat_ns", Json::Num(self.amat_ns)),
            ("unloaded_amat_ns", Json::Num(self.unloaded_amat_ns)),
            ("contention_ns", Json::Num(self.contention_ns)),
            ("mpki", Json::Num(self.mpki)),
            ("pages_migrated", int(self.pages_migrated)),
            ("pages_to_pool", int(self.pages_to_pool)),
            ("dropped_events", int(self.dropped_events)),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect();
        push_summary(&mut fields, "overall", &self.overall, false);
        for class in &self.classes {
            push_summary(&mut fields, &format!("class.{}", class.label), class, true);
        }
        for (key, value) in &self.counters {
            fields.push((format!("counter.{key}"), int(*value)));
        }
        Json::Obj(fields).render()
    }

    /// Parses a line written by [`to_json_line`](Self::to_json_line).
    /// `None` on syntax errors, a missing `"type":"run"` or identity
    /// field, a schema version this build does not understand, or an
    /// integer field that is negative, fractional, non-finite or above
    /// [`MAX_EXACT_INT`].
    pub fn from_json_line(line: &str) -> Option<Self> {
        Self::from_flat(&parse_flat_object(line)?)
    }

    /// [`from_json_line`](Self::from_json_line) on a line already parsed
    /// by [`parse_flat_object`].
    pub(crate) fn from_flat(map: &BTreeMap<String, Json>) -> Option<Self> {
        let num = |key: &str| -> Option<f64> { float(map.get(key)?) };
        let int = |key: &str| -> Option<u64> { exact_int(map.get(key)?) };
        let text = |key: &str| -> Option<String> { Some(map.get(key)?.as_str()?.to_string()) };
        if map.get("type")?.as_str()? != "run" || int("schema_version")? != LEDGER_SCHEMA_VERSION {
            return None;
        }
        let mut classes: BTreeMap<String, ClassSummary> = BTreeMap::new();
        let mut counters = BTreeMap::new();
        for (key, value) in map {
            if let Some(rest) = key.strip_prefix("class.") {
                let (label, field) = rest.rsplit_once('.')?;
                let entry = classes
                    .entry(label.to_string())
                    .or_insert_with(|| ClassSummary {
                        label: label.to_string(),
                        ..ClassSummary::default()
                    });
                apply_summary_field(entry, field, value)?;
            } else if let Some(rest) = key.strip_prefix("counter.") {
                counters.insert(rest.to_string(), exact_int(value)?);
            }
        }
        let mut overall = ClassSummary {
            label: "overall".to_string(),
            count: int("overall.count")?,
            ..ClassSummary::default()
        };
        overall.p50_ns = num("overall.p50_ns").unwrap_or(0.0);
        overall.p95_ns = num("overall.p95_ns").unwrap_or(0.0);
        overall.p99_ns = num("overall.p99_ns").unwrap_or(0.0);
        Some(RunRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            workload: text("workload")?,
            system: text("system")?,
            preset: text("preset")?,
            jobs: int("jobs")?,
            seed: int("seed")?,
            version: text("version")?,
            config_digest: parse_digest_hex(map.get("config_digest")?.as_str()?)?,
            result_digest: parse_digest_hex(map.get("result_digest")?.as_str()?)?,
            wall_ns: int("wall_ns")?,
            ipc: num("ipc")?,
            amat_ns: num("amat_ns")?,
            unloaded_amat_ns: num("unloaded_amat_ns")?,
            contention_ns: num("contention_ns")?,
            mpki: num("mpki")?,
            pages_migrated: int("pages_migrated")?,
            pages_to_pool: int("pages_to_pool")?,
            dropped_events: int("dropped_events")?,
            overall,
            classes: classes.into_values().collect(),
            counters,
        })
    }
}

/// An integer field's value: `None` unless it is a non-negative integer
/// no larger than [`MAX_EXACT_INT`] — a negative, fractional or
/// non-finite count is corruption, not a number to clamp.
fn exact_int(value: &Json) -> Option<u64> {
    let v = value.as_num()?;
    (v >= 0.0 && v.fract() == 0.0 && v <= MAX_EXACT_INT as f64).then_some(v as u64)
}

fn apply_summary_field(c: &mut ClassSummary, field: &str, value: &Json) -> Option<()> {
    match field {
        "count" => c.count = exact_int(value)?,
        "mean_ns" => c.mean_ns = float(value)?,
        "p50_ns" => c.p50_ns = float(value)?,
        "p95_ns" => c.p95_ns = float(value)?,
        "p99_ns" => c.p99_ns = float(value)?,
        _ => return None,
    }
    Some(())
}

/// A numeric field's value; `null` is the rendering of a non-finite one.
fn float(value: &Json) -> Option<f64> {
    match value {
        Json::Null => Some(f64::NAN),
        other => other.as_num(),
    }
}

/// An integer field as a JSON number: every count a record holds is at
/// most [`MAX_EXACT_INT`], which `f64` represents exactly.
fn int(value: u64) -> Json {
    Json::Num(value as f64)
}

/// Appends a summary's count and, for a non-empty one, its percentiles,
/// preceded by its mean when `with_mean` is set.
fn push_summary(fields: &mut Vec<(String, Json)>, prefix: &str, c: &ClassSummary, with_mean: bool) {
    fields.push((format!("{prefix}.count"), int(c.count)));
    if c.count > 0 {
        let mut num =
            |key: &str, value: f64| fields.push((format!("{prefix}.{key}"), Json::Num(value)));
        if with_mean {
            num("mean_ns", c.mean_ns);
        }
        num("p50_ns", c.p50_ns);
        num("p95_ns", c.p95_ns);
        num("p99_ns", c.p99_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            workload: "BFS".to_string(),
            system: "StarNUMA (T16)".to_string(),
            preset: "SC1".to_string(),
            jobs: 4,
            seed: 42,
            version: "0.1.0".to_string(),
            config_digest: 0xdead_beef_0123_4567,
            result_digest: u64::MAX,
            wall_ns: 1_234_567,
            ipc: 1.25,
            amat_ns: 97.5,
            unloaded_amat_ns: 80.25,
            contention_ns: 17.25,
            mpki: 12.5,
            pages_migrated: 100,
            pages_to_pool: 60,
            dropped_events: 1,
            overall: ClassSummary {
                label: "overall".to_string(),
                count: 3,
                mean_ns: 0.0,
                p50_ns: 90.0,
                p95_ns: 180.5,
                p99_ns: 360.0,
            },
            classes: vec![
                ClassSummary {
                    label: "local".to_string(),
                    count: 3,
                    mean_ns: 97.5,
                    p50_ns: 90.0,
                    p95_ns: 180.5,
                    p99_ns: 360.0,
                },
                ClassSummary {
                    label: "pool".to_string(),
                    count: 0,
                    ..ClassSummary::default()
                },
            ],
            counters: [("dir.transactions".to_string(), 7u64)].into(),
        }
    }

    #[test]
    fn json_line_round_trips_byte_identically() {
        let rec = sample();
        let line = rec.to_json_line();
        let parsed = RunRecord::from_json_line(&line).expect("line parses");
        assert_eq!(parsed, rec);
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn digests_survive_above_f64_precision() {
        let rec = sample();
        let parsed = RunRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(parsed.result_digest, u64::MAX);
        assert_eq!(parsed.config_digest, 0xdead_beef_0123_4567);
    }

    #[test]
    fn empty_class_omits_mean_and_percentile_keys() {
        let line = sample().to_json_line();
        assert!(line.contains("\"class.pool.count\":0"));
        assert!(!line.contains("class.pool.mean_ns"));
        assert!(!line.contains("class.pool.p50_ns"));
        assert!(line.contains("\"class.local.mean_ns\":97.5"));
        assert!(line.contains("\"class.local.p99_ns\":360"));
        // The overall mean is `amat_ns`; it is not stored twice.
        assert!(!line.contains("overall.mean_ns"));
    }

    /// Schema 4 carries the Fig 8b split, MPKI and per-class means; each
    /// survives the round trip exactly, and a line missing one is rejected.
    #[test]
    fn schema_4_fields_round_trip() {
        let mut rec = sample();
        rec.unloaded_amat_ns = 0.1 + 0.2;
        rec.contention_ns = 97.5 - rec.unloaded_amat_ns;
        rec.mpki = 1.0 / 3.0;
        rec.classes[0].mean_ns = 2.0_f64.sqrt() * 100.0;
        let line = rec.to_json_line();
        let parsed = RunRecord::from_json_line(&line).expect("line parses");
        assert_eq!(
            parsed.unloaded_amat_ns.to_bits(),
            rec.unloaded_amat_ns.to_bits()
        );
        assert_eq!(parsed.contention_ns.to_bits(), rec.contention_ns.to_bits());
        assert_eq!(parsed.mpki.to_bits(), rec.mpki.to_bits());
        assert_eq!(
            parsed.classes[0].mean_ns.to_bits(),
            rec.classes[0].mean_ns.to_bits()
        );
        assert_eq!(parsed, rec);
        for key in ["unloaded_amat_ns", "contention_ns", "mpki"] {
            let at = line.find(&format!(",\"{key}\":")).expect("key present");
            let end = at + 1 + line[at + 1..].find(',').expect("not the last key");
            let without = format!("{}{}", &line[..at], &line[end..]);
            assert!(
                RunRecord::from_json_line(&without).is_none(),
                "a line without {key} read back"
            );
        }
    }

    #[test]
    fn unknown_schema_version_or_type_is_rejected() {
        let line = sample().to_json_line();
        assert!(line.starts_with("{\"type\":\"run\",\"schema_version\":4,"));
        for (from, to) in [
            ("\"schema_version\":4", "\"schema_version\":1"),
            ("\"schema_version\":4", "\"schema_version\":2"),
            ("\"schema_version\":4", "\"schema_version\":3"),
            ("\"schema_version\":4", "\"schema_version\":99"),
            ("\"type\":\"run\"", "\"type\":\"meta\""),
            ("\"type\":\"run\",", ""),
        ] {
            let bad = line.replacen(from, to, 1);
            assert!(RunRecord::from_json_line(&bad).is_none(), "{bad}");
        }
    }

    /// Regression: a negative, fractional or huge integer field used to be
    /// clamped or truncated into a valid-looking count (`-3` pages
    /// read back as 0). Every integer field now rejects the whole line.
    #[test]
    fn corrupt_integer_fields_reject_the_line() {
        let line = sample().to_json_line();
        for (field, good) in [
            ("\"pages_migrated\":", "100"),
            ("\"seed\":", "42"),
            ("\"jobs\":", "4"),
            ("\"dropped_events\":", "1"),
            ("\"class.local.count\":", "3"),
            ("\"counter.dir.transactions\":", "7"),
        ] {
            let intact = format!("{field}{good}");
            assert!(line.contains(&intact), "{intact} not in {line}");
            for bad in ["-3", "0.5", "1e300"] {
                let corrupt = line.replacen(&intact, &format!("{field}{bad}"), 1);
                assert!(
                    RunRecord::from_json_line(&corrupt).is_none(),
                    "{field}{bad} read back as a record"
                );
            }
        }
    }

    /// A schema-4 line written while records still carried the
    /// profiler's `site.*` fields reads back, and re-renders as the same
    /// line with only those pairs removed.
    #[test]
    fn legacy_site_fields_are_skipped() {
        let ledger = include_str!("../../cli/tests/fixtures/report/runs.jsonl");
        let line = ledger.lines().next().expect("fixture has a line");
        assert!(line.contains(",\"site.timing.ns\":"), "{line}");
        let mut expected = line.to_string();
        while let Some(at) = expected.find(",\"site.") {
            let len = 1 + expected[at + 1..].find([',', '}']).expect("value ends");
            expected.replace_range(at..at + len, "");
        }
        let record = RunRecord::from_json_line(line).expect("legacy line parses");
        assert_eq!(record.to_json_line(), expected);
    }

    #[test]
    fn seeds_round_trip_exactly_up_to_two_to_the_53() {
        let mut rec = sample();
        rec.seed = MAX_EXACT_INT;
        let line = rec.to_json_line();
        assert!(line.contains("\"seed\":9007199254740992,"), "{line}");
        assert_eq!(RunRecord::from_json_line(&line), Some(rec));
        let above = line.replacen("9007199254740992", "9007199254740994", 1);
        assert!(RunRecord::from_json_line(&above).is_none());
    }
}
