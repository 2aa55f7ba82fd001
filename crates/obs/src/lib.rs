//! Observability substrate for the StarNUMA reproduction.
//!
//! The paper's analysis (§II-B vagabond characterization, Fig. 13 sharing
//! breakdowns, Algorithm 1 threshold behavior) is *distributional*: which
//! pages migrated, when, why, and what latency each access class actually
//! saw. End-of-run aggregates cannot answer those questions, so this crate
//! provides the layer the rest of the stack records into:
//!
//! * **one metrics frame** per run ([`MetricsFrame`]): monotonic counters
//!   plus fixed-bucket log2 latency histograms ([`LatencyHistogram`]),
//!   keyed by socket and access class. Hot paths record through an
//!   [`ObsSink`] handle whose disabled form costs one branch per record.
//! * a **structured event journal** ([`EventJournal`]): ring-buffered,
//!   severity- and category-tagged records for migration decisions,
//!   threshold crossings, pool-capacity pressure, and checkpoint events.
//! * **one run record** ([`RunRecord`]): the flat JSON line that states a
//!   run's identity and summary (digests, IPC, AMAT and its
//!   unloaded/contention split, MPKI, per-class counts, mean latencies and
//!   percentiles, counters). It heads the run's section of the run log,
//!   and `--json` prints it.
//! * **one run log**: each run's section ([`trace_jsonl`]) is the record
//!   line, then the journal's `event` lines and the run's per-socket,
//!   per-class `hist` lines, written through the workspace codec
//!   ([`starnuma_types::json`]). `--ledger DIR` appends sections to
//!   `DIR/runs.jsonl` ([`append_run_log`]), and one reader
//!   ([`parse_run_log`]) gives them back to `starnuma report` and
//!   `starnuma inspect`. [`parse_flat_object`] is the flat-line reader
//!   under it and under the bench history loader.
//!
//! Everything is deterministic: events are ordered by a monotonic sequence
//! number (never the host clock), counter maps are `BTreeMap`s, and every
//! run owns its sink, so worker scheduling cannot reorder anything.
//!
//! # Examples
//!
//! ```
//! use starnuma_obs::{EventCategory, EventLevel, FieldValue, ObsSink};
//!
//! let mut sink = ObsSink::enabled(2, ["a", "b", "c", "d", "e", "f"], 1024);
//! sink.begin_phase(0);
//! sink.record_access(0, 1, 180.0);
//! sink.event(EventLevel::Info, EventCategory::Checkpoint, "phase_checkpoint", || {
//!     vec![("planned_moves", FieldValue::U64(0))]
//! });
//! let report = sink.finish();
//! assert_eq!(report.events.len(), 1);
//! assert_eq!(report.metrics.sockets[0].class_hist[1].count(), 1);
//! ```

mod export;
mod journal;
mod ledger;
mod metrics;
mod sink;

pub use export::{append_run_log, parse_flat_object, parse_run_log, trace_jsonl, RunSection};
pub use journal::{Event, EventCategory, EventJournal, EventLevel, FieldValue};
pub use ledger::{ClassSummary, RunRecord, LEDGER_FILE, LEDGER_SCHEMA_VERSION, MAX_EXACT_INT};
pub use metrics::{
    try_percentile_from_counts, LatencyHistogram, MetricsFrame, Observe, SocketMetrics,
    HIST_BUCKETS, NUM_CLASSES,
};
pub use sink::{ObsReport, ObsSink, DEFAULT_JOURNAL_CAPACITY};
