//! The recording handle hot paths write through.
//!
//! An [`ObsSink`] is either *enabled* (owning the run's metrics frame and
//! an event journal) or *disabled*. Every recording method checks the
//! enabled flag first and returns immediately when off, so instrumented
//! code pays one predictable branch per record. The e2ebench untraced
//! throughput floors run with a disabled sink on every access, and
//! `tests/index_equivalence.rs` checks that observing a run never changes
//! its result. Event payloads are built by closures, so a disabled sink
//! never allocates field vectors either.

use crate::journal::{EventCategory, EventJournal, EventLevel, FieldValue};
use crate::metrics::{MetricsFrame, Observe, NUM_CLASSES};

/// Default event-journal ring capacity used by the harness.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// Everything one run observed: its metrics frame plus the retained tail
/// of the event journal.
#[derive(Clone, PartialEq, Debug)]
pub struct ObsReport {
    /// The run's per-socket × per-class histograms and counters.
    pub metrics: MetricsFrame,
    /// Names of the histogram columns, in class-index order.
    pub class_labels: [&'static str; NUM_CLASSES],
    /// Retained events, oldest first, seq-ordered.
    pub events: Vec<crate::journal::Event>,
    /// Events the ring buffer shed.
    pub dropped_events: u64,
}

/// The per-run observability handle.
///
/// Each simulation run is single-threaded and owns exactly one sink, so no
/// locking is needed and worker scheduling cannot interleave records —
/// that ownership is what makes `--jobs N` output bit-identical to
/// sequential execution.
#[derive(Clone, PartialEq, Debug)]
pub struct ObsSink {
    enabled: bool,
    phase: u32,
    frame: MetricsFrame,
    class_labels: [&'static str; NUM_CLASSES],
    journal: EventJournal,
}

impl ObsSink {
    /// A sink that records nothing; every method is one branch.
    pub fn disabled() -> Self {
        ObsSink {
            enabled: false,
            phase: 0,
            frame: MetricsFrame::new(0),
            class_labels: [""; NUM_CLASSES],
            journal: EventJournal::new(1),
        }
    }

    /// A recording sink for `num_sockets` sockets. `class_labels` name the
    /// histogram columns (the simulator passes `AccessClass::ALL` labels);
    /// `journal_capacity` bounds the event ring.
    pub fn enabled(
        num_sockets: usize,
        class_labels: [&'static str; NUM_CLASSES],
        journal_capacity: usize,
    ) -> Self {
        ObsSink {
            enabled: true,
            phase: 0,
            frame: MetricsFrame::new(num_sockets),
            class_labels,
            journal: EventJournal::new(journal_capacity),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps `phase` on the events recorded from now on.
    pub fn begin_phase(&mut self, phase: u32) {
        if !self.enabled {
            return;
        }
        self.phase = phase;
    }

    /// Records one memory-access latency sample.
    #[inline]
    pub fn record_access(&mut self, socket: usize, class: usize, measured_ns: f64) {
        if !self.enabled {
            return;
        }
        self.frame.record_access(socket, class, measured_ns);
    }

    /// Adds a stats source's counters under `prefix`.
    pub fn observe(&mut self, prefix: &str, source: &dyn Observe) {
        if !self.enabled {
            return;
        }
        source.observe(prefix, &mut self.frame);
    }

    /// Appends a journal event. `fields` is a closure so a disabled sink
    /// never builds the payload.
    #[inline]
    pub fn event<F>(
        &mut self,
        level: EventLevel,
        category: EventCategory,
        name: &'static str,
        fields: F,
    ) where
        F: FnOnce() -> Vec<(&'static str, FieldValue)>,
    {
        if !self.enabled {
            return;
        }
        self.journal
            .push(self.phase, level, category, name, fields());
    }

    /// Finishes the run and returns the report.
    pub fn finish(self) -> ObsReport {
        let (events, dropped_events) = self.journal.into_parts();
        ObsReport {
            metrics: self.frame,
            class_labels: self.class_labels,
            events,
            dropped_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: [&str; NUM_CLASSES] = ["a", "b", "c", "d", "e", "f"];

    /// A stats source with one counter, `transactions`.
    struct Transactions(u64);

    impl Observe for Transactions {
        fn observe(&self, prefix: &str, frame: &mut MetricsFrame) {
            frame.add_counter(&format!("{prefix}.transactions"), self.0);
        }
    }

    #[test]
    fn disabled_sink_records_nothing_and_never_builds_fields() {
        let mut sink = ObsSink::disabled();
        sink.begin_phase(0);
        sink.record_access(0, 0, 100.0);
        sink.observe("x", &Transactions(1));
        sink.event(EventLevel::Info, EventCategory::Migration, "e", || {
            panic!("field closure must not run on a disabled sink")
        });
        let report = sink.finish();
        assert!(report.events.is_empty());
        assert!(report.metrics.sockets.is_empty());
        assert!(report.metrics.counters.is_empty());
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn phases_accumulate_into_one_frame() {
        let mut sink = ObsSink::enabled(2, LABELS, 64);
        for phase in 0..3u32 {
            sink.begin_phase(phase);
            sink.record_access(0, 0, 80.0);
            sink.observe("dir", &Transactions(u64::from(phase)));
        }
        let report = sink.finish();
        assert_eq!(report.metrics.sockets.len(), 2);
        assert_eq!(report.metrics.sockets[0].class_hist[0].count(), 3);
        assert_eq!(report.metrics.sockets[1].total_count(), 0);
        assert_eq!(report.metrics.counters["dir.transactions"], 3);
        assert_eq!(report.class_labels, LABELS);
    }

    #[test]
    fn events_carry_phase_and_sequence() {
        let mut sink = ObsSink::enabled(1, LABELS, 64);
        sink.begin_phase(1);
        sink.event(
            EventLevel::Warn,
            EventCategory::PoolPressure,
            "pool_full_skip",
            || vec![("region", FieldValue::U64(9))],
        );
        sink.begin_phase(2);
        sink.event(
            EventLevel::Info,
            EventCategory::Checkpoint,
            "phase_checkpoint",
            Vec::new,
        );
        let report = sink.finish();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].phase, 1);
        assert_eq!(report.events[0].seq, 0);
        assert_eq!(report.events[1].phase, 2);
        assert_eq!(report.events[1].seq, 1);
    }

    #[test]
    fn identical_recordings_compare_equal() {
        let run = || {
            let mut sink = ObsSink::enabled(2, LABELS, 8);
            sink.begin_phase(0);
            sink.record_access(1, 3, 250.0);
            sink.observe("c", &Transactions(2));
            sink.event(EventLevel::Debug, EventCategory::Threshold, "t", || {
                vec![("hi", FieldValue::F64(1.5))]
            });
            sink.finish()
        };
        assert_eq!(run(), run());
    }
}
