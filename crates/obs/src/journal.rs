//! The structured event journal: ring-buffered, severity- and
//! category-tagged records ordered by a monotonic sequence number.
//!
//! Events never carry wall-clock timestamps — ordering comes from the
//! sequence counter, which depends only on simulation progress, so two
//! runs of the same configuration produce bit-identical journals no
//! matter how the job pool schedules them.

use std::collections::VecDeque;

/// Event severity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventLevel {
    /// Fine-grained detail (per-region decisions).
    Debug,
    /// Normal operation milestones (checkpoints, migrations).
    Info,
    /// Model stress worth surfacing (budget exhausted, pool full).
    Warn,
}

impl EventLevel {
    /// Short lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            EventLevel::Debug => "debug",
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
        }
    }
}

/// What subsystem or concern an event belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventCategory {
    /// A migration decision (region moved, destination chosen).
    Migration,
    /// Threshold adaptation and budget crossings (Algorithm 1 state).
    Threshold,
    /// CXL pool capacity pressure (evictions, full-pool skips).
    PoolPressure,
    /// Phase-barrier checkpoints (plan size, pool occupancy).
    Checkpoint,
}

impl EventCategory {
    /// Short lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            EventCategory::Migration => "migration",
            EventCategory::Threshold => "threshold",
            EventCategory::PoolPressure => "pool_pressure",
            EventCategory::Checkpoint => "checkpoint",
        }
    }
}

/// A typed event payload value.
#[derive(Clone, PartialEq, Debug)]
pub enum FieldValue {
    /// An unsigned integer field (counts, page numbers, region ids).
    U64(u64),
    /// A floating-point field (latencies, fractions).
    F64(f64),
    /// A string field (labels, destinations).
    Str(String),
}

/// One journal record.
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    /// Monotonic sequence number, unique within a run.
    pub seq: u64,
    /// The phase the event was recorded in.
    pub phase: u32,
    /// Severity.
    pub level: EventLevel,
    /// Category.
    pub category: EventCategory,
    /// Event name (a static identifier like `region_migrated`).
    pub name: &'static str,
    /// Ordered payload fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A bounded ring buffer of [`Event`]s.
///
/// When full, the oldest event is dropped and the drop is counted, so the
/// journal keeps the *tail* of a long run and exports can state exactly
/// how much was shed.
#[derive(Clone, PartialEq, Debug)]
pub struct EventJournal {
    capacity: usize,
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

impl EventJournal {
    /// An empty journal holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends an event, assigning it the next sequence number; drops the
    /// oldest record if the ring is full.
    pub fn push(
        &mut self,
        phase: u32,
        level: EventLevel,
        category: EventCategory,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            seq: self.next_seq,
            phase,
            level,
            category,
            name,
            fields,
        });
        self.next_seq += 1;
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// How many events the ring shed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the journal into its retained events and drop count.
    pub fn into_parts(self) -> (Vec<Event>, u64) {
        (self.events.into_iter().collect(), self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_n(j: &mut EventJournal, n: u64) {
        for i in 0..n {
            j.push(
                0,
                EventLevel::Info,
                EventCategory::Checkpoint,
                "e",
                vec![("i", FieldValue::U64(i))],
            );
        }
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut j = EventJournal::new(16);
        push_n(&mut j, 3);
        let seqs: Vec<u64> = j.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(j.next_seq, 3);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut j = EventJournal::new(2);
        push_n(&mut j, 5);
        let (events, dropped) = j.into_parts();
        assert_eq!(dropped, 3);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut j = EventJournal::new(0);
        push_n(&mut j, 2);
        assert_eq!(j.events().count(), 1);
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventLevel::Warn.label(), "warn");
        assert_eq!(EventCategory::PoolPressure.label(), "pool_pressure");
    }
}
