//! The static site registry: every scoped timer attributes its time to one
//! of these fixed simulation components. The set is closed on purpose —
//! a fixed, ordered universe is what makes cross-worker merges and the
//! rendered attribution tree deterministic (same reasoning as the obs
//! metric registry's canonical key order).

/// A profiling site: one component of the simulation stack that scoped
/// timers attribute wall time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// Synthetic trace generation (step A), including scout and warmup
    /// streams.
    TraceGen,
    /// Hardware tracking: per-core TLB counter annexes feeding the
    /// metadata region (step B input side).
    Tlb,
    /// Per-socket last-level cache lookups and evictions.
    Llc,
    /// The distributed MESI directory (lookup, eviction bookkeeping).
    Directory,
    /// DRAM channel contention: socket-local and pool memory modules.
    Dram,
    /// Coherence traffic: invalidations, cache-to-cache transfers, and
    /// interconnect link legs.
    Coherence,
    /// The step-C event-driven timing loop as a whole.
    Timing,
    /// Migration/replication policy decisions and initial placement
    /// (step B decision side).
    MigrationPolicy,
    /// Page-map checkpointing: the per-phase snapshot that seeds step C.
    Checkpoint,
    /// Observability export work done inside the run (delta observation,
    /// stat barriers).
    ObsExport,
}

/// Number of registered sites. Array-backed accumulators are sized by this.
pub const NUM_SITES: usize = 10;

impl Site {
    /// Every site in canonical order — the order reports render in and the
    /// order cross-worker merges walk.
    pub const ALL: [Site; NUM_SITES] = [
        Site::TraceGen,
        Site::Tlb,
        Site::Llc,
        Site::Directory,
        Site::Dram,
        Site::Coherence,
        Site::Timing,
        Site::MigrationPolicy,
        Site::Checkpoint,
        Site::ObsExport,
    ];

    /// Stable kebab-case label used in the attribution tree.
    pub fn label(self) -> &'static str {
        match self {
            Site::TraceGen => "trace-gen",
            Site::Tlb => "tlb",
            Site::Llc => "llc",
            Site::Directory => "directory",
            Site::Dram => "dram",
            Site::Coherence => "coherence",
            Site::Timing => "timing",
            Site::MigrationPolicy => "migration-policy",
            Site::Checkpoint => "checkpoint",
            Site::ObsExport => "obs-export",
        }
    }

    /// Dense index into `ALL` (and into accumulator arrays).
    pub fn index(self) -> usize {
        match self {
            Site::TraceGen => 0,
            Site::Tlb => 1,
            Site::Llc => 2,
            Site::Directory => 3,
            Site::Dram => 4,
            Site::Coherence => 5,
            Site::Timing => 6,
            Site::MigrationPolicy => 7,
            Site::Checkpoint => 8,
            Site::ObsExport => 9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_order_matches_index() {
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{s:?} out of canonical order");
        }
    }

    #[test]
    fn labels_are_kebab_case_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for s in Site::ALL {
            let l = s.label();
            assert!(l
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-' || c.is_ascii_digit()));
            assert!(seen.insert(l), "duplicate label {l}");
        }
    }
}
