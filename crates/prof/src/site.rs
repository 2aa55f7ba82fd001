//! The static site registry: every scoped timer attributes its time to one
//! of these fixed pipeline stages. The set is closed on purpose —
//! a fixed, ordered universe is what makes cross-worker merges and the
//! rendered attribution tree deterministic (same reasoning as the obs
//! metric registry's canonical key order).

/// A profiling site: one stage of the simulation pipeline that scoped
/// timers attribute wall time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// Synthetic trace generation (step A), including scout and warmup
    /// streams.
    TraceGen,
    /// Hardware tracking: per-core TLB counter annexes feeding the
    /// metadata region (step B input side).
    Tlb,
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
pub const NUM_SITES: usize = 6;

impl Site {
    /// Every site in canonical order — the order reports render in and the
    /// order cross-worker merges walk.
    pub const ALL: [Site; NUM_SITES] = [
        Site::TraceGen,
        Site::Tlb,
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
            Site::Timing => 2,
            Site::MigrationPolicy => 3,
            Site::Checkpoint => 4,
            Site::ObsExport => 5,
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
