//! Result types: AMAT decomposition, access breakdown, IPC.

use starnuma_coherence::DirectoryStats;
use starnuma_topology::AccessClass;
use starnuma_types::StarNumaError;

/// Statistics collected over one simulated phase.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct PhaseStats {
    /// LLC-missing memory accesses, by [`AccessClass`] (Fig. 8c order).
    pub class_counts: [u64; 6],
    /// Sum of analytic unloaded latencies of those accesses, in ns.
    pub unloaded_ns_sum: f64,
    /// Sum of measured (loaded) latencies, in ns.
    pub measured_ns_sum: f64,
    /// Per-class sums of measured latencies, in ns (Fig. 8b diagnostics).
    pub class_measured_ns: [f64; 6],
    /// Accesses that hit in an LLC (filtered before the memory system).
    pub llc_hits: u64,
    /// Instructions retired (per core, summed over cores).
    pub instructions: u64,
    /// Sum over cores of each core's finish time in cycles.
    pub core_cycles_sum: u64,
    /// Number of cores contributing to `core_cycles_sum`.
    pub cores: u64,
    /// Pages whose migration was modeled in this phase's timing window.
    pub migrations_modeled: u64,
}

impl PhaseStats {
    /// Total LLC-missing accesses.
    pub fn memory_accesses(&self) -> u64 {
        self.class_counts.iter().sum()
    }

    /// Measured average memory access time in ns (0 if no accesses).
    pub fn amat_ns(&self) -> f64 {
        let n = self.memory_accesses();
        if n == 0 {
            0.0
        } else {
            self.measured_ns_sum / n as f64
        }
    }

    /// Analytic unloaded AMAT in ns.
    pub fn unloaded_amat_ns(&self) -> f64 {
        let n = self.memory_accesses();
        if n == 0 {
            0.0
        } else {
            self.unloaded_ns_sum / n as f64
        }
    }

    /// Per-core IPC (instructions over mean core finish time).
    pub fn ipc(&self) -> f64 {
        if self.core_cycles_sum == 0 {
            0.0
        } else {
            self.instructions as f64
                / (self.core_cycles_sum as f64 / self.cores.max(1) as f64)
                / self.cores.max(1) as f64
        }
    }

    /// Merges another phase into an aggregate.
    pub fn merge(&mut self, other: &PhaseStats) {
        for i in 0..6 {
            self.class_counts[i] += other.class_counts[i];
        }
        self.unloaded_ns_sum += other.unloaded_ns_sum;
        self.measured_ns_sum += other.measured_ns_sum;
        for i in 0..6 {
            self.class_measured_ns[i] += other.class_measured_ns[i];
        }
        self.llc_hits += other.llc_hits;
        self.instructions += other.instructions;
        self.core_cycles_sum += other.core_cycles_sum;
        self.cores += other.cores;
        self.migrations_modeled += other.migrations_modeled;
    }
}

/// Aggregated result of a full multi-phase run.
///
/// Derives `PartialEq` so determinism tests can assert two same-seed runs
/// are bit-identical end to end.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// Per-phase statistics, in order.
    pub phases: Vec<PhaseStats>,
    /// Per-core IPC aggregated across phases.
    pub ipc: f64,
    /// Measured AMAT in ns (Fig. 8b total).
    pub amat_ns: f64,
    /// Unloaded-latency component of AMAT in ns (Fig. 8b light bar).
    pub unloaded_amat_ns: f64,
    /// Contention-delay component in ns (`amat_ns − unloaded_amat_ns`).
    pub contention_ns: f64,
    /// Access-type fractions in [`AccessClass::ALL`] order (Fig. 8c).
    pub class_fracs: [f64; 6],
    /// Mean measured latency per class in ns (0 where a class is empty).
    pub class_mean_ns: [f64; 6],
    /// Total pages migrated across the run (full plans, step-B semantics).
    pub pages_migrated: u64,
    /// Pages migrated into the pool (Table IV numerator).
    pub pages_to_pool: u64,
    /// Aggregated coherence-directory statistics.
    pub directory: DirectoryStats,
    /// Effective LLC MPKI observed (memory accesses per kilo-instruction).
    pub mpki: f64,
    /// §V-F replication statistics, when replication was enabled.
    pub replication: Option<starnuma_migration::ReplicationStats>,
}

impl RunResult {
    /// Builds an aggregate from per-phase stats and migration totals.
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError`] when `phases` is empty: an empty run has
    /// no accesses or cycles, so every derived ratio (`amat_ns`, `ipc`,
    /// `mpki`) would silently degenerate to zero and masquerade as a
    /// measurement.
    pub fn from_phases(
        phases: Vec<PhaseStats>,
        pages_migrated: u64,
        pages_to_pool: u64,
        directory: DirectoryStats,
    ) -> Result<Self, StarNumaError> {
        if phases.is_empty() {
            return Err(StarNumaError::new(
                "RunResult::from_phases phases = []: must hold at least one phase's \
                 statistics, or AMAT/IPC/MPKI are undefined (run phases >= 1 with nonzero \
                 instructions_per_phase)",
            ));
        }
        let mut agg = PhaseStats::default();
        for p in &phases {
            agg.merge(p);
        }
        let accesses = agg.memory_accesses();
        let mut class_fracs = [0.0; 6];
        let mut class_mean_ns = [0.0; 6];
        if accesses > 0 {
            for (i, &c) in agg.class_counts.iter().enumerate() {
                class_fracs[i] = c as f64 / accesses as f64;
                if c > 0 {
                    class_mean_ns[i] = agg.class_measured_ns[i] / c as f64;
                }
            }
        }
        let amat = agg.amat_ns();
        let unloaded = agg.unloaded_amat_ns();
        // Per-core IPC: each phase contributes `instructions/cores`
        // instructions over `core_cycles_sum/cores` cycles; the merged ratio
        // `instructions / core_cycles_sum` is exactly the per-core IPC.
        let ipc = if agg.core_cycles_sum == 0 {
            0.0
        } else {
            agg.instructions as f64 / agg.core_cycles_sum as f64
        };
        let mpki = if agg.instructions == 0 {
            0.0
        } else {
            accesses as f64 * 1000.0 / agg.instructions as f64
        };
        Ok(RunResult {
            phases,
            ipc,
            class_mean_ns,
            amat_ns: amat,
            unloaded_amat_ns: unloaded,
            contention_ns: (amat - unloaded).max(0.0),
            class_fracs,
            pages_migrated,
            pages_to_pool,
            directory,
            mpki,
            replication: None,
        })
    }

    /// Fraction of accesses in a given class.
    pub fn class_frac(&self, class: AccessClass) -> f64 {
        self.class_fracs[class.index()]
    }

    /// Fraction of this run's migrations that targeted the pool
    /// (Table IV; 0 if nothing migrated).
    pub fn pool_migration_frac(&self) -> f64 {
        if self.pages_migrated == 0 {
            0.0
        } else {
            self.pages_to_pool as f64 / self.pages_migrated as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(counts: [u64; 6], unloaded: f64, measured: f64) -> PhaseStats {
        PhaseStats {
            class_counts: counts,
            unloaded_ns_sum: unloaded,
            measured_ns_sum: measured,
            class_measured_ns: [0.0; 6],
            llc_hits: 0,
            instructions: 1000,
            core_cycles_sum: 4000,
            cores: 4,
            migrations_modeled: 0,
        }
    }

    #[test]
    fn amat_decomposition() {
        let p = phase([10, 0, 0, 0, 0, 0], 800.0, 1200.0);
        assert_eq!(p.amat_ns(), 120.0);
        assert_eq!(p.unloaded_amat_ns(), 80.0);
        let r = RunResult::from_phases(vec![p], 0, 0, DirectoryStats::default()).unwrap();
        assert_eq!(r.amat_ns, 120.0);
        assert_eq!(r.contention_ns, 40.0);
        assert_eq!(r.class_fracs[0], 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = phase([1, 2, 3, 0, 0, 0], 100.0, 200.0);
        let b = phase([1, 0, 0, 4, 0, 0], 50.0, 60.0);
        a.merge(&b);
        assert_eq!(a.class_counts, [2, 2, 3, 4, 0, 0]);
        assert_eq!(a.memory_accesses(), 11);
        assert_eq!(a.instructions, 2000);
    }

    #[test]
    fn ipc_from_instructions_and_cycles() {
        let p = phase([0; 6], 0.0, 0.0);
        // 1000 instructions over mean 1000 cycles across 4 cores: the four
        // cores each retired 250 instructions in 1000 cycles → IPC 0.25.
        let r = RunResult::from_phases(vec![p], 0, 0, DirectoryStats::default()).unwrap();
        assert!((r.ipc - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pool_migration_fraction() {
        let r = RunResult::from_phases(
            vec![phase([1, 0, 0, 0, 0, 0], 80.0, 80.0)],
            200,
            160,
            DirectoryStats::default(),
        )
        .unwrap();
        assert!((r.pool_migration_frac() - 0.8).abs() < 1e-12);
        let none = RunResult::from_phases(
            vec![phase([1, 0, 0, 0, 0, 0], 80.0, 80.0)],
            0,
            0,
            DirectoryStats::default(),
        )
        .unwrap();
        assert_eq!(none.pool_migration_frac(), 0.0);
    }

    #[test]
    fn empty_phase_list_is_rejected() {
        let err = RunResult::from_phases(vec![], 0, 0, DirectoryStats::default())
            .expect_err("an empty run must not aggregate");
        assert_eq!(err.problems().len(), 1);
        assert!(err.to_string().contains("phases = []"), "{err}");
    }

    #[test]
    fn class_frac_lookup() {
        let p = phase([3, 1, 0, 0, 0, 0], 0.0, 0.0);
        let r = RunResult::from_phases(vec![p], 0, 0, DirectoryStats::default()).unwrap();
        assert!((r.class_frac(AccessClass::Local) - 0.75).abs() < 1e-12);
        assert!((r.class_frac(AccessClass::OneHop) - 0.25).abs() < 1e-12);
        assert_eq!(r.class_frac(AccessClass::BtPool), 0.0);
    }
}
