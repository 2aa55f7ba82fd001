//! Run configuration: which system, how many phases, which migration policy.

use starnuma_topology::SystemParams;
use starnuma_types::{Diagnostic, SocketId};

/// Which data-placement machinery runs during the simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrationMode {
    /// First-touch placement only; no runtime migration (POA-style).
    FirstTouchOnly,
    /// The favored baseline of §IV-C: zero-cost, perfect per-socket
    /// knowledge of every 4 KiB page's accesses, migrating each hot page to
    /// its dominant socket. Never uses the pool.
    OracleDynamic,
    /// StarNUMA's Algorithm 1 over the hardware tracking stack (TLB counter
    /// annex → metadata region). `t0` selects the `T_0` tracker design.
    /// On a pool-less system this degrades to socket-to-socket migration.
    Threshold {
        /// Use the `T_0` (touched-bits only) tracker instead of `T_16`.
        t0: bool,
    },
    /// The §V-B oracular *static* placement: a single a-priori layout
    /// computed from whole-run access knowledge; no runtime migration.
    /// Uses the pool if the system has one.
    StaticOracle,
    /// A design-space ablation of Algorithm 1's selection criterion
    /// (hotness-only / sharing-only / random pool fill). Uses perfect
    /// region-level tracking so only the *selection* differs.
    Ablation(starnuma_migration::AblationPolicy),
}

/// Socket modeling detail (§IV-B).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Modality {
    /// Every socket's cores run the detailed core model. Strictly more
    /// faithful than the paper's mixed modality and affordable with this
    /// simulator's lean core model; the default.
    AllDetailed,
    /// The paper's mixed-modality simulation: one socket is detailed, the
    /// rest are "light" endpoints that inject their traces at a rate
    /// regulated by the detailed socket's measured IPC (updated per phase).
    Mixed {
        /// The socket simulated in detail.
        detailed_socket: SocketId,
    },
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Hardware parameters (Table I/II plus variants).
    pub params: SystemParams,
    /// Number of phases (checkpoints); the paper uses 5–10.
    pub phases: usize,
    /// Instructions per core per phase (the paper's 100 M-instruction
    /// detailed windows, scaled down).
    pub instructions_per_phase: u64,
    /// Warm-up instructions per core before the first phase: populates LLCs
    /// and directory state; excluded from statistics (§IV-A3).
    pub warmup_instructions: u64,
    /// Placement/migration machinery.
    pub migration: MigrationMode,
    /// Pool capacity as a fraction of the workload footprint (0.20 default;
    /// 1/17 in the §V-E study). Ignored on pool-less systems.
    pub pool_capacity_frac: f64,
    /// Algorithm 1's per-phase migration limit in 4 KiB pages.
    pub migration_limit_pages: u64,
    /// Fraction of each phase's migration plan modeled in detail during
    /// timing simulation (§IV-C: the paper's 100 M-instruction windows cover
    /// the first 10 % of each billion-instruction phase; here the simulated
    /// window *is* the phase, so the default is 1.0).
    pub modeled_migration_fraction: f64,
    /// Socket modeling detail.
    pub modality: Modality,
    /// RNG seed: runs are bit-for-bit reproducible.
    pub seed: u64,
    /// Optional §V-F selective replication of read-only, widely shared
    /// regions (complementary to — and combinable with — pooling).
    pub replication: Option<starnuma_migration::ReplicationConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            params: SystemParams::scaled_starnuma(),
            phases: 4,
            instructions_per_phase: 120_000,
            warmup_instructions: 10_000,
            migration: MigrationMode::Threshold { t0: false },
            pool_capacity_frac: 0.20,
            migration_limit_pages: 16_384,
            modeled_migration_fraction: 1.0,
            modality: Modality::AllDetailed,
            seed: 42,
            replication: None,
        }
    }
}

impl RunConfig {
    /// Pool capacity in pages for a given footprint.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a fraction in [0, 1] (SN102) keeps the product within footprint_pages"
    )]
    pub fn pool_capacity_pages(&self, footprint_pages: u64) -> u64 {
        if self.params.has_pool {
            ((footprint_pages as f64) * self.pool_capacity_frac).round() as u64
        } else {
            0
        }
    }

    /// Pre-run model validation.
    ///
    /// Aggregates [`SystemParams::diagnostics`] with run-level checks:
    /// `SN102` for a pool-capacity fraction outside `[0, 1]` and `SN106`
    /// for run-shape problems (empty runs, a migration fraction outside
    /// `[0, 1]`, a detailed socket that does not exist).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = self.params.diagnostics();
        if !self.pool_capacity_frac.is_finite() || !(0.0..=1.0).contains(&self.pool_capacity_frac) {
            out.push(Diagnostic::error(
                "SN102",
                "RunConfig.pool_capacity_frac",
                format!(
                    "pool capacity fraction must lie in [0, 1], got {}",
                    self.pool_capacity_frac
                ),
                "the paper sizes the pool at 20% of the footprint (1/17 in the small-pool study)",
            ));
        }
        if !self.modeled_migration_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.modeled_migration_fraction)
        {
            out.push(Diagnostic::error(
                "SN106",
                "RunConfig.modeled_migration_fraction",
                format!(
                    "modeled migration fraction must lie in [0, 1], got {}",
                    self.modeled_migration_fraction
                ),
                "1.0 models the whole plan in timing simulation; 0.1 mimics the paper's windows",
            ));
        }
        if self.phases == 0 || self.instructions_per_phase == 0 {
            // An error (not a warning) since PR 4: an empty run produces no
            // phase statistics, so `RunResult::from_phases` has nothing to
            // aggregate (SN107) — reject the shape before simulating.
            out.push(Diagnostic::error(
                "SN106",
                "RunConfig.phases",
                format!(
                    "empty run: {} phase(s) of {} instruction(s) simulate nothing",
                    self.phases, self.instructions_per_phase
                ),
                "the paper simulates 5-10 phases; the scaled default is 4 x 120 K instructions",
            ));
        }
        if let Modality::Mixed { detailed_socket } = self.modality {
            if usize::from(detailed_socket.index()) >= self.params.num_sockets {
                out.push(Diagnostic::error(
                    "SN106",
                    "RunConfig.modality",
                    format!(
                        "detailed socket {} does not exist in a {}-socket system",
                        detailed_socket.index(),
                        self.params.num_sockets
                    ),
                    "pick a detailed socket below num_sockets",
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_starnuma_t16() {
        let c = RunConfig::default();
        assert!(c.params.has_pool);
        assert_eq!(c.migration, MigrationMode::Threshold { t0: false });
        assert_eq!(c.modality, Modality::AllDetailed);
        assert!((c.pool_capacity_frac - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_run_shape_is_an_error() {
        let c = RunConfig {
            phases: 0,
            ..RunConfig::default()
        };
        assert!(c
            .diagnostics()
            .iter()
            .any(|d| d.code == "SN106" && d.is_error()));
    }

    #[test]
    fn pool_capacity_scales_with_footprint() {
        let c = RunConfig::default();
        assert_eq!(c.pool_capacity_pages(1000), 200);
        let baseline = RunConfig {
            params: SystemParams::scaled_baseline(),
            ..RunConfig::default()
        };
        assert_eq!(baseline.pool_capacity_pages(1000), 0);
    }
}
