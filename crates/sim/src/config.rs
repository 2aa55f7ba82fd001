//! Run configuration: which system, how many phases, which migration policy.

use starnuma_coherence::MAX_SOCKETS;
use starnuma_topology::SystemParams;
use starnuma_types::{SocketId, StarNumaError};

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
        reason = "a fraction in [0, 1] (`RunConfig::check`) keeps the product within footprint_pages"
    )]
    pub fn pool_capacity_pages(&self, footprint_pages: u64) -> u64 {
        if self.params.has_pool {
            ((footprint_pages as f64) * self.pool_capacity_frac).round() as u64
        } else {
            0
        }
    }

    /// Pre-run model validation: [`SystemParams::check`], then the
    /// run-level checks (the pool-capacity and migration fractions within
    /// `[0, 1]`, a non-empty run, a detailed socket that exists).
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError`] listing every problem of both layers,
    /// the parameters' first.
    pub fn check(&self) -> Result<(), StarNumaError> {
        let mut problems = StarNumaError::problems_of(self.params.check());
        // `SystemParams` describes machines up to 1024 sockets, but the
        // directory, the page tracker and the replication masks keep one
        // bit per socket in a `u32`.
        if self.params.num_sockets > MAX_SOCKETS {
            problems.push(format!(
                "RunConfig.params.num_sockets = {}: the simulator models at most \
                 {MAX_SOCKETS} sockets (one bit per socket in the directory's sharer \
                 mask; the paper targets 8-32)",
                self.params.num_sockets
            ));
        }
        if !self.pool_capacity_frac.is_finite() || !(0.0..=1.0).contains(&self.pool_capacity_frac) {
            problems.push(format!(
                "RunConfig.pool_capacity_frac = {}: must lie in [0, 1] (the paper sizes \
                 the pool at 0.2 of the footprint, 1/17 in the small-pool study)",
                self.pool_capacity_frac
            ));
        }
        if !self.modeled_migration_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.modeled_migration_fraction)
        {
            problems.push(format!(
                "RunConfig.modeled_migration_fraction = {}: must lie in [0, 1] (1.0 models \
                 the whole plan in timing simulation; 0.1 mimics the paper's windows)",
                self.modeled_migration_fraction
            ));
        }
        // An empty run produces no phase statistics, so
        // `RunResult::from_phases` has nothing to aggregate: reject the
        // shape before simulating.
        if self.phases == 0 {
            problems.push(
                "RunConfig.phases = 0: must be at least 1 (the paper simulates 5-10 \
                 phases; the scaled default is 4)"
                    .into(),
            );
        }
        if self.instructions_per_phase == 0 {
            problems.push(
                "RunConfig.instructions_per_phase = 0: must be positive (the scaled \
                 default is 120000 per core)"
                    .into(),
            );
        }
        if let Modality::Mixed { detailed_socket } = self.modality {
            if usize::from(detailed_socket.index()) >= self.params.num_sockets {
                problems.push(format!(
                    "RunConfig.modality detailed_socket = {}: must be below num_sockets ({})",
                    detailed_socket.index(),
                    self.params.num_sockets
                ));
            }
        }
        StarNumaError::check(problems)
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
        let found = StarNumaError::problems_of(c.check());
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("RunConfig.phases = 0"), "{found:?}");
        assert!(RunConfig::default().check().is_ok());
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
