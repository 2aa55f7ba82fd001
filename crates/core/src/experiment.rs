//! The paper's experimental configurations as a single enum, and the
//! experiment runner.

use starnuma_migration::ReplicationConfig;
use starnuma_obs::{ClassSummary, LatencyHistogram, ObsReport, RunRecord, NUM_CLASSES};
use starnuma_sim::{MigrationMode, Modality, RunConfig, RunResult, Runner};
use starnuma_topology::{BandwidthVariant, SystemParams};
use starnuma_trace::Workload;
use starnuma_types::fnv1a_digest;

use crate::pool::JobPool;
use crate::scale::ScaleConfig;

/// Every system configuration evaluated in the paper, by section:
///
/// | Variant | Paper experiment |
/// |---|---|
/// | `Baseline` | §V-A baseline: perfect-knowledge dynamic migration |
/// | `BaselineFirstTouch` | first-touch only (reference point) |
/// | `BaselineIsoBw` / `Baseline2xBw` | §V-D bandwidth provisioning |
/// | `BaselineStaticOracle` | §V-B static oracular placement, no pool |
/// | `StarNuma` | §V-A StarNUMA with the `T_16` tracker |
/// | `StarNumaT0` | §V-A with the `T_0` tracker |
/// | `StarNumaHalfBw` | §V-D x4 CXL links |
/// | `StarNumaCxlSwitch` | §V-C 190 ns pool penalty (CXL switch) |
/// | `StarNumaSmallPool` | §V-E pool capacity 1/17 of footprint |
/// | `StarNumaStaticOracle` | §V-B static oracular placement with pool |
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SystemKind {
    /// Baseline 16-socket system with perfect-knowledge dynamic migration,
    /// tuned per workload as in §IV-C: the better of the oracle policy and
    /// the zero-migration limit is reported.
    Baseline,
    /// Baseline with first-touch placement only.
    BaselineFirstTouch,
    /// Baseline with coherent links raised by StarNUMA's aggregate CXL
    /// bandwidth (UPI 26.4, NUMALink 17 GB/s full-scale).
    BaselineIsoBw,
    /// Baseline with every coherent link doubled.
    Baseline2xBw,
    /// Baseline with §V-B oracular static placement.
    BaselineStaticOracle,
    /// StarNUMA with the `T_16` hardware tracker (the default system).
    StarNuma,
    /// StarNUMA with the `T_0` (touched-bits-only) tracker.
    StarNumaT0,
    /// StarNUMA with halved CXL link bandwidth (x4 links).
    StarNumaHalfBw,
    /// StarNUMA with an intermediate CXL switch (270 ns pool access).
    StarNumaCxlSwitch,
    /// StarNUMA with a single-socket-sized pool (1/17 of the footprint).
    StarNumaSmallPool,
    /// StarNUMA with §V-B oracular static placement.
    StarNumaStaticOracle,
}

impl SystemKind {
    /// All variants, in a stable presentation order.
    pub const ALL: [SystemKind; 11] = [
        SystemKind::Baseline,
        SystemKind::BaselineFirstTouch,
        SystemKind::BaselineIsoBw,
        SystemKind::Baseline2xBw,
        SystemKind::BaselineStaticOracle,
        SystemKind::StarNuma,
        SystemKind::StarNumaT0,
        SystemKind::StarNumaHalfBw,
        SystemKind::StarNumaCxlSwitch,
        SystemKind::StarNumaSmallPool,
        SystemKind::StarNumaStaticOracle,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Baseline => "Baseline",
            SystemKind::BaselineFirstTouch => "Baseline (first-touch)",
            SystemKind::BaselineIsoBw => "Baseline ISO-BW",
            SystemKind::Baseline2xBw => "Baseline 2xBW",
            SystemKind::BaselineStaticOracle => "Baseline static-oracle",
            SystemKind::StarNuma => "StarNUMA (T16)",
            SystemKind::StarNumaT0 => "StarNUMA (T0)",
            SystemKind::StarNumaHalfBw => "StarNUMA Half-BW",
            SystemKind::StarNumaCxlSwitch => "StarNUMA +CXL switch",
            SystemKind::StarNumaSmallPool => "StarNUMA small pool (1/17)",
            SystemKind::StarNumaStaticOracle => "StarNUMA static-oracle",
        }
    }

    /// Whether this is a pool-bearing (StarNUMA) configuration.
    pub fn has_pool(self) -> bool {
        matches!(
            self,
            SystemKind::StarNuma
                | SystemKind::StarNumaT0
                | SystemKind::StarNumaHalfBw
                | SystemKind::StarNumaCxlSwitch
                | SystemKind::StarNumaSmallPool
                | SystemKind::StarNumaStaticOracle
        )
    }

    fn system_params(self) -> SystemParams {
        match self {
            SystemKind::Baseline
            | SystemKind::BaselineFirstTouch
            | SystemKind::BaselineStaticOracle => SystemParams::scaled_baseline(),
            SystemKind::BaselineIsoBw => SystemParams::scaled_baseline()
                .with_bandwidth_variant(BandwidthVariant::BaselineIsoBw),
            SystemKind::Baseline2xBw => SystemParams::scaled_baseline()
                .with_bandwidth_variant(BandwidthVariant::Baseline2xBw),
            SystemKind::StarNuma
            | SystemKind::StarNumaT0
            | SystemKind::StarNumaSmallPool
            | SystemKind::StarNumaStaticOracle => SystemParams::scaled_starnuma(),
            SystemKind::StarNumaHalfBw => SystemParams::scaled_starnuma()
                .with_bandwidth_variant(BandwidthVariant::StarNumaHalfBw),
            SystemKind::StarNumaCxlSwitch => SystemParams::scaled_starnuma().with_cxl_switch(),
        }
    }

    fn migration_mode(self) -> MigrationMode {
        match self {
            SystemKind::Baseline | SystemKind::BaselineIsoBw | SystemKind::Baseline2xBw => {
                MigrationMode::OracleDynamic
            }
            SystemKind::BaselineFirstTouch => MigrationMode::FirstTouchOnly,
            SystemKind::BaselineStaticOracle | SystemKind::StarNumaStaticOracle => {
                MigrationMode::StaticOracle
            }
            SystemKind::StarNumaT0 => MigrationMode::Threshold { t0: true },
            _ => MigrationMode::Threshold { t0: false },
        }
    }

    fn pool_capacity_frac(self) -> f64 {
        match self {
            SystemKind::StarNumaSmallPool => 1.0 / 17.0,
            _ => 0.20,
        }
    }
}

impl core::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One (workload, system, scale) experiment.
///
/// # Examples
///
/// ```
/// use starnuma::{Experiment, ScaleConfig, SystemKind, Workload};
///
/// let r = Experiment::new(Workload::Poa, SystemKind::StarNuma, ScaleConfig::quick()).run();
/// assert_eq!(r.pages_to_pool, 0); // POA's pages are all private
/// ```
#[derive(Clone, Debug)]
pub struct Experiment {
    workload: Workload,
    system: SystemKind,
    scale: ScaleConfig,
    replication_budget_frac: Option<f64>,
}

impl Experiment {
    /// Creates the experiment.
    pub fn new(workload: Workload, system: SystemKind, scale: ScaleConfig) -> Self {
        Experiment {
            workload,
            system,
            scale,
            replication_budget_frac: None,
        }
    }

    /// Adds §V-F selective replication of read-only, widely shared regions,
    /// with a per-socket replica budget of `budget_frac` of the workload's
    /// footprint. Every run of the experiment honours it, the baseline's
    /// §IV-C candidate pair included.
    pub fn with_replication(mut self, budget_frac: f64) -> Self {
        self.replication_budget_frac = Some(budget_frac);
        self
    }

    /// The underlying simulator configuration this experiment resolves to.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            params: self
                .system
                .system_params()
                .with_scale_preset(self.scale.preset),
            phases: self.scale.phases,
            instructions_per_phase: self.scale.instructions_per_phase,
            warmup_instructions: self.scale.warmup_instructions,
            migration: self.system.migration_mode(),
            pool_capacity_frac: self.system.pool_capacity_frac(),
            migration_limit_pages: 8_192,
            modeled_migration_fraction: 1.0,
            modality: Modality::AllDetailed,
            seed: self.scale.seed,
            replication: self.replication_budget_frac.map(|frac| {
                ReplicationConfig::with_budget_frac(self.workload.profile().footprint_pages, frac)
            }),
        }
    }

    /// FNV-1a digest of [`Experiment::run_config`]'s `Debug` rendering:
    /// the configuration identity the run ledger records.
    pub fn config_digest(&self) -> u64 {
        fnv1a_digest(format!("{:?}", self.run_config()).as_bytes())
    }

    /// The run record of one observed run of this experiment: its identity
    /// (workload, system, preset, seed, [`config_digest`](Self::config_digest),
    /// package version, the global [`JobPool`]'s worker count), the FNV-1a
    /// digest of `result`'s `Debug` rendering, its headline numbers (IPC,
    /// AMAT with its unloaded/contention split, MPKI), per class `result`'s
    /// mean latency with `report`'s sample count and percentiles, and
    /// `report`'s counters. The host field `wall_ns` is left for the
    /// caller to stamp.
    pub fn record(&self, result: &RunResult, report: &ObsReport) -> RunRecord {
        let mut overall = LatencyHistogram::default();
        let mut by_class = [LatencyHistogram::default(); NUM_CLASSES];
        for socket in &report.metrics.sockets {
            for (class, hist) in by_class.iter_mut().zip(&socket.class_hist) {
                class.merge(hist);
                overall.merge(hist);
            }
        }
        let mut classes: Vec<ClassSummary> = report
            .class_labels
            .iter()
            .zip(&by_class)
            .zip(result.class_mean_ns)
            .map(|((label, hist), mean_ns)| ClassSummary {
                mean_ns,
                ..ClassSummary::from_hist(label, hist)
            })
            .collect();
        classes.sort_by(|a, b| a.label.cmp(&b.label));
        RunRecord {
            schema_version: starnuma_obs::LEDGER_SCHEMA_VERSION,
            workload: self.workload.name().to_string(),
            system: self.system.label().to_string(),
            preset: self.scale.preset_label().to_string(),
            jobs: JobPool::global().workers() as u64,
            seed: self.scale.seed,
            version: env!("CARGO_PKG_VERSION").to_string(),
            config_digest: self.config_digest(),
            result_digest: fnv1a_digest(format!("{result:?}").as_bytes()),
            wall_ns: 0,
            ipc: result.ipc,
            amat_ns: result.amat_ns,
            unloaded_amat_ns: result.unloaded_amat_ns,
            contention_ns: result.contention_ns,
            mpki: result.mpki,
            pages_migrated: result.pages_migrated,
            pages_to_pool: result.pages_to_pool,
            dropped_events: report.dropped_events,
            overall: ClassSummary::from_hist("overall", &overall),
            classes,
            counters: report.metrics.counters.clone(),
        }
    }

    /// Runs the experiment to completion.
    pub fn run(&self) -> RunResult {
        self.run_with(false).0
    }

    /// Runs the experiment, returning the report too when `observe` is
    /// set (see [`Runner::run_with`]).
    ///
    /// For the baseline systems this follows the paper's §IV-C protocol of
    /// *choosing the best-performing migration limit per workload-system
    /// combination, from 0 upward*: both the perfect-knowledge dynamic
    /// policy and the no-migration (limit 0, first-touch) variant are run
    /// — in parallel on the global [`JobPool`], since each is a pure
    /// function of its config — and the better one is the baseline. Both
    /// candidates run observed alike, so the report always describes the
    /// result that is reported.
    pub fn run_with(&self, observe: bool) -> (RunResult, Option<ObsReport>) {
        let profile = self.workload.profile();
        let cfg = self.run_config();
        let tunes_limit = matches!(
            self.system,
            SystemKind::Baseline | SystemKind::BaselineIsoBw | SystemKind::Baseline2xBw
        );
        if !tunes_limit {
            return Runner::new(profile, cfg).run_with(observe);
        }
        let mut dynamic_cfg = cfg.clone();
        dynamic_cfg.migration = MigrationMode::OracleDynamic;
        let mut zero_cfg = cfg;
        zero_cfg.migration = MigrationMode::FirstTouchOnly;
        let mut results = JobPool::global().run(vec![dynamic_cfg, zero_cfg], |_, cfg| {
            Runner::new(profile.clone(), cfg).run_with(observe)
        });
        // The pool returns exactly one result per job, in input order.
        let zero = results.remove(1);
        let dynamic = results.remove(0);
        if zero.0.ipc > dynamic.0.ipc {
            zero
        } else {
            dynamic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_consistent_configs() {
        for kind in SystemKind::ALL {
            let e = Experiment::new(Workload::Bfs, kind, ScaleConfig::quick());
            let cfg = e.run_config();
            assert_eq!(cfg.params.has_pool, kind.has_pool(), "{kind}");
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn iso_bw_raises_links() {
        let iso = Experiment::new(
            Workload::Bfs,
            SystemKind::BaselineIsoBw,
            ScaleConfig::quick(),
        )
        .run_config();
        let base =
            Experiment::new(Workload::Bfs, SystemKind::Baseline, ScaleConfig::quick()).run_config();
        assert!(iso.params.upi_bw.raw() > base.params.upi_bw.raw());
        assert!(iso.params.numalink_bw.raw() > base.params.numalink_bw.raw());
    }

    #[test]
    fn small_pool_uses_one_seventeenth() {
        let e = Experiment::new(
            Workload::Bfs,
            SystemKind::StarNumaSmallPool,
            ScaleConfig::quick(),
        );
        let cfg = e.run_config();
        assert!((cfg.pool_capacity_frac - 1.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn cxl_switch_raises_pool_latency() {
        let cfg = Experiment::new(
            Workload::Tc,
            SystemKind::StarNumaCxlSwitch,
            ScaleConfig::quick(),
        )
        .run_config();
        assert_eq!(cfg.params.cxl_one_way.raw(), 95.0);
    }
}
