//! The multi-step sampling pipeline of §IV-A: trace generation (step A),
//! memory-trace simulation with migration decisions (step B), and timing
//! simulation (step C), phase by phase.

use starnuma_cache::{Tlb, TlbConfig};
use starnuma_migration::{
    static_oracle_placement_with_sharers, FirstTouch, MetadataRegion, MigrationCosts,
    OracleDynamicPolicy, PageAccessCounts, PolicyConfig, ReplicaMap, ThresholdPolicy,
};
use starnuma_obs::{EventCategory, EventLevel, FieldValue, ObsReport, ObsSink};
use starnuma_prof::{ProfScope, Site};
use starnuma_topology::Network;
use starnuma_trace::{TraceGenerator, WorkloadProfile};
use starnuma_types::{CoreId, REGION_PAGES};
use starnuma_types::{Location, SimRng, StarNumaError};

use crate::config::{MigrationMode, Modality, RunConfig};
use crate::stats::{PhaseStats, RunResult};
use crate::timing::TimingSim;

/// Runs one complete experiment: a workload profile on a system
/// configuration, through warm-up and all phases.
///
/// # Examples
///
/// ```
/// use starnuma_sim::{MigrationMode, RunConfig, Runner};
/// use starnuma_trace::Workload;
///
/// let config = RunConfig {
///     phases: 1,
///     instructions_per_phase: 10_000,
///     warmup_instructions: 0,
///     ..RunConfig::default()
/// };
/// let result = Runner::new(Workload::Poa.profile(), config).run();
/// assert_eq!(result.pages_to_pool, 0); // POA never needs the pool
/// ```
#[derive(Clone, Debug)]
pub struct Runner {
    profile: WorkloadProfile,
    config: RunConfig,
}

impl Runner {
    /// Creates a runner for `profile` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the model fails validation; use [`Runner::try_new`] to get
    /// the problems as an error instead.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience wrapper"
    )]
    pub fn new(profile: WorkloadProfile, config: RunConfig) -> Self {
        Self::try_new(profile, config).expect("invalid model configuration")
    }

    /// Creates a runner after running the pre-run model checks
    /// ([`RunConfig::check`], which runs the parameters' first).
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError`] listing every problem found.
    pub fn try_new(profile: WorkloadProfile, config: RunConfig) -> Result<Self, StarNumaError> {
        config.check()?;
        Ok(Runner { profile, config })
    }

    /// Executes the run and aggregates the results.
    pub fn run(self) -> RunResult {
        self.run_observed(&mut ObsSink::disabled())
    }

    /// Executes the run, and when `observe` is set also records an
    /// [`ObsReport`]: the run's per-socket × per-class latency histograms,
    /// its substrate counters, and the structured event journal. The
    /// [`RunResult`] is the same either way; unobserved, the disabled sink
    /// costs one branch per record.
    pub fn run_with(self, observe: bool) -> (RunResult, Option<ObsReport>) {
        if !observe {
            return (self.run(), None);
        }
        let mut obs = ObsSink::enabled(
            self.config.params.num_sockets,
            crate::access_class_labels(),
            starnuma_obs::DEFAULT_JOURNAL_CAPACITY,
        );
        let result = self.run_observed(&mut obs);
        (result, Some(obs.finish()))
    }

    /// Executes the run, recording into `obs`. With a disabled sink this
    /// is exactly [`Runner::run`].
    fn run_observed(self, obs: &mut ObsSink) -> RunResult {
        let params = &self.config.params;
        let n_sockets = params.num_sockets;
        let cps = params.cores_per_socket;
        let fp = self.profile.footprint_pages;
        let pool_cap = self.config.pool_capacity_pages(fp);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the run allocates state per page, so the page count fits usize"
        )]
        let num_regions = (fp as usize).div_ceil(REGION_PAGES);

        let mut gen = {
            let _prof = ProfScope::enter(Site::TraceGen);
            TraceGenerator::new(&self.profile, n_sockets, cps, self.config.seed)
        };

        // --- Warm-up trace (also used for first-touch placement). ---
        let warmup_trace = if self.config.warmup_instructions > 0 {
            let _prof = ProfScope::enter(Site::TraceGen);
            Some(gen.generate_phase(self.config.warmup_instructions))
        } else {
            None
        };

        // --- Initial placement (step B bootstrap). --- Both scouts replay
        // every phase with a cloned generator (deterministic) and fold each
        // phase in as it is generated, so only one phase trace is live.
        let placement_prof = ProfScope::enter(Site::MigrationPolicy);
        let mut map = {
            let mut scout = gen.clone();
            let mut scout_phase = || {
                let _prof = ProfScope::enter(Site::TraceGen);
                scout.generate_phase(self.config.instructions_per_phase)
            };
            match self.config.migration {
                MigrationMode::StaticOracle => {
                    // Whole-run oracle: tally every phase, then lay out once.
                    // The sharing degree comes from the generator's ground
                    // truth — the §V-B oracle has a-priori knowledge of the
                    // access pattern.
                    let mut counts = PageAccessCounts::new(fp, n_sockets);
                    for _ in 0..self.config.phases {
                        counts.add_trace(&scout_phase(), cps);
                    }
                    static_oracle_placement_with_sharers(&counts, pool_cap, 8, |p| {
                        u32::try_from(scout.page_sharers(p).len()).unwrap_or(u32::MAX)
                    })
                }
                _ => {
                    // True first-touch semantics: a page lives where its first
                    // toucher over the *whole run* (warm-up + all phases) sits —
                    // a page is not allocated until someone touches it. Each
                    // core's icounts run on from its own last access, so a
                    // later phase can win a page (see `FirstTouch`).
                    let mut first = FirstTouch::new(fp);
                    if let Some(w) = &warmup_trace {
                        first.add(w);
                    }
                    for _ in 0..self.config.phases {
                        first.add(&scout_phase());
                    }
                    first.finish(pool_cap, cps, n_sockets)
                }
            }
        };
        drop(placement_prof);

        // --- Hardware models. --- (Constructing the interconnect, LLCs,
        // and directory is a fixed setup cost; charge it to the timing
        // site so short runs still attribute their wall time.)
        let model_prof = ProfScope::enter(Site::Timing);
        let net = Network::new(params);
        let mut sim = TimingSim::new(net, MigrationCosts::paper());
        sim.set_light_cpi(self.profile.base_cpi());
        drop(model_prof);

        // --- Tracking + policy state. ---
        let t0 = matches!(self.config.migration, MigrationMode::Threshold { t0: true });
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a per-region mean access count is far below 2^64"
        )]
        let mean_region_accesses = (self.config.instructions_per_phase as f64 * self.profile.mpki
            / 1000.0
            * (n_sockets * cps) as f64
            / num_regions as f64) as u64;
        let mut policy_cfg = if t0 {
            PolicyConfig::t0(u32::try_from(n_sockets).unwrap_or(u32::MAX))
        } else {
            PolicyConfig::t16_scaled(mean_region_accesses.max(2))
        };
        policy_cfg.migration_limit_pages = self.config.migration_limit_pages;
        let mut policy = ThresholdPolicy::new(policy_cfg, num_regions, params.has_pool);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "float-to-int `as` saturates deterministically"
        )]
        let mut oracle = OracleDynamicPolicy::new(
            ((self.config.instructions_per_phase as f64 * self.profile.mpki / 1000.0
                * (n_sockets * cps) as f64)
                / fp as f64)
                .max(2.0) as u32,
            self.config.migration_limit_pages,
        );
        // The TLB's *reach relative to the per-phase working set* is what
        // drives the annex-flush rate: the paper's 1536-entry TLB churns
        // constantly under billion-instruction phases. At the scaled-down
        // window lengths the TLB must scale too, or counters never flush
        // (no evictions) and the tracker starves.
        let tlb_cfg = TlbConfig {
            entries: 64,
            counter_bits: if t0 { 0 } else { 16 },
        };
        let tracker_prof = ProfScope::enter(Site::Tlb);
        let mut tlbs: Vec<Tlb> = (0..n_sockets * cps).map(|_| Tlb::new(tlb_cfg)).collect();
        let mut meta = MetadataRegion::new(num_regions, n_sockets, tlb_cfg.counter_bits);
        drop(tracker_prof);
        let mut rng = SimRng::seed_from_u64(self.config.seed ^ 0x6d69_6772);

        // --- Warm-up (populates LLCs/directory; no stats, no migration). ---
        if let Some(w) = warmup_trace {
            sim.run_phase(
                &w,
                &mut map,
                &[],
                self.profile.base_cpi(),
                self.profile.mlp,
                self.config.warmup_instructions,
                self.config.modality,
                false,
            );
            sim.reset_servers();
        }

        // --- Phase loop. ---
        let mut replicas = self
            .config
            .replication
            .map(|cfg| ReplicaMap::new(n_sockets, cfg));
        let mut ablation_migrated = 0u64;
        let mut ablation_to_pool = 0u64;
        let mut phase_stats: Vec<PhaseStats> = Vec::with_capacity(self.config.phases);
        // LLCs and the directory persist across phases: the run's counters
        // are their growth since warm-up.
        let warm_llc = sim.llc_stats();
        let warm_dir = sim.directory_stats();
        for phase in 0..self.config.phases {
            obs.begin_phase(u32::try_from(phase).unwrap_or(u32::MAX));
            let trace = {
                let _prof = ProfScope::enter(Site::TraceGen);
                gen.generate_phase(self.config.instructions_per_phase)
            };

            // Snapshot the phase-start placement before step B mutates the
            // live map (the checkpoint of §IV-A2).
            let snapshot = {
                let _prof = ProfScope::enter(Site::Checkpoint);
                map.clone()
            };

            // Step B: tracking + migration decisions.
            let step_b_prof = ProfScope::enter(Site::MigrationPolicy);
            let plan = match self.config.migration {
                MigrationMode::Threshold { .. } => {
                    {
                        let _prof = ProfScope::enter(Site::Tlb);
                        for tlb in &mut tlbs {
                            tlb.set_markers();
                        }
                        for (core_idx, stream) in trace.per_core.iter().enumerate() {
                            let core = u32::try_from(core_idx).unwrap_or(u32::MAX);
                            let socket = CoreId::new(core).socket(cps);
                            let tlb = &mut tlbs[core_idx];
                            for a in stream {
                                if let Some(f) = tlb.record_llc_miss(a.addr.page()) {
                                    if f.page.pfn() < fp {
                                        meta.record(f.page.region(), socket, f.count);
                                    }
                                }
                            }
                        }
                    }
                    let plan = policy.decide_observed(&meta, &mut map, &mut rng, obs);
                    meta.reset();
                    plan
                }
                MigrationMode::OracleDynamic => {
                    let counts = PageAccessCounts::from_trace(&trace, fp, n_sockets, cps);
                    oracle.decide(&counts, &mut map)
                }
                MigrationMode::Ablation(ablation) => {
                    // Perfect region-level tracking: only the selection
                    // criterion is under test.
                    let mut perfect = MetadataRegion::new(num_regions, n_sockets, 16);
                    for a in trace.iter() {
                        perfect.record(a.addr.page().region(), a.core.socket(cps), 1);
                    }
                    let plan = ablation.decide(
                        &perfect,
                        &mut map,
                        self.config.migration_limit_pages,
                        &mut rng,
                    );
                    ablation_migrated += plan.total();
                    ablation_to_pool +=
                        plan.moves.iter().filter(|m| m.to == Location::Pool).count() as u64;
                    plan
                }
                _ => Default::default(),
            };
            drop(step_b_prof);

            // §V-F replication decisions (perfect region tracking: which
            // regions were read-only and widely shared this phase).
            if let Some(reps) = &mut replicas {
                let _prof = ProfScope::enter(Site::MigrationPolicy);
                let mut perfect = MetadataRegion::new(num_regions, n_sockets, 16);
                for a in trace.iter() {
                    let region = a.addr.page().region();
                    perfect.record(region, a.core.socket(cps), 1);
                    if a.kind.is_write() {
                        perfect.mark_written(region);
                    }
                }
                reps.decide(&perfect);
            }

            // Step C: timing simulation from the phase-start snapshot, with
            // the first `modeled_migration_fraction` of the plan in flight.
            let mut timing_map = snapshot;
            // The initiator core spends 3 k cycles per migrated page; at the
            // paper's scale whole plans fit inside a billion-cycle phase, but
            // scaled-down windows cannot absorb them — so, exactly like the
            // paper's timing windows (which cover the first 10 % of each
            // phase, §IV-C), model the prefix of the plan whose initiator
            // schedule fits in ~10 % of the phase, and let the rest take
            // effect between phases.
            let phase_cycles = self.config.instructions_per_phase as f64 * self.profile.base_cpi();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a page budget of 10% of one phase is far below usize::MAX"
            )]
            let budget_pages = (phase_cycles * 0.1 / 3_000.0).floor() as usize;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a fraction of the plan's length is at most that length"
            )]
            let modeled_count = ((plan.moves.len() as f64 * self.config.modeled_migration_fraction)
                .round() as usize)
                .min(plan.moves.len())
                .min(budget_pages);
            obs.event(
                EventLevel::Info,
                EventCategory::Checkpoint,
                "phase_checkpoint",
                || {
                    vec![
                        ("planned_moves", FieldValue::U64(plan.moves.len() as u64)),
                        ("modeled_moves", FieldValue::U64(modeled_count as u64)),
                        ("budget_pages", FieldValue::U64(budget_pages as u64)),
                    ]
                },
            );
            let stats = sim.run_phase_observed(
                &trace,
                &mut timing_map,
                &plan.moves[..modeled_count],
                self.profile.base_cpi(),
                self.profile.mlp,
                self.config.instructions_per_phase,
                self.config.modality,
                true,
                replicas.as_mut(),
                obs,
            );
            // Mixed modality: regulate next phase's light injection rate by
            // this phase's measured IPC (§IV-B).
            if let Modality::Mixed { .. } = self.config.modality {
                let ipc = stats.ipc();
                if ipc > 0.0 {
                    sim.set_light_cpi(1.0 / ipc);
                }
            }
            // Phase barrier: links and DRAM reset each phase, so pour their
            // stats in before the reset.
            if obs.is_enabled() {
                let _prof = ProfScope::enter(Site::ObsExport);
                let [upi, numalink, cxl] = sim.link_stats();
                obs.observe("link.upi", &upi);
                obs.observe("link.numalink", &numalink);
                obs.observe("link.cxl", &cxl);
                let (socket_mem, pool_mem) = sim.memory_stats();
                obs.observe("mem.socket", &socket_mem);
                if let Some(pool) = pool_mem {
                    obs.observe("mem.pool", &pool);
                }
            }
            sim.reset_servers();
            phase_stats.push(stats);
        }
        if obs.is_enabled() {
            let _prof = ProfScope::enter(Site::ObsExport);
            let llc = sim.llc_stats();
            let dir = sim.directory_stats();
            obs.observe(
                "llc",
                &starnuma_cache::CacheStats {
                    hits: llc.hits.saturating_sub(warm_llc.hits),
                    misses: llc.misses.saturating_sub(warm_llc.misses),
                    writebacks: llc.writebacks.saturating_sub(warm_llc.writebacks),
                },
            );
            obs.observe(
                "dir",
                &starnuma_coherence::DirectoryStats {
                    transactions: dir.transactions.saturating_sub(warm_dir.transactions),
                    pool_transactions: dir
                        .pool_transactions
                        .saturating_sub(warm_dir.pool_transactions),
                    bt_socket: dir.bt_socket.saturating_sub(warm_dir.bt_socket),
                    bt_pool: dir.bt_pool.saturating_sub(warm_dir.bt_pool),
                    invalidations: dir.invalidations.saturating_sub(warm_dir.invalidations),
                    writebacks: dir.writebacks.saturating_sub(warm_dir.writebacks),
                },
            );
        }

        let (migrated, to_pool) = match self.config.migration {
            MigrationMode::Threshold { .. } => (policy.pages_migrated, policy.pages_to_pool),
            MigrationMode::OracleDynamic => (oracle.pages_migrated, 0),
            MigrationMode::Ablation(_) => (ablation_migrated, ablation_to_pool),
            _ => (0, 0),
        };
        // `RunConfig::check` rejects empty run shapes, so >= 1 measured phase.
        #[expect(
            clippy::expect_used,
            reason = "the config check guarantees a measured phase"
        )]
        let mut result =
            RunResult::from_phases(phase_stats, migrated, to_pool, sim.directory_stats())
                .expect("the config check guarantees at least one measured phase");
        if let Some(reps) = replicas {
            result.replication = Some(reps.stats());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_topology::SystemParams;
    use starnuma_trace::Workload;

    fn quick_config(migration: MigrationMode, starnuma: bool) -> RunConfig {
        RunConfig {
            params: if starnuma {
                SystemParams::scaled_starnuma()
            } else {
                SystemParams::scaled_baseline()
            },
            phases: 2,
            instructions_per_phase: 15_000,
            warmup_instructions: 2_000,
            migration,
            ..RunConfig::default()
        }
    }

    #[test]
    fn poa_never_migrates_and_stays_local() {
        let r = Runner::new(
            Workload::Poa.profile(),
            quick_config(MigrationMode::Threshold { t0: false }, true),
        )
        .run();
        assert_eq!(r.pages_to_pool, 0, "POA places nothing in the pool");
        assert!(r.class_fracs[0] > 0.99, "POA accesses are local");
    }

    #[test]
    fn starnuma_pools_bfs_pages() {
        let r = Runner::new(
            Workload::Bfs.profile(),
            quick_config(MigrationMode::Threshold { t0: false }, true),
        )
        .run();
        assert!(r.pages_migrated > 0);
        assert!(
            r.pool_migration_frac() > 0.5,
            "most BFS migrations go to the pool (Table IV: 100%), got {}",
            r.pool_migration_frac()
        );
        assert!(r.class_frac(starnuma_topology::AccessClass::Pool) > 0.0);
    }

    #[test]
    fn baseline_oracle_never_pools() {
        let r = Runner::new(
            Workload::Bfs.profile(),
            quick_config(MigrationMode::OracleDynamic, false),
        )
        .run();
        assert_eq!(r.pages_to_pool, 0);
        assert_eq!(r.class_frac(starnuma_topology::AccessClass::Pool), 0.0);
        assert_eq!(r.class_frac(starnuma_topology::AccessClass::BtPool), 0.0);
    }

    #[test]
    fn starnuma_beats_baseline_on_bfs() {
        let base = Runner::new(
            Workload::Bfs.profile(),
            quick_config(MigrationMode::OracleDynamic, false),
        )
        .run();
        let star = Runner::new(
            Workload::Bfs.profile(),
            quick_config(MigrationMode::Threshold { t0: false }, true),
        )
        .run();
        assert!(
            star.ipc > base.ipc,
            "StarNUMA {} must beat baseline {}",
            star.ipc,
            base.ipc
        );
        assert!(star.amat_ns < base.amat_ns);
    }

    #[test]
    fn static_oracle_runs_without_migrations() {
        let r = Runner::new(
            Workload::Tpcc.profile(),
            quick_config(MigrationMode::StaticOracle, true),
        )
        .run();
        assert_eq!(r.pages_migrated, 0);
        assert!(r.ipc > 0.0);
        assert!(
            r.class_frac(starnuma_topology::AccessClass::Pool) > 0.0,
            "static oracle uses the pool for shared pages"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = Runner::new(
            Workload::Cc.profile(),
            quick_config(MigrationMode::Threshold { t0: false }, true),
        )
        .run();
        let b = Runner::new(
            Workload::Cc.profile(),
            quick_config(MigrationMode::Threshold { t0: false }, true),
        )
        .run();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.amat_ns, b.amat_ns);
        assert_eq!(a.pages_migrated, b.pages_migrated);
    }
}
