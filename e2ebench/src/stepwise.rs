//! A stepwise runner: the public calls `Runner::run_observed` makes, in the
//! same order, each wrapped in a span. It supports the configurations the
//! benchmark workloads use (all-detailed modality, no replication, and the
//! threshold, oracle-dynamic and first-touch migration modes) and must
//! return `Experiment::run`'s `RunResult` bit for bit; the traced mode and
//! the unit tests check that it does.

use std::time::Instant;

use starnuma::{MigrationMode, Modality, RunConfig, RunResult};
use starnuma_cache::{Tlb, TlbConfig};
use starnuma_migration::{
    MetadataRegion, MigrationCosts, OracleDynamicPolicy, PageAccessCounts, PageMap, PolicyConfig,
    ThresholdPolicy,
};
use starnuma_sim::{PhaseStats, TimingSim};
use starnuma_topology::Network;
use starnuma_trace::{TraceGenerator, WorkloadProfile};
use starnuma_types::{CoreId, SimRng, REGION_PAGES};

use crate::probe::Probe;

/// One timed call: `{name, phase, start_ns, end_ns, parent}`, with times in
/// ns since the tracer's epoch and `parent` an index into the same list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub phase: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Keeps spans in memory; children attach to the innermost open root.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    root: Option<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            root: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as a child of the current root.
    pub fn span<R>(&mut self, name: &'static str, phase: Option<u32>, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            phase,
            start_ns,
            end_ns,
            parent: self.root,
        });
        out
    }

    /// Times `f` as a root span that the spans opened inside it attach to.
    pub fn root<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            phase: None,
            start_ns,
            end_ns: start_ns,
            parent: self.root,
        });
        let outer = self.root.replace(idx);
        let out = f(self);
        self.root = outer;
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Summed duration of the spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }
}

/// Substrate counters read from the timing simulator over the measured
/// phases (exact, from the run itself).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub trace_accesses: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub dir_transactions: u64,
    pub c2c_transfers: u64,
    pub invalidations: u64,
    pub link_transfers: u64,
    pub link_wait_cycles: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.trace_accesses += o.trace_accesses;
        self.llc_hits += o.llc_hits;
        self.llc_misses += o.llc_misses;
        self.dir_transactions += o.dir_transactions;
        self.c2c_transfers += o.c2c_transfers;
        self.invalidations += o.invalidations;
        self.link_transfers += o.link_transfers;
        self.link_wait_cycles += o.link_wait_cycles;
    }
}

/// Everything the run holds when measurement starts.
pub struct Setup {
    gen: TraceGenerator,
    map: PageMap,
    sim: TimingSim,
    tlbs: Vec<Tlb>,
    meta: MetadataRegion,
    policy: ThresholdPolicy,
    oracle: OracleDynamicPolicy,
    rng: SimRng,
}

fn check_supported(cfg: &RunConfig) -> Result<(), String> {
    if cfg.modality != Modality::AllDetailed || cfg.replication.is_some() {
        return Err("stepwise runner supports only all-detailed runs without replication".into());
    }
    match cfg.migration {
        MigrationMode::Threshold { .. }
        | MigrationMode::OracleDynamic
        | MigrationMode::FirstTouchOnly => Ok(()),
        other => Err(format!("stepwise runner does not support {other:?}")),
    }
}

/// The pre-measurement work of one run, through the warm-up phase.
pub fn setup(
    profile: &WorkloadProfile,
    cfg: &RunConfig,
    tr: &mut Tracer,
    probe: Option<&mut Probe>,
) -> Result<Setup, String> {
    check_supported(cfg)?;
    let params = &cfg.params;
    let n_sockets = params.num_sockets;
    let cps = params.cores_per_socket;
    let fp = profile.footprint_pages;
    let pool_cap = cfg.pool_capacity_pages(fp);
    let num_regions = (fp as usize).div_ceil(REGION_PAGES);

    let mut gen = tr.span("trace.new", None, || {
        TraceGenerator::new(profile, n_sockets, cps, cfg.seed)
    });
    let warmup_trace = tr.span("trace.warmup_gen", None, || {
        (cfg.warmup_instructions > 0).then(|| gen.generate_phase(cfg.warmup_instructions))
    });
    // First touch over the whole run: a scout generator replays every
    // phase; later phases are offset so they cannot steal first touch.
    let combined = tr.span("trace.scout", None, || {
        let mut scout = gen.clone();
        let mut combined = warmup_trace.clone().unwrap_or_default();
        for _ in 0..cfg.phases {
            let t = scout.generate_phase(cfg.instructions_per_phase);
            if combined.per_core.is_empty() {
                combined = t;
            } else {
                for (dst, src) in combined.per_core.iter_mut().zip(t.per_core) {
                    let base = dst.last().map_or(0, |a| a.icount + 1);
                    dst.extend(src.into_iter().map(|mut a| {
                        a.icount += base;
                        a
                    }));
                }
            }
        }
        combined
    });
    let mut map = tr.span("migration.placement", None, || {
        PageMap::first_touch(fp, pool_cap, &combined, cps, n_sockets)
    });
    drop(combined);
    let mut sim = tr.span("sim.model_build", None, || {
        let mut sim = TimingSim::new(Network::new(params), MigrationCosts::paper());
        sim.set_light_cpi(profile.base_cpi());
        sim
    });

    let (policy, oracle, tlbs, meta) = tr.span("migration.tracker_init", None, || {
        let t0 = matches!(cfg.migration, MigrationMode::Threshold { t0: true });
        let mean_region_accesses = (cfg.instructions_per_phase as f64 * profile.mpki / 1000.0
            * (n_sockets * cps) as f64
            / num_regions as f64) as u64;
        let mut policy_cfg = if t0 {
            PolicyConfig::t0(u32::try_from(n_sockets).unwrap_or(u32::MAX))
        } else {
            PolicyConfig::t16_scaled(mean_region_accesses.max(2))
        };
        policy_cfg.migration_limit_pages = cfg.migration_limit_pages;
        let policy = ThresholdPolicy::new(policy_cfg, num_regions, params.has_pool);
        let oracle = OracleDynamicPolicy::new(
            ((cfg.instructions_per_phase as f64 * profile.mpki / 1000.0 * (n_sockets * cps) as f64)
                / fp as f64)
                .max(2.0) as u32,
            cfg.migration_limit_pages,
        );
        let tlb_cfg = TlbConfig {
            entries: 64,
            counter_bits: if t0 { 0 } else { 16 },
        };
        let tlbs: Vec<Tlb> = (0..n_sockets * cps).map(|_| Tlb::new(tlb_cfg)).collect();
        let meta = MetadataRegion::new(num_regions, n_sockets, tlb_cfg.counter_bits);
        (policy, oracle, tlbs, meta)
    });
    let rng = SimRng::seed_from_u64(cfg.seed ^ 0x6d69_6772);

    if let Some(w) = &warmup_trace {
        tr.span("sim.warmup", None, || {
            sim.run_phase(
                w,
                &mut map,
                &[],
                profile.base_cpi(),
                profile.mlp,
                cfg.warmup_instructions,
                cfg.modality,
                false,
            );
            sim.reset_servers();
        });
        if let Some(p) = probe {
            p.warm(w, &map);
        }
    }
    Ok(Setup {
        gen,
        map,
        sim,
        tlbs,
        meta,
        policy,
        oracle,
        rng,
    })
}

/// The measured phases, from a [`setup`] of the same `profile` and `cfg`.
pub fn measure(
    s: Setup,
    profile: &WorkloadProfile,
    cfg: &RunConfig,
    tr: &mut Tracer,
    mut probe: Option<&mut Probe>,
    counters: &mut Counters,
) -> RunResult {
    let Setup {
        mut gen,
        mut map,
        mut sim,
        mut tlbs,
        mut meta,
        mut policy,
        mut oracle,
        mut rng,
    } = s;
    let n_sockets = cfg.params.num_sockets;
    let cps = cfg.params.cores_per_socket;
    let fp = profile.footprint_pages;
    let mut phase_stats: Vec<PhaseStats> = Vec::with_capacity(cfg.phases);
    let mut prev_llc = sim.llc_stats();
    let mut prev_dir = sim.directory_stats();
    for phase in 0..cfg.phases {
        let ph = Some(u32::try_from(phase).unwrap_or(u32::MAX));
        let trace = tr.span("trace.gen", ph, || {
            gen.generate_phase(cfg.instructions_per_phase)
        });
        let snapshot = tr.span("migration.checkpoint", ph, || map.clone());

        let plan = match cfg.migration {
            MigrationMode::Threshold { .. } => {
                tr.span("cache.tlb_track", ph, || {
                    for tlb in &mut tlbs {
                        tlb.set_markers();
                    }
                    for (core_idx, stream) in trace.per_core.iter().enumerate() {
                        let core = u32::try_from(core_idx).unwrap_or(u32::MAX);
                        let socket = CoreId::new(core).socket(cps);
                        let tlb = &mut tlbs[core_idx];
                        for a in stream {
                            for f in tlb.record_llc_miss(a.addr.page()) {
                                if f.page.pfn() < fp {
                                    meta.record(f.page.region(), socket, f.count);
                                }
                            }
                        }
                    }
                });
                tr.span("migration.decide", ph, || {
                    let plan = policy.decide(&meta, &mut map, &mut rng);
                    meta.reset();
                    plan
                })
            }
            MigrationMode::OracleDynamic => tr.span("migration.decide", ph, || {
                let counts = PageAccessCounts::from_trace(&trace, fp, n_sockets, cps);
                oracle.decide(&counts, &mut map)
            }),
            _ => Default::default(),
        };

        let mut timing_map = snapshot;
        let phase_cycles = cfg.instructions_per_phase as f64 * profile.base_cpi();
        let budget_pages = (phase_cycles * 0.1 / 3_000.0).floor() as usize;
        let modeled_count = ((plan.moves.len() as f64 * cfg.modeled_migration_fraction).round()
            as usize)
            .min(plan.moves.len())
            .min(budget_pages);
        let moves = &plan.moves[..modeled_count];
        let stats = tr.span("sim.replay", ph, || {
            sim.run_phase(
                &trace,
                &mut timing_map,
                moves,
                profile.base_cpi(),
                profile.mlp,
                cfg.instructions_per_phase,
                cfg.modality,
                true,
            )
        });
        if let Some(p) = probe.as_deref_mut() {
            p.phase(&trace, &timing_map, moves, profile.base_cpi());
        }

        let llc = sim.llc_stats();
        let dir = sim.directory_stats();
        counters.trace_accesses += trace.total_accesses() as u64;
        counters.llc_hits += llc.hits - prev_llc.hits;
        counters.llc_misses += llc.misses - prev_llc.misses;
        counters.dir_transactions += dir.transactions - prev_dir.transactions;
        counters.c2c_transfers +=
            (dir.bt_socket + dir.bt_pool) - (prev_dir.bt_socket + prev_dir.bt_pool);
        counters.invalidations += dir.invalidations - prev_dir.invalidations;
        for link in sim.link_stats() {
            counters.link_transfers += link.transfers;
            counters.link_wait_cycles += link.wait_cycles.raw();
        }
        (prev_llc, prev_dir) = (llc, dir);

        tr.span("sim.reset", ph, || sim.reset_servers());
        phase_stats.push(stats);
    }

    let (migrated, to_pool) = match cfg.migration {
        MigrationMode::Threshold { .. } => (policy.pages_migrated, policy.pages_to_pool),
        MigrationMode::OracleDynamic => (oracle.pages_migrated, 0),
        _ => (0, 0),
    };
    tr.span("sim.aggregate", None, || {
        RunResult::from_phases(phase_stats, migrated, to_pool, sim.directory_stats())
            .expect("the workloads all have at least one measured phase")
    })
}

/// One whole candidate run under a root span named after its mode.
pub fn run(
    profile: &WorkloadProfile,
    cfg: &RunConfig,
    tr: &mut Tracer,
    mut probe: Option<&mut Probe>,
    counters: &mut Counters,
) -> Result<RunResult, String> {
    let name = match cfg.migration {
        MigrationMode::OracleDynamic => "run.oracle_dynamic",
        MigrationMode::FirstTouchOnly => "run.first_touch",
        _ => "run.threshold",
    };
    tr.root(name, |tr| {
        let s = setup(profile, cfg, tr, probe.as_deref_mut())?;
        Ok(measure(s, profile, cfg, tr, probe, counters))
    })
}
