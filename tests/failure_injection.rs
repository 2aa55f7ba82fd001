//! Failure-injection and degenerate-configuration tests: the simulator must
//! behave sensibly at the edges of its configuration space, not just on the
//! paper's happy path.

use starnuma::{
    Experiment, MigrationMode, Modality, RunConfig, Runner, ScaleConfig, SystemKind, SystemParams,
    Workload,
};
use starnuma_migration::{PageMap, ReplicationConfig};
use starnuma_trace::{PhaseTrace, TraceGenerator};
use starnuma_types::{Location, PageId, SocketId};

fn tiny(mut cfg: RunConfig) -> RunConfig {
    cfg.phases = 1;
    cfg.instructions_per_phase = 4_000;
    cfg.warmup_instructions = 0;
    cfg
}

#[test]
fn zero_migration_limit_disables_migration() {
    let mut cfg = tiny(
        Experiment::new(Workload::Bfs, SystemKind::StarNuma, ScaleConfig::quick()).run_config(),
    );
    cfg.migration_limit_pages = 0;
    let r = Runner::new(Workload::Bfs.profile(), cfg).run();
    assert_eq!(r.pages_migrated, 0);
    assert!(r.ipc > 0.0, "the system still runs");
}

#[test]
fn zero_pool_capacity_starnuma_degrades_gracefully() {
    let mut cfg = tiny(
        Experiment::new(Workload::Bfs, SystemKind::StarNuma, ScaleConfig::quick()).run_config(),
    );
    cfg.pool_capacity_frac = 0.0;
    let r = Runner::new(Workload::Bfs.profile(), cfg).run();
    assert_eq!(r.pages_to_pool, 0, "nothing fits in an empty pool");
    assert_eq!(r.class_fracs[3], 0.0, "no pool accesses");
    assert!(r.ipc > 0.0);
}

#[test]
fn single_phase_zero_warmup_works() {
    let cfg = tiny(
        Experiment::new(Workload::Tc, SystemKind::Baseline, ScaleConfig::quick()).run_config(),
    );
    let r = Runner::new(Workload::Tc.profile(), cfg).run();
    assert_eq!(r.phases.len(), 1);
    assert!(r.amat_ns >= 80.0);
}

#[test]
fn tiny_instruction_budget_may_produce_no_accesses() {
    // FMI at MPKI 2.6 over 100 instructions: some cores emit nothing.
    let mut cfg = tiny(
        Experiment::new(Workload::Fmi, SystemKind::StarNuma, ScaleConfig::quick()).run_config(),
    );
    cfg.instructions_per_phase = 100;
    let r = Runner::new(Workload::Fmi.profile(), cfg).run();
    // No panic; stats remain well-formed.
    let frac_sum: f64 = r.class_fracs.iter().sum();
    assert!(frac_sum == 0.0 || (frac_sum - 1.0).abs() < 1e-9);
}

#[test]
fn eight_socket_system_runs() {
    let mut cfg = tiny(
        Experiment::new(Workload::Cc, SystemKind::StarNuma, ScaleConfig::quick()).run_config(),
    );
    cfg.params = SystemParams::scaled_starnuma()
        .with_num_sockets(8)
        .expect("8 sockets is valid");
    let r = Runner::new(Workload::Cc.profile(), cfg).run();
    assert!(r.ipc > 0.0);
    // 2 chassis: inter-chassis accesses still exist.
    assert!(r.class_fracs[2] > 0.0);
}

/// Regression: the static oracle spread untouched pages over 16 sockets
/// whatever the system's size, so an 8-socket run whose footprint left a
/// page untouched placed it on a socket the network does not have and
/// panicked.
#[test]
fn eight_socket_static_oracle_places_untouched_pages_on_its_own_sockets() {
    let mut cfg = Experiment::new(
        Workload::Masstree,
        SystemKind::StarNuma,
        ScaleConfig::quick(),
    )
    .run_config();
    cfg.phases = 1;
    cfg.instructions_per_phase = 2_000;
    cfg.warmup_instructions = 20_000;
    cfg.migration = MigrationMode::StaticOracle;
    cfg.params = SystemParams::scaled_starnuma()
        .with_num_sockets(8)
        .expect("8 sockets is valid");
    let r = Runner::try_new(Workload::Masstree.profile(), cfg)
        .expect("the configuration is valid")
        .run();
    assert!(r.ipc > 0.0);
}

#[test]
fn thirty_two_socket_system_runs() {
    let mut cfg = tiny(
        Experiment::new(Workload::Tpcc, SystemKind::StarNuma, ScaleConfig::quick()).run_config(),
    );
    cfg.params = SystemParams::scaled_starnuma()
        .with_num_sockets(32)
        .expect("32 sockets is valid")
        .with_cxl_switch();
    let r = Runner::new(Workload::Tpcc.profile(), cfg).run();
    assert!(r.ipc > 0.0);
}

#[test]
fn mixed_modality_every_detailed_socket_choice_works() {
    for detailed in [0u16, 7, 15] {
        let mut cfg = tiny(
            Experiment::new(Workload::Bfs, SystemKind::Baseline, ScaleConfig::quick()).run_config(),
        );
        cfg.migration = MigrationMode::FirstTouchOnly;
        cfg.modality = Modality::Mixed {
            detailed_socket: SocketId::new(detailed),
        };
        let r = Runner::new(Workload::Bfs.profile(), cfg).run();
        assert!(r.ipc > 0.0, "detailed socket {detailed}");
    }
}

#[test]
fn replication_with_zero_budget_is_inert() {
    let mut cfg = tiny(
        Experiment::new(Workload::Tc, SystemKind::StarNuma, ScaleConfig::quick()).run_config(),
    );
    cfg.replication = Some(ReplicationConfig {
        min_sharers: 8,
        capacity_pages_per_socket: 0,
    });
    let r = Runner::new(Workload::Tc.profile(), cfg).run();
    let reps = r.replication.expect("enabled");
    assert_eq!(reps.regions_replicated, 0);
    assert_eq!(reps.peak_replica_pages, 0);
}

#[test]
fn all_writes_workload_never_replicates() {
    // A write-storm: replication must never trigger and collapses stay 0
    // (nothing was ever replicated).
    let mut profile = Workload::Masstree.profile();
    for class in &mut profile.classes {
        class.rw = starnuma_types::RwMix::new(0.0); // all stores
    }
    let mut cfg = tiny(
        Experiment::new(
            Workload::Masstree,
            SystemKind::StarNuma,
            ScaleConfig::quick(),
        )
        .run_config(),
    );
    cfg.replication = Some(ReplicationConfig::with_budget_frac(
        profile.footprint_pages,
        0.5,
    ));
    let r = Runner::new(profile, cfg).run();
    let reps = r.replication.expect("enabled");
    assert_eq!(reps.regions_replicated, 0);
    assert_eq!(reps.collapses, 0);
}

#[test]
fn single_page_degenerate_trace() {
    // Hand-built trace: every core hammers one block of one page.
    let profile = Workload::Poa.profile();
    let gen = TraceGenerator::new(&profile, 16, 4, 1);
    let _ = gen; // only needed for the footprint value
    let mut per_core = Vec::new();
    for core in 0..64u32 {
        per_core.push(
            (1..50u64)
                .map(|i| {
                    starnuma_types::MemAccess::new(
                        starnuma_types::CoreId::new(core),
                        starnuma_types::PhysAddr::new(4096),
                        if i % 2 == 0 {
                            starnuma_types::AccessType::Write
                        } else {
                            starnuma_types::AccessType::Read
                        },
                        i * 10,
                    )
                })
                .collect(),
        );
    }
    let trace = PhaseTrace { per_core };
    let mut map = PageMap::from_fn(profile.footprint_pages, 0, |_| {
        Location::Socket(SocketId::new(0))
    });
    let net = starnuma::Network::new(&SystemParams::scaled_baseline());
    let mut sim = starnuma_sim::TimingSim::new(net, starnuma_migration::MigrationCosts::paper());
    let stats = sim.run_phase(
        &trace,
        &mut map,
        &[],
        1.0,
        4,
        500,
        Modality::AllDetailed,
        true,
    );
    // One block ping-ponging among 64 cores: almost everything is coherence.
    assert!(stats.memory_accesses() + stats.llc_hits > 0);
    assert_eq!(
        map.location(PageId::new(1)),
        Location::Socket(SocketId::new(0))
    );
}

#[test]
fn sc3_preset_runs_with_doubled_cores() {
    let scale = ScaleConfig::quick().with_preset(starnuma::ScalePreset::Sc3);
    let r = Experiment::new(Workload::Fmi, SystemKind::StarNuma, scale).run();
    assert!(r.ipc > 0.0);
}
