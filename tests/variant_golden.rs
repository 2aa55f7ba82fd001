//! Golden digests of the configurations the grid of `tests/gate` leaves
//! out: the §V-C CXL switch, the §V-D bandwidth variants, §V-F
//! replication, the §IV-B mixed modality and the §V-G SC3 preset. Each
//! changes a per-configuration constant of step C (link occupancies,
//! unloaded latencies, cores per socket) or a path the grid's rows never
//! take, so a change to how those constants are computed must leave every
//! digest here unchanged.
//!
//! Regenerating (only when an *intentional* model change lands):
//! `STARNUMA_BLESS=1 cargo test --test variant_golden -- --nocapture`.

mod gate;

use gate::{tiny, PHASES};
use starnuma::{
    Experiment, JobPool, Modality, RunResult, Runner, ScalePreset, SystemKind, Workload,
};
use starnuma_types::{fnv1a_digest, SocketId};

/// FNV-1a digests of each row's `RunResult` `Debug` rendering, in
/// [`rows`] order.
const GOLDEN: [(&str, u64); 7] = [
    ("SSSP on StarNUMA + CXL switch", 0x9b6b4fa10980988c),
    ("SSSP on StarNUMA half-BW", 0x7dcc55d137cc1ae7),
    ("BFS on Baseline 2x-BW", 0xdf7ccc6ad6f15d44),
    ("BFS on Baseline iso-BW", 0xb27a3649126acd23),
    ("TC on StarNUMA + replication 0.25", 0x4baecfdbde744b3e),
    ("BFS on Baseline, mixed modality", 0x9db776c5a5e23a83),
    ("CC on StarNUMA at SC3", 0xa3b23ef770a10e45),
];

/// One variant run.
#[derive(Clone, Copy)]
enum Row {
    /// [`Experiment::run`] of a system variant.
    System(Workload, SystemKind),
    /// TC on StarNUMA with a §V-F replica budget of a quarter of the
    /// footprint.
    Replication,
    /// BFS on the baseline with socket 0 detailed and the rest light.
    Mixed,
    /// CC on StarNUMA at the SC3 preset (8 cores per socket).
    Sc3,
}

fn rows() -> [Row; 7] {
    [
        Row::System(Workload::Sssp, SystemKind::StarNumaCxlSwitch),
        Row::System(Workload::Sssp, SystemKind::StarNumaHalfBw),
        Row::System(Workload::Bfs, SystemKind::Baseline2xBw),
        Row::System(Workload::Bfs, SystemKind::BaselineIsoBw),
        Row::Replication,
        Row::Mixed,
        Row::Sc3,
    ]
}

fn run(row: Row) -> RunResult {
    let scale = tiny(PHASES);
    match row {
        Row::System(w, kind) => Experiment::new(w, kind, scale).run(),
        Row::Replication => Experiment::new(Workload::Tc, SystemKind::StarNuma, scale)
            .with_replication(0.25)
            .run(),
        Row::Mixed => {
            let mut cfg = Experiment::new(Workload::Bfs, SystemKind::Baseline, scale).run_config();
            cfg.modality = Modality::Mixed {
                detailed_socket: SocketId::new(0),
            };
            Runner::new(Workload::Bfs.profile(), cfg).run()
        }
        Row::Sc3 => Experiment::new(
            Workload::Cc,
            SystemKind::StarNuma,
            scale.with_preset(ScalePreset::Sc3),
        )
        .run(),
    }
}

#[test]
fn variant_configurations_match_their_golden_digests() {
    let digests: Vec<u64> = JobPool::global()
        .run(rows().to_vec(), |_, row| run(row))
        .iter()
        .map(|r| {
            assert!(r.ipc > 0.0, "a variant run did nothing");
            fnv1a_digest(format!("{r:?}").as_bytes())
        })
        .collect();
    if std::env::var("STARNUMA_BLESS").is_ok() {
        println!("const GOLDEN: [(&str, u64); {}] = [", digests.len());
        for ((label, _), d) in GOLDEN.iter().zip(&digests) {
            println!("    (\"{label}\", {d:#018x}),");
        }
        println!("];");
        return;
    }
    for ((label, golden), d) in GOLDEN.iter().zip(&digests) {
        assert_eq!(
            d, golden,
            "{label}: result digest {d:#018x} != golden {golden:#018x}; \
             if the model changed on purpose, regenerate with STARNUMA_BLESS=1"
        );
    }
}
