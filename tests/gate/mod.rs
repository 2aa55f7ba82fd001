//! Shared harness of the tier-1 determinism gate: nothing but a run's own
//! configuration may reach its output. Every experiment is a pure function
//! of `(profile, RunConfig)` — simulated time is virtual, each run owns its
//! RNG and its `ObsSink`, and the profiler only *reads* the host clock — so
//! neither the worker count, nor observation, nor profiling, nor a firing
//! monitor may change a single bit of any result or rendered export.
//!
//! One grid proves it. Its rows are every workload on StarNUMA plus the
//! `compare` load's other two systems on TC: the limit-tuned baseline
//! (whose §IV-C candidate pair fans out on the pool itself) and T0. A
//! [`cell`] fans the rows out with [`JobPool::run`], so at `jobs 4` the
//! runs execute on worker threads and the profiler's cross-thread flush is
//! exercised. Every observed row's digest over (result, trace JSONL,
//! metrics JSON) is pinned in [`GOLDEN`], so each cell is checked against
//! the same table wherever it runs.
//!
//! Each gate file runs the cells it needs in its own process, because the
//! worker-count override and the profiler enable flag are process-global:
//!
//! | file | cells | asserts |
//! |---|---|---|
//! | `index_equivalence` | jobs 1 observed, jobs 4 unobserved | golden digests, results equal, observation never perturbs |
//! | `obs_determinism` | jobs 4 observed | golden digests, trace content |
//! | `prof_determinism` | jobs 1 and 4 observed + profiled | golden digests, equal ledger lines, profiler shape and `Timing` calls |
//! | `ledger_determinism` | jobs 1 observed, jobs 4 with a fault armed | golden digests, fault fires once, results unchanged |
//! | `parallel_determinism` | capacity and latency sweeps | equal at jobs 1 and 4 |
//!
//! Every observed cell also asserts clean monitors with one check per phase
//! and a lossless ledger round trip. Regenerating the table (only when an
//! *intentional* model or export-format change lands):
//! `STARNUMA_BLESS=1 cargo test --test index_equivalence -- --nocapture`.

// Each gate file uses a different subset of the harness.
#![allow(dead_code)]

use starnuma::obs::{metrics_json, trace_jsonl, ObsReport, RunExtras, RunMeta, RunRecord};
use starnuma::sweep::{sweep_cxl_latency, sweep_pool_capacity, SweepPoint};
use starnuma::{
    prof, set_global_jobs, Experiment, JobPool, RunOptions, RunResult, ScaleConfig, SystemKind,
    Workload,
};
use starnuma_types::{fnv1a, fnv1a_digest, FNV_OFFSET};

/// Golden FNV-1a digests of `(RunResult debug, trace JSONL, metrics JSON)`
/// per row of [`rows`]. The StarNUMA rows were last blessed when the
/// `phase_checkpoint` journal event gained paired begin/end `edge` markers
/// (an intentional trace-format change; results were unchanged); the two
/// TC rows on the baseline and T0 were first pinned with the same exports.
pub const GOLDEN: [(&str, &str, u64); 10] = [
    ("SSSP", "StarNUMA (T16)", 0x5e9e055a702c2421),
    ("BFS", "StarNUMA (T16)", 0x827893079d93b9f1),
    ("CC", "StarNUMA (T16)", 0x376fb4797964dabe),
    ("TC", "StarNUMA (T16)", 0x631c9e5758b24d70),
    ("Masstree", "StarNUMA (T16)", 0xa15f49dc35cd8da3),
    ("TPCC", "StarNUMA (T16)", 0xb6016fe329e84dad),
    ("FMI", "StarNUMA (T16)", 0xd70cb127a163a8f9),
    ("POA", "StarNUMA (T16)", 0xd09527d41dee0dfe),
    ("TC", "Baseline", 0x25e1bd155144ab4d),
    ("TC", "StarNUMA (T0)", 0x57ade6cf7af6205d),
];

pub const PHASES: usize = 2;

pub fn tiny(phases: usize) -> ScaleConfig {
    ScaleConfig {
        phases,
        instructions_per_phase: 6_000,
        warmup_instructions: 0,
        ..ScaleConfig::quick()
    }
}

/// The grid's rows: the eight StarNUMA rows first, then TC on the baseline
/// and on T0.
pub fn rows() -> Vec<(Workload, SystemKind)> {
    let mut rows: Vec<_> = Workload::ALL
        .into_iter()
        .map(|w| (w, SystemKind::StarNuma))
        .collect();
    rows.push((Workload::Tc, SystemKind::Baseline));
    rows.push((Workload::Tc, SystemKind::StarNumaT0));
    rows
}

/// A fixed export header: the rendered files must not depend on anything
/// but the run itself, so the worker count it records is pinned to 0.
pub fn meta(workload: Workload, system: SystemKind) -> RunMeta {
    RunMeta {
        workload: workload.name().to_string(),
        system: system.label().to_string(),
        preset: "SC1".to_string(),
        jobs: 0,
        seed: 42,
        version: "gate".to_string(),
    }
}

pub fn observe() -> RunOptions {
    RunOptions {
        observe: true,
        ..RunOptions::default()
    }
}

/// Runs every row at `jobs` workers under `opts`.
pub fn cell(jobs: usize, opts: &RunOptions) -> Vec<(RunResult, Option<ObsReport>)> {
    set_global_jobs(jobs);
    JobPool::global().run(rows(), |_, (w, kind)| {
        Experiment::new(w, kind, tiny(PHASES)).run_with(opts)
    })
}

/// [`cell`] with the profiler on, returning its merged report too.
pub fn profiled_cell(
    jobs: usize,
    opts: &RunOptions,
) -> (Vec<(RunResult, Option<ObsReport>)>, prof::ProfReport) {
    prof::reset();
    prof::set_enabled(true);
    let runs = cell(jobs, opts);
    prof::set_enabled(false);
    (runs, prof::take_report())
}

/// One observed row's fingerprint: the golden digest and the ledger line
/// with its host-time fields (`wall_ns`, profiler sites) pinned.
#[derive(PartialEq, Debug)]
pub struct Fingerprint {
    pub digest: u64,
    pub ledger: String,
}

fn fingerprint(
    (w, kind): (Workload, SystemKind),
    result: &RunResult,
    report: &ObsReport,
) -> Fingerprint {
    let m = meta(w, kind);
    let mut digest = fnv1a(format!("{result:?}").as_bytes(), FNV_OFFSET);
    digest = fnv1a(trace_jsonl(&m, report).as_bytes(), digest);
    digest = fnv1a(metrics_json(&m, &report.metrics).as_bytes(), digest);
    let extras = RunExtras {
        config_digest: Experiment::new(w, kind, tiny(PHASES)).config_digest(),
        result_digest: fnv1a_digest(format!("{result:?}").as_bytes()),
        wall_ns: 0,
        ipc: result.ipc,
        amat_ns: result.amat_ns,
        pages_migrated: result.pages_migrated,
        pages_to_pool: result.pages_to_pool,
        top_sites: Vec::new(),
    };
    let ledger = RunRecord::from_observed(&m, report, &report.monitor, &extras).to_json_line();
    Fingerprint { digest, ledger }
}

/// Fingerprints an observed cell, checking that every row's run did work,
/// passed every phase-barrier monitor check, and wrote a ledger line that
/// survives a JSON round trip.
pub fn fingerprints(name: &str, runs: &[(RunResult, Option<ObsReport>)]) -> Vec<Fingerprint> {
    rows()
        .into_iter()
        .zip(runs)
        .map(|((w, kind), (result, report))| {
            let report = report
                .as_ref()
                .unwrap_or_else(|| panic!("cell {name}: {w} on {kind} returned no report"));
            assert!(result.ipc > 0.0, "cell {name}: {w} on {kind} did nothing");
            assert!(
                report.monitor.is_clean(),
                "cell {name}: {w} on {kind}: unexpected monitor violations {:?}",
                report.monitor.violations
            );
            assert_eq!(
                report.monitor.checks, PHASES as u64,
                "cell {name}: {w} on {kind}: monitors must run once per phase barrier"
            );
            let fp = fingerprint((w, kind), result, report);
            // A ledger line re-read later must digest to the same report.
            let reparsed = RunRecord::from_json_line(&fp.ledger).unwrap_or_else(|| {
                panic!("cell {name}: {w} on {kind}: ledger line failed to re-parse")
            });
            assert_eq!(
                fp.ledger,
                reparsed.to_json_line(),
                "cell {name}: {w} on {kind}: to_json_line/from_json_line round trip is lossy"
            );
            fp
        })
        .collect()
}

/// Asserts a fingerprinted cell against [`GOLDEN`]; with `STARNUMA_BLESS`
/// set, prints the table it would pin instead.
pub fn assert_golden(name: &str, fps: &[Fingerprint]) {
    if std::env::var("STARNUMA_BLESS").is_ok() {
        println!("pub const GOLDEN: [(&str, &str, u64); {}] = [", fps.len());
        for ((w, kind), fp) in rows().iter().zip(fps) {
            println!(
                "    (\"{}\", \"{}\", {:#018x}),",
                w.name(),
                kind.label(),
                fp.digest
            );
        }
        println!("];");
        return;
    }
    assert_eq!(fps.len(), GOLDEN.len(), "cell {name}: row count drifted");
    for (((w, kind), fp), (gw, gk, gd)) in rows().iter().zip(fps).zip(GOLDEN.iter()) {
        assert_eq!(
            (w.name(), kind.label()),
            (*gw, *gk),
            "golden table order drifted"
        );
        assert_eq!(
            fp.digest, *gd,
            "cell {name}: {w} on {kind}: result/export digest {:#018x} != golden {gd:#018x} — \
             a model or export-format change altered observable output; if intentional, \
             regenerate with STARNUMA_BLESS=1",
            fp.digest
        );
    }
}

/// The `sweep`-style harness loads at `jobs` workers, each fanning its
/// points out on the pool with the baseline's candidate pair nested inside.
pub fn sweeps(jobs: usize) -> (Vec<SweepPoint>, Vec<SweepPoint>) {
    set_global_jobs(jobs);
    (
        sweep_pool_capacity(Workload::Bfs, &tiny(1), &[0.05, 0.1, 0.2, 0.4]),
        sweep_cxl_latency(Workload::Bfs, &tiny(1), &[50.0, 95.0, 140.0]),
    )
}
