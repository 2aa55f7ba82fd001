//! Shared harness of the tier-1 determinism gate: nothing but a run's own
//! configuration may reach its output. Every experiment is a pure function
//! of `(profile, RunConfig)` — simulated time is virtual, each run owns its
//! RNG and its `ObsSink`, and the profiler only *reads* the host clock — so
//! neither the worker count, nor observation, nor profiling may change a
//! single bit of any result or rendered export.
//!
//! One grid proves it. Its rows are every workload on StarNUMA plus the
//! `compare` load's other two systems on TC: the limit-tuned baseline
//! (whose §IV-C candidate pair fans out on the pool itself) and T0. A
//! [`cell`] fans the rows out with [`JobPool::run`], so at `jobs 4` the
//! runs execute on worker threads and the profiler's cross-thread flush is
//! exercised. Every observed row's digest over its trace JSONL — headed by
//! the row's run record, which carries the result digest — is pinned in
//! [`GOLDEN`], so each cell is checked against the same table wherever it
//! runs.
//!
//! Each gate file runs the cells it needs in its own process, because the
//! worker-count override and the profiler enable flag are process-global:
//!
//! | file | cells | asserts |
//! |---|---|---|
//! | `index_equivalence` | jobs 1 observed, jobs 4 unobserved | golden digests, results equal, observation never perturbs |
//! | `obs_determinism` | jobs 4 observed | golden digests, trace content |
//! | `prof_determinism` | jobs 1 and 4 observed + profiled | golden digests, equal traces, profiler shape, `Timing` calls, per-stage call bound |
//! | `parallel_determinism` | capacity and latency sweeps | equal at jobs 1 and 4 |
//!
//! Every observed cell also asserts that the record's histogram total
//! equals the accesses the timing model counted, a lossless run-record
//! round trip, and that the re-read record states the result's AMAT split,
//! MPKI and per-class shares and means bit for bit. Regenerating the table (only when an *intentional* model or
//! export-format change lands):
//! `STARNUMA_BLESS=1 cargo test --test index_equivalence -- --nocapture`.

#![allow(
    clippy::panic,
    clippy::print_stdout,
    reason = "gate helpers fail the test by panicking and print the GOLDEN table when asked"
)]
// Each gate file uses a different subset of the harness.
#![allow(dead_code)]

use starnuma::obs::{trace_jsonl, ObsReport, RunRecord};
use starnuma::sweep::{sweep_cxl_latency, sweep_pool_capacity, SweepPoint};
use starnuma::{
    prof, set_global_jobs, AccessClass, Experiment, JobPool, PhaseStats, RunResult, ScaleConfig,
    SystemKind, Workload,
};
use starnuma_types::fnv1a_digest;

/// Golden FNV-1a digests of each row's trace JSONL (its run record line,
/// with the host field `jobs` pinned to 0, then its events and run-level
/// histograms) per row of [`rows`]. Last blessed when the run record moved
/// to schema 4 (`unloaded_amat_ns`, `contention_ns`, `mpki` and per-class
/// `mean_ns`); an intentional export-format change, every row's `event`
/// and `hist` lines unchanged.
pub const GOLDEN: [(&str, &str, u64); 10] = [
    ("SSSP", "StarNUMA (T16)", 0x0ce4b6f7e8244ac2),
    ("BFS", "StarNUMA (T16)", 0x63040a258c33ae97),
    ("CC", "StarNUMA (T16)", 0x14e4c3f01444f200),
    ("TC", "StarNUMA (T16)", 0xbddc502c9f074120),
    ("Masstree", "StarNUMA (T16)", 0x98a77a4bd1331c73),
    ("TPCC", "StarNUMA (T16)", 0x0ccc4bd11a5f3088),
    ("FMI", "StarNUMA (T16)", 0xe692867d02e9f1c8),
    ("POA", "StarNUMA (T16)", 0x8b4f8a5b9a18782a),
    ("TC", "Baseline", 0x0beed4ec436de62c),
    ("TC", "StarNUMA (T0)", 0x15aee0d41b785d73),
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

/// Runs every row at `jobs` workers, observed when `observe` is set.
pub fn cell(jobs: usize, observe: bool) -> Vec<(RunResult, Option<ObsReport>)> {
    set_global_jobs(jobs);
    JobPool::global().run(rows(), |_, (w, kind)| {
        Experiment::new(w, kind, tiny(PHASES)).run_with(observe)
    })
}

/// [`cell`] with the profiler on, returning its merged report too.
pub fn profiled_cell(
    jobs: usize,
    observe: bool,
) -> (Vec<(RunResult, Option<ObsReport>)>, prof::ProfReport) {
    prof::reset();
    prof::set_enabled(true);
    let runs = cell(jobs, observe);
    prof::set_enabled(false);
    (runs, prof::snapshot())
}

/// One observed row's trace, rendered from the record
/// [`Experiment::record`] builds, with the host field `jobs` pinned so the
/// text depends on nothing but the run (`wall_ns` is left unstamped).
pub fn trace((w, kind): (Workload, SystemKind), result: &RunResult, report: &ObsReport) -> String {
    let mut record = Experiment::new(w, kind, tiny(PHASES)).record(result, report);
    record.jobs = 0;
    trace_jsonl(&record, report)
}

/// Digests every row's [`trace`], checking that every row's run did work,
/// recorded one latency sample per access the timing model counted, and
/// heads its trace with a run record that survives a JSON round trip.
pub fn fingerprints(name: &str, runs: &[(RunResult, Option<ObsReport>)]) -> Vec<u64> {
    rows()
        .into_iter()
        .zip(runs)
        .map(|((w, kind), (result, report))| {
            let report = report
                .as_ref()
                .unwrap_or_else(|| panic!("cell {name}: {w} on {kind} returned no report"));
            assert!(result.ipc > 0.0, "cell {name}: {w} on {kind} did nothing");
            let trace = trace((w, kind), result, report);
            // The run line re-read later must render to the same text.
            let run_line = trace.lines().next().unwrap_or_default();
            let reparsed = RunRecord::from_json_line(run_line).unwrap_or_else(|| {
                panic!("cell {name}: {w} on {kind}: run line failed to re-parse")
            });
            assert_eq!(
                run_line,
                reparsed.to_json_line(),
                "cell {name}: {w} on {kind}: to_json_line/from_json_line round trip is lossy"
            );
            assert_eq!(
                reparsed.overall.count,
                result
                    .phases
                    .iter()
                    .map(PhaseStats::memory_accesses)
                    .sum::<u64>(),
                "cell {name}: {w} on {kind}: histogram total != accesses the timing model counted"
            );
            assert_record_explains(&format!("cell {name}: {w} on {kind}"), &reparsed, result);
            fnv1a_digest(trace.as_bytes())
        })
        .collect()
}

/// Asserts that a run's re-read record states its result's AMAT split,
/// MPKI and access-class mix bit for bit: each class's share of accesses
/// is its sample count over the overall count, and its mean latency is
/// the result's.
pub fn assert_record_explains(what: &str, record: &RunRecord, result: &RunResult) {
    let bits = |record: f64, result: f64, field: &str| {
        assert_eq!(
            record.to_bits(),
            result.to_bits(),
            "{what}: record {field} {record} != result {result}"
        );
    };
    bits(record.amat_ns, result.amat_ns, "amat_ns");
    bits(
        record.unloaded_amat_ns,
        result.unloaded_amat_ns,
        "unloaded_amat_ns",
    );
    bits(record.contention_ns, result.contention_ns, "contention_ns");
    bits(record.mpki, result.mpki, "mpki");
    for (i, class) in AccessClass::ALL.iter().enumerate() {
        let summary = record
            .classes
            .iter()
            .find(|c| c.label == class.label())
            .unwrap_or_else(|| panic!("{what}: no class {} in the record", class.label()));
        let frac = summary.count as f64 / record.overall.count as f64;
        bits(
            frac,
            result.class_fracs[i],
            &format!("{} share", class.label()),
        );
        bits(
            summary.mean_ns,
            result.class_mean_ns[i],
            &format!("{} mean_ns", class.label()),
        );
    }
}

/// Asserts a fingerprinted cell against [`GOLDEN`]; with `STARNUMA_BLESS`
/// set, prints the table it would pin instead.
pub fn assert_golden(name: &str, fps: &[u64]) {
    if std::env::var("STARNUMA_BLESS").is_ok() {
        println!("pub const GOLDEN: [(&str, &str, u64); {}] = [", fps.len());
        for ((w, kind), fp) in rows().iter().zip(fps) {
            println!(
                "    (\"{}\", \"{}\", {:#018x}),",
                w.name(),
                kind.label(),
                fp
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
            fp, gd,
            "cell {name}: {w} on {kind}: trace digest {fp:#018x} != golden {gd:#018x} — \
             a model or export-format change altered observable output; if intentional, \
             regenerate with STARNUMA_BLESS=1"
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
