//! Shared helpers for the table/figure regeneration harness.
//!
//! Every table and figure of the paper's evaluation has a `harness = false`
//! bench target in `benches/`; running `cargo bench` regenerates all of
//! them. `STARNUMA_SCALE=quick|default|full` trades fidelity for runtime.
//!
//! Absolute numbers are not expected to match the paper (the substrate is a
//! from-scratch simulator driven by synthetic traces, not ChampSim over Pin
//! traces of the real applications); the *shape* — who wins, by roughly what
//! factor, where crossovers fall — is the reproduction target. Each bench
//! prints the paper's reference values alongside the measured ones;
//! `EXPERIMENTS.md` records a full paper-vs-measured comparison.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the bench harness prints the tables it regenerates"
)]

use std::collections::{BTreeMap, BTreeSet};

use starnuma::{Experiment, JobPool, RunResult, ScaleConfig, SystemKind, Workload};
use starnuma_types::json;

/// Prints the standard bench banner.
pub fn banner(artifact: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{artifact}");
    println!("paper reference: {paper_ref}");
    let scale = scale();
    println!(
        "scale: {} phases x {} instructions/core (STARNUMA_SCALE to change)",
        scale.phases, scale.instructions_per_phase
    );
    println!(
        "jobs: {} worker threads (STARNUMA_JOBS to change)",
        pool().workers()
    );
    println!("================================================================");
}

/// The harness scale (from `STARNUMA_SCALE`, default `default`).
///
/// This is a harness entry point: a misspelt `STARNUMA_SCALE` aborts the
/// process with the offending value instead of silently running (and
/// mislabelling) the default scale.
pub fn scale() -> ScaleConfig {
    match ScaleConfig::from_env() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The harness job pool (from `STARNUMA_JOBS`, default: all cores).
///
/// Like [`scale`], validates the environment at entry: garbage in
/// `STARNUMA_JOBS` aborts with the offending value.
pub fn pool() -> JobPool {
    match JobPool::from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// A memoizing experiment runner: one bench process never runs the same
/// (workload, system) pair twice.
#[derive(Default)]
pub struct Lab {
    cache: BTreeMap<(Workload, SystemKind), RunResult>,
}

impl Lab {
    /// Creates an empty lab.
    pub fn new() -> Self {
        Lab::default()
    }

    /// Runs (or returns the cached result of) one experiment at the harness
    /// scale.
    pub fn run(&mut self, workload: Workload, system: SystemKind) -> &RunResult {
        self.cache
            .entry((workload, system))
            .or_insert_with(|| Experiment::new(workload, system, scale()).run())
    }

    /// Speedup of `system` over the §V-A baseline for `workload`.
    pub fn speedup(&mut self, workload: Workload, system: SystemKind) -> f64 {
        let base = self.run(workload, SystemKind::Baseline).ipc;
        let sys = self.run(workload, system).ipc;
        if base > 0.0 {
            sys / base
        } else {
            0.0
        }
    }

    /// Runs every not-yet-cached `(workload, system)` pair in parallel on
    /// the harness [`pool`] and caches the results, so the subsequent
    /// [`Lab::run`]/[`Lab::speedup`] calls that format the table are pure
    /// cache hits. Results are bit-identical to sequential execution, so
    /// prefetching never changes a figure — only how fast it regenerates.
    pub fn prefetch(&mut self, pairs: &[(Workload, SystemKind)]) {
        let mut queued = BTreeSet::new();
        let missing: Vec<(Workload, SystemKind)> = pairs
            .iter()
            .copied()
            .filter(|key| !self.cache.contains_key(key) && queued.insert(*key))
            .collect();
        let scale = scale();
        let results = pool().run(missing.clone(), |_, (w, s)| {
            Experiment::new(w, s, scale.clone()).run()
        });
        for (key, r) in missing.into_iter().zip(results) {
            self.cache.insert(key, r);
        }
    }

    /// [`Lab::prefetch`] over the cross product `workloads × systems`.
    pub fn prefetch_grid(&mut self, workloads: &[Workload], systems: &[SystemKind]) {
        let pairs: Vec<(Workload, SystemKind)> = workloads
            .iter()
            .flat_map(|w| systems.iter().map(move |s| (*w, *s)))
            .collect();
        self.prefetch(&pairs);
    }
}

/// Appends one schema-versioned, **flat** JSON entry to the bench history
/// file (`BENCH_history.jsonl` at the workspace root, overridable via
/// `STARNUMA_BENCH_HISTORY`). Each line is a flat object of dotted keys —
/// exactly the shape `starnuma bench-diff` parses. The `e2e` benchmark
/// (`e2ebench/`) writes through this, and CI gates the resulting history
/// against `ci/bench_baseline.json`.
pub fn append_history(bench: &str, smoke: bool, metrics: &[(String, f64)]) {
    use std::io::Write as _;
    let path = std::env::var("STARNUMA_BENCH_HISTORY")
        .unwrap_or_else(|_| format!("{}/../../BENCH_history.jsonl", env!("CARGO_MANIFEST_DIR")));
    let mut line = String::from("{\"schema_version\":1,\"bench\":");
    json::write_str(&mut line, bench);
    line.push_str(&format!(
        ",\"smoke\":{},\"version\":\"{}\"",
        u8::from(smoke),
        env!("CARGO_PKG_VERSION"),
    ));
    for (key, value) in metrics {
        line.push(',');
        json::write_str(&mut line, key);
        line.push(':');
        json::write_num(&mut line, *value);
    }
    line.push_str("}\n");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match written {
        Ok(()) => println!("appended {bench} history entry to {path}"),
        Err(e) => eprintln!("failed to append bench history {path}: {e}"),
    }
}

/// Formats a speedup cell like `1.54x`.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.2}x")
}

/// Prints one row of a workload-major table.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<10}");
    for c in cells {
        print!(" {c:>10}");
    }
    println!();
}

/// Prints a header row.
pub fn print_header(first: &str, columns: &[&str]) {
    print!("{first:<10}");
    for c in columns {
        print!(" {c:>10}");
    }
    println!();
}
