//! Observability overhead (extension): the tentpole contract is that a
//! *disabled* `ObsSink` costs one predictable branch per record — cheap
//! enough to leave the instrumentation compiled into every hot path — and
//! that an *enabled* sink does not perturb a fig08-style run beyond noise.
//!
//! Two measurements:
//!
//! 1. **Micro**: a tight loop over `record_access` (and the closure-deferred
//!    `event` call) against an identical loop without the sink, reporting
//!    the per-record cost in nanoseconds for disabled and enabled sinks.
//! 2. **Macro**: a full StarNUMA run with and without observation; the
//!    `RunResult`s must be bit-identical (the sink only *reads* the
//!    simulation) and the slowdown is printed for eyeballing against
//!    run-to-run noise.

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    clippy::disallowed_types,
    reason = "a bench times real work on the host clock and prints it"
)]

use std::hint::black_box;
use std::time::Instant;

use starnuma::obs::{EventCategory, EventLevel, FieldValue, ObsSink};
use starnuma::{Experiment, SystemKind, Workload};
use starnuma_bench::banner;
use starnuma_sim::access_class_labels;

const RECORDS: u64 = 20_000_000;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// The workload the sink observes: a cheap, optimizer-resistant latency
/// stream. Identical across the baseline and instrumented loops so the
/// difference is attributable to the sink alone.
fn record_loop(sink: &mut ObsSink) -> f64 {
    let mut acc = 0.0;
    for i in 0..RECORDS {
        let ns = black_box(80.0 + (i & 0x3FF) as f64);
        sink.record_access((i % 16) as usize, (i % 6) as usize, ns);
        if i % 1024 == 0 {
            sink.event(
                EventLevel::Debug,
                EventCategory::Progress,
                "bench_tick",
                || vec![("i", FieldValue::U64(i))],
            );
        }
        acc += ns;
    }
    acc
}

fn main() {
    banner(
        "Observability overhead — disabled sink vs baseline vs enabled",
        "extension: DESIGN.md §8 contract (disabled = one branch per record)",
    );

    // Micro: per-record cost.
    let (t_base, base_acc) = timed(|| {
        let mut acc = 0.0;
        for i in 0..RECORDS {
            acc += black_box(80.0 + (i & 0x3FF) as f64);
        }
        acc
    });
    let mut disabled = ObsSink::disabled();
    let (t_disabled, dis_acc) = timed(|| record_loop(&mut disabled));
    let mut enabled = ObsSink::enabled(16, access_class_labels(), 65_536);
    enabled.begin_phase(0);
    let (t_enabled, en_acc) = timed(|| record_loop(&mut enabled));
    let report = enabled.finish();
    assert_eq!(base_acc, dis_acc);
    assert_eq!(base_acc, en_acc);
    assert_eq!(report.metrics.sockets.len(), 16);

    let per = 1e9 / RECORDS as f64;
    println!();
    println!("micro ({RECORDS} records):");
    println!("  bare loop         {:>8.2} ns/record", t_base * per);
    println!(
        "  disabled sink     {:>8.2} ns/record  (+{:.2} ns)",
        t_disabled * per,
        (t_disabled - t_base) * per
    );
    println!(
        "  enabled sink      {:>8.2} ns/record  (+{:.2} ns)",
        t_enabled * per,
        (t_enabled - t_base) * per
    );

    // Macro: a fig08-style run, observed and not. Bit-identical results
    // are the hard requirement; the slowdown is informational.
    let experiment = Experiment::new(
        Workload::Bfs,
        SystemKind::StarNuma,
        starnuma::ScaleConfig::quick(),
    );
    let (t_plain, plain) = timed(|| experiment.run());
    let (t_obs, (observed, obs_report)) = timed(|| experiment.run_with(true));
    let obs_report = obs_report.expect("an observed run returns its report");
    assert_eq!(plain, observed, "observation changed the simulation result");
    println!();
    println!("macro (BFS on StarNUMA, quick scale):");
    println!("  unobserved run    {:>8.1} ms", t_plain * 1e3);
    println!(
        "  observed run      {:>8.1} ms  ({} events, {} histogram records)",
        t_obs * 1e3,
        obs_report.events.len(),
        obs_report
            .metrics
            .sockets
            .iter()
            .map(|s| s.total_count())
            .sum::<u64>()
    );
    println!();
    println!("disabled-sink overhead must vanish into the run-to-run noise of");
    println!("the fig08 harness; re-run a few times before reading tea leaves.");
}
