//! Profiler overhead: the tentpole contract is that a *disabled*
//! `ProfScope` costs one relaxed atomic load per scope — cheap enough to
//! leave the instrumentation compiled into every simulation hot path —
//! and that an *enabled* profiler never perturbs a simulation result
//! (it only reads the wall clock, never feeds it back).
//!
//! Mirrors `obs_overhead.rs`:
//!
//! 1. **Micro**: a tight loop entering/dropping a `ProfScope` against an
//!    identical loop without it, reporting ns/scope disabled and enabled.
//!    The disabled cost is asserted against a budget (default 5 ns/scope,
//!    generous for shared CI runners; `STARNUMA_PROF_SCOPE_BUDGET_NS`
//!    overrides — the design target is ~2 ns on quiet hardware).
//! 2. **Macro**: a full StarNUMA run profiled and unprofiled; the
//!    `RunResult`s must be bit-identical.
//!
//! Appends `disabled_ns_per_scope` / `enabled_ns_per_scope` to
//! `BENCH_history.jsonl` so `starnuma bench-diff` tracks the trajectory.

#![allow(
    clippy::print_stdout,
    clippy::disallowed_types,
    reason = "a bench times real work on the host clock and prints it"
)]

use std::hint::black_box;
use std::time::Instant;

use starnuma::prof::{self, ProfScope, Site};
use starnuma::{Experiment, ScaleConfig, SystemKind, Workload};
use starnuma_bench::{append_history, banner};

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// The optimizer-resistant work both loops share, so the difference is
/// attributable to the scope guard alone.
fn body(i: u64) -> u64 {
    black_box(i.wrapping_mul(2_654_435_761) ^ (i >> 7))
}

fn main() {
    banner(
        "Profiler overhead — disabled ProfScope vs baseline vs enabled",
        "extension: DESIGN.md §9 contract (disabled = one atomic load per scope)",
    );
    let smoke = std::env::var("STARNUMA_BENCH_SMOKE").is_ok();
    let scopes: u64 = if smoke { 2_000_000 } else { 20_000_000 };

    // Micro: per-scope cost.
    prof::reset();
    prof::set_enabled(false);
    let (t_base, base_acc) = timed(|| {
        let mut acc = 0u64;
        for i in 0..scopes {
            acc = acc.wrapping_add(body(i));
        }
        acc
    });
    let (t_disabled, dis_acc) = timed(|| {
        let mut acc = 0u64;
        for i in 0..scopes {
            let _s = ProfScope::enter(Site::Llc);
            acc = acc.wrapping_add(body(i));
        }
        acc
    });
    prof::set_enabled(true);
    let enabled_scopes = scopes / 20;
    let (t_enabled, en_acc) = timed(|| {
        let mut acc = 0u64;
        for i in 0..enabled_scopes {
            let _s = ProfScope::enter(Site::Llc);
            acc = acc.wrapping_add(body(i));
        }
        acc
    });
    prof::set_enabled(false);
    let report = prof::snapshot();
    assert_eq!(base_acc, dis_acc, "scope guard changed the computation");
    let _ = en_acc;
    let recorded: u64 = report.edges.iter().map(|e| e.calls).sum();
    assert_eq!(recorded, enabled_scopes, "enabled scopes must all record");

    let per = 1e9 / scopes as f64;
    let per_en = 1e9 / enabled_scopes as f64;
    let disabled_ns = (t_disabled - t_base) * per;
    let enabled_ns = t_enabled * per_en - t_base * per;
    println!();
    println!("micro ({scopes} scopes):");
    println!("  bare loop         {:>8.2} ns/iter", t_base * per);
    println!(
        "  disabled scope    {:>8.2} ns/iter  (+{disabled_ns:.2} ns/scope)",
        t_disabled * per
    );
    println!(
        "  enabled scope     {:>8.2} ns/iter  (+{enabled_ns:.2} ns/scope, {enabled_scopes} scopes)",
        t_enabled * per_en
    );

    let budget: f64 = std::env::var("STARNUMA_PROF_SCOPE_BUDGET_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    assert!(
        disabled_ns <= budget,
        "disabled ProfScope costs {disabled_ns:.2} ns/scope, budget {budget:.2} \
         (target ~2 ns on quiet hardware; STARNUMA_PROF_SCOPE_BUDGET_NS overrides)"
    );
    println!("  disabled-scope budget: {disabled_ns:.2} <= {budget:.2} ns/scope  OK");

    // Macro: a quick-scale run, profiled and not. Bit-identical results
    // are the hard requirement; the slowdown is informational.
    let mut scale = ScaleConfig::quick();
    if smoke {
        scale.phases = 1;
        scale.instructions_per_phase = 5_000;
        scale.warmup_instructions = 0;
    }
    let experiment = Experiment::new(Workload::Bfs, SystemKind::StarNuma, scale);
    let (t_plain, plain) = timed(|| experiment.run());
    prof::reset();
    prof::set_enabled(true);
    let (t_prof, profiled) = timed(|| experiment.run());
    prof::set_enabled(false);
    let run_report = prof::snapshot();
    assert_eq!(plain, profiled, "profiling changed the simulation result");
    assert!(!run_report.is_empty(), "profiled run recorded no scopes");
    println!();
    println!("macro (BFS on StarNUMA):");
    println!("  unprofiled run    {:>8.1} ms", t_plain * 1e3);
    println!(
        "  profiled run      {:>8.1} ms  ({} sites attributed)",
        t_prof * 1e3,
        run_report
            .edges
            .iter()
            .filter(|e| e.parent.is_none())
            .count()
    );

    append_history(
        "prof_overhead",
        smoke,
        &[
            (
                "prof.disabled_ns_per_scope".to_string(),
                disabled_ns.max(0.0),
            ),
            ("prof.enabled_ns_per_scope".to_string(), enabled_ns.max(0.0)),
        ],
    );
}
