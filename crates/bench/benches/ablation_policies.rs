//! Ablation study (extension beyond the paper): which ingredient of
//! Algorithm 1's selection actually earns the speedup — hotness ranking,
//! sharing-degree gating, or just "using the pool at all"?
//!
//! All ablations run with *perfect* region-level tracking, so differences
//! are attributable purely to the selection criterion; the full Algorithm 1
//! (T16) runs on the real TLB-annex tracking stack.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{geomean, Experiment, MigrationMode, Runner, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, scale};
use starnuma_migration::AblationPolicy;

fn speedup_with(w: Workload, mode: MigrationMode) -> f64 {
    let s = scale();
    let base = Experiment::new(w, SystemKind::Baseline, s.clone()).run();
    let mut cfg = Experiment::new(w, SystemKind::StarNuma, s).run_config();
    cfg.migration = mode;
    let r = Runner::new(w.profile(), cfg).run();
    r.ipc / base.ipc
}

fn main() {
    banner(
        "Ablation — what part of Algorithm 1's selection matters?",
        "extension: DESIGN.md §5 (not in the paper); compares hotness-only, \
         sharing-only, and random pool fill against full Algorithm 1 (T16)",
    );
    let workloads = [
        Workload::Bfs,
        Workload::Tc,
        Workload::Masstree,
        Workload::Tpcc,
    ];
    let policies: [(&str, MigrationMode); 4] = [
        ("T16 (full)", MigrationMode::Threshold { t0: false }),
        (
            "hotness-only",
            MigrationMode::Ablation(AblationPolicy::HotnessOnly),
        ),
        (
            "sharing-only",
            MigrationMode::Ablation(AblationPolicy::SharingOnly { min_sharers: 8 }),
        ),
        (
            "random-fill",
            MigrationMode::Ablation(AblationPolicy::RandomPool),
        ),
    ];

    println!();
    let cols: Vec<&str> = policies.iter().map(|(n, _)| *n).collect();
    print_header("wkld", &cols);
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for w in workloads {
        let mut cells = Vec::new();
        for (i, (_, mode)) in policies.iter().enumerate() {
            let s = speedup_with(w, *mode);
            per_policy[i].push(s);
            cells.push(fmt_speedup(s));
        }
        print_row(w.name(), &cells);
    }
    let geo: Vec<f64> = per_policy.iter().map(|v| geomean(v)).collect();
    print_row(
        "geomean",
        &geo.iter().map(|g| fmt_speedup(*g)).collect::<Vec<_>>(),
    );

    println!("\ninterpretation:");
    println!("- random fill quantifies the raw value of pool bandwidth/latency;");
    println!("- hotness-only over-pools hot *private* data (wasting capacity");
    println!("  on pages a socket could keep local);");
    println!("- sharing-only cannot prioritize under capacity pressure;");
    println!("- full Algorithm 1 needs both signals, as the paper argues.");
    assert!(
        geo[0] >= geo[3] * 0.95,
        "the full policy must not lose to random fill"
    );
}
