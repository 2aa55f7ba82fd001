//! Fig. 8 — the paper's main results, all three panels:
//!
//! * (a) StarNUMA IPC normalized to the baseline, for `T_16` and `T_0`;
//! * (b) AMAT decomposed into unloaded latency and contention delay;
//! * (c) memory-access breakdown by type (local / 1-hop / 2-hop / pool /
//!   block transfers).

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::chart::speedup_chart;
use starnuma::{geomean, AccessClass, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, Lab};

fn main() {
    banner(
        "Fig. 8 — speedup, AMAT, and access breakdown (main results)",
        "§V-A: T16 cuts AMAT by 48% on average → 1.54x speedup (up to \
         2.17x); the simpler T0 still reaches 1.35x",
    );
    let mut lab = Lab::new();
    lab.prefetch_grid(
        &Workload::ALL,
        &[
            SystemKind::Baseline,
            SystemKind::StarNuma,
            SystemKind::StarNumaT0,
        ],
    );

    // ---- (a) speedups ----
    println!("\n(a) IPC normalized to baseline\n");
    print_header("wkld", &["T16", "T0"]);
    let mut t16 = Vec::new();
    let mut t0 = Vec::new();
    for w in Workload::ALL {
        let s16 = lab.speedup(w, SystemKind::StarNuma);
        let s0 = lab.speedup(w, SystemKind::StarNumaT0);
        t16.push(s16);
        t0.push(s0);
        print_row(w.name(), &[fmt_speedup(s16), fmt_speedup(s0)]);
    }
    let g16 = geomean(&t16);
    let g0 = geomean(&t0);
    print_row("geomean", &[fmt_speedup(g16), fmt_speedup(g0)]);
    println!();
    let rows: Vec<(&str, f64)> = Workload::ALL
        .iter()
        .zip(&t16)
        .map(|(w, s)| (w.name(), *s))
        .collect();
    println!("{}", speedup_chart(&rows, 40));
    println!("\npaper: geomean 1.54x (T16), 1.35x (T0); max 2.17x");
    println!(
        "measured max: {:.2}x",
        t16.iter().fold(0.0f64, |a, &b| a.max(b))
    );

    // ---- (b) AMAT decomposition ----
    println!("\n(b) AMAT (ns): unloaded + contention = total\n");
    print_header(
        "wkld",
        &[
            "base-unl",
            "base-cont",
            "base-tot",
            "star-unl",
            "star-cont",
            "star-tot",
        ],
    );
    let mut amat_reductions = Vec::new();
    for w in Workload::ALL {
        let b = lab.run(w, SystemKind::Baseline).clone();
        let s = lab.run(w, SystemKind::StarNuma).clone();
        if b.amat_ns > 0.0 {
            amat_reductions.push(1.0 - s.amat_ns / b.amat_ns);
        }
        print_row(
            w.name(),
            &[
                format!("{:.0}", b.unloaded_amat_ns),
                format!("{:.0}", b.contention_ns),
                format!("{:.0}", b.amat_ns),
                format!("{:.0}", s.unloaded_amat_ns),
                format!("{:.0}", s.contention_ns),
                format!("{:.0}", s.amat_ns),
            ],
        );
    }
    let mean_cut = amat_reductions.iter().sum::<f64>() / amat_reductions.len() as f64;
    println!(
        "\nmean AMAT reduction: {:.0}%   (paper: 48%)",
        mean_cut * 100.0
    );

    // ---- (c) access breakdown ----
    println!("\n(c) memory access breakdown (%)\n");
    let cols: Vec<&str> = AccessClass::ALL.iter().map(|c| c.label()).collect();
    for (label, kind) in [
        ("baseline", SystemKind::Baseline),
        ("StarNUMA", SystemKind::StarNuma),
    ] {
        println!("{label}:");
        print_header("wkld", &cols);
        for w in Workload::ALL {
            let r = lab.run(w, kind).clone();
            let cells: Vec<String> = r
                .class_fracs
                .iter()
                .map(|f| format!("{:.1}", f * 100.0))
                .collect();
            print_row(w.name(), &cells);
        }
        println!();
    }
    println!("shape check: StarNUMA converts 2-hop accesses into pool accesses;");
    println!("block transfers shift from BT_Socket to the faster BT_Pool path.");
    assert!(g16 > 1.2, "StarNUMA must deliver a clear average win");
    assert!(g16 >= g0 * 0.98, "T16 should match or beat T0 on average");
}
