//! Table III: workload summary — per-core IPC and LLC MPKI on the baseline
//! 16-socket system, with the single-socket IPC for reference.
//!
//! The single-socket IPC is a *model input* (it calibrates each workload's
//! base CPI); the 16-socket IPC and MPKI are *measured* by simulation, so
//! this table doubles as the core-model calibration check: the 2–10×
//! single-vs-16-socket IPC gap of the paper must reappear.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{SystemKind, Workload};
use starnuma_bench::{banner, print_header, print_row, Lab};

fn main() {
    banner(
        "Table III — workload summary",
        "IPC (single-socket in parentheses) and LLC MPKI per workload; the \
         IPC gap illustrates the NUMA penalty",
    );
    let paper: &[(Workload, f64, f64, f64)] = &[
        (Workload::Sssp, 0.06, 0.56, 73.0),
        (Workload::Bfs, 0.10, 0.69, 32.0),
        (Workload::Cc, 0.14, 0.78, 17.0),
        (Workload::Tc, 0.40, 1.70, 3.2),
        (Workload::Masstree, 0.18, 0.89, 15.0),
        (Workload::Tpcc, 0.41, 1.12, 4.8),
        (Workload::Fmi, 0.61, 1.45, 2.6),
        (Workload::Poa, 0.68, 0.68, 33.0),
    ];
    let mut lab = Lab::new();
    println!();
    print_header(
        "wkld",
        &[
            "IPC(16s)",
            "IPC(1s)",
            "MPKI",
            "paperIPC",
            "paper1s",
            "paperMPKI",
        ],
    );
    let mut degradations = Vec::new();
    for &(w, p_ipc, p_single, p_mpki) in paper {
        let r = lab.run(w, SystemKind::Baseline).clone();
        let single = w.profile().ipc_single_socket;
        degradations.push((w, single / r.ipc));
        print_row(
            w.name(),
            &[
                format!("{:.2}", r.ipc),
                format!("({single:.2})"),
                format!("{:.1}", r.mpki),
                format!("{p_ipc:.2}"),
                format!("({p_single:.2})"),
                format!("{p_mpki:.1}"),
            ],
        );
    }
    println!("\nNUMA degradation (single-socket IPC / 16-socket IPC):");
    for (w, d) in &degradations {
        println!("  {:<10} {:.1}x", w.name(), d);
    }
    let max = degradations.iter().map(|(_, d)| *d).fold(0.0f64, f64::max);
    assert!(max > 2.0, "the paper's 2-10x NUMA gap must reappear");
    println!(
        "\npaper: \"The 2-10x IPC gap ... illustrates the performance impact of NUMA effects.\""
    );
}
