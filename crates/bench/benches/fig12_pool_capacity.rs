//! Fig. 12: sensitivity to memory-pool capacity — a chassis-sized pool
//! (1/5 of the footprint) vs a single-socket-sized pool (1/17).

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{geomean, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, Lab};

fn main() {
    banner(
        "Fig. 12 — impact of memory pool capacity",
        "§V-E: shrinking the pool 4x (20% → 1/17 of the footprint) only \
         drops the average from 1.54x to 1.48x; FMI is the most affected \
         (1.22x → 1.05x)",
    );
    let mut lab = Lab::new();
    lab.prefetch_grid(
        &Workload::ALL,
        &[
            SystemKind::Baseline,
            SystemKind::StarNuma,
            SystemKind::StarNumaSmallPool,
        ],
    );
    println!();
    print_header("wkld", &["pool 1/5", "pool 1/17"]);
    let mut big = Vec::new();
    let mut small = Vec::new();
    for w in Workload::ALL {
        let b = lab.speedup(w, SystemKind::StarNuma);
        let s = lab.speedup(w, SystemKind::StarNumaSmallPool);
        big.push(b);
        small.push(s);
        print_row(w.name(), &[fmt_speedup(b), fmt_speedup(s)]);
    }
    let gb = geomean(&big);
    let gs = geomean(&small);
    print_row("geomean", &[fmt_speedup(gb), fmt_speedup(gs)]);
    println!("\npaper: 1.54x → 1.48x — 'most workloads are rather insensitive");
    println!("to the pool size': a high fraction of remote accesses targets a");
    println!("small fraction of pages, whose hottest still fit in the pool.");
    assert!(gs <= gb + 0.02, "a smaller pool cannot help on average");
    assert!(
        gs > gb * 0.8,
        "a 4x smaller pool must not collapse the benefit (got {gs:.2} vs {gb:.2})"
    );
}
