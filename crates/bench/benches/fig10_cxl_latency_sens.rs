//! Fig. 10: sensitivity to the memory-pool access latency — the default
//! 100 ns CXL penalty vs 190 ns (an intermediate CXL switch, 270 ns
//! end-to-end pool access).

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{geomean, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, Lab};

fn main() {
    banner(
        "Fig. 10 — impact of memory pool latency",
        "§V-C: average speedup drops 1.54x → 1.34x with a 190 ns penalty; \
         latency-bound TC is hit hardest (1.63x → 1.11x)",
    );
    let mut lab = Lab::new();
    lab.prefetch_grid(
        &Workload::ALL,
        &[
            SystemKind::Baseline,
            SystemKind::StarNuma,
            SystemKind::StarNumaCxlSwitch,
        ],
    );
    println!();
    print_header("wkld", &["100ns pen.", "190ns pen."]);
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    let mut tc_drop = (0.0, 0.0);
    for w in Workload::ALL {
        let s_fast = lab.speedup(w, SystemKind::StarNuma);
        let s_slow = lab.speedup(w, SystemKind::StarNumaCxlSwitch);
        if w == Workload::Tc {
            tc_drop = (s_fast, s_slow);
        }
        fast.push(s_fast);
        slow.push(s_slow);
        print_row(w.name(), &[fmt_speedup(s_fast), fmt_speedup(s_slow)]);
    }
    let gf = geomean(&fast);
    let gs = geomean(&slow);
    print_row("geomean", &[fmt_speedup(gf), fmt_speedup(gs)]);
    println!("\npaper: 1.54x → 1.34x; TC 1.63x → 1.11x");
    println!(
        "measured: {:.2}x → {:.2}x; TC {:.2}x → {:.2}x",
        gf, gs, tc_drop.0, tc_drop.1
    );
    assert!(gs < gf, "higher pool latency must reduce the average win");
    assert!(
        tc_drop.1 < tc_drop.0,
        "TC is latency-sensitive and must lose speedup"
    );
}
