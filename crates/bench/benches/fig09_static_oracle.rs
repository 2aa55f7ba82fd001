//! Fig. 9: oracular *static* initial placement (no runtime migration) on
//! both architectures, normalized to the baseline with dynamic migration.
//!
//! The paper's two takeaways: (i) static-oracle StarNUMA slightly beats
//! dynamic StarNUMA (no migration overheads; sharing patterns are stable);
//! (ii) the static-oracle *baseline* gains nothing over the dynamic
//! baseline — a NUMA machine without a pool architecturally lacks a good
//! home for vagabond pages, no matter how clever placement is.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{geomean, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, Lab};

fn main() {
    banner(
        "Fig. 9 — oracular static placement vs dynamic migration",
        "§V-B: static baseline ≈ 1.0x (no gain without a pool); static \
         StarNUMA ≥ dynamic StarNUMA",
    );
    let mut lab = Lab::new();
    lab.prefetch_grid(
        &Workload::ALL,
        &[
            SystemKind::Baseline,
            SystemKind::BaselineStaticOracle,
            SystemKind::StarNuma,
            SystemKind::StarNumaStaticOracle,
        ],
    );
    println!();
    print_header("wkld", &["base-static", "star-dyn", "star-static"]);
    let mut base_static = Vec::new();
    let mut star_dyn = Vec::new();
    let mut star_static = Vec::new();
    for w in Workload::ALL {
        let bs = lab.speedup(w, SystemKind::BaselineStaticOracle);
        let sd = lab.speedup(w, SystemKind::StarNuma);
        let ss = lab.speedup(w, SystemKind::StarNumaStaticOracle);
        base_static.push(bs);
        star_dyn.push(sd);
        star_static.push(ss);
        print_row(
            w.name(),
            &[fmt_speedup(bs), fmt_speedup(sd), fmt_speedup(ss)],
        );
    }
    let g = [
        geomean(&base_static),
        geomean(&star_dyn),
        geomean(&star_static),
    ];
    print_row(
        "geomean",
        &[fmt_speedup(g[0]), fmt_speedup(g[1]), fmt_speedup(g[2])],
    );
    println!(
        "\nkey observation: static-oracle baseline geomean {:.2}x — even \
         perfect a-priori placement",
        g[0]
    );
    println!("cannot fix vagabond pages without a pool (paper: 'baseline NUMA");
    println!("systems architecturally lack a good location for vagabond pages').");
    assert!(
        g[0] < g[1],
        "a pool-less static oracle must not reach StarNUMA"
    );
}
