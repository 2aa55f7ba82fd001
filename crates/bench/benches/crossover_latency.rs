//! Break-even pool latency (extension): the paper samples 100 ns and
//! 190 ns pool penalties (Fig. 10); this bench traces the whole curve and
//! finds where StarNUMA's benefit vanishes.
//!
//! First-order prediction: once the pool is as slow as a 2-hop access
//! (one-way 140 ns → 360 ns end-to-end) the *latency* benefit is gone, and
//! only the bandwidth benefit remains — so the break-even point should sit
//! at or beyond 140 ns one-way for bandwidth-bound workloads, and near it
//! for latency-bound ones.

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "a bench prints its table and stops on a broken setup"
)]

use starnuma::sweep::{break_even, sweep_cxl_latency};
use starnuma::Workload;
use starnuma_bench::{banner, print_header, print_row, scale};

fn main() {
    banner(
        "Break-even pool latency sweep (extension)",
        "Fig. 10 sampled 100/190 ns penalties; this traces speedup vs one-way \
         CXL latency (50 ns = paper default, 140 ns = 2-hop parity)",
    );
    let s = scale();
    let lat = [50.0, 95.0, 140.0, 185.0, 230.0];
    let workloads = [Workload::Tc, Workload::Bfs];
    println!();
    let cols: Vec<String> = lat.iter().map(|l| format!("{l:.0}ns")).collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    print_header("wkld", &col_refs);
    for w in workloads {
        let pts = sweep_cxl_latency(w, &s, &lat);
        let cells: Vec<String> = pts.iter().map(|p| format!("{:.2}x", p.speedup)).collect();
        print_row(w.name(), &cells);
        match break_even(&pts) {
            Some(x) => println!(
                "  -> {} breaks even at ~{x:.0} ns one-way ({:.0} ns end-to-end)",
                w.name(),
                80.0 + 2.0 * x
            ),
            None => println!(
                "  -> {} never breaks even in this range (bandwidth benefit persists)",
                w.name()
            ),
        }
        assert!(
            pts[0].speedup >= pts.last().expect("nonempty").speedup * 0.95,
            "speedup must not rise with pool latency"
        );
    }
    println!("\nconfirms the paper's framing: latency-bound workloads (TC) live");
    println!("or die by the pool's latency edge; bandwidth-bound ones (BFS)");
    println!("keep part of the win from the extra CXL bandwidth alone.");
}
