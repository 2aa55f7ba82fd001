//! Capacity planning: how big an MHD, and how fast a CXL path, does a
//! deployment actually need? Traces the speedup curves over pool capacity
//! and CXL latency for one workload and renders them as terminal charts.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! STARNUMA_SCALE=quick cargo run --release --example capacity_planning
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example prints its results"
)]

use starnuma::chart::{render_bars, Bar};
use starnuma::sweep::{break_even, sweep_cxl_latency, sweep_pool_capacity};
use starnuma::{ScaleConfig, Workload};

fn main() {
    let scale = ScaleConfig::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let workload = Workload::Masstree;
    println!("Capacity planning for {workload}\n");

    println!("speedup vs pool capacity (fraction of the workload footprint):");
    let caps = [0.05, 0.1, 0.2, 0.4];
    let points = sweep_pool_capacity(workload, &scale, &caps);
    let bars: Vec<Bar> = points
        .iter()
        .map(|p| {
            Bar::new(
                format!("{:>4.0}%", p.x * 100.0),
                p.speedup,
                format!("{:.2}x", p.speedup),
            )
        })
        .collect();
    print!("{}", render_bars(&bars, 36, Some(1.0)));

    println!("\nspeedup vs one-way CXL latency (50 ns = paper default):");
    let lats = [50.0, 95.0, 140.0, 185.0];
    let points = sweep_cxl_latency(workload, &scale, &lats);
    let bars: Vec<Bar> = points
        .iter()
        .map(|p| {
            Bar::new(
                format!("{:>3.0}ns", p.x),
                p.speedup,
                format!("{:.2}x", p.speedup),
            )
        })
        .collect();
    print!("{}", render_bars(&bars, 36, Some(1.0)));
    match break_even(&points) {
        Some(x) => println!(
            "\nbreak-even: one-way CXL latency of ~{x:.0} ns ({:.0} ns end-to-end \
             pool access) erases the benefit.",
            80.0 + 2.0 * x
        ),
        None => println!(
            "\nno break-even in range: the pool keeps paying off even at 2-hop \
             parity, thanks to its dedicated bandwidth."
        ),
    }
    println!(
        "\nrule of thumb from the paper (§V-E): the hottest vagabond pages are \
         few — capacity\nbuys little beyond the knee, but latency and bandwidth \
         are make-or-break."
    );
}
