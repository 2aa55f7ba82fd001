//! Graph-analytics scenario: the four GAP kernels (SSSP, BFS, CC, TC) —
//! the workload family that motivates StarNUMA (§I: graphs exhibit
//! challenging irregular access patterns with many vagabond pages).
//!
//! Runs each kernel on the baseline, StarNUMA (T16), and StarNUMA (T0), and
//! prints the sharing profile that makes graphs hard to place.
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example prints its results"
)]

use starnuma::{
    geomean, Experiment, ScaleConfig, SharingHistogram, SystemKind, TraceGenerator, Workload,
};

fn main() {
    let scale = ScaleConfig::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let kernels = [Workload::Sssp, Workload::Bfs, Workload::Cc, Workload::Tc];

    println!("Vagabond pages in graph analytics (sharing-degree profile)\n");
    println!(
        "{:<6} {:>14} {:>16} {:>18}",
        "kernel", "private pages", ">8-sharer pages", ">8-sharer accesses"
    );
    for w in kernels {
        let mut gen = TraceGenerator::new(&w.profile(), 16, 4, scale.seed);
        let trace = gen.generate_phase(scale.instructions_per_phase);
        let h =
            SharingHistogram::from_trace_with_truth(&trace, |p| gen.page_sharers(p).len() as u32);
        let wide_pages = h.bins()[3].page_frac + h.bins()[4].page_frac;
        println!(
            "{:<6} {:>13.0}% {:>15.0}% {:>17.0}%",
            w.name(),
            h.private_page_frac() * 100.0,
            wide_pages * 100.0,
            h.wide_access_frac() * 100.0
        );
    }

    println!("\nSpeedup over the perfect-knowledge baseline\n");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>12}",
        "kernel", "T16", "T0", "AMAT cut", "pool migr."
    );
    let mut t16_speedups = Vec::new();
    for w in kernels {
        let base = Experiment::new(w, SystemKind::Baseline, scale.clone()).run();
        let t16 = Experiment::new(w, SystemKind::StarNuma, scale.clone()).run();
        let t0 = Experiment::new(w, SystemKind::StarNumaT0, scale.clone()).run();
        t16_speedups.push(t16.ipc / base.ipc);
        println!(
            "{:<6} {:>8.2}x {:>8.2}x {:>8.0}% {:>11.0}%",
            w.name(),
            t16.ipc / base.ipc,
            t0.ipc / base.ipc,
            (1.0 - t16.amat_ns / base.amat_ns) * 100.0,
            t16.pool_migration_frac() * 100.0
        );
    }
    println!(
        "\ngeomean (T16): {:.2}x — the paper reports up to 2.17x on graphs",
        geomean(&t16_speedups)
    );
}
