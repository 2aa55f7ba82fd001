//! Quickstart: compare the baseline 16-socket system against StarNUMA on
//! one workload and print the headline numbers.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example prints its results"
)]

use starnuma::{AccessClass, Experiment, ScaleConfig, SystemKind, Workload};

fn main() {
    let scale = ScaleConfig::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let workload = Workload::Bfs;
    println!("StarNUMA quickstart — {workload} on a 16-socket system\n");

    let baseline = Experiment::new(workload, SystemKind::Baseline, scale.clone()).run();
    let starnuma = Experiment::new(workload, SystemKind::StarNuma, scale).run();

    println!("{:<28} {:>10} {:>10}", "", "Baseline", "StarNUMA");
    println!(
        "{:<28} {:>10.3} {:>10.3}",
        "per-core IPC", baseline.ipc, starnuma.ipc
    );
    println!(
        "{:<28} {:>9.0}ns {:>9.0}ns",
        "AMAT (measured)", baseline.amat_ns, starnuma.amat_ns
    );
    println!(
        "{:<28} {:>9.0}ns {:>9.0}ns",
        "  unloaded component", baseline.unloaded_amat_ns, starnuma.unloaded_amat_ns
    );
    println!(
        "{:<28} {:>9.0}ns {:>9.0}ns",
        "  contention component", baseline.contention_ns, starnuma.contention_ns
    );
    for class in AccessClass::ALL {
        println!(
            "{:<28} {:>9.1}% {:>9.1}%",
            format!("accesses: {}", class.label()),
            baseline.class_frac(class) * 100.0,
            starnuma.class_frac(class) * 100.0
        );
    }
    println!(
        "\nSpeedup: {:.2}x   (paper Fig. 8a: ~1.7x for BFS)",
        starnuma.ipc / baseline.ipc
    );
    println!(
        "Migrations to pool: {:.0}%  (paper Table IV: 100% for BFS)",
        starnuma.pool_migration_frac() * 100.0
    );
}
