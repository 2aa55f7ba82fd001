//! Table IV: fraction of migrated pages that StarNUMA moves to the pool.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{SystemKind, Workload};
use starnuma_bench::{banner, print_header, print_row, Lab};

fn main() {
    banner(
        "Table IV — fraction of migrations to the pool",
        "§V-A: SSSP 80%, BFS 100%, CC 99%, TC 80%, Masstree 100%, TPCC 93%, \
         FMI 47%, POA 0% (no migrations at all)",
    );
    let paper = [
        (Workload::Sssp, "80%"),
        (Workload::Bfs, "100%"),
        (Workload::Cc, "99%"),
        (Workload::Tc, "80%"),
        (Workload::Masstree, "100%"),
        (Workload::Tpcc, "93%"),
        (Workload::Fmi, "47%"),
        (Workload::Poa, "0%"),
    ];
    let mut lab = Lab::new();
    println!();
    print_header("wkld", &["migrated", "to-pool", "fraction", "paper"]);
    for (w, paper_frac) in paper {
        let r = lab.run(w, SystemKind::StarNuma).clone();
        print_row(
            w.name(),
            &[
                format!("{}", r.pages_migrated),
                format!("{}", r.pages_to_pool),
                format!("{:.0}%", r.pool_migration_frac() * 100.0),
                paper_frac.to_string(),
            ],
        );
        if w == Workload::Poa {
            assert_eq!(r.pages_to_pool, 0, "POA never touches the pool");
        }
    }
    println!("\nnote: at scaled-down phase lengths, per-phase sharer observation");
    println!("is noisier than the paper's billion-instruction phases, so more");
    println!("of the hot-but-narrow regions qualify for socket-to-socket moves;");
    println!("the shape (pool dominates for widely shared workloads, FMI lowest,");
    println!("POA zero) is preserved. See EXPERIMENTS.md.");
}
