//! §V-F: page replication versus memory pooling.
//!
//! The paper's argument, quantified: replication of read-only widely shared
//! pages works for TC-style workloads (but eats one copy of 60 %+ of the
//! dataset per socket), fails for BFS-style read-write sharing (constant
//! software-coherence collapses), and *composes* with the pool.

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "a bench prints its table and stops on a broken setup"
)]

use starnuma::{Experiment, MigrationMode, Runner, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, scale};
use starnuma_migration::ReplicationConfig;

struct Outcome {
    speedup: f64,
    replica_pages: u64,
    collapses: u64,
}

fn run_with_replication(w: Workload, pool: bool) -> Outcome {
    let s = scale();
    let base = Experiment::new(w, SystemKind::Baseline, s.clone()).run();
    let kind = if pool {
        SystemKind::StarNuma
    } else {
        SystemKind::Baseline
    };
    let mut cfg = Experiment::new(w, kind, s).run_config();
    if !pool {
        // Replication-only: no other dynamic migration, as §V-F isolates it.
        cfg.migration = MigrationMode::FirstTouchOnly;
    }
    cfg.replication = Some(ReplicationConfig::with_budget_frac(
        w.profile().footprint_pages,
        0.25,
    ));
    let r = Runner::new(w.profile(), cfg).run();
    let reps = r.replication.expect("replication was enabled");
    Outcome {
        speedup: r.ipc / base.ipc,
        replica_pages: reps.peak_replica_pages,
        collapses: reps.collapses,
    }
}

fn main() {
    banner(
        "§V-F — page replication versus memory pooling",
        "read-only shared data (TC) is replication-friendly but capacity-\
         hungry; read-write shared data (BFS) collapses replicas constantly; \
         replication and pooling are complementary",
    );
    let mut lab = starnuma_bench::Lab::new();
    println!();
    print_header(
        "wkld",
        &["pool", "repl-only", "pool+repl", "replicaMB", "collapses"],
    );
    for w in [Workload::Tc, Workload::Bfs, Workload::Masstree] {
        let pool = lab.speedup(w, SystemKind::StarNuma);
        let repl = run_with_replication(w, false);
        let both = run_with_replication(w, true);
        print_row(
            w.name(),
            &[
                fmt_speedup(pool),
                fmt_speedup(repl.speedup),
                fmt_speedup(both.speedup),
                format!("{}", repl.replica_pages * 4096 / (1 << 20)),
                format!("{}", repl.collapses),
            ],
        );
        if w == Workload::Tc {
            assert!(
                repl.speedup > 1.02,
                "read-only TC must benefit from replication"
            );
        }
    }
    println!("\nreading the table:");
    println!("- TC (read-only sharing): replication alone already helps, at");
    println!("  the cost of the listed replica capacity per run;");
    println!("- BFS/Masstree (read-write sharing): frequent collapses limit");
    println!("  replication, while the pool keeps its full benefit;");
    println!("- pool+repl composes, as the paper suggests ('page replication");
    println!("  and STARNUMA can be jointly leveraged as complementary').");
}
