//! 32-socket scaling study (extension): §V-C argues StarNUMA can scale to
//! 32 sockets and beyond by adding a CXL switch (+90 ns roundtrip). This
//! bench builds the 8-chassis, 32-socket machine and measures whether the
//! pool still pays off at the higher pool latency.

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "a bench prints its table and stops on a broken setup"
)]

use starnuma::{Experiment, MigrationMode, Runner, ScaleConfig, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, scale};
use starnuma_topology::SystemParams;

fn run32(w: Workload, starnuma: bool, scale: &ScaleConfig) -> starnuma::RunResult {
    let kind = if starnuma {
        SystemKind::StarNuma
    } else {
        SystemKind::Baseline
    };
    let mut cfg = Experiment::new(w, kind, scale.clone()).run_config();
    cfg.params = if starnuma {
        // 32 sockets need a CXL switch in front of the MHD (§V-C).
        SystemParams::scaled_starnuma()
            .with_num_sockets(32)
            .expect("32 sockets is a valid configuration")
            .with_cxl_switch()
    } else {
        SystemParams::scaled_baseline()
            .with_num_sockets(32)
            .expect("32 sockets is a valid configuration")
    };
    if !starnuma {
        cfg.migration = MigrationMode::OracleDynamic;
    }
    Runner::new(w.profile(), cfg).run()
}

fn main() {
    banner(
        "32-socket scaling (extension)",
        "§V-C: with a CXL switch the pool access costs 270 ns — the latency \
         edge over 2-hop shrinks to 25%, but the bandwidth benefit remains",
    );
    let s = scale();
    let workloads = [Workload::Bfs, Workload::Tc, Workload::Masstree];
    println!();
    print_header(
        "wkld",
        &["16s spdup", "32s spdup", "32s 2-hop%", "32s pool%"],
    );
    for w in workloads {
        let base16 = Experiment::new(w, SystemKind::Baseline, s.clone()).run();
        let star16 = Experiment::new(w, SystemKind::StarNuma, s.clone()).run();
        let base32 = run32(w, false, &s);
        let star32 = run32(w, true, &s);
        print_row(
            w.name(),
            &[
                fmt_speedup(star16.ipc / base16.ipc),
                fmt_speedup(star32.ipc / base32.ipc),
                format!(
                    "{:.0}%",
                    star32.class_frac(starnuma::AccessClass::TwoHop) * 100.0
                ),
                format!(
                    "{:.0}%",
                    star32.class_frac(starnuma::AccessClass::Pool) * 100.0
                ),
            ],
        );
        assert!(
            star32.ipc > base32.ipc * 0.98,
            "{w}: the pool must not hurt at 32 sockets"
        );
    }
    println!("\nAt 32 sockets the inter-chassis fraction grows (more chassis,");
    println!("less intra-chassis containment) while a pool access costs 270 ns:");
    println!("bandwidth-bound workloads gain MORE from the pool (worse vagabond");
    println!("problem), while latency-bound ones compress toward 1x — §V-C's");
    println!("point that the latency edge shrinks but the bandwidth edge stays.");
}
