//! Fig. 3: the CXL memory-pool access latency breakdown.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{CxlLatencyBreakdown, SystemParams};
use starnuma_bench::banner;

fn main() {
    banner(
        "Fig. 3 — CXL memory pool access latency breakdown",
        "§III-B: ports 25+25 ns, retimer 20 ns, flight 10 ns, MHD internal \
         20 ns → 100 ns penalty, 180 ns end-to-end",
    );
    let b = CxlLatencyBreakdown::paper();
    let mem_base = SystemParams::full_scale_starnuma().mem_base;
    println!();
    println!("{:<36} {:>8}", "component (roundtrip)", "latency");
    println!(
        "{:<36} {:>8}",
        "CPU-side CXL port",
        format!("{}", b.cpu_port)
    );
    println!(
        "{:<36} {:>8}",
        "MHD-side CXL port",
        format!("{}", b.mhd_port)
    );
    println!("{:<36} {:>8}", "retimer", format!("{}", b.retimer));
    println!(
        "{:<36} {:>8}",
        "link flight (both directions)",
        format!("{}", b.flight)
    );
    println!(
        "{:<36} {:>8}",
        "MHD NoC + arbitration + directory",
        format!("{}", b.mhd_internal)
    );
    println!(
        "{:<36} {:>8}",
        "= pool access penalty",
        format!("{}", b.total())
    );
    println!(
        "{:<36} {:>8}",
        "+ on-processor time and DRAM",
        format!("{mem_base}")
    );
    println!(
        "{:<36} {:>8}",
        "= end-to-end unloaded pool access",
        format!("{}", b.end_to_end(mem_base))
    );
    assert_eq!(b.total().raw(), 100.0);
    assert_eq!(b.end_to_end(mem_base).raw(), 180.0);
    println!("\nmatches the paper exactly (these are modeled constants).");
}
