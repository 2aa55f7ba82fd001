//! §III-D4: the metadata-region scan cost of Algorithm 1 — the only
//! migration-mechanism overhead left in software.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma_bench::banner;
use starnuma_migration::scan_cost_cycles;
use starnuma_types::Nanos;

fn main() {
    banner(
        "§III-D4 — Algorithm 1 metadata scan cost",
        "full-scale system: 16 TB / 512 KiB regions = 32 M tracker entries; \
         profiled scan runtime 64–320 M cycles, within the ≥1 B-cycle \
         migration period",
    );
    println!();
    println!(
        "{:<44} {:>14} {:>12}",
        "configuration", "entries", "scan cycles"
    );
    let cases = [
        ("full-scale, local metadata (80 ns)", 32_000_000u64, 80.0),
        ("full-scale, 1-hop metadata (130 ns)", 32_000_000, 130.0),
        ("full-scale, 2-hop metadata (360 ns)", 32_000_000, 360.0),
        ("scaled run (256 regions, local)", 256, 80.0),
    ];
    for (label, entries, lat) in cases {
        let c = scan_cost_cycles(entries, Nanos::new(lat));
        println!("{label:<44} {entries:>14} {:>12}", c.raw());
    }
    let best = scan_cost_cycles(32_000_000, Nanos::new(80.0));
    let worst = scan_cost_cycles(32_000_000, Nanos::new(360.0));
    assert_eq!(best.raw(), 64_000_000);
    assert_eq!(worst.raw(), 320_000_000);
    assert!(worst.raw() < 1_000_000_000);
    println!("\npaper range 64–320 M cycles reproduced; even the worst case");
    println!("fits comfortably in the one-second migration period, so one");
    println!("dedicated core (0.2% of 448) suffices.");
}
