//! Topology explorer: prints the 16-socket machine's unloaded-latency
//! structure — the numbers at the heart of the paper's motivation (§II-A,
//! §III-B, §III-C) — without running any simulation.
//!
//! ```sh
//! cargo run --release --example topology_explorer
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example prints its results"
)]

use starnuma::{CxlLatencyBreakdown, LatencyModel, Network, SystemParams};
use starnuma_types::{Location, SocketId};

fn main() {
    let params = SystemParams::full_scale_starnuma();
    let model = LatencyModel::new(params.clone());
    let net = Network::new(&params);

    println!("StarNUMA 16-socket topology (HPE Superdome FLEX-style)\n");
    println!(
        "{} chassis x {} sockets, {} cores total, pool: {}, {} directed links",
        params.num_chassis(),
        4,
        params.total_cores(),
        if params.has_pool { "yes" } else { "no" },
        net.link_count()
    );

    println!("\nUnloaded memory access latency from socket 0:");
    println!(
        "  local                  {:>6}",
        model.demand_access(SocketId::new(0), Location::Socket(SocketId::new(0)))
    );
    println!(
        "  1-hop (intra-chassis)  {:>6}",
        model.demand_access(SocketId::new(0), Location::Socket(SocketId::new(1)))
    );
    println!(
        "  2-hop (inter-chassis)  {:>6}",
        model.demand_access(SocketId::new(0), Location::Socket(SocketId::new(4)))
    );
    println!(
        "  CXL memory pool        {:>6}",
        model.demand_access(SocketId::new(0), Location::Pool)
    );

    println!("\nCXL pool access latency breakdown (Fig. 3):");
    let b = CxlLatencyBreakdown::paper();
    println!("  CPU CXL port (roundtrip)   {:>6}", b.cpu_port);
    println!("  MHD CXL port (roundtrip)   {:>6}", b.mhd_port);
    println!("  retimer (roundtrip)        {:>6}", b.retimer);
    println!("  link flight (both ways)    {:>6}", b.flight);
    println!("  MHD internal + directory   {:>6}", b.mhd_internal);
    println!("  = pool penalty             {:>6}", b.total());
    println!("  + on-processor and DRAM    {:>6}", params.mem_base);
    println!(
        "  = end-to-end               {:>6}",
        b.end_to_end(params.mem_base)
    );

    println!("\nCoherence block transfers (Fig. 4):");
    println!(
        "  3-hop socket-home, average over all (R,H,O): {}",
        model.average_three_hop_transfer()
    );
    println!(
        "  4-hop via the pool (two CXL roundtrips):     {}",
        model.four_hop_pool_transfer()
    );
    println!("  -> the pool path is FASTER on average, despite the extra hop.");

    println!("\nLatency matrix (ns, socket row -> socket column, first 8 sockets):");
    print!("      ");
    for t in 0..8 {
        print!("{:>6}", format!("S{t}"));
    }
    println!();
    for s in 0..8u16 {
        print!("{:>6}", format!("S{s}"));
        for t in 0..8u16 {
            let l = model.demand_access(SocketId::new(s), Location::Socket(SocketId::new(t)));
            print!("{:>6.0}", l.raw());
        }
        println!();
    }

    println!(
        "\nDirected links in the scaled simulation model: {}",
        Network::new(&SystemParams::scaled_starnuma()).link_count()
    );
    println!(
        "32-socket variant (§V-C, with a CXL switch): pool access {}",
        LatencyModel::new(
            SystemParams::full_scale_starnuma()
                .with_num_sockets(32)
                .expect("32 is a multiple of 4")
                .with_cxl_switch()
        )
        .demand_access(SocketId::new(0), Location::Pool)
    );
}
