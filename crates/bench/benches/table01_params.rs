//! Table I / Table II: system parameters of the full-scale machine and the
//! scaled-down simulation configuration.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::SystemParams;
use starnuma_bench::banner;

fn print_params(title: &str, p: &SystemParams) {
    println!("\n--- {title} ---");
    println!("{:<38} {}", "sockets", p.num_sockets);
    println!("{:<38} {}", "cores per socket", p.cores_per_socket);
    println!("{:<38} {}", "total cores", p.total_cores());
    println!("{:<38} {}", "chassis", p.num_chassis());
    println!("{:<38} {}", "UPI link bandwidth (per direction)", p.upi_bw);
    println!(
        "{:<38} {}",
        "NUMALink bandwidth (per direction)", p.numalink_bw
    );
    println!(
        "{:<38} {}",
        "NUMALinks per chassis pair", p.numalinks_per_chassis_pair
    );
    println!("{:<38} {}", "socket memory bandwidth", p.socket_mem_bw);
    println!("{:<38} {}", "local access latency", p.mem_base);
    println!(
        "{:<38} {}",
        "1-hop access latency",
        p.mem_base + p.upi_one_way * 2.0
    );
    println!(
        "{:<38} {}",
        "2-hop access latency",
        p.mem_base + p.inter_chassis_one_way * 2.0
    );
    if p.has_pool {
        println!(
            "{:<38} {}",
            "CXL bandwidth per socket (effective)", p.cxl_bw
        );
        println!("{:<38} {}", "pool memory bandwidth", p.pool_mem_bw);
        println!(
            "{:<38} {}",
            "pool access latency",
            p.mem_base + p.cxl_one_way * 2.0
        );
    }
}

fn main() {
    banner(
        "Table I + Table II — system parameters",
        "Table I: full-scale 16-socket HPE Superdome Flex-style machine; \
         Table II: scaled-down (4-core sockets) simulation parameters",
    );
    print_params(
        "Table I: full-scale StarNUMA",
        &SystemParams::full_scale_starnuma(),
    );
    print_params(
        "Table II: scaled-down StarNUMA (simulated)",
        &SystemParams::scaled_starnuma(),
    );

    let full = SystemParams::full_scale_starnuma();
    assert_eq!(full.total_cores(), 448);
    assert_eq!(
        (full.mem_base + full.inter_chassis_one_way * 2.0).raw(),
        360.0
    );
    let scaled = SystemParams::scaled_starnuma();
    assert_eq!(scaled.total_cores(), 64);
    assert_eq!(scaled.upi_bw.raw(), 3.0);
    println!("\nall Table I/II values verified against the paper.");
}
