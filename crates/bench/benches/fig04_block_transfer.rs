//! Fig. 4: the two coherence-triggered block-transfer patterns — 3-hop
//! socket-home vs 4-hop via the pool — and the counter-intuitive result
//! that the 4-hop pool path is faster on average.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{LatencyModel, SystemParams};
use starnuma_bench::banner;
use starnuma_types::SocketId;

fn main() {
    banner(
        "Fig. 4 — 3-hop vs 4-hop coherence block transfers",
        "§III-C: average 3-hop R→H→O→R is 333 ns; 4-hop via the pool \
         (two CXL roundtrips) is 200 ns",
    );
    let m = LatencyModel::new(SystemParams::full_scale_starnuma());

    // Exhaustive average over all (R, H, O) socket combinations.
    let avg3 = m.average_three_hop_transfer();
    let hop4 = m.four_hop_pool_transfer();
    println!();
    println!(
        "{:<46} {:>8}",
        "3-hop socket-home transfer (avg over R,H,O)",
        format!("{avg3}")
    );
    println!(
        "{:<46} {:>8}",
        "4-hop transfer via the pool",
        format!("{hop4}")
    );
    println!(
        "{:<46} {:>8}",
        "BT_Socket accounting value (+80 ns mem+dir)",
        format!("{}", m.bt_socket_accounting())
    );
    println!(
        "{:<46} {:>8}",
        "BT_Pool accounting value (+80 ns mem+dir)",
        format!("{}", m.bt_pool_accounting())
    );

    // A few concrete R/H/O instances.
    println!("\nconcrete unloaded examples (network legs only):");
    let cases = [
        ("all same chassis (R=S0,H=S1,O=S2)", (0u16, 1u16, 2u16)),
        ("home remote chassis (R=S0,H=S4,O=S1)", (0, 4, 1)),
        ("three chassis (R=S0,H=S4,O=S8)", (0, 4, 8)),
    ];
    for (label, (r, h, o)) in cases {
        println!(
            "  {:<40} {:>8}",
            label,
            format!(
                "{}",
                m.three_hop_transfer(SocketId::new(r), SocketId::new(h), SocketId::new(o))
            )
        );
    }
    assert!((avg3.raw() - 333.0).abs() < 5.0);
    assert_eq!(hop4.raw(), 200.0);
    assert!(hop4 < avg3, "the pool path wins on average");
    println!("\npaper values reproduced: 333 ns (±model rounding) and 200 ns.");
}
