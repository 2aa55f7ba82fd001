//! Fig. 13: access-pattern characteristics for TC — the read-only,
//! widely-shared end of the spectrum (vs BFS's read-write sharing in
//! Fig. 2), framing the §V-F replication-vs-pooling discussion.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{SharingHistogram, TraceGenerator, Workload};
use starnuma_bench::{banner, print_header, print_row, scale};

fn main() {
    banner(
        "Fig. 13 — TC access-pattern characteristics",
        "§V-F: 60% of the dataset is touched by all 16 sockets, 80% by 8+; \
         the widely shared pages are read-only (replication-friendly but \
         capacity-hungry)",
    );
    let s = scale();
    let mut gen = TraceGenerator::new(&Workload::Tc.profile(), 16, 4, s.seed);
    let trace = gen.generate_phase(s.instructions_per_phase * s.phases as u64);
    let h = SharingHistogram::from_trace_with_truth(&trace, |p| gen.page_sharers(p).len() as u32);

    println!("\n(a) page sharing degree + (b) accesses per bin\n");
    print_header("sharers", &["pages", "accesses", "rw-share"]);
    for (i, bin) in h.bins().iter().enumerate() {
        print_row(
            SharingHistogram::LABELS[i],
            &[
                format!("{:.0}%", bin.page_frac * 100.0),
                format!("{:.0}%", bin.access_frac * 100.0),
                format!("{:.0}%", bin.rw_access_frac * 100.0),
            ],
        );
    }
    let by16 = h.bins()[4].page_frac;
    let by8plus = h.bins()[3].page_frac + h.bins()[4].page_frac;
    println!(
        "\npages shared by all 16 sockets: {:.0}%  (paper: 60%)",
        by16 * 100.0
    );
    println!(
        "pages shared by 8+ sockets:     {:.0}%  (paper: 80%)",
        by8plus * 100.0
    );
    println!(
        "R/W share of 16-sharer accesses: {:.0}%  (paper: ~0, read-only)",
        h.bins()[4].rw_access_frac * 100.0
    );
    assert!(by16 > 0.5);
    assert!(h.bins()[4].rw_access_frac < 0.05);
    println!("\nimplication (§V-F): replicating TC's shared pages would be");
    println!("coherence-free but waste 60%+ of every socket's memory; the");
    println!("pool hosts one shared copy instead.");
}
