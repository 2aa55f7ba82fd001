//! Fig. 2: page-sharing-degree and access distributions for BFS on a
//! 16-socket system — the observation that motivates StarNUMA: few widely
//! shared (vagabond) pages draw most memory accesses.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{SharingHistogram, TraceGenerator, Workload};
use starnuma_bench::{banner, print_header, print_row, scale};

fn main() {
    banner(
        "Fig. 2 — BFS access-pattern characteristics",
        "§II-B: 17% private pages; >8-sharer pages draw 68% of accesses; \
         16-sharer pages are 2% of pages but 36% of accesses, mostly R/W",
    );
    let s = scale();
    let mut gen = TraceGenerator::new(&Workload::Bfs.profile(), 16, 4, s.seed);
    // One long observation window (ground-truth sharer sets compensate for
    // the scaled-down trace length; see stats module docs).
    let trace = gen.generate_phase(s.instructions_per_phase * s.phases as u64);
    let h = SharingHistogram::from_trace_with_truth(&trace, |p| gen.page_sharers(p).len() as u32);

    println!("\n(a) distribution of page sharing degree + (b) accesses per bin\n");
    print_header(
        "sharers",
        &["pages", "accesses", "rw-share", "paper(a)", "paper(b)"],
    );
    let paper_pages = ["17%", "61%", "15%", "5%", "2%"];
    let paper_accesses = ["8%", "14%", "10%", "32%", "36%"];
    for (i, bin) in h.bins().iter().enumerate() {
        print_row(
            SharingHistogram::LABELS[i],
            &[
                format!("{:.0}%", bin.page_frac * 100.0),
                format!("{:.0}%", bin.access_frac * 100.0),
                format!("{:.0}%", bin.rw_access_frac * 100.0),
                paper_pages[i].to_string(),
                paper_accesses[i].to_string(),
            ],
        );
    }
    println!(
        "\n>8-sharer access share: {:.0}%   (paper: 68%)",
        h.wide_access_frac() * 100.0
    );
    println!(
        "private page share:     {:.0}%   (paper: 17%)",
        h.private_page_frac() * 100.0
    );
    assert!(h.wide_access_frac() > 0.5, "vagabond concentration present");
}
