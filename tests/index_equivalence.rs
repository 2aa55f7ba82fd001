//! Determinism gate, golden half: every row of the grid, run observed at
//! `--jobs 1`, must hash to the pinned [`gate::GOLDEN`] digests — a change
//! to how the simulator stores its keyed state (directory, TLB, in-flight
//! migrations, replica masks) must be invisible in results and rendered
//! exports — and the same rows run unobserved at `--jobs 4`
//! must give identical `RunResult`s, so neither the worker count nor
//! observation reaches the simulation. See `tests/gate/mod.rs`.
//!
//! Regenerating goldens (only when an *intentional* model change lands):
//! `STARNUMA_BLESS=1 cargo test --test index_equivalence -- --nocapture`.

mod gate;

use gate::{assert_golden, cell, fingerprints, rows};

#[test]
fn index_swap_is_bit_identical_across_workloads_and_jobs() {
    let observed = cell(1, true);
    let unobserved = cell(4, false);

    assert_golden("jobs 1", &fingerprints("jobs 1", &observed));
    for (((w, kind), (a, _)), (d, report)) in rows().iter().zip(&observed).zip(&unobserved) {
        assert!(
            report.is_none(),
            "{w} on {kind}: unobserved run made a report"
        );
        assert_eq!(
            d, a,
            "{w} on {kind}: result diverges between observed jobs 1 and unobserved jobs 4"
        );
    }
}
