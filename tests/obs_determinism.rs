//! Determinism gate, export half: every row of the grid, run observed on
//! four workers, must render traces that hash to the same
//! [`gate::GOLDEN`] digests the `--jobs 1` cell of `index_equivalence`
//! pins, and the traces must carry real content. See `tests/gate/mod.rs`.

mod gate;

use gate::{assert_golden, cell, fingerprints, rows, trace};
use starnuma::{SystemKind, Workload};

#[test]
fn obs_output_is_bit_identical_across_worker_counts() {
    let runs = cell(4, true);
    assert_golden("jobs 4", &fingerprints("jobs 4", &runs));

    let tc = rows()
        .iter()
        .position(|r| *r == (Workload::Tc, SystemKind::StarNuma))
        .expect("TC on StarNUMA is a row");
    let (result, report) = &runs[tc];
    let report = report.as_ref().expect("the cell observes");
    let trace = trace(rows()[tc], result, report);
    for needle in [
        "\"type\":\"run\"",
        "\"type\":\"event\"",
        "\"type\":\"hist\"",
        "\"name\":\"phase_checkpoint\"",
    ] {
        assert!(trace.contains(needle), "TC trace lacks {needle}");
    }
}
