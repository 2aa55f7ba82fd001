//! Determinism gate, profiler half: every row of the grid, run observed
//! with the profiler on at `--jobs 1` and at `--jobs 4`, must hash to the
//! unprofiled [`gate::GOLDEN`] digests and render the same traces, and
//! the two passes must attribute the same profiler shape and `Timing` call
//! counts. See `tests/gate/mod.rs`.

mod gate;

use gate::{assert_golden, fingerprints, profiled_cell, rows};
use starnuma::prof;

#[test]
fn profiling_never_changes_simulation_output() {
    let (seq, prof_seq) = profiled_cell(1, true);
    let (par, prof_par) = profiled_cell(4, true);

    let fp_seq = fingerprints("jobs 1 profiled", &seq);
    let fp_par = fingerprints("jobs 4 profiled", &par);
    assert_golden("jobs 1 profiled", &fp_seq);
    for (((w, kind), s), p) in rows().iter().zip(&fp_seq).zip(&fp_par) {
        assert_eq!(s, p, "{w} on {kind}: profiled output diverges at jobs 4");
    }

    // The attribution *shape* does not depend on scheduling (totals
    // differ — wall time is nondeterministic by nature).
    assert!(
        !prof_seq.is_empty(),
        "jobs-1 profiled pass recorded nothing"
    );
    assert!(
        !prof_par.is_empty(),
        "jobs-4 profiled pass recorded nothing"
    );
    let shape = |r: &prof::ProfReport| {
        r.edges
            .iter()
            .map(|e| (e.parent, e.site))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        shape(&prof_seq),
        shape(&prof_par),
        "attribution shape diverges across worker counts"
    );
    let timing_calls = |r: &prof::ProfReport| {
        r.edges
            .iter()
            .filter(|e| e.site == prof::Site::Timing)
            .map(|e| e.calls)
            .sum::<u64>()
    };
    assert_eq!(
        timing_calls(&prof_seq),
        timing_calls(&prof_par),
        "scope call counts diverge across worker counts"
    );
}
