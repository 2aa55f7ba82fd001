//! Determinism gate, profiler half: every row of the grid, run observed
//! with the profiler on at `--jobs 1` and at `--jobs 4`, must hash to the
//! unprofiled [`gate::GOLDEN`] digests and render the same traces, and
//! the two passes must attribute the same profiler shape and `Timing` call
//! counts. The profiler times pipeline stages, so no edge may count more
//! than a few calls per run and phase. See `tests/gate/mod.rs`.

mod gate;

use gate::{assert_golden, fingerprints, profiled_cell, rows, PHASES};
use starnuma::{prof, SystemKind};

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
    assert_stage_scopes_only("jobs 1 profiled", &prof_seq);
    assert_stage_scopes_only("jobs 4 profiled", &prof_par);
}

/// Asserts that no edge of `report` counts more calls than a stage scope
/// can. A stage scope opens a few times per run and phase: once for
/// setup, once per phase, once more for the scouts that replay every
/// phase. A scope in the timing loop's per-access path would count one
/// call per access instead, thousands per run even at tiny scale.
fn assert_stage_scopes_only(name: &str, report: &prof::ProfReport) {
    // The §IV-C baseline runs a candidate pair: one extra run per row.
    let runs = rows()
        .iter()
        .map(|(_, kind)| if *kind == SystemKind::Baseline { 2 } else { 1 })
        .sum::<u64>();
    let bound = 4 * runs * PHASES as u64;
    for e in &report.edges {
        assert!(
            e.calls <= bound,
            "{name}: {} under {:?} counts {} calls for {runs} runs of {PHASES} phases \
             (bound {bound}); a per-access scope perturbs the loop it times",
            e.site.label(),
            e.parent.map(prof::Site::label),
            e.calls
        );
    }
}
