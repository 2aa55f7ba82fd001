//! Determinism gate, monitor half: healthy observed runs pass every
//! phase-barrier check and write ledger lines that survive the JSON round
//! trip, and an armed `pool_occupancy` fault fires exactly one violation per
//! row at `--jobs 4` while leaving every `RunResult` bit-identical to the
//! healthy `--jobs 1` run. See `tests/gate/mod.rs`.

mod gate;

use gate::{assert_golden, cell, fingerprints, observe, rows};
use starnuma::RunOptions;

#[test]
fn ledger_records_and_monitor_verdicts_are_deterministic() {
    let healthy = cell(1, &observe());
    assert_golden("jobs 1", &fingerprints("jobs 1", &healthy));

    let faulted = cell(
        4,
        &RunOptions {
            inject_fault: Some("pool_occupancy".to_string()),
            ..RunOptions::default()
        },
    );
    for (((w, kind), (result, report)), (healthy, _)) in rows().iter().zip(&faulted).zip(&healthy) {
        let violations = &report
            .as_ref()
            .expect("a fault implies observation")
            .monitor
            .violations;
        assert_eq!(
            violations.len(),
            1,
            "{w} on {kind}: fault must fire exactly once"
        );
        assert_eq!(
            violations[0].monitor, "pool_occupancy",
            "{w} on {kind}: wrong monitor fired"
        );
        assert_eq!(
            result, healthy,
            "{w} on {kind}: a firing monitor perturbed the result"
        );
    }
}
