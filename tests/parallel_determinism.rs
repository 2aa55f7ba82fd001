//! Determinism gate, sweep half: the `sweep`-style harness loads fan their
//! points out on the pool with the baseline's §IV-C candidate pair nested
//! inside, and must give identical points at `--jobs 1` and `--jobs 4`.
//! The grid's rows (including the `compare` load on TC) are checked across
//! worker counts by the other gate files. See `tests/gate/mod.rs`.

mod gate;

use gate::sweeps;

#[test]
fn parallel_runs_are_bit_identical_to_sequential() {
    let (capacity_seq, latency_seq) = sweeps(1);
    let (capacity_par, latency_par) = sweeps(4);
    assert_eq!(
        capacity_seq, capacity_par,
        "capacity sweep diverges across worker counts"
    );
    assert_eq!(
        latency_seq, latency_par,
        "latency sweep diverges across worker counts"
    );
    assert!(capacity_seq.iter().all(|p| p.speedup > 0.0));
}
