//! Seeded fuzzing of the binary trace format (`read_phase` / `read_run`).
//! Truncated and byte-flipped copies of a written phase and a written run
//! must read back as `Ok` or an `io::Error`, never a panic, and whatever
//! reads back `Ok` must keep the order `PhaseTrace` documents: each core's
//! stream sorted by `icount`.

use std::panic::catch_unwind;

use starnuma_trace::{
    read_phase, read_run, write_phase, write_run, PhaseTrace, RunHeader, TraceGenerator, Workload,
};
use starnuma_types::SimRng;

/// `true` when every core's stream is sorted by `icount`.
fn sorted(trace: &PhaseTrace) -> bool {
    trace
        .per_core
        .iter()
        .all(|s| s.windows(2).all(|w| w[0].icount <= w[1].icount))
}

/// Overwrites up to three bytes of `bytes` and, half the time, truncates it
/// at a random point.
fn damage(rng: &mut SimRng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.gen_range(0..4usize) {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = match rng.gen_range(0..3u32) {
            0 => bytes[at] ^ (1 << rng.gen_range(0..8u32)),
            1 => [0x00, 0x01, 0x7f, 0x80, 0xff][rng.gen_range(0..5usize)],
            _ => rng.next_u64().to_le_bytes()[0],
        };
    }
    if rng.gen_bool(0.5) {
        bytes.truncate(rng.gen_range(0..bytes.len() + 1));
    }
    bytes
}

#[test]
fn damaged_traces_read_back_as_typed_errors_or_sorted_traces() {
    let mut gen = TraceGenerator::new(&Workload::Tc.profile(), 4, 2, 7);
    let phases: Vec<PhaseTrace> = (0..2).map(|_| gen.generate_phase(400)).collect();
    let mut written_phase = Vec::new();
    write_phase(&mut written_phase, &phases[0]).expect("write to Vec");
    let header = RunHeader {
        workload: "TC".into(),
        seed: 7,
    };
    let mut written_run = Vec::new();
    write_run(&mut written_run, &header, &phases).expect("write to Vec");
    assert!(sorted(
        &read_phase(&written_phase[..]).expect("intact phase")
    ));
    assert_eq!(read_run(&written_run[..]).expect("intact run").1.len(), 2);

    let mut rng = SimRng::seed_from_u64(0x5E7A_CE00);
    let (mut ok, mut err) = (0usize, 0usize);
    for case in 0..2_000 {
        let bytes = damage(&mut rng, written_phase.clone());
        let outcome = catch_unwind(|| read_phase(&bytes[..]))
            .unwrap_or_else(|_| panic!("phase case {case} panicked"));
        match outcome {
            Ok(trace) => {
                assert!(sorted(&trace), "phase case {case} read back unsorted");
                ok += 1;
            }
            Err(_) => err += 1,
        }

        let bytes = damage(&mut rng, written_run.clone());
        let outcome = catch_unwind(|| read_run(&bytes[..]))
            .unwrap_or_else(|_| panic!("run case {case} panicked"));
        if let Ok((_, phases)) = outcome {
            assert!(
                phases.iter().all(sorted),
                "run case {case} read back unsorted"
            );
        }
    }
    // Both outcomes occur, so the mutations neither always break the
    // header nor always miss the records.
    assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
}
