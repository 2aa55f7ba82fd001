//! Fig. 14: robustness of the evaluation methodology — alternative
//! simulation configurations must agree qualitatively.
//!
//! * SC1: the default scale;
//! * SC2: 3× more detailed instructions per phase;
//! * SC3: doubled system scale (8-core sockets, 2× memory/interconnect
//!   bandwidth, traces regenerated for 128 threads).
//!
//! As an extension, the paper's *mixed-modality* socket model (§IV-B: one
//! detailed socket, 15 light IPC-regulated injectors) is compared against
//! the default all-detailed model.

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{Experiment, Modality, Runner, ScaleConfig, ScalePreset, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, scale};
use starnuma_types::SocketId;

fn speedup_at(w: Workload, s: &ScaleConfig) -> f64 {
    let base = Experiment::new(w, SystemKind::Baseline, s.clone()).run();
    let star = Experiment::new(w, SystemKind::StarNuma, s.clone()).run();
    star.ipc / base.ipc
}

fn speedup_mixed(w: Workload, s: &ScaleConfig) -> f64 {
    let run = |kind: SystemKind| {
        let mut cfg = Experiment::new(w, kind, s.clone()).run_config();
        cfg.modality = Modality::Mixed {
            detailed_socket: SocketId::new(0),
        };
        Runner::new(w.profile(), cfg).run()
    };
    let base = run(SystemKind::Baseline);
    let star = run(SystemKind::StarNuma);
    star.ipc / base.ipc
}

fn main() {
    banner(
        "Fig. 14 — alternative simulation configurations",
        "§V-G: SC2 (3x instructions) and SC3 (2x system scale) agree with \
         SC1 within a few percent; BFS 1.7x → 2.0x/1.8x",
    );
    let workloads = [Workload::Bfs, Workload::Tc, Workload::Fmi];
    let sc1 = scale();
    let sc2 = scale().with_preset(ScalePreset::Sc2);
    let sc3 = scale().with_preset(ScalePreset::Sc3);

    println!();
    print_header("wkld", &["SC1", "SC2", "SC3", "SC1-mixed"]);
    for w in workloads {
        let s1 = speedup_at(w, &sc1);
        let s2 = speedup_at(w, &sc2);
        let s3 = speedup_at(w, &sc3);
        let sm = speedup_mixed(w, &sc1);
        print_row(
            w.name(),
            &[
                fmt_speedup(s1),
                fmt_speedup(s2),
                fmt_speedup(s3),
                fmt_speedup(sm),
            ],
        );
        assert!(
            s2 > 1.0 && s3 > 1.0,
            "every configuration must agree that StarNUMA wins on {w} (s2={s2:.2}, s3={s3:.2})"
        );
    }
    println!("\npaper: 'even larger and costlier simulation configurations ...");
    println!("confirm StarNUMA's potential, yielding similar or better results.'");
    println!("SC1-mixed is this reproduction's §IV-B light-socket methodology.");
}
