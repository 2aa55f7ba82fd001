//! Fig. 11: bandwidth-provisioning study — is StarNUMA's win just added
//! bandwidth? (§V-D: no — boosting a conventional system's links is
//! *neither necessary nor sufficient*.)

#![allow(clippy::print_stdout, reason = "a bench prints its table to stdout")]

use starnuma::{geomean, SystemKind, Workload};
use starnuma_bench::{banner, fmt_speedup, print_header, print_row, Lab};

fn main() {
    banner(
        "Fig. 11 — link bandwidth provisioning",
        "§V-D: Baseline ISO-BW 1.14x; StarNUMA beats even the impractical \
         Baseline 2xBW by 12% on average; StarNUMA Half-BW still beats \
         ISO-BW by 11%",
    );
    let systems = [
        SystemKind::BaselineIsoBw,
        SystemKind::Baseline2xBw,
        SystemKind::StarNumaHalfBw,
        SystemKind::StarNuma,
    ];
    let mut lab = Lab::new();
    let mut grid = systems.to_vec();
    grid.push(SystemKind::Baseline);
    lab.prefetch_grid(&Workload::ALL, &grid);
    println!();
    print_header("wkld", &["ISO-BW", "2xBW", "star-half", "StarNUMA"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    for w in Workload::ALL {
        let mut cells = Vec::new();
        for (i, k) in systems.iter().enumerate() {
            let s = lab.speedup(w, *k);
            cols[i].push(s);
            cells.push(fmt_speedup(s));
        }
        print_row(w.name(), &cells);
    }
    let geo: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    print_row(
        "geomean",
        &geo.iter().map(|g| fmt_speedup(*g)).collect::<Vec<_>>(),
    );
    println!("\npaper geomeans: ISO-BW 1.14x; StarNUMA > 2xBW by 12%;");
    println!("Half-BW > ISO-BW by 11%. Bandwidth-bound BFS is the one");
    println!("workload where 2xBW can edge out StarNUMA (uniform link use).");
    assert!(
        geo[3] > geo[0],
        "full StarNUMA must beat the ISO-BW baseline"
    );
    assert!(
        geo[3] > geo[1] * 0.95,
        "StarNUMA should at least match the 2x-overprovisioned baseline"
    );
}
