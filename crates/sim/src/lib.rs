//! The StarNUMA multi-socket memory-system simulator.
//!
//! Implements the paper's evaluation methodology (§IV) end to end:
//!
//! * **Step A** (tracing) is provided by `starnuma-trace`'s synthetic
//!   generators;
//! * **Step B** (memory-trace simulation) feeds each phase's accesses
//!   through the hardware tracking model (per-core TLB counter annexes →
//!   metadata region) or the oracle counters, runs the configured migration
//!   policy, and produces a *checkpoint*: the page map at phase start plus
//!   the migrations to model during the phase;
//! * **Step C** (timing simulation) replays the phase against the full
//!   memory-system model — per-socket LLCs, the distributed MESI directory,
//!   FIFO-server links and DRAM channels — and measures IPC, AMAT (split
//!   into unloaded latency and contention delay, Fig. 8b), and the
//!   access-type breakdown (Fig. 8c).
//!
//! The core model is deliberately lean: each core retires instructions at
//! the workload's single-socket CPI and sustains a bounded number of
//! outstanding LLC misses (its MLP); only latency *beyond* an unloaded local
//! access occupies a miss slot, so a perfectly local run reproduces the
//! single-socket IPC by construction and NUMA/contention effects slow the
//! core exactly as they would a ROB-limited machine.
//!
//! # Examples
//!
//! ```
//! use starnuma_sim::{MigrationMode, RunConfig, Runner};
//! use starnuma_topology::SystemParams;
//! use starnuma_trace::Workload;
//!
//! let config = RunConfig {
//!     params: SystemParams::scaled_starnuma(),
//!     phases: 2,
//!     instructions_per_phase: 20_000,
//!     warmup_instructions: 2_000,
//!     migration: MigrationMode::Threshold { t0: false },
//!     ..RunConfig::default()
//! };
//! let result = Runner::new(Workload::Bfs.profile(), config).run();
//! assert!(result.ipc > 0.0);
//! assert!(result.amat_ns >= 80.0);
//! ```

// A silent truncation here corrupts results instead of merely
// mis-rendering them: every narrowing cast states its bound.
#![warn(clippy::cast_possible_truncation)]

mod config;
mod pipeline;
mod stats;
mod timing;

pub use config::{MigrationMode, Modality, RunConfig};
pub use pipeline::Runner;
pub use stats::{PhaseStats, RunResult};
pub use timing::TimingSim;

/// The [`starnuma_topology::AccessClass::ALL`] labels in Fig. 8c order —
/// the column names the observability layer keys its per-socket latency
/// histograms by.
pub fn access_class_labels() -> [&'static str; 6] {
    let mut out = [""; 6];
    for (i, c) in starnuma_topology::AccessClass::ALL.iter().enumerate() {
        out[i] = c.label();
    }
    out
}
