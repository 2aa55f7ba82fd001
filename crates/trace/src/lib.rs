//! Synthetic workload traces: the reproduction's substitute for step A of
//! the paper's methodology (§IV-A1).
//!
//! The paper collects Pin-based instruction and memory traces of GAP graph
//! workloads, GenomicsBench pipelines, Masstree, and Silo-TPCC on real
//! hardware. Those traces (and that hardware) are not available here, so
//! this crate generates *statistically equivalent* memory-access streams:
//! each of the eight workloads is described by a [`WorkloadProfile`] whose
//! page-sharing-degree distribution, access-concentration skew, read/write
//! mix, LLC miss intensity (MPKI) and base CPI are calibrated to the paper's
//! published characterization (Table III, Fig. 2, Fig. 13).
//!
//! The decisive property for StarNUMA is *which fraction of accesses target
//! pages shared by how many sockets* — that is exactly what the paper's own
//! motivation section uses to characterize these workloads, and what the
//! profiles encode. Pages are assigned to sharing classes in contiguous runs
//! (mirroring real data-structure layout) so that 512 KiB monitoring regions
//! remain mostly homogeneous, as the paper's region-granularity mechanism
//! implicitly assumes.
//!
//! A trace exists only in memory, as the [`PhaseTrace`] that
//! [`TraceGenerator::generate_phase`] returns. The paper writes its Pin
//! traces to files once and replays them; here each core's stream is a
//! pure function of (seed, core, phase), so every step that needs a phase
//! regenerates it instead of reading a file.
//!
//! # Examples
//!
//! ```
//! use starnuma_trace::{TraceGenerator, Workload};
//!
//! let profile = Workload::Bfs.profile();
//! let mut generator = TraceGenerator::new(&profile, 16, 4, 42);
//! let phase = generator.generate_phase(10_000);
//! assert_eq!(phase.per_core.len(), 64);
//! assert!(!phase.per_core[0].is_empty());
//! ```

mod generator;
mod profile;
pub mod stats;

pub use generator::{PhaseTrace, TraceGenerator};
pub use profile::{PageClass, ProfileBuilder, SharerCount, Workload, WorkloadProfile};
pub use stats::{SharingBin, SharingHistogram};
