//! Memory-access monitoring and page migration (§III-D of the paper).
//!
//! This crate implements:
//!
//! * [`MetadataRegion`]: the in-memory region trackers — per 512 KiB region,
//!   one bit per socket plus an `i`-bit access counter (`T_16`, `T_0`);
//! * [`PageMap`]: the page→location mapping with first-touch initial
//!   placement and pool-capacity accounting, and [`FirstTouch`], the
//!   whole-run first-touch fold one phase trace at a time;
//! * [`ThresholdPolicy`]: Algorithm 1 — threshold-based migration candidate
//!   selection with dynamic HI/LO adjustment, ping-pong suppression, victim
//!   eviction when a destination is full, and a per-phase migration limit;
//! * [`OracleDynamicPolicy`]: the favored baseline of §IV-C — *zero-cost,
//!   perfect per-socket knowledge of all accesses to every 4 KiB page*;
//! * [`static_oracle_placement_with_sharers`]: the §V-B a-priori oracular
//!   static layout;
//! * [`MigrationCosts`] and [`scan_cost_cycles`]: the §III-D3/§III-D4
//!   overhead models (3 k-cycle initiator cost per page with
//!   hardware-supported TLB shootdowns; metadata-scan runtime).
//!
//! # Examples
//!
//! ```
//! use starnuma_migration::{MetadataRegion, PageMap, PolicyConfig, ThresholdPolicy};
//! use starnuma_types::{Location, RegionId, SocketId};
//!
//! let mut meta = MetadataRegion::new(4, 16, 16);
//! meta.record(RegionId::new(0), SocketId::new(0), 100);
//! assert_eq!(meta.sharer_count(RegionId::new(0)), 1);
//! ```

mod costs;
mod oracle;
mod page_map;
mod policy;
mod replication;
mod tracker;

pub use costs::{scan_cost_cycles, MigrationCosts};
pub use oracle::{static_oracle_placement_with_sharers, OracleDynamicPolicy, PageAccessCounts};
pub use page_map::{FirstTouch, PageMap};
pub use policy::{MigrationPlan, PageMove, PolicyConfig, ThresholdPolicy};
pub use replication::{ReplicaMap, ReplicationConfig, ReplicationStats};
pub use tracker::{MetadataRegion, TrackerEntry};
