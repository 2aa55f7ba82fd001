//! Deterministic self-profiler for the StarNUMA reproduction.
//!
//! Answers "where does the wall time go?" without compromising the repo's
//! determinism contract. Three pieces:
//!
//! * **Sites** ([`Site`]): a closed, ordered registry of simulation
//!   components (trace generation, TLB tracking, LLC, directory, DRAM,
//!   coherence, the timing loop, migration policy, checkpointing, obs
//!   export). Closed and ordered is the point — it makes cross-worker
//!   merges and rendered reports canonical, like the obs metric registry.
//! * **Scopes** ([`ProfScope`]): RAII guards placed in the simulation hot
//!   paths. Disabled (the default) a scope is one relaxed atomic load;
//!   enabled it stamps [`ProfClock`] and charges inclusive ns + a call to
//!   a `(parent, site)` edge in a thread-local table. Workers flush via
//!   [`flush_thread`]; [`snapshot`] reads the merged registry without
//!   clearing it, and [`reset`] clears it.
//! * **Reports** ([`ProfReport`]): one run-level edge table, rendered as
//!   the top-down attribution tree (`% wall`, ns/call, calls) that
//!   `starnuma profile` prints. That command is the one place the
//!   profiler is switched on outside benches and tests; run records carry
//!   no profiler fields.
//!
//! Wall-clock isolation: [`ProfClock`] is the *only* sanctioned
//! `Instant` reader in the workspace (`clippy.toml`'s `disallowed-types`
//! enforces the boundary), and profiling never feeds back into simulation
//! state — a profiled run produces bit-identical `RunResult`s and obs
//! exports (the tier-1 determinism gate proves it).
//!
//! # Examples
//!
//! ```
//! use starnuma_prof::{set_enabled, snapshot, ProfScope, Site};
//!
//! starnuma_prof::reset();
//! set_enabled(true);
//! {
//!     let _timing = ProfScope::enter(Site::Timing);
//!     let _llc = ProfScope::enter(Site::Llc);
//! }
//! set_enabled(false);
//! let report = snapshot();
//! assert!(!report.is_empty());
//! assert!(report.render_tree(1_000_000).contains("timing"));
//! ```

mod clock;
pub mod json;
mod report;
mod scope;
mod site;

pub use clock::{ClockStamp, ProfClock, SessionTimer};
pub use report::{ProfEdge, ProfReport};
pub use scope::{flush_thread, reset, set_enabled, snapshot, ProfScope};
pub use site::{Site, NUM_SITES};
