//! Deterministic self-profiler for the StarNUMA reproduction.
//!
//! Answers "where does the wall time go?" without compromising the repo's
//! determinism contract. Three pieces:
//!
//! * **Sites** ([`Site`]): a closed, ordered registry of pipeline stages
//!   (trace generation, TLB tracking, the timing loop, migration policy,
//!   checkpointing, obs export). Closed and ordered is the point — it
//!   makes cross-worker merges and rendered reports canonical, like the
//!   obs metric registry. A scope opens a few times per phase, never per
//!   access: per-layer costs inside the timing loop come from the `e2e`
//!   benchmark's traced probes, which do not perturb the loop.
//! * **Scopes** ([`ProfScope`]): RAII guards around those stages.
//!   Disabled (the default) a scope is one relaxed atomic load;
//!   enabled it starts a [`SessionTimer`] and on exit charges inclusive
//!   ns + a call to a `(parent, site)` edge of the one process-global
//!   table, from whichever thread it closes on; [`snapshot`] reads the
//!   table without clearing it, and [`reset`] clears it.
//! * **Reports** ([`ProfReport`]): one run-level edge table, rendered as
//!   the top-down attribution tree (`% wall`, ns/call, calls) that
//!   `starnuma profile` prints. That command is the one place the
//!   profiler is switched on outside benches and tests; run records carry
//!   no profiler fields.
//!
//! Wall-clock isolation: [`SessionTimer`] is the *only* sanctioned
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
//!     let _policy = ProfScope::enter(Site::MigrationPolicy);
//!     let _scout = ProfScope::enter(Site::TraceGen);
//! }
//! set_enabled(false);
//! let report = snapshot();
//! assert!(!report.is_empty());
//! assert!(report.render_tree(1_000_000).contains("trace-gen"));
//! ```

mod clock;
pub mod json;
mod report;
mod scope;
mod site;

pub use clock::SessionTimer;
pub use report::{ProfEdge, ProfReport};
pub use scope::{reset, set_enabled, snapshot, ProfScope};
pub use site::{Site, NUM_SITES};
