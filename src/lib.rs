//! Meta-crate for the StarNUMA reproduction workspace.
//!
//! This crate exists to host the repository-level `examples/` and `tests/`
//! directories; the actual library lives in the [`starnuma`] crate and the
//! substrate crates it re-exports.

pub use starnuma;
