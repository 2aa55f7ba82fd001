//! The workspace JSON codec's value type, for harness output that is not a
//! run record: a run's one serialized summary is its
//! [`RunRecord`](starnuma_obs::RunRecord) line.

pub use starnuma_types::json::Json;
