//! The workspace JSON codec, re-exported under the names the e2ebench
//! spec reader imports.
pub use starnuma_types::json::{parse, Json as JsonVal};
