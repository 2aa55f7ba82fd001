//! The workspace JSON codec, under the names `profile.json` readers use.
pub use starnuma_types::json::{parse, Json as JsonVal};
