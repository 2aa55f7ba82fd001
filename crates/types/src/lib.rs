//! Common vocabulary types for the StarNUMA reproduction.
//!
//! This crate defines the newtypes, identifiers, units, and access records
//! shared by every other crate in the workspace. Everything here is plain
//! data: `Copy` where possible, totally ordered where meaningful, and
//! convertible with the standard `From`/`TryFrom` traits.
//!
//! # Examples
//!
//! ```
//! use starnuma_types::{PhysAddr, PageId, RegionId, SocketId, PAGE_SIZE};
//!
//! let addr = PhysAddr::new(3 * PAGE_SIZE as u64 + 17);
//! assert_eq!(addr.page(), PageId::new(3));
//! assert_eq!(addr.page().region(), RegionId::new(0));
//! let socket = SocketId::new(5);
//! assert_eq!(socket.chassis().index(), 1);
//! ```

// A silent truncation here corrupts results instead of merely
// mis-rendering them: every narrowing cast states its bound.
#![warn(clippy::cast_possible_truncation)]

mod access;
mod digest;
mod error;
mod ids;
pub mod json;
mod rng;
mod units;

pub use access::{AccessType, MemAccess, RwMix};
pub use digest::{digest_hex, fnv1a, fnv1a_digest, parse_digest_hex, FNV_OFFSET, FNV_PRIME};
pub use error::StarNumaError;
pub use ids::{BlockAddr, ChassisId, CoreId, Location, PageId, PhysAddr, RegionId, SocketId};
pub use rng::{SampleRange, SimRng, UniformBelow};
pub use units::{Cycles, GbPerSec, Nanos, CORE_GHZ};

/// Size of a virtual-memory page in bytes (4 KiB, as in the paper).
pub const PAGE_SIZE: usize = 4096;

/// Size of a cache block in bytes (64 B, as in the paper).
pub const BLOCK_SIZE: usize = 64;

/// Number of consecutive 4 KiB pages per monitored region
/// (512 KiB regions, §IV-C of the paper).
pub const REGION_PAGES: usize = 128;

/// Number of sockets per chassis in the HPE Superdome FLEX-style topology.
pub const SOCKETS_PER_CHASSIS: usize = 4;
