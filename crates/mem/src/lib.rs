//! Memory-system building blocks: bandwidth servers and DRAM channel models.
//!
//! The simulator models every bandwidth-limited resource — UPI links,
//! NUMALinks, CXL links, DRAM channels — as FIFO servers: a transfer of `b`
//! bytes occupies the server for `b / bandwidth` cycles, and later transfers
//! queue behind it. Queuing delay therefore *emerges* from offered load, which
//! is how the paper's "Contention Delay" AMAT component (Fig. 8b) arises.
//!
//! Two levels of detail are provided:
//!
//! * [`FifoServer`]: a single-queue bandwidth server (used for links);
//! * [`DramChannel`] / [`MemoryModule`]: a banked DRAM channel with a shared
//!   data bus, and an address-interleaved group of channels (used for socket
//!   memory and the pool's multi-channel MHD, §III-A).
//!
//! Both add **contention delay only**: the fixed (unloaded) access latency is
//! accounted analytically by `starnuma-topology`'s latency model, so the
//! paper's unloaded numbers are preserved exactly at zero load.
//!
//! # Examples
//!
//! ```
//! use starnuma_mem::FifoServer;
//! use starnuma_types::{Cycles, GbPerSec};
//!
//! let mut link = FifoServer::new(GbPerSec::new(24.0)); // 10 B/cycle
//! let first = link.enqueue(Cycles::new(0), 64);
//! assert_eq!(first, Cycles::ZERO); // empty server: no queuing
//! let second = link.enqueue(Cycles::new(0), 64);
//! assert_eq!(second, Cycles::new(7)); // waits behind the first transfer
//! ```

mod dram;
mod server;

pub use dram::{DramChannel, DramTimings, MemoryModule};
pub use server::{FifoServer, ServerStats, BLOCK_BYTES, DATA_BYTES, REQ_BYTES};
