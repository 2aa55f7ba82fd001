//! Interconnect topology of the baseline 16-socket system and StarNUMA.
//!
//! Models the HPE Superdome FLEX-style hierarchy of the paper (§II-A):
//! four-socket chassis with all-to-all intra-chassis UPI links, FLEX ASICs
//! bridging chassis over all-to-all NUMALinks, and — for StarNUMA (§III) —
//! a CXL-attached memory pool connected to every socket in a star.
//!
//! The crate provides:
//!
//! * [`SystemParams`]: the full-scale (Table I) and scaled-down (Table II)
//!   parameter sets, plus the §V-C/§V-D/§V-E sensitivity variants;
//! * [`Network`]: the directed-link database and routing (which links a
//!   request and its response traverse);
//! * [`latency`]: the analytic unloaded-latency model that reproduces every
//!   latency figure in the paper (80/130/360/180 ns accesses; 333/413 ns
//!   3-hop and 200/280 ns 4-hop block transfers; the Fig. 3 CXL breakdown).
//!
//! # Examples
//!
//! ```
//! use starnuma_topology::{Network, SystemParams};
//! use starnuma_types::{Location, SocketId};
//!
//! let params = SystemParams::scaled_starnuma();
//! let net = Network::new(&params);
//! let pool = net.latency().demand_access(SocketId::new(0), Location::Pool);
//! assert_eq!(pool.raw(), 180.0);
//! assert_eq!(net.leg(Location::Socket(SocketId::new(0)), Location::Pool).len(), 1);
//! ```

pub mod latency;
mod network;
mod params;

pub use latency::{CxlLatencyBreakdown, LatencyModel};
pub use network::{AccessClass, LinkId, LinkKind, Network};
pub use params::{BandwidthVariant, ScalePreset, SystemParams};
