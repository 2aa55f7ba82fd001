//! Cache-hierarchy models: the per-socket LLC and the TLB counter annex.
//!
//! * [`SetAssocCache`] is an LRU set-associative cache used as each socket's
//!   shared LLC. In the mixed-modality methodology (§IV-B of the paper) every
//!   light socket carries an LLC-sized cache "to support coherence modeling
//!   and filter accesses to memory"; the detailed socket uses the same model.
//! * [`Tlb`] implements the paper's hardware access-tracking support
//!   (§III-D1): each TLB entry carries an `i`-bit saturating *annex counter*
//!   incremented on LLC-missing loads, flushed into the in-memory region
//!   metadata by the page-table walker on eviction — plus a *marker bit*,
//!   set once per migration phase, that forces a flush on the next access so
//!   hot pages that never leave the TLB are still counted.
//!
//! # Examples
//!
//! ```
//! use starnuma_cache::{CacheConfig, CacheOutcome, SetAssocCache};
//! use starnuma_types::BlockAddr;
//!
//! let mut llc = SetAssocCache::new(CacheConfig::scaled_llc());
//! assert!(matches!(llc.access(BlockAddr::new(7), false), CacheOutcome::Miss { .. }));
//! assert!(matches!(llc.access(BlockAddr::new(7), false), CacheOutcome::Hit));
//! ```

mod llc;
mod tlb;

pub use llc::{CacheConfig, CacheOutcome, CacheStats, SetAssocCache};
pub use tlb::{AnnexFlush, Tlb, TlbConfig, TlbStats};
