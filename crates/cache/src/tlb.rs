//! The TLB counter annex of §III-D1.
//!
//! Each TLB entry carries an `i`-bit saturating counter, incremented when an
//! LLC-missing load to that page completes. The page-table walker (PTW)
//! flushes the counter into the in-memory region-tracker metadata when the
//! entry is evicted — and, to capture hot pages that never leave the TLB,
//! each entry also has a *marker bit*, set once per migration phase: the
//! first access to a marked entry flushes and resets the counter.
//!
//! The special `T_0` design (counter width 0) cannot rank hotness but still
//! records *which sockets touched a region*, which is all that is needed to
//! identify widely shared regions for pool placement.
//!
//! Replacement is clock (FIFO) order: O(1) per access, which keeps the
//! tracker model off the simulator's critical path. The paper's mechanism
//! does not depend on the TLB replacement policy — only on the conservation
//! property that every counted access is eventually flushed, which holds
//! under any replacement order (see the property tests).

use starnuma_types::PageId;

/// Configuration of a [`Tlb`] and its counter annex.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbConfig {
    /// Number of TLB entries.
    pub entries: usize,
    /// Annex counter width in bits; `16` models the paper's `T_16`, `0`
    /// models `T_0` (touched/not-touched only).
    pub counter_bits: u8,
}

impl TlbConfig {
    /// A 1536-entry TLB with the paper's default `T_16` annex.
    pub fn t16() -> Self {
        TlbConfig {
            entries: 1536,
            counter_bits: 16,
        }
    }

    /// A 1536-entry TLB with the `T_0` annex.
    pub fn t0() -> Self {
        TlbConfig {
            entries: 1536,
            counter_bits: 0,
        }
    }

    /// Maximum annex counter value (`2^i − 1`), saturating at `u32::MAX`
    /// for widths of 32 bits or more.
    pub fn counter_max(&self) -> u32 {
        match self.counter_bits {
            0 => 0,
            bits @ 1..=31 => (1u32 << bits) - 1,
            _ => u32::MAX,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::t16()
    }
}

/// A counter flush emitted by the PTW toward the in-memory metadata region:
/// `count` accesses (by this TLB's socket) must be added to `page`'s region
/// tracker. For a `T_0` annex `count` is zero but the flush still records
/// that the socket touched the region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AnnexFlush {
    /// The page whose annex was flushed.
    pub page: PageId,
    /// Accesses accumulated since the last flush (0 under `T_0`).
    pub count: u32,
}

/// Counters describing TLB behavior.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TlbStats {
    /// Accesses that hit in the TLB.
    pub hits: u64,
    /// Accesses that missed (each implies a page walk).
    pub misses: u64,
    /// Annex flushes performed by the PTW (each adds metadata-write traffic).
    pub flushes: u64,
    /// Counter increments lost to saturation.
    pub saturated: u64,
}

/// Lanes compared per step of the TLB lookup.
const LANES: usize = 8;

/// One entry's annex: its saturating counter and its phase marker bit.
#[derive(Clone, Copy, Debug)]
struct Annex {
    counter: u32,
    marker: bool,
}

/// A TLB with the §III-D1 counter annex (clock replacement).
///
/// # Examples
///
/// ```
/// use starnuma_cache::{Tlb, TlbConfig};
/// use starnuma_types::PageId;
///
/// let mut tlb = Tlb::new(TlbConfig { entries: 2, counter_bits: 16 });
/// tlb.record_llc_miss(PageId::new(1));
/// tlb.record_llc_miss(PageId::new(1));
/// tlb.record_llc_miss(PageId::new(2));
/// // Capacity 2: inserting a third page flushes an existing annex.
/// let flush = tlb.record_llc_miss(PageId::new(3)).unwrap();
/// assert_eq!(flush.count, 2);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// The resident pages, one per filled entry: a dense array the lookup
    /// scans [`LANES`] at a time.
    pages: Vec<PageId>,
    /// Each entry's annex, parallel to `pages`.
    annex: Vec<Annex>,
    hand: usize,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries` is zero.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "TLB needs at least one entry");
        Tlb {
            pages: Vec::with_capacity(config.entries),
            annex: Vec::with_capacity(config.entries),
            config,
            hand: 0,
            stats: TlbStats::default(),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Returns behavior counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// The entry holding `page`, if resident. Each chunk of [`LANES`]
    /// pages is compared whole, with no early exit inside it (which lets
    /// the compiler vectorise the compare); only the chunk that hit is
    /// searched for the lane.
    fn find(&self, page: PageId) -> Option<usize> {
        let mut chunks = self.pages.chunks_exact(LANES);
        for (c, chunk) in chunks.by_ref().enumerate() {
            if chunk.iter().fold(false, |hit, &p| hit | (p == page)) {
                return chunk.iter().position(|&p| p == page).map(|i| c * LANES + i);
            }
        }
        let rest = chunks.remainder();
        let base = self.pages.len() - rest.len();
        rest.iter().position(|&p| p == page).map(|i| base + i)
    }

    /// Records the completion of an LLC-missing load to `page`, incrementing
    /// its annex counter. Returns the flush the PTW performs, if any: a
    /// marker hit on a TLB hit, or the replaced entry on a TLB miss — never
    /// both.
    pub fn record_llc_miss(&mut self, page: PageId) -> Option<AnnexFlush> {
        if let Some(idx) = self.find(page) {
            self.stats.hits += 1;
            let max = self.config.counter_max();
            let annex = &mut self.annex[idx];
            let mut flush = None;
            if annex.marker {
                // First access of the phase to a marked entry: flush & reset.
                annex.marker = false;
                self.stats.flushes += 1;
                flush = Some(AnnexFlush {
                    page,
                    count: annex.counter,
                });
                annex.counter = 0;
            }
            if annex.counter < max {
                annex.counter += 1;
            } else {
                self.stats.saturated += 1;
            }
            return flush;
        }
        // TLB miss → page walk; insert, replacing the clock-hand victim.
        self.stats.misses += 1;
        let fresh = Annex {
            counter: if self.config.counter_bits > 0 { 1 } else { 0 },
            marker: false,
        };
        if self.pages.len() < self.config.entries {
            self.pages.push(page);
            self.annex.push(fresh);
            return None;
        }
        let victim = self.hand;
        self.hand = (self.hand + 1) % self.pages.len();
        self.stats.flushes += 1;
        Some(AnnexFlush {
            page: std::mem::replace(&mut self.pages[victim], page),
            count: std::mem::replace(&mut self.annex[victim], fresh).counter,
        })
    }

    /// Sets the marker bit on every entry. Called once per migration phase
    /// (about once per second) so resident-forever hot pages still get their
    /// counters flushed on their next access.
    pub fn set_markers(&mut self) {
        for annex in &mut self.annex {
            annex.marker = true;
        }
    }

    /// Number of currently valid entries.
    pub fn resident(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: usize, bits: u8) -> Tlb {
        Tlb::new(TlbConfig {
            entries,
            counter_bits: bits,
        })
    }

    #[test]
    fn counts_accumulate_until_eviction() {
        let mut t = tlb(2, 16);
        for _ in 0..5 {
            assert!(t.record_llc_miss(PageId::new(1)).is_none());
        }
        t.record_llc_miss(PageId::new(2));
        // Capacity 2: inserting page 3 evicts the clock victim (page 1).
        let f = t.record_llc_miss(PageId::new(3));
        assert_eq!(
            f,
            Some(AnnexFlush {
                page: PageId::new(1),
                count: 5
            })
        );
    }

    #[test]
    fn marker_forces_flush_of_hot_page() {
        let mut t = tlb(4, 16);
        t.record_llc_miss(PageId::new(9));
        t.record_llc_miss(PageId::new(9));
        t.set_markers();
        let f = t.record_llc_miss(PageId::new(9)).unwrap();
        assert_eq!(f.count, 2);
        // Marker cleared: next access flushes nothing.
        assert!(t.record_llc_miss(PageId::new(9)).is_none());
    }

    #[test]
    fn t0_counts_are_zero_but_flushes_happen() {
        let mut t = tlb(1, 0);
        t.record_llc_miss(PageId::new(1));
        t.record_llc_miss(PageId::new(1));
        let f = t.record_llc_miss(PageId::new(2)); // evicts 1
        assert_eq!(
            f,
            Some(AnnexFlush {
                page: PageId::new(1),
                count: 0
            })
        );
        assert_eq!(t.stats().saturated, 1, "T_0 saturates immediately");
    }

    #[test]
    fn counter_saturates_at_width() {
        let mut t = Tlb::new(TlbConfig {
            entries: 1,
            counter_bits: 2,
        });
        for _ in 0..10 {
            t.record_llc_miss(PageId::new(1));
        }
        assert_eq!(t.annex[0].counter, 3, "2-bit counter caps at 3");
        assert!(t.stats().saturated > 0);
    }

    #[test]
    fn clock_eviction_is_insertion_ordered() {
        let mut t = tlb(2, 16);
        t.record_llc_miss(PageId::new(1));
        t.record_llc_miss(PageId::new(2));
        t.record_llc_miss(PageId::new(1)); // hit: does not affect clock order
        let f = t.record_llc_miss(PageId::new(3)).unwrap();
        assert_eq!(f.page, PageId::new(1), "FIFO victim");
        let f = t.record_llc_miss(PageId::new(4)).unwrap();
        assert_eq!(f.page, PageId::new(2));
    }

    #[test]
    fn stats_track_hits_misses() {
        let mut t = tlb(4, 16);
        t.record_llc_miss(PageId::new(1)); // miss
        t.record_llc_miss(PageId::new(1)); // hit
        t.record_llc_miss(PageId::new(2)); // miss
        let s = t.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    /// `2^i − 1`, saturating at `u32::MAX` from 32 bits on instead of
    /// overflowing the shift.
    #[test]
    fn config_counter_max() {
        assert_eq!(TlbConfig::t16().counter_max(), 65535);
        assert_eq!(TlbConfig::t0().counter_max(), 0);
        for (bits, max) in [
            (0, 0),
            (8, 255),
            (16, 65_535),
            (32, u32::MAX),
            (40, u32::MAX),
            (64, u32::MAX),
            (255, u32::MAX),
        ] {
            let config = TlbConfig {
                entries: 1,
                counter_bits: bits,
            };
            assert_eq!(config.counter_max(), max, "{bits} bits");
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_zero_entries() {
        let _ = Tlb::new(TlbConfig {
            entries: 0,
            counter_bits: 16,
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use starnuma_types::SimRng;

    /// Accesses still held in resident counters, not yet flushed.
    fn resident_counts(t: &Tlb) -> u64 {
        t.annex.iter().map(|a| u64::from(a.counter)).sum()
    }

    /// Golden: a seeded 200k-access stream over 200 pages (a hot quarter
    /// takes 70 % of the accesses) into a 64-entry `T_16` TLB, with phase
    /// markers every 1k accesses. The digest over the `(page, count)` flush
    /// sequence and the final stats pin the lookup and replacement
    /// behaviour bit for bit.
    #[test]
    fn flush_sequence_is_pinned() {
        let mut rng = SimRng::seed_from_u64(0x71b9);
        let mut t = Tlb::new(TlbConfig {
            entries: 64,
            counter_bits: 16,
        });
        let mut digest = starnuma_types::FNV_OFFSET;
        for i in 0..200_000u32 {
            if i % 1_000 == 0 {
                t.set_markers();
            }
            let pfn = if rng.gen_bool(0.7) {
                rng.gen_range(0u64..50)
            } else {
                rng.gen_range(0u64..200)
            };
            if let Some(f) = t.record_llc_miss(PageId::new(pfn)) {
                digest = starnuma_types::fnv1a(&f.page.pfn().to_le_bytes(), digest);
                digest = starnuma_types::fnv1a(&f.count.to_le_bytes(), digest);
            }
        }
        assert_eq!(digest, 0x783e_e57b_5e6c_0f82);
        assert_eq!(
            t.stats(),
            TlbStats {
                hits: 118_659,
                misses: 81_341,
                flushes: 86_324,
                saturated: 0,
            }
        );
    }

    /// Conservation: every recorded LLC miss is eventually flushed
    /// exactly once (flushed counts + still-resident counts = accesses),
    /// provided counters never saturate.
    #[test]
    fn counts_are_conserved() {
        let mut rng = SimRng::seed_from_u64(0x71b0);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..300);
            let mut t = Tlb::new(TlbConfig {
                entries: 4,
                counter_bits: 16,
            });
            let mut flushed: u64 = 0;
            for _ in 0..len {
                let p = rng.gen_range(0u64..20);
                if let Some(f) = t.record_llc_miss(PageId::new(p)) {
                    flushed += u64::from(f.count);
                }
            }
            assert_eq!(flushed + resident_counts(&t), len as u64);
        }
    }

    /// The chunked lookup finds every resident page at its own entry and
    /// no other page, for capacities with and without a partial last chunk.
    #[test]
    fn lookup_finds_exactly_the_resident_pages() {
        let mut rng = SimRng::seed_from_u64(0x71b4);
        for cap in 1usize..=20 {
            let mut t = Tlb::new(TlbConfig {
                entries: cap,
                counter_bits: 16,
            });
            for _ in 0..200 {
                t.record_llc_miss(PageId::new(rng.gen_range(0u64..40)));
                for pfn in 0u64..40 {
                    let page = PageId::new(pfn);
                    assert_eq!(t.find(page), t.pages.iter().position(|&p| p == page));
                }
            }
        }
    }

    /// Residency never exceeds capacity.
    #[test]
    fn residency_bounded() {
        let mut rng = SimRng::seed_from_u64(0x71b1);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..200);
            let cap = rng.gen_range(1usize..8);
            let mut t = Tlb::new(TlbConfig {
                entries: cap,
                counter_bits: 16,
            });
            for _ in 0..len {
                t.record_llc_miss(PageId::new(rng.gen_range(0u64..100)));
                assert!(t.resident() <= cap);
            }
        }
    }

    /// Conservation also holds with phase markers interleaved.
    #[test]
    fn conservation_with_markers() {
        let mut rng = SimRng::seed_from_u64(0x71b2);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..300);
            let mut t = Tlb::new(TlbConfig {
                entries: 3,
                counter_bits: 16,
            });
            let mut flushed: u64 = 0;
            let mut recorded: u64 = 0;
            for _ in 0..len {
                if rng.gen_range(0u16..10) == 0 {
                    t.set_markers();
                } else {
                    recorded += 1;
                    if let Some(f) = t.record_llc_miss(PageId::new(rng.gen_range(0u64..12))) {
                        flushed += u64::from(f.count);
                    }
                }
            }
            assert_eq!(flushed + resident_counts(&t), recorded);
        }
    }
}
