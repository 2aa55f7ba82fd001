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

use starnuma_types::{DetMap, PageId};

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

    /// Maximum annex counter value (`2^i − 1`).
    pub fn counter_max(&self) -> u32 {
        if self.counter_bits == 0 {
            0
        } else {
            ((1u64 << self.counter_bits) - 1) as u32
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

#[derive(Clone, Copy, Debug)]
struct Slot {
    page: PageId,
    counter: u32,
    marker: bool,
    valid: bool,
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
    index: DetMap<PageId, usize>,
    slots: Vec<Slot>,
    /// Slots invalidated by shootdown and not yet refilled.
    invalid: usize,
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
            index: DetMap::new(),
            slots: Vec::with_capacity(config.entries),
            config,
            invalid: 0,
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

    /// Records the completion of an LLC-missing load to `page`, incrementing
    /// its annex counter. Returns the flush the PTW performs, if any: a
    /// marker hit on a TLB hit, or the replaced entry on a TLB miss — never
    /// both.
    pub fn record_llc_miss(&mut self, page: PageId) -> Option<AnnexFlush> {
        let mut flush = None;
        if let Some(&slot_idx) = self.index.get(&page) {
            self.stats.hits += 1;
            let max = self.config.counter_max();
            let slot = &mut self.slots[slot_idx];
            if slot.marker {
                // First access of the phase to a marked entry: flush & reset.
                slot.marker = false;
                let flushed = slot.counter;
                slot.counter = 0;
                self.stats.flushes += 1;
                flush = Some(AnnexFlush {
                    page,
                    count: flushed,
                });
            }
            if slot.counter < max {
                slot.counter += 1;
            } else {
                self.stats.saturated += 1;
            }
            return flush;
        }
        // TLB miss → page walk; insert, replacing the clock-hand victim.
        self.stats.misses += 1;
        let fresh = Slot {
            page,
            counter: if self.config.counter_bits > 0 { 1 } else { 0 },
            marker: false,
            valid: true,
        };
        if self.slots.len() < self.config.entries {
            self.index.insert(page, self.slots.len());
            self.slots.push(fresh);
        } else {
            // Slots invalidated by shootdown are reused first: the first one
            // at or after the hand. Only when there are none does the hand's
            // entry get replaced.
            let reuse = if self.invalid > 0 {
                self.slots[self.hand..]
                    .iter()
                    .chain(&self.slots[..self.hand])
                    .position(|s| !s.valid)
            } else {
                None
            };
            let idx = if let Some(off) = reuse {
                self.invalid -= 1;
                (self.hand + off) % self.slots.len()
            } else {
                let victim_idx = self.hand;
                let victim = self.slots[victim_idx];
                self.index.remove(&victim.page);
                self.stats.flushes += 1;
                flush = Some(AnnexFlush {
                    page: victim.page,
                    count: victim.counter,
                });
                self.hand = (self.hand + 1) % self.slots.len();
                victim_idx
            };
            self.slots[idx] = fresh;
            self.index.insert(page, idx);
        }
        flush
    }

    /// Sets the marker bit on every entry. Called once per migration phase
    /// (about once per second) so resident-forever hot pages still get their
    /// counters flushed on their next access.
    pub fn set_markers(&mut self) {
        for slot in &mut self.slots {
            if slot.valid {
                slot.marker = true;
            }
        }
    }

    /// Drains all annex counters (end of simulation): every valid entry is
    /// flushed and reset.
    pub fn drain(&mut self) -> Vec<AnnexFlush> {
        let mut flushes = Vec::new();
        for slot in &mut self.slots {
            if slot.valid {
                self.stats.flushes += 1;
                flushes.push(AnnexFlush {
                    page: slot.page,
                    count: slot.counter,
                });
                slot.counter = 0;
                slot.marker = false;
            }
        }
        flushes
    }

    /// Invalidates the entry for `page` (a TLB shootdown), flushing its
    /// counter if present.
    pub fn shootdown(&mut self, page: PageId) -> Option<AnnexFlush> {
        let slot_idx = self.index.remove(&page)?;
        let slot = &mut self.slots[slot_idx];
        slot.valid = false;
        self.invalid += 1;
        self.stats.flushes += 1;
        Some(AnnexFlush {
            page: slot.page,
            count: slot.counter,
        })
    }

    /// Number of currently valid entries.
    pub fn resident(&self) -> usize {
        self.index.len()
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
        let f = t.drain();
        assert_eq!(f[0].count, 3, "2-bit counter caps at 3");
        assert!(t.stats().saturated > 0);
    }

    #[test]
    fn drain_flushes_everything() {
        let mut t = tlb(8, 16);
        t.record_llc_miss(PageId::new(1));
        t.record_llc_miss(PageId::new(2));
        let f = t.drain();
        assert_eq!(f.len(), 2);
        // After drain counters restart at zero.
        let f2 = t.drain();
        assert_eq!(f2.iter().map(|x| x.count).sum::<u32>(), 0);
    }

    #[test]
    fn shootdown_removes_and_flushes() {
        let mut t = tlb(8, 16);
        t.record_llc_miss(PageId::new(5));
        t.record_llc_miss(PageId::new(5));
        let f = t.shootdown(PageId::new(5)).unwrap();
        assert_eq!(f.count, 2);
        assert_eq!(t.resident(), 0);
        assert!(t.shootdown(PageId::new(5)).is_none());
    }

    #[test]
    fn shootdown_slot_is_reused_before_eviction() {
        let mut t = tlb(2, 16);
        t.record_llc_miss(PageId::new(1));
        t.record_llc_miss(PageId::new(2));
        t.shootdown(PageId::new(2));
        // The invalidated slot absorbs the new page: no flush of page 1.
        let f = t.record_llc_miss(PageId::new(3));
        assert!(f.is_none());
        assert_eq!(t.resident(), 2);
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

    #[test]
    fn config_counter_max() {
        assert_eq!(TlbConfig::t16().counter_max(), 65535);
        assert_eq!(TlbConfig::t0().counter_max(), 0);
        assert_eq!(
            TlbConfig {
                entries: 1,
                counter_bits: 8
            }
            .counter_max(),
            255
        );
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
            for f in t.drain() {
                flushed += u64::from(f.count);
            }
            assert_eq!(flushed, len as u64);
        }
    }

    /// Residency never exceeds capacity, with interleaved shootdowns.
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
                let p = rng.gen_range(0u64..100);
                if rng.gen_bool(0.2) {
                    t.shootdown(PageId::new(p));
                } else {
                    t.record_llc_miss(PageId::new(p));
                }
                assert!(t.resident() <= cap);
            }
        }
    }

    /// Conservation also holds with markers and shootdowns interleaved.
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
                let p = rng.gen_range(0u64..12);
                match rng.gen_range(0u16..10) {
                    0 => t.set_markers(),
                    1 => {
                        if let Some(f) = t.shootdown(PageId::new(p)) {
                            flushed += u64::from(f.count);
                        }
                    }
                    _ => {
                        recorded += 1;
                        if let Some(f) = t.record_llc_miss(PageId::new(p)) {
                            flushed += u64::from(f.count);
                        }
                    }
                }
            }
            for f in t.drain() {
                flushed += u64::from(f.count);
            }
            assert_eq!(flushed, recorded);
        }
    }

    /// Slots freed by shootdown are reused before any entry is replaced,
    /// the first one at or after the clock hand, and `resident()` plus the
    /// invalid count always equals the number of filled slots — over a
    /// seeded mix of recorded misses, shootdowns and phase markers.
    #[test]
    fn shootdown_slots_are_reused_from_the_hand() {
        let mut rng = SimRng::seed_from_u64(0x71b3);
        let mut reuses = 0;
        for _case in 0..64 {
            let cap = rng.gen_range(1usize..8);
            let mut t = Tlb::new(TlbConfig {
                entries: cap,
                counter_bits: 16,
            });
            for _ in 0..rng.gen_range(1usize..300) {
                let page = PageId::new(rng.gen_range(0u64..16));
                match rng.gen_range(0u16..10) {
                    0 => t.set_markers(),
                    1 | 2 => {
                        t.shootdown(page);
                    }
                    _ => {
                        let before = t.clone();
                        let flush = t.record_llc_miss(page);
                        if let Some(&idx) = t.index.get(&page) {
                            let reused = before.slots.len() == cap
                                && !before.index.contains_key(&page)
                                && before.invalid > 0;
                            if reused {
                                // The first invalid slot at or after the hand.
                                let expected = (0..cap)
                                    .map(|off| (before.hand + off) % cap)
                                    .find(|&i| !before.slots[i].valid)
                                    .unwrap();
                                assert_eq!(idx, expected);
                                assert_eq!(t.hand, before.hand, "reuse leaves the hand");
                                assert!(flush.is_none(), "reuse flushes nothing");
                                reuses += 1;
                            }
                        }
                    }
                }
                assert_eq!(t.invalid, t.slots.iter().filter(|s| !s.valid).count());
                assert_eq!(t.resident() + t.invalid, t.slots.len());
            }
        }
        assert!(reuses > 100, "the reuse path is exercised ({reuses})");
    }
}
