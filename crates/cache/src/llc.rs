//! LRU set-associative cache.

use starnuma_obs::{MetricsFrame, Observe};
use starnuma_types::BlockAddr;

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// The scaled-down per-socket LLC of Table II: 4 cores × 2 MB/core,
    /// 16-way, 64 B blocks → 8 MiB / 64 B / 16 ways = 8192 sets.
    pub fn scaled_llc() -> Self {
        CacheConfig {
            sets: 8192,
            ways: 16,
        }
    }

    /// A small cache for unit tests.
    pub fn tiny(sets: usize, ways: usize) -> Self {
        CacheConfig { sets, ways }
    }

    /// Capacity in 64 B blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The block was present.
    Hit,
    /// The block was absent and has been filled; `evicted` is the victim (if
    /// any) with its dirty state — a dirty victim implies a writeback.
    Miss {
        /// Evicted victim block and whether it was dirty.
        evicted: Option<(BlockAddr, bool)>,
    },
}

impl CacheOutcome {
    /// Returns `true` on [`CacheOutcome::Hit`].
    pub const fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Hit/miss counters of a [`SetAssocCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty evictions (writebacks).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl Observe for CacheStats {
    fn observe(&self, prefix: &str, frame: &mut MetricsFrame) {
        frame.add_counter(&format!("{prefix}.hits"), self.hits);
        frame.add_counter(&format!("{prefix}.misses"), self.misses);
        frame.add_counter(&format!("{prefix}.writebacks"), self.writebacks);
    }
}

/// Way-word flag: the way holds a block.
const VALID: u32 = 1 << 5;
/// Way-word flag: the block was written since it was filled.
const DIRTY: u32 = 1 << 4;
/// Way-word bits of the way's LRU rank among its set's valid ways.
const RANK: u32 = 0xf;
/// Way-word bits below the tag.
const LOW_BITS: u32 = 6;
/// Way-word bits that identify a valid copy of a block: tag and valid flag.
const KEY: u32 = !(DIRTY | RANK);
/// The most ways a set may have: ranks are 4 bits, and 16 `u32` words fill
/// one 64-byte host cache line.
const MAX_WAYS: usize = 16;

/// An LRU set-associative cache of 64 B blocks.
///
/// Used as each socket's shared LLC: it filters the memory-access stream
/// (only misses reach the interconnect) and tracks dirty state so evictions
/// generate writeback traffic.
///
/// Each way is one `u32` word holding, from the top down, the tag
/// (`bfn >> log2(sets)`, 26 bits), a valid and a dirty flag, and a 4-bit
/// LRU rank among the set's valid ways (0 = most recent). An invalid way is
/// 0. The words are set-major from the first 64-byte boundary of `words`,
/// so a 16-way set is one host cache line. The victim is the first invalid
/// way, or else the way ranked `ways - 1`.
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    set_bits: u32,
    words: Vec<u32>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.sets` is not a power of two, or `ways` is zero or
    /// more than 16.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "set count must be a power of two, got {}",
            config.sets
        );
        assert!(
            (1..=MAX_WAYS).contains(&config.ways),
            "associativity must be in 1..={MAX_WAYS}, got {}",
            config.ways
        );
        SetAssocCache {
            set_bits: config.sets.trailing_zeros(),
            // Zeroed, with room to start at a 64-byte boundary.
            words: vec![0; config.sets * config.ways + MAX_WAYS - 1],
            config,
            stats: CacheStats::default(),
        }
    }

    /// Returns the geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Returns hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns `block`'s set and the word a valid, clean, most recent copy
    /// of `block` has.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit in 26 bits: with 8,192 sets, blocks
    /// from `bfn = 2^39` (32 TiB) on.
    fn locate(&self, block: BlockAddr) -> (u64, u32) {
        let bfn = block.bfn();
        let tag = bfn >> self.set_bits;
        assert!(
            tag >> (u32::BITS - LOW_BITS) == 0,
            "{block:?} is outside the cache's tag range"
        );
        #[expect(clippy::cast_possible_truncation, reason = "tag < 2^26, checked above")]
        let word = ((tag as u32) << LOW_BITS) | VALID;
        (bfn & (self.config.sets as u64 - 1), word)
    }

    /// The word indices of `set`, counted from the first 64-byte boundary
    /// of `words`.
    fn ways(&self, set: u64) -> core::ops::Range<usize> {
        let first = self.words.as_ptr().addr().wrapping_neg() % 64 / 4;
        let base = first + set as usize * self.config.ways;
        base..base + self.config.ways
    }

    /// Accesses `block`; `is_write` marks the line dirty on hit or fill.
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> CacheOutcome {
        let (set, key) = self.locate(block);
        let ways = self.ways(set);
        let last = self.config.ways as u32 - 1;
        let dirty = if is_write { DIRTY } else { 0 };
        let set_words = &mut self.words[ways];
        // Hit?
        if let Some(way) = set_words.iter().position(|&w| w & KEY == key) {
            let word = set_words[way];
            age(set_words, word & RANK);
            set_words[way] = (word & !RANK) | dirty;
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        // Miss: the victim is the first invalid way or, in a full set, the
        // one ranked last; a set with an invalid way ranks none last.
        self.stats.misses += 1;
        let victim = set_words
            .iter()
            .position(|&w| w & VALID == 0 || w & RANK == last)
            .unwrap_or(0);
        let old = set_words[victim];
        let evicted = if old & VALID != 0 {
            let was_dirty = old & DIRTY != 0;
            if was_dirty {
                self.stats.writebacks += 1;
            }
            let bfn = (u64::from(old >> LOW_BITS) << self.set_bits) | set;
            age(set_words, last);
            Some((BlockAddr::new(bfn), was_dirty))
        } else {
            age(set_words, last + 1);
            None
        };
        set_words[victim] = key | dirty;
        CacheOutcome::Miss { evicted }
    }

    /// Returns `true` if `block` is currently cached (no LRU update).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let (set, key) = self.locate(block);
        self.words[self.ways(set)].iter().any(|&w| w & KEY == key)
    }

    /// Invalidates `block` if present; returns whether it was dirty.
    ///
    /// Used for coherence back-invalidations.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let (set, key) = self.locate(block);
        let ways = self.ways(set);
        let set_words = &mut self.words[ways];
        let way = set_words.iter().position(|&w| w & KEY == key)?;
        let word = set_words[way];
        set_words[way] = 0;
        // The ways ranked below it move up one.
        for w in set_words.iter_mut() {
            *w -= u32::from(*w & VALID != 0 && *w & RANK > word & RANK);
        }
        Some(word & DIRTY != 0)
    }

    /// Empties the cache and clears statistics.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.stats = CacheStats::default();
    }
}

impl Clone for SetAssocCache {
    /// Copies the sets to the clone's own first 64-byte boundary, which may
    /// lie at another index of `words` than the original's.
    fn clone(&self) -> Self {
        let mut clone = SetAssocCache {
            words: vec![0; self.words.len()],
            ..*self
        };
        let sets = self.ways(0).start..self.ways(0).start + self.config.capacity_blocks();
        let first = clone.ways(0).start;
        clone.words[first..first + sets.len()].copy_from_slice(&self.words[sets]);
        clone
    }
}

/// Ages by one every valid way of `set` ranked more recent than `rank`.
fn age(set: &mut [u32], rank: u32) {
    for w in set.iter_mut() {
        *w += u32::from(*w & VALID != 0 && *w & RANK < rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::tiny(2, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(BlockAddr::new(0), false).is_hit());
        assert!(c.access(BlockAddr::new(0), false).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().miss_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even bfn).
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        c.access(BlockAddr::new(0), false); // 0 is now MRU
        let out = c.access(BlockAddr::new(4), false); // evicts 2
        assert_eq!(
            out,
            CacheOutcome::Miss {
                evicted: Some((BlockAddr::new(2), false))
            }
        );
        assert!(c.contains(BlockAddr::new(0)));
        assert!(!c.contains(BlockAddr::new(2)));
    }

    #[test]
    fn dirty_eviction_is_writeback() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false); // evicts dirty 0
        assert_eq!(
            out,
            CacheOutcome::Miss {
                evicted: Some((BlockAddr::new(0), true))
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(0), true); // now dirty
        c.access(BlockAddr::new(2), false); // 0 becomes LRU
        let out = c.access(BlockAddr::new(4), false); // evicts 0, dirty
        assert_eq!(
            out,
            CacheOutcome::Miss {
                evicted: Some((BlockAddr::new(0), true))
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        assert_eq!(c.invalidate(BlockAddr::new(0)), Some(true));
        assert!(!c.contains(BlockAddr::new(0)));
        assert_eq!(c.invalidate(BlockAddr::new(0)), None);
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false); // set 0
        c.access(BlockAddr::new(1), false); // set 1
        c.access(BlockAddr::new(3), false); // set 1
        c.access(BlockAddr::new(5), false); // set 1, evicts 1
        assert!(c.contains(BlockAddr::new(0)), "set 0 unaffected");
        assert!(!c.contains(BlockAddr::new(1)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        c.reset();
        assert!(!c.contains(BlockAddr::new(0)));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn scaled_llc_geometry() {
        let cfg = CacheConfig::scaled_llc();
        assert_eq!(cfg.capacity_blocks() * 64, 8 * 1024 * 1024); // 8 MiB
        let c = SetAssocCache::new(cfg);
        assert_eq!(c.config().ways, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = SetAssocCache::new(CacheConfig::tiny(3, 2));
    }

    #[test]
    #[should_panic(expected = "associativity must be in 1..=16")]
    fn rejects_more_than_sixteen_ways() {
        let _ = SetAssocCache::new(CacheConfig::tiny(2, 17));
    }

    #[test]
    fn every_set_is_one_host_cache_line() {
        let c = SetAssocCache::new(CacheConfig::scaled_llc());
        for c in [&c, &c.clone()] {
            for set in 0..c.config().sets as u64 {
                let ways = c.ways(set);
                assert_eq!(c.words[ways.clone()].as_ptr().addr() % 64, 0, "set {set}");
                assert_eq!(ways.len() * 4, 64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the cache's tag range")]
    fn rejects_the_first_block_past_the_tag_range() {
        let mut c = SetAssocCache::new(CacheConfig::scaled_llc());
        // 8,192 sets: a 26-bit tag reaches bfn 2^39 - 1.
        c.access(BlockAddr::new((1 << 39) - 1), true);
        c.access(BlockAddr::new(1 << 39), true);
    }

    #[test]
    fn miss_ratio_zero_when_empty() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use starnuma_types::SimRng;

    /// The cache never holds more blocks than its capacity, and a
    /// just-filled block is always resident immediately afterwards.
    #[test]
    fn fill_then_resident() {
        let mut rng = SimRng::seed_from_u64(0x11c0);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..200);
            let mut c = SetAssocCache::new(CacheConfig::tiny(4, 4));
            for _ in 0..len {
                let a = rng.gen_range(0u64..512);
                let b = BlockAddr::new(a);
                c.access(b, a.is_multiple_of(3));
                assert!(c.contains(b));
            }
        }
    }

    /// Hits + misses always equals total accesses; miss ratio is in [0,1].
    #[test]
    fn stats_are_consistent() {
        let mut rng = SimRng::seed_from_u64(0x11c1);
        for _case in 0..64 {
            let len = rng.gen_range(0usize..100);
            let mut c = SetAssocCache::new(CacheConfig::tiny(2, 2));
            for _ in 0..len {
                c.access(BlockAddr::new(rng.gen_range(0u64..64)), false);
            }
            let s = c.stats();
            assert_eq!(s.accesses(), len as u64);
            assert!((0.0..=1.0).contains(&s.miss_ratio()));
        }
    }

    /// The one-struct-per-way layout the packed words replaced: the
    /// reference model for `matches_reference_model`.
    #[derive(Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
    }

    struct Reference {
        sets: usize,
        ways: usize,
        lines: Vec<Line>,
        tick: u64,
        stats: CacheStats,
    }

    impl Reference {
        fn new(config: CacheConfig) -> Self {
            Reference {
                sets: config.sets,
                ways: config.ways,
                lines: vec![Line::default(); config.sets * config.ways],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set(&self, block: BlockAddr) -> core::ops::Range<usize> {
            let base = (block.bfn() as usize & (self.sets - 1)) * self.ways;
            base..base + self.ways
        }

        fn access(&mut self, block: BlockAddr, is_write: bool) -> CacheOutcome {
            self.tick += 1;
            let set = self.set(block);
            for i in set.clone() {
                let line = &mut self.lines[i];
                if line.valid && line.tag == block.bfn() {
                    line.lru = self.tick;
                    line.dirty |= is_write;
                    self.stats.hits += 1;
                    return CacheOutcome::Hit;
                }
            }
            self.stats.misses += 1;
            let mut victim = set.start;
            let mut victim_lru = u64::MAX;
            for i in set {
                if !self.lines[i].valid {
                    victim = i;
                    break;
                }
                if self.lines[i].lru < victim_lru {
                    victim = i;
                    victim_lru = self.lines[i].lru;
                }
            }
            let old = self.lines[victim];
            let evicted = old.valid.then(|| {
                self.stats.writebacks += u64::from(old.dirty);
                (BlockAddr::new(old.tag), old.dirty)
            });
            self.lines[victim] = Line {
                tag: block.bfn(),
                valid: true,
                dirty: is_write,
                lru: self.tick,
            };
            CacheOutcome::Miss { evicted }
        }

        fn contains(&self, block: BlockAddr) -> bool {
            self.lines[self.set(block)]
                .iter()
                .any(|l| l.valid && l.tag == block.bfn())
        }

        fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
            let set = self.set(block);
            let line = self.lines[set]
                .iter_mut()
                .find(|l| l.valid && l.tag == block.bfn())?;
            line.valid = false;
            Some(line.dirty)
        }
    }

    /// The packed cache and the reference model agree call for call —
    /// outcomes, evicted blocks with their dirty bits, and statistics — on a
    /// seeded mix of accesses, invalidations and lookups, including blocks
    /// with high tag bits.
    #[test]
    fn matches_reference_model() {
        let mut rng = SimRng::seed_from_u64(0x11c3);
        for (sets, ways, calls) in [
            (1, 4, 4_000),
            (2, 2, 4_000),
            (4, 4, 4_000),
            (8192, 16, 400_000),
        ] {
            let config = CacheConfig::tiny(sets, ways);
            let mut cache = SetAssocCache::new(config);
            let mut reference = Reference::new(config);
            // Twice the capacity, so sets fill, evict and refill.
            let span = 2 * config.capacity_blocks() as u64;
            for _ in 0..calls {
                let mut bfn = rng.gen_range(0..span);
                if rng.gen_bool(0.1) {
                    // High tag bits, up to the largest tag in range.
                    bfn |= rng.gen_range(1u64..1 << 26) << sets.trailing_zeros();
                }
                let block = BlockAddr::new(bfn);
                match rng.gen_range(0u16..10) {
                    0 => assert_eq!(cache.invalidate(block), reference.invalidate(block)),
                    1 => assert_eq!(cache.contains(block), reference.contains(block)),
                    _ => {
                        let write = rng.gen_bool(0.3);
                        assert_eq!(cache.access(block, write), reference.access(block, write));
                    }
                }
            }
            assert_eq!(cache.stats(), reference.stats);
            assert!(
                cache.stats().writebacks > 0,
                "{sets}x{ways}: dirty evictions exercised"
            );
        }
    }

    /// A clone of a filled cache holds the same blocks in the same LRU
    /// order as the original, wherever its allocation starts relative to a
    /// 64-byte boundary: the allocations kept alive between clones move
    /// where the next one lands.
    #[test]
    fn clone_keeps_contents_and_order() {
        let mut rng = SimRng::seed_from_u64(0x11c4);
        let config = CacheConfig::tiny(64, 16);
        let span = 2 * config.capacity_blocks() as u64;
        let mut cache = SetAssocCache::new(config);
        for _ in 0..4 * span {
            cache.access(BlockAddr::new(rng.gen_range(0..span)), rng.gen_bool(0.3));
        }
        let (mut kept, mut clones) = (Vec::new(), Vec::new());
        for pad in 0..8 {
            kept.push(vec![0u8; 16 * pad + 1]);
            let mut clone = cache.clone();
            for bfn in 0..span {
                let block = BlockAddr::new(bfn);
                assert_eq!(
                    clone.contains(block),
                    cache.contains(block),
                    "pad {pad}, {block:?}"
                );
            }
            for _ in 0..span {
                let (block, write) = (BlockAddr::new(rng.gen_range(0..span)), rng.gen_bool(0.3));
                assert_eq!(
                    clone.access(block, write),
                    cache.access(block, write),
                    "pad {pad}"
                );
            }
            assert_eq!(clone.stats(), cache.stats());
            clones.push(clone);
        }
    }

    /// Accessing a working set no larger than one set's associativity
    /// never evicts: everything stays resident (LRU is safe at capacity).
    #[test]
    fn small_working_set_never_evicts() {
        let mut rng = SimRng::seed_from_u64(0x11c2);
        for _case in 0..32 {
            let reps = rng.gen_range(1usize..20);
            let mut c = SetAssocCache::new(CacheConfig::tiny(1, 4));
            let ws: Vec<u64> = (0..4).collect();
            for _ in 0..reps {
                for &a in &ws {
                    c.access(BlockAddr::new(a), false);
                }
            }
            let s = c.stats();
            assert_eq!(s.misses, 4); // only the cold misses
        }
    }
}
