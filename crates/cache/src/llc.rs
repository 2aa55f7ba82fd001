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

/// Tag-word flag: the way holds a block.
const VALID: u64 = 1;
/// Tag-word flag: the block was written since it was filled.
const DIRTY: u64 = 2;
/// Flag bits below the tag in a tag word.
const FLAG_BITS: u32 = 2;

/// An LRU set-associative cache of 64 B blocks.
///
/// Used as each socket's shared LLC: it filters the memory-access stream
/// (only misses reach the interconnect) and tracks dirty state so evictions
/// generate writeback traffic.
///
/// The ways live in two set-major arrays, so one set's lookup reads two
/// short runs of words. A tag word holds `bfn >> log2(sets)` above a valid
/// and a dirty flag, and is 0 for an invalid way. A stamp is the cache tick
/// of the way's last access, and is 0 exactly when the way is invalid
/// (ticks start at 1), so the LRU victim — the first invalid way, else the
/// oldest — is simply the first way with the smallest stamp. Stamps are
/// 32-bit; before the tick would wrap, each set's stamps are renumbered in
/// the same order.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    set_bits: u32,
    tags: Vec<u64>,
    stamps: Vec<u32>,
    tick: u32,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.sets` is not a power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "set count must be a power of two, got {}",
            config.sets
        );
        assert!(config.ways > 0, "associativity must be positive");
        SetAssocCache {
            set_bits: config.sets.trailing_zeros(),
            tags: vec![0; config.sets * config.ways],
            stamps: vec![0; config.sets * config.ways],
            config,
            tick: 0,
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

    /// Returns `block`'s set and the tag word a valid copy of `block` has
    /// with its dirty flag set.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit in 62 bits, which no block of a 64-bit
    /// physical address space (`bfn < 2^58`) reaches.
    fn locate(&self, block: BlockAddr) -> (u64, u64) {
        let bfn = block.bfn();
        let tag = bfn >> self.set_bits;
        assert!(
            tag >> (u64::BITS - FLAG_BITS) == 0,
            "{block:?} is outside the cache's tag range"
        );
        (
            bfn & (self.config.sets as u64 - 1),
            (tag << FLAG_BITS) | DIRTY | VALID,
        )
    }

    /// The way indices of `set`.
    fn ways(&self, set: u64) -> core::ops::Range<usize> {
        let base = set as usize * self.config.ways;
        base..base + self.config.ways
    }

    /// Accesses `block`; `is_write` marks the line dirty on hit or fill.
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> CacheOutcome {
        if self.tick == u32::MAX {
            self.renumber_stamps();
        }
        self.tick += 1;
        let (set, key) = self.locate(block);
        let ways = self.ways(set);
        let dirty = if is_write { DIRTY } else { 0 };
        let tags = &mut self.tags[ways.clone()];
        let stamps = &mut self.stamps[ways];
        // Hit?
        if let Some(way) = tags.iter().position(|&t| t | DIRTY == key) {
            tags[way] |= dirty;
            stamps[way] = self.tick;
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        // Miss: the first way with the smallest stamp is the first invalid
        // way, or else the least recently used one.
        self.stats.misses += 1;
        let mut victim = 0;
        for (way, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < stamps[victim] {
                victim = way;
            }
        }
        let old = tags[victim];
        let evicted = if old & VALID != 0 {
            let was_dirty = old & DIRTY != 0;
            if was_dirty {
                self.stats.writebacks += 1;
            }
            let bfn = ((old >> FLAG_BITS) << self.set_bits) | set;
            Some((BlockAddr::new(bfn), was_dirty))
        } else {
            None
        };
        tags[victim] = (key & !DIRTY) | dirty;
        stamps[victim] = self.tick;
        CacheOutcome::Miss { evicted }
    }

    /// Renumbers each set's valid stamps to `1..=k` in their current order,
    /// leaving invalid ways at 0, and restarts the tick above them. Victims
    /// are chosen by comparing stamps within one set, so no choice changes.
    fn renumber_stamps(&mut self) {
        let mut order = Vec::with_capacity(self.config.ways);
        for set in self.stamps.chunks_mut(self.config.ways) {
            order.clear();
            order.extend((0..set.len()).filter(|&way| set[way] != 0));
            order.sort_by_key(|&way| set[way]);
            for (rank, &way) in (1..).zip(&order) {
                set[way] = rank;
            }
        }
        self.tick = u32::try_from(self.config.ways).unwrap_or(u32::MAX);
    }

    /// Returns `true` if `block` is currently cached (no LRU update).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let (set, key) = self.locate(block);
        self.tags[self.ways(set)].iter().any(|&t| t | DIRTY == key)
    }

    /// Invalidates `block` if present; returns whether it was dirty.
    ///
    /// Used for coherence back-invalidations.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let (set, key) = self.locate(block);
        let ways = self.ways(set);
        let i = ways.start + self.tags[ways].iter().position(|&t| t | DIRTY == key)?;
        let was_dirty = self.tags[i] & DIRTY != 0;
        self.tags[i] = 0;
        self.stamps[i] = 0;
        Some(was_dirty)
    }

    /// Empties the cache and clears statistics.
    pub fn reset(&mut self) {
        self.tags.fill(0);
        self.stamps.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
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

    /// The one-struct-per-way layout the packed arrays replaced: the
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
    /// with high tag bits and a wrap of the 32-bit tick.
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
            if sets < 8192 {
                // Wrap the 32-bit tick part-way through, so the stamps are
                // renumbered under live traffic.
                cache.tick = u32::MAX - 1_000;
            }
            let mut reference = Reference::new(config);
            // Twice the capacity, so sets fill, evict and refill.
            let span = 2 * config.capacity_blocks() as u64;
            for _ in 0..calls {
                let mut bfn = rng.gen_range(0..span);
                if rng.gen_bool(0.1) {
                    bfn |= rng.gen_range(1u64..1 << 16) << 40;
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
