//! Deterministic hot-path indexes: [`DetMap`], an open-addressing hash map
//! with a **fixed, in-repo seed**.
//!
//! PR 1 replaced every `std::collections::HashMap` on the simulator's
//! per-access paths with `BTreeMap` to make iteration order (and therefore
//! every `RunResult`) reproducible. That bought determinism at O(log n) per
//! lookup with pointer-chasing node traversals — the dominant cost of the
//! TLB-annex, coherence-directory, and in-flight-timing lookups. (The
//! directory now indexes dense per-page chunks by page frame number
//! instead; see `starnuma-coherence`.) `DetMap` buys the speed back
//! without reopening the determinism hole:
//!
//! * **Fixed seed, in-repo hash.** The hash is a SplitMix64-style finalizer
//!   (the same mixer that seeds the workspace's xoshiro256** [`SimRng`])
//!   over `key ^ HASH_SEED`, where [`HASH_SEED`] is itself the first output
//!   of the frozen xoshiro stream. No `RandomState`, no per-process
//!   randomness: the table layout for a given insert sequence is identical
//!   on every run and platform.
//! * **Insertion-order iteration.** Entries live in a dense vector in
//!   arrival order (indexmap-style); the probe table stores indices into
//!   it. Iteration never depends on hash values, so even *if* a future
//!   change iterates a hot map, the order is a pure function of the
//!   simulated events.
//! * **[`DetMap::sorted_drain`]** for phase barriers: merges that must be
//!   order-canonical (not arrival-ordered) drain through a key-sorted
//!   `Vec`, mirroring what the BTreeMap-era code got for free.
//!
//! Keys implement [`DetKey`] — a total injection into `u64` — which every
//! workspace identifier newtype provides.
//!
//! # Examples
//!
//! ```
//! use starnuma_types::{DetMap, PageId};
//!
//! let mut m: DetMap<PageId, u32> = DetMap::new();
//! m.insert(PageId::new(7), 1);
//! m.insert(PageId::new(3), 2);
//! assert_eq!(m.get(&PageId::new(7)), Some(&1));
//! // Iteration is insertion-ordered, independent of hash layout.
//! let keys: Vec<_> = m.iter().map(|(k, _)| *k).collect();
//! assert_eq!(keys, vec![PageId::new(7), PageId::new(3)]);
//! // Phase-barrier merges drain key-sorted.
//! assert_eq!(m.sorted_drain()[0].0, PageId::new(3));
//! ```

use crate::ids::{BlockAddr, ChassisId, CoreId, PageId, PhysAddr, RegionId, SocketId};

/// Fixed hash seed: the first `next_u64()` of the workspace xoshiro256**
/// stream for seed `0x5744_524e` (`"WDRN"`, verified against [`SimRng`] by
/// a unit test). Frozen here so table layouts never vary across runs,
/// builds, or platforms.
///
/// [`SimRng`]: crate::SimRng
const HASH_SEED: u64 = 0x2341_eb2b_6958_564c;

/// Probe-table marker: slot never used.
const EMPTY: u32 = u32::MAX;
/// Probe-table marker: slot's entry was removed (probing continues past it).
const TOMB: u32 = u32::MAX - 1;

/// SplitMix64 finalizer over the seeded key: the avalanche stage of the
/// mixer that seeds [`crate::SimRng`], reused as a fixed hash function.
#[inline]
fn mix(key: u64) -> u64 {
    let mut z = key ^ HASH_SEED;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A key usable in a [`DetMap`]: totally ordered (for
/// [`DetMap::sorted_drain`]) and injectively convertible to `u64` (for
/// hashing). Distinct keys **must** produce distinct `u64`s; every
/// workspace identifier is a thin integer newtype, so the conversion is
/// the identity on its payload.
pub trait DetKey: Copy + Eq + Ord {
    /// This key's unique 64-bit representation.
    fn det_key(&self) -> u64;
}

impl DetKey for u64 {
    fn det_key(&self) -> u64 {
        *self
    }
}

impl DetKey for u32 {
    fn det_key(&self) -> u64 {
        u64::from(*self)
    }
}

impl DetKey for u16 {
    fn det_key(&self) -> u64 {
        u64::from(*self)
    }
}

impl DetKey for usize {
    fn det_key(&self) -> u64 {
        *self as u64
    }
}

impl DetKey for PageId {
    fn det_key(&self) -> u64 {
        self.pfn()
    }
}

impl DetKey for BlockAddr {
    fn det_key(&self) -> u64 {
        self.bfn()
    }
}

impl DetKey for RegionId {
    fn det_key(&self) -> u64 {
        self.index()
    }
}

impl DetKey for PhysAddr {
    fn det_key(&self) -> u64 {
        self.raw()
    }
}

impl DetKey for SocketId {
    fn det_key(&self) -> u64 {
        u64::from(self.index())
    }
}

impl DetKey for CoreId {
    fn det_key(&self) -> u64 {
        u64::from(self.index())
    }
}

impl DetKey for ChassisId {
    fn det_key(&self) -> u64 {
        u64::from(self.index())
    }
}

/// A deterministic open-addressing hash map with insertion-order iteration.
///
/// See the [module docs](self) for the design contract. Not a drop-in
/// `HashMap` replacement: the API is the subset the simulator's hot paths
/// use, and keys must implement [`DetKey`].
#[derive(Clone, Debug)]
pub struct DetMap<K, V> {
    /// Entries in insertion order; `None` marks a removed entry awaiting
    /// compaction. Probe-table slots index into this vector.
    dense: Vec<Option<(K, V)>>,
    /// Power-of-two linear-probe table of dense indices ([`EMPTY`]/[`TOMB`]
    /// markers in the high values).
    table: Vec<u32>,
    /// Live entries.
    live: usize,
    /// Tombstoned dense entries (compacted when they outnumber the living).
    dead: usize,
    /// Tombstoned probe slots (cleared on rebuild).
    table_tombs: usize,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> DetMap<K, V> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        DetMap {
            dense: Vec::new(),
            table: Vec::new(),
            live: 0,
            dead: 0,
            table_tombs: 0,
        }
    }
}

impl<K: DetKey, V> DetMap<K, V> {
    /// Creates an empty map pre-sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut m = Self::new();
        if capacity > 0 {
            m.dense.reserve(capacity);
            m.rebuild(Self::table_len_for(capacity));
        }
        m
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Smallest power-of-two table length keeping load factor ≤ 3/4 for
    /// `entries` live entries (minimum 8).
    fn table_len_for(entries: usize) -> usize {
        let needed = entries.saturating_mul(4) / 3 + 1;
        needed.next_power_of_two().max(8)
    }

    /// Finds `key`'s `(probe slot, dense index)` if present.
    #[inline]
    fn find(&self, key: &K) -> Option<(usize, usize)> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = (mix(key.det_key()) as usize) & mask;
        loop {
            match self.table[i] {
                x if x == EMPTY => return None,
                x if x == TOMB => {}
                x => {
                    let d = x as usize;
                    if let Some((k, _)) = &self.dense[d] {
                        if k == key {
                            return Some((i, d));
                        }
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Grows/rebuilds ahead of an insert so the table never exceeds a 3/4
    /// load factor (live entries plus probe tombstones).
    fn reserve_one(&mut self) {
        if (self.live + self.table_tombs + 1) * 4 > self.table.len() * 3 {
            self.rebuild(Self::table_len_for((self.live + 1) * 2));
        }
    }

    /// Compacts the dense vector (dropping tombstones, preserving insertion
    /// order) and re-probes every live entry into a fresh table of
    /// `table_len` slots.
    fn rebuild(&mut self, table_len: usize) {
        if self.dead > 0 {
            self.dense.retain(Option::is_some);
            self.dead = 0;
        }
        self.table.clear();
        self.table.resize(table_len, EMPTY);
        self.table_tombs = 0;
        let mask = table_len - 1;
        for (d, e) in self.dense.iter().enumerate() {
            let Some((k, _)) = e else { continue };
            let mut i = (mix(k.det_key()) as usize) & mask;
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = d as u32; // audit:allow(SN009) dense index, far below 2^32 entries.
        }
    }

    /// Returns a reference to the value stored for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let (_, d) = self.find(key)?;
        match &self.dense[d] {
            Some((_, v)) => Some(v),
            None => None,
        }
    }

    /// Returns a mutable reference to the value stored for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (_, d) = self.find(key)?;
        match &mut self.dense[d] {
            Some((_, v)) => Some(v),
            None => None,
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// already present.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some((_, d)) = self.find(&key) {
            if let Some((_, v)) = &mut self.dense[d] {
                return Some(core::mem::replace(v, value));
            }
        }
        self.insert_fresh(key, value);
        None
    }

    /// Inserts a key known to be absent: probes to the first free slot
    /// (reusing a tombstone if one is hit first — safe because the key is
    /// not anywhere in the chain) and appends to the dense vector.
    fn insert_fresh(&mut self, key: K, value: V) {
        self.reserve_one();
        let mask = self.table.len() - 1;
        let mut i = (mix(key.det_key()) as usize) & mask;
        loop {
            match self.table[i] {
                x if x == EMPTY => {
                    // audit:allow(SN009) dense index, far below 2^32 entries.
                    self.table[i] = self.dense.len() as u32;
                    self.dense.push(Some((key, value)));
                    self.live += 1;
                    return;
                }
                x if x == TOMB => {
                    // audit:allow(SN009) dense index, far below 2^32 entries.
                    self.table[i] = self.dense.len() as u32;
                    self.dense.push(Some((key, value)));
                    self.table_tombs -= 1;
                    self.live += 1;
                    return;
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// Entry-or-default: the value for `key`, inserting `default()` first
    /// when absent (the `BTreeMap::entry(k).or_insert_with(f)` shape the
    /// hot paths use).
    #[inline]
    pub fn entry_or_insert_with<F: FnOnce() -> V>(&mut self, key: K, default: F) -> &mut V {
        let d = match self.find(&key) {
            Some((_, d)) => d,
            None => {
                self.insert_fresh(key, default());
                self.dense.len() - 1
            }
        };
        // A found/just-pushed dense slot is always live; the else arm is
        // unreachable but spelled out so library code stays panic-free.
        match &mut self.dense[d] {
            Some((_, v)) => v,
            None => unreachable!("DetMap probe resolved to a tombstone"),
        }
    }

    /// Removes `key`, returning its value if it was present. Removal never
    /// perturbs the insertion order of surviving entries.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (slot, d) = self.find(key)?;
        self.table[slot] = TOMB;
        self.table_tombs += 1;
        let (_, v) = self.dense[d].take()?;
        self.live -= 1;
        self.dead += 1;
        // Amortized compaction: dense tombstones never outnumber the
        // living by more than a small constant floor.
        if self.dead > self.live.max(8) {
            self.rebuild(self.table.len());
        }
        Some(v)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.dense
            .iter()
            .filter_map(|e| e.as_ref().map(|(k, v)| (k, v)))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Drains every entry, returned **sorted by key** — the canonical order
    /// for phase-barrier merges, independent of both hash layout and
    /// arrival order. The map is left empty but keeps its allocations.
    pub fn sorted_drain(&mut self) -> Vec<(K, V)> {
        let mut out: Vec<(K, V)> = self.dense.drain(..).flatten().collect();
        out.sort_by_key(|(k, _)| *k);
        self.table.fill(EMPTY);
        self.live = 0;
        self.dead = 0;
        self.table_tombs = 0;
        out
    }

    /// Removes every entry, keeping allocations.
    pub fn clear(&mut self) {
        self.dense.clear();
        self.table.fill(EMPTY);
        self.live = 0;
        self.dead = 0;
        self.table_tombs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn hash_seed_is_the_frozen_xoshiro_output() {
        assert_eq!(
            HASH_SEED,
            SimRng::seed_from_u64(0x5744_524e).next_u64(),
            "HASH_SEED must stay pinned to the frozen SimRng stream"
        );
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: DetMap<u64, String> = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five".into()), None);
        assert_eq!(m.insert(5, "FIVE".into()), Some("five".into()));
        assert_eq!(m.get(&5).map(String::as_str), Some("FIVE"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&5), Some("FIVE".into()));
        assert_eq!(m.remove(&5), None);
        assert!(m.is_empty());
    }

    #[test]
    fn entry_or_insert_with_matches_btree_entry_semantics() {
        let mut m: DetMap<u64, u32> = DetMap::new();
        *m.entry_or_insert_with(9, || 0) += 1;
        *m.entry_or_insert_with(9, || 0) += 1;
        assert_eq!(m.get(&9), Some(&2));
    }

    #[test]
    fn iteration_is_insertion_ordered_across_growth_and_removal() {
        let mut m: DetMap<u64, u64> = DetMap::new();
        for k in 0..100 {
            m.insert(k * 7919 % 1000, k);
        }
        m.remove(&(7919 % 1000));
        m.remove(&(50 * 7919 % 1000));
        let keys: Vec<u64> = m.keys().copied().collect();
        let expected: Vec<u64> = (0..100)
            .map(|k| k * 7919 % 1000)
            .filter(|k| *k != 7919 % 1000 && *k != 50 * 7919 % 1000)
            .collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn sorted_drain_is_key_ordered_and_empties() {
        let mut m: DetMap<u64, u64> = DetMap::new();
        for k in [9, 2, 7, 4, 0] {
            m.insert(k, k * 10);
        }
        let drained = m.sorted_drain();
        assert_eq!(drained, vec![(0, 0), (2, 20), (4, 40), (7, 70), (9, 90)]);
        assert!(m.is_empty());
        m.insert(1, 1);
        assert_eq!(m.get(&1), Some(&1));
    }

    #[test]
    fn clear_resets_but_map_stays_usable() {
        let mut m: DetMap<u64, u64> = DetMap::with_capacity(32);
        for k in 0..32 {
            m.insert(k, k);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&3), None);
        m.insert(3, 33);
        assert_eq!(m.get(&3), Some(&33));
    }

    #[test]
    fn heavy_churn_compacts_without_losing_entries() {
        let mut m: DetMap<u64, u64> = DetMap::new();
        for round in 0..50u64 {
            for k in 0..64 {
                m.insert(round * 64 + k, k);
            }
            for k in 0..63 {
                assert_eq!(m.remove(&(round * 64 + k)), Some(k));
            }
        }
        // One survivor per round, in insertion order.
        assert_eq!(m.len(), 50);
        let keys: Vec<u64> = m.keys().copied().collect();
        let expected: Vec<u64> = (0..50).map(|r| r * 64 + 63).collect();
        assert_eq!(keys, expected);
        // Dense storage was compacted: tombstones are bounded.
        assert!(m.dense.len() <= m.live * 2 + 16, "dense {}", m.dense.len());
    }

    #[test]
    fn id_newtypes_hash_injectively() {
        let mut m: DetMap<PageId, u8> = DetMap::new();
        m.insert(PageId::new(0), 0);
        m.insert(PageId::new(u64::MAX), 1);
        assert_eq!(m.get(&PageId::new(0)), Some(&0));
        assert_eq!(m.get(&PageId::new(u64::MAX)), Some(&1));
        assert_eq!(BlockAddr::new(42).det_key(), 42);
        assert_eq!(RegionId::new(9).det_key(), 9);
        assert_eq!(SocketId::new(3).det_key(), 3);
        assert_eq!(CoreId::new(5).det_key(), 5);
        assert_eq!(ChassisId::new(1).det_key(), 1);
        assert_eq!(PhysAddr::new(77).det_key(), 77);
        assert_eq!(7u16.det_key(), 7);
        assert_eq!(7u32.det_key(), 7);
        assert_eq!(7usize.det_key(), 7);
    }

    /// The PR-5 gate property: under an arbitrary SimRng-driven op
    /// sequence, `DetMap` is observationally equal to `BTreeMap` —
    /// insert/get/remove return values, length, membership, and the
    /// key-sorted drain all match.
    #[test]
    fn matches_btreemap_semantics_under_random_ops() {
        use std::collections::BTreeMap;
        let mut rng = SimRng::seed_from_u64(0xde7_3a9);
        for _case in 0..48 {
            let len = rng.gen_range(1usize..400);
            let mut det: DetMap<u64, u64> = DetMap::new();
            let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
            for step in 0..len {
                let key = rng.gen_range(0u64..64);
                match rng.gen_range(0u16..10) {
                    0..=4 => {
                        let v = step as u64;
                        assert_eq!(det.insert(key, v), reference.insert(key, v));
                    }
                    5..=6 => {
                        assert_eq!(det.remove(&key), reference.remove(&key));
                    }
                    7 => {
                        let v = *det.entry_or_insert_with(key, || 999);
                        assert_eq!(v, *reference.entry(key).or_insert(999));
                    }
                    8 => {
                        assert_eq!(det.get(&key), reference.get(&key));
                        assert_eq!(det.get_mut(&key), reference.get_mut(&key));
                    }
                    _ => {
                        assert_eq!(det.contains_key(&key), reference.contains_key(&key));
                    }
                }
                assert_eq!(det.len(), reference.len());
            }
            // Insertion-order iteration visits exactly the reference's
            // entries (order checked separately; membership here).
            assert_eq!(
                det.iter()
                    .map(|(k, v)| (*k, *v))
                    .collect::<BTreeMap<_, _>>(),
                reference
            );
            // sorted_drain equals the BTreeMap's natural order.
            let drained = det.sorted_drain();
            let expected: Vec<(u64, u64)> = reference.into_iter().collect();
            assert_eq!(drained, expected);
            assert!(det.is_empty());
        }
    }

    /// Layout determinism: two maps fed the same sequence are identical in
    /// iteration order regardless of spare capacity, and the same sequence
    /// hashed twice yields the same internal table.
    #[test]
    fn layout_is_a_pure_function_of_the_insert_sequence() {
        let build = |cap: usize| {
            let mut m: DetMap<u64, u64> = DetMap::with_capacity(cap);
            let mut rng = SimRng::seed_from_u64(0x1abe1);
            for _ in 0..300 {
                let k = rng.gen_range(0u64..120);
                if rng.gen_bool(0.3) {
                    m.remove(&k);
                } else {
                    m.insert(k, k);
                }
            }
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(0), build(0));
        assert_eq!(build(0), build(1024), "spare capacity must not reorder");
    }
}
