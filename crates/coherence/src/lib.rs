//! Directory-based MESI coherence for the multi-socket system and the
//! CXL memory pool (§III-C of the paper).
//!
//! Directory information is distributed across the sockets and the pool,
//! aligned with the address-space distribution: the directory entry for a
//! block lives at the block's *home node* — the socket (or pool) whose
//! memory currently holds the containing page. Accesses that miss in their
//! originating socket's LLC are routed to the home node, which initiates all
//! subsequent coherence actions.
//!
//! Two socket-to-socket transfer patterns arise (Fig. 4):
//!
//! * home is a **socket** → classic 3-hop cache-to-cache transfer
//!   R→H→O→R (`BT_Socket`, 333 ns average unloaded network latency);
//! * home is the **pool** → 4-hop transfer via the pool R→H→O→H→R
//!   (`BT_Pool`, 200 ns: two CXL roundtrips) — counter-intuitively *faster*
//!   on average than 3-hop, because it avoids cross-chassis traversals.
//!
//! # Examples
//!
//! ```
//! use starnuma_coherence::{Directory, TransferKind};
//! use starnuma_types::{BlockAddr, Location, SocketId};
//!
//! let mut dir = Directory::new(16);
//! let b = BlockAddr::new(42);
//! let home = Location::Pool;
//! // Socket 0 writes the block: plain memory access, 0 becomes owner.
//! let w = dir.access(b, SocketId::new(0), true, home);
//! assert_eq!(w.transfer, TransferKind::FromMemory);
//! // Socket 1 reads it: dirty data is forwarded — a 4-hop pool transfer.
//! let r = dir.access(b, SocketId::new(1), false, home);
//! assert_eq!(r.transfer, TransferKind::CacheToCache { owner: SocketId::new(0) });
//! ```

use core::fmt;
use core::ops::Deref;

use starnuma_obs::{MetricsFrame, Observe};
use starnuma_types::{BlockAddr, Location, SocketId, BLOCK_SIZE, PAGE_SIZE};

/// How the requested data was supplied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferKind {
    /// Served from memory at the home node (clean, or requester already had
    /// the only copy).
    FromMemory,
    /// Forwarded from the owning socket's cache: a 3-hop (socket home) or
    /// 4-hop (pool home) block transfer.
    CacheToCache {
        /// The socket whose cache supplied the block.
        owner: SocketId,
    },
}

/// The directory's response to one LLC-missing access.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoherenceOutcome {
    /// How the data was supplied.
    pub transfer: TransferKind,
    /// Sockets whose cached copies must be invalidated (writes only), in
    /// socket order. Each entry generates an invalidation message on the
    /// interconnect and a back-invalidation into that socket's LLC.
    pub invalidations: SocketList,
}

/// The most sockets a [`Directory`] tracks: the width of its `u32` sharer
/// mask. The paper targets 8–32 sockets.
pub const MAX_SOCKETS: usize = 32;

/// An inline list of up to [`MAX_SOCKETS`] sockets, so any set of sharers
/// fits without a heap allocation. Derefs to `[SocketId]`.
#[derive(Clone, Copy)]
pub struct SocketList {
    len: u8,
    sockets: [SocketId; MAX_SOCKETS],
}

impl SocketList {
    /// The sockets whose bits are set in `mask`, in socket order.
    fn from_mask(mut mask: u32) -> Self {
        let mut list = SocketList {
            len: 0,
            sockets: [SocketId::new(0); MAX_SOCKETS],
        };
        while mask != 0 {
            list.sockets[usize::from(list.len)] = SocketId::new(mask.trailing_zeros() as u16);
            list.len += 1;
            mask &= mask - 1;
        }
        list
    }
}

impl Deref for SocketList {
    type Target = [SocketId];

    fn deref(&self) -> &[SocketId] {
        &self.sockets[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a SocketList {
    type Item = &'a SocketId;
    type IntoIter = core::slice::Iter<'a, SocketId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for SocketList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SocketList {}

impl fmt::Debug for SocketList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Coherence-protocol statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DirectoryStats {
    /// Total directory transactions (every LLC-missing access is one).
    pub transactions: u64,
    /// Transactions whose home was the memory pool — the CXL directory load
    /// discussed in §V-A ("a coherence transaction every 100 ns").
    pub pool_transactions: u64,
    /// Cache-to-cache transfers with a socket home (3-hop, `BT_Socket`).
    pub bt_socket: u64,
    /// Cache-to-cache transfers via the pool (4-hop, `BT_Pool`).
    pub bt_pool: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Dirty writebacks received.
    pub writebacks: u64,
}

impl Observe for DirectoryStats {
    fn observe(&self, prefix: &str, frame: &mut MetricsFrame) {
        frame.add_counter(&format!("{prefix}.transactions"), self.transactions);
        frame.add_counter(
            &format!("{prefix}.pool_transactions"),
            self.pool_transactions,
        );
        frame.add_counter(&format!("{prefix}.bt_socket"), self.bt_socket);
        frame.add_counter(&format!("{prefix}.bt_pool"), self.bt_pool);
        frame.add_counter(&format!("{prefix}.invalidations"), self.invalidations);
        frame.add_counter(&format!("{prefix}.writebacks"), self.writebacks);
    }
}

/// Blocks per page: the bits of one `modified` word.
const PAGE_BLOCKS: usize = PAGE_SIZE / BLOCK_SIZE;

const _: () = assert!(PAGE_BLOCKS == 64);

/// The distributed coherence directory.
///
/// One logical object models every home node's directory slice; per-home
/// statistics are kept so the pool directory's transaction rate can be
/// reported separately.
///
/// State is indexed by block frame number: `sharers[bfn]` is the bitmask
/// of sockets holding the block, and the block has directory state iff it
/// is non-zero. Bit `bfn % 64` of `modified[bfn / 64]`, one word per page,
/// is set when the block is Modified. Its owner is then the single socket
/// in its sharer mask, because a write leaves exactly the writer's bit set.
#[derive(Clone, Debug)]
pub struct Directory {
    num_sockets: usize,
    sharers: Vec<u32>,
    modified: Vec<u64>,
    tracked: usize,
    stats: DirectoryStats,
}

impl Directory {
    /// Creates an empty directory for an `num_sockets`-socket system.
    ///
    /// # Panics
    ///
    /// Panics if `num_sockets` is zero or exceeds [`MAX_SOCKETS`].
    pub fn new(num_sockets: usize) -> Self {
        assert!(
            (1..=MAX_SOCKETS).contains(&num_sockets),
            "socket count must be in 1..={MAX_SOCKETS}, got {num_sockets}"
        );
        Directory {
            num_sockets,
            sharers: Vec::new(),
            modified: Vec::new(),
            tracked: 0,
            stats: DirectoryStats::default(),
        }
    }

    /// Sizes the state arrays for pages `0..pages` at once, zeroed, so
    /// accesses to those pages never grow them. Does nothing if they
    /// already cover `pages`.
    pub fn reserve_pages(&mut self, pages: usize) {
        if pages > self.modified.len() {
            let mut sharers = vec![0; pages * PAGE_BLOCKS];
            // Copy only pages with state, so untouched ones stay unmapped.
            let old = self.sharers.chunks_exact(PAGE_BLOCKS);
            for (new, old) in sharers.chunks_exact_mut(PAGE_BLOCKS).zip(old) {
                if old.iter().any(|&m| m != 0) {
                    new.copy_from_slice(old);
                }
            }
            let mut modified = vec![0; pages];
            modified[..self.modified.len()].copy_from_slice(&self.modified);
            self.sharers = sharers;
            self.modified = modified;
        }
    }

    /// Returns protocol statistics.
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// Number of blocks with directory state.
    pub fn tracked_blocks(&self) -> usize {
        self.tracked
    }

    fn bit(s: SocketId) -> u32 {
        1u32 << s.index()
    }

    /// The block's sharer mask and whether it is Modified.
    fn state(&self, block: BlockAddr) -> (u32, bool) {
        let bfn = block.bfn() as usize;
        let modified = self.modified.get(bfn / PAGE_BLOCKS).copied().unwrap_or(0);
        (
            self.sharers.get(bfn).copied().unwrap_or(0),
            modified & (1 << (bfn % PAGE_BLOCKS)) != 0,
        )
    }

    /// Processes an LLC-missing access to `block` by `requester`, with the
    /// block's page homed at `home`. Returns how the data is supplied and
    /// which sockets must be invalidated.
    ///
    /// The state arrays grow past the largest page accessed, at 4 B per
    /// block plus 8 B per page, so callers bound the block addresses they
    /// pass; the simulator's come from pages its `PageMap` holds, and
    /// [`Directory::reserve_pages`] sizes the arrays for them up front.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is outside the configured socket count.
    pub fn access(
        &mut self,
        block: BlockAddr,
        requester: SocketId,
        is_write: bool,
        home: Location,
    ) -> CoherenceOutcome {
        assert!(
            (requester.index() as usize) < self.num_sockets,
            "requester {requester:?} out of range"
        );
        self.stats.transactions += 1;
        if home.is_pool() {
            self.stats.pool_transactions += 1;
        }
        let bfn = block.bfn() as usize;
        let pfn = bfn / PAGE_BLOCKS;
        if pfn >= self.modified.len() {
            self.reserve_pages((pfn + 1).max(2 * self.modified.len()));
        }
        let block_bit = 1u64 << (bfn % PAGE_BLOCKS);
        let mask = self.sharers[bfn];
        if mask == 0 {
            self.tracked += 1;
        }
        let req_bit = Self::bit(requester);
        let modified = &mut self.modified[pfn];

        // Determine data source: a Modified block owned by another socket
        // is forwarded from that socket's cache.
        let forwarded = *modified & block_bit != 0 && mask != req_bit;
        let transfer = if forwarded {
            if home.is_pool() {
                self.stats.bt_pool += 1;
            } else {
                self.stats.bt_socket += 1;
            }
            let owner = SocketId::new(mask.trailing_zeros() as u16);
            TransferKind::CacheToCache { owner }
        } else {
            TransferKind::FromMemory
        };

        // A write invalidates all other copies.
        let others = if is_write { mask & !req_bit } else { 0 };
        let invalidations = SocketList::from_mask(others);
        self.stats.invalidations += invalidations.len() as u64;
        if is_write {
            // The requester becomes owner.
            self.sharers[bfn] = req_bit;
            *modified |= block_bit;
        } else {
            // Read: previous owner (if different) downgrades to Shared.
            if forwarded {
                *modified &= !block_bit;
            }
            self.sharers[bfn] = mask | req_bit;
        }
        CoherenceOutcome {
            transfer,
            invalidations,
        }
    }

    /// Records that `socket` evicted `block` from its LLC; `dirty` evictions
    /// write data back to the home memory. Evicting a block with no
    /// directory state does nothing.
    pub fn evict(&mut self, block: BlockAddr, socket: SocketId, dirty: bool) {
        let bfn = block.bfn() as usize;
        let Some(mask) = self.sharers.get_mut(bfn).filter(|m| **m != 0) else {
            return;
        };
        *mask &= !Self::bit(socket);
        if *mask == 0 {
            // A Modified block's only sharer is its owner, so the owner
            // leaving empties the mask.
            self.modified[bfn / PAGE_BLOCKS] &= !(1u64 << (bfn % PAGE_BLOCKS));
            self.tracked -= 1;
        }
        if dirty {
            self.stats.writebacks += 1;
        }
    }

    /// Current sharers of `block` (for tests and diagnostics).
    pub fn sharers(&self, block: BlockAddr) -> Vec<SocketId> {
        let (mask, _) = self.state(block);
        (0..self.num_sockets as u16)
            .map(SocketId::new)
            .filter(|s| mask & Self::bit(*s) != 0)
            .collect()
    }

    /// Current Modified owner of `block`, if any.
    pub fn owner(&self, block: BlockAddr) -> Option<SocketId> {
        let (mask, modified) = self.state(block);
        modified.then(|| SocketId::new(mask.trailing_zeros() as u16))
    }

    /// Clears all directory state and statistics (between phases).
    pub fn reset(&mut self) {
        let pages = self.modified.len();
        *self = Directory::new(self.num_sockets);
        self.reserve_pages(pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME_SOCKET: Location = Location::Socket(SocketId::new(2));

    fn s(i: u16) -> SocketId {
        SocketId::new(i)
    }

    #[test]
    fn cold_read_comes_from_memory() {
        let mut d = Directory::new(16);
        let out = d.access(BlockAddr::new(1), s(0), false, HOME_SOCKET);
        assert_eq!(out.transfer, TransferKind::FromMemory);
        assert!(out.invalidations.is_empty());
        assert_eq!(d.sharers(BlockAddr::new(1)), vec![s(0)]);
    }

    #[test]
    fn read_of_dirty_block_is_cache_to_cache() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(1);
        d.access(b, s(0), true, HOME_SOCKET);
        let out = d.access(b, s(1), false, HOME_SOCKET);
        assert_eq!(out.transfer, TransferKind::CacheToCache { owner: s(0) });
        // Owner downgraded; both are sharers now.
        assert_eq!(d.owner(b), None);
        assert_eq!(d.sharers(b), vec![s(0), s(1)]);
        assert_eq!(d.stats().bt_socket, 1);
        assert_eq!(d.stats().bt_pool, 0);
    }

    #[test]
    fn pool_home_transfer_counts_as_bt_pool() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(1);
        d.access(b, s(0), true, Location::Pool);
        let out = d.access(b, s(1), false, Location::Pool);
        assert_eq!(out.transfer, TransferKind::CacheToCache { owner: s(0) });
        assert_eq!(d.stats().bt_pool, 1);
        assert_eq!(d.stats().pool_transactions, 2);
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(9);
        d.access(b, s(0), false, HOME_SOCKET);
        d.access(b, s(1), false, HOME_SOCKET);
        d.access(b, s(3), false, HOME_SOCKET);
        let out = d.access(b, s(5), true, HOME_SOCKET);
        assert_eq!(*out.invalidations, [s(0), s(1), s(3)]);
        assert_eq!(d.owner(b), Some(s(5)));
        assert_eq!(d.sharers(b), vec![s(5)]);
        assert_eq!(d.stats().invalidations, 3);
    }

    #[test]
    fn socket_list_holds_any_sharer_set() {
        let some = SocketList::from_mask(0b1010_0001);
        assert_eq!(*some, [s(0), s(5), s(7)]);
        assert_eq!((&some).into_iter().count(), 3);
        assert_eq!(format!("{some:?}"), format!("{:?}", [s(0), s(5), s(7)]));
        // A write in a full 32-socket system invalidates the other 31.
        let mut d = Directory::new(32);
        let b = BlockAddr::new(5);
        for i in 0..32 {
            d.access(b, s(i), false, HOME_SOCKET);
        }
        let out = d.access(b, s(0), true, HOME_SOCKET);
        assert!(out.invalidations.iter().map(|x| x.index()).eq(1..32));
        assert_eq!(d.stats().invalidations, 31);
    }

    #[test]
    fn write_by_owner_is_silent() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(2);
        d.access(b, s(4), true, HOME_SOCKET);
        let out = d.access(b, s(4), true, HOME_SOCKET);
        assert_eq!(out.transfer, TransferKind::FromMemory);
        assert!(out.invalidations.is_empty());
        assert_eq!(d.owner(b), Some(s(4)));
    }

    #[test]
    fn write_after_reads_then_new_owner_transfer() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(7);
        d.access(b, s(0), true, Location::Pool); // 0 owns
        let out = d.access(b, s(8), true, Location::Pool); // 8 takes ownership
        assert_eq!(out.transfer, TransferKind::CacheToCache { owner: s(0) });
        assert_eq!(*out.invalidations, [s(0)]);
        assert_eq!(d.owner(b), Some(s(8)));
    }

    #[test]
    fn eviction_removes_sharer_and_owner() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(3);
        d.access(b, s(0), true, HOME_SOCKET);
        d.evict(b, s(0), true);
        assert_eq!(d.owner(b), None);
        assert!(d.sharers(b).is_empty());
        assert_eq!(d.stats().writebacks, 1);
        assert_eq!(d.tracked_blocks(), 0, "empty entries are garbage-collected");
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(3);
        d.access(b, s(0), false, HOME_SOCKET);
        d.evict(b, s(0), false);
        assert_eq!(d.stats().writebacks, 0);
    }

    #[test]
    fn eviction_of_untracked_block_is_noop() {
        let mut d = Directory::new(16);
        d.evict(BlockAddr::new(99), s(0), true);
        assert_eq!(d.stats().writebacks, 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = Directory::new(16);
        d.access(BlockAddr::new(1), s(0), true, Location::Pool);
        d.reset();
        assert_eq!(d.tracked_blocks(), 0);
        assert_eq!(d.stats().transactions, 0);
    }

    #[test]
    #[should_panic(expected = "socket count must be in 1..=32")]
    fn rejects_oversized_system() {
        let _ = Directory::new(33);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_requester() {
        let mut d = Directory::new(4);
        d.access(BlockAddr::new(0), s(7), false, HOME_SOCKET);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use starnuma_types::SimRng;

    #[derive(Clone, Debug)]
    struct Op {
        block: u64,
        socket: u16,
        write: bool,
        evict: bool,
    }

    fn random_op(rng: &mut SimRng) -> Op {
        Op {
            block: rng.gen_range(0u64..8),
            socket: rng.gen_range(0u16..16),
            write: rng.gen_bool(0.5),
            evict: rng.gen_bool(0.2),
        }
    }

    /// Protocol invariant: whenever a block has a Modified owner, the
    /// owner is its only sharer (single-writer / multiple-reader).
    #[test]
    fn single_writer_invariant() {
        let mut rng = SimRng::seed_from_u64(0xc04e);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..300);
            let mut d = Directory::new(16);
            for _ in 0..len {
                let op = random_op(&mut rng);
                let b = BlockAddr::new(op.block);
                let sid = SocketId::new(op.socket);
                if op.evict {
                    d.evict(b, sid, op.write);
                } else {
                    d.access(b, sid, op.write, Location::Pool);
                }
                if let Some(owner) = d.owner(b) {
                    assert_eq!(d.sharers(b), vec![owner]);
                }
            }
        }
    }

    /// Invalidations never include the requester, and after a write the
    /// requester is the sole sharer.
    #[test]
    fn writes_leave_exactly_one_sharer() {
        let mut rng = SimRng::seed_from_u64(0xc04f);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..200);
            let mut d = Directory::new(16);
            for _ in 0..len {
                let op = random_op(&mut rng);
                let b = BlockAddr::new(op.block);
                let sid = SocketId::new(op.socket);
                if op.evict {
                    d.evict(b, sid, false);
                    continue;
                }
                let out = d.access(b, sid, op.write, Location::Socket(SocketId::new(0)));
                assert!(!out.invalidations.contains(&sid));
                if op.write {
                    assert_eq!(d.sharers(b), vec![sid]);
                }
            }
        }
    }

    /// A directory sized up front by `reserve_pages`, and grown again by
    /// it while holding state, answers every `access`/`evict` call like one
    /// that grows on demand, including calls past either reservation.
    #[test]
    fn reserved_directory_matches_one_grown_on_demand() {
        let mut rng = SimRng::seed_from_u64(0xd1_5e55);
        let mut transfers = 0;
        for _case in 0..64 {
            let pages = rng.gen_range(1usize..1 << 12);
            let span = (pages * PAGE_BLOCKS) as u64;
            let blocks: Vec<u64> = (0..32).map(|_| rng.gen_range(0..span)).collect();
            let mut grown = Directory::new(16);
            let mut reserved = Directory::new(16);
            reserved.reserve_pages(rng.gen_range(1..pages + 1));
            let calls = rng.gen_range(1usize..600);
            let regrow_at = rng.gen_range(0..calls);
            for call in 0..calls {
                if call == regrow_at {
                    reserved.reserve_pages(rng.gen_range(1..2 * pages));
                }
                let block = BlockAddr::new(if rng.gen_bool(0.9) {
                    blocks[rng.gen_range(0..blocks.len())]
                } else {
                    rng.gen_range(0..span)
                });
                let socket = SocketId::new(rng.gen_range(0u16..16));
                let write = rng.gen_bool(0.4);
                if rng.gen_bool(0.3) {
                    grown.evict(block, socket, write);
                    reserved.evict(block, socket, write);
                } else {
                    let home = if rng.gen_bool(0.5) {
                        Location::Pool
                    } else {
                        Location::Socket(SocketId::new(rng.gen_range(0u16..16)))
                    };
                    assert_eq!(
                        grown.access(block, socket, write, home),
                        reserved.access(block, socket, write, home)
                    );
                }
                assert_eq!(grown.stats(), reserved.stats());
                assert_eq!(grown.tracked_blocks(), reserved.tracked_blocks());
                assert_eq!(grown.sharers(block), reserved.sharers(block));
                assert_eq!(grown.owner(block), reserved.owner(block));
            }
            transfers += grown.stats().bt_socket + grown.stats().bt_pool;
        }
        assert!(transfers > 0, "cache-to-cache transfers exercised");
    }
}

/// The directory as an ordered map of per-block entries: the plain model
/// the dense per-page directory must match call for call.
#[cfg(test)]
mod reference {
    use super::*;
    use starnuma_types::SimRng;
    use std::collections::BTreeMap;

    #[derive(Clone, Copy, Debug, Default)]
    struct Entry {
        /// Bitmask of sockets holding the block (Shared), or exactly the
        /// owner's bit when `owner` is set (Modified/Exclusive).
        sharers: u32,
        /// Modified owner, if any.
        owner: Option<SocketId>,
    }

    struct RefDirectory {
        num_sockets: usize,
        entries: BTreeMap<BlockAddr, Entry>,
        stats: DirectoryStats,
    }

    impl RefDirectory {
        fn new(num_sockets: usize) -> Self {
            RefDirectory {
                num_sockets,
                entries: BTreeMap::new(),
                stats: DirectoryStats::default(),
            }
        }

        fn access(
            &mut self,
            block: BlockAddr,
            requester: SocketId,
            is_write: bool,
            home: Location,
        ) -> CoherenceOutcome {
            self.stats.transactions += 1;
            if home.is_pool() {
                self.stats.pool_transactions += 1;
            }
            let entry = self.entries.entry(block).or_default();
            let req_bit = Directory::bit(requester);
            let transfer = match entry.owner {
                Some(owner) if owner != requester => {
                    if home.is_pool() {
                        self.stats.bt_pool += 1;
                    } else {
                        self.stats.bt_socket += 1;
                    }
                    TransferKind::CacheToCache { owner }
                }
                _ => TransferKind::FromMemory,
            };
            let others = if is_write {
                entry.sharers & !req_bit
            } else {
                0
            };
            let invalidations = SocketList::from_mask(others);
            self.stats.invalidations += invalidations.len() as u64;
            if is_write {
                entry.sharers = req_bit;
                entry.owner = Some(requester);
            } else {
                if let Some(owner) = entry.owner {
                    if owner != requester {
                        entry.owner = None;
                    }
                }
                entry.sharers |= req_bit;
            }
            CoherenceOutcome {
                transfer,
                invalidations,
            }
        }

        fn evict(&mut self, block: BlockAddr, socket: SocketId, dirty: bool) {
            if let Some(entry) = self.entries.get_mut(&block) {
                entry.sharers &= !Directory::bit(socket);
                if entry.owner == Some(socket) {
                    entry.owner = None;
                }
                if dirty {
                    self.stats.writebacks += 1;
                }
                if entry.sharers == 0 && entry.owner.is_none() {
                    self.entries.remove(&block);
                }
            }
        }

        fn sharers(&self, block: BlockAddr) -> Vec<SocketId> {
            match self.entries.get(&block) {
                None => Vec::new(),
                Some(e) => (0..self.num_sockets as u16)
                    .map(SocketId::new)
                    .filter(|s| e.sharers & Directory::bit(*s) != 0)
                    .collect(),
            }
        }

        fn owner(&self, block: BlockAddr) -> Option<SocketId> {
            self.entries.get(&block).and_then(|e| e.owner)
        }

        fn reset(&mut self) {
            self.entries.clear();
            self.stats = DirectoryStats::default();
        }
    }

    /// A working set of blocks: some in a few dense pages, some in sparse
    /// pages up to 2^20.
    fn working_set(rng: &mut SimRng) -> Vec<BlockAddr> {
        let page_blocks = PAGE_BLOCKS as u64;
        (0..rng.gen_range(4usize..40))
            .map(|_| {
                let pfn = if rng.gen_bool(0.6) {
                    rng.gen_range(0u64..4)
                } else {
                    (1u64 << 20) - rng.gen_range(0u64..1 << 20)
                };
                BlockAddr::new(pfn * page_blocks + rng.gen_range(0..page_blocks))
            })
            .collect()
    }

    fn assert_same(dir: &Directory, model: &RefDirectory, block: BlockAddr) {
        assert_eq!(dir.stats(), model.stats);
        assert_eq!(dir.sharers(block), model.sharers(block), "{block:?}");
        assert_eq!(dir.owner(block), model.owner(block), "{block:?}");
        assert_eq!(dir.tracked_blocks(), model.entries.len());
    }

    /// Seeded `access`/`evict` streams on 1-, 16- and 32-socket systems
    /// leave the dense directory observably identical to the `BTreeMap`
    /// model after every call, and `reset` empties both.
    #[test]
    fn dense_directory_matches_btreemap_reference() {
        let mut rng = SimRng::seed_from_u64(0xd1_5ec7);
        for &num_sockets in &[1usize, 16, 32] {
            for _case in 0..48 {
                let mut dir = Directory::new(num_sockets);
                let mut model = RefDirectory::new(num_sockets);
                let blocks = working_set(&mut rng);
                let mut touched = Vec::new();
                for _ in 0..rng.gen_range(1usize..400) {
                    let block = if rng.gen_bool(0.05) {
                        // Most likely a block with no state.
                        BlockAddr::new(rng.gen_range(0u64..(1 << 26)))
                    } else {
                        blocks[rng.gen_range(0..blocks.len())]
                    };
                    let socket = SocketId::new(rng.gen_range(0..num_sockets as u16));
                    let write = rng.gen_bool(0.4);
                    if rng.gen_bool(0.3) {
                        dir.evict(block, socket, write);
                        model.evict(block, socket, write);
                    } else {
                        let home = if rng.gen_bool(0.5) {
                            Location::Pool
                        } else {
                            Location::Socket(SocketId::new(rng.gen_range(0..num_sockets as u16)))
                        };
                        assert_eq!(
                            dir.access(block, socket, write, home),
                            model.access(block, socket, write, home)
                        );
                        touched.push(block);
                    }
                    assert_same(&dir, &model, block);
                }
                dir.reset();
                model.reset();
                assert_eq!(dir.tracked_blocks(), 0);
                for &block in &touched {
                    assert_same(&dir, &model, block);
                }
            }
        }
    }
}
