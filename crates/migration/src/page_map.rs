//! The page→location map with first-touch initialization and pool-capacity
//! accounting.

use starnuma_trace::PhaseTrace;
use starnuma_types::{CoreId, Location, PageId, RegionId, SocketId, REGION_PAGES};

/// Maps every page of the footprint to the memory that currently holds it.
///
/// Initial placement follows the paper's first-touch policy (§IV-C); the
/// migration machinery then moves pages between sockets and (in StarNUMA)
/// the pool. The map enforces the pool-capacity limit of §IV-D: the amount
/// of data allowed in the pool is a fraction of the workload footprint
/// (20 % by default, 1/17 in the §V-E study).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PageMap {
    locations: Vec<Location>,
    pool_pages: u64,
    pool_capacity_pages: u64,
}

impl PageMap {
    /// Creates a map with every page placed by `placer`.
    ///
    /// # Panics
    ///
    /// Panics if `placer` puts more pages in the pool than it holds, the
    /// same limit [`move_page`](Self::move_page) enforces.
    pub fn from_fn(
        footprint_pages: u64,
        pool_capacity_pages: u64,
        mut placer: impl FnMut(PageId) -> Location,
    ) -> Self {
        let locations: Vec<Location> = (0..footprint_pages)
            .map(|p| placer(PageId::new(p)))
            .collect();
        let pool_pages = locations.iter().filter(|l| l.is_pool()).count() as u64;
        assert!(
            pool_pages <= pool_capacity_pages,
            "pool capacity exceeded: {pool_pages} pages placed in a {pool_capacity_pages}-page pool"
        );
        PageMap {
            locations,
            pool_pages,
            pool_capacity_pages,
        }
    }

    /// First-touch placement over one trace: each page lives on the socket
    /// whose core first accessed it (ties broken by lowest icount, then
    /// lowest core id). Untouched pages are distributed round-robin. A
    /// whole run is folded phase by phase with [`FirstTouch`].
    pub fn first_touch(
        footprint_pages: u64,
        pool_capacity_pages: u64,
        trace: &PhaseTrace,
        cores_per_socket: usize,
        num_sockets: usize,
    ) -> Self {
        let mut first = FirstTouch::new(footprint_pages);
        first.add(trace);
        first.finish(pool_capacity_pages, cores_per_socket, num_sockets)
    }

    /// Number of pages in the footprint.
    pub fn len(&self) -> u64 {
        self.locations.len() as u64
    }

    /// Returns `true` if the footprint is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Current location of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the footprint.
    pub fn location(&self, page: PageId) -> Location {
        self.locations[page.pfn() as usize]
    }

    /// Location of a region (its first page; regions move as a unit under
    /// the region policy, but the oracle baseline moves individual pages).
    pub fn region_location(&self, region: RegionId) -> Location {
        self.location(region.first_page())
    }

    /// Pages currently resident in the pool.
    pub fn pool_pages(&self) -> u64 {
        self.pool_pages
    }

    /// The pool capacity in pages.
    pub fn pool_capacity_pages(&self) -> u64 {
        self.pool_capacity_pages
    }

    /// Free pool capacity in pages.
    pub fn pool_free_pages(&self) -> u64 {
        self.pool_capacity_pages.saturating_sub(self.pool_pages)
    }

    /// Moves `page` to `to`, maintaining pool occupancy.
    ///
    /// # Panics
    ///
    /// Panics if the move would exceed the pool capacity (callers must make
    /// space first, as Algorithm 1 does via victim eviction).
    pub fn move_page(&mut self, page: PageId, to: Location) {
        let from = self.location(page);
        if from == to {
            return;
        }
        if from.is_pool() {
            self.pool_pages -= 1;
        }
        if to.is_pool() {
            assert!(
                self.pool_pages < self.pool_capacity_pages,
                "pool capacity exceeded moving {page:?}"
            );
            self.pool_pages += 1;
        }
        self.locations[page.pfn() as usize] = to;
    }

    /// Number of regions covering the footprint.
    pub fn num_regions(&self) -> usize {
        (self.len() as usize).div_ceil(REGION_PAGES)
    }
}

/// First-touch placement over a whole run, folded one phase trace at a
/// time so the run never has to be held in memory at once.
///
/// Each access is keyed `(icount + base[core], core)`, and a page goes to
/// the socket of its smallest key. `base[core]` starts at 0; after each
/// phase it becomes one past that core's last keyed icount, and a core
/// with no accesses in the phase keeps its base. Every core thus runs its
/// own clock: a core that stopped touching memory early in a phase starts
/// the next phase with a small base, so one of its later-phase accesses
/// can take a page ahead of another core's late access in an earlier
/// phase. Folding `add` over the phases is exactly
/// [`PageMap::first_touch`] over the traces concatenated per core with
/// those offsets.
#[derive(Debug)]
pub struct FirstTouch {
    /// Per page, the smallest `(run icount, core)` key seen so far.
    first: Vec<Option<(u64, u32)>>,
    /// Per core, the offset added to the next phase's icounts.
    base: Vec<u64>,
}

impl FirstTouch {
    /// An empty fold over a footprint of `footprint_pages` pages.
    pub fn new(footprint_pages: u64) -> Self {
        FirstTouch {
            first: vec![None; footprint_pages as usize],
            base: Vec::new(),
        }
    }

    /// Folds in the next phase's trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace touches a page outside the footprint.
    pub fn add(&mut self, trace: &PhaseTrace) {
        if self.base.len() < trace.per_core.len() {
            self.base.resize(trace.per_core.len(), 0);
        }
        for (stream, base) in trace.per_core.iter().zip(&mut self.base) {
            for a in stream {
                let key = (a.icount + *base, a.core.index());
                let slot = &mut self.first[a.addr.page().pfn() as usize];
                match slot {
                    Some(existing) if *existing <= key => {}
                    _ => *slot = Some(key),
                }
            }
            if let Some(last) = stream.last() {
                *base += last.icount + 1;
            }
        }
    }

    /// Folds in up to `phases` more phase traces drawn from `next`, and
    /// stops drawing once the placement is [`settled`](Self::settled): the
    /// traces it skips could not move a page, so the result equals the
    /// full fold's.
    pub fn add_phases(&mut self, phases: usize, mut next: impl FnMut() -> PhaseTrace) {
        for _ in 0..phases {
            if self.settled() {
                return;
            }
            self.add(&next());
        }
    }

    /// Whether no later access can change the placement: every page holds
    /// a key, and every key's run icount is below the smallest per-core
    /// `base`, which bounds every later access's key from below. A core
    /// with no accesses yet has base 0, so the fold stays unsettled until
    /// every core it has seen has touched memory. Later phases are assumed
    /// to have no more cores than the phases folded so far.
    pub fn settled(&self) -> bool {
        let Some(&floor) = self.base.iter().min() else {
            return false;
        };
        self.first
            .iter()
            .all(|key| key.is_some_and(|(icount, _)| icount < floor))
    }

    /// Lays out the footprint: each touched page on its first toucher's
    /// socket, untouched pages round-robin over the sockets.
    pub fn finish(
        self,
        pool_capacity_pages: u64,
        cores_per_socket: usize,
        num_sockets: usize,
    ) -> PageMap {
        let mut rr = 0u16;
        PageMap::from_fn(
            self.first.len() as u64,
            pool_capacity_pages,
            |page| match self.first[page.pfn() as usize] {
                Some((_, core)) => Location::Socket(CoreId::new(core).socket(cores_per_socket)),
                None => {
                    let s = SocketId::new(rr % num_sockets as u16);
                    rr += 1;
                    Location::Socket(s)
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_trace::{TraceGenerator, Workload};
    use starnuma_types::{AccessType, MemAccess};

    fn socket(i: u16) -> Location {
        Location::Socket(SocketId::new(i))
    }

    #[test]
    fn from_fn_places_pages() {
        let m = PageMap::from_fn(10, 5, |p| {
            if p.pfn() < 3 {
                Location::Pool
            } else {
                socket(0)
            }
        });
        assert_eq!(m.len(), 10);
        assert_eq!(m.pool_pages(), 3);
        assert_eq!(m.pool_free_pages(), 2);
        assert_eq!(m.location(PageId::new(0)), Location::Pool);
        assert_eq!(m.location(PageId::new(5)), socket(0));
    }

    #[test]
    fn move_page_tracks_pool_occupancy() {
        let mut m = PageMap::from_fn(4, 2, |_| socket(1));
        m.move_page(PageId::new(0), Location::Pool);
        assert_eq!(m.pool_pages(), 1);
        m.move_page(PageId::new(0), socket(2));
        assert_eq!(m.pool_pages(), 0);
        // Self-move is a no-op.
        m.move_page(PageId::new(0), socket(2));
        assert_eq!(m.location(PageId::new(0)), socket(2));
    }

    #[test]
    #[should_panic(expected = "pool capacity exceeded")]
    fn pool_capacity_enforced() {
        let mut m = PageMap::from_fn(4, 1, |_| socket(0));
        m.move_page(PageId::new(0), Location::Pool);
        m.move_page(PageId::new(1), Location::Pool);
    }

    #[test]
    #[should_panic(expected = "pool capacity exceeded")]
    fn initial_placement_cannot_overfill_the_pool() {
        let _ = PageMap::from_fn(4, 2, |_| Location::Pool);
    }

    #[test]
    fn first_touch_uses_earliest_access() {
        let mut g = TraceGenerator::new(&Workload::Poa.profile(), 16, 4, 3);
        let t = g.generate_phase(5_000);
        let m = PageMap::first_touch(g.profile().footprint_pages, 1000, &t, 4, 16);
        // POA pages are socket-private: first toucher *is* the owning socket.
        for a in t.iter() {
            let owner = g.page_sharers(a.addr.page())[0];
            assert_eq!(m.location(a.addr.page()), Location::Socket(owner));
        }
        assert_eq!(m.pool_pages(), 0, "first touch never uses the pool");
    }

    #[test]
    fn first_touch_spreads_untouched_pages() {
        let t = PhaseTrace::default();
        let m = PageMap::first_touch(32, 10, &t, 4, 16);
        // Round-robin over 16 sockets: each socket gets 2 of 32 pages.
        let mut counts = [0u32; 16];
        for p in 0..32 {
            if let Location::Socket(s) = m.location(PageId::new(p)) {
                counts[s.index() as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 2));
    }

    /// Each core's clock runs on from its own last access, so a later
    /// phase can take a page. Core 1 (socket 1) last accesses memory at
    /// icount 10 in phase 0, so its phase-1 access to page 0 at icount 5
    /// keys 11 + 5 = 16 and beats core 0's phase-0 access at icount 900.
    #[test]
    fn a_later_phase_can_take_first_touch() {
        let access = |core: u32, page: u64, icount: u64| {
            MemAccess::new(
                CoreId::new(core),
                PageId::new(page).base_addr(),
                AccessType::Read,
                icount,
            )
        };
        let phase0 = PhaseTrace {
            per_core: vec![vec![access(0, 0, 900)], vec![access(1, 1, 10)]],
        };
        let phase1 = PhaseTrace {
            per_core: vec![vec![], vec![access(1, 0, 5)]],
        };
        let mut first = FirstTouch::new(2);
        first.add(&phase0);
        assert!(!first.settled(), "core 1's base (11) is below key 900");
        first.add(&phase1);
        assert!(first.settled(), "keys 16 and 10 are below both bases");
        let m = first.finish(0, 1, 2);
        assert_eq!(m.location(PageId::new(0)), socket(1));
        assert_eq!(m.location(PageId::new(1)), socket(1));
        // Alone, phase 0 gives page 0 to core 0.
        let m = PageMap::first_touch(2, 0, &phase0, 1, 2);
        assert_eq!(m.location(PageId::new(0)), socket(0));
    }

    /// A core that has not touched memory yet keeps base 0, so its next
    /// access could win any page: the fold is not settled, however early
    /// the other cores' keys are.
    #[test]
    fn a_core_without_accesses_keeps_the_fold_unsettled() {
        let access = |core: u32, page: u64, icount: u64| {
            MemAccess::new(
                CoreId::new(core),
                PageId::new(page).base_addr(),
                AccessType::Read,
                icount,
            )
        };
        let mut first = FirstTouch::new(2);
        assert!(!first.settled(), "nothing folded yet");
        first.add(&PhaseTrace {
            per_core: vec![
                vec![access(0, 0, 1), access(0, 1, 2), access(0, 0, 50)],
                vec![],
            ],
        });
        assert!(!first.settled(), "core 1 still has base 0");
        first.add(&PhaseTrace {
            per_core: vec![vec![], vec![access(1, 0, 7)]],
        });
        assert!(first.settled(), "both bases are now above keys 1 and 2");
    }

    /// Stopping the scout once the fold is settled gives the full fold's
    /// placement, for every workload at several seeds. Some of the runs
    /// must actually stop early, or the check would be empty.
    #[test]
    fn stopping_when_settled_matches_the_full_fold() {
        const PHASES: usize = 6;
        let mut stopped_early = 0;
        for workload in Workload::ALL {
            for seed in [1, 7, 42] {
                let profile = workload.profile();
                let fp = profile.footprint_pages;
                let gen = TraceGenerator::new(&profile, 16, 4, seed);
                let (mut full, mut early) = (FirstTouch::new(fp), FirstTouch::new(fp));
                let mut scout = gen.clone();
                for _ in 0..PHASES {
                    full.add(&scout.generate_phase(40_000));
                }
                let (mut scout, mut drawn) = (gen, 0);
                early.add_phases(PHASES, || {
                    drawn += 1;
                    scout.generate_phase(40_000)
                });
                assert_eq!(
                    early.finish(fp, 4, 16),
                    full.finish(fp, 4, 16),
                    "{workload:?} seed {seed}"
                );
                if drawn < PHASES {
                    stopped_early += 1;
                }
            }
        }
        assert!(stopped_early > 0, "no fold settled before its last phase");
    }
}
