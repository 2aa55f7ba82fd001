//! The trace generator: turns a [`WorkloadProfile`] into per-core memory
//! access streams with the profile's sharing structure.

use starnuma_types::{
    AccessType, CoreId, MemAccess, PageId, PhysAddr, SimRng, SocketId, UniformBelow, BLOCK_SIZE,
    PAGE_SIZE, REGION_PAGES, SOCKETS_PER_CHASSIS,
};

use crate::profile::WorkloadProfile;

/// One phase's worth of traces: a stream of accesses per core, icount-tagged
/// and sorted by icount (the per-thread memory traces of §IV-A1).
#[derive(Clone, Debug, Default)]
pub struct PhaseTrace {
    /// Indexed by global core id; each stream is sorted by `icount`.
    pub per_core: Vec<Vec<MemAccess>>,
}

impl PhaseTrace {
    /// Total number of accesses across all cores.
    pub fn total_accesses(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }

    /// Iterates over all accesses of all cores (unordered across cores).
    pub fn iter(&self) -> impl Iterator<Item = &MemAccess> {
        self.per_core.iter().flatten()
    }
}

/// Deterministic synthetic trace generator (the step-A substitute).
///
/// Pages are laid out in contiguous class runs; sharer sets are assigned per
/// 512 KiB region group so that monitoring regions stay homogeneous. Each
/// core samples pages its socket shares, weighted by the profile's
/// per-class access fractions.
///
/// # Examples
///
/// ```
/// use starnuma_trace::{TraceGenerator, Workload};
///
/// let profile = Workload::Tpcc.profile();
/// let mut generator = TraceGenerator::new(&profile, 16, 4, 7);
/// let phase = generator.generate_phase(5_000);
/// assert!(phase.total_accesses() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    num_sockets: usize,
    cores_per_socket: usize,
    seed: u64,
    phase: u64,
    /// Class index of each page.
    page_class: Vec<u8>,
    /// Sharer set of each region-sized page group.
    group_sharers: Vec<Vec<SocketId>>,
    /// `[socket][class]` → hot pages of that class this socket shares.
    socket_pages_hot: Vec<Vec<PageList>>,
    /// `[socket][class]` → cold pages of that class this socket shares.
    socket_pages_cold: Vec<Vec<PageList>>,
    /// `[socket][class]` → cumulative access-probability weights.
    socket_cum_weights: Vec<Vec<f64>>,
}

impl TraceGenerator {
    /// Builds the page map and sampling tables for `profile` on an
    /// `num_sockets` × `cores_per_socket` system.
    ///
    /// # Panics
    ///
    /// Panics if `num_sockets` or `cores_per_socket` is zero.
    pub fn new(
        profile: &WorkloadProfile,
        num_sockets: usize,
        cores_per_socket: usize,
        seed: u64,
    ) -> Self {
        assert!(num_sockets > 0, "need at least one socket");
        assert!(cores_per_socket > 0, "need at least one core per socket");
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5741_524e_554d_4131);
        let num_classes = profile.classes.len();
        let total_pages = profile.footprint_pages;
        let num_groups = total_pages.div_ceil(REGION_PAGES as u64) as usize;

        let mut page_class = vec![0u8; total_pages as usize];
        let mut group_sharers: Vec<Vec<SocketId>> = vec![Vec::new(); num_groups];
        let mut socket_pages_hot = vec![vec![Vec::new(); num_classes]; num_sockets];
        let mut socket_pages_cold = vec![vec![Vec::new(); num_classes]; num_sockets];

        // Assign whole 512 KiB region groups to classes, interleaved across
        // the address space by largest-remainder apportionment: real
        // applications interleave their data structures, and a contiguous
        // per-class layout would bias Algorithm 1's in-order metadata scan.
        let mut rr_socket = 0usize;
        let mut rr_chassis = 0usize;
        let mut owed = vec![0.0f64; num_classes];
        // Within-class hotness: `hot_page_frac` of each class's groups draw
        // `hot_access_frac` of its accesses (high-degree vertices, hot index
        // nodes). Largest-remainder again, per class, so hot groups are
        // spread through the address space.
        let mut hot_owed = vec![0.0f64; num_classes];
        #[allow(clippy::needless_range_loop)] // index used for address math
        for group_idx in 0..num_groups {
            for (c, class) in profile.classes.iter().enumerate() {
                owed[c] += class.page_frac;
            }
            let cls_idx = owed
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            owed[cls_idx] -= 1.0;
            let class = &profile.classes[cls_idx];
            let sharers = Self::pick_sharers(
                class.sharers.min,
                class.sharers.max,
                class.within_chassis,
                num_sockets,
                &mut rng,
                &mut rr_socket,
                &mut rr_chassis,
            );
            hot_owed[cls_idx] += profile.hot_page_frac;
            let hot = hot_owed[cls_idx] >= 1.0;
            if hot {
                hot_owed[cls_idx] -= 1.0;
            }
            let start = group_idx as u64 * REGION_PAGES as u64;
            let end = (start + REGION_PAGES as u64).min(total_pages);
            for page in start..end {
                page_class[page as usize] = cls_idx as u8;
                for &s in &sharers {
                    let lists = if hot {
                        &mut socket_pages_hot
                    } else {
                        &mut socket_pages_cold
                    };
                    lists[s.index() as usize][cls_idx].push(PageId::new(page));
                }
            }
            group_sharers[group_idx] = sharers;
        }

        // Per-socket cumulative class weights (a socket can only sample
        // classes it has pages in).
        let mut socket_cum_weights = vec![vec![0.0; num_classes]; num_sockets];
        for s in 0..num_sockets {
            let mut cum = 0.0;
            for c in 0..num_classes {
                // canonical order: ascending class index.
                if !socket_pages_hot[s][c].is_empty() || !socket_pages_cold[s][c].is_empty() {
                    cum += profile.classes[c].access_frac;
                }
                socket_cum_weights[s][c] = cum;
            }
            assert!(
                cum > 0.0,
                "socket {s} has no accessible pages; profile/socket-count mismatch"
            );
        }

        let page_lists = |lists: Vec<Vec<Vec<PageId>>>| -> Vec<Vec<PageList>> {
            lists
                .into_iter()
                .map(|classes| classes.into_iter().map(PageList::new).collect())
                .collect()
        };
        TraceGenerator {
            profile: profile.clone(),
            num_sockets,
            cores_per_socket,
            seed,
            phase: 0,
            page_class,
            group_sharers,
            socket_pages_hot: page_lists(socket_pages_hot),
            socket_pages_cold: page_lists(socket_pages_cold),
            socket_cum_weights,
        }
    }

    fn pick_sharers(
        min: u16,
        max: u16,
        within_chassis: bool,
        num_sockets: usize,
        rng: &mut SimRng,
        rr_socket: &mut usize,
        rr_chassis: &mut usize,
    ) -> Vec<SocketId> {
        let k = rng.gen_range(min..=max).min(num_sockets as u16) as usize;
        if k == 1 {
            // Round-robin for balance: every socket gets private data.
            let s = SocketId::new((*rr_socket % num_sockets) as u16);
            *rr_socket += 1;
            return vec![s];
        }
        let num_chassis = num_sockets.div_ceil(SOCKETS_PER_CHASSIS);
        if within_chassis && k <= SOCKETS_PER_CHASSIS && num_chassis > 1 {
            let chassis = *rr_chassis % num_chassis;
            *rr_chassis += 1;
            let base = (chassis * SOCKETS_PER_CHASSIS) as u16;
            let chassis_size = SOCKETS_PER_CHASSIS.min(num_sockets - chassis * SOCKETS_PER_CHASSIS);
            let mut within: Vec<u16> = (0..chassis_size as u16).collect();
            partial_shuffle(&mut within, k, rng);
            return within[..k]
                .iter()
                .map(|&i| SocketId::new(base + i))
                .collect();
        }
        let mut all: Vec<u16> = (0..num_sockets as u16).collect();
        partial_shuffle(&mut all, k, rng);
        let mut v: Vec<SocketId> = all[..k].iter().map(|&i| SocketId::new(i)).collect();
        v.sort_unstable();
        v
    }

    /// The profile this generator was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Total system core count.
    pub fn total_cores(&self) -> usize {
        self.num_sockets * self.cores_per_socket
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.num_sockets
    }

    /// The sockets sharing `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the footprint.
    pub fn page_sharers(&self, page: PageId) -> &[SocketId] {
        &self.group_sharers[(page.pfn() / REGION_PAGES as u64) as usize]
    }

    /// The class index of `page`.
    pub fn page_class(&self, page: PageId) -> usize {
        self.page_class[page.pfn() as usize] as usize
    }

    /// Generates the next phase: `instructions_per_core` instructions per
    /// core, producing LLC-miss-rate-calibrated access streams.
    pub fn generate_phase(&mut self, instructions_per_core: u64) -> PhaseTrace {
        let phase = self.phase;
        self.phase += 1;
        let ipm = self.profile.instructions_per_miss();
        let mut per_core = Vec::with_capacity(self.total_cores());
        for core_idx in 0..self.total_cores() as u32 {
            let core = CoreId::new(core_idx);
            let socket = core.socket(self.cores_per_socket);
            let mut rng = SimRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((u64::from(core_idx) << 20) ^ phase),
            );
            let mut stream = Vec::new();
            let mut icount = 0u64;
            loop {
                // Geometric-ish gap around the mean instructions-per-miss.
                let gap = (ipm * (0.25 + 1.5 * rng.gen_f64())).max(1.0) as u64;
                icount += gap;
                if icount >= instructions_per_core {
                    break;
                }
                stream.push(self.sample_access(socket, core, icount, &mut rng));
            }
            per_core.push(stream);
        }
        PhaseTrace { per_core }
    }

    fn sample_access(
        &self,
        socket: SocketId,
        core: CoreId,
        icount: u64,
        rng: &mut SimRng,
    ) -> MemAccess {
        let s = socket.index() as usize;
        let weights = &self.socket_cum_weights[s];
        let total = weights.last().copied().unwrap_or(1.0);
        let x = rng.gen_f64() * total;
        // The weights never decrease, so the count of those `<= x` is
        // their partition point, found without a data-dependent branch.
        let cls = weights
            .iter()
            .filter(|&&w| w <= x)
            .count()
            .min(weights.len() - 1);
        let hot = &self.socket_pages_hot[s][cls];
        let cold = &self.socket_pages_cold[s][cls];
        let pages = if hot.pages.is_empty() {
            cold
        } else if cold.pages.is_empty() || rng.gen_f64() < self.profile.hot_access_frac {
            hot
        } else {
            cold
        };
        let page = pages.sample(rng);
        let block_in_page = rng.gen_range(0..(PAGE_SIZE / BLOCK_SIZE)) as u64;
        let addr = PhysAddr::new(page.pfn() * PAGE_SIZE as u64 + block_in_page * BLOCK_SIZE as u64);
        let kind = if rng.gen_f64() < self.profile.classes[cls].rw.read_fraction() {
            AccessType::Read
        } else {
            AccessType::Write
        };
        MemAccess::new(core, addr, kind, icount)
    }
}

/// Pages one socket samples from, with the uniform index draw over them
/// prepared once.
#[derive(Clone, Debug)]
struct PageList {
    pages: Vec<PageId>,
    /// Draws an index into `pages`; an empty list keeps a span-1 draw that
    /// [`TraceGenerator::sample_access`] never takes.
    index: UniformBelow,
}

impl PageList {
    fn new(pages: Vec<PageId>) -> Self {
        let index = UniformBelow::new(pages.len().max(1) as u64);
        PageList { pages, index }
    }

    /// A uniform page of the list: the draw `rng.gen_range(0..len)` makes.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the index is below the list's usize length"
    )]
    fn sample(&self, rng: &mut SimRng) -> PageId {
        debug_assert!(!self.pages.is_empty());
        self.pages[self.index.sample(rng) as usize]
    }
}

/// Fisher–Yates for the first `k` elements.
fn partial_shuffle(v: &mut [u16], k: usize, rng: &mut SimRng) {
    let n = v.len();
    for i in 0..k.min(n.saturating_sub(1)) {
        let j = rng.gen_range(i..n);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Workload;
    use std::collections::BTreeSet;

    fn generator(w: Workload) -> TraceGenerator {
        TraceGenerator::new(&w.profile(), 16, 4, 42)
    }

    #[test]
    fn deterministic_across_constructions() {
        let mut a = generator(Workload::Bfs);
        let mut b = generator(Workload::Bfs);
        let pa = a.generate_phase(2_000);
        let pb = b.generate_phase(2_000);
        assert_eq!(pa.per_core, pb.per_core);
    }

    #[test]
    fn phases_differ() {
        let mut g = generator(Workload::Bfs);
        let p0 = g.generate_phase(2_000);
        let p1 = g.generate_phase(2_000);
        assert_ne!(p0.per_core, p1.per_core);
    }

    #[test]
    fn access_rate_tracks_mpki() {
        let mut g = generator(Workload::Bfs);
        let instr = 50_000u64;
        let phase = g.generate_phase(instr);
        let per_core = phase.total_accesses() as f64 / 64.0;
        let expected = instr as f64 * 32.0 / 1000.0;
        assert!(
            (per_core - expected).abs() / expected < 0.15,
            "got {per_core}, expected ≈{expected}"
        );
    }

    #[test]
    fn icounts_sorted_and_bounded() {
        let mut g = generator(Workload::Tc);
        let phase = g.generate_phase(30_000);
        for stream in &phase.per_core {
            for pair in stream.windows(2) {
                assert!(pair[0].icount < pair[1].icount);
            }
            if let Some(last) = stream.last() {
                assert!(last.icount < 30_000);
            }
        }
    }

    #[test]
    fn cores_access_only_their_sockets_pages() {
        let mut g = generator(Workload::Bfs);
        let phase = g.generate_phase(5_000);
        for (core_idx, stream) in phase.per_core.iter().enumerate() {
            let socket = CoreId::new(core_idx as u32).socket(4);
            for a in stream {
                let sharers = g.page_sharers(a.addr.page());
                assert!(
                    sharers.contains(&socket),
                    "core {core_idx} touched page not shared by its socket"
                );
            }
        }
    }

    #[test]
    fn poa_pages_are_socket_private() {
        let mut g = generator(Workload::Poa);
        let phase = g.generate_phase(5_000);
        let mut sharer_counts = BTreeSet::new();
        for a in phase.iter() {
            sharer_counts.insert(g.page_sharers(a.addr.page()).len());
        }
        assert_eq!(sharer_counts, BTreeSet::from([1]));
    }

    #[test]
    fn bfs_has_wide_sharers() {
        let g = generator(Workload::Bfs);
        let p = g.profile().footprint_pages;
        let wide = (0..p)
            .filter(|&pg| g.page_sharers(PageId::new(pg)).len() == 16)
            .count() as f64
            / p as f64;
        assert!(
            (wide - 0.02).abs() < 0.015,
            "expected ≈2% 16-sharer pages, got {wide}"
        );
    }

    #[test]
    fn within_chassis_classes_stay_in_one_chassis() {
        let g = generator(Workload::Tpcc);
        for pg in 0..g.profile().footprint_pages {
            let page = PageId::new(pg);
            let sharers = g.page_sharers(page);
            let cls = &g.profile().classes[g.page_class(page)];
            if cls.within_chassis && sharers.len() > 1 {
                let chassis: BTreeSet<u8> = sharers.iter().map(|s| s.chassis().index()).collect();
                assert_eq!(chassis.len(), 1, "within-chassis class spans chassis");
            }
        }
    }

    #[test]
    fn private_pages_balanced_across_sockets() {
        let g = generator(Workload::Poa);
        let mut counts = vec![0u64; 16];
        for pg in 0..g.profile().footprint_pages {
            let sharers = g.page_sharers(PageId::new(pg));
            counts[sharers[0].index() as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.3, "imbalanced private pages: {counts:?}");
    }

    #[test]
    fn single_socket_system_works() {
        let mut g = TraceGenerator::new(&Workload::Bfs.profile(), 4, 4, 1);
        let phase = g.generate_phase(5_000);
        assert_eq!(phase.per_core.len(), 16);
        assert!(phase.total_accesses() > 0);
    }

    #[test]
    fn reads_and_writes_both_present() {
        let mut g = generator(Workload::Masstree);
        let phase = g.generate_phase(20_000);
        let writes = phase.iter().filter(|a| a.kind.is_write()).count();
        let total = phase.total_accesses();
        let wf = writes as f64 / total as f64;
        // Masstree is ~50/50 on shared data, ~0.46 overall.
        assert!((0.35..0.60).contains(&wf), "write fraction {wf}");
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn rejects_zero_sockets() {
        let _ = TraceGenerator::new(&Workload::Bfs.profile(), 0, 4, 1);
    }
}
