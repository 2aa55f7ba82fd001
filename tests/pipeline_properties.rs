//! Property-style integration tests over the trace → migration → placement
//! pipeline (cross-crate invariants that unit tests can't see), driven by a
//! seeded in-repo PRNG for full determinism.

use starnuma_migration::{
    FirstTouch, MetadataRegion, PageAccessCounts, PageMap, PolicyConfig, ThresholdPolicy,
};
use starnuma_trace::{PhaseTrace, TraceGenerator, Workload};
use starnuma_types::{Location, MemAccess, PageId, RegionId, SimRng, SocketId, REGION_PAGES};

/// Pool occupancy never exceeds capacity across arbitrary multi-phase
/// migration histories, and every page is always somewhere valid.
#[test]
fn pool_capacity_invariant_over_phases() {
    let mut cases = SimRng::seed_from_u64(0xb0);
    for _case in 0..16 {
        let seed = cases.gen_range(0u64..1000);
        let phases = cases.gen_range(1usize..5);
        let capacity_regions = cases.gen_range(1u64..6);
        let profile = Workload::Bfs.profile();
        let mut gen = TraceGenerator::new(&profile, 16, 4, seed);
        let fp = profile.footprint_pages;
        let cap = capacity_regions * REGION_PAGES as u64;
        let first = gen.generate_phase(5_000);
        let mut map = PageMap::first_touch(fp, cap, &first, 4, 16);
        let mut policy =
            ThresholdPolicy::new(PolicyConfig::t16_scaled(64), map.num_regions(), true);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..phases {
            let trace = gen.generate_phase(5_000);
            let mut meta = MetadataRegion::new(map.num_regions(), 16, 16);
            for a in trace.iter() {
                let socket = a.core.socket(4);
                meta.record(a.addr.page().region(), socket, 1);
            }
            policy.decide(&meta, &mut map, &mut rng);
            assert!(map.pool_pages() <= cap);
            // Spot-check page locations are well-formed.
            for pfn in (0..fp).step_by(997) {
                match map.location(PageId::new(pfn)) {
                    Location::Pool => {}
                    Location::Socket(s) => assert!(s.index() < 16),
                }
            }
        }
        assert!(policy.pages_to_pool <= policy.pages_migrated);
    }
}

/// The trace generator only ever emits accesses to pages its socket
/// shares, for any workload and system size.
#[test]
fn traces_respect_sharing() {
    let mut cases = SimRng::seed_from_u64(0x5a1);
    for case in 0..16 {
        let seed = cases.gen_range(0u64..1000);
        let wl = Workload::ALL[case % Workload::ALL.len()];
        let sockets = [4usize, 8, 16][case % 3];
        let profile = wl.profile();
        let mut gen = TraceGenerator::new(&profile, sockets, 2, seed);
        let trace = gen.generate_phase(2_000);
        for a in trace.iter() {
            let socket = a.core.socket(2);
            assert!(gen.page_sharers(a.addr.page()).contains(&socket));
            assert!(a.addr.page().pfn() < profile.footprint_pages);
        }
    }
}

/// First-touch maps every page to a socket (never the pool) and is
/// deterministic.
#[test]
fn first_touch_is_socket_only_and_deterministic() {
    let mut cases = SimRng::seed_from_u64(0xf7);
    for _case in 0..8 {
        let seed = cases.gen_range(0u64..500);
        let profile = Workload::Tpcc.profile();
        let mut gen = TraceGenerator::new(&profile, 16, 4, seed);
        let trace = gen.generate_phase(3_000);
        let a = PageMap::first_touch(profile.footprint_pages, 100, &trace, 4, 16);
        let b = PageMap::first_touch(profile.footprint_pages, 100, &trace, 4, 16);
        assert_eq!(a.pool_pages(), 0);
        for pfn in (0..profile.footprint_pages).step_by(131) {
            assert_eq!(a.location(PageId::new(pfn)), b.location(PageId::new(pfn)));
        }
    }
}

/// A whole run as one trace: each later phase appended per core, its
/// icounts offset to one past that core's last offset icount so far.
fn concatenate(run: &[PhaseTrace]) -> PhaseTrace {
    let mut combined = PhaseTrace::default();
    for t in run {
        if combined.per_core.is_empty() {
            combined = t.clone();
            continue;
        }
        for (dst, src) in combined.per_core.iter_mut().zip(&t.per_core) {
            let base = dst.last().map_or(0, |a| a.icount + 1);
            dst.extend(src.iter().map(|a| MemAccess {
                icount: a.icount + base,
                ..*a
            }));
        }
    }
    combined
}

/// The streamed step-A scouts equal their whole-run forms: folding
/// `FirstTouch` phase by phase places every page where first touch over
/// the concatenated run does, and tallying in place with `add_trace`
/// equals summing per-phase `from_trace` tallies. Every workload, with and without a
/// warm-up, with one core's stream emptied in the first phase and
/// another's in a middle phase.
#[test]
fn streamed_scouts_equal_whole_run_placement() {
    for (i, wl) in Workload::ALL.iter().enumerate() {
        let profile = wl.profile();
        let fp = profile.footprint_pages;
        let cap = fp / 5;
        let mut gen = TraceGenerator::new(&profile, 16, 4, 42 + i as u64);
        let warmup = gen.generate_phase(1_000);
        let mut phases: Vec<PhaseTrace> = (0..3).map(|_| gen.generate_phase(3_000)).collect();
        phases[0].per_core[i].clear();
        phases[1].per_core[i + 8].clear();
        let with_warmup: Vec<PhaseTrace> = std::iter::once(warmup).chain(phases.clone()).collect();
        for run in [phases, with_warmup] {
            let mut first = FirstTouch::new(fp);
            let mut folded = PageAccessCounts::new(fp, 16);
            for t in &run {
                first.add(t);
                folded.add_trace(t, 4);
            }
            let tallies: Vec<PageAccessCounts> = run
                .iter()
                .map(|t| PageAccessCounts::from_trace(t, fp, 16, 4))
                .collect();
            let streamed = first.finish(cap, 4, 16);
            let whole = PageMap::first_touch(fp, cap, &concatenate(&run), 4, 16);
            for pfn in 0..fp {
                let page = PageId::new(pfn);
                assert_eq!(
                    streamed.location(page),
                    whole.location(page),
                    "{wl:?}: page {pfn}"
                );
                for s in SocketId::all(16) {
                    let summed: u32 = tallies.iter().map(|c| c.count(page, s)).sum();
                    assert_eq!(folded.count(page, s), summed, "{wl:?}: page {pfn}");
                }
            }
        }
    }
}

/// Migration plans conserve pages: applying a plan to the pre-decision
/// snapshot yields exactly the post-decision map.
#[test]
fn plans_replay_exactly() {
    let mut cases = SimRng::seed_from_u64(0x9e9);
    for _case in 0..16 {
        let seed = cases.gen_range(0u64..500);
        let mut meta = MetadataRegion::new(8, 16, 16);
        let mut rng = SimRng::seed_from_u64(seed);
        for r in 0..8u64 {
            for s in 0..((seed + r) % 16 + 1) as u16 {
                meta.record(RegionId::new(r), SocketId::new(s), (seed % 300) as u32 + 10);
            }
        }
        let mut live = PageMap::from_fn(8 * 128, 3 * 128, |_| Location::Socket(SocketId::new(0)));
        let snapshot = live.clone();
        let mut policy = ThresholdPolicy::new(PolicyConfig::t16_scaled(100), 8, true);
        let plan = policy.decide(&meta, &mut live, &mut rng);
        let mut replay = snapshot;
        plan.apply(&mut replay);
        for pfn in 0..replay.len() {
            assert_eq!(
                replay.location(PageId::new(pfn)),
                live.location(PageId::new(pfn))
            );
        }
    }
}
