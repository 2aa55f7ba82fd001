//! Ablation policies: what happens to Algorithm 1 when one of its design
//! ingredients is removed.
//!
//! The paper's policy combines **hotness** (the HI threshold over region
//! access counts) with **sharing degree** (the ≥8-sharer pool test). These
//! ablations isolate each ingredient:
//!
//! * [`AblationPolicy::HotnessOnly`] — pool the hottest regions regardless
//!   of how many sockets share them (a classic tiered-memory promotion
//!   policy pointed at the pool);
//! * [`AblationPolicy::SharingOnly`] — pool any widely shared region
//!   regardless of heat (the `T_0` idea taken to its extreme: first-come,
//!   first-pooled);
//! * [`AblationPolicy::RandomPool`] — pool uniformly random regions
//!   (the control: how much of the win is "any pool usage at all"?).
//!
//! Each produces [`MigrationPlan`]s compatible with the main pipeline.

use starnuma_types::{Location, RegionId, SimRng};

use crate::page_map::PageMap;
use crate::policy::{MigrationPlan, PageMove};
use crate::tracker::MetadataRegion;

/// Which ingredient of Algorithm 1 to keep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AblationPolicy {
    /// Pool the hottest regions by access count, ignoring sharing degree.
    HotnessOnly,
    /// Pool regions shared by at least `min_sharers` sockets, ignoring heat
    /// (scan order decides under capacity pressure).
    SharingOnly {
        /// Sharer-count threshold for pool placement.
        min_sharers: u32,
    },
    /// Pool uniformly random touched regions (control).
    RandomPool,
}

impl AblationPolicy {
    /// Decides one phase of pool-fill migrations under `limit_pages`,
    /// mutating `map` and returning the plan. Never evicts (ablations only
    /// fill spare pool capacity, which isolates the *selection* question).
    /// Like Algorithm 1, the limit is checked before each region, so a
    /// phase may exceed it by up to `REGION_PAGES − 1` pages.
    pub fn decide(
        &self,
        meta: &MetadataRegion,
        map: &mut PageMap,
        limit_pages: u64,
        rng: &mut SimRng,
    ) -> MigrationPlan {
        // Rank candidate regions according to the ablated criterion.
        let mut candidates: Vec<(u64, RegionId)> = meta
            .iter()
            .filter(|(region, entry)| {
                (region.index() as usize) < map.num_regions()
                    && entry.socket_bits != 0
                    && !map.region_location(*region).is_pool()
            })
            .filter_map(|(region, entry)| {
                let score = match self {
                    AblationPolicy::HotnessOnly => Some(entry.accesses),
                    AblationPolicy::SharingOnly { min_sharers } => (entry.sharer_count()
                        >= *min_sharers)
                        .then(|| u64::from(entry.sharer_count())),
                    AblationPolicy::RandomPool => Some(u64::from(rng.gen_u32())),
                };
                score.map(|s| (s, region))
            })
            .collect();
        candidates.sort_by_key(|&(score, region)| (u64::MAX - score, region.index()));

        let mut plan = MigrationPlan::default();
        let mut moved = 0u64;
        for (_, region) in candidates {
            if moved >= limit_pages {
                break;
            }
            let region_pages = region
                .pages()
                .filter(|p| p.pfn() < map.len() && !map.location(*p).is_pool())
                .count() as u64;
            if map.pool_free_pages() < region_pages {
                continue; // no eviction in ablation mode
            }
            for page in region.pages() {
                if page.pfn() >= map.len() {
                    break;
                }
                let from = map.location(page);
                if from != Location::Pool {
                    map.move_page(page, Location::Pool);
                    plan.moves.push(PageMove {
                        page,
                        from,
                        to: Location::Pool,
                    });
                    moved += 1;
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_types::SocketId;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(3)
    }

    /// 4 regions; region 0 hot+narrow, region 1 cold+wide, region 2 warm+wide.
    fn meta() -> MetadataRegion {
        let mut m = MetadataRegion::new(4, 16, 16);
        m.record(RegionId::new(0), SocketId::new(0), 10_000);
        m.record(RegionId::new(0), SocketId::new(1), 10_000);
        for s in 0..16 {
            m.record(RegionId::new(1), SocketId::new(s), 1);
        }
        for s in 0..12 {
            m.record(RegionId::new(2), SocketId::new(s), 100);
        }
        m
    }

    fn map(pool_regions: u64) -> PageMap {
        PageMap::from_fn(4 * 128, pool_regions * 128, |_| {
            Location::Socket(SocketId::new(0))
        })
    }

    #[test]
    fn hotness_only_pools_hottest_first() {
        let mut m = map(1);
        let plan = AblationPolicy::HotnessOnly.decide(&meta(), &mut m, 128, &mut rng());
        assert_eq!(plan.to_pool(), 128);
        assert_eq!(m.region_location(RegionId::new(0)), Location::Pool);
        assert!(!m.region_location(RegionId::new(1)).is_pool());
    }

    #[test]
    fn sharing_only_pools_widest_first() {
        let mut m = map(1);
        let plan =
            AblationPolicy::SharingOnly { min_sharers: 8 }.decide(&meta(), &mut m, 128, &mut rng());
        assert_eq!(plan.to_pool(), 128);
        assert_eq!(
            m.region_location(RegionId::new(1)),
            Location::Pool,
            "16 sharers beats 12, regardless of heat"
        );
    }

    #[test]
    fn sharing_only_respects_threshold() {
        let mut m = map(4);
        let plan = AblationPolicy::SharingOnly { min_sharers: 8 }.decide(
            &meta(),
            &mut m,
            1_000,
            &mut rng(),
        );
        // Regions 1 (16 sharers) and 2 (12) qualify; region 0 (2) does not.
        assert_eq!(plan.to_pool(), 256);
        assert!(!m.region_location(RegionId::new(0)).is_pool());
    }

    #[test]
    fn random_pool_is_deterministic_per_seed() {
        let mut m1 = map(2);
        let mut m2 = map(2);
        let p1 = AblationPolicy::RandomPool.decide(&meta(), &mut m1, 256, &mut rng());
        let p2 = AblationPolicy::RandomPool.decide(&meta(), &mut m2, 256, &mut rng());
        assert_eq!(p1, p2);
        assert_eq!(p1.to_pool(), 256);
    }

    #[test]
    fn capacity_and_limit_respected() {
        let mut m = map(1); // pool fits one region
        let plan = AblationPolicy::HotnessOnly.decide(&meta(), &mut m, 10_000, &mut rng());
        assert_eq!(plan.to_pool(), 128);
        assert_eq!(m.pool_pages(), 128);
        let mut m = map(4);
        let plan = AblationPolicy::HotnessOnly.decide(&meta(), &mut m, 130, &mut rng());
        // Limit reached mid-scan: first region fully moved, second skipped
        // after crossing the limit.
        assert!(plan.to_pool() >= 128 && plan.to_pool() <= 256);
    }

    #[test]
    fn untouched_regions_never_move() {
        let mut m = map(4);
        AblationPolicy::HotnessOnly.decide(&meta(), &mut m, 10_000, &mut rng());
        assert!(
            !m.region_location(RegionId::new(3)).is_pool(),
            "region 3 was never accessed"
        );
    }
}
