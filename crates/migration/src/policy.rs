//! Algorithm 1: threshold-based migration candidate selection.

use starnuma_obs::{EventCategory, EventLevel, FieldValue, ObsSink};
use starnuma_types::{Diagnostic, Location, PageId, RegionId, SimRng, REGION_PAGES};

use crate::page_map::PageMap;
use crate::tracker::MetadataRegion;

/// Renders a page location as a journal field (`"pool"` / `"socket7"`).
fn location_field(loc: Location) -> FieldValue {
    match loc {
        Location::Pool => FieldValue::Str("pool".to_string()),
        Location::Socket(s) => FieldValue::Str(format!("socket{}", s.index())),
    }
}

/// One page movement of a migration plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageMove {
    /// The page being migrated.
    pub page: PageId,
    /// Where it currently lives.
    pub from: Location,
    /// Where it is going.
    pub to: Location,
}

/// The set of page movements decided for one migration phase.
///
/// The plan is produced against a *snapshot* of the page map; callers apply
/// it with [`MigrationPlan::apply`] (trace simulation applies it fully;
/// timing simulation models the first 10 % in detail, §IV-C).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MigrationPlan {
    /// Individual page moves, in decision order (victim evictions precede
    /// the migrations that needed the space).
    pub moves: Vec<PageMove>,
}

impl MigrationPlan {
    /// Number of pages migrated to the pool.
    pub fn to_pool(&self) -> u64 {
        self.moves.iter().filter(|m| m.to.is_pool()).count() as u64
    }

    /// Total pages moved.
    pub fn total(&self) -> u64 {
        self.moves.len() as u64
    }

    /// Applies every move to `map`.
    pub fn apply(&self, map: &mut PageMap) {
        for m in &self.moves {
            map.move_page(m.page, m.to);
        }
    }
}

/// Configuration of the Algorithm 1 policy (§IV-C).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PolicyConfig {
    /// Initial HI threshold (region accesses per phase to become a
    /// migration candidate). The paper starts at 20 K for billion-instruction
    /// phases; scale proportionally with phase length.
    pub hi_init: u64,
    /// HI adaptation bounds.
    pub hi_min: u64,
    /// Upper bound of the adaptive HI threshold.
    pub hi_max: u64,
    /// Initial LO (victim-eviction) threshold; adapted up to `lo_max`.
    pub lo_init: u64,
    /// Upper bound of the adaptive LO threshold.
    pub lo_max: u64,
    /// Per-phase migration limit in 4 KiB pages. Algorithm 1 checks it
    /// before each region (lines 29–31) and then moves the whole region,
    /// so a phase may exceed it by up to `REGION_PAGES − 1` pages.
    pub migration_limit_pages: u64,
    /// Regions touched by at least this many sockets go to the pool
    /// (Algorithm 1 line 8: `count(region.sharers) ≥ 8`).
    pub pool_sharer_threshold: u32,
    /// `T_0` mode: ignore access counts; select regions touched by all
    /// sockets (fixed threshold 16, §IV-C).
    pub t0: bool,
}

impl PolicyConfig {
    /// The paper's `T_16` configuration, scaled for phases of
    /// `phase_accesses_hint` total expected region accesses. With the
    /// paper's 1 B-instruction phases the HI threshold starts at 20 K; the
    /// scaled default keeps the same *fraction* of mean region heat.
    pub fn t16_scaled(mean_region_accesses_per_phase: u64) -> Self {
        let hi = mean_region_accesses_per_phase.max(16);
        PolicyConfig {
            hi_init: hi,
            hi_min: (hi / 8).max(4),
            hi_max: hi * 32,
            lo_init: (hi / 20).max(1),
            lo_max: (hi / 2).max(2),
            migration_limit_pages: 4_096,
            pool_sharer_threshold: 8,
            t0: false,
        }
    }

    /// The `T_0` configuration: fixed sharer threshold of the full machine.
    pub fn t0(num_sockets: u32) -> Self {
        PolicyConfig {
            hi_init: 0,
            hi_min: 0,
            hi_max: 0,
            lo_init: 1,
            lo_max: 1,
            migration_limit_pages: 4_096,
            pool_sharer_threshold: num_sockets,
            t0: true,
        }
    }

    /// Pre-run validation of Algorithm 1's threshold structure (`SN103`).
    ///
    /// The adaptive thresholds only make sense when their bounds nest:
    /// `hi_min ≤ hi_init ≤ hi_max` and `lo_init ≤ lo_max`. A zero migration
    /// limit is legal (it freezes placement) but almost always a mistake, so
    /// it is reported as a warning.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if !(self.hi_min <= self.hi_init && self.hi_init <= self.hi_max) {
            out.push(Diagnostic::error(
                "SN103",
                "PolicyConfig.hi_init",
                format!(
                    "HI thresholds must nest as hi_min <= hi_init <= hi_max, got {} / {} / {}",
                    self.hi_min, self.hi_init, self.hi_max
                ),
                "start from PolicyConfig::t16_scaled, which derives consistent bounds",
            ));
        }
        if self.lo_init > self.lo_max {
            out.push(Diagnostic::error(
                "SN103",
                "PolicyConfig.lo_init",
                format!(
                    "LO thresholds must nest as lo_init <= lo_max, got {} / {}",
                    self.lo_init, self.lo_max
                ),
                "start from PolicyConfig::t16_scaled, which derives consistent bounds",
            ));
        }
        if self.migration_limit_pages == 0 {
            out.push(Diagnostic::warning(
                "SN103",
                "PolicyConfig.migration_limit_pages",
                "migration limit of 0 pages: the policy can never move a page",
                "set a positive per-phase limit (the paper migrates up to 16 K pages/phase)",
            ));
        }
        out
    }
}

/// Algorithm 1 with dynamic HI/LO threshold adjustment and ping-pong
/// suppression.
///
/// One instance persists across phases of one run (thresholds and the
/// per-region migration history carry over).
#[derive(Clone, Debug)]
pub struct ThresholdPolicy {
    config: PolicyConfig,
    hi: u64,
    lo: u64,
    phase: u64,
    region_migration_count: Vec<u32>,
    pool_enabled: bool,
    /// Total pages migrated, cumulative.
    pub pages_migrated: u64,
    /// Pages migrated to the pool, cumulative (Table IV numerator).
    pub pages_to_pool: u64,
}

impl ThresholdPolicy {
    /// Creates the policy for a footprint of `num_regions` regions.
    /// `pool_enabled` is false for the baseline system.
    pub fn new(config: PolicyConfig, num_regions: usize, pool_enabled: bool) -> Self {
        ThresholdPolicy {
            config,
            hi: config.hi_init,
            lo: config.lo_init,
            phase: 0,
            region_migration_count: vec![0; num_regions],
            pool_enabled,
            pages_migrated: 0,
            pages_to_pool: 0,
        }
    }

    /// Current HI threshold (tests, diagnostics).
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Current LO threshold.
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// A region is ping-ponging if it has migrated more than a quarter of
    /// the current phase number (Algorithm 1 footnote).
    fn is_ping_ponging(&self, region: RegionId) -> bool {
        u64::from(self.region_migration_count[region.index() as usize]) * 4 > self.phase
    }

    /// Runs one Algorithm 1 pass over the metadata region and produces the
    /// phase's migration plan. Mutates `map` (migrations and victim
    /// evictions are applied as decided, mirroring the paper's sequential
    /// scan), advances the phase counter, and adapts thresholds.
    pub fn decide(
        &mut self,
        meta: &MetadataRegion,
        map: &mut PageMap,
        rng: &mut SimRng,
    ) -> MigrationPlan {
        self.decide_observed(meta, map, rng, &mut ObsSink::disabled())
    }

    /// [`ThresholdPolicy::decide`] journaling every decision into `obs`:
    /// region migrations, pool-capacity pressure (victim evictions and
    /// full-pool skips), the per-phase migration-limit crossing, and HI
    /// threshold adaptations.
    pub fn decide_observed(
        &mut self,
        meta: &MetadataRegion,
        map: &mut PageMap,
        rng: &mut SimRng,
        obs: &mut ObsSink,
    ) -> MigrationPlan {
        self.phase += 1;
        let mut plan = MigrationPlan::default();
        let mut n_migrated_pages = 0u64;
        let mut candidates = 0u64;
        let mut limit_reported = false;
        let num_sockets = meta.num_sockets();

        for (region, entry) in meta.iter() {
            if region.index() as usize >= map.num_regions() {
                break;
            }
            let selected = if self.config.t0 {
                entry.sharer_count() >= self.config.pool_sharer_threshold
            } else {
                entry.accesses >= self.hi
            };
            if !selected {
                continue;
            }
            candidates += 1;
            if n_migrated_pages >= self.config.migration_limit_pages {
                // Line 29–31: the limit stops migrations for this phase, but
                // the scan still counts candidates to drive HI adaptation.
                if !limit_reported {
                    limit_reported = true;
                    let limit = self.config.migration_limit_pages;
                    obs.event(
                        EventLevel::Warn,
                        EventCategory::Threshold,
                        "migration_limit_reached",
                        || {
                            vec![
                                ("limit_pages", FieldValue::U64(limit)),
                                ("migrated_pages", FieldValue::U64(n_migrated_pages)),
                            ]
                        },
                    );
                }
                continue;
            }
            let sharers = entry.sharers(num_sockets);
            if sharers.is_empty() {
                continue;
            }
            // Line 7–10: destination is a random sharer, or the pool for
            // widely shared regions.
            let mut best: Location = Location::Socket(sharers[rng.gen_range(0..sharers.len())]);
            if self.pool_enabled && entry.sharer_count() >= self.config.pool_sharer_threshold {
                best = Location::Pool;
            }
            let current = map.region_location(region);
            if best == current || self.is_ping_ponging(region) {
                continue;
            }
            // Line 13–23: make space at the destination if needed.
            if best.is_pool() {
                let region_pages = region
                    .pages()
                    .filter(|p| p.pfn() < map.len() && map.location(*p) != Location::Pool)
                    .count() as u64;
                if map.pool_free_pages() < region_pages {
                    let shortfall = region_pages - map.pool_free_pages();
                    obs.event(
                        EventLevel::Warn,
                        EventCategory::PoolPressure,
                        "pool_pressure",
                        || {
                            vec![
                                ("region", FieldValue::U64(region.index())),
                                ("needed_pages", FieldValue::U64(shortfall)),
                            ]
                        },
                    );
                    let freed =
                        self.evict_victims(meta, map, shortfall, region, rng, &mut plan, obs);
                    if map.pool_free_pages() + freed < region_pages {
                        obs.event(
                            EventLevel::Warn,
                            EventCategory::PoolPressure,
                            "pool_full_skip",
                            || vec![("region", FieldValue::U64(region.index()))],
                        );
                        continue; // no victim found: skip this candidate
                    }
                }
            }
            // Line 24–26: perform the migration.
            let pages_before = n_migrated_pages;
            for page in region.pages() {
                if page.pfn() >= map.len() {
                    break;
                }
                let from = map.location(page);
                if from != best {
                    plan.moves.push(PageMove {
                        page,
                        from,
                        to: best,
                    });
                    map.move_page(page, best);
                    n_migrated_pages += 1;
                    if best.is_pool() {
                        self.pages_to_pool += 1;
                    }
                }
            }
            let pages_moved = n_migrated_pages - pages_before;
            if pages_moved > 0 {
                obs.event(
                    EventLevel::Info,
                    EventCategory::Migration,
                    "region_migrated",
                    || {
                        vec![
                            ("region", FieldValue::U64(region.index())),
                            ("pages", FieldValue::U64(pages_moved)),
                            ("sharers", FieldValue::U64(u64::from(entry.sharer_count()))),
                            ("accesses", FieldValue::U64(entry.accesses)),
                            ("dest", location_field(best)),
                        ]
                    },
                );
            }
            // Saturate: a long sweep can migrate one region more than
            // u32::MAX times; wrapping would panic in debug builds and
            // silently reset the ping-pong guard in release.
            let count = &mut self.region_migration_count[region.index() as usize];
            *count = count.saturating_add(1);
        }
        self.pages_migrated += n_migrated_pages;
        self.adapt_thresholds(candidates, obs);
        plan
    }

    /// Finds cold victim regions in the pool (accesses ≤ LO) and moves them
    /// to a random sharer until `needed` pages are freed. Returns pages
    /// freed.
    #[allow(clippy::too_many_arguments)] // internal helper mirroring Algorithm 1 line 13-23 state
    fn evict_victims(
        &mut self,
        meta: &MetadataRegion,
        map: &mut PageMap,
        needed: u64,
        exclude: RegionId,
        rng: &mut SimRng,
        plan: &mut MigrationPlan,
        obs: &mut ObsSink,
    ) -> u64 {
        let mut freed = 0u64;
        for (victim, ventry) in meta.iter() {
            if freed >= needed {
                break;
            }
            if victim == exclude || victim.index() as usize >= map.num_regions() {
                continue;
            }
            if map.region_location(victim) != Location::Pool {
                continue;
            }
            let cold = if self.config.t0 {
                ventry.sharer_count() < self.config.pool_sharer_threshold
            } else {
                ventry.accesses <= self.lo
            };
            if !cold {
                continue;
            }
            // Line 22: victim's destination is a random sharer (or socket 0
            // if the victim went untouched this phase).
            let sharers = ventry.sharers(meta.num_sockets());
            let dst = if sharers.is_empty() {
                Location::Socket(starnuma_types::SocketId::new(
                    rng.gen_range(0..meta.num_sockets()) as u16,
                ))
            } else {
                Location::Socket(sharers[rng.gen_range(0..sharers.len())])
            };
            let freed_before = freed;
            for page in victim.pages() {
                if page.pfn() >= map.len() {
                    break;
                }
                if map.location(page) == Location::Pool {
                    plan.moves.push(PageMove {
                        page,
                        from: Location::Pool,
                        to: dst,
                    });
                    map.move_page(page, dst);
                    freed += 1;
                }
            }
            let evicted = freed - freed_before;
            if evicted > 0 {
                obs.event(
                    EventLevel::Info,
                    EventCategory::PoolPressure,
                    "pool_victim_evicted",
                    || {
                        vec![
                            ("region", FieldValue::U64(victim.index())),
                            ("pages", FieldValue::U64(evicted)),
                            ("dest", location_field(dst)),
                        ]
                    },
                );
            }
        }
        freed
    }

    /// Dynamic threshold adjustment (§IV-C): HI follows the candidate count
    /// relative to the migration limit; LO follows HI.
    fn adapt_thresholds(&mut self, candidates: u64, obs: &mut ObsSink) {
        if self.config.t0 {
            return;
        }
        let old_hi = self.hi;
        let limit_regions = (self.config.migration_limit_pages / REGION_PAGES as u64).max(1);
        if candidates > limit_regions * 2 {
            self.hi = (self.hi * 2).min(self.config.hi_max);
        } else if candidates == 0 {
            // Decay only when nothing qualifies: decaying toward the limit
            // would dredge up lukewarm regions whose migration (to a random
            // sharer) is churn, not progress — the paper avoids this by
            // tuning HI per workload (20K–400K).
            self.hi = (self.hi / 2).max(self.config.hi_min);
        }
        self.lo = (self.hi / 20).clamp(self.config.lo_init, self.config.lo_max);
        if self.hi != old_hi {
            let (new_hi, new_lo) = (self.hi, self.lo);
            obs.event(
                EventLevel::Debug,
                EventCategory::Threshold,
                "hi_threshold_adapted",
                || {
                    vec![
                        ("old_hi", FieldValue::U64(old_hi)),
                        ("new_hi", FieldValue::U64(new_hi)),
                        ("new_lo", FieldValue::U64(new_lo)),
                        ("candidates", FieldValue::U64(candidates)),
                    ]
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_types::SocketId;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    fn socket(i: u16) -> Location {
        Location::Socket(SocketId::new(i))
    }

    /// 4 regions × 128 pages, all on socket 0, pool fits 2 regions.
    fn map() -> PageMap {
        PageMap::from_fn(512, 256, |_| socket(0))
    }

    fn config() -> PolicyConfig {
        PolicyConfig {
            hi_init: 100,
            hi_min: 16,
            hi_max: 10_000,
            lo_init: 5,
            lo_max: 50,
            migration_limit_pages: 10_000,
            pool_sharer_threshold: 8,
            t0: false,
        }
    }

    fn record_sharers(meta: &mut MetadataRegion, region: u64, sharers: u16, count: u32) {
        for s in 0..sharers {
            meta.record(RegionId::new(region), SocketId::new(s), count);
        }
    }

    #[test]
    fn widely_shared_hot_region_goes_to_pool() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        record_sharers(&mut meta, 0, 16, 50); // 800 accesses, 16 sharers
        let mut m = map();
        let mut p = ThresholdPolicy::new(config(), 4, true);
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert_eq!(plan.total(), 128);
        assert_eq!(plan.to_pool(), 128);
        assert_eq!(m.region_location(RegionId::new(0)), Location::Pool);
        assert_eq!(p.pages_to_pool, 128);
    }

    #[test]
    fn narrow_hot_region_goes_to_a_sharer_socket() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        // Hot but only 2 sharers (sockets 4 and 5).
        meta.record(RegionId::new(1), SocketId::new(4), 300);
        meta.record(RegionId::new(1), SocketId::new(5), 300);
        let mut m = map();
        let mut p = ThresholdPolicy::new(config(), 4, true);
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert_eq!(plan.to_pool(), 0);
        let dst = m.region_location(RegionId::new(1));
        assert!(dst == socket(4) || dst == socket(5), "got {dst:?}");
        assert_eq!(plan.total(), 128);
    }

    #[test]
    fn cold_regions_stay_put() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        record_sharers(&mut meta, 0, 16, 1); // 16 accesses < HI=100
        let mut m = map();
        let mut p = ThresholdPolicy::new(config(), 4, true);
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn baseline_never_uses_pool() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        record_sharers(&mut meta, 0, 16, 50);
        let mut m = map();
        let mut p = ThresholdPolicy::new(config(), 4, false);
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert_eq!(plan.to_pool(), 0);
        assert!(!m.region_location(RegionId::new(0)).is_pool());
    }

    #[test]
    fn migration_limit_respected() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        for r in 0..4 {
            record_sharers(&mut meta, r, 16, 50);
        }
        let mut m = PageMap::from_fn(512, 512, |_| socket(0));
        let mut cfg = config();
        cfg.migration_limit_pages = 128;
        let mut p = ThresholdPolicy::new(cfg, 4, true);
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert_eq!(plan.total(), 128, "stops at the limit");
    }

    /// The limit is checked before each region, never inside one: with
    /// 100 pages of budget the first hot region moves whole (128 pages,
    /// past the limit) and the scan then stops migrating.
    #[test]
    fn migration_limit_is_checked_per_region() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        for r in 0..4 {
            record_sharers(&mut meta, r, 16, 50);
        }
        let mut m = PageMap::from_fn(512, 512, |_| socket(0));
        let mut cfg = config();
        cfg.migration_limit_pages = 100;
        let mut p = ThresholdPolicy::new(cfg, 4, true);
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert_eq!(plan.total(), 128, "one whole region, then stop");
        assert_eq!(m.region_location(RegionId::new(0)), Location::Pool);
        assert!((1..4).all(|r| m.region_location(RegionId::new(r)) == socket(0)));
    }

    #[test]
    fn full_pool_evicts_cold_victim() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        record_sharers(&mut meta, 0, 16, 50); // hot, wants pool
        record_sharers(&mut meta, 2, 2, 1); // cold pool resident
                                            // Pool holds regions 2 and 3 already; capacity 2 regions.
        let mut m = PageMap::from_fn(512, 256, |p| {
            if p.region().index() >= 2 {
                Location::Pool
            } else {
                socket(0)
            }
        });
        let mut p = ThresholdPolicy::new(config(), 4, true);
        let plan = p.decide(&meta, &mut m, &mut rng());
        // Victim region 2 (cold) left the pool; region 0 moved in.
        assert_eq!(m.region_location(RegionId::new(0)), Location::Pool);
        assert!(!m.region_location(RegionId::new(2)).is_pool());
        assert!(plan.moves.iter().any(|mv| mv.from.is_pool()));
        assert_eq!(m.pool_pages(), 256);
    }

    #[test]
    fn full_pool_without_cold_victim_skips() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        record_sharers(&mut meta, 0, 16, 50); // wants pool
        record_sharers(&mut meta, 2, 16, 50); // pool resident but HOT
        record_sharers(&mut meta, 3, 16, 50); // pool resident but HOT
        let mut m = PageMap::from_fn(512, 256, |p| {
            if p.region().index() >= 2 {
                Location::Pool
            } else {
                socket(0)
            }
        });
        let mut p = ThresholdPolicy::new(config(), 4, true);
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert!(
            !m.region_location(RegionId::new(0)).is_pool(),
            "no cold victim: candidate must be skipped"
        );
        // Hot pool residents were not evicted.
        assert!(plan.moves.iter().all(|mv| !mv.from.is_pool()));
    }

    /// Regression (PR 5): the per-region migration counter used unchecked
    /// `+= 1`; with a saturated `u32` counter and enough elapsed phases for
    /// the ping-pong guard to readmit the region, the next migration
    /// overflowed — a panic in debug builds and a silent counter wrap (which
    /// resets the ping-pong guard) in release. The count must saturate.
    #[test]
    fn migration_count_saturates_at_u32_max() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        record_sharers(&mut meta, 0, 16, 50); // hot, wants pool
        let mut m = map();
        let mut p = ThresholdPolicy::new(config(), 4, true);
        // A region that already migrated u32::MAX times, deep into a sweep
        // long enough (phase > 4·u32::MAX) that ping-pong suppression
        // (count·4 > phase) no longer blocks it.
        p.region_migration_count[0] = u32::MAX;
        p.phase = (u64::from(u32::MAX) + 1) * 4;
        assert!(!p.is_ping_ponging(RegionId::new(0)));
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert_eq!(plan.total(), 128, "region must still migrate");
        assert_eq!(
            p.region_migration_count[0],
            u32::MAX,
            "count saturates instead of wrapping"
        );
        // Saturated counter keeps suppressing at realistic phase numbers.
        p.phase = 1000;
        assert!(p.is_ping_ponging(RegionId::new(0)));
    }

    #[test]
    fn ping_pong_suppression() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        // Sharers disjoint from the current location (socket 0), so the
        // first migration happens whichever sharer the RNG picks.
        meta.record(RegionId::new(0), SocketId::new(4), 300);
        meta.record(RegionId::new(0), SocketId::new(5), 300);
        let mut m = map();
        let mut p = ThresholdPolicy::new(config(), 4, true);
        // Region 0 migrates in phase 1.
        let plan1 = p.decide(&meta, &mut m, &mut rng());
        assert_eq!(plan1.total(), 128);
        // Make it hot from a *different* pair of sharers each phase: it
        // would bounce every phase without the ping-pong rule.
        let mut bounces = 0;
        for phase in 0..8 {
            let mut meta2 = MetadataRegion::new(4, 16, 16);
            let s = (phase % 8) as u16 * 2;
            meta2.record(RegionId::new(0), SocketId::new(s), 300);
            meta2.record(RegionId::new(0), SocketId::new(s + 1), 300);
            let plan = p.decide(&meta2, &mut m, &mut rng());
            bounces += plan.total() / 128;
        }
        assert!(
            bounces <= 2,
            "ping-pong rule should limit to ≤ phase/4 migrations, got {bounces}"
        );
    }

    #[test]
    fn t0_selects_only_full_sharing() {
        let mut meta = MetadataRegion::new(4, 16, 0);
        record_sharers(&mut meta, 0, 16, 1); // all sockets → selected
        record_sharers(&mut meta, 1, 15, 1_000_000); // hot but 15 sharers → not selected
        let mut m = map();
        let mut p = ThresholdPolicy::new(PolicyConfig::t0(16), 4, true);
        let plan = p.decide(&meta, &mut m, &mut rng());
        assert_eq!(m.region_location(RegionId::new(0)), Location::Pool);
        assert!(!m.region_location(RegionId::new(1)).is_pool());
        assert_eq!(plan.to_pool(), 128);
    }

    #[test]
    fn thresholds_adapt_up_and_down() {
        let mut cfg = config();
        cfg.migration_limit_pages = 128; // 1 region
        let mut p = ThresholdPolicy::new(cfg, 64, true);
        let mut m = PageMap::from_fn(64 * 128, 64 * 128, |_| socket(0));
        // Many candidates → HI doubles.
        let mut meta = MetadataRegion::new(64, 16, 16);
        for r in 0..64 {
            record_sharers(&mut meta, r, 16, 50);
        }
        let hi0 = p.hi();
        p.decide(&meta, &mut m, &mut rng());
        assert!(p.hi() > hi0, "HI should rise under candidate pressure");
        // No candidates → HI halves.
        let empty = MetadataRegion::new(64, 16, 16);
        let hi1 = p.hi();
        p.decide(&empty, &mut m, &mut rng());
        assert!(p.hi() < hi1, "HI should fall when nothing qualifies");
        assert!(p.lo() >= cfg.lo_init);
    }

    #[test]
    fn plan_apply_replays_moves() {
        let mut meta = MetadataRegion::new(4, 16, 16);
        record_sharers(&mut meta, 0, 16, 50);
        let mut live = map();
        let snapshot = live.clone();
        let mut p = ThresholdPolicy::new(config(), 4, true);
        let plan = p.decide(&meta, &mut live, &mut rng());
        let mut replay = snapshot;
        plan.apply(&mut replay);
        for pg in 0..replay.len() {
            assert_eq!(
                replay.location(PageId::new(pg)),
                live.location(PageId::new(pg))
            );
        }
    }

    #[test]
    fn scaled_config_constructors() {
        let t16 = PolicyConfig::t16_scaled(8_000);
        assert_eq!(t16.hi_init, 8_000);
        assert_eq!(t16.hi_min, 1_000);
        assert!(!t16.t0);
        let t0 = PolicyConfig::t0(16);
        assert!(t0.t0);
        assert_eq!(t0.pool_sharer_threshold, 16);
    }
}
