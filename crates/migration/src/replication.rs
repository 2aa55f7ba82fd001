//! Selective page replication (§V-F): the alternative technique the paper
//! compares memory pooling against, and suggests as a complement.
//!
//! Read-only, widely shared regions are *replicated* into each sharing
//! socket's local memory, converting their remote accesses into local ones
//! at the cost of memory capacity (one copy per sharer). Replicas of a
//! region collapse the moment any socket writes it — the software-coherence
//! cost the paper argues makes replication untenable for read-write sharing
//! (BFS-style workloads), while capacity makes it expensive for TC-style
//! workloads where 60 % of the dataset is widely shared.

use std::collections::BTreeMap;

use starnuma_types::{RegionId, SocketId, REGION_PAGES};

use crate::tracker::MetadataRegion;

/// Configuration of the replication policy.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ReplicationConfig {
    /// Minimum sharer count for a region to be worth replicating.
    pub min_sharers: u32,
    /// Per-socket replica-capacity budget in 4 KiB pages (the "memory
    /// capacity waste is not a concern" knob of §V-F).
    pub capacity_pages_per_socket: u64,
}

impl ReplicationConfig {
    /// A reasonable default: replicate 8+-sharer read-only regions, with a
    /// per-socket replica budget equal to `frac` of the footprint.
    pub fn with_budget_frac(footprint_pages: u64, frac: f64) -> Self {
        ReplicationConfig {
            min_sharers: 8,
            capacity_pages_per_socket: ((footprint_pages as f64) * frac) as u64,
        }
    }
}

/// Replication statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReplicationStats {
    /// Regions replicated (cumulative).
    pub regions_replicated: u64,
    /// Replica collapses caused by writes (cumulative).
    pub collapses: u64,
    /// Replication attempts rejected for lack of capacity.
    pub capacity_rejections: u64,
    /// Peak total replica pages across all sockets.
    pub peak_replica_pages: u64,
}

/// The live replica directory: which sockets hold a copy of which region.
#[derive(Clone, Debug)]
pub struct ReplicaMap {
    config: ReplicationConfig,
    masks: BTreeMap<RegionId, u32>,
    used_pages: Vec<u64>,
    total_pages: u64,
    stats: ReplicationStats,
}

impl ReplicaMap {
    /// Creates an empty replica directory for `num_sockets` sockets.
    pub fn new(num_sockets: usize, config: ReplicationConfig) -> Self {
        ReplicaMap {
            config,
            masks: BTreeMap::new(),
            used_pages: vec![0; num_sockets],
            total_pages: 0,
            stats: ReplicationStats::default(),
        }
    }

    /// Whether `socket` holds a replica of `region`.
    pub fn has_replica(&self, region: RegionId, socket: SocketId) -> bool {
        self.masks
            .get(&region)
            .is_some_and(|m| m & (1 << socket.index()) != 0)
    }

    /// Whether any socket holds a replica of `region`.
    pub fn is_replicated(&self, region: RegionId) -> bool {
        self.masks.contains_key(&region)
    }

    /// Total replica pages currently held across all sockets.
    pub fn replica_pages(&self) -> u64 {
        self.total_pages
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ReplicationStats {
        self.stats
    }

    /// One policy pass: replicate read-only regions with at least
    /// `min_sharers` observed sharers into every sharer's memory, subject to
    /// each socket's capacity budget. Returns how many regions were newly
    /// replicated.
    pub fn decide(&mut self, meta: &MetadataRegion) -> u64 {
        let mut newly = 0;
        for (region, entry) in meta.iter() {
            if entry.written
                || entry.sharer_count() < self.config.min_sharers
                || self.masks.contains_key(&region)
            {
                continue;
            }
            // Capacity check at every sharer.
            let sharers = entry.sharers(meta.num_sockets());
            let fits = sharers.iter().all(|s| {
                self.used_pages[s.index() as usize] + REGION_PAGES as u64
                    <= self.config.capacity_pages_per_socket
            });
            if !fits {
                self.stats.capacity_rejections += 1;
                continue;
            }
            let mut mask = 0u32;
            for s in &sharers {
                mask |= 1 << s.index();
                self.used_pages[s.index() as usize] += REGION_PAGES as u64;
                self.total_pages += REGION_PAGES as u64;
            }
            self.masks.insert(region, mask);
            self.stats.regions_replicated += 1;
            newly += 1;
        }
        self.stats.peak_replica_pages = self.stats.peak_replica_pages.max(self.total_pages);
        newly
    }

    /// A write hit a replicated region: drop every replica (software
    /// coherence collapse). Returns the sockets whose copies were
    /// invalidated, empty if the region was not replicated.
    pub fn collapse_on_write(&mut self, region: RegionId) -> Vec<SocketId> {
        let Some(mask) = self.masks.remove(&region) else {
            return Vec::new();
        };
        self.stats.collapses += 1;
        let mut victims = Vec::new();
        for s in 0..self.used_pages.len() as u16 {
            if mask & (1 << s) != 0 {
                self.used_pages[s as usize] -= REGION_PAGES as u64;
                self.total_pages -= REGION_PAGES as u64;
                victims.push(SocketId::new(s));
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_with(region: u64, sharers: u16, count: u32, written: bool) -> MetadataRegion {
        let mut m = MetadataRegion::new(8, 16, 16);
        for s in 0..sharers {
            m.record(RegionId::new(region), SocketId::new(s), count);
        }
        if written {
            m.mark_written(RegionId::new(region));
        }
        m
    }

    fn config() -> ReplicationConfig {
        ReplicationConfig {
            min_sharers: 8,
            capacity_pages_per_socket: 1024,
        }
    }

    #[test]
    fn read_only_wide_region_replicates_to_all_sharers() {
        let mut map = ReplicaMap::new(16, config());
        let newly = map.decide(&meta_with(0, 12, 5, false));
        assert_eq!(newly, 1);
        assert!(map.is_replicated(RegionId::new(0)));
        for s in 0..12 {
            assert!(map.has_replica(RegionId::new(0), SocketId::new(s)));
        }
        assert!(!map.has_replica(RegionId::new(0), SocketId::new(13)));
        assert_eq!(map.replica_pages(), 12 * 128);
    }

    #[test]
    fn written_region_never_replicates() {
        let mut map = ReplicaMap::new(16, config());
        assert_eq!(map.decide(&meta_with(0, 16, 5, true)), 0);
        assert!(!map.is_replicated(RegionId::new(0)));
    }

    #[test]
    fn narrow_region_never_replicates() {
        let mut map = ReplicaMap::new(16, config());
        assert_eq!(map.decide(&meta_with(0, 4, 500, false)), 0);
    }

    #[test]
    fn capacity_budget_enforced() {
        let mut map = ReplicaMap::new(
            16,
            ReplicationConfig {
                min_sharers: 8,
                capacity_pages_per_socket: 128, // one region per socket
            },
        );
        let mut meta = MetadataRegion::new(8, 16, 16);
        for r in 0..3u64 {
            for s in 0..16u16 {
                meta.record(RegionId::new(r), SocketId::new(s), 2);
            }
        }
        assert_eq!(map.decide(&meta), 1, "only the first region fits");
        assert_eq!(map.stats().capacity_rejections, 2);
    }

    #[test]
    fn write_collapses_all_replicas_and_frees_capacity() {
        let mut map = ReplicaMap::new(16, config());
        map.decide(&meta_with(0, 10, 5, false));
        let victims = map.collapse_on_write(RegionId::new(0));
        assert_eq!(victims.len(), 10);
        assert!(!map.is_replicated(RegionId::new(0)));
        assert_eq!(map.replica_pages(), 0);
        assert_eq!(map.stats().collapses, 1);
        // A second collapse is a no-op.
        assert!(map.collapse_on_write(RegionId::new(0)).is_empty());
        assert_eq!(map.stats().collapses, 1);
    }

    #[test]
    fn peak_pages_tracked() {
        let mut map = ReplicaMap::new(16, config());
        map.decide(&meta_with(0, 10, 5, false));
        map.collapse_on_write(RegionId::new(0));
        assert_eq!(map.stats().peak_replica_pages, 10 * 128);
        assert_eq!(map.replica_pages(), 0);
    }

    #[test]
    fn budget_frac_constructor() {
        let c = ReplicationConfig::with_budget_frac(32_768, 0.25);
        assert_eq!(c.capacity_pages_per_socket, 8_192);
        assert_eq!(c.min_sharers, 8);
    }

    #[test]
    fn already_replicated_region_is_skipped() {
        let mut map = ReplicaMap::new(16, config());
        let meta = meta_with(0, 10, 5, false);
        assert_eq!(map.decide(&meta), 1);
        assert_eq!(map.decide(&meta), 0, "idempotent across phases");
        assert_eq!(map.stats().regions_replicated, 1);
    }
}
