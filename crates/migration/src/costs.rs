//! Migration overhead models (§III-D3, §III-D4, §IV-C).

use starnuma_types::{Cycles, Nanos, PAGE_SIZE};

/// Cost parameters of performing migrations.
///
/// With the hardware-supported TLB shootdowns the paper adopts from
/// DiDi \[64\], victim cores pay nothing; the migration-initiating core pays
/// 3 000 cycles per page, and the page's data must physically move
/// (4 KiB over the interconnect). Accesses to an in-flight page stall until
/// the migration completes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MigrationCosts {
    /// Initiator-core cycles per migrated page (shootdown initiation +
    /// completion wait; 3 k cycles in the paper).
    pub initiator_cycles_per_page: Cycles,
    /// Bytes moved per page (the page itself).
    pub bytes_per_page: u64,
}

impl MigrationCosts {
    /// The paper's cost model.
    pub fn paper() -> Self {
        MigrationCosts {
            initiator_cycles_per_page: Cycles::new(3_000),
            bytes_per_page: PAGE_SIZE as u64,
        }
    }

    /// Total initiator-core busy time for `pages` migrations.
    pub fn initiator_cost(&self, pages: u64) -> Cycles {
        self.initiator_cycles_per_page * pages
    }
}

impl Default for MigrationCosts {
    fn default() -> Self {
        Self::paper()
    }
}

/// Runtime of one Algorithm 1 metadata scan (§III-D4): a single pass over
/// `entries` tracker entries, each costing between 2 and 10 cycles depending
/// on metadata-memory latency. The paper profiles 64–320 M cycles for the
/// full-scale 32 M-entry metadata region.
///
/// `metadata_latency` interpolates between the best case (local, ~2
/// cycles/entry) and worst case (remote, ~10 cycles/entry).
///
/// # Examples
///
/// ```
/// use starnuma_migration::scan_cost_cycles;
/// use starnuma_types::Nanos;
///
/// // Full-scale system: 32 M entries, local metadata.
/// let best = scan_cost_cycles(32_000_000, Nanos::new(80.0));
/// let worst = scan_cost_cycles(32_000_000, Nanos::new(360.0));
/// assert!(best.raw() >= 64_000_000);
/// assert!(worst.raw() <= 320_000_000);
/// ```
pub fn scan_cost_cycles(entries: u64, metadata_latency: Nanos) -> Cycles {
    // 2 cycles/entry at 80 ns metadata latency, 10 cycles/entry at 360 ns —
    // cache-line batching (8 entries/line) hides most of the raw latency.
    let lat = metadata_latency.raw().clamp(80.0, 360.0);
    let per_entry = 2.0 + (lat - 80.0) / (360.0 - 80.0) * 8.0;
    Cycles::new((entries as f64 * per_entry).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_costs() {
        let c = MigrationCosts::paper();
        assert_eq!(c.initiator_cycles_per_page, Cycles::new(3_000));
        assert_eq!(c.bytes_per_page, 4096);
        assert_eq!(c.initiator_cost(10), Cycles::new(30_000));
    }

    #[test]
    fn scan_cost_matches_paper_range() {
        // §III-D4: 32 M entries → 64–320 M cycles min/max.
        assert_eq!(
            scan_cost_cycles(32_000_000, Nanos::new(80.0)),
            Cycles::new(64_000_000)
        );
        assert_eq!(
            scan_cost_cycles(32_000_000, Nanos::new(360.0)),
            Cycles::new(320_000_000)
        );
    }

    #[test]
    fn scan_cost_fits_in_migration_period() {
        // The worst-case scan (320 M cycles) fits within the ≥1 B-cycle
        // migration period (§III-D4).
        let worst = scan_cost_cycles(32_000_000, Nanos::new(500.0));
        assert!(worst.raw() < 1_000_000_000);
    }

    #[test]
    fn scan_cost_scales_linearly() {
        let one = scan_cost_cycles(1_000, Nanos::new(80.0));
        let two = scan_cost_cycles(2_000, Nanos::new(80.0));
        assert_eq!(two.raw(), 2 * one.raw());
    }

    #[test]
    fn latency_is_clamped() {
        assert_eq!(
            scan_cost_cycles(100, Nanos::new(10.0)),
            scan_cost_cycles(100, Nanos::new(80.0))
        );
    }
}
