//! Banked DRAM channel and interleaved multi-channel module models.

use starnuma_types::{BlockAddr, Cycles, GbPerSec};

use crate::server::{FifoServer, ServerStats, BLOCK_BYTES};

/// DRAM bank/bus timing parameters.
///
/// Only parameters that create *contention* are modeled — fixed access
/// latency is part of the topology latency model's 80 ns `mem_base`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DramTimings {
    /// Number of banks per channel.
    pub banks: usize,
    /// Bank occupancy of a row-buffer hit (cycles the bank is unavailable).
    pub bank_hit_occupancy: Cycles,
    /// Bank occupancy of a row-buffer miss (precharge + activate + CAS).
    pub bank_miss_occupancy: Cycles,
    /// Number of consecutive blocks mapped to the same DRAM row.
    pub blocks_per_row: u64,
}

impl DramTimings {
    /// DDR5-4800-like timings at the simulator's 2.4 GHz timebase:
    /// 32 banks (8 bank groups × 4), ~16 ns hit / ~45 ns (tRC) miss
    /// occupancy, 2 KiB rows. Throughput is bank-limited for random rows
    /// (32 banks / 108 cycles ≈ 45 GB/s) and bus-limited for streaming.
    pub fn ddr5_4800() -> Self {
        DramTimings {
            banks: 32,
            bank_hit_occupancy: Cycles::new(38),   // ~16 ns
            bank_miss_occupancy: Cycles::new(108), // ~45 ns (tRC)
            blocks_per_row: 32,                    // 2 KiB rows of 64 B blocks
        }
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        Self::ddr5_4800()
    }
}

/// One DRAM channel: a shared data bus (FIFO bandwidth server) plus per-bank
/// occupancy with a last-row row-buffer model.
///
/// [`DramChannel::access`] returns the *contention delay* the access suffers
/// (bank busy and/or bus busy); the fixed DRAM access latency is part of the
/// analytic unloaded latency.
///
/// A block's row is `bfn / blocks_per_row` and the row's bank is
/// `row % banks`; both counts are powers of two, so the channel takes them
/// with a shift and a mask.
#[derive(Clone, Debug)]
pub struct DramChannel {
    bus: FifoServer,
    timings: DramTimings,
    /// `log2(timings.blocks_per_row)`.
    row_shift: u32,
    /// `timings.banks - 1`.
    bank_mask: u64,
    bank_busy_until: Vec<Cycles>,
    bank_open_row: Vec<Option<u64>>,
    row_hits: u64,
    row_misses: u64,
}

impl DramChannel {
    /// Creates an idle channel with the given data-bus bandwidth and timings.
    ///
    /// # Panics
    ///
    /// Panics if `timings.banks` or `timings.blocks_per_row` is not a power
    /// of two.
    pub fn new(bandwidth: GbPerSec, timings: DramTimings) -> Self {
        assert!(
            timings.banks.is_power_of_two(),
            "bank count must be a power of two, got {}",
            timings.banks
        );
        assert!(
            timings.blocks_per_row.is_power_of_two(),
            "blocks per row must be a power of two, got {}",
            timings.blocks_per_row
        );
        DramChannel {
            bus: FifoServer::new(bandwidth),
            row_shift: timings.blocks_per_row.trailing_zeros(),
            bank_mask: timings.banks as u64 - 1,
            bank_busy_until: vec![Cycles::ZERO; timings.banks],
            bank_open_row: vec![None; timings.banks],
            timings,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// Services a 64 B block access arriving at `now`; returns its contention
    /// delay.
    pub fn access(&mut self, now: Cycles, block: BlockAddr) -> Cycles {
        let (row, bank) = self.row_and_bank(block);
        let hit = self.bank_open_row[bank] == Some(row);
        if hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
        }
        let occupancy = if hit {
            self.timings.bank_hit_occupancy
        } else {
            self.timings.bank_miss_occupancy
        };
        // Wait for the bank, then for the data bus.
        let bank_ready = self.bank_busy_until[bank].max(now);
        let bank_wait = bank_ready - now;
        self.bank_busy_until[bank] = bank_ready + occupancy;
        self.bank_open_row[bank] = Some(row);
        let bus_wait = self.bus.enqueue(bank_ready, BLOCK_BYTES);
        bank_wait + bus_wait
    }

    /// The DRAM row holding `block` and that row's bank.
    fn row_and_bank(&self, block: BlockAddr) -> (u64, usize) {
        let row = block.bfn() >> self.row_shift;
        (row, (row & self.bank_mask) as usize)
    }

    /// Row-buffer hit rate observed so far (0 if no accesses).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Data-bus statistics.
    pub fn bus_stats(&self) -> ServerStats {
        self.bus.stats()
    }

    /// Resets the channel to idle and clears statistics.
    pub fn reset(&mut self) {
        self.bus.reset();
        self.bank_busy_until.fill(Cycles::ZERO);
        self.bank_open_row.fill(None);
        self.row_hits = 0;
        self.row_misses = 0;
    }
}

/// A group of DRAM channels with block-address interleaving: one socket's
/// local memory (1 channel scaled down) or the pool's MHD (2 channels
/// scaled down, §III-A).
///
/// Block `b` goes to channel `b % channels`; the channel count is a power
/// of two, so the module takes it with a mask. (The timing model builds 1
/// and 2 channels; Table I's full-scale 6-channel socket would need a
/// 6-way interleave, which is rejected.)
#[derive(Clone, Debug)]
pub struct MemoryModule {
    channels: Vec<DramChannel>,
    /// `channels.len() - 1`.
    channel_mask: u64,
}

impl MemoryModule {
    /// Creates a module of `channels` identical DRAM channels, splitting
    /// `total_bandwidth` evenly among them.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or not a power of two, or if
    /// [`DramChannel::new`] rejects `timings`.
    pub fn new(channels: usize, total_bandwidth: GbPerSec, timings: DramTimings) -> Self {
        assert!(channels > 0, "a memory module needs at least one channel");
        assert!(
            channels.is_power_of_two(),
            "channel count must be a power of two, got {channels}"
        );
        let per_channel = total_bandwidth / channels as f64;
        MemoryModule {
            channels: (0..channels)
                .map(|_| DramChannel::new(per_channel, timings))
                .collect(),
            channel_mask: channels as u64 - 1,
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Data-bus bandwidth of each channel.
    pub fn channel_bandwidth(&self) -> GbPerSec {
        self.channels[0].bus.bandwidth()
    }

    /// Services a block access arriving at `now`; returns its contention
    /// delay. Blocks are interleaved across channels.
    pub fn access(&mut self, now: Cycles, block: BlockAddr) -> Cycles {
        let idx = self.channel_of(block);
        self.channels[idx].access(now, block)
    }

    /// The channel `block` is interleaved to.
    fn channel_of(&self, block: BlockAddr) -> usize {
        (block.bfn() & self.channel_mask) as usize
    }

    /// Aggregated data-bus statistics across all channels.
    pub fn stats(&self) -> ServerStats {
        let mut agg = ServerStats::default();
        for ch in &self.channels {
            let s = ch.bus_stats();
            agg.transfers += s.transfers;
            agg.bytes += s.bytes;
            agg.busy_cycles += s.busy_cycles;
            agg.wait_cycles += s.wait_cycles;
        }
        agg
    }

    /// Resets all channels.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_types::SimRng;

    fn channel() -> DramChannel {
        DramChannel::new(GbPerSec::new(25.0), DramTimings::ddr5_4800())
    }

    #[test]
    fn first_access_only_pays_bus_if_idle() {
        let mut ch = channel();
        // Idle bank and bus: zero contention delay.
        assert_eq!(ch.access(Cycles::new(0), BlockAddr::new(0)), Cycles::ZERO);
    }

    #[test]
    fn same_bank_accesses_serialize() {
        let mut ch = channel();
        ch.access(Cycles::new(0), BlockAddr::new(0));
        // Same row → same bank: second access waits for the bank (hit occ. is
        // charged to the *first* access's occupancy window).
        let wait = ch.access(Cycles::new(0), BlockAddr::new(1));
        assert!(wait > Cycles::ZERO);
    }

    #[test]
    fn different_banks_overlap() {
        let mut ch = channel();
        ch.access(Cycles::new(0), BlockAddr::new(0)); // row 0 → bank 0
        let wait = ch.access(Cycles::new(0), BlockAddr::new(32)); // row 1 → bank 1
                                                                  // Only possible wait is the shared bus, which is cheaper than a bank.
        assert!(wait < DramTimings::ddr5_4800().bank_hit_occupancy);
    }

    #[test]
    fn row_buffer_hits_tracked() {
        let mut ch = channel();
        ch.access(Cycles::new(0), BlockAddr::new(0)); // miss (cold)
        ch.access(Cycles::new(1000), BlockAddr::new(1)); // hit (same row)
        ch.access(Cycles::new(2000), BlockAddr::new(32 * 16)); // same bank, new row: miss
        assert!((ch.row_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_channel() {
        let mut ch = channel();
        ch.access(Cycles::new(0), BlockAddr::new(0));
        ch.reset();
        assert_eq!(ch.row_hit_rate(), 0.0);
        assert_eq!(ch.bus_stats().transfers, 0);
    }

    #[test]
    fn module_interleaves_blocks() {
        let mut m = MemoryModule::new(2, GbPerSec::new(50.0), DramTimings::ddr5_4800());
        assert_eq!(m.channel_count(), 2);
        // Consecutive blocks land on different channels: both see idle state.
        assert_eq!(m.access(Cycles::new(0), BlockAddr::new(0)), Cycles::ZERO);
        assert_eq!(m.access(Cycles::new(0), BlockAddr::new(1)), Cycles::ZERO);
        assert_eq!(m.stats().transfers, 2);
    }

    #[test]
    fn module_aggregates_stats_and_resets() {
        let mut m = MemoryModule::new(2, GbPerSec::new(50.0), DramTimings::ddr5_4800());
        for i in 0..10 {
            m.access(Cycles::new(0), BlockAddr::new(i));
        }
        assert_eq!(m.stats().transfers, 10);
        assert_eq!(m.stats().bytes, 640);
        m.reset();
        assert_eq!(m.stats().transfers, 0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn module_rejects_zero_channels() {
        let _ = MemoryModule::new(0, GbPerSec::new(25.0), DramTimings::ddr5_4800());
    }

    /// Seeded block frame numbers: small, row- and bank-crossing, and
    /// spread over the whole 64-bit range.
    fn seeded_blocks() -> Vec<BlockAddr> {
        let mut rng = SimRng::seed_from_u64(0x5eed);
        (0..4096u64)
            .chain((0..4096).map(|_| rng.next_u64() >> rng.gen_range(0..64usize)))
            .chain([u64::MAX, u64::MAX - 1, 1 << 63])
            .map(BlockAddr::new)
            .collect()
    }

    #[test]
    fn shift_and_mask_indices_equal_the_division_formulas() {
        let blocks = seeded_blocks();
        for banks in [1, 2, 4, 8, 16, 32, 64] {
            for blocks_per_row in [1, 2, 8, 32, 128] {
                let timings = DramTimings {
                    banks,
                    blocks_per_row,
                    ..DramTimings::ddr5_4800()
                };
                let ch = DramChannel::new(GbPerSec::new(25.0), timings);
                for &b in &blocks {
                    let row = b.bfn() / blocks_per_row;
                    assert_eq!(
                        ch.row_and_bank(b),
                        (row, (row as usize) % banks),
                        "{banks} banks, {blocks_per_row} blocks per row, {b:?}"
                    );
                }
            }
        }
        for channels in [1, 2, 4, 8, 16] {
            let m = MemoryModule::new(channels, GbPerSec::new(50.0), DramTimings::ddr5_4800());
            for &b in &blocks {
                assert_eq!(
                    m.channel_of(b),
                    (b.bfn() % channels as u64) as usize,
                    "{channels} channels, {b:?}"
                );
            }
        }
    }

    #[test]
    fn channel_bus_stores_its_block_occupancy() {
        let m = MemoryModule::new(2, GbPerSec::new(76.8), DramTimings::ddr5_4800());
        assert_eq!(m.channel_bandwidth(), GbPerSec::new(38.4));
        let mut idle = m.clone();
        idle.access(Cycles::new(0), BlockAddr::new(0));
        assert_eq!(
            idle.stats().busy_cycles,
            m.channel_bandwidth().service_cycles(BLOCK_BYTES)
        );
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two, got 24")]
    fn channel_rejects_non_power_of_two_banks() {
        let timings = DramTimings {
            banks: 24,
            ..DramTimings::ddr5_4800()
        };
        let _ = DramChannel::new(GbPerSec::new(25.0), timings);
    }

    #[test]
    #[should_panic(expected = "blocks per row must be a power of two, got 48")]
    fn channel_rejects_non_power_of_two_rows() {
        let timings = DramTimings {
            blocks_per_row: 48,
            ..DramTimings::ddr5_4800()
        };
        let _ = DramChannel::new(GbPerSec::new(25.0), timings);
    }

    #[test]
    #[should_panic(expected = "channel count must be a power of two, got 6")]
    fn module_rejects_non_power_of_two_channels() {
        let _ = MemoryModule::new(6, GbPerSec::new(150.0), DramTimings::ddr5_4800());
    }

    #[test]
    fn heavy_load_builds_queuing() {
        let mut m = MemoryModule::new(1, GbPerSec::new(25.0), DramTimings::ddr5_4800());
        let mut total_wait = Cycles::ZERO;
        for i in 0..1000u64 {
            // All arriving at once: deep queue must form.
            total_wait += m.access(Cycles::new(0), BlockAddr::new(i * 64));
        }
        assert!(total_wait.raw() > 100_000, "expected heavy queuing");
    }
}
