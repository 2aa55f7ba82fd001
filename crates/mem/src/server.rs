//! A FIFO bandwidth server: the primitive behind every link and channel.

use starnuma_obs::{MetricsFrame, Observe};
use starnuma_types::{Cycles, GbPerSec};

/// Bytes on the wire for a request message (command + address).
pub const REQ_BYTES: u64 = 16;
/// Bytes a DRAM data bus moves per access: one 64 B block.
pub const BLOCK_BYTES: u64 = 64;
/// Bytes on the wire for a data-carrying message (64 B block + header).
pub const DATA_BYTES: u64 = 72;

/// Cumulative utilization statistics of a [`FifoServer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Total transfers serviced.
    pub transfers: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total cycles the server was busy transferring.
    pub busy_cycles: Cycles,
    /// Total cycles transfers spent waiting for the server.
    pub wait_cycles: Cycles,
}

impl Observe for ServerStats {
    fn observe(&self, prefix: &str, frame: &mut MetricsFrame) {
        frame.add_counter(&format!("{prefix}.transfers"), self.transfers);
        frame.add_counter(&format!("{prefix}.bytes"), self.bytes);
        frame.add_counter(&format!("{prefix}.busy_cycles"), self.busy_cycles.raw());
        frame.add_counter(&format!("{prefix}.wait_cycles"), self.wait_cycles.raw());
    }
}

/// A work-conserving FIFO server with a fixed per-direction bandwidth.
///
/// A transfer of `b` bytes occupies the server for `ceil(b / rate)` cycles;
/// a transfer arriving while the server is busy waits until it drains. The
/// returned value of [`FifoServer::enqueue`] is that *waiting time* — the
/// contention delay the transfer suffers before its (separately accounted)
/// propagation latency.
///
/// Transfers must be enqueued in nondecreasing arrival-time order per server;
/// the discrete-event simulator guarantees this by processing events in
/// timestamp order.
///
/// The occupancy of the three message sizes the simulator sends per access
/// ([`REQ_BYTES`], [`BLOCK_BYTES`], [`DATA_BYTES`]) is computed once, by
/// [`FifoServer::new`]; any other size (a migrated page) is computed when
/// it is enqueued.
#[derive(Clone, Debug)]
pub struct FifoServer {
    bandwidth: GbPerSec,
    /// `bandwidth.service_cycles` of [`REQ_BYTES`], [`BLOCK_BYTES`] and
    /// [`DATA_BYTES`], in that order.
    occupancy: [Cycles; 3],
    busy_until: Cycles,
    stats: ServerStats,
}

impl FifoServer {
    /// Creates an idle server with the given per-direction bandwidth.
    pub fn new(bandwidth: GbPerSec) -> Self {
        FifoServer {
            bandwidth,
            occupancy: [REQ_BYTES, BLOCK_BYTES, DATA_BYTES].map(|b| bandwidth.service_cycles(b)),
            busy_until: Cycles::ZERO,
            stats: ServerStats::default(),
        }
    }

    /// Returns the configured bandwidth.
    pub fn bandwidth(&self) -> GbPerSec {
        self.bandwidth
    }

    /// Returns the time the server becomes idle.
    pub fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Cycles a transfer of `bytes` occupies the server:
    /// `bandwidth().service_cycles(bytes)`, read from the values
    /// [`FifoServer::new`] stored for the per-access message sizes.
    pub fn occupancy(&self, bytes: u64) -> Cycles {
        match bytes {
            REQ_BYTES => self.occupancy[0],
            BLOCK_BYTES => self.occupancy[1],
            DATA_BYTES => self.occupancy[2],
            _ => self.bandwidth.service_cycles(bytes),
        }
    }

    /// Enqueues a transfer of `bytes` arriving at `now` and returns the
    /// queuing delay it suffers (0 when the server is idle).
    pub fn enqueue(&mut self, now: Cycles, bytes: u64) -> Cycles {
        let start = self.busy_until.max(now);
        let wait = start - now;
        let occupancy = self.occupancy(bytes);
        self.busy_until = start + occupancy;
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        self.stats.busy_cycles += occupancy;
        self.stats.wait_cycles += wait;
        wait
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Resets the server to idle and clears statistics (used between
    /// simulation phases).
    pub fn reset(&mut self) {
        self.busy_until = Cycles::ZERO;
        self.stats = ServerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> FifoServer {
        // 24 GB/s at 2.4 GHz = 10 bytes/cycle → 64 B occupies 7 cycles.
        FifoServer::new(GbPerSec::new(24.0))
    }

    #[test]
    fn idle_server_no_wait() {
        let mut s = server();
        assert_eq!(s.enqueue(Cycles::new(100), 64), Cycles::ZERO);
        assert_eq!(s.busy_until(), Cycles::new(107));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut s = server();
        assert_eq!(s.enqueue(Cycles::new(0), 64), Cycles::ZERO);
        assert_eq!(s.enqueue(Cycles::new(0), 64), Cycles::new(7));
        assert_eq!(s.enqueue(Cycles::new(0), 64), Cycles::new(14));
        assert_eq!(s.busy_until(), Cycles::new(21));
    }

    #[test]
    fn spaced_transfers_do_not_queue() {
        let mut s = server();
        assert_eq!(s.enqueue(Cycles::new(0), 64), Cycles::ZERO);
        assert_eq!(s.enqueue(Cycles::new(50), 64), Cycles::ZERO);
        assert_eq!(s.busy_until(), Cycles::new(57));
    }

    #[test]
    fn partial_overlap() {
        let mut s = server();
        s.enqueue(Cycles::new(0), 64); // busy until 7
        assert_eq!(s.enqueue(Cycles::new(4), 64), Cycles::new(3));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = server();
        s.enqueue(Cycles::new(0), 64);
        s.enqueue(Cycles::new(0), 64);
        let st = s.stats();
        assert_eq!(st.transfers, 2);
        assert_eq!(st.bytes, 128);
        assert_eq!(st.busy_cycles, Cycles::new(14));
        assert_eq!(st.wait_cycles, Cycles::new(7));
    }

    #[test]
    fn reset_clears_state() {
        let mut s = server();
        s.enqueue(Cycles::new(0), 64);
        s.reset();
        assert_eq!(s.busy_until(), Cycles::ZERO);
        assert_eq!(s.stats().transfers, 0);
        assert_eq!(s.stats(), ServerStats::default());
    }

    #[test]
    fn stored_occupancy_equals_service_cycles() {
        // Table II's link and DRAM-bus rates with their §V-D and §V-G
        // scalings, then a seeded sweep; at every size the simulator sends
        // and at sizes it does not (a byte, a page, one byte short of it).
        let mut rng = starnuma_types::SimRng::seed_from_u64(0x0cc);
        let table = [
            3.0,
            3.0 * 26.4 / 20.8,
            3.0 * 17.0 / 13.0,
            6.0,
            12.0,
            12.0 * 17.0 / 13.0,
            38.4,
        ];
        let sweep = (0..500).map(|_| 0.1 + 200.0 * rng.gen_f64());
        for gbps in table.into_iter().chain(table.map(|g| g * 2.0)).chain(sweep) {
            let bw = GbPerSec::new(gbps);
            let server = FifoServer::new(bw);
            for bytes in [1, REQ_BYTES, BLOCK_BYTES, DATA_BYTES, 4095, 4096] {
                assert_eq!(
                    server.occupancy(bytes),
                    bw.service_cycles(bytes),
                    "{gbps} GB/s, {bytes} B"
                );
                let mut idle = server.clone();
                idle.enqueue(Cycles::new(5), bytes);
                assert_eq!(idle.busy_until(), Cycles::new(5) + bw.service_cycles(bytes));
            }
        }
    }

    #[test]
    fn wait_scales_inversely_with_bandwidth() {
        let mut slow = FifoServer::new(GbPerSec::new(3.0)); // scaled UPI
        let mut fast = FifoServer::new(GbPerSec::new(12.0)); // 4× NUMALink bundle
        slow.enqueue(Cycles::new(0), 64);
        fast.enqueue(Cycles::new(0), 64);
        let w_slow = slow.enqueue(Cycles::new(0), 64);
        let w_fast = fast.enqueue(Cycles::new(0), 64);
        assert!(w_slow.raw() > 3 * w_fast.raw());
    }
}
