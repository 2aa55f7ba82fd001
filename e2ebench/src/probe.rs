//! Substrate probes. A shadow model (per-socket LLCs plus the directory)
//! replays each measured phase in trace order, merged across cores by
//! instruction count, and logs the calls `TimingSim`'s per-access path makes
//! into each substrate: LLC, then eviction and writeback, directory,
//! invalidations, and the memory or cache-to-cache legs. Each substrate's
//! log is then timed alone: the LLCs and directory on copies of their
//! phase-start state, links and DRAM on fresh servers (the simulator resets
//! those every phase). Access times assume no stalls (`icount × CPI`), so the
//! probes time the same kinds of calls on nearly the same inputs, not the
//! replay's exact stream; `probe.miss_ratio_vs_replay` reports how close the
//! shadow's misses come.

use std::hint::black_box;
use std::time::Instant;

use starnuma_cache::{CacheConfig, CacheOutcome, SetAssocCache};
use starnuma_coherence::{Directory, TransferKind};
use starnuma_mem::{DramTimings, FifoServer, MemoryModule};
use starnuma_migration::{MigrationCosts, PageMap, PageMove};
use starnuma_topology::{Network, SystemParams};
use starnuma_trace::PhaseTrace;
use starnuma_types::{BlockAddr, Cycles, GbPerSec, Location, MemAccess, SocketId};

// The constants below restate private ones of `starnuma_sim::timing`.
/// Bytes on the wire for a request message.
const REQ_BYTES: u64 = 16;
/// Bytes on the wire for a data-carrying message.
const DATA_BYTES: u64 = 72;
/// Raw over effective DRAM bandwidth, as `TimingSim::new` builds channels.
const RAW_OVER_EFFECTIVE: f64 = 38.4 / 25.0;

#[derive(Clone, Copy, Debug)]
enum LlcCall {
    Access(usize, BlockAddr, bool),
    Invalidate(usize, BlockAddr),
}

#[derive(Clone, Copy, Debug)]
enum DirCall {
    Access(BlockAddr, SocketId, bool, Location),
    Evict(BlockAddr, SocketId, bool),
}

/// The calls one phase makes into each substrate, in order.
#[derive(Default)]
pub struct Log {
    llc: Vec<LlcCall>,
    dir: Vec<DirCall>,
    legs: Vec<(Location, Location)>,
    /// `(link index, arrival cycle, bytes)`.
    links: Vec<(usize, u64, u64)>,
    /// `(home, arrival cycle, block)`.
    dram: Vec<(Location, u64, BlockAddr)>,
    accesses: u64,
    misses: u64,
}

impl Log {
    /// Call counts `[llc, dir, leg, link, dram]`.
    #[cfg(test)]
    pub fn counts(&self) -> [u64; 5] {
        [
            self.llc.len() as u64,
            self.dir.len() as u64,
            self.legs.len() as u64,
            self.links.len() as u64,
            self.dram.len() as u64,
        ]
    }

    fn route(&mut self, net: &Network, from: Location, to: Location, now: u64, bytes: u64) {
        self.legs.push((from, to));
        for link in net.leg(from, to) {
            self.links.push((link.index(), now, bytes));
        }
    }
}

/// Calls made into one substrate and the host time they took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub calls: u64,
    pub ns: u64,
}

impl Layer {
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    /// Host ns this substrate costs per shadow access (calls per access
    /// times ns per call).
    pub fn ns_per_access(&self, accesses: u64) -> f64 {
        if accesses == 0 {
            0.0
        } else {
            self.ns as f64 / accesses as f64
        }
    }
}

/// Probe totals over every measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeTotals {
    pub accesses: u64,
    pub misses: u64,
    pub llc: Layer,
    pub dir: Layer,
    pub leg: Layer,
    pub link: Layer,
    pub dram: Layer,
}

pub struct Probe {
    net: Network,
    cps: usize,
    llcs: Vec<SetAssocCache>,
    dir: Directory,
    costs: MigrationCosts,
    pub totals: ProbeTotals,
}

/// The phase's accesses merged across cores by instruction count.
fn trace_order(trace: &PhaseTrace) -> Vec<&MemAccess> {
    let mut order: Vec<&MemAccess> = trace.iter().collect();
    order.sort_by_key(|a| (a.icount, a.core.index()));
    order
}

fn timed<T>(calls: &[T], mut f: impl FnMut(&T)) -> Layer {
    let start = Instant::now();
    for c in calls {
        f(c);
    }
    Layer {
        calls: calls.len() as u64,
        ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

impl Probe {
    pub fn new(params: &SystemParams) -> Self {
        Probe {
            net: Network::new(params),
            cps: params.cores_per_socket,
            llcs: (0..params.num_sockets)
                .map(|_| SetAssocCache::new(CacheConfig::scaled_llc()))
                .collect(),
            dir: Directory::new(params.num_sockets),
            costs: MigrationCosts::paper(),
            totals: ProbeTotals::default(),
        }
    }

    /// Brings the shadow through the warm-up phase without logging.
    pub fn warm(&mut self, trace: &PhaseTrace, map: &PageMap) {
        for a in trace_order(trace) {
            self.access(0, a, map, None);
        }
    }

    /// Logs one measured phase, times each substrate's calls, and adds them
    /// to the totals. `map` holds the phase's placement after its modeled
    /// `moves`.
    pub fn phase(&mut self, trace: &PhaseTrace, map: &PageMap, moves: &[PageMove], cpi: f64) {
        let llcs = self.llcs.clone();
        let dir = self.dir.clone();
        let log = self.log_phase(trace, map, moves, cpi);
        self.time(&log, llcs, dir);
    }

    /// Advances the shadow through one phase and returns its call log.
    pub fn log_phase(
        &mut self,
        trace: &PhaseTrace,
        map: &PageMap,
        moves: &[PageMove],
        cpi: f64,
    ) -> Log {
        let mut log = Log::default();
        for (i, mv) in moves.iter().enumerate() {
            let start = i as u64 * self.costs.initiator_cycles_per_page.raw();
            log.route(&self.net, mv.from, mv.to, start, self.costs.bytes_per_page);
        }
        for a in trace_order(trace) {
            self.access((a.icount as f64 * cpi) as u64, a, map, Some(&mut log));
        }
        log
    }

    /// One access through the shadow, mirroring `TimingSim`'s per-access
    /// path; logs its substrate calls when `log` is given.
    fn access(&mut self, now: u64, a: &MemAccess, map: &PageMap, mut log: Option<&mut Log>) {
        let socket = a.core.socket(self.cps);
        let s = usize::from(socket.index());
        let block = a.addr.block();
        let write = a.kind.is_write();
        if let Some(log) = log.as_deref_mut() {
            log.accesses += 1;
            log.llc.push(LlcCall::Access(s, block, write));
        }
        let CacheOutcome::Miss { evicted } = self.llcs[s].access(block, write) else {
            return;
        };
        if let Some((victim, dirty)) = evicted {
            self.dir.evict(victim, socket, dirty);
            if let Some(log) = log.as_deref_mut() {
                log.dir.push(DirCall::Evict(victim, socket, dirty));
                if dirty && victim.page().pfn() < map.len() {
                    let home = map.location(victim.page());
                    log.route(&self.net, Location::Socket(socket), home, now, DATA_BYTES);
                    log.dram.push((home, now, victim));
                }
            }
        }
        let home = map.location(a.addr.page());
        let coh = self.dir.access(block, socket, write, home);
        for inv in &coh.invalidations {
            self.llcs[usize::from(inv.index())].invalidate(block);
        }
        let Some(log) = log else { return };
        log.misses += 1;
        log.dir.push(DirCall::Access(block, socket, write, home));
        for inv in &coh.invalidations {
            log.llc
                .push(LlcCall::Invalidate(usize::from(inv.index()), block));
            log.route(&self.net, home, Location::Socket(*inv), now, REQ_BYTES);
        }
        let r = Location::Socket(socket);
        match coh.transfer {
            TransferKind::FromMemory => {
                log.route(&self.net, r, home, now, REQ_BYTES);
                log.dram.push((home, now, block));
                log.route(&self.net, home, r, now, DATA_BYTES);
            }
            TransferKind::CacheToCache { owner } => {
                let o = Location::Socket(owner);
                log.route(&self.net, r, home, now, REQ_BYTES);
                log.route(&self.net, home, o, now, REQ_BYTES);
                if home.is_pool() {
                    log.route(&self.net, o, home, now, DATA_BYTES);
                    log.route(&self.net, home, r, now, DATA_BYTES);
                } else {
                    log.route(&self.net, o, r, now, DATA_BYTES);
                }
            }
        }
    }

    /// Times each substrate's calls alone and adds them to the totals.
    fn time(&mut self, log: &Log, mut llcs: Vec<SetAssocCache>, mut dir: Directory) {
        let params = self.net.params();
        let timings = DramTimings::ddr5_4800();
        let mut links: Vec<FifoServer> = self
            .net
            .link_ids()
            .map(|id| FifoServer::new(GbPerSec::new(self.net.link_bandwidth_gbps(id))))
            .collect();
        let mut socket_mem: Vec<MemoryModule> = (0..params.num_sockets)
            .map(|_| MemoryModule::new(1, params.socket_mem_bw.scale(RAW_OVER_EFFECTIVE), timings))
            .collect();
        let mut pool_mem = params
            .has_pool
            .then(|| MemoryModule::new(2, params.pool_mem_bw.scale(RAW_OVER_EFFECTIVE), timings));

        let llc = timed(&log.llc, |c| match *c {
            LlcCall::Access(s, b, w) => {
                black_box(llcs[s].access(b, w));
            }
            LlcCall::Invalidate(s, b) => {
                black_box(llcs[s].invalidate(b));
            }
        });
        let dir = timed(&log.dir, |c| match *c {
            DirCall::Access(b, s, w, home) => {
                black_box(dir.access(b, s, w, home));
            }
            DirCall::Evict(b, s, d) => dir.evict(b, s, d),
        });
        let net = &self.net;
        let leg = timed(&log.legs, |&(from, to)| {
            black_box(net.leg(from, to));
        });
        let link = timed(&log.links, |&(i, now, bytes)| {
            black_box(links[i].enqueue(Cycles::new(now), bytes));
        });
        let dram = timed(&log.dram, |&(home, now, block)| {
            let module = match home {
                Location::Socket(s) => Some(&mut socket_mem[usize::from(s.index())]),
                Location::Pool => pool_mem.as_mut(),
            };
            if let Some(m) = module {
                black_box(m.access(Cycles::new(now), block));
            }
        });

        let t = &mut self.totals;
        t.accesses += log.accesses;
        t.misses += log.misses;
        for (sum, add) in [
            (&mut t.llc, llc),
            (&mut t.dir, dir),
            (&mut t.leg, leg),
            (&mut t.link, link),
            (&mut t.dram, dram),
        ] {
            sum.calls += add.calls;
            sum.ns += add.ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_topology::SystemParams;
    use starnuma_trace::{TraceGenerator, Workload};

    #[test]
    fn two_probe_replays_of_a_phase_log_identical_call_counts() {
        let params = SystemParams::scaled_starnuma();
        let profile = Workload::Sssp.profile();
        let mut gen = TraceGenerator::new(&profile, params.num_sockets, params.cores_per_socket, 3);
        let warmup = gen.generate_phase(2_000);
        let phase = gen.generate_phase(6_000);
        let fp = profile.footprint_pages;
        let map = PageMap::first_touch(
            fp,
            fp / 5,
            &warmup,
            params.cores_per_socket,
            params.num_sockets,
        );
        let counts: Vec<[u64; 5]> = (0..2)
            .map(|_| {
                let mut probe = Probe::new(&params);
                probe.warm(&warmup, &map);
                let log = probe.log_phase(&phase, &map, &[], profile.base_cpi());
                assert_eq!(log.accesses, phase.total_accesses() as u64);
                assert!(log.misses > 0 && log.misses <= log.accesses);
                log.counts()
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert!(
            counts[0].iter().all(|&c| c > 0),
            "SSSP reaches every substrate: {:?}",
            counts[0]
        );
    }
}
