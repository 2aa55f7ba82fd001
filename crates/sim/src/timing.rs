//! Step C: cycle-level timing simulation of one phase.
//!
//! Every core replays its access stream against the full memory-system
//! model. Cores retire instructions at the workload's single-socket CPI and
//! sustain up to `mlp` outstanding LLC misses; only latency *beyond* an
//! unloaded local access occupies a miss slot (the base CPI already folds in
//! local-memory time), so NUMA latency and queuing slow a core exactly to
//! the extent they exceed the local baseline.
//!
//! All bandwidth-limited resources — UPI/NUMALink/CXL links and DRAM
//! channels — are FIFO servers; an access's *contention delay* is the sum of
//! the waits it accrues along its route, and its measured latency is the
//! analytic unloaded latency plus that delay (the Fig. 8b decomposition).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use starnuma_cache::{CacheConfig, CacheOutcome, SetAssocCache};
use starnuma_coherence::{Directory, TransferKind};
use starnuma_mem::{DramTimings, FifoServer, MemoryModule, DATA_BYTES, REQ_BYTES};
use starnuma_migration::{MigrationCosts, PageMap, PageMove, ReplicaMap};
use starnuma_obs::ObsSink;
use starnuma_prof::{ProfScope, Site};
use starnuma_topology::{AccessClass, Network};
use starnuma_trace::PhaseTrace;
use starnuma_types::{
    Cycles, GbPerSec, Location, MemAccess, Nanos, PageId, SocketId, SOCKETS_PER_CHASSIS,
};

use crate::config::Modality;
use crate::stats::PhaseStats;

/// The reusable timing simulator for one system configuration.
///
/// Holds all stateful hardware models (LLCs, directory, link servers, DRAM
/// channels); [`TimingSim::run_phase`] replays one phase trace against them.
pub struct TimingSim {
    net: Network,
    links: Vec<FifoServer>,
    socket_mem: Vec<MemoryModule>,
    pool_mem: Option<MemoryModule>,
    llcs: Vec<SetAssocCache>,
    dir: Directory,
    cores_per_socket: usize,
    /// A demand access from memory, by [`demand_index`]; entry 0 is a
    /// local access.
    demand: [Unloaded; 4],
    /// A 3-hop cache-to-cache transfer, by [`three_hop_index`].
    three_hop: [Unloaded; 27],
    /// A 4-hop cache-to-cache transfer via the pool.
    four_hop: Unloaded,
    costs: MigrationCosts,
    /// CPI used by light sockets in mixed modality (regulated per phase).
    light_cpi: f64,
}

/// The unloaded latency of one kind of LLC miss, in nanoseconds and in
/// (rounded) cycles, with its access class: computed once per
/// configuration by [`TimingSim::new`].
#[derive(Clone, Copy, PartialEq, Debug)]
struct Unloaded {
    ns: f64,
    cycles: u64,
    class: AccessClass,
}

impl Unloaded {
    fn new(ns: Nanos, class: AccessClass) -> Self {
        Unloaded {
            ns: ns.raw(),
            cycles: ns.to_cycles().raw(),
            class,
        }
    }
}

/// How far apart two sockets are: 0 for the same socket, 1 within a
/// chassis, 2 across chassis. The latency model's socket-to-socket one-way
/// latency depends on nothing else.
fn distance(a: SocketId, b: SocketId) -> usize {
    usize::from(a != b) + usize::from(!a.same_chassis(b))
}

/// A demand access's entry in [`TimingSim::demand`]: the requester's
/// distance to a socket home, or 3 for the pool (the [`AccessClass`] index).
fn demand_index(requester: SocketId, home: Location) -> usize {
    match home {
        Location::Socket(h) => distance(requester, h),
        Location::Pool => 3,
    }
}

/// A 3-hop transfer's entry in [`TimingSim::three_hop`]: the distances of
/// its R→H, H→O and O→R legs.
fn three_hop_index(r: SocketId, h: SocketId, o: SocketId) -> usize {
    distance(r, h) * 9 + distance(h, o) * 3 + distance(o, r)
}

/// Packs a replay event into one word, `(time << core_bits) | core`, so the
/// event heap compares a `u64` instead of a `(time, core)` tuple and pops in
/// the same order: by time, ties to the lower core. A time past the field's
/// top saturates there and sorts last, as `u64::MAX` does in a tuple.
#[derive(Clone, Copy, Debug)]
struct EventKey {
    core_bits: u32,
    max_time: u64,
}

impl EventKey {
    /// The packing for core indices below `cores`.
    fn new(cores: usize) -> Self {
        let core_bits = usize::BITS - cores.saturating_sub(1).leading_zeros();
        EventKey {
            core_bits,
            max_time: u64::MAX >> core_bits,
        }
    }

    /// `time`, saturated at the field's top.
    fn saturate(self, time: u64) -> u64 {
        time.min(self.max_time)
    }

    fn pack(self, time: u64, core: usize) -> u64 {
        (self.saturate(time) << self.core_bits) | core as u64
    }

    /// The (saturated) time of `key`.
    fn time(self, key: u64) -> u64 {
        key >> self.core_bits
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the core field holds an index below a usize core count"
    )]
    fn core(self, key: u64) -> usize {
        (key & !(u64::MAX << self.core_bits)) as usize
    }
}

struct CoreRun<'a> {
    stream: &'a [MemAccess],
    /// The socket of the core this stream belongs to.
    socket: SocketId,
    next: usize,
    /// Core-local clock: cycle at which the previous access was issued.
    time: f64,
    last_icount: u64,
    /// Completion times of outstanding misses (min-heap).
    outstanding: BinaryHeap<Reverse<u64>>,
    light: bool,
}

impl TimingSim {
    /// Builds the hardware models for `net`'s configuration.
    pub fn new(net: Network, costs: MigrationCosts) -> Self {
        let params = net.params().clone();
        let links = net
            .link_ids()
            .map(|id| FifoServer::new(GbPerSec::new(net.link_bandwidth_gbps(id))))
            .collect();
        let timings = DramTimings::ddr5_4800();
        // The configured memory bandwidths are *effective* (≈65 % of the
        // 38.4 GB/s DDR5-4800 peak); the channel model enforces efficiency
        // through bank occupancy, so its data bus runs at the raw rate.
        const RAW_OVER_EFFECTIVE: f64 = 38.4 / 25.0;
        let socket_mem = (0..params.num_sockets)
            .map(|_| MemoryModule::new(1, params.socket_mem_bw.scale(RAW_OVER_EFFECTIVE), timings))
            .collect();
        let pool_mem = params
            .has_pool
            .then(|| MemoryModule::new(2, params.pool_mem_bw.scale(RAW_OVER_EFFECTIVE), timings));
        let llcs = (0..params.num_sockets)
            .map(|_| SetAssocCache::new(CacheConfig::scaled_llc()))
            .collect();
        let dir = Directory::new(params.num_sockets);
        // Unloaded latencies depend only on how far apart the sockets
        // involved are, so each table entry is filled from the latency model
        // at witness sockets: three chassis hold every pattern of distances
        // a transfer's three sockets can form.
        let lat = net.latency();
        let witnesses: Vec<SocketId> =
            SocketId::all(params.num_sockets.min(3 * SOCKETS_PER_CHASSIS)).collect();
        let mut demand = [Unloaded::new(Nanos::ZERO, AccessClass::Local); 4];
        let mut three_hop = [Unloaded::new(Nanos::ZERO, AccessClass::BtSocket); 27];
        for &r in &witnesses {
            for home in witnesses
                .iter()
                .map(|&h| Location::Socket(h))
                .chain([Location::Pool])
            {
                demand[demand_index(r, home)] =
                    Unloaded::new(lat.demand_access(r, home), net.classify(r, home));
            }
            for &h in &witnesses {
                for &o in &witnesses {
                    three_hop[three_hop_index(r, h, o)] = Unloaded::new(
                        lat.three_hop_transfer(r, h, o) + params.mem_base,
                        AccessClass::BtSocket,
                    );
                }
            }
        }
        let four_hop = Unloaded::new(
            lat.four_hop_pool_transfer() + params.mem_base,
            AccessClass::BtPool,
        );
        let base_cpi_placeholder = 1.0;
        TimingSim {
            net,
            links,
            socket_mem,
            pool_mem,
            llcs,
            dir,
            cores_per_socket: params.cores_per_socket,
            demand,
            three_hop,
            four_hop,
            costs,
            light_cpi: base_cpi_placeholder,
        }
    }

    /// The network this simulator models.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Coherence directory statistics accumulated so far.
    pub fn directory_stats(&self) -> starnuma_coherence::DirectoryStats {
        self.dir.stats()
    }

    /// Aggregated LLC statistics across all sockets (cumulative since
    /// construction; caches persist across phases like real hardware).
    pub fn llc_stats(&self) -> starnuma_cache::CacheStats {
        let mut agg = starnuma_cache::CacheStats::default();
        for llc in &self.llcs {
            let st = llc.stats();
            agg.hits += st.hits;
            agg.misses += st.misses;
            agg.writebacks += st.writebacks;
        }
        agg
    }

    /// Aggregated per-link-kind server statistics since the last
    /// [`TimingSim::reset_servers`] (UPI, NUMALink, CXL order).
    pub fn link_stats(&self) -> [starnuma_mem::ServerStats; 3] {
        let mut agg = [starnuma_mem::ServerStats::default(); 3];
        for id in self.net.link_ids() {
            let idx = match self.net.link_kind(id) {
                starnuma_topology::LinkKind::Upi => 0,
                starnuma_topology::LinkKind::NumaLink => 1,
                starnuma_topology::LinkKind::Cxl => 2,
            };
            let st = self.links[id.index()].stats();
            agg[idx].transfers += st.transfers;
            agg[idx].bytes += st.bytes;
            agg[idx].busy_cycles += st.busy_cycles;
            agg[idx].wait_cycles += st.wait_cycles;
        }
        agg
    }

    /// Aggregated DRAM statistics `(all sockets, pool)` since the last
    /// server reset.
    pub fn memory_stats(&self) -> (starnuma_mem::ServerStats, Option<starnuma_mem::ServerStats>) {
        let mut sockets = starnuma_mem::ServerStats::default();
        for m in &self.socket_mem {
            let st = m.stats();
            sockets.transfers += st.transfers;
            sockets.bytes += st.bytes;
            sockets.busy_cycles += st.busy_cycles;
            sockets.wait_cycles += st.wait_cycles;
        }
        (sockets, self.pool_mem.as_ref().map(|p| p.stats()))
    }

    /// Sets the light-socket injection CPI for mixed modality (regulated by
    /// the detailed socket's measured IPC of the previous phase, §IV-B).
    pub fn set_light_cpi(&mut self, cpi: f64) {
        self.light_cpi = cpi.max(0.01);
    }

    /// Resets transient contention state between phases (servers drain;
    /// caches and directory state persist, as in a real machine).
    pub fn reset_servers(&mut self) {
        for l in &mut self.links {
            l.reset();
        }
        for m in &mut self.socket_mem {
            m.reset();
        }
        if let Some(p) = &mut self.pool_mem {
            p.reset();
        }
    }

    /// Replays one phase.
    ///
    /// * `map` is the page placement at phase start; the first
    ///   `modeled_moves` of the plan are applied during the phase with
    ///   initiator cost, data movement, and in-flight stalls (§IV-C).
    /// * `cpi`/`mlp` come from the workload profile.
    /// * When `collect` is false the phase is a warm-up: hardware state is
    ///   updated but statistics are discarded.
    #[allow(clippy::too_many_arguments)] // mirrors the checkpoint inputs of §IV-A3
    pub fn run_phase(
        &mut self,
        trace: &PhaseTrace,
        map: &mut PageMap,
        modeled_moves: &[PageMove],
        cpi: f64,
        mlp: usize,
        instructions_per_core: u64,
        modality: Modality,
        collect: bool,
    ) -> PhaseStats {
        self.run_phase_observed(
            trace,
            map,
            modeled_moves,
            cpi,
            mlp,
            instructions_per_core,
            modality,
            collect,
            None,
            &mut ObsSink::disabled(),
        )
    }

    /// [`TimingSim::run_phase`] with an optional §V-F replica directory,
    /// recording per-access latency samples into `obs` (one histogram per
    /// socket × access class). Reads served by a local replica cost a
    /// local access; writes to a replicated region collapse its replicas
    /// (invalidation traffic to every holder) before proceeding. The
    /// disabled sink costs one branch per collected access.
    #[allow(clippy::too_many_arguments)]
    pub fn run_phase_observed(
        &mut self,
        trace: &PhaseTrace,
        map: &mut PageMap,
        modeled_moves: &[PageMove],
        cpi: f64,
        mlp: usize,
        instructions_per_core: u64,
        modality: Modality,
        collect: bool,
        mut replicas: Option<&mut ReplicaMap>,
        obs: &mut ObsSink,
    ) -> PhaseStats {
        // One scope for the whole step-C replay.
        let _prof = ProfScope::enter(Site::Timing);
        // Sized once, zeroed, for every page of the map: warm-up and replay
        // never grow the directory.
        self.dir
            .reserve_pages(usize::try_from(map.len()).unwrap_or(usize::MAX));
        let mut stats = PhaseStats::default();
        // --- Schedule the modeled migrations (serialized on the initiator,
        // 3 k cycles per page; data moves over the interconnect). A page in
        // flight stalls its accessors until it lands (§IV-C); accesses
        // *before* the move simply go to the old location. ---
        struct InFlight {
            start: u64,
            done: u64,
            from: Location,
        }
        let mut in_flight: Vec<(PageId, InFlight)> = Vec::with_capacity(modeled_moves.len());
        let mut t_mig = 0u64;
        for mv in modeled_moves {
            let start = t_mig;
            t_mig += self.costs.initiator_cycles_per_page.raw();
            let mut wait = 0u64;
            for link in self.net.leg(mv.from, mv.to) {
                wait += self.links[link.index()]
                    .enqueue(Cycles::new(start), self.costs.bytes_per_page)
                    .raw();
            }
            let one_way = self.net.latency().one_way(mv.from, mv.to).to_cycles().raw();
            let done = t_mig + wait + one_way;
            in_flight.push((
                mv.page,
                InFlight {
                    start,
                    done,
                    from: mv.from,
                },
            ));
            map.move_page(mv.page, mv.to);
            if collect {
                stats.migrations_modeled += 1;
            }
        }

        // Sorted by page; the stable sort keeps a repeated page's moves in
        // plan order, so the lookup below takes its last move.
        in_flight.sort_by_key(|e| e.0);

        // --- Set up per-core replay state. ---
        let mut cores: Vec<CoreRun<'_>> = trace
            .per_core
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                let core = u32::try_from(i).unwrap_or(u32::MAX);
                let socket = starnuma_types::CoreId::new(core).socket(self.cores_per_socket);
                let light = match modality {
                    Modality::AllDetailed => false,
                    Modality::Mixed { detailed_socket } => socket != detailed_socket,
                };
                CoreRun {
                    stream,
                    socket,
                    next: 0,
                    time: 0.0,
                    last_icount: 0,
                    outstanding: BinaryHeap::new(),
                    light,
                }
            })
            .collect();

        // --- Event loop: pop the core with the earliest next issue. ---
        let key = EventKey::new(cores.len());
        let mut heap: BinaryHeap<Reverse<u64>> = cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.stream.is_empty())
            .map(|(i, _)| Reverse(key.pack(0, i)))
            .collect();
        while let Some(Reverse(event)) = heap.pop() {
            let (event_t, ci) = (key.time(event), key.core(event));
            let core = &mut cores[ci];
            let a = core.stream[core.next];
            debug_assert_eq!(a.core.socket(self.cores_per_socket), core.socket);
            let eff_cpi = if core.light { self.light_cpi } else { cpi };
            // Time instruction progress reaches this access.
            let mut t = core.time + (a.icount - core.last_icount) as f64 * eff_cpi;
            // MLP limit: detailed cores wait for a free miss slot.
            if !core.light {
                while let Some(&Reverse(done)) = core.outstanding.peek() {
                    if (done as f64) <= t {
                        core.outstanding.pop();
                    } else {
                        break;
                    }
                }
                if core.outstanding.len() >= mlp {
                    if let Some(&Reverse(done)) = core.outstanding.peek() {
                        t = t.max(done as f64);
                    }
                }
            }
            // In-flight migration stall: only while the page is moving.
            let mut home_override = None;
            let page = a.addr.page();
            let upto = in_flight.partition_point(|e| e.0 <= page);
            if let Some((_, f)) = in_flight[..upto].last().filter(|e| e.0 == page) {
                if t < f.start as f64 {
                    home_override = Some(f.from); // not yet moved
                } else if t < f.done as f64 {
                    t = f.done as f64; // stall until the migration lands
                }
            }
            // Keep link-server arrivals (approximately) time-ordered: if the
            // issue time jumped past the next pending event (an MLP or
            // migration stall), defer this core and let earlier accesses
            // enqueue first. Without this, far-future enqueues inflate every
            // earlier access's queuing delay, a runaway feedback.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "simulated times are far below 2^64 cycles, about 240 years at 2.4 GHz"
            )]
            if let Some(&Reverse(next)) = heap.peek() {
                let issue = key.saturate(t as u64);
                if issue > key.time(next) && issue > event_t {
                    heap.push(Reverse(key.pack(issue, ci)));
                    continue;
                }
            }
            if !core.light && core.outstanding.len() >= mlp {
                core.outstanding.pop();
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "simulated times are far below 2^64 cycles, about 240 years at 2.4 GHz"
            )]
            let now = Cycles::new(t as u64);
            // §V-F replication: local replica reads; write-collapse.
            if let Some(reps) = replicas.as_deref_mut() {
                let region = a.addr.page().region();
                let socket = core.socket;
                if a.kind.is_write() {
                    for victim in reps.collapse_on_write(region) {
                        // Software-coherence invalidation message per holder.
                        for link in self
                            .net
                            .leg(Location::Socket(socket), Location::Socket(victim))
                        {
                            self.links[link.index()].enqueue(now, REQ_BYTES);
                        }
                    }
                } else if reps.has_replica(region, socket) {
                    home_override = Some(Location::Socket(socket));
                }
            }
            let (hit, class, unloaded_ns, measured_cycles) =
                self.one_access(now, core.socket, &a, map, home_override);
            if collect {
                if hit {
                    stats.llc_hits += 1;
                } else {
                    let idx = class.index();
                    stats.class_counts[idx] += 1;
                    stats.unloaded_ns_sum += unloaded_ns;
                    let measured_ns = measured_cycles as f64 / starnuma_types::CORE_GHZ;
                    stats.measured_ns_sum += measured_ns;
                    stats.class_measured_ns[idx] += measured_ns;
                    obs.record_access(usize::from(core.socket.index()), idx, measured_ns);
                }
            }
            if !core.light && !hit {
                let extra = measured_cycles.saturating_sub(self.demand[0].cycles);
                if extra > 0 {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "simulated times are far below 2^64 cycles, about 240 years at 2.4 GHz"
                    )]
                    core.outstanding.push(Reverse(t as u64 + extra));
                }
            }
            core.time = t;
            core.last_icount = a.icount;
            core.next += 1;
            if core.next < core.stream.len() {
                let next_icount = core.stream[core.next].icount;
                let est = t + (next_icount - a.icount) as f64 * eff_cpi;
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "simulated times are far below 2^64 cycles, about 240 years at 2.4 GHz"
                )]
                heap.push(Reverse(key.pack(est as u64, ci)));
            }
        }

        // --- Finish: cores retire their remaining instructions. ---
        if collect {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "simulated times are far below 2^64 cycles, about 240 years at 2.4 GHz"
            )]
            for core in &cores {
                let eff_cpi = if core.light { self.light_cpi } else { cpi };
                let mut finish =
                    core.time + (instructions_per_core - core.last_icount) as f64 * eff_cpi;
                if let Some(&Reverse(done)) = core.outstanding.iter().max_by_key(|r| r.0) {
                    finish = finish.max(done as f64);
                }
                stats.core_cycles_sum += finish as u64;
                stats.cores += 1;
                stats.instructions += instructions_per_core;
            }
        }
        stats
    }

    /// Simulates one access at `now` by a core of `socket`; returns
    /// `(llc_hit, class, unloaded_ns, measured_cycles)`.
    fn one_access(
        &mut self,
        now: Cycles,
        socket: SocketId,
        a: &MemAccess,
        map: &PageMap,
        home_override: Option<Location>,
    ) -> (bool, AccessClass, f64, u64) {
        let block = a.addr.block();
        // LLC filter + dirty/eviction tracking.
        match self.llcs[socket.index() as usize].access(block, a.kind.is_write()) {
            CacheOutcome::Hit => {
                return (true, AccessClass::Local, 0.0, 0);
            }
            CacheOutcome::Miss { evicted } => {
                if let Some((victim, dirty)) = evicted {
                    self.dir.evict(victim, socket, dirty);
                    if dirty && victim.page().pfn() < map.len() {
                        // Writeback traffic to the victim's home (off the
                        // critical path; consumes bandwidth + a DRAM write).
                        let home = map.location(victim.page());
                        self.enqueue_legs(now, &[(Location::Socket(socket), home, DATA_BYTES)]);
                        self.memory_contention(now, home, victim);
                    }
                }
            }
        }
        let home = home_override.unwrap_or_else(|| map.location(a.addr.page()));
        let coh = self.dir.access(block, socket, a.kind.is_write(), home);
        // Invalidations: traffic + back-invalidation of remote LLC copies
        // (off the critical path, as writes complete on ownership grant).
        for inv in &coh.invalidations {
            self.llcs[inv.index() as usize].invalidate(block);
            for link in self.net.leg(home, Location::Socket(*inv)) {
                self.links[link.index()].enqueue(now, REQ_BYTES);
            }
        }
        let (unloaded, wait) = match coh.transfer {
            TransferKind::FromMemory => {
                let src = Location::Socket(socket);
                // All stages are charged at the issue time: a first-order
                // queuing approximation that keeps every server's backlog
                // bounded by its offered load (enqueueing at inflated
                // downstream arrival times would let queuing delays compound
                // across links into a runaway feedback).
                let mut wait = self.enqueue_legs(now, &[(src, home, REQ_BYTES)]);
                wait += self.memory_contention(now, home, block);
                wait += self.enqueue_legs(now, &[(home, src, DATA_BYTES)]);
                (self.demand[demand_index(socket, home)], wait)
            }
            TransferKind::CacheToCache { owner } => {
                let r = Location::Socket(socket);
                let o = Location::Socket(owner);
                // No DRAM access: the data comes from the owner's cache and
                // the home's coherence directory is SRAM (its 20 ns lookup is
                // part of the unloaded latency, Fig. 3 / §V-A accounting).
                match home {
                    Location::Pool => {
                        // 4-hop via the pool: R→H, H→O, O→H, H→R.
                        let wait = self.enqueue_legs(
                            now,
                            &[
                                (r, home, REQ_BYTES),
                                (home, o, REQ_BYTES),
                                (o, home, DATA_BYTES),
                                (home, r, DATA_BYTES),
                            ],
                        );
                        (self.four_hop, wait)
                    }
                    Location::Socket(h) => {
                        // 3-hop: R→H, H→O (forward), O→R (data).
                        let wait = self.enqueue_legs(
                            now,
                            &[
                                (r, home, REQ_BYTES),
                                (home, o, REQ_BYTES),
                                (o, r, DATA_BYTES),
                            ],
                        );
                        (self.three_hop[three_hop_index(socket, h, owner)], wait)
                    }
                }
            }
        };
        (false, unloaded.class, unloaded.ns, unloaded.cycles + wait)
    }

    /// Enqueues each `(from, to, bytes)` message on the links of its leg at
    /// `now`, in order; returns the summed queuing delay in cycles.
    fn enqueue_legs(&mut self, now: Cycles, legs: &[(Location, Location, u64)]) -> u64 {
        let mut wait = 0u64;
        for &(from, to, bytes) in legs {
            for link in self.net.leg(from, to) {
                wait += self.links[link.index()].enqueue(now, bytes).raw();
            }
        }
        wait
    }

    /// Charges one block access to the home node's memory; returns the
    /// contention delay in cycles.
    fn memory_contention(
        &mut self,
        now: Cycles,
        home: Location,
        block: starnuma_types::BlockAddr,
    ) -> u64 {
        match home {
            Location::Socket(s) => self.socket_mem[s.index() as usize].access(now, block).raw(),
            Location::Pool => match &mut self.pool_mem {
                Some(pool) => pool.access(now, block).raw(),
                None => 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_mem::BLOCK_BYTES;
    use starnuma_topology::{BandwidthVariant, ScalePreset, SystemParams};
    use starnuma_trace::{TraceGenerator, Workload};

    fn sim(params: SystemParams) -> TimingSim {
        TimingSim::new(Network::new(&params), MigrationCosts::paper())
    }

    fn all_local_map(footprint: u64, cores_per_socket: usize) -> PageMap {
        // Used with POA-style traces where page ownership is derivable; for
        // generic traces tests build maps from the generator's sharers.
        let _ = cores_per_socket;
        PageMap::from_fn(footprint, 0, |p| {
            Location::Socket(SocketId::new((p.region().index() % 16) as u16))
        })
    }

    /// A superset of the parameters any run builds: both Table II systems
    /// under each §V-D bandwidth variant, with and without the §V-C CXL
    /// switch, at SC1 and SC3, plus one- and eight-chassis systems.
    fn variants() -> Vec<SystemParams> {
        let mut out = Vec::new();
        for system in [
            SystemParams::scaled_baseline(),
            SystemParams::scaled_starnuma(),
        ] {
            for bw in [
                BandwidthVariant::Default,
                BandwidthVariant::BaselineIsoBw,
                BandwidthVariant::Baseline2xBw,
                BandwidthVariant::StarNumaHalfBw,
            ] {
                for preset in [ScalePreset::Sc1, ScalePreset::Sc3] {
                    let params = system
                        .clone()
                        .with_bandwidth_variant(bw)
                        .with_scale_preset(preset);
                    out.push(params.clone().with_cxl_switch());
                    out.push(params);
                }
            }
            for n in [4, 32] {
                let params = system
                    .clone()
                    .with_num_sockets(n)
                    .expect("valid socket count");
                out.push(params.clone().with_cxl_switch());
                out.push(params);
            }
        }
        out
    }

    /// The packed event heap pops in the `(time, core)` tuple heap's order:
    /// by time, ties to the lower core, with `u64::MAX` (what an absurd
    /// `f64` time casts to) last.
    #[test]
    fn packed_event_keys_pop_in_tuple_order() {
        let mut rng = starnuma_types::SimRng::seed_from_u64(36);
        for cores in [1usize, 2, 3, 64, 448, 1000] {
            let key = EventKey::new(cores);
            for round in 0..20 {
                let mut tuples = BinaryHeap::new();
                let mut packed = BinaryHeap::new();
                for _ in 0..200 {
                    let time = match round % 3 {
                        0 => rng.gen_range(0u64..8),
                        1 => rng.gen_range(0u64..1 << 40),
                        _ if rng.gen_bool(0.2) => u64::MAX,
                        _ => rng.gen_range(0u64..100),
                    };
                    let core = rng.gen_range(0..cores);
                    tuples.push(Reverse((time, core)));
                    packed.push(Reverse(key.pack(time, core)));
                }
                while let Some(Reverse((time, core))) = tuples.pop() {
                    let Some(Reverse(event)) = packed.pop() else {
                        panic!("packed heap ran out first");
                    };
                    assert_eq!(
                        (key.time(event), key.core(event)),
                        (key.saturate(time), core)
                    );
                }
                assert!(packed.is_empty());
            }
        }
    }

    #[test]
    fn unloaded_tables_equal_the_latency_model() {
        for params in variants() {
            let sim = sim(params.clone());
            let (net, lat) = (&sim.net, sim.net.latency());
            let sockets: Vec<SocketId> = SocketId::all(params.num_sockets).collect();
            for &r in &sockets {
                for home in sockets
                    .iter()
                    .map(|&h| Location::Socket(h))
                    .chain([Location::Pool])
                {
                    assert_eq!(
                        sim.demand[demand_index(r, home)],
                        Unloaded {
                            ns: lat.demand_access(r, home).raw(),
                            cycles: lat.demand_access(r, home).to_cycles().raw(),
                            class: net.classify(r, home),
                        },
                        "{params:?}: demand {r:?} -> {home:?}"
                    );
                }
                for &h in &sockets {
                    for &o in &sockets {
                        let unloaded = lat.three_hop_transfer(r, h, o) + params.mem_base;
                        assert_eq!(
                            sim.three_hop[three_hop_index(r, h, o)],
                            Unloaded {
                                ns: unloaded.raw(),
                                cycles: unloaded.to_cycles().raw(),
                                class: AccessClass::BtSocket,
                            },
                            "{params:?}: 3-hop {r:?} -> {h:?} -> {o:?}"
                        );
                    }
                }
            }
            let four_hop = lat.four_hop_pool_transfer() + params.mem_base;
            assert_eq!(
                sim.four_hop,
                Unloaded {
                    ns: four_hop.raw(),
                    cycles: four_hop.to_cycles().raw(),
                    class: AccessClass::BtPool,
                }
            );
        }
    }

    #[test]
    fn every_server_stores_its_formula_occupancy() {
        let sizes = [1, REQ_BYTES, BLOCK_BYTES, DATA_BYTES, 4095, 4096];
        for params in variants() {
            let sim = sim(params.clone());
            for link in &sim.links {
                for bytes in sizes {
                    assert_eq!(
                        link.occupancy(bytes),
                        link.bandwidth().service_cycles(bytes),
                        "{params:?}: {:?} link, {bytes} B",
                        link.bandwidth()
                    );
                }
            }
            for module in sim.socket_mem.iter().chain(&sim.pool_mem) {
                let bw = module.channel_bandwidth();
                // An idle channel's bus is busy for exactly one block.
                let mut idle = module.clone();
                idle.access(Cycles::ZERO, starnuma_types::BlockAddr::new(0));
                assert_eq!(idle.stats().busy_cycles, bw.service_cycles(BLOCK_BYTES));
                let bus = FifoServer::new(bw);
                for bytes in sizes {
                    assert_eq!(
                        bus.occupancy(bytes),
                        bw.service_cycles(bytes),
                        "{params:?}: {bw:?} DRAM bus, {bytes} B"
                    );
                }
            }
        }
    }

    #[test]
    fn local_run_matches_single_socket_ipc() {
        // POA with first-touch-equivalent placement: every access is local,
        // so measured IPC must equal the profile's single-socket IPC and
        // AMAT must sit at the 80 ns local latency (plus mild DRAM queuing).
        let profile = Workload::Poa.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(20_000);
        let map_src = g.clone();
        let mut map = PageMap::from_fn(profile.footprint_pages, 0, |p| {
            Location::Socket(map_src.page_sharers(p)[0])
        });
        let mut sim = sim(SystemParams::scaled_baseline());
        let stats = sim.run_phase(
            &trace,
            &mut map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            20_000,
            Modality::AllDetailed,
            true,
        );
        let local_frac = stats.class_counts[0] as f64 / stats.memory_accesses() as f64;
        assert!(local_frac > 0.999, "POA accesses must be local");
        assert!(
            (stats.unloaded_amat_ns() - 80.0).abs() < 1e-6,
            "unloaded AMAT {}",
            stats.unloaded_amat_ns()
        );
        let ipc = stats.ipc();
        assert!(
            (ipc - profile.ipc_single_socket).abs() / profile.ipc_single_socket < 0.25,
            "IPC {ipc} vs single-socket {}",
            profile.ipc_single_socket
        );
    }

    #[test]
    fn remote_placement_slows_cores_down() {
        let profile = Workload::Bfs.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(20_000);
        // All pages on socket 0: 15 of 16 sockets go remote.
        let mut remote_map = PageMap::from_fn(profile.footprint_pages, 0, |_| {
            Location::Socket(SocketId::new(0))
        });
        // Spread placement: regions round-robin across sockets (sharer
        // sets are sorted, so sharers[0] would bias toward low sockets).
        let mut owner_map = PageMap::from_fn(profile.footprint_pages, 0, |p| {
            Location::Socket(SocketId::new((p.region().index() % 16) as u16))
        });
        let mut sim1 = sim(SystemParams::scaled_baseline());
        let remote = sim1.run_phase(
            &trace,
            &mut remote_map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            20_000,
            Modality::AllDetailed,
            true,
        );
        let mut sim2 = sim(SystemParams::scaled_baseline());
        let spread = sim2.run_phase(
            &trace,
            &mut owner_map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            20_000,
            Modality::AllDetailed,
            true,
        );
        assert!(
            remote.amat_ns() > spread.amat_ns(),
            "centralized placement must have worse AMAT: {} vs {}",
            remote.amat_ns(),
            spread.amat_ns()
        );
        assert!(remote.ipc() < spread.ipc());
    }

    #[test]
    fn pool_placement_beats_two_hop_for_shared_pages() {
        let profile = Workload::Bfs.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(20_000);
        let fp = profile.footprint_pages;
        let gen = g.clone();
        // Baseline: widely shared pages parked on socket 0.
        let mut base_map = PageMap::from_fn(fp, 0, |p| Location::Socket(gen.page_sharers(p)[0]));
        // StarNUMA: widely shared pages in the pool.
        let gen2 = g.clone();
        let mut star_map = PageMap::from_fn(fp, fp, |p| {
            if gen2.page_sharers(p).len() >= 8 {
                Location::Pool
            } else {
                Location::Socket(gen2.page_sharers(p)[0])
            }
        });
        let mut sim_base = sim(SystemParams::scaled_baseline());
        let base = sim_base.run_phase(
            &trace,
            &mut base_map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            20_000,
            Modality::AllDetailed,
            true,
        );
        let mut sim_star = sim(SystemParams::scaled_starnuma());
        let star = sim_star.run_phase(
            &trace,
            &mut star_map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            20_000,
            Modality::AllDetailed,
            true,
        );
        assert!(
            star.amat_ns() < base.amat_ns(),
            "pool placement must reduce AMAT: star {} vs base {}",
            star.amat_ns(),
            base.amat_ns()
        );
        assert!(star.ipc() > base.ipc());
        assert!(star.class_counts[3] > 0, "pool accesses present");
    }

    #[test]
    fn migration_stalls_and_costs_are_modeled() {
        let profile = Workload::Bfs.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(5_000);
        let fp = profile.footprint_pages;
        let mut map = PageMap::from_fn(fp, fp, |_| Location::Socket(SocketId::new(0)));
        let moves: Vec<PageMove> = (0..64)
            .map(|i| PageMove {
                page: PageId::new(i),
                from: Location::Socket(SocketId::new(0)),
                to: Location::Pool,
            })
            .collect();
        let mut s = sim(SystemParams::scaled_starnuma());
        let stats = s.run_phase(
            &trace,
            &mut map,
            &moves,
            profile.base_cpi(),
            profile.mlp,
            5_000,
            Modality::AllDetailed,
            true,
        );
        assert_eq!(stats.migrations_modeled, 64);
        for i in 0..64 {
            assert!(map.location(PageId::new(i)).is_pool());
        }
    }

    /// Golden: `modeled_moves` moves six pages the phase touches early,
    /// one of them twice (socket 0 → pool → socket 3). A page moved twice
    /// stalls on its *last* move, so the phase statistics are pinned bit
    /// for bit over that rule.
    #[test]
    fn repeated_move_stalls_on_the_last_one() {
        let profile = Workload::Bfs.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(5_000);
        let fp = profile.footprint_pages;
        let mut map = PageMap::from_fn(fp, fp, |_| Location::Socket(SocketId::new(0)));
        let mut pages: Vec<PageId> = Vec::new();
        for a in trace.per_core.iter().flat_map(|s| s.iter().take(4)) {
            if !pages.contains(&a.addr.page()) {
                pages.push(a.addr.page());
            }
        }
        let (socket0, socket3) = (
            Location::Socket(SocketId::new(0)),
            Location::Socket(SocketId::new(3)),
        );
        let mut moves: Vec<PageMove> = pages[..6]
            .iter()
            .map(|&page| PageMove {
                page,
                from: socket0,
                to: Location::Pool,
            })
            .collect();
        moves.insert(
            4,
            PageMove {
                page: pages[1],
                from: Location::Pool,
                to: socket3,
            },
        );
        let mut s = sim(SystemParams::scaled_starnuma());
        let stats = s.run_phase(
            &trace,
            &mut map,
            &moves,
            profile.base_cpi(),
            profile.mlp,
            5_000,
            Modality::AllDetailed,
            true,
        );
        assert_eq!(map.location(pages[1]), socket3);
        assert_eq!(stats.migrations_modeled, 7);
        assert_eq!(stats.class_counts, [616, 1912, 7540, 76, 196, 4]);
        assert_eq!(stats.core_cycles_sum, 21_298_923);
        // The Debug rendering carries every float bit-exactly.
        assert_eq!(
            starnuma_types::fnv1a_digest(format!("{stats:?}").as_bytes()),
            0x909b_925b_2ffb_0717
        );
    }

    #[test]
    fn warmup_collects_nothing() {
        let profile = Workload::Tpcc.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(5_000);
        let mut map = all_local_map(profile.footprint_pages, 4);
        let mut s = sim(SystemParams::scaled_baseline());
        let stats = s.run_phase(
            &trace,
            &mut map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            5_000,
            Modality::AllDetailed,
            false,
        );
        assert_eq!(stats.memory_accesses(), 0);
        assert_eq!(stats.instructions, 0);
    }

    #[test]
    fn mixed_modality_runs_and_reports_detailed_socket() {
        let profile = Workload::Cc.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(10_000);
        let gen = g.clone();
        let mut map = PageMap::from_fn(profile.footprint_pages, 0, |p| {
            Location::Socket(gen.page_sharers(p)[0])
        });
        let mut s = sim(SystemParams::scaled_baseline());
        s.set_light_cpi(profile.base_cpi());
        let stats = s.run_phase(
            &trace,
            &mut map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            10_000,
            Modality::Mixed {
                detailed_socket: SocketId::new(0),
            },
            true,
        );
        assert!(stats.memory_accesses() > 0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn link_and_memory_stats_accumulate() {
        let profile = Workload::Bfs.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(5_000);
        let gen = g.clone();
        let fp = profile.footprint_pages;
        let mut map = PageMap::from_fn(fp, fp, |p| {
            if gen.page_sharers(p).len() >= 8 {
                Location::Pool
            } else {
                Location::Socket(gen.page_sharers(p)[0])
            }
        });
        let mut s = sim(SystemParams::scaled_starnuma());
        s.run_phase(
            &trace,
            &mut map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            5_000,
            Modality::AllDetailed,
            true,
        );
        let [upi, numa, cxl] = s.link_stats();
        assert!(upi.transfers > 0, "UPI carried traffic");
        assert!(numa.transfers > 0, "NUMALinks carried traffic");
        assert!(cxl.transfers > 0, "CXL carried pool traffic");
        let (sockets, pool) = s.memory_stats();
        assert!(sockets.transfers > 0);
        assert!(pool.expect("pool present").transfers > 0);
        s.reset_servers();
        let [upi, _, _] = s.link_stats();
        assert_eq!(upi.transfers, 0, "reset clears link stats");
        let (sockets, _) = s.memory_stats();
        assert_eq!(sockets.transfers, 0);
    }

    #[test]
    fn baseline_network_has_no_cxl_stats() {
        let profile = Workload::Tpcc.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(3_000);
        let mut map = all_local_map(profile.footprint_pages, 4);
        let mut s = sim(SystemParams::scaled_baseline());
        s.run_phase(
            &trace,
            &mut map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            3_000,
            Modality::AllDetailed,
            true,
        );
        let [_, _, cxl] = s.link_stats();
        assert_eq!(cxl.transfers, 0, "no CXL links exist on the baseline");
        let (_, pool) = s.memory_stats();
        assert!(pool.is_none());
    }

    #[test]
    fn contention_appears_under_load() {
        // Everything on one remote socket's single DRAM channel: queues form.
        let profile = Workload::Sssp.profile();
        let mut g = TraceGenerator::new(&profile, 16, 4, 3);
        let trace = g.generate_phase(20_000);
        let mut map = PageMap::from_fn(profile.footprint_pages, 0, |_| {
            Location::Socket(SocketId::new(0))
        });
        let mut s = sim(SystemParams::scaled_baseline());
        let stats = s.run_phase(
            &trace,
            &mut map,
            &[],
            profile.base_cpi(),
            profile.mlp,
            20_000,
            Modality::AllDetailed,
            true,
        );
        let contention = stats.amat_ns() - stats.unloaded_amat_ns();
        assert!(
            contention > 50.0,
            "expected heavy queuing, got {contention} ns"
        );
    }
}
