//! The directed-link database and routing.
//!
//! Every physical channel of Fig. 1 is represented as a *directed link* with
//! its own per-direction bandwidth, so the simulator can model each direction
//! as an independent FIFO server and capture queuing delays:
//!
//! * intra-chassis, per ordered socket pair: one direct UPI link;
//! * per socket: an uplink and a downlink UPI connection to the chassis'
//!   FLEX ASIC complex (used by inter-chassis traffic);
//! * per ordered chassis pair: the aggregated NUMALinks (two FLEX ASICs per
//!   chassis give four NUMALinks per chassis pair);
//! * per socket (StarNUMA only): a CXL uplink and downlink to the pool.

use core::fmt;
use std::collections::BTreeMap;

use starnuma_types::{ChassisId, Location, Nanos, SocketId};

use crate::latency::LatencyModel;
use crate::params::SystemParams;

/// Index of one directed link in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(u32);

impl LinkId {
    /// Returns the raw index (dense, `0..Network::link_count()`).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The physical technology of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkKind {
    /// An intra-chassis UPI link (socket↔socket or socket↔FLEX ASIC).
    Upi,
    /// An inter-chassis NUMALink bundle between two FLEX ASIC complexes.
    NumaLink,
    /// A CXL link between a socket and the memory pool's MHD.
    Cxl,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkKind::Upi => f.write_str("UPI"),
            LinkKind::NumaLink => f.write_str("NUMALink"),
            LinkKind::Cxl => f.write_str("CXL"),
        }
    }
}

/// Classification of a demand memory access by its target distance, matching
/// the access-type breakdown of Fig. 8c.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessClass {
    /// Local DRAM of the requesting socket (80 ns unloaded).
    Local,
    /// DRAM of another socket in the same chassis (130 ns unloaded).
    OneHop,
    /// DRAM of a socket in a different chassis (360 ns unloaded).
    TwoHop,
    /// The CXL memory pool (180 ns unloaded).
    Pool,
    /// Coherence-triggered 3-hop socket-to-socket block transfer (§III-C).
    BtSocket,
    /// Coherence-triggered 4-hop block transfer via the pool (§III-C).
    BtPool,
}

impl AccessClass {
    /// All classes, in Fig. 8c presentation order.
    pub const ALL: [AccessClass; 6] = [
        AccessClass::Local,
        AccessClass::OneHop,
        AccessClass::TwoHop,
        AccessClass::Pool,
        AccessClass::BtSocket,
        AccessClass::BtPool,
    ];

    /// This class's position in [`AccessClass::ALL`] (stats array index).
    pub const fn index(self) -> usize {
        match self {
            AccessClass::Local => 0,
            AccessClass::OneHop => 1,
            AccessClass::TwoHop => 2,
            AccessClass::Pool => 3,
            AccessClass::BtSocket => 4,
            AccessClass::BtPool => 5,
        }
    }

    /// Short label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::Local => "Local",
            AccessClass::OneHop => "1-hop",
            AccessClass::TwoHop => "2-hop",
            AccessClass::Pool => "Pool",
            AccessClass::BtSocket => "BT_Socket",
            AccessClass::BtPool => "BT_Pool",
        }
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The sequence of links traversed by a demand access, with its unloaded
/// latency and classification.
#[derive(Clone, PartialEq, Debug)]
pub struct Route {
    /// Links traversed by the request (requester → memory).
    pub request: Vec<LinkId>,
    /// Links traversed by the response (memory → requester).
    pub response: Vec<LinkId>,
    /// End-to-end unloaded latency (includes `mem_base`).
    pub unloaded_total: Nanos,
    /// Access classification for statistics.
    pub class: AccessClass,
}

/// The link database and router for one system configuration.
///
/// # Examples
///
/// ```
/// use starnuma_topology::{Network, SystemParams};
/// use starnuma_types::{Location, SocketId};
///
/// let net = Network::new(&SystemParams::scaled_starnuma());
/// let r = net.route(SocketId::new(0), Location::Socket(SocketId::new(5)));
/// assert_eq!(r.request.len(), 3); // UPI uplink, NUMALink, UPI downlink
/// assert_eq!(r.unloaded_total.raw(), 360.0);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    latency: LatencyModel,
    kinds: Vec<LinkKind>,
    bandwidths: Vec<f64>,
    /// Every leg's links, concatenated in endpoint-pair order.
    route_links: Vec<LinkId>,
    /// `(start, end)` of each leg in `route_links`, indexed by
    /// `src * (n + 1) + dst` over the endpoint indices of an `n`-socket
    /// system: the sockets, then the pool.
    route_spans: Vec<(u32, u32)>,
}

/// Link ids by role; only used while [`Network::new`] builds the route
/// table.
#[derive(Default)]
struct LinkRoles {
    upi_direct: BTreeMap<(SocketId, SocketId), LinkId>,
    upi_uplink: Vec<LinkId>,
    upi_downlink: Vec<LinkId>,
    numalink: BTreeMap<(ChassisId, ChassisId), LinkId>,
    cxl_up: Vec<LinkId>,
    cxl_down: Vec<LinkId>,
}

impl LinkRoles {
    /// Appends the links of one one-way message from `src` to `dst` to
    /// `out`. Pool legs are empty when the system has no pool.
    fn leg_into(&self, src: Location, dst: Location, out: &mut Vec<LinkId>) {
        match (src, dst) {
            (Location::Pool, Location::Pool) => {}
            (Location::Socket(s), Location::Pool) => {
                out.extend(self.cxl_up.get(usize::from(s.index())));
            }
            (Location::Pool, Location::Socket(s)) => {
                out.extend(self.cxl_down.get(usize::from(s.index())));
            }
            (Location::Socket(s), Location::Socket(t)) if s == t => {}
            (Location::Socket(s), Location::Socket(t)) if s.same_chassis(t) => {
                out.push(self.upi_direct[&(s, t)]);
            }
            (Location::Socket(s), Location::Socket(t)) => out.extend([
                self.upi_uplink[usize::from(s.index())],
                self.numalink[&(s.chassis(), t.chassis())],
                self.upi_downlink[usize::from(t.index())],
            ]),
        }
    }
}

impl Network {
    /// Builds the link database for the given parameters after running
    /// [`SystemParams::check`], and the route table that [`Network::leg`]
    /// reads: every leg between two endpoints (the sockets and the pool)
    /// is computed once, here.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`SystemParams::check`]; a caller that
    /// takes parameters from a user runs the check first.
    pub fn new(params: &SystemParams) -> Self {
        #[expect(clippy::panic, reason = "documented: bad parameters are a caller bug")]
        params.check().unwrap_or_else(|e| panic!("{e}"));
        let n = params.num_sockets;
        let mut net = Network {
            latency: LatencyModel::new(params.clone()),
            kinds: Vec::new(),
            bandwidths: Vec::new(),
            route_links: Vec::new(),
            route_spans: Vec::with_capacity((n + 1) * (n + 1)),
        };
        let mut roles = LinkRoles::default();
        // Direct intra-chassis UPI links (each direction its own server).
        for s in SocketId::all(n) {
            for t in SocketId::all(n) {
                if s != t && s.same_chassis(t) {
                    let id = net.push(LinkKind::Upi, params.upi_bw.raw());
                    roles.upi_direct.insert((s, t), id);
                }
            }
        }
        // Socket ↔ FLEX ASIC UPI connections.
        for _s in SocketId::all(n) {
            let up = net.push(LinkKind::Upi, params.upi_bw.raw());
            roles.upi_uplink.push(up);
        }
        for _s in SocketId::all(n) {
            let down = net.push(LinkKind::Upi, params.upi_bw.raw());
            roles.upi_downlink.push(down);
        }
        // Aggregated NUMALinks per ordered chassis pair.
        let numalink_bw = params.numalink_bw.raw() * params.numalinks_per_chassis_pair as f64;
        let chassis = params.num_chassis() as u8;
        for c in 0..chassis {
            for d in 0..chassis {
                if c != d {
                    let id = net.push(LinkKind::NumaLink, numalink_bw);
                    roles
                        .numalink
                        .insert((ChassisId::new(c), ChassisId::new(d)), id);
                }
            }
        }
        // CXL star links (StarNUMA only).
        if params.has_pool {
            for _s in SocketId::all(n) {
                let id = net.push(LinkKind::Cxl, params.cxl_bw.raw());
                roles.cxl_up.push(id);
            }
            for _s in SocketId::all(n) {
                let id = net.push(LinkKind::Cxl, params.cxl_bw.raw());
                roles.cxl_down.push(id);
            }
        }
        // The route table, in endpoint-index order.
        let endpoints: Vec<Location> = SocketId::all(n)
            .map(Location::Socket)
            .chain([Location::Pool])
            .collect();
        for &src in &endpoints {
            for &dst in &endpoints {
                let start = net.route_links.len() as u32;
                roles.leg_into(src, dst, &mut net.route_links);
                net.route_spans.push((start, net.route_links.len() as u32));
            }
        }
        net
    }

    fn push(&mut self, kind: LinkKind, bw: f64) -> LinkId {
        let id = LinkId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.bandwidths.push(bw);
        id
    }

    /// Returns the system parameters this network was built from.
    pub fn params(&self) -> &SystemParams {
        self.latency.params()
    }

    /// Returns the latency model for this network.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Total number of directed links.
    pub fn link_count(&self) -> usize {
        self.kinds.len()
    }

    /// The technology of a link.
    pub fn link_kind(&self, id: LinkId) -> LinkKind {
        self.kinds[id.index()]
    }

    /// Per-direction bandwidth of a link in GB/s.
    pub fn link_bandwidth_gbps(&self, id: LinkId) -> f64 {
        self.bandwidths[id.index()]
    }

    /// Iterates over all link ids, in dense index order
    /// (`LinkId::index()` runs `0..link_count()`).
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.kinds.len() as u32).map(LinkId)
    }

    /// The links traversed by one one-way message from `src` to `dst`, read
    /// from the route table built by [`Network::new`].
    ///
    /// # Panics
    ///
    /// Panics if a pool endpoint is used on a configuration without a pool,
    /// or a socket endpoint is outside the configured socket count.
    pub fn leg(&self, src: Location, dst: Location) -> &[LinkId] {
        let params = self.params();
        assert!(
            params.has_pool || src.is_pool() == dst.is_pool(),
            "no memory pool in this configuration"
        );
        let n = params.num_sockets;
        let endpoint = |loc: Location| match loc {
            Location::Socket(s) => {
                let i = usize::from(s.index());
                assert!(i < n, "socket {i} outside this {n}-socket network");
                i
            }
            Location::Pool => n,
        };
        let (start, end) = self.route_spans[endpoint(src) * (n + 1) + endpoint(dst)];
        &self.route_links[start as usize..end as usize]
    }

    /// Classifies a demand access from `requester` to memory at `target`.
    pub fn classify(&self, requester: SocketId, target: Location) -> AccessClass {
        match target {
            Location::Pool => AccessClass::Pool,
            Location::Socket(t) => {
                if requester == t {
                    AccessClass::Local
                } else if requester.same_chassis(t) {
                    AccessClass::OneHop
                } else {
                    AccessClass::TwoHop
                }
            }
        }
    }

    /// Computes the full route of a demand access from `requester` to memory
    /// at `target`.
    pub fn route(&self, requester: SocketId, target: Location) -> Route {
        let src = Location::Socket(requester);
        Route {
            request: self.leg(src, target).to_vec(),
            response: self.leg(target, src).to_vec(),
            unloaded_total: self.latency.demand_access(requester, target),
            class: self.classify(requester, target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_types::SOCKETS_PER_CHASSIS;

    fn starnuma_net() -> Network {
        Network::new(&SystemParams::scaled_starnuma())
    }

    #[test]
    fn link_counts_16_socket() {
        let net = starnuma_net();
        // Per chassis: 4×3 = 12 directed intra-chassis UPI; ×4 chassis = 48.
        // Uplinks 16 + downlinks 16 = 32 socket↔ASIC links.
        // NUMALink: 4×3 = 12 ordered chassis pairs.
        // CXL: 16 up + 16 down = 32.
        assert_eq!(net.link_count(), 48 + 32 + 12 + 32);
        let baseline = Network::new(&SystemParams::scaled_baseline());
        assert_eq!(baseline.link_count(), 48 + 32 + 12);
    }

    #[test]
    fn local_leg_is_empty() {
        let net = starnuma_net();
        let s = Location::Socket(SocketId::new(3));
        assert!(net.leg(s, s).is_empty());
        assert!(net.leg(Location::Pool, Location::Pool).is_empty());
    }

    #[test]
    fn intra_chassis_leg_is_one_upi() {
        let net = starnuma_net();
        let leg = net.leg(
            Location::Socket(SocketId::new(0)),
            Location::Socket(SocketId::new(2)),
        );
        assert_eq!(leg.len(), 1);
        assert_eq!(net.link_kind(leg[0]), LinkKind::Upi);
    }

    #[test]
    fn inter_chassis_leg_is_three_links() {
        let net = starnuma_net();
        let leg = net.leg(
            Location::Socket(SocketId::new(1)),
            Location::Socket(SocketId::new(9)),
        );
        assert_eq!(leg.len(), 3);
        assert_eq!(net.link_kind(leg[0]), LinkKind::Upi);
        assert_eq!(net.link_kind(leg[1]), LinkKind::NumaLink);
        assert_eq!(net.link_kind(leg[2]), LinkKind::Upi);
    }

    #[test]
    fn pool_leg_is_one_cxl() {
        let net = starnuma_net();
        let up = net.leg(Location::Socket(SocketId::new(7)), Location::Pool);
        let down = net.leg(Location::Pool, Location::Socket(SocketId::new(7)));
        assert_eq!(up.len(), 1);
        assert_eq!(down.len(), 1);
        assert_ne!(up[0], down[0], "directions are independent servers");
        assert_eq!(net.link_kind(up[0]), LinkKind::Cxl);
    }

    #[test]
    #[should_panic(expected = "no memory pool")]
    fn baseline_rejects_pool_routes() {
        let net = Network::new(&SystemParams::scaled_baseline());
        let _ = net.leg(Location::Socket(SocketId::new(0)), Location::Pool);
    }

    /// Expected legs for every ordered endpoint pair, built independently of
    /// the route table: link ids are assigned by walking `link_ids()` in the
    /// documented order (direct UPI per ordered same-chassis socket pair,
    /// uplinks, downlinks, NUMALinks per ordered chassis pair, CXL up, CXL
    /// down), checking each link's kind and bandwidth on the way, and legs
    /// then follow the module doc's topology rules.
    fn expected_legs(
        net: &Network,
        params: &SystemParams,
    ) -> Vec<((Location, Location), Vec<LinkId>)> {
        let n = params.num_sockets;
        let mut ids = net.link_ids();
        let mut take = |kind: LinkKind, bw: f64| {
            let id = ids.next().unwrap();
            assert_eq!(net.link_kind(id), kind);
            assert_eq!(net.link_bandwidth_gbps(id), bw);
            id
        };
        let per = SOCKETS_PER_CHASSIS as u16;
        let upi = params.upi_bw.raw();
        let mut direct = BTreeMap::new();
        for s in SocketId::all(n) {
            for t in SocketId::all(n).filter(|&t| t != s && t.index() / per == s.index() / per) {
                direct.insert((s, t), take(LinkKind::Upi, upi));
            }
        }
        let up: Vec<_> = SocketId::all(n).map(|_| take(LinkKind::Upi, upi)).collect();
        let down: Vec<_> = SocketId::all(n).map(|_| take(LinkKind::Upi, upi)).collect();
        let numa_bw = params.numalink_bw.raw() * params.numalinks_per_chassis_pair as f64;
        let chassis = n.div_ceil(SOCKETS_PER_CHASSIS);
        let mut numa = BTreeMap::new();
        for c in 0..chassis {
            for d in (0..chassis).filter(|&d| d != c) {
                numa.insert((c, d), take(LinkKind::NumaLink, numa_bw));
            }
        }
        let (mut cxl_up, mut cxl_down) = (Vec::new(), Vec::new());
        if params.has_pool {
            let cxl = params.cxl_bw.raw();
            cxl_up = SocketId::all(n).map(|_| take(LinkKind::Cxl, cxl)).collect();
            cxl_down = SocketId::all(n).map(|_| take(LinkKind::Cxl, cxl)).collect();
        }
        assert!(ids.next().is_none(), "every link is accounted for");

        let mut out = vec![((Location::Pool, Location::Pool), Vec::new())];
        for s in SocketId::all(n) {
            let i = s.index() as usize;
            if params.has_pool {
                out.push(((Location::Socket(s), Location::Pool), vec![cxl_up[i]]));
                out.push(((Location::Pool, Location::Socket(s)), vec![cxl_down[i]]));
            }
            for t in SocketId::all(n) {
                let j = t.index() as usize;
                let leg = if s == t {
                    Vec::new()
                } else if s.index() / per == t.index() / per {
                    vec![direct[&(s, t)]]
                } else {
                    let (c, d) = (i / SOCKETS_PER_CHASSIS, j / SOCKETS_PER_CHASSIS);
                    vec![up[i], numa[&(c, d)], down[j]]
                };
                out.push(((Location::Socket(s), Location::Socket(t)), leg));
            }
        }
        out
    }

    #[test]
    fn route_table_matches_topology_rules() {
        let configs = [
            SystemParams::scaled_baseline(),
            SystemParams::scaled_starnuma(),
            SystemParams::scaled_starnuma()
                .with_num_sockets(32)
                .unwrap(),
        ];
        for params in configs {
            let net = Network::new(&params);
            let n = params.num_sockets;
            let expected = expected_legs(&net, &params);
            let pairs = if params.has_pool {
                (n + 1) * (n + 1)
            } else {
                n * n + 1
            };
            assert_eq!(expected.len(), pairs);
            let mut used = vec![false; net.link_count()];
            for ((src, dst), links) in expected {
                assert_eq!(net.leg(src, dst), &links[..], "{src:?} -> {dst:?}");
                for l in links {
                    used[l.index()] = true;
                }
            }
            assert!(used.iter().all(|&u| u), "every link lies on some leg");
        }
    }

    #[test]
    fn route_classification() {
        let net = starnuma_net();
        let s0 = SocketId::new(0);
        assert_eq!(net.classify(s0, Location::Socket(s0)), AccessClass::Local);
        assert_eq!(
            net.classify(s0, Location::Socket(SocketId::new(3))),
            AccessClass::OneHop
        );
        assert_eq!(
            net.classify(s0, Location::Socket(SocketId::new(12))),
            AccessClass::TwoHop
        );
        assert_eq!(net.classify(s0, Location::Pool), AccessClass::Pool);
    }

    #[test]
    fn route_latency_matches_model() {
        let net = starnuma_net();
        let r = net.route(SocketId::new(0), Location::Socket(SocketId::new(8)));
        assert_eq!(r.unloaded_total.raw(), 360.0);
        assert_eq!(r.request.len(), 3);
        assert_eq!(r.response.len(), 3);
        let p = net.route(SocketId::new(0), Location::Pool);
        assert_eq!(p.unloaded_total.raw(), 180.0);
        assert_eq!(p.class, AccessClass::Pool);
    }

    #[test]
    fn numalink_bandwidth_is_aggregated() {
        let net = starnuma_net();
        let leg = net.leg(
            Location::Socket(SocketId::new(0)),
            Location::Socket(SocketId::new(15)),
        );
        // Scaled NUMALink: 3 GB/s × 4 links per chassis pair = 12 GB/s.
        assert_eq!(net.link_bandwidth_gbps(leg[1]), 12.0);
        assert_eq!(net.link_bandwidth_gbps(leg[0]), 3.0);
    }

    #[test]
    fn distinct_directions_distinct_links() {
        let net = starnuma_net();
        let ab = net.leg(
            Location::Socket(SocketId::new(0)),
            Location::Socket(SocketId::new(1)),
        );
        let ba = net.leg(
            Location::Socket(SocketId::new(1)),
            Location::Socket(SocketId::new(0)),
        );
        assert_ne!(ab[0], ba[0]);
    }

    #[test]
    fn thirty_two_socket_network_builds() {
        let params = SystemParams::scaled_starnuma()
            .with_num_sockets(32)
            .unwrap();
        let net = Network::new(&params);
        let r = net.route(SocketId::new(0), Location::Socket(SocketId::new(31)));
        assert_eq!(r.class, AccessClass::TwoHop);
        assert_eq!(r.unloaded_total.raw(), 360.0);
        // 8 chassis: 8×12 intra + 2×32 asic + 8×7 numalink + 2×32 cxl.
        assert_eq!(net.link_count(), 96 + 64 + 56 + 64);
    }

    #[test]
    fn access_class_labels() {
        for c in AccessClass::ALL {
            assert!(!c.label().is_empty());
        }
        assert_eq!(AccessClass::Pool.to_string(), "Pool");
    }
}
