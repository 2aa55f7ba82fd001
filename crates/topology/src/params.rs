//! System parameter sets: Table I (full scale), Table II (scaled down for
//! simulation), and the sensitivity-study variants of §V-C, §V-D, and §V-G.

use starnuma_types::{GbPerSec, Nanos, StarNumaError, SOCKETS_PER_CHASSIS};

/// Bandwidth-provisioning variants studied in §V-D of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BandwidthVariant {
    /// The default provisioning of Table I / Table II.
    #[default]
    Default,
    /// *Baseline ISO-BW*: coherent-link bandwidth raised by the aggregate
    /// amount StarNUMA's 16 CXL links would add (UPI 20.8→26.4 GB/s,
    /// NUMALink 13→17 GB/s at full scale; same ratios when scaled down).
    BaselineIsoBw,
    /// *Baseline 2×BW*: every coherent link doubled.
    Baseline2xBw,
    /// *StarNUMA Half-BW*: CXL links scaled from x8 down to x4.
    StarNumaHalfBw,
}

impl BandwidthVariant {
    /// Multiplier applied to UPI link bandwidth.
    pub fn upi_factor(self) -> f64 {
        match self {
            BandwidthVariant::Default | BandwidthVariant::StarNumaHalfBw => 1.0,
            BandwidthVariant::BaselineIsoBw => 26.4 / 20.8,
            BandwidthVariant::Baseline2xBw => 2.0,
        }
    }

    /// Multiplier applied to NUMALink bandwidth.
    pub fn numalink_factor(self) -> f64 {
        match self {
            BandwidthVariant::Default | BandwidthVariant::StarNumaHalfBw => 1.0,
            BandwidthVariant::BaselineIsoBw => 17.0 / 13.0,
            BandwidthVariant::Baseline2xBw => 2.0,
        }
    }

    /// Multiplier applied to CXL link bandwidth.
    pub fn cxl_factor(self) -> f64 {
        match self {
            BandwidthVariant::StarNumaHalfBw => 0.5,
            _ => 1.0,
        }
    }
}

/// Simulation-scale presets used in the §V-G methodology study.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ScalePreset {
    /// SC1: 4 cores per socket, Table II bandwidths (the default).
    #[default]
    Sc1,
    /// SC2: SC1 hardware, 3× more detailed instructions simulated per phase.
    Sc2,
    /// SC3: doubled system scale — 8 cores per socket, 2× memory and
    /// interconnect bandwidth.
    Sc3,
}

/// Complete hardware parameter set for one simulated system.
///
/// Construct with [`SystemParams::full_scale_baseline`],
/// [`SystemParams::scaled_baseline`], [`SystemParams::scaled_starnuma`], or
/// the builder-style `with_*` methods for sensitivity variants.
#[derive(Clone, PartialEq, Debug)]
pub struct SystemParams {
    /// Number of CPU sockets (16 by default; 32 for the §V-C scale-out).
    pub num_sockets: usize,
    /// Cores per socket (28 full scale, 4 scaled down).
    pub cores_per_socket: usize,
    /// Whether the CXL memory pool exists (StarNUMA) or not (baseline).
    pub has_pool: bool,

    // --- Unloaded latency components (see `latency` module). ---
    /// On-processor time plus local DRAM access: the end-to-end latency of a
    /// local memory access (80 ns).
    pub mem_base: Nanos,
    /// One-way latency of one intra-chassis UPI hop (25 ns; 50 ns roundtrip
    /// penalty per §II-A).
    pub upi_one_way: Nanos,
    /// One-way latency of an inter-chassis traversal: UPI to the FLEX ASIC,
    /// NUMALink, UPI from the remote ASIC (140 ns; 280 ns roundtrip penalty).
    pub inter_chassis_one_way: Nanos,
    /// One-way latency of a socket↔pool CXL traversal (50 ns; 100 ns
    /// roundtrip penalty per Fig. 3; 95 ns one-way with a CXL switch, §V-C).
    pub cxl_one_way: Nanos,

    // --- Per-direction link bandwidths. ---
    /// Bandwidth of one UPI link, per direction.
    pub upi_bw: GbPerSec,
    /// Bandwidth of one NUMALink, per direction.
    pub numalink_bw: GbPerSec,
    /// Number of NUMALinks between each chassis pair (2 FLEX ASICs per
    /// chassis, all-to-all: 4 links per chassis pair).
    pub numalinks_per_chassis_pair: usize,
    /// Effective bandwidth of one socket's CXL link to the pool, per
    /// direction (only meaningful when `has_pool`).
    pub cxl_bw: GbPerSec,

    // --- Memory bandwidth (aggregate across channels). ---
    /// Aggregate local-DRAM bandwidth per socket.
    pub socket_mem_bw: GbPerSec,
    /// Aggregate DRAM bandwidth of the memory pool's MHD.
    pub pool_mem_bw: GbPerSec,
}

/// Effective per-channel DDR5-4800 bandwidth. The raw channel peak is
/// 38.4 GB/s; sustained efficiency on mixed read/write streams is ~65 %.
const DDR5_CHANNEL_EFFECTIVE: f64 = 25.0;

impl SystemParams {
    /// The full-scale baseline 16-socket system of Table I (no pool).
    pub fn full_scale_baseline() -> Self {
        SystemParams {
            num_sockets: 16,
            cores_per_socket: 28,
            has_pool: false,
            mem_base: Nanos::new(80.0),
            upi_one_way: Nanos::new(25.0),
            inter_chassis_one_way: Nanos::new(140.0),
            cxl_one_way: Nanos::new(50.0),
            upi_bw: GbPerSec::new(20.8),
            numalink_bw: GbPerSec::new(13.0),
            numalinks_per_chassis_pair: 4,
            cxl_bw: GbPerSec::new(40.0),
            socket_mem_bw: GbPerSec::new(6.0 * DDR5_CHANNEL_EFFECTIVE),
            pool_mem_bw: GbPerSec::new(16.0 * DDR5_CHANNEL_EFFECTIVE),
        }
    }

    /// The full-scale StarNUMA system of Table I (pool attached).
    pub fn full_scale_starnuma() -> Self {
        SystemParams {
            has_pool: true,
            ..Self::full_scale_baseline()
        }
    }

    /// The scaled-down baseline system of Table II: 4 cores per socket,
    /// one DDR5 channel per socket, 3 GB/s coherent links.
    pub fn scaled_baseline() -> Self {
        SystemParams {
            num_sockets: 16,
            cores_per_socket: 4,
            has_pool: false,
            mem_base: Nanos::new(80.0),
            upi_one_way: Nanos::new(25.0),
            inter_chassis_one_way: Nanos::new(140.0),
            cxl_one_way: Nanos::new(50.0),
            upi_bw: GbPerSec::new(3.0),
            numalink_bw: GbPerSec::new(3.0),
            numalinks_per_chassis_pair: 4,
            cxl_bw: GbPerSec::new(6.0),
            socket_mem_bw: GbPerSec::new(DDR5_CHANNEL_EFFECTIVE),
            pool_mem_bw: GbPerSec::new(2.0 * DDR5_CHANNEL_EFFECTIVE),
        }
    }

    /// The scaled-down StarNUMA system of Table II: the scaled baseline plus
    /// a pool with two DDR5 channels and a 6 GB/s-per-direction CXL link from
    /// each socket.
    pub fn scaled_starnuma() -> Self {
        SystemParams {
            has_pool: true,
            ..Self::scaled_baseline()
        }
    }

    /// Applies a §V-D bandwidth-provisioning variant.
    pub fn with_bandwidth_variant(mut self, variant: BandwidthVariant) -> Self {
        self.upi_bw = self.upi_bw.scale(variant.upi_factor());
        self.numalink_bw = self.numalink_bw.scale(variant.numalink_factor());
        self.cxl_bw = self.cxl_bw.scale(variant.cxl_factor());
        self
    }

    /// Applies the §V-C elevated CXL latency (an intermediate CXL switch
    /// adds 90 ns roundtrip: the pool-access penalty grows from 100 ns to
    /// 190 ns, i.e. 270 ns end-to-end unloaded).
    pub fn with_cxl_switch(mut self) -> Self {
        self.cxl_one_way += Nanos::new(45.0);
        self
    }

    /// Overrides the one-way CXL latency (sensitivity studies).
    pub fn with_cxl_one_way(mut self, one_way: Nanos) -> Self {
        self.cxl_one_way = one_way;
        self
    }

    /// Applies the SC3 doubled-scale preset of §V-G: 8 cores per socket and
    /// 2× memory and interconnect bandwidth. (SC1/SC2 leave hardware
    /// parameters unchanged; SC2 only lengthens the simulated windows.)
    pub fn with_scale_preset(mut self, preset: ScalePreset) -> Self {
        if preset == ScalePreset::Sc3 {
            self.cores_per_socket *= 2;
            self.upi_bw = self.upi_bw.scale(2.0);
            self.numalink_bw = self.numalink_bw.scale(2.0);
            self.cxl_bw = self.cxl_bw.scale(2.0);
            self.socket_mem_bw = self.socket_mem_bw.scale(2.0);
            self.pool_mem_bw = self.pool_mem_bw.scale(2.0);
        }
        self
    }

    /// Expands the system to `n` sockets (a multiple of four, at most
    /// 1024). Used by the §V-C 32-socket discussion.
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError`] if `n` is zero, not a multiple of four, or
    /// above 1024.
    pub fn with_num_sockets(mut self, n: usize) -> Result<Self, StarNumaError> {
        if let Some(problem) = socket_count_problem(n) {
            return Err(StarNumaError::new(problem));
        }
        self.num_sockets = n;
        Ok(self)
    }

    /// Number of chassis in the system.
    pub fn num_chassis(&self) -> usize {
        self.num_sockets / SOCKETS_PER_CHASSIS
    }

    /// Total core count of the system.
    pub fn total_cores(&self) -> usize {
        self.num_sockets * self.cores_per_socket
    }

    /// Pre-run physical-consistency checks: positive counts, positive
    /// finite latencies and bandwidths, and chassis that can reach each
    /// other.
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError`] listing *every* problem, not just the
    /// first.
    pub fn check(&self) -> Result<(), StarNumaError> {
        let mut problems: Vec<String> =
            socket_count_problem(self.num_sockets).into_iter().collect();
        if self.cores_per_socket == 0 {
            problems.push(
                "SystemParams.cores_per_socket = 0: must be positive \
                 (Table I uses 28 cores per socket, Table II uses 4)"
                    .into(),
            );
        }
        let latencies: [(&str, Nanos); 4] = [
            ("mem_base", self.mem_base),
            ("upi_one_way", self.upi_one_way),
            ("inter_chassis_one_way", self.inter_chassis_one_way),
            ("cxl_one_way", self.cxl_one_way),
        ];
        for (field, lat) in latencies {
            if !lat.raw().is_finite() || lat.raw() <= 0.0 {
                problems.push(format!(
                    "SystemParams.{field} = {} ns: must be a positive finite time \
                     (Table I/II and Fig. 3 give the paper's latency components)",
                    lat.raw()
                ));
            }
        }
        let mut bandwidths: Vec<(&str, GbPerSec)> = vec![
            ("upi_bw", self.upi_bw),
            ("numalink_bw", self.numalink_bw),
            ("socket_mem_bw", self.socket_mem_bw),
        ];
        if self.has_pool {
            bandwidths.push(("cxl_bw", self.cxl_bw));
            bandwidths.push(("pool_mem_bw", self.pool_mem_bw));
        }
        for (field, bw) in bandwidths {
            if !bw.raw().is_finite() || bw.raw() <= 0.0 {
                problems.push(format!(
                    "SystemParams.{field} = {} GB/s: must be a positive finite rate \
                     (Table I/II give the paper's per-direction link bandwidths)",
                    bw.raw()
                ));
            }
        }
        if self.num_chassis() > 1 && self.numalinks_per_chassis_pair == 0 {
            problems.push(format!(
                "SystemParams.numalinks_per_chassis_pair = 0: must be positive, or the {} \
                 chassis are disconnected (the paper's FLEX ASICs provide 4 per pair)",
                self.num_chassis()
            ));
        }
        StarNumaError::check(problems)
    }
}

impl Default for SystemParams {
    /// Defaults to the scaled-down StarNUMA configuration (Table II).
    fn default() -> Self {
        Self::scaled_starnuma()
    }
}

/// The most sockets a topology can have: a chassis index is a `u8`.
const MAX_SOCKETS: usize = (u8::MAX as usize + 1) * SOCKETS_PER_CHASSIS;

/// Why `n` sockets cannot form a topology of whole chassis, if they cannot.
fn socket_count_problem(n: usize) -> Option<String> {
    (n == 0 || !n.is_multiple_of(SOCKETS_PER_CHASSIS) || n > MAX_SOCKETS).then(|| {
        format!(
            "SystemParams.num_sockets = {n}: must be a positive multiple of \
             {SOCKETS_PER_CHASSIS} up to {MAX_SOCKETS} (the glueless mesh is built \
             from whole {SOCKETS_PER_CHASSIS}-socket chassis)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let p = SystemParams::full_scale_baseline();
        assert_eq!(p.num_sockets, 16);
        assert_eq!(p.cores_per_socket, 28);
        assert_eq!(p.total_cores(), 448);
        assert_eq!(p.num_chassis(), 4);
        assert!(!p.has_pool);
        assert!((p.upi_bw.raw() - 20.8).abs() < 1e-9);
        assert!((p.numalink_bw.raw() - 13.0).abs() < 1e-9);
        let s = SystemParams::full_scale_starnuma();
        assert!(s.has_pool);
        assert!((s.cxl_bw.raw() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn table2_values() {
        let p = SystemParams::scaled_starnuma();
        assert_eq!(p.cores_per_socket, 4);
        assert_eq!(p.total_cores(), 64);
        assert!((p.upi_bw.raw() - 3.0).abs() < 1e-9);
        assert!((p.numalink_bw.raw() - 3.0).abs() < 1e-9);
        assert!((p.cxl_bw.raw() - 6.0).abs() < 1e-9);
        assert!((p.pool_mem_bw.raw() / p.socket_mem_bw.raw() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_components_match_paper() {
        let p = SystemParams::scaled_starnuma();
        // Local 80, 1-hop 130, 2-hop 360, pool 180.
        assert_eq!(p.mem_base.raw(), 80.0);
        assert_eq!((p.mem_base + p.upi_one_way * 2.0).raw(), 130.0);
        assert_eq!((p.mem_base + p.inter_chassis_one_way * 2.0).raw(), 360.0);
        assert_eq!((p.mem_base + p.cxl_one_way * 2.0).raw(), 180.0);
    }

    #[test]
    fn iso_bw_variant_matches_section_5d() {
        let p = SystemParams::full_scale_baseline()
            .with_bandwidth_variant(BandwidthVariant::BaselineIsoBw);
        assert!((p.upi_bw.raw() - 26.4).abs() < 1e-9);
        assert!((p.numalink_bw.raw() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn double_bw_and_half_bw_variants() {
        let p = SystemParams::full_scale_baseline()
            .with_bandwidth_variant(BandwidthVariant::Baseline2xBw);
        assert!((p.upi_bw.raw() - 41.6).abs() < 1e-9);
        assert!((p.numalink_bw.raw() - 26.0).abs() < 1e-9);
        let s = SystemParams::full_scale_starnuma()
            .with_bandwidth_variant(BandwidthVariant::StarNumaHalfBw);
        assert!((s.cxl_bw.raw() - 20.0).abs() < 1e-9);
        assert!((s.upi_bw.raw() - 20.8).abs() < 1e-9);
    }

    #[test]
    fn cxl_switch_latency() {
        let p = SystemParams::scaled_starnuma().with_cxl_switch();
        // End-to-end pool access: 80 + 2×95 = 270 ns (§V-C).
        assert_eq!((p.mem_base + p.cxl_one_way * 2.0).raw(), 270.0);
    }

    #[test]
    fn sc3_doubles_scale() {
        let p = SystemParams::scaled_starnuma().with_scale_preset(ScalePreset::Sc3);
        assert_eq!(p.cores_per_socket, 8);
        assert!((p.upi_bw.raw() - 6.0).abs() < 1e-9);
        assert!((p.cxl_bw.raw() - 12.0).abs() < 1e-9);
        let unchanged = SystemParams::scaled_starnuma().with_scale_preset(ScalePreset::Sc1);
        assert_eq!(unchanged, SystemParams::scaled_starnuma());
    }

    #[test]
    fn socket_count_validation() {
        assert!(SystemParams::scaled_starnuma().with_num_sockets(32).is_ok());
        let err = SystemParams::scaled_starnuma()
            .with_num_sockets(13)
            .unwrap_err();
        assert!(err.to_string().contains("num_sockets = 13"), "{err}");
        assert!(SystemParams::scaled_starnuma().with_num_sockets(0).is_err());
        let p = SystemParams::scaled_starnuma()
            .with_num_sockets(32)
            .unwrap();
        assert_eq!(p.num_chassis(), 8);
        assert!(p.check().is_ok());
    }

    /// The problems `p.check()` reports.
    fn problems(p: &SystemParams) -> Vec<String> {
        StarNumaError::problems_of(p.check())
    }

    #[test]
    fn check_rejects_zero_cores() {
        let mut p = SystemParams::scaled_baseline();
        p.cores_per_socket = 0;
        let found = problems(&p);
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("SystemParams.cores_per_socket = 0"));
    }

    #[test]
    fn check_names_a_negative_latency_and_its_value() {
        let mut p = SystemParams::scaled_starnuma();
        p.mem_base = Nanos::new(-5.0);
        let found = problems(&p);
        assert_eq!(found.len(), 1);
        assert!(
            found[0].starts_with("SystemParams.mem_base = -5 ns"),
            "{found:?}"
        );
    }

    #[test]
    fn check_flags_a_disconnected_topology() {
        let mut p = SystemParams::scaled_baseline();
        p.numalinks_per_chassis_pair = 0;
        let found = problems(&p);
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("SystemParams.numalinks_per_chassis_pair = 0"));
        assert!(found[0].contains("disconnected"));
    }

    #[test]
    fn check_collects_every_problem() {
        let mut p = SystemParams::scaled_starnuma();
        // GbPerSec::new rejects non-positive rates, but Default is 0.0 —
        // exactly the bypass this check exists to catch.
        p.upi_bw = GbPerSec::default();
        p.cxl_one_way = Nanos::new(f64::NAN);
        p.numalinks_per_chassis_pair = 0;
        let fields: Vec<String> = problems(&p)
            .iter()
            .map(|line| line.split(' ').next().unwrap_or("").to_string())
            .collect();
        assert_eq!(
            fields,
            [
                "SystemParams.cxl_one_way",
                "SystemParams.upi_bw",
                "SystemParams.numalinks_per_chassis_pair"
            ]
        );
    }

    #[test]
    fn socket_counts_above_the_chassis_id_range_are_rejected() {
        let p = SystemParams::scaled_baseline();
        assert!(p.clone().with_num_sockets(1028).is_err());
        let mut raw = p.clone();
        raw.num_sockets = 1028;
        let found = problems(&raw);
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("SystemParams.num_sockets = 1028"));
        assert!(std::panic::catch_unwind(|| crate::Network::new(&raw)).is_err());

        let max = p
            .with_num_sockets(1024)
            .expect("1024 sockets fit the u8 chassis ids");
        assert!(max.check().is_ok());
    }

    #[test]
    fn poolless_system_ignores_pool_bandwidths() {
        let mut p = SystemParams::scaled_baseline();
        p.cxl_bw = GbPerSec::default();
        p.pool_mem_bw = GbPerSec::default();
        assert!(p.check().is_ok());
    }
}
