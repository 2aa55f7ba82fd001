//! Physical units: time (cycles, nanoseconds), capacity, bandwidth.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Core clock frequency assumed throughout the reproduction (2.4 GHz,
/// Table I of the paper). Used to convert between [`Cycles`] and [`Nanos`].
pub const CORE_GHZ: f64 = 2.4;

/// A duration measured in core clock cycles at 2.4 GHz.
///
/// The discrete-event simulator's timebase.
///
/// # Examples
///
/// ```
/// use starnuma_types::{Cycles, Nanos};
/// let lat = Cycles::new(240);
/// assert_eq!(lat.to_nanos(), Nanos::new(100.0));
/// assert_eq!(Nanos::new(100.0).to_cycles(), lat);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a duration from a raw cycle count.
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts to nanoseconds at the 2.4 GHz core clock.
    pub fn to_nanos(self) -> Nanos {
        Nanos(self.0 as f64 / CORE_GHZ)
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(c: u64) -> Self {
        Cycles(c)
    }
}

/// A duration measured in nanoseconds.
///
/// Latency parameters in the paper are given in nanoseconds; the simulator
/// converts them to [`Cycles`] at configuration time.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanos(f64);

impl Nanos {
    /// Zero nanoseconds.
    pub const ZERO: Nanos = Nanos(0.0);

    /// Creates a duration from a nanosecond count.
    pub const fn new(ns: f64) -> Self {
        Nanos(ns)
    }

    /// Returns the raw nanosecond value.
    pub const fn raw(self) -> f64 {
        self.0
    }

    /// Converts to core cycles at 2.4 GHz, rounding to the nearest cycle.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "model latencies are far below 2^64 cycles"
    )]
    pub fn to_cycles(self) -> Cycles {
        Cycles((self.0 * CORE_GHZ).round() as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Mul<f64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: f64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} ns", self.0)
    }
}

impl From<f64> for Nanos {
    fn from(ns: f64) -> Self {
        Nanos(ns)
    }
}

/// A bandwidth in gigabytes per second (10^9 bytes/s), per direction.
///
/// Link and memory-channel bandwidths in the paper are given in GB/s.
/// [`GbPerSec::service_cycles`] converts a bandwidth into the link occupancy
/// of one 64 B block, which is how the simulator's FIFO link servers model
/// bandwidth limits and the queuing delays they induce.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct GbPerSec(f64);

impl GbPerSec {
    /// Creates a bandwidth from a GB/s value.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not finite and positive.
    pub fn new(gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps > 0.0,
            "bandwidth must be finite and positive, got {gbps}"
        );
        GbPerSec(gbps)
    }

    /// Returns the raw GB/s value.
    pub const fn raw(self) -> f64 {
        self.0
    }

    /// Scales the bandwidth by a factor (used by the ISO-BW / 2×BW / Half-BW
    /// configurations of §V-D).
    pub fn scale(self, factor: f64) -> GbPerSec {
        GbPerSec::new(self.0 * factor)
    }

    /// Returns the number of core cycles this bandwidth needs to transfer
    /// `bytes`, i.e. the occupancy of one transfer on a FIFO link server.
    ///
    /// At 2.4 GHz, one GB/s moves `1/2.4` bytes per cycle.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "one transfer's occupancy is far below 2^64 cycles"
    )]
    pub fn service_cycles(self, bytes: u64) -> Cycles {
        let bytes_per_cycle = self.0 / CORE_GHZ; // GB/s ÷ Gcycle/s = bytes/cycle
        Cycles((bytes as f64 / bytes_per_cycle).ceil() as u64)
    }
}

impl Div<f64> for GbPerSec {
    type Output = GbPerSec;
    fn div(self, rhs: f64) -> GbPerSec {
        GbPerSec::new(self.0 / rhs)
    }
}

impl fmt::Debug for GbPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}GB/s", self.0)
    }
}

impl fmt::Display for GbPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_nanos_roundtrip() {
        assert_eq!(Nanos::new(100.0).to_cycles(), Cycles::new(240));
        assert_eq!(Cycles::new(240).to_nanos(), Nanos::new(100.0));
        assert_eq!(Nanos::new(50.0).to_cycles(), Cycles::new(120));
        assert_eq!(Nanos::new(360.0).to_cycles(), Cycles::new(864));
    }

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(3);
        assert_eq!(a + b, Cycles::new(13));
        assert_eq!(a - b, Cycles::new(7));
        assert_eq!(a * 2, Cycles::new(20));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let mut c = a;
        c += b;
        assert_eq!(c, Cycles::new(13));
        c -= b;
        assert_eq!(c, a);
        let total: Cycles = [a, b].into_iter().sum();
        assert_eq!(total, Cycles::new(13));
    }

    #[test]
    fn bandwidth_service_time() {
        // 24 GB/s at 2.4 GHz = 10 bytes/cycle → 64 B takes ceil(6.4) = 7 cycles.
        let bw = GbPerSec::new(24.0);
        assert_eq!(bw.service_cycles(64), Cycles::new(7));
        // 3 GB/s (scaled-down UPI, Table II) = 1.25 bytes/cycle → 52 cycles.
        let upi = GbPerSec::new(3.0);
        assert_eq!(upi.service_cycles(64), Cycles::new(52));
    }

    #[test]
    fn bandwidth_scaling() {
        let bw = GbPerSec::new(20.8);
        assert!((bw.scale(2.0).raw() - 41.6).abs() < 1e-9);
        assert!(((bw / 2.0).raw() - 10.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite and positive")]
    fn bandwidth_rejects_zero() {
        let _ = GbPerSec::new(0.0);
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::new(80.0);
        let b = Nanos::new(20.0);
        assert_eq!((a + b).raw(), 100.0);
        assert_eq!((a - b).raw(), 60.0);
        assert_eq!((a * 2.0).raw(), 160.0);
        let s: Nanos = [a, b].into_iter().sum();
        assert_eq!(s.raw(), 100.0);
    }
}
