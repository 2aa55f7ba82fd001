//! The single sanctioned wall-clock reader in the workspace.
//!
//! Simulation crates must never read host time (`clippy.toml` disallows
//! `Instant` and `SystemTime`): results are functions of simulated time
//! only. Profiling needs host time, so it is funneled through exactly one
//! type — [`ProfClock`] — whose module carries the one `#[expect]` for
//! it. Everything else (the RAII scopes in hot paths, the CLI's session
//! timer) asks this clock, and when profiling is disabled the scopes never
//! ask at all, so a normal run performs zero wall-clock reads outside the
//! job-pool progress meter.

#![expect(
    clippy::disallowed_types,
    reason = "ProfClock is the sole sanctioned wall-clock reader"
)]

use std::time::Instant;

/// An opaque wall-clock stamp taken by [`ProfClock`].
#[derive(Clone, Copy, Debug)]
pub struct ClockStamp {
    at: Instant,
}

/// The injected wall clock: the only way simulation code is allowed to
/// observe host time, and only ever for attribution (never for results).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfClock;

impl ProfClock {
    /// Take a stamp of the current host time.
    #[inline]
    pub fn stamp() -> ClockStamp {
        ClockStamp { at: Instant::now() }
    }

    /// Nanoseconds elapsed since `stamp` was taken, saturating at `u64::MAX`.
    #[inline]
    pub fn elapsed_ns(stamp: ClockStamp) -> u64 {
        let nanos = stamp.at.elapsed().as_nanos();
        u64::try_from(nanos).unwrap_or(u64::MAX)
    }
}

/// A coarse wall timer for whole-command spans (the `starnuma profile`
/// wrapper times the wrapped command with one of these).
#[derive(Clone, Copy, Debug)]
pub struct SessionTimer {
    start: ClockStamp,
}

impl SessionTimer {
    /// Start timing now.
    pub fn start() -> SessionTimer {
        SessionTimer {
            start: ProfClock::stamp(),
        }
    }

    /// Nanoseconds since [`SessionTimer::start`].
    pub fn elapsed_ns(&self) -> u64 {
        ProfClock::elapsed_ns(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_nonzero_after_work() {
        let t = SessionTimer::start();
        let mut acc = 0u64;
        for i in 0..50_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(2_654_435_761));
        }
        assert!(acc != 1, "keep the loop alive");
        let first = t.elapsed_ns();
        let second = t.elapsed_ns();
        assert!(second >= first, "clock went backwards");
    }
}
