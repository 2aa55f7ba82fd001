//! The single sanctioned wall-clock reader in the workspace.
//!
//! Simulation crates must never read host time (`clippy.toml` disallows
//! `Instant` and `SystemTime`): results are functions of simulated time
//! only. Profiling and operator output need host time, so it is funneled
//! through exactly one type — [`SessionTimer`] — whose module carries the
//! one `#[expect]` for it. The RAII stage scopes, the CLI's command timer
//! and the job pool's progress meter all hold one, and when profiling is
//! disabled the scopes never start one.

#![expect(
    clippy::disallowed_types,
    reason = "SessionTimer is the sole sanctioned wall-clock reader"
)]

use std::time::Instant;

/// A wall timer: the only way any crate is allowed to observe host time,
/// and only ever for attribution and operator output (never for results).
#[derive(Clone, Copy, Debug)]
pub struct SessionTimer {
    start: Instant,
}

impl SessionTimer {
    /// Start timing now.
    #[inline]
    pub fn start() -> SessionTimer {
        SessionTimer {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`SessionTimer::start`], saturating at `u64::MAX`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
