//! The virtual clock.
//!
//! All delays and costs in the simulation flow through a [`Clock`].
//! Advancing it just adds to a counter — runs are deterministic and orders
//! of magnitude faster than wall-clock, while preserving every ordering
//! effect the paper measures with `time.sleep`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A simulation clock: simulated nanoseconds since it started. `advance`
/// accumulates, nothing sleeps.
#[derive(Debug)]
pub struct Clock(AtomicU64);

impl Clock {
    /// A virtual clock starting at zero.
    pub(crate) fn virtual_clock() -> Self {
        Clock(AtomicU64::new(0))
    }

    /// Elapsed simulated time since the clock started.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::Relaxed))
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.0.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Advances the clock *to* absolute time `t` if `t` is in the future;
    /// a clock never runs backwards, so an already-passed `t` is a no-op.
    /// This is the discrete-event counterpart of [`Clock::advance`]: the
    /// scheduler jumps to the next event's completion time.
    pub fn advance_to(&self, t: Duration) {
        self.0.fetch_max(t.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A clock shared by the engine and every wrapper of a federation.
pub type SharedClock = Arc<Clock>;

/// Creates a shared virtual clock.
pub fn shared_virtual() -> SharedClock {
    Arc::new(Clock::virtual_clock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn virtual_clock_accumulates_without_sleeping() {
        let c = Clock::virtual_clock();
        let wall = Instant::now();
        c.advance(Duration::from_secs(3600));
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(3_600_250));
        // An hour of simulated time must pass in well under a second.
        assert!(wall.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn advance_to_never_runs_backwards() {
        let c = Clock::virtual_clock();
        c.advance_to(Duration::from_millis(40));
        assert_eq!(c.now(), Duration::from_millis(40));
        // Jumping to an earlier time is a no-op.
        c.advance_to(Duration::from_millis(10));
        assert_eq!(c.now(), Duration::from_millis(40));
        c.advance_to(Duration::from_millis(41));
        assert_eq!(c.now(), Duration::from_millis(41));
    }

    #[test]
    fn shared_clock_is_shared() {
        let c = shared_virtual();
        let c2 = Arc::clone(&c);
        c.advance(Duration::from_millis(5));
        c2.advance(Duration::from_millis(7));
        assert_eq!(c.now(), Duration::from_millis(12));
    }
}
