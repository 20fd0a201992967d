//! The virtual clock.
//!
//! All delays and costs in the simulation flow through a [`Clock`].
//! Advancing it just adds to a counter — runs are deterministic and orders
//! of magnitude faster than wall-clock, while preserving every ordering
//! effect the paper measures with `time.sleep`.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// A simulation clock: simulated nanoseconds since it started. `advance`
/// accumulates, nothing sleeps.
///
/// One session owns a clock and reads it on one thread (DESIGN §22,
/// *Threads*), so the counter is a plain [`Cell`] and the type is not
/// `Sync`: a filtered, joined or projected row charges the clock with a
/// load and a store, not a locked read-modify-write. The compiler keeps it
/// there:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<fedlake_netsim::Clock>();
/// ```
#[derive(Debug)]
pub struct Clock(Cell<u64>);

impl Clock {
    /// A virtual clock starting at zero.
    pub(crate) fn virtual_clock() -> Self {
        Clock(Cell::new(0))
    }

    /// Elapsed simulated time since the clock started.
    #[inline]
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.0.get())
    }

    /// Advances the clock by `d`, stopping at `u64::MAX` ns (about 584
    /// years) rather than wrapping to the past.
    #[inline]
    pub fn advance(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.0.set(self.0.get().saturating_add(ns));
    }

    /// Advances the clock *to* absolute time `t` if `t` is in the future;
    /// a clock never runs backwards, so an already-passed `t` is a no-op.
    /// This is the discrete-event counterpart of [`Clock::advance`]: the
    /// scheduler jumps to the next event's completion time.
    #[inline]
    pub fn advance_to(&self, t: Duration) {
        self.0.set(self.0.get().max(t.as_nanos() as u64));
    }
}

/// A clock shared by the engine and every wrapper of one session.
pub type SharedClock = Arc<Clock>;

/// Creates a shared virtual clock.
///
/// `Arc` and not `Rc` because fedbench's probes hand one to
/// `ExecCtx::new` and clone it from `Link::clock` by that type; the
/// count is touched when a session opens, not per row.
#[allow(
    clippy::arc_with_non_send_sync,
    reason = "a session's clock stays on its thread; fedbench's probes name the Arc"
)]
pub fn shared_virtual() -> SharedClock {
    Arc::new(Clock::virtual_clock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the test checks the virtual clock against the host's: an hour simulated in under a wall-clock second"
    )]
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
    fn advance_saturates_at_the_last_nanosecond() {
        let end = Duration::from_nanos(u64::MAX);
        let c = Clock::virtual_clock();
        c.advance(end - Duration::from_nanos(5));
        c.advance(Duration::from_nanos(7));
        assert_eq!(c.now(), end, "two nanoseconds past the end stop at it");
        c.advance(Duration::from_nanos(1));
        assert_eq!(c.now(), end);
        // A duration wider than 64 bits of nanoseconds saturates too.
        let fresh = Clock::virtual_clock();
        fresh.advance(Duration::MAX);
        assert_eq!(fresh.now(), end);
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
