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
        Duration::from_nanos(self.now_nanos())
    }

    /// [`Clock::now`] as the integer nanoseconds the clock stores: no
    /// conversion, so a check made per event or per row compares two
    /// integers.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.0.get()
    }

    /// Advances the clock by `d`, stopping at `u64::MAX` ns (about 584
    /// years) rather than wrapping to the past.
    #[inline]
    pub fn advance(&self, d: Duration) {
        self.advance_nanos(nanos(d));
    }

    /// [`Clock::advance`] by `ns` nanoseconds, saturating alike.
    #[inline]
    pub fn advance_nanos(&self, ns: u64) {
        self.0.set(self.0.get().saturating_add(ns));
    }

    /// Advances the clock *to* absolute time `t` if `t` is in the future;
    /// a clock never runs backwards, so an already-passed `t` is a no-op.
    /// This is the discrete-event counterpart of [`Clock::advance`]: the
    /// scheduler jumps to the next event's completion time. A `t` past
    /// `u64::MAX` ns stops at it.
    #[inline]
    pub fn advance_to(&self, t: Duration) {
        self.advance_to_nanos(nanos(t));
    }

    /// [`Clock::advance_to`] absolute time `t` in nanoseconds.
    #[inline]
    pub fn advance_to_nanos(&self, t: u64) {
        self.0.set(self.0.get().max(t));
    }
}

/// `d` in whole nanoseconds, saturating at `u64::MAX` (the last instant a
/// [`Clock`] can show): how a `Duration` time is compared with
/// [`Clock::now_nanos`].
#[inline]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
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
    fn the_integer_methods_agree_with_the_duration_ones() {
        let (a, b) = (Clock::virtual_clock(), Clock::virtual_clock());
        let steps = [0u64, 1, 999, 1_000, 4_600, 1_234_567_891, 86_400_000_000_000];
        for ns in steps {
            a.advance(Duration::from_nanos(ns));
            b.advance_nanos(ns);
            assert_eq!((a.now(), a.now_nanos()), (b.now(), b.now_nanos()));
            assert_eq!(b.now(), Duration::from_nanos(b.now_nanos()));
        }
        for ns in steps.iter().map(|s| s * 3 + 17) {
            a.advance_to(Duration::from_nanos(ns));
            b.advance_to_nanos(ns);
            assert_eq!((a.now(), a.now_nanos()), (b.now(), b.now_nanos()));
        }
    }

    #[test]
    fn the_integer_methods_saturate_and_never_run_backwards() {
        let c = Clock::virtual_clock();
        c.advance_to_nanos(40);
        c.advance_to_nanos(10);
        assert_eq!(c.now_nanos(), 40, "jumping to an earlier time is a no-op");
        c.advance_nanos(u64::MAX - 45);
        assert_eq!(c.now_nanos(), u64::MAX - 5);
        c.advance_nanos(7);
        assert_eq!(c.now_nanos(), u64::MAX, "two nanoseconds past the end stop at it");
        c.advance_to_nanos(3);
        assert_eq!(c.now_nanos(), u64::MAX);
        // A Duration past the last nanosecond reads as it, in either form.
        assert_eq!(nanos(Duration::MAX), u64::MAX);
        let fresh = Clock::virtual_clock();
        fresh.advance_to(Duration::MAX);
        assert_eq!(fresh.now_nanos(), u64::MAX);
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
