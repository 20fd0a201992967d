//! A deterministic discrete-event schedule.
//!
//! The overlapped executor does not use OS threads: concurrency is purely
//! *temporal*. Every in-flight piece of source work (a message transfer, a
//! backoff wait, a source-side query evaluation) is represented by an
//! [`EventTime`] — the absolute virtual time at which it completes, plus a
//! monotone sequence number allocated at scheduling time. The sequence
//! number is the deterministic tie-break: two events completing at the
//! same instant are ordered by who was scheduled first, so a run is fully
//! determined by the seed regardless of iteration order elsewhere.
//!
//! [`EventQueue`] is deliberately minimal: it hands out handles and tracks
//! which are in flight — the per-operator state machines hold their own
//! event handles and complete them when polled past their due time.

use crate::obs::NetObserver;
use std::sync::Arc;
use std::time::Duration;

/// The completion instant of one scheduled event.
///
/// Ordered lexicographically by `(time, seq)`; `seq` is allocated
/// monotonically by [`EventQueue::schedule`], making simultaneous events
/// totally ordered in scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventTime {
    /// Absolute virtual time at which the event completes.
    pub time: Duration,
    /// Scheduling sequence number (the deterministic tie-break).
    pub seq: u64,
}

impl EventTime {
    /// `time` in the integer nanoseconds of [`crate::Clock::now_nanos`]
    /// (saturating, as the clock does): the event is due once
    /// `ev.nanos() <= clock.now_nanos()`.
    #[inline]
    pub fn nanos(&self) -> u64 {
        crate::clock::nanos(self.time)
    }
}

/// The set of pending events, with a monotone sequence counter.
#[derive(Debug, Default)]
pub struct EventQueue {
    next_seq: u64,
    pending: Vec<EventTime>,
    /// Passive depth observer; reported after every schedule/complete.
    observer: Option<Arc<dyn NetObserver>>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Attaches a passive observer that is told the pending-event count
    /// after every mutation. Observers cannot affect the schedule.
    pub fn set_observer(&mut self, observer: Arc<dyn NetObserver>) {
        self.observer = Some(observer);
    }

    fn note_depth(&self) {
        if let Some(o) = &self.observer {
            o.on_queue_depth(self.pending.len());
        }
    }

    /// Registers an event completing at absolute time `time` and returns
    /// its handle. Handles are unique: `seq` never repeats.
    pub fn schedule(&mut self, time: Duration) -> EventTime {
        let ev = EventTime { time, seq: self.next_seq };
        self.next_seq += 1;
        self.pending.push(ev);
        self.note_depth();
        ev
    }

    /// Removes a completed (or abandoned) event. Tolerant of handles that
    /// were already removed.
    pub fn complete(&mut self, ev: EventTime) {
        self.pending.retain(|p| *p != ev);
        self.note_depth();
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_time_then_seq() {
        let mut q = EventQueue::new();
        let a = q.schedule(Duration::from_millis(5));
        let b = q.schedule(Duration::from_millis(5));
        let c = q.schedule(Duration::from_millis(3));
        assert!(c < a, "earlier time wins");
        assert!(a < b, "equal times break by scheduling order");
    }

    #[test]
    fn complete_removes_and_is_tolerant() {
        let mut q = EventQueue::new();
        let a = q.schedule(Duration::from_millis(1));
        let b = q.schedule(Duration::from_millis(2));
        assert_eq!(q.pending, vec![a, b]);
        q.complete(a);
        assert_eq!(q.pending, vec![b]);
        q.complete(a); // double-complete: no-op
        q.complete(b);
        assert!(q.is_empty());
    }

    #[test]
    fn seq_is_monotone_across_completions() {
        let mut q = EventQueue::new();
        let a = q.schedule(Duration::ZERO);
        q.complete(a);
        let b = q.schedule(Duration::ZERO);
        assert!(b.seq > a.seq, "handles are never reused");
    }
}
