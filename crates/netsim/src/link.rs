//! A simulated network link between the query engine and one source.
//!
//! Mirrors the paper's setup: *"Network delays are simulated within the SQL
//! wrapper of Ontario; delaying the retrieval of the next answer from the
//! source."* Every message retrieved through a [`Link`] advances the shared
//! clock by a sampled delay plus the fixed transfer cost.

use crate::clock::SharedClock;
use crate::cost::CostModel;
use crate::fault::{FaultPlan, LinkFault};
use crate::obs::NetObserver;
use crate::profile::{DelaySampler, NetworkProfile};
use crate::tape::{DelayTape, TapeReader};
use fedlake_prng::Prng;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// Accumulated link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages transferred successfully.
    pub messages: u64,
    /// Rows transferred.
    pub rows: u64,
    /// Total simulated network delay injected.
    pub delay: Duration,
    /// Transfer attempts, successful or not (only counted while a fault
    /// plan is active; equals `messages` + the fault counters then).
    pub attempts: u64,
    /// Attempts lost in transit.
    pub dropped: u64,
    /// Attempts that arrived truncated.
    pub truncated: u64,
    /// Attempts swallowed by a source outage.
    pub outage_faults: u64,
    /// Successful transfers that suffered a latency spike.
    pub spikes: u64,
}

impl LinkStats {
    /// Failed attempts of any kind.
    pub fn faults(&self) -> u64 {
        self.dropped + self.truncated + self.outage_faults
    }
}

/// A link from the engine to one source, with its own RNG stream so runs
/// are reproducible regardless of how many sources a federation has.
///
/// One session makes its links and sends every message on them from one
/// thread (DESIGN §22, *Threads*), so the link's state sits in a
/// [`RefCell`], not behind a lock, and a link is not `Sync`:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<fedlake_netsim::Link>();
/// ```
///
/// Every borrow of that state lies inside one method body below and calls
/// nothing that can reach the link again (the delay draw takes the
/// borrowed state, and the observer runs after the borrow ends), so no
/// borrow can meet another one.
#[derive(Debug)]
pub struct Link {
    /// The network setting this link simulates.
    pub profile: NetworkProfile,
    /// The fault schedule this link injects.
    pub faults: FaultPlan,
    /// `profile.delay`, prepared once: one draw per message.
    delay: DelaySampler,
    clock: SharedClock,
    cost: CostModel,
    state: RefCell<LinkState>,
    /// Label reported to the observer (usually the source id).
    label: String,
    /// Passive transfer observer; never influences outcomes or RNG.
    observer: Option<Arc<dyn NetObserver>>,
}

#[derive(Debug)]
struct LinkState {
    rng: Prng,
    /// Where a fault-free link reads its delays instead of drawing them
    /// (see [`crate::tape`]), with its draw counter.
    tape: Option<TapeReader>,
    stats: LinkStats,
    /// The link's private timeline: the absolute virtual time up to which
    /// this link is busy. Transfers scheduled on a link queue behind each
    /// other here instead of advancing the shared clock.
    local: Duration,
    /// The last message size priced and its [`CostModel::message_time`]:
    /// a link's messages are mostly one size (`rows_per_message`), so the
    /// fixed cost is computed once per size, not once per message.
    priced: (usize, Duration),
}

impl Link {
    /// Creates a fault-free link over `clock` with a deterministic RNG
    /// stream.
    pub fn new(profile: NetworkProfile, clock: SharedClock, cost: CostModel, seed: u64) -> Self {
        Self::with_faults(profile, clock, cost, seed, FaultPlan::NONE)
    }

    /// Creates a link that additionally injects `faults`.
    pub fn with_faults(
        profile: NetworkProfile,
        clock: SharedClock,
        cost: CostModel,
        seed: u64,
        faults: FaultPlan,
    ) -> Self {
        Link {
            profile,
            faults,
            delay: profile.delay.sampler(),
            clock,
            cost,
            state: RefCell::new(LinkState {
                rng: Prng::seed_from_u64(seed),
                tape: None,
                stats: LinkStats::default(),
                local: Duration::ZERO,
                priced: (0, cost.message_time(0)),
            }),
            label: String::new(),
            observer: None,
        }
    }

    /// Attaches a passive transfer observer under `label`. The observer
    /// is told about every attempt but cannot
    /// perturb the link: outcomes, RNG draws, stats, and times are
    /// identical with or without one.
    pub fn with_observer(
        mut self,
        label: impl Into<String>,
        observer: Arc<dyn NetObserver>,
    ) -> Self {
        self.label = label.into();
        self.observer = Some(observer);
        self
    }

    /// Reads this link's delays from `tape` — the tape of the link's own
    /// seed and delay model ([`crate::DelayTapes::tape`]) — instead of
    /// drawing them. Every time lands where it would have. Ignored when
    /// the fault plan is active: such a link's delays interleave with its
    /// fault draws on one stream, so it keeps drawing live.
    pub fn with_tape(self, tape: Option<Arc<DelayTape>>) -> Self {
        if !self.faults.is_active() {
            self.state.borrow_mut().tape = tape.map(TapeReader::new);
        }
        self
    }

    /// Attempts the transfer of one message carrying `rows` rows right now
    /// and waits for it: [`Link::schedule_message`] at the clock's current
    /// time, then the shared clock advances to the completion time.
    ///
    /// On success that is the sampled latency (possibly spiked) plus the
    /// fixed per-message cost. On failure the fault is returned; a
    /// truncated attempt still pays its transit delay, a drop or outage
    /// costs no link time (the *receiver's* detection timeout is the retry
    /// policy's concern, not the link's).
    pub fn try_transfer_message(&self, rows: usize) -> Result<(), LinkFault> {
        let (done, result) = self.schedule_message(rows, self.clock.now());
        self.clock.advance_to(done);
        result
    }

    /// Schedules the transfer of one message carrying `rows` rows on this
    /// link's *private* timeline, starting no earlier than `start`, and
    /// returns the absolute completion time plus the transfer outcome —
    /// the one transfer body: fault decisions, RNG draws, [`LinkStats`]
    /// and delay attribution (once per attempt) all happen here. It does
    /// not touch the shared clock; the caller decides when to wait for the
    /// completion time. Transfers on one link serialize behind each other
    /// (a link is one connection); transfers on *different* links overlap
    /// in virtual time.
    ///
    /// A drop or outage completes at its begin time and occupies no link
    /// time (detection is the receiver's timeout, charged by the retry
    /// policy); a truncated message pays its transit.
    pub fn schedule_message(&self, rows: usize, start: Duration) -> (Duration, Result<(), LinkFault>) {
        let (begin, done, result) = self.schedule_inner(rows, start);
        // The state's borrow ended with `schedule_inner`, so an observer
        // may read the link (its `stats`, its `local_time`) without
        // meeting it.
        if let Some(observer) = &self.observer {
            observer.on_transfer(&self.label, rows, begin, done, result.err());
        }
        (done, result)
    }

    /// Scheduled transfer body; returns `(begin, done, outcome)` so the
    /// observed path can report the attempt's occupancy window.
    fn schedule_inner(
        &self,
        rows: usize,
        start: Duration,
    ) -> (Duration, Duration, Result<(), LinkFault>) {
        // The one borrow of a transfer. It lasts to the end of this body,
        // which calls only the fault plan, the cost model, `next_delay` and
        // `message_time` (handed the borrowed state): none can reach the
        // link.
        let st = &mut *self.state.borrow_mut();
        let begin = st.local.max(start);
        let mut spike = false;
        if self.faults.is_active() {
            let attempt = st.stats.attempts;
            st.stats.attempts += 1;
            if self.faults.in_outage(attempt) {
                st.stats.outage_faults += 1;
                st.local = begin;
                return (begin, begin, Err(LinkFault::SourceDown));
            }
            let u = st.rng.next_f64();
            if u < self.faults.drop_prob {
                st.stats.dropped += 1;
                st.local = begin;
                return (begin, begin, Err(LinkFault::Dropped));
            }
            if u < self.faults.drop_prob + self.faults.truncate_prob {
                st.stats.truncated += 1;
                let delay = self.next_delay(st);
                st.stats.delay += delay;
                let done = begin + delay + self.message_time(st, rows);
                st.local = done;
                return (begin, done, Err(LinkFault::Truncated));
            }
            spike = u
                < self.faults.drop_prob + self.faults.truncate_prob + self.faults.spike_prob;
        }
        let mut delay = self.next_delay(st);
        if spike {
            st.stats.spikes += 1;
            delay = Duration::from_nanos(
                (delay.as_nanos() as f64 * self.faults.spike_factor.max(0.0)) as u64,
            );
        }
        st.stats.messages += 1;
        st.stats.rows += rows as u64;
        st.stats.delay += delay;
        let done = begin + delay + self.message_time(st, rows);
        st.local = done;
        (begin, done, Ok(()))
    }

    /// [`CostModel::message_time`] of a message of `rows` rows, priced
    /// again only when the size differs from the last message's.
    #[inline]
    fn message_time(&self, st: &mut LinkState, rows: usize) -> Duration {
        if st.priced.0 != rows {
            st.priced = (rows, self.cost.message_time(rows));
        }
        st.priced.1
    }

    /// The link's next delay: the next entry of its tape, or a live draw.
    #[inline]
    fn next_delay(&self, st: &mut LinkState) -> Duration {
        match &mut st.tape {
            Some(tape) => tape.next_delay(&mut st.rng),
            None => self.delay.sample(&mut st.rng),
        }
    }

    /// Schedules `work` of source-side compute (an RDB scan, a SPARQL
    /// evaluation, a backoff wait) on this link's private timeline,
    /// starting no earlier than `start`; returns the completion time. No
    /// traffic is recorded — this is occupancy, not transfer.
    pub fn schedule_busy(&self, work: Duration, start: Duration) -> Duration {
        let mut st = self.state.borrow_mut();
        let done = st.local.max(start) + work;
        st.local = done;
        done
    }

    /// The absolute time up to which this link's private timeline is
    /// occupied (zero until the first `schedule_*` call).
    pub fn local_time(&self) -> Duration {
        self.state.borrow().local
    }

    /// Simulates transferring `total_rows` rows in messages of
    /// `rows_per_message` (the last message may be smaller). An empty
    /// result still costs one (empty) message — the source must answer.
    /// Stops at the first injected fault and returns it: the engine ships
    /// rows through `schedule_rows_with_retry`, which retries; this does
    /// not.
    pub fn transfer_rows(
        &self,
        total_rows: usize,
        rows_per_message: usize,
    ) -> Result<(), LinkFault> {
        assert!(rows_per_message > 0, "message size must be positive");
        let mut remaining = total_rows;
        loop {
            let n = remaining.min(rows_per_message);
            self.try_transfer_message(n)?;
            remaining -= n;
            if remaining == 0 {
                return Ok(());
            }
        }
    }

    /// Traffic accumulated so far.
    pub fn stats(&self) -> LinkStats {
        self.state.borrow().stats
    }

    /// The shared clock this link advances.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// This link behind the `Arc` a route holds it by. `Arc` and not `Rc`
    /// because fedbench's probes hand one to `SourceRoute::single` by that
    /// type; the count is touched when a stream opens, not per message.
    #[allow(
        clippy::arc_with_non_send_sync,
        reason = "a session's links stay on its thread; fedbench's probes name the Arc"
    )]
    pub fn shared(self) -> Arc<Link> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::shared_virtual;
    use crate::parking_lot_shim::Mutex;
    use crate::profile::DelayModel;
    use crate::tape::{DelayTapes, TapeStats, WINDOW};

    fn link(profile: NetworkProfile) -> Link {
        Link::new(profile, shared_virtual(), CostModel::default(), 99)
    }

    #[test]
    fn transfer_advances_clock() {
        let l = link(NetworkProfile::GAMMA3);
        let before = l.clock().now();
        l.try_transfer_message(10).unwrap();
        assert!(l.clock().now() > before);
        let s = l.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.rows, 10);
        assert!(s.delay > Duration::ZERO);
    }

    #[test]
    fn no_delay_still_costs_transfer_time() {
        let l = link(NetworkProfile::NO_DELAY);
        l.try_transfer_message(10).unwrap();
        // No network delay, but serialization/transfer cost applies.
        assert_eq!(l.stats().delay, Duration::ZERO);
        assert!(l.clock().now() > Duration::ZERO);
    }

    #[test]
    fn batching_reduces_messages() {
        let a = link(NetworkProfile::GAMMA2);
        a.transfer_rows(100, 1).unwrap();
        let b = link(NetworkProfile::GAMMA2);
        b.transfer_rows(100, 50).unwrap();
        assert_eq!(a.stats().messages, 100);
        assert_eq!(b.stats().messages, 2);
        // Per-row messages accumulate far more delay.
        assert!(a.clock().now() > b.clock().now());
    }

    #[test]
    fn empty_result_costs_one_message() {
        let l = link(NetworkProfile::GAMMA1);
        l.transfer_rows(0, 64).unwrap();
        assert_eq!(l.stats().messages, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = link(NetworkProfile::GAMMA3);
        let b = link(NetworkProfile::GAMMA3);
        a.transfer_rows(50, 1).unwrap();
        b.transfer_rows(50, 1).unwrap();
        assert_eq!(a.clock().now(), b.clock().now());
    }

    #[test]
    fn slow_profile_dominates() {
        let fast = link(NetworkProfile::GAMMA1);
        let slow = link(NetworkProfile::GAMMA3);
        fast.transfer_rows(500, 1).unwrap();
        slow.transfer_rows(500, 1).unwrap();
        assert!(slow.clock().now() > fast.clock().now());
    }

    fn faulty(profile: NetworkProfile, plan: FaultPlan) -> Link {
        Link::with_faults(profile, shared_virtual(), CostModel::default(), 99, plan)
    }

    #[test]
    fn outage_fails_exact_window() {
        let plan = FaultPlan { outage_after: Some(2), outage_len: 3, ..FaultPlan::NONE };
        let l = faulty(NetworkProfile::GAMMA1, plan);
        let mut results = Vec::new();
        for _ in 0..7 {
            results.push(l.try_transfer_message(1).is_ok());
        }
        assert_eq!(results, [true, true, false, false, false, true, true]);
        let s = l.stats();
        assert_eq!(s.attempts, 7);
        assert_eq!(s.messages, 4);
        assert_eq!(s.outage_faults, 3);
        assert_eq!(s.faults(), 3);
    }

    #[test]
    fn drops_are_deterministic_and_cost_no_link_time() {
        let plan = FaultPlan { drop_prob: 0.5, ..FaultPlan::NONE };
        let a = faulty(NetworkProfile::NO_DELAY, plan);
        let b = faulty(NetworkProfile::NO_DELAY, plan);
        let ra: Vec<bool> = (0..64).map(|_| a.try_transfer_message(1).is_ok()).collect();
        let rb: Vec<bool> = (0..64).map(|_| b.try_transfer_message(1).is_ok()).collect();
        assert_eq!(ra, rb, "identical seeds must observe identical faults");
        let s = a.stats();
        assert!(s.dropped > 0, "p=0.5 over 64 attempts must drop something");
        assert_eq!(s.messages + s.dropped, 64);
        // NoDelay + only drops: clock time comes from delivered messages only.
        assert_eq!(a.clock().now(), CostModel::default().message_time(1) * s.messages as u32);
    }

    /// Every completion is the message's begin, its delay and the fixed cost
    /// of its own size, priced afresh here: the link prices a size again
    /// only when it differs from the last message's, on the delivered and
    /// on the truncated path alike.
    #[test]
    fn a_message_pays_the_fixed_cost_of_its_own_size() {
        const SIZES: [usize; 7] = [0, 1, 1, 16, 3, 0, 1];
        let cost = CostModel::default();
        let truncating = FaultPlan { truncate_prob: 0.5, ..FaultPlan::NONE };
        for plan in [FaultPlan::NONE, truncating] {
            let l = faulty(NetworkProfile::GAMMA2, plan);
            let (mut last, mut truncated_after_another_size) = (None, 0);
            for rows in SIZES.repeat(4) {
                let (begin, delay) = (l.local_time(), l.stats().delay);
                let (done, result) = l.schedule_message(rows, begin);
                let delay = l.stats().delay - delay;
                assert_eq!(done, begin + delay + cost.message_time(rows), "{rows} rows, {plan:?}");
                match result {
                    Ok(()) => {}
                    Err(LinkFault::Truncated) => {
                        truncated_after_another_size += usize::from(last != Some(rows));
                    }
                    Err(fault) => panic!("{fault:?} under {plan:?}"),
                }
                last = Some(rows);
            }
            let s = l.stats();
            assert_eq!(s.messages + s.truncated, 28);
            if plan.is_active() {
                assert!(truncated_after_another_size > 0, "no truncation changed the size");
            } else {
                assert_eq!(s.messages, 28);
            }
        }
    }

    #[test]
    fn truncation_pays_transit_delay() {
        let plan = FaultPlan { truncate_prob: 1.0, ..FaultPlan::NONE };
        let l = faulty(NetworkProfile::GAMMA3, plan);
        assert_eq!(l.try_transfer_message(5), Err(LinkFault::Truncated));
        let s = l.stats();
        assert_eq!(s.truncated, 1);
        assert_eq!(s.messages, 0);
        assert!(s.delay > Duration::ZERO, "a truncated message still paid its delay");
        assert!(l.clock().now() > Duration::ZERO);
    }

    #[test]
    fn spikes_inflate_delay_deterministically() {
        let plan = FaultPlan { spike_prob: 1.0, spike_factor: 10.0, ..FaultPlan::NONE };
        let spiked = faulty(NetworkProfile::GAMMA2, plan);
        let plain = link(NetworkProfile::GAMMA2);
        for _ in 0..32 {
            spiked.try_transfer_message(1).unwrap();
            plain.try_transfer_message(1).unwrap();
        }
        assert_eq!(spiked.stats().spikes, 32);
        // The spiked link consumes one extra fault draw per message, so the
        // streams differ; still, a 10x factor must dominate the variance.
        assert!(spiked.stats().delay > plain.stats().delay * 3);
        // And identical seeds with identical plans stay identical.
        let again = faulty(NetworkProfile::GAMMA2, plan);
        for _ in 0..32 {
            again.try_transfer_message(1).unwrap();
        }
        assert_eq!(again.stats(), spiked.stats());
    }

    #[test]
    fn inactive_plan_preserves_rng_stream() {
        // A link with FaultPlan::NONE must behave bit-identically to a
        // pre-fault link: no extra RNG draws, identical clock.
        let a = link(NetworkProfile::GAMMA3);
        let b = faulty(NetworkProfile::GAMMA3, FaultPlan::NONE);
        a.transfer_rows(100, 7).unwrap();
        b.transfer_rows(100, 7).unwrap();
        assert_eq!(a.clock().now(), b.clock().now());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.stats().attempts, 0, "inactive plans do not count attempts");
    }

    #[test]
    fn a_transfer_stops_at_its_first_fault() {
        let plan = FaultPlan { outage_after: Some(1), outage_len: 1, ..FaultPlan::NONE };
        let l = faulty(NetworkProfile::NO_DELAY, plan);
        assert_eq!(l.transfer_rows(10, 2), Err(LinkFault::SourceDown));
        assert_eq!((l.stats().messages, l.stats().attempts), (1, 2));
    }

    #[test]
    fn scheduled_transfers_queue_on_the_local_timeline() {
        let l = link(NetworkProfile::GAMMA2);
        let (t1, r1) = l.schedule_message(5, Duration::ZERO);
        assert_eq!(r1, Ok(()));
        assert!(t1 > Duration::ZERO);
        // A second transfer requested "at time zero" still queues behind
        // the first: one link is one connection.
        let (t2, r2) = l.schedule_message(5, Duration::ZERO);
        assert_eq!(r2, Ok(()));
        assert!(t2 > t1);
        assert_eq!(l.local_time(), t2);
        // The shared clock is untouched by scheduling.
        assert_eq!(l.clock().now(), Duration::ZERO);
    }

    /// The delay stream and its accounting, pinned to the values the
    /// blocking transfer body produced before the two bodies became one:
    /// `try_transfer_message` and back-to-back `schedule_message` both land
    /// every message at these times with these stats.
    #[test]
    fn message_draws_and_stats_are_pinned() {
        let want_stats = LinkStats {
            messages: 32,
            rows: 48,
            delay: Duration::from_nanos(132_086_676),
            ..LinkStats::default()
        };
        let first_four = [9_366_314, 16_454_246, 20_158_831, 22_086_027].map(Duration::from_nanos);
        let end = Duration::from_nanos(132_243_476);

        let a = link(NetworkProfile::GAMMA3);
        let mut waited = Vec::new();
        for i in 0..32 {
            a.try_transfer_message(i % 4).unwrap();
            waited.push(a.clock().now());
        }
        assert_eq!(waited[..4], first_four);
        assert_eq!((a.stats(), a.clock().now(), a.local_time()), (want_stats, end, end));

        let b = link(NetworkProfile::GAMMA3);
        let mut scheduled = Vec::new();
        let mut start = Duration::ZERO;
        for i in 0..32 {
            let (done, r) = b.schedule_message(i % 4, start);
            assert_eq!(r, Ok(()));
            scheduled.push(done);
            start = done;
        }
        assert_eq!(scheduled, waited, "a transfer waited for lands where a scheduled one does");
        // Scheduling alone leaves the shared clock where it was.
        assert_eq!((b.stats(), b.clock().now(), b.local_time()), (want_stats, Duration::ZERO, end));
    }

    #[test]
    fn scheduled_drop_occupies_no_link_time() {
        let plan = FaultPlan { drop_prob: 1.0, ..FaultPlan::NONE };
        let l = faulty(NetworkProfile::GAMMA3, plan);
        let start = Duration::from_millis(7);
        let (done, r) = l.schedule_message(3, start);
        assert_eq!(r, Err(LinkFault::Dropped));
        assert_eq!(done, start, "a drop completes at its begin time");
        assert_eq!(l.local_time(), start);
    }

    type TransferEvent = (String, usize, Duration, Duration, Option<LinkFault>);

    #[derive(Debug, Default)]
    struct Recorder {
        events: Mutex<Vec<TransferEvent>>,
    }

    impl NetObserver for Recorder {
        fn on_transfer(
            &self,
            link: &str,
            rows: usize,
            start: Duration,
            end: Duration,
            fault: Option<LinkFault>,
        ) {
            self.events.lock().push((link.to_string(), rows, start, end, fault));
        }
    }

    /// An observer changes nothing, and what it is shown is pinned to what
    /// the blocking transfer body reported before the two bodies became
    /// one: the outcome of every attempt and its `[start, end]` window on
    /// the shared clock.
    #[test]
    fn observer_is_passive_and_its_windows_are_pinned() {
        let plan = FaultPlan { drop_prob: 0.3, truncate_prob: 0.2, ..FaultPlan::NONE };
        let plain = faulty(NetworkProfile::GAMMA2, plan);
        let rec = Arc::new(Recorder::default());
        // A fault-active link ignores the tape it is given.
        let tapes = DelayTapes::default();
        let observed = faulty(NetworkProfile::GAMMA2, plan)
            .with_tape(tapes.tape(99, NetworkProfile::GAMMA2.delay))
            .with_observer("src", Arc::clone(&rec) as Arc<dyn NetObserver>);
        let mut outcomes = String::new();
        for i in 0..48 {
            let a = plain.try_transfer_message(i % 5);
            let b = observed.try_transfer_message(i % 5);
            assert_eq!(a, b, "observer must not change outcomes");
            outcomes.push(match b {
                Ok(()) => 'o',
                Err(LinkFault::Dropped) => 'd',
                Err(LinkFault::Truncated) => 't',
                Err(LinkFault::SourceDown) => 'x',
            });
        }
        assert_eq!(outcomes, "ddooododooototdtooooodoodottddoddotdooddodoootoo");
        assert_eq!(plain.stats(), observed.stats());
        assert_eq!(plain.clock().now(), observed.clock().now());
        assert_eq!(
            observed.stats(),
            LinkStats {
                messages: 26,
                rows: 52,
                delay: Duration::from_nanos(99_513_819),
                attempts: 48,
                dropped: 15,
                truncated: 7,
                ..LinkStats::default()
            }
        );
        assert_eq!(observed.clock().now(), Duration::from_nanos(99_683_619));

        let events = rec.events.lock();
        assert_eq!(events.len(), 48, "every attempt is reported");
        let window = |i: usize| {
            let (label, rows, start, end, fault) = &events[i];
            assert_eq!(label, "src");
            (*rows, start.as_nanos(), end.as_nanos(), *fault)
        };
        assert_eq!(window(0), (0, 0, 0, Some(LinkFault::Dropped)), "a drop takes no link time");
        assert_eq!(window(1), (1, 0, 0, Some(LinkFault::Dropped)));
        assert_eq!(window(2), (2, 0, 4_727_421, None));
        assert_eq!(window(3), (3, 4_727_421, 6_307_070, None), "windows abut on the shared clock");
        assert_eq!(window(47), (2, 95_975_182, 99_683_619, None));
        let rows: u64 = events.iter().filter(|e| e.4.is_none()).map(|e| e.1 as u64).sum();
        assert_eq!(rows, observed.stats().rows, "successful rows reconcile");
        for pair in events.windows(2) {
            assert_eq!(pair[0].3, pair[1].2, "each attempt starts where the last one ended");
        }
        assert_eq!(tapes.stats().draws, 0, "nothing was read from the tape");
    }

    /// `link` reading `tapes`' tape of its seed (99) and model.
    fn taped(profile: NetworkProfile, tapes: &DelayTapes) -> Link {
        link(profile).with_tape(tapes.tape(99, profile.delay))
    }

    /// Sends `message_draws_and_stats_are_pinned`'s 32 messages and returns
    /// the times they landed at and the windows the observer saw.
    fn pinned_run(l: Link) -> (Vec<Duration>, Link, Vec<TransferEvent>) {
        let rec = Arc::new(Recorder::default());
        let l = l.with_observer("src", Arc::clone(&rec) as Arc<dyn NetObserver>);
        let waited = (0..32)
            .map(|i| {
                l.try_transfer_message(i % 4).unwrap();
                l.clock().now()
            })
            .collect();
        let events = rec.events.lock().clone();
        (waited, l, events)
    }

    /// A tape changes no time: while the first link fills it and while the
    /// second reads it back, every message lands at the pinned instant,
    /// with the pinned stats and the untaped link's observer windows.
    #[test]
    fn a_taped_link_lands_every_message_where_an_untaped_one_does() {
        let want_stats = LinkStats {
            messages: 32,
            rows: 48,
            delay: Duration::from_nanos(132_086_676),
            ..LinkStats::default()
        };
        let first_four = [9_366_314, 16_454_246, 20_158_831, 22_086_027].map(Duration::from_nanos);
        let end = Duration::from_nanos(132_243_476);
        let (plain_times, _, plain_windows) = pinned_run(link(NetworkProfile::GAMMA3));

        let tapes = DelayTapes::default();
        for pass in ["fills", "reads"] {
            let (times, l, windows) = pinned_run(taped(NetworkProfile::GAMMA3, &tapes));
            assert_eq!(times[..4], first_four, "{pass}");
            assert_eq!(times, plain_times, "{pass}");
            assert_eq!(
                (l.stats(), l.clock().now(), l.local_time()),
                (want_stats, end, end),
                "{pass}"
            );
            assert_eq!(windows, plain_windows, "{pass}");
            assert_eq!(tapes.stats(), TapeStats { tapes: 1, draws: 32 }, "{pass}");
        }
    }

    /// `serve`'s case: links on one tape take their delays in whatever
    /// order their callers interleave, and each still equals a link of its
    /// own that draws live.
    #[test]
    fn two_links_on_one_tape_each_equal_a_solo_link() {
        let tapes = DelayTapes::default();
        let on_tape =
            [taped(NetworkProfile::GAMMA2, &tapes), taped(NetworkProfile::GAMMA2, &tapes)];
        let solo = [link(NetworkProfile::GAMMA2), link(NetworkProfile::GAMMA2)];
        let mut order = Prng::seed_from_u64(0x7a9e);
        for _ in 0..400 {
            // Skewed, so each link spends stretches ahead of the other.
            let i = usize::from(order.gen_bool(0.7));
            let rows = order.gen_range(0..5usize);
            let start = Duration::from_micros(order.gen_range(0..20_000u64));
            assert_eq!(
                on_tape[i].schedule_message(rows, start),
                solo[i].schedule_message(rows, start)
            );
        }
        for i in 0..2 {
            assert_eq!(on_tape[i].stats(), solo[i].stats(), "link {i}");
            assert_eq!(on_tape[i].local_time(), solo[i].local_time(), "link {i}");
        }
        let longest = on_tape.iter().map(|l| l.stats().messages).max().unwrap();
        let drawn = tapes.stats().draws;
        assert!((longest..longest + WINDOW as u64).contains(&drawn), "{drawn} for {longest}");
    }

    /// A delay of 2³² ns or more does not fit the tape: the tape seals
    /// before it, and a link that reads past the end draws on, live, from
    /// where the tape stopped.
    #[test]
    fn an_overflowing_draw_seals_the_tape_and_the_link_continues_live() {
        for (alpha, beta_ms, some_fit) in [(3.0, 5e6, false), (1.0, 1_000.0, true)] {
            let profile =
                NetworkProfile { name: "slow", delay: DelayModel::Gamma { alpha, beta_ms } };
            let tapes = DelayTapes::default();
            for reader in 0..2 {
                let (l, plain) = (taped(profile, &tapes), link(profile));
                for i in 0..400 {
                    assert_eq!(
                        l.schedule_message(i % 3, Duration::ZERO),
                        plain.schedule_message(i % 3, Duration::ZERO),
                        "Γ({alpha}, {beta_ms}) reader {reader} message {i}"
                    );
                }
                assert_eq!(l.stats(), plain.stats());
            }
            let tape = tapes.tape(99, profile.delay).unwrap();
            assert!(tape.is_sealed(), "Γ({alpha}, {beta_ms})");
            assert_eq!(tape.draws() > 0, some_fit, "Γ({alpha}, {beta_ms}): {tape:?}");
            assert!(tape.draws() < 400);
        }
    }

    #[test]
    fn observer_sees_scheduled_occupancy_windows() {
        let rec = Arc::new(Recorder::default());
        let l = link(NetworkProfile::GAMMA2)
            .with_observer("src", Arc::clone(&rec) as Arc<dyn NetObserver>);
        let (t1, _) = l.schedule_message(3, Duration::from_millis(2));
        let (t2, _) = l.schedule_message(4, Duration::ZERO);
        let events = rec.events.lock();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].2, Duration::from_millis(2), "begin honours start");
        assert_eq!(events[0].3, t1);
        assert_eq!(events[1].2, t1, "second transfer queues behind the first");
        assert_eq!(events[1].3, t2);
    }

    #[test]
    fn scheduled_busy_extends_timeline_without_traffic() {
        let l = link(NetworkProfile::GAMMA1);
        let done = l.schedule_busy(Duration::from_millis(4), Duration::from_millis(10));
        assert_eq!(done, Duration::from_millis(14));
        assert_eq!(l.local_time(), done);
        assert_eq!(l.stats().messages, 0);
    }
}
