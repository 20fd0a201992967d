//! Engine-level physical operators.
//!
//! Execution is pull-based and streaming: operators produce one solution
//! at a time while the shared simulation clock advances, so the answer
//! trace reflects *when* each answer became available — the measurement of
//! Figure 2. The join is ANAPSID's adaptive **symmetric hash join**
//! (agjoin): it consumes from both inputs in alternation and emits matches
//! as soon as probes succeed, producing answers incrementally instead of
//! blocking on a build phase.
//!
//! Solution mappings travel as [`SlotRow`]s: fixed-width arrays of
//! [`fedlake_rdf::TermId`]s laid out by the query's [`RowSchema`] and
//! interned in a query-scoped [`SharedInterner`]. Join keys, DISTINCT
//! hashing and projection therefore operate on `u32` ids; only FILTER
//! evaluation resolves ids back to terms, lazily, for value comparisons.

use crate::error::FedError;
use fedlake_netsim::{CostModel, EventQueue, EventTime, SharedClock};
use fedlake_rdf::{FastMap, FastSet, SharedInterner, TermId};
use fedlake_sparql::binding::{RowSchema, SlotRow};
use fedlake_sparql::expr::{BoundExpr, Expr};
use std::collections::VecDeque;
use std::sync::Arc;

/// Engine-side work counters for one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Filter evaluations performed at the engine level.
    pub engine_filter_evals: u64,
    /// Symmetric-hash-join inserts+probes at the engine level.
    pub engine_join_probes: u64,
    /// SQL queries sent to relational sources.
    pub sql_queries: u64,
    /// Rows retrieved from all services.
    pub service_rows: u64,
    /// Message attempts re-issued after a link fault.
    pub retries: u64,
}

/// Shared execution context: the clock, cost model, counters, and the
/// query's row representation (slot layout plus term interner).
#[derive(Debug)]
pub struct ExecCtx {
    /// The simulation clock shared with every wrapper link.
    pub clock: SharedClock,
    /// Cost model pricing engine-level work.
    pub cost: CostModel,
    /// Accumulated counters.
    pub stats: EngineStats,
    /// The query's slot layout, fixed at plan time.
    pub schema: Arc<RowSchema>,
    /// The query-scoped term interner shared with every wrapper stream.
    pub interner: SharedInterner,
    /// Retry behaviour of the wrapper streams when a link attempt fails.
    pub retry: crate::config::RetryPolicy,
    /// The query's deadline, when one is configured: retry backoffs are
    /// clamped so a failing attempt never charges a pause reaching past
    /// it.
    pub deadline: Option<std::time::Duration>,
    /// The discrete-event schedule of in-flight source work (stays empty
    /// under the serialized policy, whose waits never become events).
    pub sched: EventQueue,
    /// The schedule policy; see [`ExecCtx::serialized`].
    serialized: bool,
    /// The trace sink wrapper streams record spans into (disabled — a
    /// single branch per hook — unless the config asks for tracing).
    pub trace: crate::obs::TraceSink,
    /// The query's flight-recorder handle: wrapper streams record retry
    /// and failover lifecycle events through it (disabled — a single
    /// branch per hook — unless [`crate::PlanConfig::recorder`] is set).
    pub recorder: crate::obs::QueryRecorder,
    /// The source-result cache leaves and bind-join batches read (see
    /// [`crate::wrapper::LiftCache`]), shared across the engine's
    /// executions. Must always be paired with the interner the cached ids
    /// were interned into — the engine passes both from the same session;
    /// a fresh context gets an empty cache, which is trivially consistent.
    pub lifts: crate::wrapper::SharedLiftCache,
}

impl ExecCtx {
    /// Creates a context for one query execution with the default retry
    /// policy (use [`ExecCtx::with_retry`] to override).
    pub fn new(
        clock: SharedClock,
        cost: CostModel,
        schema: Arc<RowSchema>,
        interner: SharedInterner,
    ) -> Self {
        ExecCtx {
            clock,
            cost,
            stats: EngineStats::default(),
            schema,
            interner,
            retry: crate::config::RetryPolicy::default(),
            deadline: None,
            sched: EventQueue::new(),
            serialized: false,
            trace: crate::obs::TraceSink::disabled(),
            recorder: crate::obs::QueryRecorder::disabled(),
            lifts: Arc::default(),
        }
    }

    /// Switches the context to the paper's serialized schedule: one
    /// single-threaded wrapper loop, so a wait on source work is sat out
    /// where it starts and the joins alternate strictly between their
    /// inputs. The default lets waits surface as [`Poll::Pending`] events,
    /// which is what overlaps independent sources.
    ///
    /// The policy is read in two places only: [`ExecCtx::wait_until`] and
    /// the child pick of the two-input joins.
    pub fn serialized(mut self) -> Self {
        self.serialized = true;
        self
    }

    /// Whether this context runs the serialized schedule.
    pub(crate) fn is_serialized(&self) -> bool {
        self.serialized
    }

    /// Starts the wait for source work that completes at `time` — a
    /// request plus the source's evaluation, a message, a bind-join batch.
    /// Serialized, the wait happens here: the shared clock jumps to `time`
    /// and nothing enters [`ExecCtx::sched`]. Otherwise the completion is
    /// scheduled as an event for [`ExecCtx::still_pending`] to report.
    pub(crate) fn wait_until(&mut self, time: std::time::Duration) -> Wait {
        if self.serialized {
            self.clock.advance_to(time);
            Wait(None)
        } else {
            Wait(Some(self.sched.schedule(time)))
        }
    }

    /// The event `wait` still stands on — what the poll that asks must
    /// return as [`Poll::Pending`] — or `None` once the wait is over. A due
    /// event is completed here, by the poll that observes it.
    pub(crate) fn still_pending(&mut self, wait: Wait) -> Option<EventTime> {
        let ev = wait.0?;
        if ev.time > self.clock.now() {
            return Some(ev);
        }
        self.sched.complete(ev);
        None
    }

    /// Installs the engine's source-result cache (see
    /// [`ExecCtx::lifts`] for the pairing invariant with the interner).
    pub fn with_lifts(mut self, lifts: crate::wrapper::SharedLiftCache) -> Self {
        self.lifts = lifts;
        self
    }

    /// Sets the retry policy wrapper streams consult.
    pub fn with_retry(mut self, retry: crate::config::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the deadline retry backoffs are clamped against.
    pub fn with_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Installs a trace sink; an enabled sink also observes the event
    /// queue's depth.
    pub fn with_trace(mut self, trace: crate::obs::TraceSink) -> Self {
        if let Some(obs) = trace.net_observer() {
            self.sched.set_observer(obs);
        }
        self.trace = trace;
        self
    }

    /// Installs the query's flight-recorder handle.
    pub fn with_recorder(mut self, recorder: crate::obs::QueryRecorder) -> Self {
        self.recorder = recorder;
        self
    }
}

/// A wait on source work with a known completion time, from
/// [`ExecCtx::wait_until`]: the event it surfaces as, or nothing when the
/// serialized policy already sat it out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wait(Option<EventTime>);

/// The outcome of one non-blocking pull (the overlapped schedule's
/// currency). Generic so the reference executor can reuse it for its
/// term-row currency.
#[derive(Debug, Clone, PartialEq)]
pub enum Poll<T> {
    /// A solution is available now.
    Ready(T),
    /// No solution yet: the earliest event that could unblock this
    /// operator completes at the carried [`EventTime`] (strictly in the
    /// future — a due event is consumed by the poll that observes it).
    Pending(EventTime),
    /// The stream is exhausted.
    Done,
}

/// The smaller of two optional pending events.
pub(crate) fn earlier(a: Option<EventTime>, b: EventTime) -> Option<EventTime> {
    Some(match a {
        Some(a) => a.min(b),
        None => b,
    })
}

/// A pull-based operator.
pub trait FedOp {
    /// Produces the next solution, advancing the clock by the work done.
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError>;

    /// Non-blocking pull for the overlapped schedule: either yields a row,
    /// reports the earliest in-flight event it is waiting on, or is done.
    ///
    /// The default delegates to [`FedOp::next`], which is correct only for
    /// operators that never wait on source I/O (pre-materialized inputs);
    /// every operator above a wrapper stream overrides this.
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        Ok(match self.next(ctx)? {
            Some(row) => Poll::Ready(row),
            None => Poll::Done,
        })
    }
}

/// A boxed operator (streams borrow the lake, hence the lifetime).
pub type BoxedOp<'a> = Box<dyn FedOp + 'a>;

fn key_of(row: &SlotRow, on_slots: &[usize]) -> Option<Box<[TermId]>> {
    on_slots.iter().map(|&s| row.get(s)).collect()
}

/// The ANAPSID-style symmetric hash join.
///
/// Both inputs are consumed in alternation; every arriving row is inserted
/// into its side's hash table and immediately probed against the other
/// side, so results stream out as soon as both matching rows have arrived.
/// Keys are id arrays, so probing never compares strings.
pub struct SymHashJoin<'a> {
    left: BoxedOp<'a>,
    right: BoxedOp<'a>,
    on_slots: Vec<usize>,
    left_table: FastMap<Box<[TermId]>, Vec<SlotRow>>,
    right_table: FastMap<Box<[TermId]>, Vec<SlotRow>>,
    left_done: bool,
    right_done: bool,
    pull_left: bool,
    left_wait: Option<EventTime>,
    right_wait: Option<EventTime>,
    out: VecDeque<SlotRow>,
}

impl<'a> SymHashJoin<'a> {
    /// Creates a join of `left` and `right` on the slots `on_slots`
    /// (empty degenerates to a cartesian product).
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, on_slots: Vec<usize>) -> Self {
        SymHashJoin {
            left,
            right,
            on_slots,
            left_table: FastMap::default(),
            right_table: FastMap::default(),
            left_done: false,
            right_done: false,
            pull_left: true,
            left_wait: None,
            right_wait: None,
            out: VecDeque::new(),
        }
    }

    fn insert_and_probe(&mut self, row: SlotRow, from_left: bool, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.clock.advance(ctx.cost.engine_join_time(1));
        let Some(key) = key_of(&row, &self.on_slots) else {
            // A row not binding every join variable can never match.
            return;
        };
        let (own, other) = if from_left {
            (&mut self.left_table, &self.right_table)
        } else {
            (&mut self.right_table, &self.left_table)
        };
        if let Some(matches) = other.get(&key) {
            for m in matches {
                if let Some(merged) = row.merge(m) {
                    ctx.clock.advance(ctx.cost.engine_row_time(1));
                    self.out.push_back(merged);
                }
            }
        }
        own.entry(key).or_default().push(row);
    }
}

impl FedOp for SymHashJoin<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Some(row));
            }
            if self.left_done && self.right_done {
                return Ok(None);
            }
            // Alternate between inputs while both still produce — the
            // adaptive behaviour that makes answers stream out early.
            let take_left = if self.left_done {
                false
            } else if self.right_done {
                true
            } else {
                self.pull_left
            };
            self.pull_left = !self.pull_left;
            if take_left {
                match self.left.next(ctx)? {
                    Some(row) => self.insert_and_probe(row, true, ctx),
                    None => self.left_done = true,
                }
            } else {
                match self.right.next(ctx)? {
                    Some(row) => self.insert_and_probe(row, false, ctx),
                    None => self.right_done = true,
                }
            }
        }
    }

    /// ANAPSID's adaptivity proper: instead of strict alternation, consume
    /// from *whichever* input has a row ready at the current virtual time,
    /// and only report Pending when both inputs are stalled on in-flight
    /// transfers. Re-poll order follows the children's last-reported
    /// Pending events by `(time, seq)`: the child whose in-flight event is
    /// due first is re-polled first, and a child with nothing in flight
    /// goes first in structural order — pinning the schedule even when two
    /// events share a completion time.
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Poll::Ready(row));
            }
            if self.left_done && self.right_done {
                return Ok(Poll::Done);
            }
            if ctx.is_serialized() {
                let take_left = if self.left_done {
                    false
                } else if self.right_done {
                    true
                } else {
                    self.pull_left
                };
                self.pull_left = !self.pull_left;
                let side = if take_left { &mut self.left } else { &mut self.right };
                match side.poll_next(ctx)? {
                    Poll::Ready(row) => self.insert_and_probe(row, take_left, ctx),
                    Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                    Poll::Done if take_left => self.left_done = true,
                    Poll::Done => self.right_done = true,
                }
                continue;
            }
            let left_first = match (self.left_wait, self.right_wait) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(l), Some(r)) => l <= r,
            };
            let mut progressed = false;
            let mut wait: Option<EventTime> = None;
            let order = if left_first { [true, false] } else { [false, true] };
            for is_left in order {
                let done = if is_left { self.left_done } else { self.right_done };
                if done {
                    continue;
                }
                let side = if is_left { &mut self.left } else { &mut self.right };
                match side.poll_next(ctx)? {
                    Poll::Ready(row) => {
                        if is_left {
                            self.left_wait = None;
                        } else {
                            self.right_wait = None;
                        }
                        self.insert_and_probe(row, is_left, ctx);
                        progressed = true;
                    }
                    Poll::Pending(ev) => {
                        if is_left {
                            self.left_wait = Some(ev);
                        } else {
                            self.right_wait = Some(ev);
                        }
                        wait = earlier(wait, ev);
                    }
                    Poll::Done => {
                        if is_left {
                            self.left_wait = None;
                            self.left_done = true;
                        } else {
                            self.right_wait = None;
                            self.right_done = true;
                        }
                        progressed = true;
                    }
                }
            }
            if !progressed {
                if let Some(ev) = wait {
                    // The second child's poll can advance the clock past an
                    // event the first child reported earlier in this round
                    // (e.g. a filter charging for discarded rows). A due
                    // event must be consumed by its owner, so go around
                    // again instead of surfacing a stale Pending.
                    if ev.time > ctx.clock.now() {
                        return Ok(Poll::Pending(ev));
                    }
                }
            }
        }
    }
}

/// Streaming left join (for `OPTIONAL`): matched pairs stream out as soon
/// as both sides arrive; left rows that never matched are emitted
/// unextended once both inputs drain.
pub struct LeftHashJoin<'a> {
    left: BoxedOp<'a>,
    right: BoxedOp<'a>,
    on_slots: Vec<usize>,
    left_rows: Vec<(SlotRow, bool)>, // (row, matched)
    left_table: FastMap<Box<[TermId]>, Vec<usize>>,
    right_table: FastMap<Box<[TermId]>, Vec<SlotRow>>,
    left_done: bool,
    right_done: bool,
    pull_left: bool,
    left_wait: Option<EventTime>,
    right_wait: Option<EventTime>,
    out: VecDeque<SlotRow>,
    flushed: bool,
}

impl<'a> LeftHashJoin<'a> {
    /// Creates a left join of `left` (required) and `right` (optional) on
    /// the slots `on_slots`.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, on_slots: Vec<usize>) -> Self {
        LeftHashJoin {
            left,
            right,
            on_slots,
            left_rows: Vec::new(),
            left_table: FastMap::default(),
            right_table: FastMap::default(),
            left_done: false,
            right_done: false,
            pull_left: true,
            left_wait: None,
            right_wait: None,
            out: VecDeque::new(),
            flushed: false,
        }
    }

    fn take_left(&mut self, row: SlotRow, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.clock.advance(ctx.cost.engine_join_time(1));
        let idx = self.left_rows.len();
        let key = key_of(&row, &self.on_slots);
        let mut matched = false;
        if let Some(key) = &key {
            if let Some(matches) = self.right_table.get(key) {
                for m in matches {
                    if let Some(merged) = row.merge(m) {
                        matched = true;
                        ctx.clock.advance(ctx.cost.engine_row_time(1));
                        self.out.push_back(merged);
                    }
                }
            }
            self.left_table.entry(key.clone()).or_default().push(idx);
        }
        // A left row not binding every join variable can never match a
        // (fully-bound) right row; it will flush unextended.
        self.left_rows.push((row, matched));
    }

    fn take_right(&mut self, row: SlotRow, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.clock.advance(ctx.cost.engine_join_time(1));
        let Some(key) = key_of(&row, &self.on_slots) else { return };
        if let Some(left_idxs) = self.left_table.get(&key) {
            for &i in left_idxs {
                let (lrow, matched) = &mut self.left_rows[i];
                if let Some(merged) = lrow.merge(&row) {
                    *matched = true;
                    ctx.clock.advance(ctx.cost.engine_row_time(1));
                    self.out.push_back(merged);
                }
            }
        }
        self.right_table.entry(key).or_default().push(row);
    }
}

impl FedOp for LeftHashJoin<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Some(row));
            }
            if self.left_done && self.right_done {
                if !self.flushed {
                    self.flushed = true;
                    for (row, matched) in &self.left_rows {
                        if !matched {
                            self.out.push_back(row.clone());
                        }
                    }
                    continue;
                }
                return Ok(None);
            }
            let take_left = if self.left_done {
                false
            } else if self.right_done {
                true
            } else {
                self.pull_left
            };
            self.pull_left = !self.pull_left;
            if take_left {
                match self.left.next(ctx)? {
                    Some(row) => self.take_left(row, ctx),
                    None => self.left_done = true,
                }
            } else {
                match self.right.next(ctx)? {
                    Some(row) => self.take_right(row, ctx),
                    None => self.right_done = true,
                }
            }
        }
    }

    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Poll::Ready(row));
            }
            if self.left_done && self.right_done {
                if !self.flushed {
                    self.flushed = true;
                    for (row, matched) in &self.left_rows {
                        if !matched {
                            self.out.push_back(row.clone());
                        }
                    }
                    continue;
                }
                return Ok(Poll::Done);
            }
            if ctx.is_serialized() {
                let take_left = if self.left_done {
                    false
                } else if self.right_done {
                    true
                } else {
                    self.pull_left
                };
                self.pull_left = !self.pull_left;
                let side = if take_left { &mut self.left } else { &mut self.right };
                match side.poll_next(ctx)? {
                    Poll::Ready(row) if take_left => self.take_left(row, ctx),
                    Poll::Ready(row) => self.take_right(row, ctx),
                    Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                    Poll::Done if take_left => self.left_done = true,
                    Poll::Done => self.right_done = true,
                }
                continue;
            }
            // Same `(time, seq)` re-poll order as SymHashJoin: the child
            // whose last-reported Pending event is due first goes first.
            let left_first = match (self.left_wait, self.right_wait) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(l), Some(r)) => l <= r,
            };
            let mut progressed = false;
            let mut wait: Option<EventTime> = None;
            let order = if left_first { [true, false] } else { [false, true] };
            for is_left in order {
                let done = if is_left { self.left_done } else { self.right_done };
                if done {
                    continue;
                }
                let side = if is_left { &mut self.left } else { &mut self.right };
                match side.poll_next(ctx)? {
                    Poll::Ready(row) => {
                        if is_left {
                            self.left_wait = None;
                            self.take_left(row, ctx);
                        } else {
                            self.right_wait = None;
                            self.take_right(row, ctx);
                        }
                        progressed = true;
                    }
                    Poll::Pending(ev) => {
                        if is_left {
                            self.left_wait = Some(ev);
                        } else {
                            self.right_wait = Some(ev);
                        }
                        wait = earlier(wait, ev);
                    }
                    Poll::Done => {
                        if is_left {
                            self.left_wait = None;
                            self.left_done = true;
                        } else {
                            self.right_wait = None;
                            self.right_done = true;
                        }
                        progressed = true;
                    }
                }
            }
            if !progressed {
                if let Some(ev) = wait {
                    // The second child's poll can advance the clock past an
                    // event the first child reported earlier in this round
                    // (e.g. a filter charging for discarded rows). A due
                    // event must be consumed by its owner, so go around
                    // again instead of surfacing a stale Pending.
                    if ev.time > ctx.clock.now() {
                        return Ok(Poll::Pending(ev));
                    }
                }
            }
        }
    }
}

/// Engine-level conjunctive filter. The expressions are bound against
/// the query's schema once, at construction; evaluating one is slot reads
/// and `&str` compares, resolving ids through the query interner only
/// where a value comparison needs a term.
pub struct FilterOp<'a> {
    input: BoxedOp<'a>,
    exprs: Vec<BoundExpr>,
}

impl<'a> FilterOp<'a> {
    /// Creates a filter over `input`, whose rows are laid out by `schema`.
    pub fn new(input: BoxedOp<'a>, exprs: &[Expr], schema: &RowSchema) -> Self {
        FilterOp { input, exprs: exprs.iter().map(|e| e.bind(Some(schema))).collect() }
    }

    /// Counts and charges one row's evaluation, then runs it under one
    /// interner lock.
    fn keeps(&self, row: &SlotRow, ctx: &mut ExecCtx) -> bool {
        ctx.stats.engine_filter_evals += self.exprs.len() as u64;
        ctx.clock
            .advance(ctx.cost.engine_filter_time(self.exprs.len() as u64));
        let dict = ctx.interner.lock();
        self.exprs.iter().all(|e| e.test_ids(|s| row.get(s), &dict))
    }
}

impl FedOp for FilterOp<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        while let Some(row) = self.input.next(ctx)? {
            if self.keeps(&row, ctx) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        loop {
            match self.input.poll_next(ctx)? {
                Poll::Ready(row) => {
                    if self.keeps(&row, ctx) {
                        return Ok(Poll::Ready(row));
                    }
                }
                Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                Poll::Done => return Ok(Poll::Done),
            }
        }
    }
}

/// Union: drains its branches in order (sources answer independently).
pub struct UnionOp<'a> {
    branches: VecDeque<BoxedOp<'a>>,
    waits: Vec<Option<EventTime>>,
}

impl<'a> UnionOp<'a> {
    /// Creates a union of `branches`.
    pub fn new(branches: Vec<BoxedOp<'a>>) -> Self {
        let waits = vec![None; branches.len()];
        UnionOp { branches: branches.into(), waits }
    }
}

impl FedOp for UnionOp<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        while let Some(front) = self.branches.front_mut() {
            match front.next(ctx)? {
                Some(row) => return Ok(Some(row)),
                None => {
                    self.branches.pop_front();
                }
            }
        }
        Ok(None)
    }

    /// Overlapped: emit from whichever branch is ready first instead of
    /// draining branches in order. Re-poll order follows each branch's
    /// last-reported Pending event by `(time, seq)` — branches with
    /// nothing in flight go first in structural order — pinning the
    /// schedule even when two events share a completion time.
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        loop {
            if self.branches.is_empty() {
                return Ok(Poll::Done);
            }
            let mut order: Vec<usize> = (0..self.branches.len()).collect();
            // `None < Some`, so unwaited branches lead; the stable sort
            // keeps structural order among them.
            order.sort_by_key(|&i| self.waits[i]);
            let mut wait: Option<EventTime> = None;
            let mut progressed = false;
            let mut finished: Vec<usize> = Vec::new();
            for &i in &order {
                match self.branches[i].poll_next(ctx)? {
                    Poll::Ready(row) => {
                        self.waits[i] = None;
                        return Ok(Poll::Ready(row));
                    }
                    Poll::Pending(ev) => {
                        self.waits[i] = Some(ev);
                        wait = earlier(wait, ev);
                    }
                    Poll::Done => {
                        finished.push(i);
                        progressed = true;
                    }
                }
            }
            finished.sort_unstable_by(|a, b| b.cmp(a));
            for i in finished {
                self.branches.remove(i);
                self.waits.remove(i);
            }
            if !progressed {
                if let Some(ev) = wait {
                    // The second child's poll can advance the clock past an
                    // event the first child reported earlier in this round
                    // (e.g. a filter charging for discarded rows). A due
                    // event must be consumed by its owner, so go around
                    // again instead of surfacing a stale Pending.
                    if ev.time > ctx.clock.now() {
                        return Ok(Poll::Pending(ev));
                    }
                }
            }
        }
    }
}

/// Projection to the query's selected variables: a slot remap that copies
/// the kept ids into a fresh all-unbound row of the same width.
pub struct ProjectOp<'a> {
    input: BoxedOp<'a>,
    keep_slots: Vec<usize>,
}

impl<'a> ProjectOp<'a> {
    /// Creates a projection keeping only `keep_slots`.
    pub fn new(input: BoxedOp<'a>, keep_slots: Vec<usize>) -> Self {
        ProjectOp { input, keep_slots }
    }
}

impl ProjectOp<'_> {
    fn remap(&self, row: SlotRow, ctx: &mut ExecCtx) -> SlotRow {
        ctx.clock.advance(ctx.cost.engine_row_time(1));
        let mut out = SlotRow::unbound(ctx.schema.len());
        for &s in &self.keep_slots {
            if let Some(id) = row.get(s) {
                out.set(s, id);
            }
        }
        out
    }
}

impl FedOp for ProjectOp<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        match self.input.next(ctx)? {
            Some(row) => Ok(Some(self.remap(row, ctx))),
            None => Ok(None),
        }
    }

    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        Ok(match self.input.poll_next(ctx)? {
            Poll::Ready(row) => Poll::Ready(self.remap(row, ctx)),
            Poll::Pending(ev) => Poll::Pending(ev),
            Poll::Done => Poll::Done,
        })
    }
}

/// Streaming duplicate elimination over fixed-width id arrays.
pub struct DistinctOp<'a> {
    input: BoxedOp<'a>,
    seen: FastSet<SlotRow>,
}

impl<'a> DistinctOp<'a> {
    /// Creates a distinct operator.
    pub fn new(input: BoxedOp<'a>) -> Self {
        DistinctOp { input, seen: FastSet::default() }
    }
}

impl FedOp for DistinctOp<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        while let Some(row) = self.input.next(ctx)? {
            ctx.clock.advance(ctx.cost.engine_row_time(1));
            if self.seen.insert(row.clone()) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        loop {
            match self.input.poll_next(ctx)? {
                Poll::Ready(row) => {
                    ctx.clock.advance(ctx.cost.engine_row_time(1));
                    if self.seen.insert(row.clone()) {
                        return Ok(Poll::Ready(row));
                    }
                }
                Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                Poll::Done => return Ok(Poll::Done),
            }
        }
    }
}

/// A pre-materialized input (used in tests and by the sort path).
pub struct RowsOp {
    rows: VecDeque<SlotRow>,
}

impl RowsOp {
    /// Wraps a row vector.
    pub fn new(rows: Vec<SlotRow>) -> Self {
        RowsOp { rows: rows.into() }
    }
}

impl FedOp for RowsOp {
    fn next(&mut self, _ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        Ok(self.rows.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_netsim::clock::shared_virtual;
    use fedlake_rdf::Term;
    use fedlake_sparql::binding::{encode_row, Row, Var};
    use fedlake_sparql::expr::CmpOp;

    const VARS: [&str; 5] = ["a", "b", "j", "n", "x"];

    fn ctx() -> ExecCtx {
        ExecCtx::new(
            shared_virtual(),
            CostModel::default(),
            Arc::new(RowSchema::new(VARS.map(Var::new))),
            SharedInterner::new(),
        )
    }

    fn enc(ctx: &ExecCtx, row: &Row) -> SlotRow {
        encode_row(row, &ctx.schema, &mut ctx.interner.lock())
    }

    fn row(ctx: &ExecCtx, pairs: &[(&str, &str)]) -> SlotRow {
        let mut r = Row::new();
        for (v, t) in pairs {
            r.bind(Var::new(*v), Term::iri(format!("http://x/{t}")));
        }
        enc(ctx, &r)
    }

    fn slot(name: &str) -> usize {
        VARS.iter().position(|v| *v == name).unwrap()
    }

    fn drain(op: &mut dyn FedOp, ctx: &mut ExecCtx) -> Vec<SlotRow> {
        let mut out = Vec::new();
        while let Some(r) = op.next(ctx).unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn sym_hash_join_matches() {
        let mut c = ctx();
        let left = RowsOp::new(vec![
            row(&c, &[("a", "1"), ("j", "x")]),
            row(&c, &[("a", "2"), ("j", "y")]),
        ]);
        let right = RowsOp::new(vec![
            row(&c, &[("b", "3"), ("j", "x")]),
            row(&c, &[("b", "4"), ("j", "z")]),
        ]);
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let out = drain(&mut j, &mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bound_count(), 3);
        assert!(c.stats.engine_join_probes >= 4);
        assert!(c.clock.now() > std::time::Duration::ZERO);
    }

    #[test]
    fn sym_hash_join_duplicates() {
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&c, &[("a", "1"), ("j", "x")]); 2]);
        let right = RowsOp::new(vec![row(&c, &[("b", "2"), ("j", "x")]); 3]);
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        assert_eq!(drain(&mut j, &mut c).len(), 6);
    }

    #[test]
    fn empty_on_is_cartesian() {
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&c, &[("a", "1")]), row(&c, &[("a", "2")])]);
        let right = RowsOp::new(vec![row(&c, &[("b", "3")]), row(&c, &[("b", "4")])]);
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), Vec::new());
        assert_eq!(drain(&mut j, &mut c).len(), 4);
    }

    #[test]
    fn join_emits_before_inputs_drain() {
        // With matching first rows on both sides, the first answer must be
        // available after two pulls — not after both inputs are exhausted.
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&c, &[("j", "x"), ("a", "1")]); 50]);
        let right = RowsOp::new(vec![row(&c, &[("j", "x"), ("b", "1")]); 50]);
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let first = j.next(&mut c).unwrap();
        assert!(first.is_some());
        // Only two probes were needed for the first answer.
        assert_eq!(c.stats.engine_join_probes, 2);
    }

    #[test]
    fn left_join_keeps_unmatched_left_rows() {
        let mut c = ctx();
        let left = RowsOp::new(vec![
            row(&c, &[("a", "1"), ("j", "x")]),
            row(&c, &[("a", "2"), ("j", "z")]), // no right match
        ]);
        let right = RowsOp::new(vec![row(&c, &[("b", "3"), ("j", "x")])]);
        let mut j = LeftHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let out = drain(&mut j, &mut c);
        assert_eq!(out.len(), 2);
        let matched: Vec<&SlotRow> = out.iter().filter(|r| r.bound_count() == 3).collect();
        let unmatched: Vec<&SlotRow> = out.iter().filter(|r| r.bound_count() == 2).collect();
        assert_eq!(matched.len(), 1);
        assert_eq!(unmatched.len(), 1);
        assert!(!unmatched[0].is_bound(slot("b")));
    }

    #[test]
    fn left_join_multiple_matches_expand() {
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&c, &[("a", "1"), ("j", "x")])]);
        let right = RowsOp::new(vec![
            row(&c, &[("b", "2"), ("j", "x")]),
            row(&c, &[("b", "3"), ("j", "x")]),
        ]);
        let mut j = LeftHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let out = drain(&mut j, &mut c);
        // The matched left row expands to both matches; no bare copy.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.bound_count() == 3));
    }

    #[test]
    fn left_join_with_empty_right_passes_everything() {
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&c, &[("a", "1"), ("j", "x")]); 3]);
        let right = RowsOp::new(Vec::new());
        let mut j = LeftHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let out = drain(&mut j, &mut c);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.bound_count() == 2));
    }

    #[test]
    fn filter_op_counts_evals() {
        let mut c = ctx();
        let input = RowsOp::new(vec![
            enc(&c, &Row::new().with("n", Term::integer(1))),
            enc(&c, &Row::new().with("n", Term::integer(5))),
        ]);
        let expr = Expr::Cmp(
            Box::new(Expr::Var(Var::new("n"))),
            CmpOp::Gt,
            Box::new(Expr::Const(Term::integer(3))),
        );
        let mut f = FilterOp::new(Box::new(input), &[expr], &c.schema);
        let out = drain(&mut f, &mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(c.stats.engine_filter_evals, 2);
    }

    #[test]
    fn union_concatenates() {
        let mut c = ctx();
        let a = RowsOp::new(vec![row(&c, &[("x", "1")])]);
        let b = RowsOp::new(vec![row(&c, &[("x", "2")]), row(&c, &[("x", "3")])]);
        let mut u = UnionOp::new(vec![Box::new(a), Box::new(b)]);
        assert_eq!(drain(&mut u, &mut c).len(), 3);
    }

    #[test]
    fn project_and_distinct() {
        let mut c = ctx();
        let input = RowsOp::new(vec![
            row(&c, &[("a", "1"), ("b", "7")]),
            row(&c, &[("a", "1"), ("b", "8")]),
        ]);
        let p = ProjectOp::new(Box::new(input), vec![slot("a")]);
        let mut d = DistinctOp::new(Box::new(p));
        let out = drain(&mut d, &mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bound_count(), 1);
    }

    #[test]
    fn join_skips_rows_missing_join_var() {
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&c, &[("a", "1")])]); // no ?j
        let right = RowsOp::new(vec![row(&c, &[("j", "x")])]);
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        assert!(drain(&mut j, &mut c).is_empty());
    }
}
