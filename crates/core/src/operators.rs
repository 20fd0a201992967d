//! Engine-level physical operators.
//!
//! Execution is pull-based and streaming: operators produce one solution
//! at a time while the shared simulation clock advances, so the answer
//! trace reflects *when* each answer became available — the measurement of
//! Figure 2. There is one pull protocol, [`FedOp::poll_next`]; the paper's
//! single-threaded wrapper loop is a schedule *policy* of it
//! (`ExecCtx::serialized`), read where a wait on source work starts and
//! where a join picks the input to pull from. The join is ANAPSID's
//! adaptive **symmetric hash join** (agjoin): it consumes from both inputs
//! and emits matches as soon as probes succeed, producing answers
//! incrementally instead of blocking on a build phase.
//!
//! Solution mappings travel as [`RowId`]s: handles on fixed-width arrays
//! of [`fedlake_rdf::TermId`]s in the execution's [`RowArena`]
//! ([`ExecCtx::rows`]), laid out by the query's [`RowSchema`] and interned
//! in a query-scoped [`SharedInterner`]. Join keys, DISTINCT hashing and
//! projection therefore operate on `u32` ids; only FILTER evaluation
//! resolves ids back to terms, lazily, for value comparisons. A handle
//! passed up is moved: the receiver may change the row in place (as
//! [`ProjectOp`] does), so no operator hands up a row it keeps while
//! anything could still read it. A join side is one table (`BuildSide`):
//! its handles in arrival order, chained per key through a parallel index
//! vector — no key is stored and no key owns a vector, so a side grows by
//! amortized pushes and is freed in a handful of blocks.

use crate::error::FedError;
use crate::planner::VerdictKey;
use fedlake_netsim::clock::nanos;
use fedlake_netsim::{CostModel, EventQueue, EventTime, SharedClock};
use fedlake_rdf::{BuildFastHasher, Dictionary, FastMap, SharedInterner, TermId};
use fedlake_relational::cache::VersionedCache;
use fedlake_sparql::binding::{RowArena, RowId, RowSchema};
use fedlake_sparql::expr::{BoundExpr, Expr};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard};

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
/// query's row representation (slot layout, term interner and the rows
/// themselves).
#[derive(Debug)]
pub struct ExecCtx {
    /// The simulation clock shared with every wrapper link.
    pub clock: SharedClock,
    /// Cost model pricing engine-level work: the one source of prices,
    /// fixed when the context is built.
    pub cost: CostModel,
    /// `cost.engine_join_time(1)` in nanoseconds, priced once when the
    /// context is built: what [`ExecCtx::charge_join_probe`] adds per probe.
    join_probe_ns: u64,
    /// `cost.engine_row_time(1)` in nanoseconds, priced alike: what
    /// [`ExecCtx::charge_row`] adds per row.
    row_ns: u64,
    /// Accumulated counters.
    pub stats: EngineStats,
    /// The query's slot layout, fixed at plan time.
    pub schema: Arc<RowSchema>,
    /// `schema`'s layout fingerprint — what the
    /// [`crate::wrapper::LiftCache`] keys column buffers by — taken once
    /// per execution, when the context is created.
    pub(crate) layout: u64,
    /// The query-scoped term interner shared with every wrapper stream.
    pub interner: SharedInterner,
    /// Every row the execution writes, `schema` wide: what the handles
    /// its operators pass around name. Lives as long as the context, one
    /// per solo query or serve session.
    pub rows: RowArena,
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
    /// The query's handle on the recorder: wrapper streams record their
    /// spans, retries and failovers through it (one branch per hook unless
    /// [`crate::PlanConfig::tracing`] or [`crate::PlanConfig::recorder`]
    /// is set).
    pub(crate) obs: crate::obs::QueryObs,
    /// The source-result cache leaves and bind-join batches read (see
    /// [`crate::wrapper::LiftCache`]), shared across the engine's
    /// executions. Must always be paired with the interner the cached ids
    /// were interned into — the engine passes both from the same session;
    /// a fresh context gets an empty cache, which is trivially consistent.
    pub lifts: crate::wrapper::SharedLiftCache,
    /// The verdicts earlier executions of the engine decided for its
    /// one-slot FILTER expressions and its bind joins' targets (see
    /// [`VerdictMemo`]), paired with the interner exactly as
    /// [`ExecCtx::lifts`] is.
    pub verdicts: SharedVerdictMemo,
}

impl ExecCtx {
    /// Creates a context for one query execution with the default retry
    /// policy (use `ExecCtx::with_retry` to override).
    pub fn new(
        clock: SharedClock,
        cost: CostModel,
        schema: Arc<RowSchema>,
        interner: SharedInterner,
    ) -> Self {
        Self::sharing(clock, cost, schema, interner, Arc::default(), Arc::default())
    }

    /// Creates a context over an engine's lift cache and verdict memo,
    /// both paired with `interner`.
    pub(crate) fn sharing(
        clock: SharedClock,
        cost: CostModel,
        schema: Arc<RowSchema>,
        interner: SharedInterner,
        lifts: crate::wrapper::SharedLiftCache,
        verdicts: SharedVerdictMemo,
    ) -> Self {
        ExecCtx {
            clock,
            join_probe_ns: nanos(cost.engine_join_time(1)),
            row_ns: nanos(cost.engine_row_time(1)),
            cost,
            stats: EngineStats::default(),
            layout: crate::wrapper::schema_fingerprint(&schema),
            rows: RowArena::new(schema.len()),
            schema,
            interner,
            retry: crate::config::RetryPolicy::default(),
            deadline: None,
            sched: EventQueue::new(),
            serialized: false,
            obs: crate::obs::QueryObs::default(),
            lifts,
            verdicts,
        }
    }

    /// Switches the context to the paper's serialized schedule: one
    /// single-threaded wrapper loop, so a wait on source work is sat out
    /// where it starts and the joins alternate strictly between their
    /// inputs. The default lets waits surface as [`Poll::Pending`] events,
    /// which is what overlaps independent sources.
    ///
    /// The policy is read in two places only: `ExecCtx::wait_until` and
    /// the child pick of the two-input joins.
    pub(crate) fn serialized(mut self) -> Self {
        self.serialized = true;
        self
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
        if ev.nanos() > self.clock.now_nanos() {
            return Some(ev);
        }
        self.sched.complete(ev);
        None
    }

    /// Charges the clock for one engine-side join probe. `Clock::advance`
    /// adds exactly a `Duration`'s nanoseconds, so this ends where
    /// `clock.advance(cost.engine_join_time(1))` would.
    #[inline]
    pub(crate) fn charge_join_probe(&self) {
        self.clock.advance_nanos(self.join_probe_ns);
    }

    /// Charges the clock for one row the engine produces, passes on or
    /// deduplicates: `cost.engine_row_time(1)`, priced once.
    #[inline]
    pub(crate) fn charge_row(&self) {
        self.clock.advance_nanos(self.row_ns);
    }

    /// Installs the engine's source-result cache (see
    /// [`ExecCtx::lifts`] for the pairing invariant with the interner).
    pub fn with_lifts(mut self, lifts: crate::wrapper::SharedLiftCache) -> Self {
        self.lifts = lifts;
        self
    }

    /// Sets the retry policy wrapper streams consult.
    pub(crate) fn with_retry(mut self, retry: crate::config::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the deadline retry backoffs are clamped against.
    pub(crate) fn with_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Installs the query's handle on the recorder, which also observes
    /// the event queue's depth when the query keeps its detail.
    pub(crate) fn with_obs(mut self, obs: crate::obs::QueryObs) -> Self {
        if let Some(observer) = obs.queue_observer() {
            self.sched.set_observer(observer);
        }
        self.obs = obs;
        self
    }
}

/// A wait on source work with a known completion time, from
/// [`ExecCtx::wait_until`]: the event it surfaces as, or nothing when the
/// serialized policy already sat it out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wait(Option<EventTime>);

/// The outcome of one non-blocking pull. Generic over what it carries, so
/// the unit tests below can script inputs of plain numbers.
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
    /// Pulls once without blocking: yields a row, reports the earliest
    /// in-flight event the operator is waiting on, or is done. The clock
    /// advances by the work done. Under the serialized policy
    /// (`ExecCtx::serialized`) every wait is sat out where it starts, so
    /// no operator ever answers [`Poll::Pending`].
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError>;
}

/// A boxed operator (streams borrow the lake, hence the lifetime).
pub type BoxedOp<'a> = Box<dyn FedOp + 'a>;

const LEFT: usize = 0;
const RIGHT: usize = 1;

/// What the two-input operators share: their inputs, which of them are
/// exhausted, and how the next one to pull from is picked — the second of
/// the two places the schedule policy is read (the first is
/// [`ExecCtx::wait_until`]). Generic over the input type, so the unit
/// tests below drive the very same pick with scripted inputs.
pub(crate) struct TwoInputs<C> {
    /// Left, right.
    inputs: [C; 2],
    done: [bool; 2],
    /// The [`Poll::Pending`] event each input last reported.
    waits: [Option<EventTime>; 2],
    /// Serialized policy: whose turn it is.
    pull_left: bool,
}

impl<C> TwoInputs<C> {
    pub(crate) fn new(left: C, right: C) -> Self {
        TwoInputs { inputs: [left, right], done: [false; 2], waits: [None; 2], pull_left: true }
    }

    /// Both inputs are exhausted.
    pub(crate) fn exhausted(&self) -> bool {
        self.done[LEFT] && self.done[RIGHT]
    }

    /// Pulls from the inputs once, handing every row that arrives to
    /// `take(from_left, row, ctx)`. Returns the event to report as
    /// [`Poll::Pending`] when nothing moved; on `None` the caller goes
    /// around again — re-checking its output queue and
    /// [`TwoInputs::exhausted`] first.
    ///
    /// Serialized, "once" is one input, in strict alternation while both
    /// still produce — the paper's single-threaded loop, and the reason
    /// answers stream out early — so the caller looks at its output queue
    /// after every single pull and answer timestamps are a blocking join's.
    /// Otherwise it is one round over both inputs, ANAPSID's adaptivity
    /// proper: consume from whichever has a row ready at the current
    /// virtual time, re-polling in the `(time, seq)` order of the events
    /// the inputs last reported — the one whose event is due first goes
    /// first, one with nothing in flight goes first in structural order —
    /// which pins the schedule even when two events share a completion
    /// time.
    pub(crate) fn pull<T>(
        &mut self,
        ctx: &mut ExecCtx,
        mut poll: impl FnMut(&mut C, &mut ExecCtx) -> Result<Poll<T>, FedError>,
        mut take: impl FnMut(bool, T, &mut ExecCtx),
    ) -> Result<Option<EventTime>, FedError> {
        if ctx.serialized {
            let take_left = if self.done[LEFT] {
                false
            } else if self.done[RIGHT] {
                true
            } else {
                self.pull_left
            };
            self.pull_left = !self.pull_left;
            let side = if take_left { LEFT } else { RIGHT };
            return self.pull_from(side, ctx, &mut poll, &mut take);
        }
        let first = match self.waits {
            [None, _] => LEFT,
            [Some(_), None] => RIGHT,
            [Some(l), Some(r)] => {
                if l <= r {
                    LEFT
                } else {
                    RIGHT
                }
            }
        };
        let mut progressed = false;
        let mut wait: Option<EventTime> = None;
        for side in [first, first ^ 1] {
            if !self.done[side] {
                match self.pull_from(side, ctx, &mut poll, &mut take)? {
                    Some(ev) => wait = earlier(wait, ev),
                    None => progressed = true,
                }
            }
        }
        // The second input's poll can advance the clock past an event the
        // first reported earlier in this round (e.g. a filter charging for
        // discarded rows). A due event must be consumed by its owner, so
        // go around again instead of surfacing a stale Pending.
        Ok(wait.filter(|ev| !progressed && ev.nanos() > ctx.clock.now_nanos()))
    }

    /// Polls input `side` once; the event it reports when it is waiting.
    fn pull_from<T>(
        &mut self,
        side: usize,
        ctx: &mut ExecCtx,
        poll: &mut impl FnMut(&mut C, &mut ExecCtx) -> Result<Poll<T>, FedError>,
        take: &mut impl FnMut(bool, T, &mut ExecCtx),
    ) -> Result<Option<EventTime>, FedError> {
        let pending = match poll(&mut self.inputs[side], ctx)? {
            Poll::Ready(row) => {
                take(side == LEFT, row, ctx);
                None
            }
            Poll::Pending(ev) => Some(ev),
            Poll::Done => {
                self.done[side] = true;
                None
            }
        };
        self.waits[side] = pending;
        Ok(pending)
    }
}

/// Folds the ids `row` binds in `on_slots` into the 64-bit key its
/// [`BuildSide`] chains it under; `None` when the row leaves a join slot
/// unbound — it can never match. Injective up to two slots, a mix beyond;
/// nothing depends on which, see [`BuildSide`].
fn fold_key(row: &[TermId], on_slots: &[usize]) -> Option<u64> {
    let mut key = 0u64;
    for &s in on_slots {
        let id = row[s].bound()?;
        key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32) ^ u64::from(id.0);
    }
    Some(key)
}

/// How a join folds a row's key. Always [`fold_key`]; a field so the tests
/// can force every key into one chain.
type KeyFold = fn(&[TermId], &[usize]) -> Option<u64>;

/// End of a chain in [`BuildSide::next`].
const NIL: u32 = u32::MAX;

/// The rows one side of a join has taken — *the* build-side table of both
/// joins, and of [`DistinctOp`]. Handles sit in arrival order in one
/// vector; `next` chains the rows of one key in that order, and `chains`
/// finds a key's first and last row from the [`fold_key`] of its join-slot
/// ids. The fold is not a key: two keys may share a chain, and
/// [`RowArena::merge`] — which every match goes through anyway and which
/// rejects rows differing on a slot both bind — is what tells them apart,
/// since only rows binding every join slot are chained. A join's rows stay
/// private: a match hands up a merged row, a new one.
#[derive(Default)]
struct BuildSide {
    rows: Vec<RowId>,
    /// Parallel to `rows`: the next row of the same chain, or [`NIL`].
    next: Vec<u32>,
    /// `(head, tail)` of each folded key's chain.
    chains: FastMap<u64, (u32, u32)>,
}

impl BuildSide {
    /// Appends `row`: to the end of `key`'s chain, or to no chain at all.
    fn push(&mut self, key: Option<u64>, row: RowId) {
        // Row indices are `u32`s below `NIL`. A side that full holds 2^32
        // handles — 32 GiB with its chain — so the allocator gives out
        // first; the check keeps an index from wrapping onto a stored row
        // regardless.
        assert!(self.rows.len() < NIL as usize, "a join side holds 2^32 - 1 rows");
        let idx = self.rows.len() as u32;
        self.rows.push(row);
        self.next.push(NIL);
        if let Some(key) = key {
            match self.chains.entry(key) {
                Entry::Occupied(mut chain) => {
                    let (_, tail) = chain.get_mut();
                    self.next[*tail as usize] = idx;
                    *tail = idx;
                }
                Entry::Vacant(chain) => {
                    chain.insert((idx, idx));
                }
            }
        }
    }

    /// The rows chained under `key`, in arrival order, with their indices.
    fn chain(&self, key: u64) -> impl Iterator<Item = (usize, RowId)> + '_ {
        let mut at = self.chains.get(&key).map_or(NIL, |(head, _)| *head);
        std::iter::from_fn(move || {
            let i = (at != NIL).then_some(at as usize)?;
            at = self.next[i];
            Some((i, self.rows[i]))
        })
    }
}

/// The ANAPSID-style symmetric hash join.
///
/// Every arriving row is inserted into its side's table and immediately
/// probed against the other side, so results stream out as soon as both
/// matching rows have arrived; `TwoInputs::pull` decides which input a row
/// is taken from next. Keys are folded ids, so probing never compares
/// strings.
pub struct SymHashJoin<'a> {
    inputs: TwoInputs<BoxedOp<'a>>,
    tables: SymTables,
}

/// The build side of a [`SymHashJoin`]: both tables and the matches not
/// yet handed out.
struct SymTables {
    on_slots: Vec<usize>,
    fold: KeyFold,
    left: BuildSide,
    right: BuildSide,
    out: VecDeque<RowId>,
}

impl<'a> SymHashJoin<'a> {
    /// Creates a join of `left` and `right` on the slots `on_slots`
    /// (empty degenerates to a cartesian product).
    pub(crate) fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, on_slots: Vec<usize>) -> Self {
        SymHashJoin {
            inputs: TwoInputs::new(left, right),
            tables: SymTables {
                on_slots,
                fold: fold_key,
                left: BuildSide::default(),
                right: BuildSide::default(),
                out: VecDeque::new(),
            },
        }
    }
}

impl SymTables {
    fn insert_and_probe(&mut self, from_left: bool, row: RowId, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.charge_join_probe();
        let Some(key) = (self.fold)(ctx.rows.row(row), &self.on_slots) else {
            // A row not binding every join variable can never match.
            return;
        };
        let (own, other) = if from_left {
            (&mut self.left, &self.right)
        } else {
            (&mut self.right, &self.left)
        };
        for (_, m) in other.chain(key) {
            if let Some(merged) = ctx.rows.merge(row, m) {
                ctx.charge_row();
                self.out.push_back(merged);
            }
        }
        own.push(Some(key), row);
    }
}

impl FedOp for SymHashJoin<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        let SymHashJoin { inputs, tables } = self;
        loop {
            if let Some(row) = tables.out.pop_front() {
                return Ok(Poll::Ready(row));
            }
            if inputs.exhausted() {
                return Ok(Poll::Done);
            }
            let pending = inputs.pull(
                ctx,
                |input, ctx| input.poll_next(ctx),
                |from_left, row, ctx| tables.insert_and_probe(from_left, row, ctx),
            )?;
            if let Some(ev) = pending {
                return Ok(Poll::Pending(ev));
            }
        }
    }
}

/// Streaming left join (for `OPTIONAL`): matched pairs stream out as soon
/// as both sides arrive; left rows that never matched are emitted
/// unextended once both inputs drain.
pub struct LeftHashJoin<'a> {
    inputs: TwoInputs<BoxedOp<'a>>,
    tables: LeftTables,
}

/// The build side of a [`LeftHashJoin`].
struct LeftTables {
    on_slots: Vec<usize>,
    fold: KeyFold,
    /// Every left row, chained or not: the unmatched ones flush at the end.
    left: BuildSide,
    /// Parallel to `left.rows`: whether the row has matched yet.
    matched: Vec<bool>,
    right: BuildSide,
    out: VecDeque<RowId>,
    flushed: bool,
}

impl<'a> LeftHashJoin<'a> {
    /// Creates a left join of `left` (required) and `right` (optional) on
    /// the slots `on_slots`.
    pub(crate) fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, on_slots: Vec<usize>) -> Self {
        LeftHashJoin {
            inputs: TwoInputs::new(left, right),
            tables: LeftTables {
                on_slots,
                fold: fold_key,
                left: BuildSide::default(),
                matched: Vec::new(),
                right: BuildSide::default(),
                out: VecDeque::new(),
                flushed: false,
            },
        }
    }
}

impl LeftTables {
    fn take_left(&mut self, row: RowId, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.charge_join_probe();
        let key = (self.fold)(ctx.rows.row(row), &self.on_slots);
        let mut matched = false;
        if let Some(key) = key {
            for (_, m) in self.right.chain(key) {
                if let Some(merged) = ctx.rows.merge(row, m) {
                    matched = true;
                    ctx.charge_row();
                    self.out.push_back(merged);
                }
            }
        }
        // A left row not binding every join variable can never match a
        // (fully-bound) right row; it is kept unchained and will flush
        // unextended.
        self.left.push(key, row);
        self.matched.push(matched);
    }

    fn take_right(&mut self, row: RowId, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.charge_join_probe();
        let Some(key) = (self.fold)(ctx.rows.row(row), &self.on_slots) else { return };
        for (i, lrow) in self.left.chain(key) {
            if let Some(merged) = ctx.rows.merge(lrow, row) {
                self.matched[i] = true;
                ctx.charge_row();
                self.out.push_back(merged);
            }
        }
        self.right.push(Some(key), row);
    }
}

impl FedOp for LeftHashJoin<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        let LeftHashJoin { inputs, tables } = self;
        loop {
            if let Some(row) = tables.out.pop_front() {
                return Ok(Poll::Ready(row));
            }
            if inputs.exhausted() {
                if !tables.flushed {
                    // Neither input can probe again: an unmatched left row
                    // is handed up itself, not a copy.
                    tables.flushed = true;
                    for (&row, matched) in tables.left.rows.iter().zip(&tables.matched) {
                        if !matched {
                            tables.out.push_back(row);
                        }
                    }
                    continue;
                }
                return Ok(Poll::Done);
            }
            let pending = inputs.pull(
                ctx,
                |input, ctx| input.poll_next(ctx),
                |from_left, row, ctx| {
                    if from_left {
                        tables.take_left(row, ctx)
                    } else {
                        tables.take_right(row, ctx)
                    }
                },
            )?;
            if let Some(ev) = pending {
                return Ok(Poll::Pending(ev));
            }
        }
    }
}

/// Cells in the verdict table of a FILTER expression that reads one slot.
/// Sized on fedbench `paper_matrix`, seed 7, on a 2-core x86-64 VM: the
/// share of probes that hit, KiB allocated per op and host ops/s (two 10 s
/// runs), against the memo-free filter's 244.74 KiB and 1 131 / 1 140
/// ops/s:
///
/// | cells | hits | KiB/op | ops/s |
/// |---|---|---|---|
/// | 16 | 47.3 % | 244.84 | 1 210 / 1 239 |
/// | 64 | 52.1 % | 245.12 | 1 208 / 1 253 |
/// | 256 | 52.9 % | 246.22 | 1 250 / 1 250 |
/// | 1024 | 56.2 % | 250.62 | 1 236 / 1 258 |
///
/// The misses left are mostly first sightings of an id, so a larger table
/// buys little and costs 8 bytes a cell in every filter of every execution.
/// With the engine's [`VerdictMemo`] behind it the table still pays: on the
/// same workload, reading the memo's set alone cost 2.45 % host ops/s and
/// 2.59 % p90 latency (four pairs of 20 s runs, seeds 501–504).
pub const VERDICT_CELLS: usize = 64;

/// Engine-level conjunctive filter. The expressions are bound against
/// the query's schema once, at construction; evaluating one is slot reads
/// and `&str` compares, resolving ids through the query interner only
/// where a value comparison needs a term.
///
/// An expression that reads exactly one slot decides each distinct id of
/// that slot once per engine: its verdict is a function of the id, and the
/// interner is append-only, so an id never changes meaning. Such an
/// expression reads a direct-mapped table of [`VERDICT_CELLS`] verdicts by
/// id first, then the set its engine's [`VerdictMemo`] held under its key
/// when the filter was built, and only then decides; neither read takes a
/// lock. What it decided is published to the memo when the filter drops.
/// What a row is charged does not depend on any of this: every expression
/// is counted on every row, first.
pub struct FilterOp<'a> {
    input: BoxedOp<'a>,
    conjuncts: Vec<Conjunct>,
    /// The planner's memo key of each conjunct, where it has one.
    keys: &'a [Option<VerdictKey>],
    /// Where the conjuncts' new verdicts are published.
    memo: SharedVerdictMemo,
}

/// One expression of a [`FilterOp`] with its verdicts. A leaf's lift
/// decides its guards with one too ([`crate::wrapper::LiftPlan`]), from
/// its table alone.
pub(crate) struct Conjunct {
    expr: BoundExpr,
    /// The one slot `expr` reads, when it reads exactly one.
    slot: Option<usize>,
    /// Cell `id % VERDICT_CELLS` holds `id << 1 | verdict` for the last id
    /// decided there, or [`NO_VERDICT`]. Unused when `slot` is `None`.
    verdicts: [u64; VERDICT_CELLS],
    /// What the engine's memo held under the expression's key when its
    /// filter was built, and what the conjunct decided since.
    memo: KeyedVerdicts,
    /// How often `expr` was evaluated.
    #[cfg(test)]
    evals: u64,
}

/// An empty verdict cell: its tag, `u64::MAX >> 1`, is no `u32` id.
const NO_VERDICT: u64 = u64::MAX;

impl Conjunct {
    /// `expr` bound against the rows' `schema`, with an empty table.
    pub(crate) fn new(expr: &Expr, schema: &RowSchema) -> Self {
        let expr = expr.bind(Some(schema));
        Conjunct {
            slot: expr.single_slot(),
            expr,
            verdicts: [NO_VERDICT; VERDICT_CELLS],
            memo: KeyedVerdicts::default(),
            #[cfg(test)]
            evals: 0,
        }
    }

    /// The one slot the expression reads, when it reads exactly one.
    pub(crate) fn slot(&self) -> Option<usize> {
        self.slot
    }

    /// Whether `row` passes, reading the verdicts first when there are any.
    fn keeps<'d>(
        &mut self,
        row: &[TermId],
        interner: &'d SharedInterner,
        dict: &mut Option<MutexGuard<'d, Dictionary>>,
    ) -> bool {
        let decide = |c: &mut Self, dict: &mut Option<MutexGuard<'d, Dictionary>>| {
            c.decide(|s| row[s].bound(), dict.get_or_insert_with(|| interner.lock()))
        };
        let Some(slot) = self.slot else { return decide(self, dict) };
        // An unbound slot is a key like any other: `UNBOUND` is an id.
        self.verdict(row[slot], |c| decide(c, dict))
    }

    /// The verdict of a one-slot expression on a row whose slot holds `id`,
    /// as [`Conjunct::keeps`] reaches it: from the table, or decided and
    /// kept there.
    pub(crate) fn keeps_id(&mut self, id: TermId, dict: &Dictionary) -> bool {
        self.verdict(id, |c| c.decide(|_| id.bound(), dict))
    }

    /// The verdict on `id` from the table, the memo's set or what this
    /// conjunct decided before, in that order; or `decide`'s, which the
    /// table keeps and `memo` collects.
    fn verdict(&mut self, id: TermId, decide: impl FnOnce(&mut Self) -> bool) -> bool {
        let tag = u64::from(id.0);
        let at = tag as usize % VERDICT_CELLS;
        if self.verdicts[at] >> 1 == tag {
            return self.verdicts[at] & 1 == 1;
        }
        let keep = match self.memo.get(id) {
            Some(keep) => keep,
            None => {
                let keep = decide(self);
                self.memo.insert(id, keep);
                keep
            }
        };
        self.verdicts[at] = tag << 1 | u64::from(keep);
        keep
    }

    /// Evaluates `expr` over the ids `id_of` reads.
    fn decide(&mut self, id_of: impl Fn(usize) -> Option<TermId>, dict: &Dictionary) -> bool {
        #[cfg(test)]
        {
            self.evals += 1;
        }
        self.expr.test_ids(id_of, dict)
    }
}

impl<'a> FilterOp<'a> {
    /// Creates a filter over `input`, whose rows are laid out by `schema`.
    /// `keys` holds the planner's memo key of each of `exprs`
    /// (`planner::filter_verdict_keys`); an expression with one
    /// starts from what `memo` holds under it, and an expression without
    /// one (or past the end of `keys`) decides its ids for this filter
    /// alone.
    pub fn new(
        input: BoxedOp<'a>,
        exprs: &[Expr],
        keys: &'a [Option<VerdictKey>],
        schema: &RowSchema,
        memo: &SharedVerdictMemo,
    ) -> Self {
        let mut conjuncts: Vec<Conjunct> =
            exprs.iter().map(|e| Conjunct::new(e, schema)).collect();
        if keys.iter().any(Option::is_some) {
            let mut sets = memo.lock();
            for (c, key) in conjuncts.iter_mut().zip(keys) {
                if let Some(key) = key {
                    c.memo = KeyedVerdicts::take(&mut sets, key);
                }
            }
        }
        FilterOp { input, conjuncts, keys, memo: Arc::clone(memo) }
    }

    /// Counts and charges one row's evaluation, then decides it, locking
    /// the interner at most once. A row the leaf below already dropped
    /// (`RowId::DROPPED`: its guards, conjuncts of this filter, rejected
    /// it) is counted and charged alike and rejected unread.
    fn keeps(&mut self, row: RowId, ctx: &mut ExecCtx) -> bool {
        let n = self.conjuncts.len() as u64;
        ctx.stats.engine_filter_evals += n;
        ctx.clock.advance(ctx.cost.engine_filter_time(n));
        if row == RowId::DROPPED {
            return false;
        }
        let mut dict = None;
        let row = ctx.rows.row(row);
        self.conjuncts.iter_mut().all(|c| c.keeps(row, &ctx.interner, &mut dict))
    }
}

impl FedOp for FilterOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        loop {
            match self.input.poll_next(ctx)? {
                Poll::Ready(row) => {
                    if self.keeps(row, ctx) {
                        return Ok(Poll::Ready(row));
                    }
                }
                Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                Poll::Done => return Ok(Poll::Done),
            }
        }
    }
}

impl Drop for FilterOp<'_> {
    /// Publishes what the conjuncts decided, under one lock, and only when
    /// one of them decided something.
    fn drop(&mut self) {
        let mut new = self
            .conjuncts
            .iter_mut()
            .zip(self.keys)
            .filter_map(|(c, key)| Some((key.as_ref()?, c.memo.fresh()?)))
            .peekable();
        if new.peek().is_some() {
            let mut memo = self.memo.lock();
            for (key, fresh) in new {
                memo.publish(key, fresh);
            }
        }
    }
}

/// The verdicts of one expression, by the id of the slot it reads.
type VerdictSet = FastMap<TermId, bool>;

/// The one stamp of the memo's entries: a verdict is a function of the
/// expression and the id, and the interner never reassigns an id, so no
/// entry can go stale (DESIGN §18).
const VERDICT_STAMP: u64 = 0;

/// The verdicts an engine decided per id, by [`VerdictKey`]: a
/// [`FilterOp`]'s for its one-slot expressions, and a
/// [`crate::wrapper::BindJoinOp`]'s on which join terms its target's column
/// can store. One immutable `VerdictSet` per key, at most
/// [`fedlake_relational::cache::CACHE_CAPACITY`] keys, the least recently
/// used evicted first. An operator takes its set once and publishes what it
/// decided when it drops, merging copy on write, so a row never takes the
/// lock. Must stay paired with the interner whose ids it holds, as the lift
/// cache does.
#[derive(Debug, Default)]
pub struct VerdictMemo(Mutex<VerdictSets>);

#[derive(Debug, Default)]
struct VerdictSets {
    sets: VersionedCache<VerdictKey, Arc<VerdictSet>>,
    /// Sets stored by [`VerdictSets::publish`].
    publishes: u64,
}

/// What a [`VerdictMemo`] holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictStats {
    /// Keys held.
    pub keys: usize,
    /// Verdicts held, summed over the keys.
    pub verdicts: usize,
    /// Sets published: an operator's new verdicts merged into its key's
    /// set.
    pub publishes: u64,
}

/// The engine's handle on its [`VerdictMemo`].
pub type SharedVerdictMemo = Arc<VerdictMemo>;

impl VerdictMemo {
    fn lock(&self) -> MutexGuard<'_, VerdictSets> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// What the memo holds under `key`, for one operator to read and add
    /// to.
    pub(crate) fn verdicts(&self, key: &VerdictKey) -> KeyedVerdicts {
        KeyedVerdicts::take(&mut self.lock(), key)
    }

    /// Publishes what `verdicts` decided under `key`, taking the lock only
    /// when it decided something.
    pub(crate) fn publish(&self, key: &VerdictKey, verdicts: &mut KeyedVerdicts) {
        if let Some(fresh) = verdicts.fresh() {
            self.lock().publish(key, fresh);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VerdictStats {
        let memo = self.lock();
        VerdictStats {
            keys: memo.sets.len(),
            verdicts: memo.sets.values().map(|s| s.len()).sum(),
            publishes: memo.publishes,
        }
    }
}

/// One operator's verdicts under one [`VerdictKey`]: the set the engine's
/// memo held under the key when the operator took it, and the verdicts
/// decided since that the set lacks, to publish. The default, for an
/// operator without a key, holds and collects nothing.
#[derive(Default)]
pub(crate) struct KeyedVerdicts {
    /// Immutable, so a row reads it without a lock.
    known: Option<Arc<VerdictSet>>,
    /// `None` when there is no key to publish under.
    fresh: Option<VerdictSet>,
}

impl KeyedVerdicts {
    /// Starts from what `sets` holds under `key`.
    fn take(sets: &mut VerdictSets, key: &VerdictKey) -> Self {
        let known = sets.sets.lookup(key, VERDICT_STAMP);
        KeyedVerdicts { known, fresh: Some(VerdictSet::default()) }
    }

    /// The verdict on `id`: the memo's, or one decided here before.
    pub(crate) fn get(&self, id: TermId) -> Option<bool> {
        let held = self.known.as_ref().and_then(|k| k.get(&id));
        held.or_else(|| self.fresh.as_ref()?.get(&id)).copied()
    }

    /// Keeps `verdict`, just decided on `id`, to publish.
    pub(crate) fn insert(&mut self, id: TermId, verdict: bool) {
        if let Some(fresh) = &mut self.fresh {
            fresh.insert(id, verdict);
        }
    }

    /// What was decided here, once, when anything was.
    fn fresh(&mut self) -> Option<VerdictSet> {
        self.fresh.take().filter(|f| !f.is_empty())
    }
}

impl VerdictSets {
    /// Merges `fresh` into the set under `key`: a copy of the current set
    /// with `fresh` added replaces it, unless it holds every id already
    /// (another operator of the same key published them first).
    fn publish(&mut self, key: &VerdictKey, fresh: VerdictSet) {
        let merged = match self.sets.lookup(key, VERDICT_STAMP) {
            Some(held) if fresh.keys().all(|id| held.contains_key(id)) => return,
            Some(held) => {
                let mut merged = VerdictSet::clone(&held);
                merged.extend(fresh);
                merged
            }
            None => fresh,
        };
        self.sets.insert(key.clone(), VERDICT_STAMP, Arc::new(merged));
        self.publishes += 1;
    }
}

/// What the n-ary union polls: its branches, and the order they are polled
/// in. Generic over the branch type, so the unit tests below drive it with
/// scripted inputs. Needs no schedule policy — a branch that never answers
/// [`Poll::Pending`] is drained before the next one is looked at, which is
/// the serialized union.
pub(crate) struct Branches<C> {
    inputs: Vec<C>,
    done: Vec<bool>,
    /// The [`Poll::Pending`] event each branch last reported.
    waits: Vec<Option<EventTime>>,
    /// Scratch for the poll order, kept to reuse its allocation.
    order: Vec<usize>,
}

impl<C> Branches<C> {
    pub(crate) fn new(inputs: Vec<C>) -> Self {
        let n = inputs.len();
        Branches { inputs, done: vec![false; n], waits: vec![None; n], order: Vec::with_capacity(n) }
    }

    /// Emits from whichever branch is ready first. Poll order follows each
    /// branch's last-reported Pending event by `(time, seq)` — branches
    /// with nothing in flight go first in structural order — pinning the
    /// schedule even when two events share a completion time.
    pub(crate) fn poll<T>(
        &mut self,
        ctx: &mut ExecCtx,
        mut poll: impl FnMut(&mut C, &mut ExecCtx) -> Result<Poll<T>, FedError>,
    ) -> Result<Poll<T>, FedError> {
        loop {
            self.order.clear();
            self.order.extend((0..self.inputs.len()).filter(|&i| !self.done[i]));
            if self.order.is_empty() {
                return Ok(Poll::Done);
            }
            // `None < Some`, so unwaited branches lead; the stable sort
            // keeps structural order among them.
            self.order.sort_by_key(|&i| self.waits[i]);
            let mut wait: Option<EventTime> = None;
            let mut progressed = false;
            for &i in &self.order {
                match poll(&mut self.inputs[i], ctx)? {
                    Poll::Ready(row) => {
                        self.waits[i] = None;
                        return Ok(Poll::Ready(row));
                    }
                    Poll::Pending(ev) => {
                        self.waits[i] = Some(ev);
                        wait = earlier(wait, ev);
                    }
                    Poll::Done => {
                        self.waits[i] = None;
                        self.done[i] = true;
                        progressed = true;
                    }
                }
            }
            // A later branch's poll can advance the clock past an event an
            // earlier one reported in this round; a due event must be
            // consumed by its owner, so go around again instead of
            // surfacing a stale Pending.
            if let Some(ev) = wait.filter(|ev| !progressed && ev.nanos() > ctx.clock.now_nanos()) {
                return Ok(Poll::Pending(ev));
            }
        }
    }
}

/// Union of its branches (sources answer independently).
pub struct UnionOp<'a>(Branches<BoxedOp<'a>>);

impl<'a> UnionOp<'a> {
    /// Creates a union of `branches`.
    pub(crate) fn new(branches: Vec<BoxedOp<'a>>) -> Self {
        UnionOp(Branches::new(branches))
    }
}

impl FedOp for UnionOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        self.0.poll(ctx, |branch, ctx| branch.poll_next(ctx))
    }
}

/// Projection to the query's selected variables: the slots it drops are
/// unbound in the row it was handed, which is passed on.
pub struct ProjectOp<'a> {
    input: BoxedOp<'a>,
    drop_slots: Vec<usize>,
}

impl<'a> ProjectOp<'a> {
    /// Creates a projection keeping only `keep_slots` of rows `width` slots
    /// wide.
    pub(crate) fn new(input: BoxedOp<'a>, keep_slots: &[usize], width: usize) -> Self {
        let drop_slots = (0..width).filter(|s| !keep_slots.contains(s)).collect();
        ProjectOp { input, drop_slots }
    }
}

impl ProjectOp<'_> {
    fn remap(&self, row: RowId, ctx: &mut ExecCtx) -> RowId {
        ctx.charge_row();
        let ids = ctx.rows.row_mut(row);
        for &s in &self.drop_slots {
            ids[s] = TermId::UNBOUND;
        }
        row
    }
}

impl FedOp for ProjectOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        Ok(match self.input.poll_next(ctx)? {
            Poll::Ready(row) => Poll::Ready(self.remap(row, ctx)),
            Poll::Pending(ev) => Poll::Pending(ev),
            Poll::Done => Poll::Done,
        })
    }
}

/// Streaming duplicate elimination over fixed-width id arrays: the rows
/// kept so far, chained by the hash of their ids and compared slot by
/// slot in the arena — no row is copied. A kept row is handed up itself:
/// above DISTINCT only the session reads rows.
pub struct DistinctOp<'a> {
    input: BoxedOp<'a>,
    seen: BuildSide,
}

impl<'a> DistinctOp<'a> {
    /// Creates a distinct operator.
    pub(crate) fn new(input: BoxedOp<'a>) -> Self {
        DistinctOp { input, seen: BuildSide::default() }
    }
}

impl FedOp for DistinctOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        loop {
            match self.input.poll_next(ctx)? {
                Poll::Ready(row) => {
                    ctx.charge_row();
                    let ids = ctx.rows.row(row);
                    let key = BuildFastHasher.hash_one(ids);
                    if !self.seen.chain(key).any(|(_, kept)| ctx.rows.row(kept) == ids) {
                        self.seen.push(Some(key), row);
                        return Ok(Poll::Ready(row));
                    }
                }
                Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                Poll::Done => return Ok(Poll::Done),
            }
        }
    }
}

/// A pre-materialized input (used in tests and by the sort path): rows
/// already in the arena of the context it is polled with.
pub struct RowsOp {
    rows: VecDeque<RowId>,
}

impl RowsOp {
    /// Wraps a vector of handles.
    pub fn new(rows: Vec<RowId>) -> Self {
        RowsOp { rows: rows.into() }
    }
}

impl FedOp for RowsOp {
    fn poll_next(&mut self, _ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        Ok(self.rows.pop_front().map_or(Poll::Done, Poll::Ready))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_netsim::clock::shared_virtual;
    use fedlake_rdf::{Literal, Term};
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

    fn enc(ctx: &mut ExecCtx, row: &Row) -> RowId {
        let id = ctx.rows.push_unbound();
        encode_row(row, &ctx.schema, &mut ctx.interner.lock(), |s, t| ctx.rows.set(id, s, t));
        id
    }

    fn row(ctx: &mut ExecCtx, pairs: &[(&str, &str)]) -> RowId {
        let mut r = Row::new();
        for (v, t) in pairs {
            r.bind(Var::new(*v), Term::iri(format!("http://x/{t}")));
        }
        enc(ctx, &r)
    }

    fn slot(name: &str) -> usize {
        VARS.iter().position(|v| *v == name).unwrap()
    }

    fn drain(op: &mut dyn FedOp, ctx: &mut ExecCtx) -> Vec<RowId> {
        crate::wrapper::drain(op, ctx).unwrap()
    }

    /// What the rows `ids` hold, in order.
    fn cells(ctx: &ExecCtx, ids: &[RowId]) -> Vec<Vec<TermId>> {
        ids.iter().map(|&id| ctx.rows.row(id).to_vec()).collect()
    }

    /// `n` rows binding `pairs`, each its own.
    fn rows(ctx: &mut ExecCtx, n: usize, pairs: &[(&str, &str)]) -> Vec<RowId> {
        (0..n).map(|_| row(ctx, pairs)).collect()
    }

    #[test]
    fn sym_hash_join_matches() {
        let mut c = ctx();
        let left = RowsOp::new(vec![
            row(&mut c, &[("a", "1"), ("j", "x")]),
            row(&mut c, &[("a", "2"), ("j", "y")]),
        ]);
        let right = RowsOp::new(vec![
            row(&mut c, &[("b", "3"), ("j", "x")]),
            row(&mut c, &[("b", "4"), ("j", "z")]),
        ]);
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let out = drain(&mut j, &mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(c.rows.bound_count(out[0]), 3);
        assert!(c.stats.engine_join_probes >= 4);
        assert!(c.clock.now() > std::time::Duration::ZERO);
    }

    #[test]
    fn sym_hash_join_duplicates() {
        let mut c = ctx();
        let left = RowsOp::new(rows(&mut c, 2, &[("a", "1"), ("j", "x")]));
        let right = RowsOp::new(rows(&mut c, 3, &[("b", "2"), ("j", "x")]));
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        assert_eq!(drain(&mut j, &mut c).len(), 6);
    }

    #[test]
    fn empty_on_is_cartesian() {
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&mut c, &[("a", "1")]), row(&mut c, &[("a", "2")])]);
        let right = RowsOp::new(vec![row(&mut c, &[("b", "3")]), row(&mut c, &[("b", "4")])]);
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), Vec::new());
        assert_eq!(drain(&mut j, &mut c).len(), 4);
    }

    #[test]
    fn join_emits_before_inputs_drain() {
        // With matching first rows on both sides, the first answer must be
        // available after two pulls — not after both inputs are exhausted.
        let mut c = ctx();
        let left = RowsOp::new(rows(&mut c, 50, &[("j", "x"), ("a", "1")]));
        let right = RowsOp::new(rows(&mut c, 50, &[("j", "x"), ("b", "1")]));
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let first = j.poll_next(&mut c).unwrap();
        assert!(matches!(first, Poll::Ready(_)));
        // Only two probes were needed for the first answer.
        assert_eq!(c.stats.engine_join_probes, 2);
    }

    /// The serialized policy gives a join's caller its output queue back
    /// after every single pull; the default takes a round over both inputs
    /// first. Same answers, different moments.
    #[test]
    fn join_looks_at_its_output_after_every_pull_only_when_serialized() {
        let probes_per_poll = |mut c: ExecCtx| {
            let left = RowsOp::new(rows(&mut c, 50, &[("j", "x"), ("a", "1")]));
            let right = RowsOp::new(rows(&mut c, 50, &[("j", "x"), ("b", "1")]));
            let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
            let probes: Vec<u64> = (0..4)
                .map(|_| {
                    assert!(matches!(j.poll_next(&mut c).unwrap(), Poll::Ready(_)));
                    c.stats.engine_join_probes
                })
                .collect();
            (probes, drain(&mut j, &mut c).len() + 4)
        };
        // L, R → the first match; L → one more; R → two more (one queued).
        assert_eq!(probes_per_poll(ctx().serialized()), (vec![2, 3, 4, 4], 2500));
        // L, R → the first match; L, R → three more (two queued).
        assert_eq!(probes_per_poll(ctx()), (vec![2, 4, 4, 4], 2500));
    }

    /// A scripted input: answers its polls from the front of the queue.
    type Script = VecDeque<Poll<u32>>;

    fn poll_script(input: &mut Script, _: &mut ExecCtx) -> Result<Poll<u32>, FedError> {
        Ok(input.pop_front().unwrap_or(Poll::Done))
    }

    fn at(ms: u64, seq: u64) -> EventTime {
        EventTime { time: std::time::Duration::from_millis(ms), seq }
    }

    #[test]
    fn serialized_pull_alternates_strictly_one_input_at_a_time() {
        let mut c = ctx().serialized();
        let ready = |vs: &[u32]| vs.iter().map(|v| Poll::Ready(*v)).collect::<Script>();
        let mut inputs = TwoInputs::new(ready(&[1, 2, 3]), ready(&[10, 20]));
        let mut pulls = Vec::new();
        while !inputs.exhausted() {
            let mut taken = Vec::new();
            let pending = inputs
                .pull(&mut c, poll_script, |from_left, v, _: &mut ExecCtx| taken.push((from_left, v)))
                .unwrap();
            assert_eq!(pending, None);
            pulls.push(taken);
        }
        // L R L R L, then the right's turn finds it exhausted, then the
        // left's: the turn flips on every pull, forced or not.
        assert_eq!(
            pulls,
            [
                vec![(true, 1)],
                vec![(false, 10)],
                vec![(true, 2)],
                vec![(false, 20)],
                vec![(true, 3)],
                vec![],
                vec![],
            ]
        );
    }

    #[test]
    fn default_pull_takes_a_round_in_the_order_of_the_reported_events() {
        let mut c = ctx();
        let mut inputs = TwoInputs::new(
            Script::from([Poll::Pending(at(5, 0)), Poll::Ready(1), Poll::Ready(2)]),
            Script::from([Poll::Pending(at(3, 1)), Poll::Ready(10)]),
        );
        let mut taken = Vec::new();
        let mut pull = |inputs: &mut TwoInputs<Script>, c: &mut ExecCtx| {
            inputs.pull(c, poll_script, |from_left, v, _: &mut ExecCtx| taken.push((from_left, v)))
        };
        // Nothing in flight yet: structural order; both wait, the earlier
        // event is the one to report.
        assert_eq!(pull(&mut inputs, &mut c).unwrap(), Some(at(3, 1)));
        // The right's event is due first, so the right is polled first —
        // and the left still in the same round.
        assert_eq!(pull(&mut inputs, &mut c).unwrap(), None);
        // Nothing in flight again: structural order, the exhausted right
        // included.
        assert_eq!(pull(&mut inputs, &mut c).unwrap(), None);
        assert_eq!(taken, [(false, 10), (true, 1), (true, 2)]);
        assert!(!inputs.exhausted());
    }

    #[test]
    fn a_pending_that_went_stale_within_the_round_is_not_surfaced() {
        let mut c = ctx();
        let mut inputs = TwoInputs::new(
            Script::from([Poll::Pending(at(3, 0))]),
            Script::from([Poll::Pending(at(9, 1))]),
        );
        // The right's poll charges 4 ms of work: the left's event is due by
        // the end of the round, and only its owner may consume it.
        let pending = inputs
            .pull(
                &mut c,
                |input, c| {
                    if input.front() == Some(&Poll::Pending(at(9, 1))) {
                        c.clock.advance(std::time::Duration::from_millis(4));
                    }
                    poll_script(input, c)
                },
                |_, _: u32, _: &mut ExecCtx| unreachable!("no row is scripted"),
            )
            .unwrap();
        assert_eq!(pending, None, "go around again");
    }

    #[test]
    fn left_join_keeps_unmatched_left_rows() {
        let mut c = ctx();
        let left = RowsOp::new(vec![
            row(&mut c, &[("a", "1"), ("j", "x")]),
            row(&mut c, &[("a", "2"), ("j", "z")]), // no right match
        ]);
        let right = RowsOp::new(vec![row(&mut c, &[("b", "3"), ("j", "x")])]);
        let mut j = LeftHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let out = drain(&mut j, &mut c);
        assert_eq!(out.len(), 2);
        let with = |n| out.iter().copied().filter(|&r| c.rows.bound_count(r) == n).collect();
        let (matched, unmatched): (Vec<RowId>, Vec<RowId>) = (with(3), with(2));
        assert_eq!(matched.len(), 1);
        assert_eq!(unmatched.len(), 1);
        assert!(c.rows.get(unmatched[0], slot("b")).is_none());
    }

    #[test]
    fn left_join_multiple_matches_expand() {
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&mut c, &[("a", "1"), ("j", "x")])]);
        let right = RowsOp::new(vec![
            row(&mut c, &[("b", "2"), ("j", "x")]),
            row(&mut c, &[("b", "3"), ("j", "x")]),
        ]);
        let mut j = LeftHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let out = drain(&mut j, &mut c);
        // The matched left row expands to both matches; no bare copy.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&r| c.rows.bound_count(r) == 3));
    }

    #[test]
    fn left_join_with_empty_right_passes_everything() {
        let mut c = ctx();
        let left = RowsOp::new(rows(&mut c, 3, &[("a", "1"), ("j", "x")]));
        let right = RowsOp::new(Vec::new());
        let mut j = LeftHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        let out = drain(&mut j, &mut c);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|&r| c.rows.bound_count(r) == 2));
    }

    /// Every key in one chain: `merge` alone must tell the keys apart.
    fn one_chain(row: &[TermId], on_slots: &[usize]) -> Option<u64> {
        fold_key(row, on_slots).map(|_| 0)
    }

    /// The merge of two rows held as plain vectors: `a` with `b`'s bound
    /// slots laid over it, `None` when a slot both bind differs.
    fn model_merge(a: &[TermId], b: &[TermId]) -> Option<Vec<TermId>> {
        let mut out = a.to_vec();
        for (held, &id) in out.iter_mut().zip(b) {
            match id {
                TermId::UNBOUND => {}
                _ if *held == TermId::UNBOUND => *held = id,
                _ if *held == id => {}
                _ => return None,
            }
        }
        Some(out)
    }

    /// Rows over [`VARS`] from a three-id pool, each slot bound four times
    /// in five: joins meet matches, conflicts on slots outside the key and
    /// rows that leave a join slot unbound.
    fn arb_rows(rng: &mut fedlake_prng::Prng, ids: &[TermId]) -> Vec<(bool, Vec<TermId>)> {
        (0..rng.gen_range(0..40usize))
            .map(|_| {
                let row = (0..VARS.len())
                    .map(|_| {
                        if rng.gen_bool(0.8) {
                            ids[rng.gen_range(0..ids.len())]
                        } else {
                            TermId::UNBOUND
                        }
                    })
                    .collect();
                (rng.gen_bool(0.5), row)
            })
            .collect()
    }

    /// The joins' build sides against a nested loop over everything the
    /// other side has delivered so far: the same matches in the same
    /// order, whatever the fold — for the symmetric and the left join,
    /// over 0–3 join slots. Every match is a new row and a failed merge
    /// leaves none behind; only the left join's final flush hands up rows
    /// it was given, the unmatched left rows themselves.
    #[test]
    fn build_sides_match_a_nested_loop_in_arrival_order() {
        let mut rng = fedlake_prng::Prng::seed_from_u64(0x0b51_de50);
        let mut c = ctx();
        let ids: Vec<TermId> =
            (0..3).map(|i| c.interner.intern(Term::iri(format!("http://x/{i}")))).collect();
        let (mut matches, mut unkeyed, mut flushed) = (0usize, 0usize, 0usize);
        for case in 0..400 {
            let mut on_slots: Vec<usize> = (0..VARS.len()).collect();
            for i in (1..on_slots.len()).rev() {
                on_slots.swap(i, rng.gen_range(0..i + 1));
            }
            on_slots.truncate(rng.gen_range(0..4usize));
            let keyed = |r: &[TermId]| on_slots.iter().all(|&s| r[s] != TermId::UNBOUND);
            let arrivals = arb_rows(&mut rng, &ids);
            unkeyed += arrivals.iter().filter(|(_, r)| !keyed(r)).count();
            let fold: KeyFold = if case % 2 == 0 { fold_key } else { one_chain };

            // The nested loop: a row meets, in arrival order, every row of
            // the other side that is here already; both must bind the key.
            // (The symmetric join merges the arriving row with the stored
            // one, the left join always left-first: the same row.)
            let mut want = Vec::new();
            let mut matched = vec![false; arrivals.len()];
            for (i, (from_left, row)) in arrivals.iter().enumerate() {
                for (j, (other_left, other)) in arrivals[..i].iter().enumerate() {
                    if other_left == from_left || !keyed(row) || !keyed(other) {
                        continue;
                    }
                    if let Some(merged) = model_merge(row, other) {
                        assert_eq!(Some(&merged), model_merge(other, row).as_ref());
                        matched[if *from_left { i } else { j }] = true;
                        want.push(merged);
                    }
                }
            }
            matches += want.len();
            let mut want_left = want.clone();
            let unmatched = arrivals.iter().zip(&matched).filter(|((left, _), m)| *left && !**m);
            want_left.extend(unmatched.map(|((_, row), _)| row.clone()));
            flushed += want_left.len() - want.len();

            let mut sym =
                SymHashJoin::new(Box::new(RowsOp::new(vec![])), Box::new(RowsOp::new(vec![])), on_slots.clone());
            sym.tables.fold = fold;
            let mut left =
                LeftHashJoin::new(Box::new(RowsOp::new(vec![])), Box::new(RowsOp::new(vec![])), on_slots.clone());
            left.tables.fold = fold;
            let start = c.rows.len();
            let (mut given, mut given_left) = (Vec::new(), Vec::new());
            for (from_left, row) in &arrivals {
                // Each join is handed its own row: a handle passed up is
                // moved.
                let (a, b) = (c.rows.push_row(row), c.rows.push_row(row));
                given.extend([a, b]);
                sym.tables.insert_and_probe(*from_left, a, &mut c);
                if *from_left {
                    given_left.push(b);
                    left.tables.take_left(b, &mut c);
                } else {
                    left.tables.take_right(b, &mut c);
                }
            }
            let got = Vec::from(std::mem::take(&mut sym.tables.out));
            assert_eq!(cells(&c, &got), want, "case {case}: symmetric, on {on_slots:?}");
            // Both inputs are empty: the first poll flushes.
            let mut got_left = Vec::from(std::mem::take(&mut left.tables.out));
            let merged_left = got_left.len();
            got_left.extend(drain(&mut left, &mut c));
            assert_eq!(cells(&c, &got_left), want_left, "case {case}: left, on {on_slots:?}");
            // The arena holds the given rows and the matches, nothing else.
            assert_eq!(c.rows.len() - start, given.len() + got.len() + merged_left, "case {case}");
            let left_matched = arrivals.iter().zip(&matched).filter(|((left, _), _)| *left);
            let unmatched = given_left.iter().zip(left_matched).filter(|(_, (_, m))| !**m);
            let want_flushed: Vec<RowId> = unmatched.map(|(id, _)| *id).collect();
            assert_eq!(got_left[merged_left..], want_flushed, "case {case}: flushed, not copied");
            let mut merges = got.iter().chain(&got_left[..merged_left]);
            assert!(merges.all(|id| !given.contains(id)), "case {case}: a match is a new row");
        }
        // The generator must reach all three behaviours.
        assert!(matches > 1_000 && unkeyed > 1_000 && flushed > 1_000, "{matches} {unkeyed} {flushed}");
    }

    #[test]
    fn filter_op_counts_evals() {
        let mut c = ctx();
        let input = RowsOp::new(vec![
            enc(&mut c, &Row::new().with("n", Term::integer(1))),
            enc(&mut c, &Row::new().with("n", Term::integer(5))),
        ]);
        let expr = Expr::Cmp(
            Box::new(Expr::Var(Var::new("n"))),
            CmpOp::Gt,
            Box::new(Expr::Const(Term::integer(3))),
        );
        let mut f = FilterOp::new(Box::new(input), &[expr], &[], &c.schema, &c.verdicts);
        let out = drain(&mut f, &mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(c.stats.engine_filter_evals, 2);
    }

    fn n_gt(v: i64) -> Expr {
        Expr::Cmp(Box::new(Expr::Var(Var::new("n"))), CmpOp::Gt, Box::new(Expr::Const(Term::integer(v))))
    }

    /// Rows binding `?n` to the given ids (`UNBOUND` leaves it unbound).
    fn n_rows(ids: &[TermId]) -> Vec<Vec<TermId>> {
        ids.iter()
            .map(|&id| {
                let mut r = vec![TermId::UNBOUND; VARS.len()];
                r[slot("n")] = id;
                r
            })
            .collect()
    }

    /// Filters `rows` through `exprs`: the kept rows, and how often each
    /// expression was evaluated. Every row is charged every expression.
    fn run_filter(
        c: &mut ExecCtx,
        exprs: &[Expr],
        rows: Vec<Vec<TermId>>,
    ) -> (Vec<Vec<TermId>>, Vec<u64>) {
        let (n, before) = (rows.len() as u64, c.stats.engine_filter_evals);
        let ids = rows.iter().map(|r| c.rows.push_row(r)).collect();
        let mut f = FilterOp::new(Box::new(RowsOp::new(ids)), exprs, &[], &c.schema, &c.verdicts);
        let kept = drain(&mut f, c);
        assert_eq!(c.stats.engine_filter_evals - before, n * exprs.len() as u64);
        (cells(c, &kept), f.conjuncts.iter().map(|c| c.evals).collect())
    }

    #[test]
    fn a_one_slot_filter_decides_each_distinct_id_once() {
        let mut c = ctx();
        let [one, five, seven] = [1, 5, 7].map(|v| c.interner.intern(Term::integer(v)));
        let rows = n_rows(&[one, five, one, five, five, seven, one]);
        let start = c.clock.now();
        let (kept, evals) = run_filter(&mut c, &[n_gt(3)], rows.clone());
        assert_eq!(kept, n_rows(&[five, five, five, seven]));
        assert_eq!(evals, [3]);
        // Charged per row, hit or miss.
        assert_eq!(c.clock.now() - start, c.cost.engine_filter_time(1) * rows.len() as u32);
    }

    #[test]
    fn colliding_ids_keep_their_own_verdicts() {
        let mut c = ctx();
        let ids: Vec<TermId> =
            (0..=2 * VERDICT_CELLS as i64).map(|v| c.interner.intern(Term::integer(v))).collect();
        // 0, CELLS and 2·CELLS share cell 0; only 0 fails `?n > 0`.
        let (lo, mid, hi) = (ids[0], ids[VERDICT_CELLS], ids[2 * VERDICT_CELLS]);
        assert_eq!([lo.index(), mid.index(), hi.index()].map(|i| i % VERDICT_CELLS), [0; 3]);
        let (kept, evals) = run_filter(&mut c, &[n_gt(0)], n_rows(&[lo, mid, mid, lo, hi, lo, lo]));
        assert_eq!(kept, n_rows(&[mid, mid, hi]));
        // Each arrival of a different id evicts the one before it.
        assert_eq!(evals, [5]);
    }

    #[test]
    fn bound_over_an_unbound_slot_is_decided_once() {
        let mut c = ctx();
        let x = c.interner.intern(Term::iri("http://x/1"));
        let u = TermId::UNBOUND;
        let bound = Expr::Bound(Var::new("n"));
        let rows = n_rows(&[u, x, u, u, x]);
        let (kept, evals) = run_filter(&mut c, std::slice::from_ref(&bound), rows.clone());
        assert_eq!((kept, evals), (n_rows(&[x, x]), vec![2]));
        let (kept, evals) = run_filter(&mut c, &[Expr::Not(Box::new(bound))], rows);
        assert_eq!((kept, evals), (n_rows(&[u, u, u]), vec![2]));
    }

    #[test]
    fn two_slot_and_constant_filters_bypass_the_table() {
        let mut c = ctx();
        let [a, b] = ["a", "b"].map(|t| c.interner.intern(Term::iri(format!("http://x/{t}"))));
        let rows: Vec<Vec<TermId>> = [(a, a), (a, b), (a, a), (a, b)]
            .iter()
            .map(|&(l, r)| {
                let mut row = vec![TermId::UNBOUND; VARS.len()];
                row[slot("a")] = l;
                row[slot("b")] = r;
                row
            })
            .collect();
        let same = Expr::Cmp(Box::new(Expr::Var(Var::new("a"))), CmpOp::Eq, Box::new(Expr::Var(Var::new("b"))));
        let constant = Expr::Const(Term::Literal(Literal::boolean(true)));
        let (kept, evals) = run_filter(&mut c, &[constant, same], rows.clone());
        assert_eq!(kept, [rows[0].clone(), rows[2].clone()]);
        assert_eq!(evals, [4, 4]);
    }

    #[test]
    fn union_concatenates() {
        let mut c = ctx();
        let a = RowsOp::new(vec![row(&mut c, &[("x", "1")])]);
        let b = RowsOp::new(vec![row(&mut c, &[("x", "2")]), row(&mut c, &[("x", "3")])]);
        let mut u = UnionOp::new(vec![Box::new(a), Box::new(b)]);
        assert_eq!(drain(&mut u, &mut c).len(), 3);
    }

    #[test]
    fn project_and_distinct() {
        let mut c = ctx();
        let input = RowsOp::new(vec![
            row(&mut c, &[("a", "1"), ("b", "7")]),
            row(&mut c, &[("a", "1"), ("b", "8")]),
        ]);
        let p = ProjectOp::new(Box::new(input), &[slot("a")], VARS.len());
        let mut d = DistinctOp::new(Box::new(p));
        let out = drain(&mut d, &mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(c.rows.bound_count(out[0]), 1);
    }

    /// DISTINCT keeps the first sighting of each content, whatever chunk
    /// its rows lie in, and hands up the rows it was given: it writes none.
    #[test]
    fn distinct_hands_up_first_sightings_without_copying() {
        let mut rng = fedlake_prng::Prng::seed_from_u64(0xd157_1c70);
        let mut c = ctx();
        let ids: Vec<TermId> =
            (0..3).map(|i| c.interner.intern(Term::iri(format!("http://x/{i}")))).collect();
        let n = 4 * c.rows.rows_per_chunk();
        let given: Vec<RowId> = (0..n)
            .map(|_| {
                let (a, b) = (ids[rng.gen_range(0..3usize)], ids[rng.gen_range(0..3usize)]);
                let unbound = rng.gen_bool(0.3);
                let mut row = [TermId::UNBOUND; VARS.len()];
                row[0] = a;
                if !unbound {
                    row[1] = b;
                }
                c.rows.push_row(&row)
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        let want: Vec<RowId> =
            given.iter().copied().filter(|&r| seen.insert(c.rows.row(r).to_vec())).collect();
        assert_eq!(want.len(), 12, "every content the generator can draw");
        let mut d = DistinctOp::new(Box::new(RowsOp::new(given)));
        assert_eq!(drain(&mut d, &mut c), want);
        assert_eq!(c.rows.len(), n);

        // A query that binds no variable: rows of width 0, one answer.
        let mut c = ExecCtx::new(
            shared_virtual(),
            CostModel::default(),
            Arc::new(RowSchema::new([])),
            SharedInterner::new(),
        );
        let given: Vec<RowId> = (0..5).map(|_| c.rows.push_unbound()).collect();
        let mut d = DistinctOp::new(Box::new(RowsOp::new(given.clone())));
        assert_eq!(drain(&mut d, &mut c), [given[0]]);
    }

    #[test]
    fn join_skips_rows_missing_join_var() {
        let mut c = ctx();
        let left = RowsOp::new(vec![row(&mut c, &[("a", "1")])]); // no ?j
        let right = RowsOp::new(vec![row(&mut c, &[("j", "x")])]);
        let mut j = SymHashJoin::new(Box::new(left), Box::new(right), vec![slot("j")]);
        assert!(drain(&mut j, &mut c).is_empty());
    }

    #[test]
    fn the_per_row_charges_are_priced_once_and_land_where_the_priced_ones_do() {
        // 0.0015 µs is 1.5 ns and 0.3337 µs is 333.7 ns: both truncate a
        // fractional nanosecond when priced.
        let truncating = CostModel {
            engine_join_probe_us: 0.0015,
            engine_row_us: 0.3337,
            ..CostModel::default()
        };
        for cost in [CostModel::default(), CostModel::rdb_filter_favouring(), truncating] {
            let schema = Arc::new(RowSchema::new(VARS.map(Var::new)));
            let c = ExecCtx::new(shared_virtual(), cost, schema, SharedInterner::new());
            let (join, row) = (cost.engine_join_time(1), cost.engine_row_time(1));
            assert_eq!((c.join_probe_ns, c.row_ns), (nanos(join), nanos(row)), "{cost:?}");

            // Charged alternately with the priced Durations on a second
            // clock: every step ends at the same nanosecond.
            let priced = shared_virtual();
            for k in 0..1_000 {
                if k % 3 == 0 {
                    c.charge_join_probe();
                    priced.advance(join);
                } else {
                    c.charge_row();
                    priced.advance(row);
                }
                assert_eq!(c.clock.now(), priced.now(), "{cost:?}, step {k}");
            }
        }
        assert_eq!(nanos(truncating.engine_join_time(1)), 1);
        assert_eq!(nanos(truncating.engine_row_time(1)), 333);
    }
}
