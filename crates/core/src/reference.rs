//! Reference executor over term-materialized rows.
//!
//! This module keeps the pre-interning row representation — solution
//! mappings as [`Row`] (variable → term, by value) — runnable next to the
//! slot-based engine. It exists for **equivalence testing**:
//! [`FederatedEngine::execute_planned_reference`] executes the same
//! [`PlannedQuery`] through `Row`-based engine operators while sharing the
//! slot-based wrapper streams (rows are decoded at the service boundary and
//! re-encoded under a bind join), so link traffic and SQL counts match the
//! interned engine by construction, and the engine-level counters are
//! mirrored operation-for-operation. Any divergence in answers or stats
//! between the two executors is a bug in the interned representation. The
//! operator types are private to this module: the entry point is the only
//! thing a test names, and the dead-code lint sees the rest.
//!
//! What differs from the engine is the *representation*: one body per
//! operator over [`Row`]s, a faithful copy of the seed engine's semantics,
//! including where the clock advances and which counters increment — do
//! not "optimize" them. What does not differ is shared, not mirrored: the
//! pull protocol ([`Poll`], one `poll_next` per operator), the schedule
//! policy ([`ExecCtx::serialized`]) and the pick among several inputs
//! (`TwoInputs`, `Branches`) are the engine's own, so both schedules
//! of this executor are whatever the engine's are.

use crate::engine::{FederatedEngine, FedResult, FedStats};
use crate::error::FedError;
use crate::fedplan::FedPlan;
use crate::lake::DataLake;
use crate::obs::{CompletionKind, NodeOp, QueryObs};
use crate::operators::{BoxedOp, Branches, ExecCtx, FedOp, Poll, TwoInputs};
use crate::planner::PlannedQuery;
use crate::trace::AnswerTrace;
use crate::wrapper::{links_for, open_service, route_for};
use fedlake_netsim::clock::shared_virtual;
use fedlake_netsim::Link;
use fedlake_rdf::{SharedInterner, Term};
use fedlake_sparql::binding::{decode_row, encode_row, Row, SlotRow, Var};
use fedlake_sparql::eval::sort_rows;
use fedlake_sparql::expr::{BoundExpr, Expr};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A pull-based operator over term-materialized rows.
trait RefOp {
    /// Non-blocking pull, exactly [`FedOp::poll_next`] over term rows.
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError>;
}

/// A boxed reference operator.
type BoxedRefOp<'a> = Box<dyn RefOp + 'a>;

impl RefOp for NodeOp<BoxedRefOp<'_>> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError> {
        let polled = self.inner.poll_next(ctx)?;
        self.seen(&polled, ctx.clock.now());
        Ok(polled)
    }
}

/// Decodes a slot-based stream (a wrapper service or bind join) into
/// term rows at the source boundary.
struct DecodeOp<'a> {
    input: BoxedOp<'a>,
}

impl<'a> DecodeOp<'a> {
    /// Wraps a slot-based operator.
    fn new(input: BoxedOp<'a>) -> Self {
        DecodeOp { input }
    }
}

impl RefOp for DecodeOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError> {
        Ok(match self.input.poll_next(ctx)? {
            Poll::Ready(r) => {
                let dict = ctx.interner.lock();
                Poll::Ready(decode_row(&ctx.schema, &dict, |s| r.get(s)).ok_or_else(|| {
                    FedError::Internal("a source row holds an id its interner never assigned".into())
                })?)
            }
            Poll::Pending(ev) => Poll::Pending(ev),
            Poll::Done => Poll::Done,
        })
    }
}

/// Encodes a term-row stream back into slot rows, so the shared
/// [`crate::wrapper::BindJoinOp`] can consume a reference-side left input.
struct EncodeOp<'a> {
    input: BoxedRefOp<'a>,
}

impl<'a> EncodeOp<'a> {
    /// Wraps a reference operator.
    fn new(input: BoxedRefOp<'a>) -> Self {
        EncodeOp { input }
    }
}

impl FedOp for EncodeOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        Ok(match self.input.poll_next(ctx)? {
            Poll::Ready(r) => {
                let schema = Arc::clone(&ctx.schema);
                Poll::Ready(encode_row(&r, &schema, &mut ctx.interner.lock()))
            }
            Poll::Pending(ev) => Poll::Pending(ev),
            Poll::Done => Poll::Done,
        })
    }
}

fn key_of(row: &Row, on: &[Var]) -> Option<Vec<Term>> {
    on.iter().map(|v| row.get(v).cloned()).collect()
}

/// The seed symmetric hash join: keys are term vectors, rows are B-tree
/// maps, merging compares full terms.
struct SymHashJoinRef<'a> {
    inputs: TwoInputs<BoxedRefOp<'a>>,
    tables: SymRefTables,
}

struct SymRefTables {
    on: Vec<Var>,
    left: HashMap<Vec<Term>, Vec<Row>>,
    right: HashMap<Vec<Term>, Vec<Row>>,
    out: VecDeque<Row>,
}

impl<'a> SymHashJoinRef<'a> {
    /// Creates a join of `left` and `right` on `on`.
    fn new(left: BoxedRefOp<'a>, right: BoxedRefOp<'a>, on: Vec<Var>) -> Self {
        SymHashJoinRef {
            inputs: TwoInputs::new(left, right),
            tables: SymRefTables {
                on,
                left: HashMap::new(),
                right: HashMap::new(),
                out: VecDeque::new(),
            },
        }
    }
}

impl SymRefTables {
    fn insert_and_probe(&mut self, from_left: bool, row: Row, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.clock.advance(ctx.cost.engine_join_time(1));
        let Some(key) = key_of(&row, &self.on) else {
            return;
        };
        let (own, other) = if from_left {
            (&mut self.left, &self.right)
        } else {
            (&mut self.right, &self.left)
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

impl RefOp for SymHashJoinRef<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError> {
        let SymHashJoinRef { inputs, tables } = self;
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

/// The seed streaming left join.
struct LeftHashJoinRef<'a> {
    inputs: TwoInputs<BoxedRefOp<'a>>,
    tables: LeftRefTables,
}

struct LeftRefTables {
    on: Vec<Var>,
    left_rows: Vec<(Row, bool)>,
    left: HashMap<Vec<Term>, Vec<usize>>,
    right: HashMap<Vec<Term>, Vec<Row>>,
    out: VecDeque<Row>,
    flushed: bool,
}

impl<'a> LeftHashJoinRef<'a> {
    /// Creates a left join of `left` (required) and `right` (optional).
    fn new(left: BoxedRefOp<'a>, right: BoxedRefOp<'a>, on: Vec<Var>) -> Self {
        LeftHashJoinRef {
            inputs: TwoInputs::new(left, right),
            tables: LeftRefTables {
                on,
                left_rows: Vec::new(),
                left: HashMap::new(),
                right: HashMap::new(),
                out: VecDeque::new(),
                flushed: false,
            },
        }
    }
}

impl LeftRefTables {
    fn take_left(&mut self, row: Row, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.clock.advance(ctx.cost.engine_join_time(1));
        let idx = self.left_rows.len();
        let key = key_of(&row, &self.on);
        let mut matched = false;
        if let Some(key) = &key {
            if let Some(matches) = self.right.get(key) {
                for m in matches {
                    if let Some(merged) = row.merge(m) {
                        matched = true;
                        ctx.clock.advance(ctx.cost.engine_row_time(1));
                        self.out.push_back(merged);
                    }
                }
            }
            self.left.entry(key.clone()).or_default().push(idx);
        }
        self.left_rows.push((row, matched));
    }

    fn take_right(&mut self, row: Row, ctx: &mut ExecCtx) {
        ctx.stats.engine_join_probes += 1;
        ctx.clock.advance(ctx.cost.engine_join_time(1));
        let Some(key) = key_of(&row, &self.on) else { return };
        if let Some(left_idxs) = self.left.get(&key) {
            for &i in left_idxs {
                let (lrow, matched) = &mut self.left_rows[i];
                if let Some(merged) = lrow.merge(&row) {
                    *matched = true;
                    ctx.clock.advance(ctx.cost.engine_row_time(1));
                    self.out.push_back(merged);
                }
            }
        }
        self.right.entry(key).or_default().push(row);
    }
}

impl RefOp for LeftHashJoinRef<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError> {
        let LeftHashJoinRef { inputs, tables } = self;
        loop {
            if let Some(row) = tables.out.pop_front() {
                return Ok(Poll::Ready(row));
            }
            if inputs.exhausted() {
                if !tables.flushed {
                    tables.flushed = true;
                    for (row, matched) in &tables.left_rows {
                        if !matched {
                            tables.out.push_back(row.clone());
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

/// The seed conjunctive filter over term rows.
struct FilterRefOp<'a> {
    input: BoxedRefOp<'a>,
    exprs: Vec<BoundExpr>,
}

impl<'a> FilterRefOp<'a> {
    /// Creates a filter over `input`.
    fn new(input: BoxedRefOp<'a>, exprs: &[Expr]) -> Self {
        FilterRefOp { input, exprs: exprs.iter().map(|e| e.bind(None)).collect() }
    }
}

impl RefOp for FilterRefOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError> {
        loop {
            match self.input.poll_next(ctx)? {
                Poll::Ready(row) => {
                    ctx.stats.engine_filter_evals += self.exprs.len() as u64;
                    ctx.clock
                        .advance(ctx.cost.engine_filter_time(self.exprs.len() as u64));
                    if self.exprs.iter().all(|e| e.test(&row)) {
                        return Ok(Poll::Ready(row));
                    }
                }
                Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                Poll::Done => return Ok(Poll::Done),
            }
        }
    }
}

/// The seed union.
struct UnionRefOp<'a>(Branches<BoxedRefOp<'a>>);

impl<'a> UnionRefOp<'a> {
    /// Creates a union of `branches`.
    fn new(branches: Vec<BoxedRefOp<'a>>) -> Self {
        UnionRefOp(Branches::new(branches))
    }
}

impl RefOp for UnionRefOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError> {
        self.0.poll(ctx, |branch, ctx| branch.poll_next(ctx))
    }
}

/// The seed projection: rebuilds a B-tree row with only the kept vars.
struct ProjectRefOp<'a> {
    input: BoxedRefOp<'a>,
    keep: Vec<Var>,
}

impl<'a> ProjectRefOp<'a> {
    /// Creates a projection to `keep`.
    fn new(input: BoxedRefOp<'a>, keep: Vec<Var>) -> Self {
        ProjectRefOp { input, keep }
    }
}

impl ProjectRefOp<'_> {
    fn remap(&self, row: Row, ctx: &mut ExecCtx) -> Row {
        ctx.clock.advance(ctx.cost.engine_row_time(1));
        let mut out = Row::new();
        for v in &self.keep {
            if let Some(t) = row.get(v) {
                out.bind(v.clone(), t.clone());
            }
        }
        out
    }
}

impl RefOp for ProjectRefOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError> {
        Ok(match self.input.poll_next(ctx)? {
            Poll::Ready(row) => Poll::Ready(self.remap(row, ctx)),
            Poll::Pending(ev) => Poll::Pending(ev),
            Poll::Done => Poll::Done,
        })
    }
}

/// The seed duplicate elimination: hashes whole term rows.
struct DistinctRefOp<'a> {
    input: BoxedRefOp<'a>,
    seen: HashSet<Row>,
}

impl<'a> DistinctRefOp<'a> {
    /// Creates a distinct operator.
    fn new(input: BoxedRefOp<'a>) -> Self {
        DistinctRefOp { input, seen: HashSet::new() }
    }
}

impl RefOp for DistinctRefOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<Row>, FedError> {
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

// Node ids are assigned pre-order, exactly as the interned engine's
// `build_operator` does, so both executors report into the same node table.
fn build_ref_operator<'a>(
    lake: &'a DataLake,
    config: &crate::config::PlanConfig,
    plan: &FedPlan,
    links: &HashMap<String, Arc<Link>>,
    obs: &QueryObs,
    next_node: &mut u32,
) -> Result<BoxedRefOp<'a>, FedError> {
    let node_id = *next_node;
    *next_node += 1;
    let op: BoxedRefOp<'a> = match plan {
        FedPlan::Service(node) => {
            let route = route_for(&node.source_id, &node.route, links)?;
            let op = open_service(node, lake, route, config.rows_per_message)?;
            Box::new(DecodeOp::new(op))
        }
        FedPlan::Join { left, right, on } => {
            let l = build_ref_operator(lake, config, left, links, obs, next_node)?;
            let r = build_ref_operator(lake, config, right, links, obs, next_node)?;
            Box::new(SymHashJoinRef::new(l, r, on.clone()))
        }
        FedPlan::LeftJoin { left, right, on } => {
            let l = build_ref_operator(lake, config, left, links, obs, next_node)?;
            let r = build_ref_operator(lake, config, right, links, obs, next_node)?;
            Box::new(LeftHashJoinRef::new(l, r, on.clone()))
        }
        FedPlan::BindJoin { left, right, batch_size } => {
            let l = build_ref_operator(lake, config, left, links, obs, next_node)?;
            let route = route_for(&right.source_id, &right.route, links)?;
            let bind = crate::wrapper::BindJoinOp::new(
                Box::new(EncodeOp::new(l)),
                right,
                lake,
                route,
                config.rows_per_message,
                *batch_size,
            )?;
            Box::new(DecodeOp::new(Box::new(bind)))
        }
        FedPlan::Filter { input, exprs } => {
            let i = build_ref_operator(lake, config, input, links, obs, next_node)?;
            Box::new(FilterRefOp::new(i, exprs))
        }
        FedPlan::Union(branches) => {
            let ops = branches
                .iter()
                .map(|b| build_ref_operator(lake, config, b, links, obs, next_node))
                .collect::<Result<Vec<_>, _>>()?;
            Box::new(UnionRefOp::new(ops))
        }
    };
    Ok(obs.wrap(node_id, op, |w| Box::new(w)))
}

impl FederatedEngine {
    /// Executes an already-planned query through the reference (term-row)
    /// engine operators. Produces a [`FedResult`] with the same stats
    /// layout as [`FederatedEngine::execute_planned`]; used by the
    /// representation-, overlap- and serve-equivalence suites.
    pub fn execute_planned_reference(
        &self,
        planned: &PlannedQuery,
    ) -> Result<FedResult, FedError> {
        let config = self.config();
        let clock = shared_virtual();
        // Reference executions are recorded too, without per-service rows.
        let zero = std::time::Duration::ZERO;
        let obs = self.recorder().begin_query(0, "reference", planned, config.deadline, false);
        obs.admit(zero, zero, false);
        let links = links_for(
            self.lake(),
            config.network,
            Arc::clone(&clock),
            config.cost,
            config.seed,
            &self.fault_plans(),
            // Fresh tapes: the honest cold baseline draws every delay.
            &fedlake_netsim::DelayTapes::default(),
            &obs,
        );
        let mut ctx = ExecCtx::new(
            Arc::clone(&clock),
            config.cost,
            Arc::clone(&planned.schema),
            SharedInterner::new(),
        )
        .with_retry(config.retry)
        .with_deadline(config.deadline)
        .with_obs(obs);
        if !config.overlap {
            ctx = ctx.serialized();
        }

        let mut next_node = 0u32;
        let (lake, plan) = (self.lake(), &planned.plan);
        let mut op = build_ref_operator(lake, config, plan, &links, &ctx.obs, &mut next_node)?;
        op = Box::new(ProjectRefOp::new(op, planned.projection.to_vec()));
        if planned.distinct {
            op = Box::new(DistinctRefOp::new(op));
        }

        let mut trace = AnswerTrace::new();
        let mut rows: Vec<Row> = Vec::new();
        // Sources skipped at plan time already make the answer partial.
        let mut degraded = !planned.skipped_sources.is_empty();
        let unordered_limit = planned.order_by.is_empty().then_some(()).and(planned.limit);
        let want = unordered_limit.map(|l| l + planned.offset);
        loop {
            // Mirror of the interned engine's cooperative deadline and
            // degradation handling (see `execute_planned`).
            if let Some(d) = config.deadline {
                if clock.now() >= d {
                    ctx.obs.deadline_hit(clock.now());
                    if !config.degraded_ok {
                        let now = clock.now();
                        ctx.obs.complete(now, CompletionKind::DeadlineMiss, now, 0);
                        return Err(FedError::Timeout(d));
                    }
                    degraded = true;
                    break;
                }
            }
            match op.poll_next(&mut ctx) {
                Ok(Poll::Ready(row)) => {
                    ctx.obs.answer(&mut trace, clock.now());
                    rows.push(row);
                    if want.is_some_and(|w| rows.len() >= w) {
                        break;
                    }
                }
                Ok(Poll::Pending(ev)) => {
                    // Same stall guard as the interned executor: a due
                    // event surfacing here means time would stand still.
                    if ev.time <= clock.now() {
                        return Err(FedError::Internal(format!(
                            "scheduler stalled: pending event at {:?} is not in the future (now {:?})",
                            ev.time,
                            clock.now()
                        )));
                    }
                    clock.advance_to(ev.time);
                }
                Ok(Poll::Done) => break,
                Err(e @ (FedError::SourceUnavailable { .. } | FedError::Timeout(_))) => {
                    if !config.degraded_ok {
                        let now = clock.now();
                        ctx.obs.complete(now, CompletionKind::Failed, now, 0);
                        return Err(e);
                    }
                    degraded = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        trace.complete(clock.now());

        if !planned.order_by.is_empty() {
            sort_rows(&mut rows, &planned.order_by);
        }
        if planned.offset > 0 {
            rows.drain(..planned.offset.min(rows.len()));
        }
        if let Some(l) = planned.limit {
            rows.truncate(l);
        }

        // Mirror of the interned executor: this run's link counters feed
        // the session health registry too.
        self.health().record_links(&links);

        let stats = FedStats::assemble(
            config,
            planned,
            &links,
            &ctx.stats,
            &trace,
            rows.len() as u64,
            degraded,
        );
        let now = stats.execution_time;
        let outcome = if degraded { CompletionKind::Degraded } else { CompletionKind::Ok };
        ctx.obs.complete(now, outcome, now, stats.answers);
        let obs = ctx.obs.trace_report(&links, &stats);
        Ok(FedResult {
            vars: Arc::clone(&planned.projection),
            rows,
            trace,
            stats,
            explain: crate::explain::explain_plan(&planned.plan),
            obs,
        })
    }
}
