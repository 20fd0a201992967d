//! The deterministic span recorder.
//!
//! A [`TraceSink`] is threaded through [`ExecCtx`], the wrapper streams,
//! both executors, and (as a [`NetObserver`]) through netsim's links and
//! event queue. Every timestamp comes from the **simulated clock** — the
//! shared clock under the serialized schedule, the per-link private
//! timelines under the overlapped one — so the two schedules produce
//! structurally comparable traces and a given `(seed, config)` pair always
//! produces the same bytes.
//!
//! The determinism contract: the sink never draws randomness, never
//! advances any clock, and every record call happens at a point the
//! untraced execution reaches anyway — so enabling tracing cannot perturb
//! answers, stats, or RNG streams. Disabled, the sink is a `None` and
//! every hook is one branch.

use crate::engine::FedStats;
use crate::error::FedError;
use crate::fedplan::FedPlan;
use crate::obs::analyze::plan_nodes;
use crate::obs::metrics::MetricsRegistry;
use crate::trace::AnswerTrace;
use fedlake_netsim::link::LinkStats;
use fedlake_netsim::{Link, LinkFault, NetObserver};
use fedlake_sparql::binding::SlotRow;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The whole query (the root span).
    Query,
    /// Query planning (zero-width: planning is unpriced by the cost model).
    Planning,
    /// Star decomposition (zero-width, same reason).
    Decomposition,
    /// Engine-side execution drive loop.
    Execute,
    /// One engine operator's lifetime (first emit to exhaustion).
    Operator,
    /// One source's lane (parent of everything on its link).
    Source,
    /// One successful message transfer on a link.
    Transfer,
    /// One faulted transfer attempt (drop / truncation / outage hit).
    Fault,
    /// The receiver timeout after a faulted attempt.
    Timeout,
    /// The retry backoff wait after a timeout.
    Backoff,
    /// Source-side query evaluation (RDB scan, SPARQL eval).
    Compute,
    /// One bind-join batch round trip.
    BindBatch,
    /// One answer leaving the engine (an instant).
    Answer,
}

impl SpanKind {
    /// Stable lowercase name (trace-export category).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Planning => "planning",
            SpanKind::Decomposition => "decomposition",
            SpanKind::Execute => "execute",
            SpanKind::Operator => "operator",
            SpanKind::Source => "source",
            SpanKind::Transfer => "transfer",
            SpanKind::Fault => "fault",
            SpanKind::Timeout => "timeout",
            SpanKind::Backoff => "backoff",
            SpanKind::Compute => "compute",
            SpanKind::BindBatch => "bind-batch",
            SpanKind::Answer => "answer",
        }
    }
}

/// One recorded span on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Recorder-assigned id (index into the span list).
    pub id: u32,
    /// Enclosing span, if any (only the root has none).
    pub parent: Option<u32>,
    /// What the span measures.
    pub kind: SpanKind,
    /// Display lane (`engine`, `src:<id>`, `op:<n> <name>`).
    pub lane: String,
    /// Human-readable description.
    pub label: String,
    /// Simulated start time.
    pub start: Duration,
    /// Simulated end time (`== start` for instants and zero-width spans).
    pub end: Duration,
    /// Rows associated with the span (transferred, emitted, …).
    pub rows: u64,
}

/// Per-operator actuals, in plan pre-order.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Depth in the plan tree.
    pub depth: usize,
    /// The node's EXPLAIN line.
    pub label: String,
    /// Source the node requests from, when it is a leaf request.
    pub source: Option<String>,
    /// The planner's estimated output rows of this subtree.
    pub estimated: f64,
    /// Rows the operator emitted.
    pub rows_out: u64,
    /// Simulated time of the first emitted row.
    pub first: Option<Duration>,
    /// Simulated time the operator reported exhaustion (`None` when the
    /// drive loop stopped early, e.g. LIMIT).
    pub done: Option<Duration>,
}

/// Per-source link actuals.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceReport {
    /// The link's traffic and fault counters.
    pub link: LinkStats,
    /// Retries the wrapper issued against this source.
    pub retries: u64,
}

/// Everything one traced execution recorded; stored on
/// [`crate::FedResult::obs`] and consumed by the renderers.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Plan label (`aware`, `unaware`, …).
    pub plan_label: String,
    /// Network setting name.
    pub network: &'static str,
    /// All spans, in recording order.
    pub spans: Vec<Span>,
    /// Per-operator actuals, in plan pre-order.
    pub nodes: Vec<NodeReport>,
    /// Per-source link actuals, keyed by source id.
    pub sources: BTreeMap<String, SourceReport>,
    /// The metrics registry.
    pub metrics: MetricsRegistry,
    /// `(time, cumulative answers)` — the answer trace's points, recorded
    /// through the sink so spans and Figure 2 share one timeline.
    pub answers: Vec<(Duration, u64)>,
    /// Total simulated execution time.
    pub total_time: Duration,
    /// Answers produced.
    pub answers_total: u64,
    /// Messages across all links.
    pub messages: u64,
    /// Rows across all links (the intermediate-result size).
    pub rows_transferred: u64,
    /// Wrapper retries across all sources.
    pub retries: u64,
}

#[derive(Debug, Clone, Default)]
struct NodeState {
    rows: u64,
    first: Option<Duration>,
    done: Option<Duration>,
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<Span>,
    /// Root / execute span ids (set by `begin_query`).
    root: u32,
    exec: u32,
    /// Lane root span per source, created on first activity.
    sources: BTreeMap<String, u32>,
    /// Static node info (pre-order) plus live counters.
    node_info: Vec<crate::obs::analyze::PlanNode>,
    node_state: Vec<NodeState>,
    metrics: MetricsRegistry,
    answers: Vec<(Duration, u64)>,
}

/// The shared recorder behind an enabled sink. Implements [`NetObserver`]
/// so links and the event queue report into the same span list.
#[derive(Debug, Default)]
pub struct TraceShared {
    state: Mutex<TraceState>,
}

impl TraceShared {
    fn lock(&self) -> MutexGuard<'_, TraceState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[allow(clippy::too_many_arguments)] // the parameters are the fields of `Span` minus `id`
fn push_span(
    st: &mut TraceState,
    parent: Option<u32>,
    kind: SpanKind,
    lane: String,
    label: String,
    start: Duration,
    end: Duration,
    rows: u64,
) -> u32 {
    let id = st.spans.len() as u32;
    st.spans.push(Span { id, parent, kind, lane, label, start, end, rows });
    id
}

/// The lane root span of `source`, created on first use.
fn source_root(st: &mut TraceState, source: &str) -> u32 {
    if let Some(&id) = st.sources.get(source) {
        return id;
    }
    let parent = (!st.spans.is_empty()).then_some(st.root);
    let id = push_span(
        st,
        parent,
        SpanKind::Source,
        format!("src:{source}"),
        source.to_string(),
        // Patched to the children's envelope at `finish`.
        Duration::MAX,
        Duration::ZERO,
        0,
    );
    st.sources.insert(source.to_string(), id);
    id
}

impl NetObserver for TraceShared {
    fn on_transfer(
        &self,
        link: &str,
        rows: usize,
        start: Duration,
        end: Duration,
        fault: Option<LinkFault>,
    ) {
        let mut st = self.lock();
        let parent = Some(source_root(&mut st, link));
        let (kind, label) = match fault {
            None => (SpanKind::Transfer, format!("message ({rows} rows)")),
            Some(f) => (SpanKind::Fault, f.to_string()),
        };
        push_span(&mut st, parent, kind, format!("src:{link}"), label, start, end, rows as u64);
        match fault {
            None => {
                st.metrics.counter_add(&format!("link.{link}.messages"), 1);
                st.metrics.counter_add(&format!("link.{link}.rows"), rows as u64);
            }
            Some(_) => st.metrics.counter_add(&format!("link.{link}.faults"), 1),
        }
    }

    fn on_queue_depth(&self, depth: usize) {
        let mut st = self.lock();
        st.metrics.observe("sched.queue_depth", depth as u64);
        st.metrics.gauge_set("sched.queue_depth_now", depth as u64);
    }
}

/// A cloneable handle to the recorder — `None` when tracing is disabled,
/// making every hook a single branch on the hot path.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Arc<TraceShared>>);

impl TraceSink {
    /// The no-op sink (the default).
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// A recording sink for one execution.
    pub fn recording() -> Self {
        TraceSink(Some(Arc::new(TraceShared::default())))
    }

    /// True when this sink records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The recorder as a netsim observer, for attaching to links and the
    /// event queue.
    pub fn net_observer(&self) -> Option<Arc<dyn NetObserver>> {
        self.0.clone().map(|s| s as Arc<dyn NetObserver>)
    }

    /// Opens the root spans and registers the plan's node table. Planning
    /// and decomposition happened before the simulated clock started (the
    /// cost model does not price them), so their spans sit zero-width at
    /// time zero.
    pub fn begin_query(&self, plan: &FedPlan, plan_label: &str) {
        let Some(sh) = &self.0 else { return };
        let mut st = sh.lock();
        let root = push_span(
            &mut st,
            None,
            SpanKind::Query,
            "engine".to_string(),
            format!("query ({plan_label})"),
            Duration::ZERO,
            Duration::ZERO,
            0,
        );
        st.root = root;
        push_span(
            &mut st,
            Some(root),
            SpanKind::Planning,
            "engine".to_string(),
            format!("planning ({plan_label})"),
            Duration::ZERO,
            Duration::ZERO,
            0,
        );
        push_span(
            &mut st,
            Some(root),
            SpanKind::Decomposition,
            "engine".to_string(),
            format!("decomposition ({} services)", plan.service_count()),
            Duration::ZERO,
            Duration::ZERO,
            0,
        );
        st.exec = push_span(
            &mut st,
            Some(root),
            SpanKind::Execute,
            "engine".to_string(),
            "execute".to_string(),
            Duration::ZERO,
            Duration::ZERO,
            0,
        );
        st.node_info = plan_nodes(plan);
        st.node_state = vec![NodeState::default(); st.node_info.len()];
    }

    /// Records what the planner did into the metrics registry: strategy
    /// taken, candidate plans costed, bind joins chosen, and (cost mode)
    /// the estimated [`crate::FederationCost`] decomposition in µs.
    pub fn record_plan_report(&self, report: &crate::planner::PlanReport) {
        let Some(sh) = &self.0 else { return };
        let mut st = sh.lock();
        st.metrics.counter_add("planner.queries", 1);
        st.metrics
            .counter_add(&format!("planner.strategy.{}", report.strategy.label()), 1);
        st.metrics.counter_add("planner.plans_costed", report.plans_costed);
        st.metrics.counter_add("planner.bind_joins", report.bind_joins);
        if let Some(cost) = &report.estimated_cost {
            st.metrics.gauge_set("planner.est_cpu_us", cost.cpu_us as u64);
            st.metrics.gauge_set("planner.est_io_us", cost.io_us as u64);
            st.metrics.gauge_set("planner.est_network_us", cost.network_us as u64);
            st.metrics.gauge_set("planner.est_parallelism_us", cost.parallelism_us as u64);
            st.metrics.gauge_set("planner.est_total_us", cost.total_us() as u64);
        }
    }

    /// Records a source-lane span (timeouts, backoffs, source compute,
    /// bind-join batches). `start`/`end` are on whichever simulated
    /// timeline the caller's schedule uses.
    pub fn source_span(
        &self,
        kind: SpanKind,
        source: &str,
        label: &str,
        start: Duration,
        end: Duration,
        rows: u64,
    ) {
        let Some(sh) = &self.0 else { return };
        let mut st = sh.lock();
        let parent = Some(source_root(&mut st, source));
        push_span(
            &mut st,
            parent,
            kind,
            format!("src:{source}"),
            label.to_string(),
            start,
            end,
            rows,
        );
        if kind == SpanKind::Backoff {
            st.metrics.counter_add(&format!("link.{source}.retries"), 1);
        }
    }

    /// Notes that plan node `node` emitted a row at `now`.
    pub fn node_emit(&self, node: u32, now: Duration) {
        let Some(sh) = &self.0 else { return };
        let mut st = sh.lock();
        if let Some(ns) = st.node_state.get_mut(node as usize) {
            ns.rows += 1;
            ns.first.get_or_insert(now);
        }
    }

    /// Notes that plan node `node` reported exhaustion at `now`
    /// (idempotent: the first report wins).
    pub fn node_done(&self, node: u32, now: Duration) {
        let Some(sh) = &self.0 else { return };
        let mut st = sh.lock();
        if let Some(ns) = st.node_state.get_mut(node as usize) {
            ns.done.get_or_insert(now);
        }
    }

    /// Records one answer at `now` into both the Figure 2 answer trace and
    /// the span timeline, so the two measurements cannot drift apart.
    pub fn record_answer(&self, trace: &mut AnswerTrace, now: Duration) {
        trace.record(now);
        let Some(sh) = &self.0 else { return };
        let mut st = sh.lock();
        let n = trace.count();
        st.answers.push((now, n));
        let parent = Some(st.exec);
        push_span(
            &mut st,
            parent,
            SpanKind::Answer,
            "engine".to_string(),
            format!("answer {n}"),
            now,
            now,
            1,
        );
    }

    /// Closes every open span, folds the final counters into the metrics
    /// registry, and returns the report. `stats` must be the execution's
    /// assembled [`FedStats`]; `links` the wrapper links it ran over.
    pub fn finish(
        &self,
        links: &HashMap<String, Arc<Link>>,
        stats: &FedStats,
    ) -> Option<TraceReport> {
        let sh = self.0.as_ref()?;
        let mut st = sh.lock();
        let final_time = stats.execution_time;

        // Materialize one Operator span per plan node that did anything.
        for i in 0..st.node_info.len() {
            let ns = st.node_state[i].clone();
            if ns.rows == 0 && ns.done.is_none() {
                continue;
            }
            let end = ns.done.unwrap_or(final_time);
            let start = ns.first.unwrap_or(end);
            let info = &st.node_info[i];
            let name = info.label.split_whitespace().next().unwrap_or("op").to_string();
            let label = info.label.clone();
            let parent = Some(st.exec);
            push_span(
                &mut st,
                parent,
                SpanKind::Operator,
                format!("op:{i:02} {name}"),
                label,
                start,
                end,
                ns.rows,
            );
        }

        // Close each source lane over its children's envelope.
        let source_ids: Vec<(String, u32)> =
            st.sources.iter().map(|(s, &id)| (s.clone(), id)).collect();
        for (_, id) in &source_ids {
            let (mut lo, mut hi) = (Duration::MAX, Duration::ZERO);
            for s in &st.spans {
                if s.parent == Some(*id) {
                    lo = lo.min(s.start);
                    hi = hi.max(s.end);
                }
            }
            let span = &mut st.spans[*id as usize];
            span.start = if lo == Duration::MAX { Duration::ZERO } else { lo };
            span.end = hi;
        }
        for (source, id) in &source_ids {
            if let Some(link) = links.get(source) {
                st.spans[*id as usize].rows = link.stats().rows;
            }
        }

        // Close the engine lanes: execute covers the drive loop, the root
        // covers everything including link tails that outlive it.
        let exec = st.exec as usize;
        st.spans[exec].end = final_time;
        let mut root_end = final_time;
        for (_, id) in &source_ids {
            root_end = root_end.max(st.spans[*id as usize].end);
        }
        let root = st.root as usize;
        st.spans[root].end = root_end;
        st.spans[root].rows = stats.answers;

        // Fold the execution totals into the registry; the renderers and
        // the reconciliation tests read these, so a FedStats field and its
        // metric cannot silently diverge.
        st.metrics.counter_add("engine.answers", stats.answers);
        st.metrics.counter_add("engine.messages", stats.messages);
        st.metrics.counter_add("engine.rows_transferred", stats.rows_transferred);
        st.metrics.counter_add("engine.retries", stats.retries);
        st.metrics.counter_add("engine.sql_queries", stats.sql_queries);
        st.metrics.counter_add("engine.filter_evals", stats.engine_filter_evals);
        st.metrics.counter_add("engine.join_probes", stats.engine_join_probes);
        for i in 0..st.node_info.len() {
            let rows = st.node_state[i].rows;
            st.metrics.counter_add(&format!("op.{i:02}.rows_out"), rows);
        }
        // Estimation-error summary: the q-error of every operator that
        // ran, ×100 (a histogram value of 100 is a perfect estimate).
        for i in 0..st.node_info.len() {
            let ns = &st.node_state[i];
            if ns.rows == 0 && ns.done.is_none() {
                continue;
            }
            let q = crate::obs::analyze::q_error(st.node_info[i].estimated, ns.rows);
            st.metrics.observe("planner.qerror_x100", (q * 100.0) as u64);
        }

        let mut sources = BTreeMap::new();
        for (source, link) in links {
            let retries = st.metrics.counter(&format!("link.{source}.retries"));
            sources.insert(source.clone(), SourceReport { link: link.stats(), retries });
        }

        let nodes = st
            .node_info
            .iter()
            .zip(&st.node_state)
            .map(|(info, ns)| NodeReport {
                depth: info.depth,
                label: info.label.clone(),
                source: info.source.clone(),
                estimated: info.estimated,
                rows_out: ns.rows,
                first: ns.first,
                done: ns.done,
            })
            .collect();

        Some(TraceReport {
            plan_label: stats.plan_label.clone(),
            network: stats.network,
            spans: st.spans.clone(),
            nodes,
            sources,
            metrics: st.metrics.clone(),
            answers: st.answers.clone(),
            total_time: final_time,
            answers_total: stats.answers,
            messages: stats.messages,
            rows_transferred: stats.rows_transferred,
            retries: stats.retries,
        })
    }
}

/// Wraps an engine operator to count emissions for its plan node. Only
/// installed when tracing is enabled, so the disabled path pays nothing.
pub(crate) struct SpanOp<'a> {
    inner: crate::operators::BoxedOp<'a>,
    node: u32,
    sink: TraceSink,
}

impl<'a> SpanOp<'a> {
    pub(crate) fn new(inner: crate::operators::BoxedOp<'a>, node: u32, sink: TraceSink) -> Self {
        SpanOp { inner, node, sink }
    }
}

impl crate::operators::FedOp for SpanOp<'_> {
    fn poll_next(
        &mut self,
        ctx: &mut crate::operators::ExecCtx,
    ) -> Result<crate::operators::Poll<SlotRow>, FedError> {
        let r = self.inner.poll_next(ctx)?;
        match &r {
            crate::operators::Poll::Ready(_) => self.sink.node_emit(self.node, ctx.clock.now()),
            crate::operators::Poll::Done => self.sink.node_done(self.node, ctx.clock.now()),
            crate::operators::Poll::Pending(_) => {}
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.net_observer().is_none());
        let mut trace = AnswerTrace::new();
        sink.record_answer(&mut trace, Duration::from_millis(1));
        assert_eq!(trace.count(), 1, "the answer trace still records");
        sink.node_emit(0, Duration::ZERO);
        sink.node_done(0, Duration::ZERO);
        sink.source_span(
            SpanKind::Backoff,
            "s",
            "b",
            Duration::ZERO,
            Duration::ZERO,
            0,
        );
    }

    #[test]
    fn source_spans_build_a_lane_tree() {
        let sink = TraceSink::recording();
        let obs = sink.net_observer().unwrap();
        obs.on_transfer("chebi", 5, Duration::from_millis(1), Duration::from_millis(2), None);
        obs.on_transfer(
            "chebi",
            0,
            Duration::from_millis(2),
            Duration::from_millis(2),
            Some(LinkFault::Dropped),
        );
        sink.source_span(
            SpanKind::Backoff,
            "chebi",
            "backoff (attempt 1)",
            Duration::from_millis(2),
            Duration::from_millis(3),
            0,
        );
        let sh = sink.0.as_ref().unwrap();
        let st = sh.lock();
        assert_eq!(st.spans.len(), 4, "lane root + transfer + fault + backoff");
        let lane = &st.spans[st.sources["chebi"] as usize];
        assert_eq!(lane.kind, SpanKind::Source);
        for s in &st.spans {
            if s.id != lane.id {
                assert_eq!(s.parent, Some(lane.id));
            }
        }
        assert_eq!(st.metrics.counter("link.chebi.messages"), 1);
        assert_eq!(st.metrics.counter("link.chebi.faults"), 1);
        assert_eq!(st.metrics.counter("link.chebi.retries"), 1);
    }
}
