//! The span view: one query's trace report, folded from the detail events
//! its recorder kept ([`crate::obs::recorder`]).
//!
//! Every timestamp comes from the **simulated clock** — the shared clock
//! under the serialized schedule, the per-link private timelines under the
//! overlapped one — so the two schedules produce structurally comparable
//! traces and a given `(seed, config)` pair always produces the same bytes.

use crate::engine::FedStats;
use crate::obs::analyze::q_error;
use crate::obs::metrics::MetricsRegistry;
use crate::obs::recorder::{Event, SourceSpan};
use crate::planner::PlanReport;
use fedlake_netsim::link::LinkStats;
use fedlake_netsim::Link;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
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
    pub(crate) fn name(self) -> &'static str {
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

/// One plan node in pre-order: what the plan says of it, and what its
/// operator actually did. The recorder keeps one table of these per query,
/// actuals live.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Depth in the plan tree.
    pub depth: usize,
    /// The node's EXPLAIN line.
    pub label: String,
    /// Source the node requests from, when it is a leaf request.
    pub source: Option<String>,
    /// The node is a service leaf (a bind join requests from a source but
    /// is no leaf).
    pub service: bool,
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

impl NodeReport {
    /// The operator emitted a row or reported exhaustion.
    fn ran(&self) -> bool {
        self.rows_out > 0 || self.done.is_some()
    }
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
    /// by the same hook as Figure 2's, so spans and answers share one
    /// timeline.
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

/// The span list under construction, with each source's lane root.
#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
    lanes: BTreeMap<String, u32>,
}

impl Spans {
    #[allow(clippy::too_many_arguments)] // the parameters are the fields of `Span` minus `id`
    fn push(
        &mut self,
        parent: Option<u32>,
        kind: SpanKind,
        lane: String,
        label: String,
        start: Duration,
        end: Duration,
        rows: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { id, parent, kind, lane, label, start, end, rows });
        id
    }

    /// A zero-width span at time zero on the engine lane.
    fn engine(&mut self, parent: Option<u32>, kind: SpanKind, label: String) -> u32 {
        self.push(parent, kind, "engine".into(), label, Duration::ZERO, Duration::ZERO, 0)
    }

    /// A span on `source`'s lane under the lane's root, which the first
    /// one creates (its envelope is patched once every child is in).
    #[allow(clippy::too_many_arguments)]
    fn on_lane(
        &mut self,
        root: u32,
        source: &str,
        kind: SpanKind,
        label: String,
        start: Duration,
        end: Duration,
        rows: u64,
    ) {
        let lane = match self.lanes.get(source) {
            Some(&id) => id,
            None => {
                let id = self.push(
                    Some(root),
                    SpanKind::Source,
                    format!("src:{source}"),
                    source.to_string(),
                    Duration::MAX,
                    Duration::ZERO,
                    0,
                );
                self.lanes.insert(source.to_string(), id);
                id
            }
        };
        self.push(Some(lane), kind, format!("src:{source}"), label, start, end, rows);
    }
}

impl TraceReport {
    /// Folds one query's kept detail `events` (in hook order) and its node
    /// table into the report: the engine lanes first, then one span per
    /// event, one operator span per node that did anything, and the
    /// envelopes closed over their children. `stats` are the execution's
    /// assembled [`FedStats`] (mirrored into the metrics registry, so a
    /// field and its metric cannot silently diverge), `links` the links it
    /// ran over (none for a serve session: those are shared).
    pub(crate) fn fold(
        events: &[Event],
        nodes: &[NodeReport],
        plan: &PlanReport,
        links: &HashMap<String, Arc<Link>>,
        stats: &FedStats,
    ) -> TraceReport {
        let final_time = stats.execution_time;
        let mut b = Spans::default();
        let mut metrics = MetricsRegistry::new();
        let mut answers = Vec::new();
        // Planning and decomposition happen before the simulated clock
        // starts (the cost model does not price them), so they sit
        // zero-width at time zero; root and execute are closed below.
        let root = b.engine(None, SpanKind::Query, format!("query ({})", stats.plan_label));
        b.engine(Some(root), SpanKind::Planning, format!("planning ({})", stats.plan_label));
        let services = format!("decomposition ({} services)", stats.services);
        b.engine(Some(root), SpanKind::Decomposition, services);
        let exec = b.engine(Some(root), SpanKind::Execute, "execute".into());

        // What the planner did: strategy taken, candidate plans costed,
        // bind joins chosen, and (cost mode) the estimated
        // [`crate::FederationCost`] decomposition in µs.
        metrics.counter_add("planner.queries", 1);
        metrics.counter_add(&format!("planner.strategy.{}", plan.strategy.label()), 1);
        metrics.counter_add("planner.plans_costed", plan.plans_costed);
        metrics.counter_add("planner.bind_joins", plan.bind_joins);
        if let Some(cost) = &plan.estimated_cost {
            metrics.gauge_set("planner.est_cpu_us", cost.cpu_us as u64);
            metrics.gauge_set("planner.est_io_us", cost.io_us as u64);
            metrics.gauge_set("planner.est_network_us", cost.network_us as u64);
            metrics.gauge_set("planner.est_parallelism_us", cost.parallelism_us as u64);
            metrics.gauge_set("planner.est_total_us", cost.total_us() as u64);
        }

        for event in events {
            match event {
                Event::Transfer { link, rows, start, end, fault } => {
                    let (kind, label) = match fault {
                        None => (SpanKind::Transfer, format!("message ({rows} rows)")),
                        Some(f) => (SpanKind::Fault, f.to_string()),
                    };
                    b.on_lane(root, link, kind, label, *start, *end, *rows);
                    match fault {
                        None => {
                            metrics.counter_add(&format!("link.{link}.messages"), 1);
                            metrics.counter_add(&format!("link.{link}.rows"), *rows);
                        }
                        Some(_) => metrics.counter_add(&format!("link.{link}.faults"), 1),
                    }
                }
                Event::Source { span, endpoint, start, end, rows } => {
                    b.on_lane(root, endpoint, span.kind(), span.label(), *start, *end, *rows);
                    if let SourceSpan::Backoff { .. } = span {
                        metrics.counter_add(&format!("link.{endpoint}.retries"), 1);
                    }
                }
                Event::QueueDepth(depth) => {
                    metrics.observe("sched.queue_depth", *depth);
                    metrics.gauge_set("sched.queue_depth_now", *depth);
                }
                Event::Answer { time, n } => {
                    answers.push((*time, *n));
                    let label = format!("answer {n}");
                    b.push(Some(exec), SpanKind::Answer, "engine".into(), label, *time, *time, 1);
                }
            }
        }

        // One operator span per plan node that did anything.
        for (i, node) in nodes.iter().enumerate().filter(|(_, n)| n.ran()) {
            let end = node.done.unwrap_or(final_time);
            let name = node.label.split_whitespace().next().unwrap_or("op");
            b.push(
                Some(exec),
                SpanKind::Operator,
                format!("op:{i:02} {name}"),
                node.label.clone(),
                node.first.unwrap_or(end),
                end,
                node.rows_out,
            );
        }

        // Close each source lane over its children's envelope; the root
        // covers everything, including link tails that outlive the drive
        // loop the execute span covers.
        let mut root_end = final_time;
        for (source, &id) in &b.lanes {
            let (mut lo, mut hi) = (Duration::MAX, Duration::ZERO);
            for s in b.spans.iter().filter(|s| s.parent == Some(id)) {
                lo = lo.min(s.start);
                hi = hi.max(s.end);
            }
            let lane = &mut b.spans[id as usize];
            lane.start = if lo == Duration::MAX { Duration::ZERO } else { lo };
            lane.end = hi;
            if let Some(link) = links.get(source) {
                lane.rows = link.stats().rows;
            }
            root_end = root_end.max(hi);
        }
        b.spans[exec as usize].end = final_time;
        b.spans[root as usize].end = root_end;
        b.spans[root as usize].rows = stats.answers;

        // The execution totals; the renderers and the reconciliation tests
        // read these.
        metrics.counter_add("engine.answers", stats.answers);
        metrics.counter_add("engine.messages", stats.messages);
        metrics.counter_add("engine.rows_transferred", stats.rows_transferred);
        metrics.counter_add("engine.retries", stats.retries);
        metrics.counter_add("engine.sql_queries", stats.sql_queries);
        metrics.counter_add("engine.filter_evals", stats.engine_filter_evals);
        metrics.counter_add("engine.join_probes", stats.engine_join_probes);
        for (i, node) in nodes.iter().enumerate() {
            metrics.counter_add(&format!("op.{i:02}.rows_out"), node.rows_out);
        }
        // Estimation-error summary: the q-error of every operator that
        // ran, ×100 (a histogram value of 100 is a perfect estimate).
        for node in nodes.iter().filter(|n| n.ran()) {
            let q = q_error(node.estimated, node.rows_out);
            metrics.observe("planner.qerror_x100", (q * 100.0) as u64);
        }

        let sources = links
            .iter()
            .map(|(source, link)| {
                let retries = metrics.counter(&format!("link.{source}.retries"));
                (source.clone(), SourceReport { link: link.stats(), retries })
            })
            .collect();
        TraceReport {
            plan_label: stats.plan_label.clone(),
            network: stats.network,
            spans: b.spans,
            nodes: nodes.to_vec(),
            sources,
            metrics,
            answers,
            total_time: final_time,
            answers_total: stats.answers,
            messages: stats.messages,
            rows_transferred: stats.rows_transferred,
            retries: stats.retries,
        }
    }
}
