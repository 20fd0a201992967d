//! The one recorder: every observability hook appends one event to it.
//!
//! `Recorder` is the engine's session handle; `QueryObs` is the
//! per-query handle it opens for every execution — solo or served. That
//! handle is the one observability field of [`ExecCtx`], the one argument
//! `Session::open`, `build_operator` and `links_for` take, and the one
//! [`NetObserver`] on links and the event queue. Every hook appends
//! its event; the configuration selects what is *kept*, and an event is
//! built only where it is:
//!
//! * [`crate::PlanConfig::recorder`] keeps the lifecycle events — submit,
//!   admit, plan, first-row, retry, failover, deadline, source-rows,
//!   complete, and every link attempt as a fleet-level `transfer` — in the
//!   session's bounded ring, each stamped with the next sequence number.
//!   When the ring is full the oldest event is evicted and counted, so
//!   memory stays constant under an arbitrarily long serve run. The
//!   [`FlightRecording`] snapshot is what the watchdog, the slow-query log
//!   and the serve exporters fold.
//! * [`crate::PlanConfig::tracing`] keeps the query's detail `Event`s —
//!   link attempts, timeouts, backoffs, source compute, bind batches,
//!   queue depths, answers — which [`crate::obs::span`] folds into the
//!   query's [`TraceReport`]. A link attempt is kept by both.
//!
//! Only ring events take sequence numbers, so keeping the detail too never
//! moves a ring's `seq`s or evictions. Beside its events the per-query
//! handle holds the plan's pre-order node table with live actuals, fed by
//! the one node wrapper `NodeOp` that `QueryObs::wrap` puts around an
//! operator whose actuals are read: they are the trace's operator spans and
//! the ring's per-service `source-rows`.
//!
//! The passivity contract: the recorder never draws randomness, never
//! advances a clock, and every hook fires at a point the unrecorded
//! execution reaches anyway — so keeping either part cannot perturb
//! answers, stats or RNG streams. With both off the handles are `None` and
//! every hook is one branch.

use crate::config::PlanConfig;
use crate::engine::FedStats;
use crate::error::FedError;
use crate::obs::analyze::plan_nodes;
use crate::obs::span::{NodeReport, SpanKind, TraceReport};
use crate::operators::{BoxedOp, ExecCtx, FedOp, Poll};
use crate::planner::{PlanReport, PlannedQuery};
use crate::trace::AnswerTrace;
use fedlake_netsim::{Link, LinkFault, NetObserver};
use fedlake_sparql::binding::RowId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Event capacity of the session ring.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// The job id carried by events not attributable to one query (link
/// attempts are fleet-level).
pub const NO_JOB: u32 = u32::MAX;

/// How a query finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// Full answer set produced.
    Ok,
    /// Partial answers under graceful degradation.
    Degraded,
    /// The deadline fired and the query failed with a timeout.
    DeadlineMiss,
    /// A hard failure (source unavailable past the retry budget, …).
    Failed,
}

impl CompletionKind {
    /// Stable lowercase name for exports and logs.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CompletionKind::Ok => "ok",
            CompletionKind::Degraded => "degraded",
            CompletionKind::DeadlineMiss => "deadline-miss",
            CompletionKind::Failed => "failed",
        }
    }
}

/// What one lifecycle event records.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEventKind {
    /// The query arrived (event time = arrival time).
    Submit,
    /// The query was admitted after waiting `queued` in the FIFO.
    Admit {
        /// Admission wait (zero when a slot was free on arrival).
        queued: Duration,
    },
    /// What the planner did for this query.
    Plan {
        /// Candidate plans costed (cost-based mode).
        plans_costed: u64,
        /// Bind joins chosen.
        bind_joins: u64,
        /// The planner's estimated answer cardinality (plan root).
        estimated_rows: f64,
        /// The plan was replayed from the plan cache.
        cached: bool,
        /// The plan's label, [`crate::planner::PlanReport::fingerprint`]
        /// (not the plan cache's key).
        fingerprint: u64,
    },
    /// The first answer row left the engine.
    FirstRow,
    /// A wrapper stream re-issued a message after a link fault.
    Retry {
        /// Endpoint the retry went to (replica id, e.g. `chebi#r1`).
        endpoint: String,
        /// 0-based failed-attempt index the retry follows.
        attempt: u32,
    },
    /// Mid-query failover to the next replica of a logical source.
    Failover {
        /// Logical source id.
        logical: String,
        /// Exhausted endpoint.
        from: String,
        /// Newly routed endpoint.
        to: String,
    },
    /// One link message (success or faulted attempt) — fleet-level, not
    /// attributed to a query ([`NO_JOB`]).
    Transfer {
        /// Endpoint the message crossed.
        link: String,
        /// Rows carried (zero on faulted attempts).
        rows: u64,
        /// True when the attempt faulted (drop / truncation / outage).
        faulted: bool,
    },
    /// The query's deadline fired.
    Deadline,
    /// Actual rows one service leaf produced vs. the planner's estimate
    /// (flushed at completion, in plan pre-order).
    SourceRows {
        /// Logical source the leaf requested from.
        source: String,
        /// Estimated output rows of the leaf.
        estimated: f64,
        /// Rows the leaf actually emitted.
        rows: u64,
    },
    /// The query finished.
    Complete {
        /// How it finished.
        outcome: CompletionKind,
        /// Arrival-to-finish latency.
        latency: Duration,
        /// The planner's estimated answer cardinality (plan root).
        estimated_rows: f64,
        /// Answer rows returned.
        rows: u64,
    },
}

impl FleetEventKind {
    /// Stable lowercase name for exports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FleetEventKind::Submit => "submit",
            FleetEventKind::Admit { .. } => "admit",
            FleetEventKind::Plan { .. } => "plan",
            FleetEventKind::FirstRow => "first-row",
            FleetEventKind::Retry { .. } => "retry",
            FleetEventKind::Failover { .. } => "failover",
            FleetEventKind::Transfer { .. } => "transfer",
            FleetEventKind::Deadline => "deadline",
            FleetEventKind::SourceRows { .. } => "source-rows",
            FleetEventKind::Complete { .. } => "complete",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// Recorder-assigned sequence number, strictly increasing across the
    /// recorder's lifetime (it keeps counting past ring evictions).
    pub seq: u64,
    /// Simulated time of the event.
    pub time: Duration,
    /// The query the event belongs to (an index into
    /// [`FlightRecording::jobs`]), or [`NO_JOB`] for link-level events.
    pub job: u32,
    /// What happened.
    pub kind: FleetEventKind,
}

/// Static metadata of one recorded query, registered when it begins and
/// joined to events by job id.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMeta {
    /// Issuing client (0 for solo executions).
    pub client: usize,
    /// Display label, e.g. `Q3[cat-12]`.
    pub label: String,
    /// Query template the label instantiates, e.g. `Q3`.
    pub template: String,
    /// Plan strategy label (`heuristic`, `dp`, `greedy-cost`).
    pub strategy: &'static str,
    /// Deadline relative to arrival, when one applies.
    pub deadline: Option<Duration>,
}

/// Everything the ring holds, as a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecording {
    /// Retained events, oldest first, `seq` strictly increasing.
    pub events: Vec<FleetEvent>,
    /// Query metadata, indexed by [`FleetEvent::job`].
    pub jobs: Vec<JobMeta>,
    /// Events evicted from the full ring.
    pub dropped: u64,
    /// The ring's capacity.
    pub capacity: usize,
}

impl JobMeta {
    /// The metadata of `client`'s query `label`; its template is the label
    /// up to the instance parameters.
    pub(crate) fn new(
        client: usize,
        label: &str,
        strategy: &'static str,
        deadline: Option<Duration>,
    ) -> Self {
        let template = label.split('[').next().unwrap_or(label).to_string();
        JobMeta { client, label: label.to_string(), template, strategy, deadline }
    }
}

impl FlightRecording {
    /// A recording written by hand, for the views' tests: `jobs` as
    /// `(client, label, strategy, deadline)`, `events` as `(time, job,
    /// kind)` in sequence order.
    #[cfg(test)]
    pub(crate) fn by_hand(
        jobs: &[(usize, &str, &'static str, Option<Duration>)],
        events: Vec<(Duration, u32, FleetEventKind)>,
    ) -> Self {
        let jobs = jobs.iter().map(|&(c, label, s, d)| JobMeta::new(c, label, s, d)).collect();
        let events = events
            .into_iter()
            .enumerate()
            .map(|(seq, (time, job, kind))| FleetEvent { seq: seq as u64, time, job, kind })
            .collect();
        FlightRecording { events, jobs, dropped: 0, capacity: DEFAULT_RING_CAPACITY }
    }

    /// The metadata of `job`, when it is a real query id.
    pub(crate) fn meta(&self, job: u32) -> Option<&JobMeta> {
        if job == NO_JOB {
            return None;
        }
        self.jobs.get(job as usize)
    }

    /// The retained events of one query, in order.
    pub(crate) fn events_for(&self, job: u32) -> impl Iterator<Item = &FleetEvent> {
        self.events.iter().filter(move |e| e.job == job)
    }
}

/// A span on a source's lane as a wrapper stream reports it; the label is
/// written when the trace is folded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SourceSpan {
    /// The receiver's detection timeout after a faulted attempt.
    Timeout,
    /// The backoff after failed attempt `attempt` (0-based).
    Backoff { attempt: u32 },
    /// The source's evaluation of a request.
    Compute(&'static str),
    /// One bind-join batch round trip for `left_rows` bindings.
    BindBatch { left_rows: usize },
}

impl SourceSpan {
    pub(crate) fn kind(self) -> SpanKind {
        match self {
            SourceSpan::Timeout => SpanKind::Timeout,
            SourceSpan::Backoff { .. } => SpanKind::Backoff,
            SourceSpan::Compute(_) => SpanKind::Compute,
            SourceSpan::BindBatch { .. } => SpanKind::BindBatch,
        }
    }

    pub(crate) fn label(self) -> String {
        match self {
            SourceSpan::Timeout => "detection timeout".to_string(),
            SourceSpan::Backoff { attempt } => format!("backoff before attempt {}", attempt + 2),
            SourceSpan::Compute(what) => what.to_string(),
            SourceSpan::BindBatch { left_rows } => format!("bind batch ({left_rows} left rows)"),
        }
    }
}

/// A detail event: what a query's trace is folded from.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// One link attempt over `[start, end]`.
    Transfer { link: String, rows: u64, start: Duration, end: Duration, fault: Option<LinkFault> },
    /// One span on a source's lane.
    Source { span: SourceSpan, endpoint: String, start: Duration, end: Duration, rows: u64 },
    /// The event queue's pending count changed (the queue keeps no clock,
    /// so this one event has no time).
    QueueDepth(u64),
    /// Answer number `n` left the engine at `time`.
    Answer { time: Duration, n: u64 },
}

/// The session's bounded ring of lifecycle events.
#[derive(Debug)]
struct Ring {
    events: VecDeque<FleetEvent>,
    capacity: usize,
    /// The next sequence number; it keeps counting past evictions.
    seq: u64,
    dropped: u64,
    jobs: Vec<JobMeta>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring { events: VecDeque::new(), capacity, seq: 0, dropped: 0, jobs: Vec::new() }
    }

    fn push(&mut self, time: Duration, job: u32, kind: FleetEventKind) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(FleetEvent { seq: self.seq, time, job, kind });
        self.seq += 1;
    }
}

/// A poisoned lock is recovered: every update behind these locks is one
/// push or one counter bump, so the data is valid at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine's session handle: the ring, when [`PlanConfig::recorder`]
/// keeps lifecycle events, and whether queries keep their detail
/// ([`PlanConfig::tracing`]).
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    ring: Option<Arc<Mutex<Ring>>>,
    detail: bool,
}

impl Recorder {
    /// The recorder `config` asks for.
    pub(crate) fn new(config: &PlanConfig) -> Self {
        let mut recorder = Recorder::default();
        recorder.configure(config);
        recorder
    }

    /// Follows a configuration change: switching the ring on starts a
    /// fresh recording and switching it off drops it; a ring left on keeps
    /// recording across the change.
    pub(crate) fn configure(&mut self, config: &PlanConfig) {
        if config.recorder != self.ring.is_some() {
            self.ring = config
                .recorder
                .then(|| Arc::new(Mutex::new(Ring::new(DEFAULT_RING_CAPACITY))));
        }
        self.detail = config.tracing;
    }

    /// Snapshot of the ring, when one is kept.
    pub(crate) fn snapshot(&self) -> Option<FlightRecording> {
        let ring = lock(self.ring.as_ref()?);
        Some(FlightRecording {
            events: ring.events.iter().cloned().collect(),
            jobs: ring.jobs.clone(),
            dropped: ring.dropped,
            capacity: ring.capacity,
        })
    }

    /// Opens the handle of `client`'s query `label` running `planned` under
    /// `deadline` (relative to its arrival). When a ring is kept, the
    /// completion reports each service leaf's actual rows. When nothing is
    /// kept, nothing — not even the node table — is built.
    pub(crate) fn begin_query(
        &self,
        client: usize,
        label: &str,
        planned: &PlannedQuery,
        deadline: Option<Duration>,
    ) -> QueryObs {
        if self.ring.is_none() && !self.detail {
            return QueryObs::default();
        }
        let job = self.ring.as_ref().map_or(NO_JOB, |ring| {
            let mut ring = lock(ring);
            ring.jobs.push(JobMeta::new(client, label, planned.report.strategy.label(), deadline));
            ring.jobs.len() as u32 - 1
        });
        QueryObs(Some(Arc::new(Query {
            ring: self.ring.clone(),
            detail: self.detail,
            job,
            source_rows: self.ring.is_some(),
            report: planned.report.clone(),
            state: Mutex::new(QueryState {
                events: Vec::new(),
                nodes: plan_nodes(&planned.plan),
            }),
        })))
    }

    /// The handle of links that many queries share (the serve loop's):
    /// their attempts are fleet-level events, kept in the ring only.
    pub(crate) fn fleet(&self) -> QueryObs {
        QueryObs(self.ring.as_ref().map(|ring| {
            Arc::new(Query {
                ring: Some(Arc::clone(ring)),
                detail: false,
                job: NO_JOB,
                source_rows: false,
                report: PlanReport::default(),
                state: Mutex::default(),
            })
        }))
    }
}

/// One query's recorder state, shared by its handle, its node wrappers
/// and — as their observer — its links and event queue.
#[derive(Debug)]
struct Query {
    ring: Option<Arc<Mutex<Ring>>>,
    /// Keep the detail events ([`PlanConfig::tracing`]).
    detail: bool,
    job: u32,
    /// The ring keeps each service leaf's rows at completion.
    source_rows: bool,
    report: PlanReport,
    state: Mutex<QueryState>,
}

#[derive(Debug, Default)]
struct QueryState {
    /// The kept detail events, in hook order.
    events: Vec<Event>,
    /// The plan's node table (pre-order, the node ids `build_operator`
    /// assigns), actuals live.
    nodes: Vec<NodeReport>,
}

impl Query {
    /// Appends the lifecycle event `kind` builds to the ring under `job`,
    /// when a ring is kept; only ring events take sequence numbers.
    fn life(&self, time: Duration, job: u32, kind: impl FnOnce() -> FleetEventKind) {
        if let Some(ring) = &self.ring {
            lock(ring).push(time, job, kind());
        }
    }

    /// Appends the detail event `event` builds, when the query keeps its
    /// detail.
    fn detail(&self, event: impl FnOnce() -> Event) {
        if self.detail {
            lock(&self.state).events.push(event());
        }
    }

    /// Whether plan node `node`'s actuals are read: every node's by the
    /// detail, only the service leaves' by the ring's `source-rows`.
    fn tracks(&self, node: usize) -> bool {
        let service = || lock(&self.state).nodes.get(node).is_some_and(|n| n.service);
        self.detail || (self.source_rows && service())
    }
}

impl NetObserver for Query {
    fn on_transfer(
        &self,
        link: &str,
        rows: usize,
        start: Duration,
        end: Duration,
        fault: Option<LinkFault>,
    ) {
        // A link attempt is a fleet-level event in the ring and a span in
        // the detail.
        let (rows, faulted) = (rows as u64, fault.is_some());
        let fleet = || FleetEventKind::Transfer { link: link.to_string(), rows, faulted };
        self.life(end, NO_JOB, fleet);
        self.detail(|| Event::Transfer { link: link.to_string(), rows, start, end, fault });
    }

    fn on_queue_depth(&self, depth: usize) {
        self.detail(|| Event::QueueDepth(depth as u64));
    }
}

/// A query's handle on the recorder: `None` (the default) when nothing is
/// kept, making every hook one branch.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueryObs(Option<Arc<Query>>);

impl QueryObs {
    /// The handle as the observer of the query's links, when it has one.
    pub(crate) fn net_observer(&self) -> Option<Arc<dyn NetObserver>> {
        self.0.clone().map(|q| q as Arc<dyn NetObserver>)
    }

    /// The handle as the observer of the query's event queue: only the
    /// detail keeps queue depths.
    pub(crate) fn queue_observer(&self) -> Option<Arc<dyn NetObserver>> {
        let q = self.0.as_ref().filter(|q| q.detail)?;
        Some(Arc::clone(q) as Arc<dyn NetObserver>)
    }

    fn life(&self, time: Duration, kind: impl FnOnce() -> FleetEventKind) {
        if let Some(q) = &self.0 {
            q.life(time, q.job, kind);
        }
    }

    fn detail(&self, event: impl FnOnce() -> Event) {
        if let Some(q) = &self.0 {
            q.detail(event);
        }
    }

    /// Records the query's arrival at `arrival`, its admission at `now`
    /// and what the planner did (`cached`: the plan is a cache replay).
    pub(crate) fn admit(&self, arrival: Duration, now: Duration, cached: bool) {
        let Some(q) = &self.0 else { return };
        let r = &q.report;
        self.life(arrival, || FleetEventKind::Submit);
        self.life(now, || FleetEventKind::Admit { queued: now.saturating_sub(arrival) });
        self.life(now, || FleetEventKind::Plan {
            plans_costed: r.plans_costed,
            bind_joins: r.bind_joins,
            estimated_rows: r.estimated_rows,
            cached,
            fingerprint: r.fingerprint,
        });
    }

    /// Records a retry against `endpoint` after failed attempt `attempt`
    /// (0-based).
    pub(crate) fn retry(&self, now: Duration, endpoint: &str, attempt: u32) {
        self.life(now, || FleetEventKind::Retry { endpoint: endpoint.to_string(), attempt });
    }

    /// Records a mid-query failover of `logical` from endpoint `from` to `to`.
    pub(crate) fn failover(&self, now: Duration, logical: &str, from: &str, to: &str) {
        self.life(now, || FleetEventKind::Failover {
            logical: logical.to_string(),
            from: from.to_string(),
            to: to.to_string(),
        });
    }

    /// Records that the query's deadline fired at `now`.
    pub(crate) fn deadline_hit(&self, now: Duration) {
        self.life(now, || FleetEventKind::Deadline);
    }

    /// Records a span on `endpoint`'s lane over `[start, end]`.
    pub(crate) fn source_span(
        &self,
        span: SourceSpan,
        endpoint: &str,
        start: Duration,
        end: Duration,
        rows: u64,
    ) {
        self.detail(|| Event::Source { span, endpoint: endpoint.to_string(), start, end, rows });
    }

    /// Records one answer at `now` into the Figure 2 answer trace and the
    /// recorder (the answer, and for the first the first-row event), so
    /// the two cannot drift apart.
    pub(crate) fn answer(&self, trace: &mut AnswerTrace, now: Duration) {
        trace.record(now);
        let n = trace.count();
        if n == 1 {
            self.life(now, || FleetEventKind::FirstRow);
        }
        self.detail(|| Event::Answer { time: now, n });
    }

    /// Closes the query at `now`: each service leaf's actual rows (when the
    /// handle reports them), then the completion. Call exactly once.
    pub(crate) fn complete(
        &self,
        now: Duration,
        outcome: CompletionKind,
        latency: Duration,
        rows: u64,
    ) {
        let Some(q) = &self.0 else { return };
        if q.source_rows {
            let services: Vec<(String, f64, u64)> = lock(&q.state)
                .nodes
                .iter()
                .filter(|n| n.service)
                .map(|n| (n.source.clone().unwrap_or_default(), n.estimated, n.rows_out))
                .collect();
            for (source, estimated, rows) in services {
                self.life(now, || FleetEventKind::SourceRows { source, estimated, rows });
            }
        }
        let estimated_rows = q.report.estimated_rows;
        self.life(now, || FleetEventKind::Complete { outcome, latency, estimated_rows, rows });
    }

    /// The query's trace report, when its detail is kept: see
    /// [`TraceReport::fold`].
    pub(crate) fn trace_report(
        &self,
        links: &HashMap<String, Arc<Link>>,
        stats: &FedStats,
    ) -> Option<TraceReport> {
        let q = self.0.as_ref().filter(|q| q.detail)?;
        let state = lock(&q.state);
        Some(TraceReport::fold(&state.events, &state.nodes, &q.report, links, stats))
    }

    /// `op` inside the node wrapper of plan node `node` when its actuals
    /// are read, else `op` itself.
    pub(crate) fn wrap<'a>(&self, node: u32, op: BoxedOp<'a>) -> BoxedOp<'a> {
        let node = node as usize;
        match &self.0 {
            Some(q) if q.tracks(node) => Box::new(NodeOp { inner: op, node, query: Arc::clone(q) }),
            _ => op,
        }
    }
}

/// The one node wrapper, around every operator whose actuals are read: it
/// counts the node's rows and notes its first emit and its exhaustion in
/// the query's node table.
struct NodeOp<'a> {
    inner: BoxedOp<'a>,
    node: usize,
    query: Arc<Query>,
}

impl FedOp for NodeOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        let polled = self.inner.poll_next(ctx)?;
        let ready = match polled {
            Poll::Ready(_) => true,
            Poll::Done => false,
            Poll::Pending(_) => return Ok(polled),
        };
        let now = ctx.clock.now();
        if let Some(node) = lock(&self.query.state).nodes.get_mut(self.node) {
            if ready {
                node.rows_out += 1;
                node.first.get_or_insert(now);
            } else {
                node.done.get_or_insert(now);
            }
        }
        Ok(polled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataLake, DataSource, FederatedEngine};
    use fedlake_rdf::{Graph, Term};

    /// A planned one-service query.
    fn planned() -> PlannedQuery {
        let mut g = Graph::new();
        let (gene, a) = (Term::iri("http://ex/g1"), Term::iri(fedlake_rdf::vocab::rdf::TYPE));
        g.insert_terms(gene.clone(), a, Term::iri("http://ex/Gene"));
        g.insert_terms(gene, Term::iri("http://ex/label"), Term::literal("x"));
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("genes", g));
        let engine = FederatedEngine::new(lake, PlanConfig::default());
        let sparql = "SELECT ?l WHERE { ?g a <http://ex/Gene> . ?g <http://ex/label> ?l }";
        let ast = fedlake_sparql::parser::parse_query(sparql);
        engine.plan(&ast.unwrap()).unwrap()
    }

    fn recorder(ring: Option<usize>, detail: bool) -> Recorder {
        Recorder { ring: ring.map(|c| Arc::new(Mutex::new(Ring::new(c)))), detail }
    }

    #[test]
    fn a_recorder_that_keeps_nothing_hands_out_inert_handles() {
        let rec = Recorder::new(&PlanConfig::default());
        assert!(rec.snapshot().is_none());
        let q = rec.begin_query(0, "Q1[x]", &planned(), None);
        assert!(q.0.is_none() && rec.fleet().0.is_none());
        assert!(q.net_observer().is_none());
        let mut trace = AnswerTrace::new();
        q.answer(&mut trace, Duration::from_millis(1));
        assert_eq!(trace.count(), 1, "the answer trace still records");
        q.complete(Duration::ZERO, CompletionKind::Ok, Duration::ZERO, 1);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let rec = recorder(Some(4), false);
        let q = rec.begin_query(0, "Q1[x]", &planned(), None);
        for i in 0..10 {
            q.retry(Duration::from_nanos(i), "chebi", 0);
        }
        let snap = rec.snapshot().unwrap();
        assert_eq!((snap.events.len(), snap.dropped, snap.capacity), (4, 6, 4));
        // The retained tail keeps its sequence numbers.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn lifecycle_events_carry_job_metadata_and_service_rows() {
        let rec = recorder(Some(DEFAULT_RING_CAPACITY), false);
        let planned = planned();
        let q = rec.begin_query(3, "Q2[cat-7]", &planned, Some(Duration::from_millis(5)));
        q.admit(Duration::from_nanos(1), Duration::from_nanos(2), true);
        q.answer(&mut AnswerTrace::new(), Duration::from_nanos(3));
        q.complete(Duration::from_nanos(9), CompletionKind::Ok, Duration::from_nanos(8), 1);

        let snap = rec.snapshot().unwrap();
        let meta = snap.meta(0).unwrap();
        assert_eq!((meta.client, meta.template.as_str()), (3, "Q2"));
        assert_eq!(meta.strategy, planned.report.strategy.label());
        let kinds = |job| snap.events_for(job).map(|e| e.kind.name()).collect::<Vec<_>>();
        assert_eq!(kinds(0), ["submit", "admit", "plan", "first-row", "source-rows", "complete"]);
        assert_eq!(snap.events[1].kind, FleetEventKind::Admit { queued: Duration::from_nanos(1) });
        assert!(snap.meta(NO_JOB).is_none());
    }

    #[test]
    fn detail_takes_no_sequence_numbers() {
        let run = |detail: bool| {
            let rec = recorder(Some(DEFAULT_RING_CAPACITY), detail);
            let q = rec.begin_query(0, "Q1[x]", &planned(), None);
            let obs = q.net_observer().unwrap();
            let ms = Duration::from_millis;
            obs.on_transfer("chebi#r1", 5, ms(1), ms(2), None);
            obs.on_queue_depth(2);
            obs.on_transfer("chebi#r1", 0, ms(2), ms(2), Some(LinkFault::Dropped));
            q.source_span(SourceSpan::Backoff { attempt: 0 }, "chebi#r1", ms(2), ms(3), 0);
            q.retry(ms(3), "chebi#r1", 0);
            let kept = lock(&q.0.as_ref().unwrap().state).events.len();
            (rec.snapshot().unwrap(), kept)
        };
        let ((with, kept), (without, none)) = (run(true), run(false));
        assert_eq!(with, without, "keeping the detail moves no ring event");
        assert_eq!((kept, none), (4, 0));
        let transfers: Vec<_> = with.events.iter().filter(|e| e.job == NO_JOB).collect();
        assert_eq!(transfers.len(), 2);
        assert_eq!(
            transfers[1].kind,
            FleetEventKind::Transfer { link: "chebi#r1".into(), rows: 0, faulted: true }
        );
    }
}
