//! The fleet flight recorder: a bounded, deterministic ring of
//! structured query-lifecycle events.
//!
//! Where the span recorder ([`crate::obs::span`]) captures one execution
//! in depth, the flight recorder captures *every* query the engine runs —
//! solo executions, reference re-executions and whole serve runs — as a
//! flat sequence of [`FleetEvent`]s (submit / admit / plan / first-row /
//! retry / failover / deadline / complete), each stamped with the
//! simulated time and a recorder-assigned sequence number. The ring is
//! bounded: when it is full the oldest event is evicted and counted in
//! [`FlightRecording::dropped`], so memory stays constant under an
//! arbitrarily long serve run.
//!
//! The determinism contract is the span recorder's, verbatim: the
//! recorder never draws randomness, never advances any clock, and every
//! record call happens at a point the unrecorded execution reaches anyway
//! — so enabling it cannot perturb answers, stats, or RNG streams.
//! Disabled, both handles are a `None` and every hook is one branch.
//!
//! Consumers: the SLO/anomaly watchdog ([`crate::obs::watchdog`]) folds a
//! [`FlightRecording`] into windowed rollups, and the serve timeline
//! exporters ([`crate::obs::export`]) render it as a Chrome trace / HTML
//! with one lane per client and per link.

use crate::fedplan::FedPlan;
use crate::operators::{BoxedOp, ExecCtx, FedOp, Poll};
use crate::planner::PlanReport;
use fedlake_netsim::{LinkFault, NetObserver};
use fedlake_sparql::binding::SlotRow;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Default event capacity of the ring (see [`FlightRecorder::bounded`]).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// The job id carried by events not attributable to one query (link-level
/// transfers observed on a shared serve link map).
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
    pub fn name(self) -> &'static str {
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
        /// The plan was replayed from the normalized plan cache.
        cached: bool,
        /// Stable logical-plan fingerprint (see [`crate::ir`]).
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

/// Static metadata of one recorded query, registered at
/// [`FlightRecorder::begin_query`] and joined to events by job id.
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

#[derive(Debug, Clone)]
struct ServiceSlot {
    source: String,
    estimated: f64,
    rows: u64,
}

#[derive(Debug, Default)]
struct RecorderState {
    ring: VecDeque<FleetEvent>,
    capacity: usize,
    seq: u64,
    dropped: u64,
    jobs: Vec<JobMeta>,
}

impl RecorderState {
    fn push(&mut self, time: Duration, job: u32, kind: FleetEventKind) {
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.ring.push_back(FleetEvent { seq, time, job, kind });
    }
}

/// The shared state behind an enabled recorder. Implements
/// [`NetObserver`] so shared serve links report their transfers into the
/// same event stream (as [`NO_JOB`] fleet events).
#[derive(Debug)]
pub struct RecorderShared {
    state: Mutex<RecorderState>,
}

impl RecorderShared {
    fn lock(&self) -> MutexGuard<'_, RecorderState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl NetObserver for RecorderShared {
    fn on_transfer(
        &self,
        link: &str,
        rows: usize,
        _start: Duration,
        end: Duration,
        fault: Option<LinkFault>,
    ) {
        let mut st = self.lock();
        st.push(
            end,
            NO_JOB,
            FleetEventKind::Transfer {
                link: link.to_string(),
                rows: rows as u64,
                faulted: fault.is_some(),
            },
        );
    }
    // `on_failover` keeps the trait's no-op default: failovers are
    // recorded with query attribution through the per-query handle, so a
    // link-level record here would double-count them.
}

/// Everything the recorder captured, snapshot by
/// [`FlightRecorder::recording`].
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

impl FlightRecording {
    /// The metadata of `job`, when it is a real query id.
    pub fn meta(&self, job: u32) -> Option<&JobMeta> {
        if job == NO_JOB {
            return None;
        }
        self.jobs.get(job as usize)
    }

    /// The retained events of one query, in order.
    pub fn events_for(&self, job: u32) -> impl Iterator<Item = &FleetEvent> {
        self.events.iter().filter(move |e| e.job == job)
    }
}

/// A cloneable handle to the flight recorder — `None` when recording is
/// disabled, making every hook a single branch on the hot path.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder(Option<Arc<RecorderShared>>);

impl FlightRecorder {
    /// The no-op recorder (the default).
    pub fn disabled() -> Self {
        FlightRecorder(None)
    }

    /// A recording ring holding at most `capacity` events (min 1).
    pub fn bounded(capacity: usize) -> Self {
        FlightRecorder(Some(Arc::new(RecorderShared {
            state: Mutex::new(RecorderState {
                capacity: capacity.max(1),
                ..RecorderState::default()
            }),
        })))
    }

    /// A recording ring with the default capacity.
    pub fn recording() -> Self {
        Self::bounded(DEFAULT_RING_CAPACITY)
    }

    /// True when this recorder records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The recorder as a netsim observer, for attaching to links.
    pub fn net_observer(&self) -> Option<Arc<dyn NetObserver>> {
        self.0.clone().map(|s| s as Arc<dyn NetObserver>)
    }

    /// Registers one query and returns its per-query handle. `services`
    /// builds the plan's service-leaf table in pre-order (see
    /// [`service_estimates`]) and is only called when recording is on, so
    /// a disabled recorder never pays for the table; `Vec::new` skips
    /// per-source actuals (the reference executor does).
    pub fn begin_query(
        &self,
        client: usize,
        label: &str,
        strategy: &'static str,
        deadline: Option<Duration>,
        services: impl FnOnce() -> Vec<(String, f64)>,
    ) -> QueryRecorder {
        let Some(sh) = &self.0 else { return QueryRecorder(None) };
        let template = label.split('[').next().unwrap_or(label).to_string();
        let job = {
            let mut st = sh.lock();
            let job = st.jobs.len() as u32;
            st.jobs.push(JobMeta {
                client,
                label: label.to_string(),
                template,
                strategy,
                deadline,
            });
            job
        };
        QueryRecorder(Some(Arc::new(QueryShared {
            rec: Arc::clone(sh),
            job,
            services: Mutex::new(ServiceState {
                slots: services()
                    .into_iter()
                    .map(|(source, estimated)| ServiceSlot { source, estimated, rows: 0 })
                    .collect(),
                cursor: 0,
            }),
        })))
    }

    /// Snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Option<FlightRecording> {
        let sh = self.0.as_ref()?;
        let st = sh.lock();
        Some(FlightRecording {
            events: st.ring.iter().cloned().collect(),
            jobs: st.jobs.clone(),
            dropped: st.dropped,
            capacity: st.capacity,
        })
    }
}

#[derive(Debug)]
struct ServiceState {
    slots: Vec<ServiceSlot>,
    /// Next slot [`RecordServiceOp`] installation claims (pre-order).
    cursor: usize,
}

#[derive(Debug)]
struct QueryShared {
    rec: Arc<RecorderShared>,
    job: u32,
    services: Mutex<ServiceState>,
}

impl QueryShared {
    fn push(&self, time: Duration, kind: FleetEventKind) {
        self.rec.lock().push(time, self.job, kind);
    }
}

/// A cloneable per-query handle: lifecycle events recorded through it
/// carry the query's job id. `None` (the default) when recording is
/// disabled — every hook is one branch.
#[derive(Debug, Clone, Default)]
pub struct QueryRecorder(Option<Arc<QueryShared>>);

impl QueryRecorder {
    /// The no-op handle (the default).
    pub fn disabled() -> Self {
        QueryRecorder(None)
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The recorder-assigned job id, when recording.
    pub fn job(&self) -> Option<u32> {
        self.0.as_ref().map(|q| q.job)
    }

    /// Records the query's arrival at `at`.
    pub fn submit(&self, at: Duration) {
        let Some(q) = &self.0 else { return };
        q.push(at, FleetEventKind::Submit);
    }

    /// Records admission at `now` after `queued` in the FIFO.
    pub fn admit(&self, now: Duration, queued: Duration) {
        let Some(q) = &self.0 else { return };
        q.push(now, FleetEventKind::Admit { queued });
    }

    /// Records the planner's report and root cardinality estimate, plus
    /// whether the plan was a cache replay.
    pub fn plan(&self, now: Duration, report: &PlanReport, estimated_rows: f64, cached: bool) {
        let Some(q) = &self.0 else { return };
        q.push(
            now,
            FleetEventKind::Plan {
                plans_costed: report.plans_costed,
                bind_joins: report.bind_joins,
                estimated_rows,
                cached,
                fingerprint: report.fingerprint,
            },
        );
    }

    /// Records the first answer row at `now`.
    pub fn first_row(&self, now: Duration) {
        let Some(q) = &self.0 else { return };
        q.push(now, FleetEventKind::FirstRow);
    }

    /// Records a wrapper retry against `endpoint` after failed attempt
    /// `attempt` (0-based).
    pub fn retry(&self, now: Duration, endpoint: &str, attempt: u32) {
        let Some(q) = &self.0 else { return };
        q.push(
            now,
            FleetEventKind::Retry { endpoint: endpoint.to_string(), attempt },
        );
    }

    /// Records a mid-query replica failover.
    pub fn failover(&self, now: Duration, logical: &str, from: &str, to: &str) {
        let Some(q) = &self.0 else { return };
        q.push(
            now,
            FleetEventKind::Failover {
                logical: logical.to_string(),
                from: from.to_string(),
                to: to.to_string(),
            },
        );
    }

    /// Records that the query's deadline fired at `now`.
    pub fn deadline_hit(&self, now: Duration) {
        let Some(q) = &self.0 else { return };
        q.push(now, FleetEventKind::Deadline);
    }

    /// Claims the next service-leaf slot (plan pre-order) for a
    /// [`RecordServiceOp`] installation.
    fn next_service_slot(&self) -> usize {
        let Some(q) = &self.0 else { return 0 };
        let mut sv = q.services.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let slot = sv.cursor;
        sv.cursor += 1;
        slot
    }

    /// Adds `n` actually-emitted rows to service slot `slot`.
    fn service_rows(&self, slot: usize, n: u64) {
        let Some(q) = &self.0 else { return };
        let mut sv = q.services.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(s) = sv.slots.get_mut(slot) {
            s.rows += n;
        }
    }

    /// Test hook: credits rows to a service slot without running an
    /// operator tree.
    #[cfg(test)]
    pub(crate) fn debug_service_rows(&self, slot: usize, n: u64) {
        self.service_rows(slot, n);
    }

    /// Flushes per-service actuals and records completion. Call exactly
    /// once, when the query's outcome is final.
    pub fn complete(
        &self,
        now: Duration,
        outcome: CompletionKind,
        latency: Duration,
        estimated_rows: f64,
        rows: u64,
    ) {
        let Some(q) = &self.0 else { return };
        let slots: Vec<ServiceSlot> = {
            let sv = q.services.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            sv.slots.clone()
        };
        for s in slots {
            q.push(
                now,
                FleetEventKind::SourceRows {
                    source: s.source,
                    estimated: s.estimated,
                    rows: s.rows,
                },
            );
        }
        q.push(
            now,
            FleetEventKind::Complete { outcome, latency, estimated_rows, rows },
        );
    }
}

/// The plan's service-leaf table in the exact pre-order
/// [`crate::FederatedEngine`] builds (and the recorder wraps) service
/// operators: join/left-join recurse left then right, bind joins recurse
/// the left input only (the right side executes as bound requests, not a
/// leaf), unions recurse branches in order.
pub fn service_estimates(plan: &FedPlan) -> Vec<(String, f64)> {
    fn walk(plan: &FedPlan, out: &mut Vec<(String, f64)>) {
        match plan {
            FedPlan::Service(node) => {
                out.push((node.source_id.clone(), node.estimated_rows))
            }
            FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            FedPlan::BindJoin { left, .. } => walk(left, out),
            FedPlan::Filter { input, .. } => walk(input, out),
            FedPlan::Union(branches) => {
                for b in branches {
                    walk(b, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// Wraps a service-leaf operator to count its emitted rows into the
/// query's service slot. Only installed when recording is enabled, so the
/// disabled path pays nothing — the exact [`crate::obs::span::SpanOp`]
/// contract.
pub(crate) struct RecordServiceOp<'a> {
    inner: BoxedOp<'a>,
    slot: usize,
    qrec: QueryRecorder,
}

impl<'a> RecordServiceOp<'a> {
    /// Wraps `inner`, claiming the next pre-order service slot.
    pub(crate) fn new(inner: BoxedOp<'a>, qrec: &QueryRecorder) -> Self {
        RecordServiceOp { inner, slot: qrec.next_service_slot(), qrec: qrec.clone() }
    }
}

impl FedOp for RecordServiceOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, crate::error::FedError> {
        let r = self.inner.poll_next(ctx)?;
        if matches!(r, Poll::Ready(_)) {
            self.qrec.service_rows(self.slot, 1);
        }
        Ok(r)
    }
}

/// Forwards network observations to both the trace recorder and the
/// flight recorder when both are attached to one link. Deterministic:
/// observers are invoked in construction order and only mutate their own
/// state.
#[derive(Debug)]
pub(crate) struct FanoutObserver(pub(crate) Vec<Arc<dyn NetObserver>>);

impl NetObserver for FanoutObserver {
    fn on_transfer(
        &self,
        link: &str,
        rows: usize,
        start: Duration,
        end: Duration,
        fault: Option<LinkFault>,
    ) {
        for obs in &self.0 {
            obs.on_transfer(link, rows, start, end, fault);
        }
    }

    fn on_queue_depth(&self, depth: usize) {
        for obs in &self.0 {
            obs.on_queue_depth(depth);
        }
    }

    fn on_failover(&self, logical: &str, from: &str, to: &str) {
        for obs in &self.0 {
            obs.on_failover(logical, from, to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.is_enabled());
        assert!(rec.net_observer().is_none());
        assert!(rec.snapshot().is_none());
        // The disabled path pays nothing: the service table is never built.
        let q = rec.begin_query(0, "Q1[x]", "heuristic", None, || {
            unreachable!("a disabled recorder must not build the service table")
        });
        assert!(!q.is_enabled());
        assert_eq!(q.job(), None);
        q.submit(Duration::ZERO);
        q.first_row(Duration::ZERO);
        q.complete(Duration::ZERO, CompletionKind::Ok, Duration::ZERO, 1.0, 1);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let rec = FlightRecorder::bounded(4);
        let q = rec.begin_query(0, "Q1[x]", "heuristic", None, Vec::new);
        for i in 0..10 {
            q.retry(Duration::from_nanos(i), "chebi", 0);
        }
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.capacity, 4);
        // The retained tail keeps its sequence numbers.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn lifecycle_events_carry_job_metadata() {
        let rec = FlightRecorder::recording();
        let q = rec.begin_query(
            3,
            "Q2[cat-7]",
            "dp",
            Some(Duration::from_millis(5)),
            || vec![("chebi".into(), 10.0)],
        );
        q.submit(Duration::from_nanos(1));
        q.admit(Duration::from_nanos(2), Duration::from_nanos(1));
        q.first_row(Duration::from_nanos(3));
        q.complete(
            Duration::from_nanos(9),
            CompletionKind::Ok,
            Duration::from_nanos(8),
            12.0,
            11,
        );
        let snap = rec.snapshot().unwrap();
        let job = q.job().unwrap();
        let meta = snap.meta(job).unwrap();
        assert_eq!(meta.template, "Q2");
        assert_eq!(meta.client, 3);
        assert_eq!(meta.strategy, "dp");
        let kinds: Vec<&'static str> =
            snap.events_for(job).map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec!["submit", "admit", "first-row", "source-rows", "complete"]
        );
        assert!(snap.meta(NO_JOB).is_none());
    }

    #[test]
    fn net_observer_records_fleet_transfers() {
        let rec = FlightRecorder::recording();
        let obs = rec.net_observer().unwrap();
        obs.on_transfer("chebi#r1", 5, Duration::ZERO, Duration::from_nanos(7), None);
        obs.on_transfer(
            "chebi#r1",
            0,
            Duration::from_nanos(7),
            Duration::from_nanos(8),
            Some(LinkFault::Dropped),
        );
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].job, NO_JOB);
        assert_eq!(
            snap.events[0].kind,
            FleetEventKind::Transfer { link: "chebi#r1".into(), rows: 5, faulted: false }
        );
        assert_eq!(
            snap.events[1].kind,
            FleetEventKind::Transfer { link: "chebi#r1".into(), rows: 0, faulted: true }
        );
    }
}
