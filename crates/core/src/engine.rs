//! The federated engine: planning + streaming execution + measurement.

use crate::config::PlanConfig;
use crate::error::FedError;
use crate::fedplan::FedPlan;
use crate::health::{HealthView, SourceHealth};
use crate::lake::DataLake;
use crate::operators::{
    BoxedOp, DistinctOp, ExecCtx, FilterOp, LeftHashJoin, Poll, ProjectOp, SymHashJoin, UnionOp,
};
use crate::planner::{plan_query_with_health, PlannedQuery};
use crate::trace::AnswerTrace;
use crate::wrapper::{links_for, open_leaf, route_for, source_failures, total_traffic, LiftPlan};
use fedlake_netsim::clock::shared_virtual;
use fedlake_netsim::{DelayTapes, Link, TapeStats};
use fedlake_rdf::SharedInterner;
use fedlake_relational::cache::CacheStats;
use fedlake_sparql::ast::SelectQuery;
use fedlake_sparql::binding::{decode_row, Row, RowId, RowSchema, Var};
use fedlake_sparql::eval::sort_rows;
use fedlake_sparql::parser::parse_query;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Measurements of one federated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FedStats {
    /// Plan label (`unaware`, `aware`, `aware(h1)`, …).
    pub plan_label: String,
    /// Network setting name.
    pub network: &'static str,
    /// Total (simulated) execution time.
    pub execution_time: Duration,
    /// Time of the first answer, when any.
    pub first_answer: Option<Duration>,
    /// Answers produced.
    pub answers: u64,
    /// Messages that crossed the wrapper links.
    pub messages: u64,
    /// Rows transferred across links (the intermediate-result size).
    pub rows_transferred: u64,
    /// Total injected network delay.
    pub network_delay: Duration,
    /// SQL queries sent to sources.
    pub sql_queries: u64,
    /// Engine-level filter evaluations.
    pub engine_filter_evals: u64,
    /// Engine-level join probes.
    pub engine_join_probes: u64,
    /// Requests sent to sources (service leaves).
    pub services: usize,
    /// Engine-level operators in the plan.
    pub engine_operators: usize,
    /// Services carrying a pushed-down (merged) join.
    pub merged_services: usize,
    /// Link-message retries issued by the wrapper streams.
    pub retries: u64,
    /// Faulted link attempts per source (drops + truncations + outage
    /// hits); empty on a fault-free run.
    pub source_failures: BTreeMap<String, u64>,
    /// The query degraded: a source became unavailable (or the deadline
    /// fired) and, with [`crate::config::PlanConfig::degraded_ok`] set,
    /// the answers are the partial set produced up to that point.
    pub degraded: bool,
}

impl FedStats {
    /// Assembles the statistics of one execution. When tracing is on, the
    /// trace report mirrors every field into its metrics registry, where
    /// the reconciliation tests compare them against the recorded spans.
    pub(crate) fn assemble(
        config: &PlanConfig,
        planned: &PlannedQuery,
        links: &HashMap<String, Arc<Link>>,
        engine_stats: &crate::operators::EngineStats,
        trace: &AnswerTrace,
        answers: u64,
        degraded: bool,
    ) -> FedStats {
        let (messages, rows_transferred, network_delay) = total_traffic(links);
        FedStats {
            plan_label: config.mode.label(),
            network: config.network.name,
            execution_time: trace.total_time(),
            first_answer: trace.first_answer(),
            answers,
            messages,
            rows_transferred,
            network_delay,
            sql_queries: engine_stats.sql_queries,
            engine_filter_evals: engine_stats.engine_filter_evals,
            engine_join_probes: engine_stats.engine_join_probes,
            services: planned.plan.service_count(),
            engine_operators: planned.plan.engine_operator_count(),
            merged_services: planned.plan.merged_service_count(),
            retries: engine_stats.retries,
            source_failures: source_failures(links),
            degraded,
        }
    }
}

/// The result of executing one federated query.
#[derive(Debug, Clone)]
pub struct FedResult {
    /// Projected variables, in projection order (shared with the plan —
    /// no per-execution allocation).
    pub vars: Arc<[Var]>,
    /// Answer rows.
    pub rows: Vec<Row>,
    /// The answer trace (Figure 2's measurement).
    pub trace: AnswerTrace,
    /// Execution statistics.
    pub stats: FedStats,
    /// Human-readable plan (Figure 1's comparison).
    pub explain: String,
    /// The trace report, when [`PlanConfig::tracing`] was set.
    pub obs: Option<crate::obs::TraceReport>,
}

impl FedResult {
    /// The analyzed plan tree, when the run was traced.
    pub fn explain_analyze(&self) -> Option<String> {
        self.obs.as_ref().map(crate::obs::explain_analyze)
    }

    /// The Chrome trace-event JSON, when the run was traced.
    pub fn chrome_trace(&self) -> Option<String> {
        self.obs.as_ref().map(crate::obs::chrome_trace)
    }
}

/// The federated SPARQL engine over a Semantic Data Lake.
#[derive(Debug)]
pub struct FederatedEngine {
    lake: DataLake,
    config: PlanConfig,
    /// Per-source fault overrides layered over `config.faults` (which
    /// stays the uniform default so [`PlanConfig`] remains `Copy`).
    fault_overrides: BTreeMap<String, fedlake_netsim::FaultPlan>,
    /// Correlated-outage groups layered over the per-source plans.
    outage_groups: Vec<fedlake_netsim::OutageGroup>,
    /// Session health registry: per-endpoint counters fed by every
    /// execution's link stats, consulted at plan time for replica routing
    /// and degraded-source demotion.
    health: SourceHealth,
    /// Session-wide term interner: shared by every execution, so term ids
    /// are stable across executions and lifted source results can be
    /// cached. Append-only — ids never change meaning once assigned.
    interner: SharedInterner,
    /// The source-result cache every one-shot leaf and bind-join batch
    /// reads on both schedules and in `serve` (paired with `interner`).
    /// Source contents *can* change underneath the engine —
    /// [`FederatedEngine::lake_mut`] — so entries are stamped with
    /// [`DataLake::source_version`] and checked on every lookup (see
    /// [`crate::wrapper::LiftCache`]).
    lifts: crate::wrapper::SharedLiftCache,
    /// The session's recorder: every execution and serve run of this
    /// engine opens its per-query handles here. It keeps the
    /// query-lifecycle ring under [`PlanConfig::recorder`] and each
    /// query's detail under [`PlanConfig::tracing`]; with neither, every
    /// hook is one branch.
    recorder: crate::obs::Recorder,
    /// Normalized plan cache (see [`crate::plancache`]): whole planned
    /// queries memoized behind the canonical query/config fingerprint,
    /// revalidated per lookup against the lake epoch and the relevant
    /// health inputs. Every planning call goes through it; behind a mutex
    /// so `&self` planning paths can populate it.
    plan_cache: std::sync::Mutex<crate::plancache::PlanCache>,
    /// The delays of every fault-free gamma link this engine opens, by
    /// (link seed, model): a pure function of the key, extended on demand
    /// and never stale (see [`fedlake_netsim::tape`]). Every execution and
    /// serve run reads its links' delays here instead of drawing them.
    delays: DelayTapes,
}

/// The counters of an engine's two caches, in the one vocabulary of
/// [`fedlake_relational::cache`], and what its delay tapes hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// The normalized plan cache.
    pub plan: CacheStats,
    /// The source-result cache of lifted one-shot leaves and bind-join
    /// batches — every source request the engine makes.
    pub lift: CacheStats,
    /// The links' delay tapes: extended, never looked up or invalidated,
    /// so they count what they hold.
    pub delays: TapeStats,
}

/// Failures before the planner treats an endpoint as degraded — two full
/// default retry budgets, so one unlucky message cannot demote a source.
const DEFAULT_HEALTH_THRESHOLD: u64 = 8;

/// One query in execution: its operator tree under the solution modifiers,
/// the context it runs in and what it has answered so far. The solo driver
/// and [`FederatedEngine::serve`] each open one per query, [`Session::step`]
/// it until it has finished and [`Session::finish`] it; what they keep to
/// themselves is what truly differs — whose clock and links, what to do
/// while a session waits, and whether a failure is an `Err` or one
/// outcome among many.
pub(crate) struct Session<'a> {
    planned: &'a PlannedQuery,
    op: BoxedOp<'a>,
    pub(crate) ctx: ExecCtx,
    pub(crate) trace: AnswerTrace,
    /// The answers so far: rows of `ctx.rows`, decoded in
    /// [`Session::finish`].
    answers: Vec<RowId>,
    /// When the query arrived, on the session's clock.
    arrival: Duration,
    /// [`PlanConfig::degraded_ok`]: a fault or the deadline leaves a
    /// partial answer instead of failing the query.
    degraded_ok: bool,
    /// Without ORDER BY, LIMIT can stop pulling early — the streaming
    /// behaviour ANAPSID's operators enable: the rows to stop at.
    want: Option<usize>,
    /// The answer is partial: sources were skipped at plan time, or a
    /// fault or the deadline cut it short under
    /// [`PlanConfig::degraded_ok`].
    pub(crate) degraded: bool,
    /// The failure, when the session failed hard: [`FedError::Timeout`]
    /// past its deadline, [`FedError::SourceUnavailable`] past the retry
    /// budget.
    pub(crate) error: Option<FedError>,
}

/// What one [`Session::step`] did.
pub(crate) enum Step {
    /// Recorded one more answer.
    Answered,
    /// Waiting on in-flight I/O: nothing can happen before this event.
    Pending(fedlake_netsim::EventTime),
    /// No further answer will come: the plan is exhausted, the LIMIT is
    /// reached, or the session degraded or failed.
    Finished,
}

impl<'a> Session<'a> {
    /// Opens `planned` on `engine` over `links` (whose clock is `clock`).
    /// `obs` is the query's handle on the recorder, already past its
    /// submit / admit / plan events; the query arrived at `arrival` on
    /// `clock` and `deadline` is relative to that; `serialized` asks for
    /// [`ExecCtx::serialized`], the paper's single-threaded wrapper loop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open(
        engine: &'a FederatedEngine,
        planned: &'a PlannedQuery,
        clock: &fedlake_netsim::SharedClock,
        links: &HashMap<String, Arc<Link>>,
        obs: crate::obs::QueryObs,
        arrival: Duration,
        deadline: Option<Duration>,
        serialized: bool,
    ) -> Result<Self, FedError> {
        let mut ctx = ExecCtx::new(
            Arc::clone(clock),
            engine.config.cost,
            Arc::clone(&planned.schema),
            engine.interner.clone(),
        )
        .with_lifts(Arc::clone(&engine.lifts))
        .with_retry(engine.config.retry)
        .with_deadline(deadline.map(|d| arrival + d))
        .with_obs(obs);
        if serialized {
            ctx = ctx.serialized();
        }

        let mut next_node = 0u32;
        let mut op = engine.build_operator(
            &planned.plan,
            &planned.schema,
            &planned.lifts,
            links,
            &ctx.obs,
            &mut next_node,
        )?;
        // Solution modifiers around the streaming pipeline. The projection
        // is a slot remap resolved once per execution, not per row.
        let keep = planned.schema.slots_of(&planned.projection);
        op = Box::new(ProjectOp::new(op, &keep, planned.schema.len()));
        if planned.distinct {
            op = Box::new(DistinctOp::new(op));
        }
        let unordered_limit = planned.order_by.is_empty().then_some(()).and(planned.limit);
        Ok(Session {
            planned,
            op,
            ctx,
            trace: AnswerTrace::new(),
            answers: Vec::new(),
            arrival,
            degraded_ok: engine.config.degraded_ok,
            want: unordered_limit.map(|l| l + planned.offset),
            degraded: !planned.skipped_sources.is_empty(),
            error: None,
        })
    }

    /// Checks the deadline, then polls the plan once. The deadline is
    /// cooperative: it is looked at between polls, so one pull can
    /// overshoot it before the query fails — or, under
    /// [`PlanConfig::degraded_ok`], settles for the answers it has. A
    /// source past its retry budget ends the query the same two ways. Only
    /// an internal error is an `Err`.
    pub(crate) fn step(&mut self) -> Result<Step, FedError> {
        if let Some(d) = self.ctx.deadline {
            let now = self.ctx.clock.now();
            if now >= d {
                self.ctx.obs.deadline_hit(now);
                self.fail(FedError::Timeout(d.saturating_sub(self.arrival)));
                return Ok(Step::Finished);
            }
        }
        match self.op.poll_next(&mut self.ctx) {
            Ok(Poll::Ready(row)) => {
                self.ctx.obs.answer(&mut self.trace, self.ctx.clock.now());
                self.answers.push(row);
                Ok(if self.want.is_some_and(|w| self.answers.len() >= w) {
                    Step::Finished
                } else {
                    Step::Answered
                })
            }
            Ok(Poll::Pending(ev)) => {
                // A due event must be consumed by the poll that saw it;
                // surfacing one here means an operator forgot to complete
                // it and time would stand still.
                let now = self.ctx.clock.now();
                if ev.time <= now {
                    return Err(FedError::Internal(format!(
                        "scheduler stalled: pending event at {:?} is not in the future (now {now:?})",
                        ev.time,
                    )));
                }
                Ok(Step::Pending(ev))
            }
            Ok(Poll::Done) => Ok(Step::Finished),
            Err(e @ (FedError::SourceUnavailable { .. } | FedError::Timeout(_))) => {
                self.fail(e);
                Ok(Step::Finished)
            }
            Err(e) => Err(e),
        }
    }

    /// A fault or the deadline ends the query: with the answers so far
    /// when degradation is allowed, with `e` and none otherwise.
    fn fail(&mut self, e: FedError) {
        if self.degraded_ok {
            self.degraded = true;
        } else {
            self.answers.clear();
            self.error = Some(e);
        }
    }

    /// Closes the session at the clock's time — the answer trace, then the
    /// recorder's completion event — and returns the query's
    /// result: rows take their handles on the interner's terms only here,
    /// at the API boundary, then ORDER BY, OFFSET and LIMIT apply. Empty
    /// when the session failed; an `Err` when a row holds an id the
    /// interner never assigned.
    pub(crate) fn finish(&mut self) -> Result<Vec<Row>, FedError> {
        let planned = self.planned;
        let now = self.ctx.clock.now();
        self.trace.complete(now);
        let mut rows: Vec<Row> = {
            let dict = self.ctx.interner.lock();
            self.answers
                .iter()
                .map(|&r| decode_row(&planned.schema, &dict, self.ctx.rows.row(r)))
                .collect::<Option<_>>()
                .ok_or_else(|| {
                    FedError::Internal("an answer row holds an id its interner never assigned".into())
                })?
        };
        if !planned.order_by.is_empty() {
            sort_rows(&mut rows, &planned.order_by);
        }
        if planned.offset > 0 {
            rows.drain(..planned.offset.min(rows.len()));
        }
        if let Some(l) = planned.limit {
            rows.truncate(l);
        }
        let kind = match (&self.error, self.degraded) {
            (Some(FedError::Timeout(_)), _) => crate::obs::CompletionKind::DeadlineMiss,
            (Some(_), _) => crate::obs::CompletionKind::Failed,
            (None, true) => crate::obs::CompletionKind::Degraded,
            (None, false) => crate::obs::CompletionKind::Ok,
        };
        self.ctx.obs.complete(now, kind, now.saturating_sub(self.arrival), rows.len() as u64);
        Ok(rows)
    }
}

impl FederatedEngine {
    /// Creates an engine over `lake` with `config`.
    pub fn new(lake: DataLake, config: PlanConfig) -> Self {
        FederatedEngine {
            lake,
            config,
            fault_overrides: BTreeMap::new(),
            outage_groups: Vec::new(),
            health: SourceHealth::new(),
            interner: SharedInterner::new(),
            lifts: Arc::default(),
            recorder: crate::obs::Recorder::new(&config),
            plan_cache: std::sync::Mutex::new(crate::plancache::PlanCache::new()),
            delays: DelayTapes::default(),
        }
    }

    /// Overrides the fault plan for one source id; other sources keep the
    /// uniform plan from [`PlanConfig::faults`].
    pub fn set_source_faults(
        &mut self,
        source_id: impl Into<String>,
        plan: fedlake_netsim::FaultPlan,
    ) {
        self.fault_overrides.insert(source_id.into(), plan);
    }

    /// Adds a correlated-outage group: every member endpoint (or every
    /// replica of a member logical source) goes dark over the same seeded
    /// window, on top of its own fault plan.
    pub fn add_outage_group(&mut self, group: fedlake_netsim::OutageGroup) {
        self.outage_groups.push(group);
    }

    /// The session's health registry (fed after every execution).
    pub fn health(&self) -> &SourceHealth {
        &self.health
    }

    /// The planner's view of session health.
    fn health_view(&self) -> HealthView {
        HealthView {
            endpoints: self.health.snapshot(),
            threshold: DEFAULT_HEALTH_THRESHOLD,
            generation: self.health.generation(),
        }
    }

    /// The full fault schedule: the uniform default plus any per-source
    /// overrides plus the correlated-outage groups.
    pub fn fault_plans(&self) -> fedlake_netsim::FaultPlans {
        fedlake_netsim::FaultPlans {
            default: self.config.faults,
            overrides: self.fault_overrides.clone(),
            groups: self.outage_groups.clone(),
        }
    }

    /// The lake this engine federates.
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// Mutable access to the lake — administrative data loads and the
    /// chaos/observability suites (which mutate the statistics catalog
    /// post-collection to plant mis-estimates) go through here.
    pub fn lake_mut(&mut self) -> &mut DataLake {
        &mut self.lake
    }

    /// The session-wide term interner. Every answer row this engine
    /// returns holds handles on the terms stored here — the same
    /// allocations, not copies.
    pub fn interner(&self) -> &SharedInterner {
        &self.interner
    }

    /// The active configuration.
    pub fn config(&self) -> &PlanConfig {
        &self.config
    }

    /// Replaces the configuration (e.g. to switch plan mode or network).
    /// Toggling [`PlanConfig::recorder`] starts a fresh recording (or
    /// drops the current one); an already-enabled recorder keeps
    /// recording across the switch.
    pub fn set_config(&mut self, config: PlanConfig) {
        self.recorder.configure(&config);
        // The config fingerprint already keys cache entries, so old
        // entries could never wrongly hit — but they would sit as dead
        // weight. Drop them; counters survive (engine-lifetime).
        self.plan_cache.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.config = config;
    }

    /// The session's recorder.
    pub(crate) fn recorder(&self) -> &crate::obs::Recorder {
        &self.recorder
    }

    /// Snapshot of the session's flight recording, when recording is on.
    pub fn flight_recording(&self) -> Option<crate::obs::FlightRecording> {
        self.recorder.snapshot()
    }

    /// Plans a query without executing it, consulting the session's
    /// health registry for replica routing and degraded-source demotion.
    /// A repeat query is replayed from the normalized plan cache.
    pub fn plan(&self, query: &SelectQuery) -> Result<PlannedQuery, FedError> {
        self.plan_cached(query).map(|(planned, _)| planned)
    }

    /// Like [`FederatedEngine::plan`], but also reports where the plan
    /// came from. A cache hit replays a byte-identical [`PlannedQuery`]:
    /// the origin is deliberately carried *next to* the plan, never
    /// inside it.
    pub fn plan_cached(
        &self,
        query: &SelectQuery,
    ) -> Result<(PlannedQuery, crate::plancache::PlanOrigin), FedError> {
        let view = self.health_view();
        let key = (
            crate::ir::query_fingerprint(query),
            crate::ir::config_fingerprint(&self.config),
        );
        let epoch = self.lake.epoch();
        {
            let mut cache = self.plan_cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(planned) = cache.lookup(key, epoch, view.generation, |sources| {
                crate::plancache::health_digest(&self.lake, &view, sources)
            }) {
                let fingerprint = planned.report.fingerprint;
                return Ok((
                    planned,
                    crate::plancache::PlanOrigin { cached: true, fingerprint },
                ));
            }
        }
        // Plan outside the lock: a planning failure must not poison the
        // cache, and concurrent serve jobs keep planning in parallel.
        let planned = plan_query_with_health(query, &self.lake, &self.config, &view)?;
        let sources = crate::plancache::plan_sources(&planned);
        let digest = crate::plancache::health_digest(&self.lake, &view, &sources);
        let fingerprint = planned.report.fingerprint;
        self.plan_cache.lock().unwrap_or_else(|e| e.into_inner()).insert(
            key,
            epoch,
            view.generation,
            digest,
            sources,
            planned.clone(),
        );
        Ok((planned, crate::plancache::PlanOrigin { cached: false, fingerprint }))
    }

    /// Counter snapshot of the normalized plan cache.
    pub fn plan_cache_stats(&self) -> crate::plancache::PlanCacheStats {
        self.plan_cache.lock().unwrap_or_else(|e| e.into_inner()).stats()
    }

    /// Counter snapshot of both caches — plans and lifted source results —
    /// and of the delay tapes.
    pub fn cache_stats(&self) -> EngineCacheStats {
        EngineCacheStats {
            plan: self.plan_cache.lock().unwrap_or_else(|e| e.into_inner()).cache_stats(),
            lift: self.lifts.stats(),
            delays: self.delays.stats(),
        }
    }

    /// Parses, plans and executes a SPARQL query.
    pub fn execute_sparql(&self, sparql: &str) -> Result<FedResult, FedError> {
        let query = parse_query(sparql)?;
        self.execute(&query)
    }

    /// Plans and executes a parsed query.
    pub fn execute(&self, query: &SelectQuery) -> Result<FedResult, FedError> {
        let (planned, origin) = self.plan_cached(query)?;
        self.execute_planned_with_origin(&planned, origin)
    }

    /// Executes an already-planned query.
    pub fn execute_planned(&self, planned: &PlannedQuery) -> Result<FedResult, FedError> {
        let origin = crate::plancache::PlanOrigin {
            cached: false,
            fingerprint: planned.report.fingerprint,
        };
        self.execute_planned_with_origin(planned, origin)
    }

    /// Executes an already-planned query, annotating the recorder event
    /// and EXPLAIN with where the plan came from. The plan's execution is
    /// byte-identical either way.
    fn execute_planned_with_origin(
        &self,
        planned: &PlannedQuery,
        origin: crate::plancache::PlanOrigin,
    ) -> Result<FedResult, FedError> {
        let clock = shared_virtual();
        // A solo query is client 0, submitted and admitted at simulated
        // time zero; its handle observes its links.
        let obs = self.recorder.begin_query(0, "adhoc", planned, self.config.deadline);
        obs.admit(Duration::ZERO, Duration::ZERO, origin.cached);
        let links = links_for(
            &self.lake,
            self.config.network,
            Arc::clone(&clock),
            self.config.cost,
            self.config.seed,
            &self.fault_plans(),
            &self.delays,
            &obs,
        );
        // The paper's single-threaded wrapper loop is a policy of the one
        // pull protocol; only this driver ever asks for it.
        let mut session = Session::open(
            self,
            planned,
            &clock,
            &links,
            obs,
            Duration::ZERO,
            self.config.deadline,
            !self.config.overlap,
        )?;
        loop {
            match session.step()? {
                Step::Answered => {}
                // Every branch is waiting on in-flight I/O: jump to the
                // next completion. The serialized policy never gets here —
                // it waits where the I/O starts.
                Step::Pending(ev) => clock.advance_to(ev.time),
                Step::Finished => break,
            }
        }
        let rows = session.finish()?;
        let Session { ctx, trace, degraded, error, .. } = session;
        if let Some(e) = error {
            return Err(e);
        }

        // Feed this execution's link counters into the session health
        // registry: the next plan() call routes around what failed here.
        self.health.record_links(&links);

        let stats = FedStats::assemble(
            &self.config,
            planned,
            &links,
            &ctx.stats,
            &trace,
            rows.len() as u64,
            degraded,
        );
        let obs = ctx.obs.trace_report(&links, &stats);
        let mut explain = crate::explain::explain_plan(&planned.plan);
        explain.push_str(&format!(
            "plan: {}[fp={:016x}]\n",
            if origin.cached { "cached" } else { "cold" },
            origin.fingerprint
        ));
        Ok(FedResult {
            vars: Arc::clone(&planned.projection),
            rows,
            trace,
            stats,
            explain,
            obs,
        })
    }

    /// The source-result cache (shared with the serve loop).
    pub(crate) fn lifts(&self) -> &crate::wrapper::SharedLiftCache {
        &self.lifts
    }

    /// The links' delay tapes (shared with the serve loop).
    pub(crate) fn delays(&self) -> &DelayTapes {
        &self.delays
    }

    // Node ids are assigned pre-order (node before children, children
    // left to right) — the same order `crate::obs::plan_nodes` walks, so a
    // trace's node `i` is line `i` of the analyzed tree and the recorder's
    // node table has one row per operator built here. `lifts` is the plan's
    // [`LiftPlan`] per node, in the same order.
    pub(crate) fn build_operator<'a>(
        &'a self,
        plan: &FedPlan,
        schema: &RowSchema,
        lifts: &'a [LiftPlan],
        links: &HashMap<String, Arc<Link>>,
        obs: &crate::obs::QueryObs,
        next_node: &mut u32,
    ) -> Result<BoxedOp<'a>, FedError> {
        let node = *next_node;
        *next_node += 1;
        let lift = lifts.get(node as usize);
        let build = |plan: &FedPlan, next_node: &mut u32| {
            self.build_operator(plan, schema, lifts, links, obs, next_node)
        };
        let op: BoxedOp<'a> = match plan {
            FedPlan::Service(node) => {
                let route = route_for(&node.source_id, &node.route, links)?;
                open_leaf(node, lift, &self.lake, route, self.config.rows_per_message)?
            }
            FedPlan::Join { left, right, on } => {
                let l = build(left, next_node)?;
                let r = build(right, next_node)?;
                Box::new(SymHashJoin::new(l, r, schema.slots_of(on)))
            }
            FedPlan::LeftJoin { left, right, on } => {
                let l = build(left, next_node)?;
                let r = build(right, next_node)?;
                Box::new(LeftHashJoin::new(l, r, schema.slots_of(on)))
            }
            FedPlan::BindJoin { left, right, batch_size } => {
                let l = build(left, next_node)?;
                let route = route_for(&right.source_id, &right.route, links)?;
                Box::new(crate::wrapper::BindJoinOp::planned(
                    l,
                    right,
                    lift,
                    &self.lake,
                    route,
                    self.config.rows_per_message,
                    *batch_size,
                )?)
            }
            FedPlan::Filter { input, exprs } => {
                let i = build(input, next_node)?;
                Box::new(FilterOp::new(i, exprs, schema))
            }
            FedPlan::Union(branches) => {
                let ops = branches
                    .iter()
                    .map(|b| build(b, next_node))
                    .collect::<Result<Vec<_>, _>>()?;
                Box::new(UnionOp::new(ops))
            }
        };
        Ok(obs.wrap(node, op))
    }
}
