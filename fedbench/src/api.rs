//! Every call the benchmark makes into the engine, in one file, so that a
//! refactor can see which public signatures the benchmark pins (README.md
//! lists them). Nothing here is timed: callers wrap these in `Instant`s.
//!
//! The engine is configured with `PlanConfig::new(mode, network)` plus the
//! genuine axes (`cost_based`, `overlap`, `seed`, and the two observers for
//! the `obs.*` ratios) and nothing else, so the benchmark measures the
//! default path and keeps compiling when an opt-in flag is deleted.

use fedlake_core::decompose::{decompose as core_decompose, Decomposition};
use fedlake_core::fedplan::{FedPlan, ServiceKind, ServiceNode, SqlRequest};
use fedlake_core::operators::{ExecCtx, Poll};
use fedlake_core::selection::{select_sources as core_select, Candidate};
use fedlake_core::translate::{sql_single, star_part, OutputBinding};
use fedlake_core::wrapper::{drain, lift_result, open_service, SharedLiftCache, SourceRoute};
use fedlake_core::{DataSource, PlanMode};
use fedlake_datagen::LakeConfig;
use fedlake_netsim::clock::shared_virtual;
use fedlake_netsim::Link;
use fedlake_rdf::{Graph, SharedInterner};
use fedlake_relational::sql::{parse as parse_sql, Statement};
use fedlake_relational::{Database, ResultSet};
use fedlake_sparql::algebra::{translate, Algebra};
use fedlake_sparql::ast::TriplePattern;
use fedlake_sparql::binding::Var;
use std::sync::Arc;
use std::time::Duration;

pub use fedlake_core::planner::PlannedQuery;
pub use fedlake_core::serve::{ServeJob, ServeOutcome};
pub use fedlake_core::{DataLake, FedResult, FedStats, FederatedEngine, PlanConfig};
pub use fedlake_netsim::NetworkProfile;
pub use fedlake_prng::Prng;
pub use fedlake_relational::Value;
pub use fedlake_serve::{ServeReport, ServeSpec};
pub use fedlake_sparql::ast::SelectQuery;

pub type Error = Box<dyn std::error::Error>;

/// The lake generator's seed: a constant, like the scale, so that `--seed`
/// only moves what a client could vary (draws, arrivals, rows, link delays).
const GENERATOR_SEED: u64 = 0x5EA_DA7A;

pub const NETWORKS: [NetworkProfile; 4] = NetworkProfile::ALL;

/// The three planners the paper's grid is run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planner {
    Unaware,
    Aware,
    AwareCost,
}

impl Planner {
    pub const ALL: [Planner; 3] = [Planner::Unaware, Planner::Aware, Planner::AwareCost];

    pub fn label(self) -> &'static str {
        match self {
            Planner::Unaware => "unaware",
            Planner::Aware => "aware",
            Planner::AwareCost => "aware+cost",
        }
    }
}

// ---- end-to-end path ------------------------------------------------------

pub fn build_lake(scale: f64) -> DataLake {
    fedlake_datagen::build_lake(&LakeConfig { seed: GENERATOR_SEED, scale, ..Default::default() })
}

pub fn config(planner: Planner, network: NetworkProfile, overlap: bool, seed: u64) -> PlanConfig {
    let mode = match planner {
        Planner::Unaware => PlanMode::Unaware,
        Planner::Aware | Planner::AwareCost => PlanMode::AWARE,
    };
    let mut cfg = PlanConfig::new(mode, network);
    cfg.cost_based = planner == Planner::AwareCost;
    cfg.overlap = overlap;
    cfg.seed = seed;
    cfg
}

/// `cfg` with the engine's own observers switched on (for `obs.*` only).
pub fn observed(mut cfg: PlanConfig, tracing: bool, recorder: bool) -> PlanConfig {
    cfg.tracing = tracing;
    cfg.recorder = recorder;
    cfg
}

pub fn new_engine(lake: DataLake, cfg: PlanConfig) -> FederatedEngine {
    FederatedEngine::new(lake, cfg)
}

pub fn lake_of(engine: &FederatedEngine) -> &DataLake {
    engine.lake()
}

pub fn config_of(engine: &FederatedEngine) -> PlanConfig {
    *engine.config()
}

pub fn execute(engine: &FederatedEngine, sparql: &str) -> Result<FedResult, Error> {
    Ok(engine.execute_sparql(sparql)?)
}

/// Stock Q1–Q5 as `(id, sparql)`.
pub fn stock_queries() -> Vec<(String, String)> {
    fedlake_datagen::workload::experiment_queries()
        .into_iter()
        .map(|q| (q.id.to_string(), q.sparql))
        .collect()
}

pub const TEMPLATES: [&str; 5] = ["Q1", "Q2", "Q3", "Q4", "Q5"];

/// A seeded draw of one template as `(label, sparql)`, e.g. `Q3[cat-12]`.
pub fn instantiate(template: &str, rng: &mut Prng) -> (String, String) {
    let q = fedlake_serve::workload::instantiate(template, rng)
        .unwrap_or_else(|| panic!("{template} is not one of {TEMPLATES:?}"));
    (q.label, q.sparql)
}

pub const QUERIES_PER_CLIENT: usize = 16;

/// One open-loop serve run: every client issues [`QUERIES_PER_CLIENT`]
/// queries of the uniform Q1–Q5 mix, at most 16 are in flight, arrivals are
/// exponential at `rate` jobs per simulated second.
pub fn serve_spec(clients: usize, rate: f64, seed: u64) -> ServeSpec {
    ServeSpec {
        clients,
        queries_per_client: QUERIES_PER_CLIENT,
        seed,
        mean_interarrival: Duration::from_secs_f64(1.0 / rate),
        max_in_flight: 16,
        ..Default::default()
    }
}

/// The spec's planned jobs with each job's SPARQL text (same order).
pub fn build_jobs(
    engine: &FederatedEngine,
    spec: &ServeSpec,
) -> Result<(Vec<ServeJob>, Vec<String>), Error> {
    let (jobs, instances) = fedlake_serve::build_jobs(engine, spec)?;
    Ok((jobs, instances.into_iter().map(|i| i.sparql).collect()))
}

pub fn serve(
    engine: &FederatedEngine,
    jobs: &[ServeJob],
    spec: &ServeSpec,
) -> Result<ServeOutcome, Error> {
    Ok(engine.serve(jobs, &spec.serve_config())?)
}

pub fn serve_report(outcome: &ServeOutcome) -> ServeReport {
    ServeReport::from_outcome(outcome)
}

/// Largest value the serve loop's in-flight gauge reached.
pub fn in_flight_max(outcome: &ServeOutcome) -> u64 {
    match outcome.metrics.get("serve.in_flight") {
        Some(fedlake_core::obs::Metric::Gauge { max, .. }) => max,
        _ => 0,
    }
}

/// The write half of `mutate_requery`: `source_mut` → `insert_row`.
pub fn insert_row(
    engine: &mut FederatedEngine,
    source: &str,
    table: &str,
    row: Vec<Value>,
) -> Result<(), Error> {
    match engine.lake_mut().source_mut(source) {
        Some(DataSource::Relational { db, .. }) => Ok(db.insert_row(table, row)?),
        _ => Err(format!("{source} is not a relational source").into()),
    }
}

pub fn refresh_templates(engine: &mut FederatedEngine) {
    engine.lake_mut().refresh_templates();
}

/// First column of a `SELECT` at one relational source, as text (set-up
/// only: the ids that seeded rows may reference).
pub fn column(lake: &DataLake, source: &str, sql: &str) -> Result<Vec<String>, Error> {
    let Some(DataSource::Relational { db, .. }) = lake.source(source) else {
        return Err(format!("{source} is not a relational source").into());
    };
    Ok(db
        .query(sql)?
        .rows
        .iter()
        .filter_map(|row| match row.first() {
            Some(Value::Text(s)) => Some(s.clone()),
            _ => None,
        })
        .collect())
}

// ---- correctness oracle ---------------------------------------------------

/// Answers as sorted SPARQL CSV, the byte-comparable form the repo's
/// equivalence suites use.
pub fn sorted_csv(result: &FedResult) -> String {
    fedlake_serve::sorted_csv(&result.vars, &result.rows)
}

pub fn outcome_csv(outcome: &fedlake_core::serve::QueryOutcome) -> String {
    fedlake_serve::sorted_csv(&outcome.vars, &outcome.rows)
}

/// The lake lifted to one RDF graph, evaluated locally.
pub struct Oracle {
    graph: Graph,
}

impl Oracle {
    pub fn new(lake: &DataLake) -> Self {
        Oracle { graph: lake.oracle_graph() }
    }

    /// `(answer count, sorted CSV)` of `sparql` over the lifted graph.
    pub fn answer(&self, sparql: &str) -> Result<(usize, String), Error> {
        let query = parse(sparql)?;
        let plan = connected(translate(&query));
        let rows = fedlake_sparql::eval::evaluate_algebra(&plan, &self.graph)?;
        Ok((rows.len(), fedlake_serve::sorted_csv(&query.effective_projection(), &rows)))
    }
}

/// Rewrites every BGP into a left-deep join of its single patterns in an
/// order where each pattern shares a variable with the ones before it. The
/// same answers — a BGP is the join of its patterns — but the evaluator's
/// own greedy order puts a cross product into Q2 (7.7 s at scale 1.0).
fn connected(plan: Algebra) -> Algebra {
    let b = |a: Box<Algebra>| Box::new(connected(*a));
    match plan {
        Algebra::Bgp(mut rest) => {
            let mut bound: Vec<Var> = Vec::new();
            let mut chain: Option<Algebra> = None;
            while !rest.is_empty() {
                let next = rest
                    .iter()
                    .position(|t: &TriplePattern| t.vars().iter().any(|v| bound.contains(v)))
                    .unwrap_or(0);
                let t = rest.remove(next);
                bound.extend(t.vars());
                let step = Algebra::Bgp(vec![t]);
                chain = Some(match chain {
                    None => step,
                    Some(c) => Algebra::Join(Box::new(c), Box::new(step)),
                });
            }
            chain.unwrap_or(Algebra::Bgp(Vec::new()))
        }
        Algebra::Join(l, r) => Algebra::Join(b(l), b(r)),
        Algebra::LeftJoin(l, r, c) => Algebra::LeftJoin(b(l), b(r), c),
        Algebra::Filter(e, inner) => Algebra::Filter(e, b(inner)),
        Algebra::Union(branches) => Algebra::Union(branches.into_iter().map(connected).collect()),
        Algebra::Project(vars, inner) => Algebra::Project(vars, b(inner)),
        Algebra::Distinct(inner) => Algebra::Distinct(b(inner)),
        Algebra::OrderBy(keys, inner) => Algebra::OrderBy(keys, b(inner)),
        Algebra::Slice { input, limit, offset } => {
            Algebra::Slice { input: b(input), limit, offset }
        }
    }
}

// ---- layer probes (traced run only) ---------------------------------------

pub fn parse(sparql: &str) -> Result<SelectQuery, Error> {
    Ok(fedlake_sparql::parser::parse_query(sparql)?)
}

pub fn decompose(query: &SelectQuery) -> Result<Decomposition, Error> {
    Ok(core_decompose(query)?)
}

pub fn select_sources(dec: &Decomposition, lake: &DataLake) -> Result<Vec<Vec<Candidate>>, Error> {
    Ok(core_select(&dec.stars, lake)?)
}

/// Translates every star to SQL at its first relational candidate (no
/// pushed filters).
pub fn translate_stars(
    dec: &Decomposition,
    candidates: &[Vec<Candidate>],
    lake: &DataLake,
) -> Result<(), Error> {
    for (star, cands) in dec.stars.iter().zip(candidates) {
        for cand in cands {
            let Some(DataSource::Relational { db, mapping, .. }) = lake.source(&cand.source_id)
            else {
                continue;
            };
            let Some(tm) = mapping.for_class(&cand.class) else { continue };
            let Some(table) = db.table(&tm.table) else { continue };
            let part = star_part(star, tm, &table.schema, &[], "t0")?;
            std::hint::black_box(sql_single(&part));
            break;
        }
    }
    Ok(())
}

pub fn plan(engine: &FederatedEngine, query: &SelectQuery) -> Result<PlannedQuery, Error> {
    Ok(engine.plan(query)?)
}

pub fn execute_planned(
    engine: &FederatedEngine,
    planned: &PlannedQuery,
) -> Result<FedResult, Error> {
    Ok(engine.execute_planned(planned)?)
}

pub fn to_csv(result: &FedResult) -> String {
    result.to_csv()
}

/// The service leaves of a plan, left to right.
pub fn service_leaves(plan: &FedPlan) -> Vec<&ServiceNode> {
    fn walk<'a>(plan: &'a FedPlan, out: &mut Vec<&'a ServiceNode>) {
        match plan {
            FedPlan::Service(node) => out.push(node),
            FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            FedPlan::Filter { input, .. } => walk(input, out),
            FedPlan::Union(branches) => branches.iter().for_each(|b| walk(b, out)),
            // The right side is re-issued per batch of left bindings; it has
            // no stand-alone request to probe.
            FedPlan::BindJoin { left, .. } => walk(left, out),
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// What a SQL wrapper sends for a leaf: the database, the SQL text and how
/// its columns lift. `None` for SPARQL endpoints and the naive N+1 merge.
pub fn sql_request<'a>(
    node: &'a ServiceNode,
    lake: &'a DataLake,
) -> Option<(&'a Database, &'a str, &'a [OutputBinding])> {
    let ServiceKind::Sql { request, .. } = &node.kind else { return None };
    let (SqlRequest::Single(q) | SqlRequest::MergedOptimized(q)) = request else { return None };
    match lake.source(&node.source_id) {
        Some(DataSource::Relational { db, .. }) => Some((db, request.sql(), &q.outputs)),
        _ => None,
    }
}

/// Parses and plans a `SELECT` at the source without running it.
pub fn sql_plan(db: &Database, sql: &str) -> Result<(), Error> {
    match parse_sql(sql)? {
        Statement::Select(stmt) => {
            std::hint::black_box(db.plan(&stmt)?);
            Ok(())
        }
        _ => Err("not a SELECT".into()),
    }
}

pub fn query(db: &Database, sql: &str) -> Result<ResultSet, Error> {
    Ok(db.query(sql)?)
}

pub fn query_cached(db: &Database, sql: &str) -> Result<Arc<ResultSet>, Error> {
    Ok(db.query_cached(sql)?)
}

/// The interner and lift cache a probe shares with later probes: long-lived
/// for warm workloads, fresh per operation for cold ones.
pub struct ProbeCaches {
    interner: SharedInterner,
    lifts: SharedLiftCache,
}

impl ProbeCaches {
    pub fn new() -> Self {
        ProbeCaches { interner: SharedInterner::new(), lifts: Arc::default() }
    }
}

/// Lifts a SQL result into slot rows; returns the row count.
pub fn lift(
    rs: &ResultSet,
    outputs: &[OutputBinding],
    planned: &PlannedQuery,
    caches: &ProbeCaches,
) -> usize {
    lift_result(rs, outputs, &planned.schema, &mut caches.interner.lock()).len()
}

fn probe_link(cfg: &PlanConfig) -> Link {
    Link::new(cfg.network, shared_virtual(), cfg.cost, cfg.seed)
}

/// Ships `rows` over a fresh link on a fresh virtual clock; returns the
/// messages sent.
pub fn transfer(cfg: &PlanConfig, rows: usize) -> u64 {
    let link = probe_link(cfg);
    link.transfer_rows(rows, cfg.rows_per_message);
    link.stats().messages
}

/// Opens one leaf's stream and drains it on a fresh virtual clock, the way
/// the engine's driver would under `cfg`'s schedule (blocking pulls when
/// serialized, polls that advance the clock to the next event when
/// overlapped); returns the rows it delivered.
pub fn drain_service(
    node: &ServiceNode,
    lake: &DataLake,
    cfg: &PlanConfig,
    planned: &PlannedQuery,
    caches: &ProbeCaches,
) -> Result<usize, Error> {
    let link = Arc::new(probe_link(cfg));
    let mut ctx = ExecCtx::new(
        Arc::clone(link.clock()),
        cfg.cost,
        Arc::clone(&planned.schema),
        caches.interner.clone(),
    )
    .with_lifts(Arc::clone(&caches.lifts));
    let route = SourceRoute::single(node.source_id.as_str(), link);
    let mut op = open_service(node, lake, route, cfg.rows_per_message)?;
    if !cfg.overlap {
        return Ok(drain(op.as_mut(), &mut ctx)?.len());
    }
    let mut rows = 0;
    loop {
        match op.poll_next(&mut ctx)? {
            Poll::Ready(_) => rows += 1,
            Poll::Pending(event) => ctx.clock.advance_to(event.time),
            Poll::Done => return Ok(rows),
        }
    }
}

/// The engine's plan-cache counters as `(lookups, hits, invalidations)`.
pub fn plan_cache_stats(engine: &FederatedEngine) -> (u64, u64, u64) {
    let stats = engine.plan_cache_stats();
    (stats.lookups, stats.hits, stats.invalidations)
}

pub fn collect_statistics(lake: &DataLake) {
    std::hint::black_box(fedlake_core::LakeStatistics::collect(lake.sources()));
}
