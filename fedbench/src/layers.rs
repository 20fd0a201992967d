//! The traced run: a tenth of each workload, replayed with spans around the
//! public call into every layer, plus the layer counts. README.md defines
//! each metric. End-to-end numbers never come from here — tracing is off
//! while they are measured.

use crate::alloc;
use crate::api::{self, Error, FederatedEngine, Planner, ProbeCaches};
use crate::reference;
use crate::spans::{Tracer, NO_PARENT};
use crate::stats::{mean, median, percentile, ratio};
use crate::workloads::{self, ms, Expected, Failures, Params, Workload, NOMINAL_RATE, SERVE_RATES};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How a layer metric is reduced from the samples pushed under its name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduce {
    Median,
    Mean,
    Max,
    P99,
}

use Reduce::{Max, Mean, Median, P99};

/// Every per-layer metric, in `BENCHMARK.json` order. `_us`, `_ms` and `_ns`
/// metrics are medians per call; counts are means per operation. A layer
/// that does not run in a workload reports 0.
pub const LAYERS: &[(&str, Reduce)] = &[
    ("sparql.parse_us", Median),
    ("decompose.us", Median),
    ("decompose.stars", Mean),
    ("selection.us", Median),
    ("selection.candidates", Mean),
    ("planner.plan_us", Median),
    ("planner.self_us", Median),
    ("planner.plans_costed", Mean),
    ("planner.bind_joins", Mean),
    ("planner.merged_services", Mean),
    ("planner.qerror_p50", Median),
    ("planner.qerror_max", Max),
    ("plancache.lookup_us", Median),
    ("plancache.hit_rate", Mean),
    ("plancache.invalidations", Mean),
    ("translate.us", Median),
    ("relational.query_us", Median),
    ("relational.sql_plan_us", Median),
    ("relational.memo_hit_us", Median),
    ("relational.rows_examined_per_row_out", Mean),
    ("relational.index_probes", Mean),
    ("lift.us", Median),
    ("lift.ns_per_row", Mean),
    ("lift.rows", Mean),
    ("lift.stale_rows", Mean),
    ("netsim.host_ns_per_msg", Mean),
    ("netsim.messages", Mean),
    ("netsim.sim_delay_ms", Mean),
    ("netsim.sim_delay_share", Mean),
    ("wrapper.service_us", Median),
    ("wrapper.self_us", Median),
    ("wrapper.sql_queries", Mean),
    ("wrapper.rows_shipped", Mean),
    ("wrapper.retries", Mean),
    ("operators.join_probes", Mean),
    ("operators.filter_evals", Mean),
    ("engine.e2e_us", Median),
    ("engine.execute_us", Median),
    ("engine.other_us", Median),
    ("engine.host_p99_us", P99),
    ("engine.answers_per_op", Mean),
    ("results.encode_us", Median),
    ("results.bytes_per_op", Mean),
    ("serve.build_jobs_us_per_job", Median),
    ("serve.loop_us_per_job", Median),
    ("serve.sim_p99_ms.r2_0", Mean),
    ("serve.sim_p99_ms.r3_0", Mean),
    ("serve.sim_p99_ms.r3_5", Mean),
    ("serve.sim_p99_ms.r4_0", Mean),
    ("serve.sim_p99_ms.r5_0", Mean),
    ("serve.queue_wait_p99_ms", Mean),
    ("serve.in_flight_max", Max),
    ("serve.sim_qps", Mean),
    ("serve.jain", Mean),
    ("serve.slo_rate", Max),
    ("obs.tracing_ratio", Median),
    ("obs.recorder_ratio", Median),
    ("lake.insert_us", Median),
    ("lake.refresh_templates_ms", Median),
    ("lake.write_ms", Median),
    ("lake.clone_ms", Median),
    ("stats.collect_ms", Median),
    ("datagen.build_lake_ms", Median),
    ("alloc.calls_per_op", Mean),
    ("alloc.kb_parse_plan", Mean),
    ("alloc.kb_execute", Mean),
    ("trace.overhead_ratio", Median),
    ("trace.residual_share", Median),
    ("host.reference_us", Median),
];

/// `serve.sim_p99_ms.*`, aligned with [`SERVE_RATES`].
const SERVE_P99: [&str; 5] = [
    "serve.sim_p99_ms.r2_0",
    "serve.sim_p99_ms.r3_0",
    "serve.sim_p99_ms.r3_5",
    "serve.sim_p99_ms.r4_0",
    "serve.sim_p99_ms.r5_0",
];

/// What one traced run produced.
pub struct Traced {
    pub attempted: u64,
    pub failures: Failures,
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: usize,
    pub span_file: PathBuf,
}

/// The traced run's state: the spans, the samples per metric, and the sums
/// that the ratio metrics are made from.
struct Run {
    t: Tracer,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failures: Failures,
    lift_ns: f64,
    lift_rows: f64,
    transfer_ns: f64,
    messages: f64,
    rows_examined: f64,
    rows_out: f64,
    sim_delay_ms: f64,
    sim_exec_ms: f64,
    /// Plan-cache counters summed over the traced engines.
    cache_lookups: f64,
    cache_hits: f64,
    cache_invalidations: f64,
}

impl Run {
    fn new() -> Self {
        Run {
            t: Tracer::new(),
            samples: BTreeMap::new(),
            attempted: 0,
            failures: Failures::default(),
            lift_ns: 0.0,
            lift_rows: 0.0,
            transfer_ns: 0.0,
            messages: 0.0,
            rows_examined: 0.0,
            rows_out: 0.0,
            sim_delay_ms: 0.0,
            sim_exec_ms: 0.0,
            cache_lookups: 0.0,
            cache_hits: 0.0,
            cache_invalidations: 0.0,
        }
    }

    /// Adds a traced engine's plan-cache counters (call once, when done with it).
    fn plan_cache(&mut self, engine: &FederatedEngine) {
        let (lookups, hits, invalidations) = api::plan_cache_stats(engine);
        self.cache_lookups += lookups as f64;
        self.cache_hits += hits as f64;
        self.cache_invalidations += invalidations as f64;
    }

    fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYERS.iter().any(|(n, _)| *n == name), "{name} is not a layer metric");
        self.samples.entry(name).or_default().push(value);
    }

    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Times `f` under a span and pushes its µs under `metric`.
    fn probe<R>(
        &mut self,
        span: &'static str,
        metric: &'static str,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let (id, r) = self.t.span(span, parent, f);
        self.push(metric, self.t.dur_us(id));
        (id, r)
    }

    fn finish(mut self, workload: Workload) -> Result<Traced, Error> {
        self.push("lift.ns_per_row", ratio(self.lift_ns, self.lift_rows));
        self.push("netsim.host_ns_per_msg", ratio(self.transfer_ns, self.messages));
        self.push("relational.rows_examined_per_row_out", ratio(self.rows_examined, self.rows_out));
        self.push("netsim.sim_delay_share", ratio(self.sim_delay_ms, self.sim_exec_ms));
        self.push("plancache.hit_rate", ratio(self.cache_hits, self.cache_lookups));
        self.push("plancache.invalidations", self.cache_invalidations);
        let metrics = LAYERS
            .iter()
            .map(|&(name, reduce)| {
                let samples = self.samples.get(name).map_or(&[][..], Vec::as_slice);
                let value = match reduce {
                    Median => median(samples),
                    Mean => mean(samples),
                    Max => samples.iter().copied().fold(0.0, f64::max),
                    P99 => percentile(samples, 0.99),
                };
                (name, value)
            })
            .collect();
        let dir = span_dir();
        std::fs::create_dir_all(&dir)?;
        let span_file = dir.join(format!("{}.trace.json", workload.name()));
        std::fs::write(&span_file, self.t.to_json())?;
        Ok(Traced {
            attempted: self.attempted,
            failures: self.failures,
            metrics,
            spans: self.t.spans.len(),
            span_file,
        })
    }
}

/// `<target dir>/fedbench`, found from the running binary
/// (`<target dir>/release/fedbench`), so nothing is written outside the
/// build directory.
fn span_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("fedbench")))
        .unwrap_or_else(|| PathBuf::from("target/fedbench"))
}

/// What a leaf's stream finds cached when the engine runs it, which decides
/// which replayed calls count as children of the service span. It mirrors
/// the wrapper streams as they are: serialized streams consult the engine's
/// lift cache before the source, overlapped ones only the source's SQL memo.
/// A large negative `wrapper.self_us` says this table no longer matches them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cached {
    /// Fresh engine: the stream runs the SQL, lifts and ships.
    Nothing,
    /// Warm engine, overlapped schedule: memo hit, then lift and ship.
    SqlMemo,
    /// Warm engine, serialized schedule: lift-cache hit, ship only.
    Lift,
}

/// One closed-loop operation and the cache state it runs in.
struct Op<'a> {
    what: &'a str,
    sparql: &'a str,
    /// Runs the operation untraced (`execute_sparql`).
    plain: &'a FederatedEngine,
    /// Runs it again as parse → plan → execute under spans. The same engine
    /// as `plain` for warm workloads, a second fresh one for cold ones.
    traced: &'a FederatedEngine,
    /// Where the service leaves are replayed: the traced engine's lake when
    /// warm, a third fresh clone when cold.
    probe_lake: &'a api::DataLake,
    /// Long-lived for warm workloads, fresh per operation for cold ones.
    caches: &'a ProbeCaches,
    cached: Cached,
    answers: usize,
}

/// The operation as the end-to-end workloads time it; returns its host µs
/// and its answer count.
fn run_plain(run: &mut Run, op: &Op) -> (f64, Result<usize, Error>) {
    let before = alloc::snapshot();
    let start = Instant::now();
    let result = api::execute(op.plain, op.sparql);
    let us = start.elapsed().as_secs_f64() * 1e6;
    run.push("alloc.calls_per_op", alloc::snapshot().since(before).calls as f64);
    run.push("engine.e2e_us", us);
    run.push("engine.host_p99_us", us);
    (us, result.map(|r| r.rows.len()))
}

/// The same operation, one span per stage.
struct Staged {
    ast: api::SelectQuery,
    planned: api::PlannedQuery,
    result: api::FedResult,
    plan: u32,
    exec: u32,
    /// Host µs of the whole traced operation, and of its parse + plan +
    /// execute spans alone.
    whole_us: f64,
    stages_us: f64,
}

fn run_staged(run: &mut Run, op: &Op) -> Result<Staged, Error> {
    let root = run.t.begin("op", NO_PARENT);
    let before = alloc::snapshot();
    let (parse, ast) = run.probe("sparql.parse", "sparql.parse_us", root, || api::parse(op.sparql));
    let ast = ast?;
    let (plan, planned) =
        run.probe("planner.plan", "planner.plan_us", root, || api::plan(op.traced, &ast));
    let planned = planned?;
    let planning = alloc::snapshot();
    let (exec, result) = run.probe("engine.execute", "engine.execute_us", root, || {
        api::execute_planned(op.traced, &planned)
    });
    let executing = alloc::snapshot();
    run.t.end(root);
    run.push("alloc.kb_parse_plan", planning.since(before).bytes as f64 / 1024.0);
    run.push("alloc.kb_execute", executing.since(planning).bytes as f64 / 1024.0);
    let whole_us = run.t.dur_us(root);
    let stages_us = run.t.dur_us(parse) + run.t.dur_us(plan) + run.t.dur_us(exec);
    Ok(Staged { ast, planned, result: result?, plan, exec, whole_us, stages_us })
}

fn trace_op(run: &mut Run, op: &Op) -> Result<(), Error> {
    run.t.next_op();
    run.attempted += 1;
    // Per-layer timings are raw wall-clock; this says how fast the host was.
    run.push("host.reference_us", reference::sample(1)[0]);
    let cfg = api::config_of(op.traced);
    // Whichever goes second finds warmer CPU caches: take turns.
    let ((plain_us, plain), staged) = if run.attempted.is_multiple_of(2) {
        let plain = run_plain(run, op);
        (plain, run_staged(run, op)?)
    } else {
        let staged = run_staged(run, op)?;
        (run_plain(run, op), staged)
    };
    let Staged { ast, planned, result, plan, exec, whole_us, stages_us } = staged;
    // Per operation, so that one stalled execution cannot tilt the ratio.
    run.push("trace.overhead_ratio", whole_us / plain_us);
    run.push("trace.residual_share", 1.0 - stages_us / plain_us);
    let (_, csv) =
        run.probe("results.encode", "results.encode_us", NO_PARENT, || api::to_csv(&result));
    run.push("results.bytes_per_op", csv.len() as f64);

    match plain {
        Ok(n) if n == op.answers && result.rows.len() == op.answers => {}
        Ok(n) => run.fail(format!(
            "{}: {n} answers untraced, {} traced, {} expected",
            op.what,
            result.rows.len(),
            op.answers
        )),
        Err(e) => run.fail(format!("{}: {e}", op.what)),
    }

    // Counts, from the public statistics of the traced execution.
    let stats = &result.stats;
    run.push("planner.plans_costed", planned.report.plans_costed as f64);
    run.push("planner.bind_joins", planned.report.bind_joins as f64);
    run.push("planner.merged_services", stats.merged_services as f64);
    run.push("netsim.messages", stats.messages as f64);
    run.push("netsim.sim_delay_ms", ms(stats.network_delay));
    run.sim_delay_ms += ms(stats.network_delay);
    run.sim_exec_ms += ms(stats.execution_time);
    run.push("wrapper.sql_queries", stats.sql_queries as f64);
    run.push("wrapper.rows_shipped", stats.rows_transferred as f64);
    run.push("wrapper.retries", stats.retries as f64);
    run.push("operators.join_probes", stats.engine_join_probes as f64);
    run.push("operators.filter_evals", stats.engine_filter_evals as f64);
    run.push("engine.answers_per_op", stats.answers as f64);

    // Planning, replayed stage by stage under the plan span.
    let lake = api::lake_of(op.traced);
    let (_, dec) = run.probe("decompose", "decompose.us", plan, || api::decompose(&ast));
    let dec = dec?;
    run.push("decompose.stars", dec.stars.len() as f64);
    let (_, candidates) =
        run.probe("selection", "selection.us", plan, || api::select_sources(&dec, lake));
    let candidates = candidates?;
    run.push("selection.candidates", candidates.iter().map(Vec::len).sum::<usize>() as f64);
    let (_, translated) = run
        .probe("translate", "translate.us", plan, || api::translate_stars(&dec, &candidates, lake));
    translated?;
    run.push("planner.self_us", run.t.self_us(plan));
    // A repeat plan of a query the engine has planned before: what the plan
    // cache answers once it is the default path.
    let (_, again) = run
        .probe("plancache.lookup", "plancache.lookup_us", NO_PARENT, || api::plan(op.traced, &ast));
    again?;

    // Execution, replayed leaf by leaf under the execute span.
    for node in api::service_leaves(&planned.plan) {
        let (service, rows) = run.probe("wrapper.service", "wrapper.service_us", exec, || {
            api::drain_service(node, op.probe_lake, &cfg, &planned, op.caches)
        });
        let rows = rows?.max(1) as f64;
        let estimate = node.estimated_rows.max(1.0);
        run.push("planner.qerror_p50", (estimate / rows).max(rows / estimate));
        run.push("planner.qerror_max", (estimate / rows).max(rows / estimate));
        let Some((db, sql, outputs)) = api::sql_request(node, op.probe_lake) else { continue };
        // Each call is replayed either way; only what the stream itself
        // does in this cache state hangs under the service span.
        let under = |when: &[Cached]| if when.contains(&op.cached) { service } else { NO_PARENT };
        let (query, rs) =
            run.probe("relational.query", "relational.query_us", under(&[Cached::Nothing]), || {
                api::query(db, sql)
            });
        let rs = rs?;
        let (_, planned_sql) =
            run.probe("relational.sql_plan", "relational.sql_plan_us", query, || {
                api::sql_plan(db, sql)
            });
        planned_sql?;
        let (_, hit) = run.probe(
            "relational.memo_hit",
            "relational.memo_hit_us",
            under(&[Cached::SqlMemo]),
            || api::query_cached(db, sql),
        );
        hit?;
        run.rows_examined += (rs.cost.rows_scanned + rs.cost.index_rows) as f64;
        run.rows_out += rs.cost.rows_output as f64;
        run.push("relational.index_probes", rs.cost.index_probes as f64);
        // A cold lift interns into an empty dictionary.
        let fresh = ProbeCaches::new();
        let lift_caches = if op.cached == Cached::Nothing { &fresh } else { op.caches };
        let (lift, lifted) =
            run.probe("lift", "lift.us", under(&[Cached::Nothing, Cached::SqlMemo]), || {
                api::lift(&rs, outputs, &planned, lift_caches)
            });
        run.push("lift.rows", lifted as f64);
        run.lift_ns += run.t.dur_us(lift) * 1e3;
        run.lift_rows += lifted as f64;
        let (transfer, messages) =
            run.t.span("netsim.transfer", service, || api::transfer(&cfg, rs.rows.len()));
        run.transfer_ns += run.t.dur_us(transfer) * 1e3;
        run.messages += messages as f64;
        run.push("wrapper.self_us", run.t.self_us(service));
    }
    run.push("engine.other_us", run.t.self_us(exec));
    Ok(())
}

/// Times building the lake and cloning it (every workload pays both).
fn timed_lake(run: &mut Run, scale: f64) -> api::DataLake {
    run.t.next_op();
    let (id, lake) = run.t.span("datagen.build_lake", NO_PARENT, || api::build_lake(scale));
    run.push("datagen.build_lake_ms", run.t.dur_us(id) / 1e3);
    let (id, clone) = run.t.span("lake.clone", NO_PARENT, || lake.clone());
    run.push("lake.clone_ms", run.t.dur_us(id) / 1e3);
    drop(clone);
    lake
}

/// Host time of `sparql` on `observed` over the same on `plain`, taking turns.
fn observer_ratio(
    plain: &FederatedEngine,
    observed: &FederatedEngine,
    sparql: &str,
    repeats: usize,
) -> Result<f64, Error> {
    let time = |engine: &FederatedEngine| -> Result<f64, Error> {
        let start = Instant::now();
        api::execute(engine, sparql)?;
        Ok(start.elapsed().as_secs_f64())
    };
    let (mut base, mut with) = (0.0, 0.0);
    for _ in 0..repeats {
        base += time(plain)?;
        with += time(observed)?;
    }
    Ok(ratio(with, base))
}

pub fn run(workload: Workload, p: &Params) -> Result<Traced, Error> {
    let mut run = Run::new();
    let lake = timed_lake(&mut run, p.sizing.scale);
    match workload {
        Workload::PaperMatrix => paper_matrix(&mut run, lake, p)?,
        Workload::AdhocCold => adhoc_cold(&mut run, lake, p)?,
        Workload::ServeOpen => serve_open(&mut run, lake, p)?,
        Workload::MutateRequery => mutate_requery(&mut run, lake, p)?,
    }
    run.finish(workload)
}

fn paper_matrix(run: &mut Run, lake: api::DataLake, p: &Params) -> Result<(), Error> {
    let rounds = p.sizing.traced_matrix_rounds;
    let oracle = api::Oracle::new(&lake);
    let answers: Vec<usize> = api::stock_queries()
        .iter()
        .map(|(_, sparql)| Ok(oracle.answer(sparql)?.0))
        .collect::<Result<_, Error>>()?;
    drop(oracle);
    let cells = workloads::matrix_cells(&lake, p.seed)?;
    let caches: Vec<ProbeCaches> = cells.iter().map(|_| ProbeCaches::new()).collect();
    for _ in 0..rounds {
        for (cell, caches) in cells.iter().zip(&caches) {
            let op = Op {
                what: &cell.what,
                sparql: &cell.sparql,
                plain: &cell.engine,
                traced: &cell.engine,
                probe_lake: api::lake_of(&cell.engine),
                caches,
                cached: Cached::Lift,
                answers: answers[cell.query],
            };
            trace_op(run, &op)?;
        }
    }
    cells.iter().for_each(|cell| run.plan_cache(&cell.engine));
    // The engine's own observers, on the aware / Gamma1 cell of each query.
    for (_, sparql) in api::stock_queries() {
        let cfg = api::config(Planner::Aware, api::NetworkProfile::GAMMA1, false, p.seed);
        let plain = api::new_engine(lake.clone(), cfg);
        for (metric, tracing, recorder) in
            [("obs.tracing_ratio", true, false), ("obs.recorder_ratio", false, true)]
        {
            let observed = api::new_engine(lake.clone(), api::observed(cfg, tracing, recorder));
            api::execute(&plain, &sparql)?;
            api::execute(&observed, &sparql)?;
            run.push(metric, observer_ratio(&plain, &observed, &sparql, rounds * 2)?);
        }
    }
    Ok(())
}

fn adhoc_cold(run: &mut Run, lake: api::DataLake, p: &Params) -> Result<(), Error> {
    let rounds = (p.sizing.adhoc_rounds / 10).max(1);
    let draws = workloads::adhoc_draws(rounds, p.seed);
    let mut expected = Expected::new(&lake);
    let mut draws = draws.iter();
    for _ in 0..rounds {
        for planner in Planner::ALL {
            let cfg = workloads::adhoc_config(planner, p.seed);
            let plain = api::new_engine(lake.clone(), cfg);
            let traced = api::new_engine(lake.clone(), cfg);
            let probe_lake = lake.clone();
            for (label, sparql) in draws.by_ref().take(api::TEMPLATES.len()) {
                let op = Op {
                    what: &format!("{label}/{}", planner.label()),
                    sparql,
                    plain: &plain,
                    traced: &traced,
                    probe_lake: &probe_lake,
                    caches: &ProbeCaches::new(),
                    cached: Cached::Nothing,
                    answers: expected.of(label, sparql)?.0,
                };
                trace_op(run, &op)?;
            }
            run.plan_cache(&traced);
        }
    }
    Ok(())
}

fn serve_open(run: &mut Run, lake: api::DataLake, p: &Params) -> Result<(), Error> {
    let clients = p.sizing.serve_clients;
    let cfg = workloads::serve_config(p.seed);
    let engine = workloads::serve_engine(lake.clone(), cfg, clients)?;
    let mut expected = Expected::new(&lake);
    let mut slo_rate = 0.0;
    let mut nominal_s = 0.0;
    let mut distinct: BTreeMap<String, String> = BTreeMap::new();
    for (rate, p99_metric) in SERVE_RATES.into_iter().zip(SERVE_P99) {
        run.t.next_op();
        let spec = api::serve_spec(clients, rate, workloads::SERVE_TRACE_SEED);
        let root = run.t.begin("serve.run", NO_PARENT);
        let (build, built) =
            run.t.span("serve.build_jobs", root, || api::build_jobs(&engine, &spec));
        let (jobs, sparqls) = built?;
        let (serve, outcome) = run.t.span("serve.loop", root, || api::serve(&engine, &jobs, &spec));
        run.t.end(root);
        let outcome = outcome?;
        let n = jobs.len() as f64;
        run.attempted += jobs.len() as u64;
        run.push("serve.build_jobs_us_per_job", run.t.dur_us(build) / n);
        run.push("serve.loop_us_per_job", run.t.dur_us(serve) / n);
        for failure in workloads::check_serve(rate, &outcome, &sparqls, &mut expected)? {
            run.fail(failure);
        }
        let report = api::serve_report(&outcome);
        let p99_ms = report.p99_ns as f64 / 1e6;
        let waits: Vec<f64> = outcome.outcomes.iter().map(|o| ms(o.admitted - o.arrival)).collect();
        run.push(p99_metric, p99_ms);
        run.push("serve.in_flight_max", api::in_flight_max(&outcome) as f64);
        let longest_wait = waits.iter().copied().fold(0.0, f64::max);
        if p99_ms <= workloads::SLO_P99_MS && longest_wait <= workloads::SLO_WAIT_MS {
            slo_rate = rate;
        }
        if rate == NOMINAL_RATE {
            nominal_s = run.t.dur_us(root) / 1e6;
            run.push("serve.queue_wait_p99_ms", percentile(&waits, 0.99));
            run.push("serve.sim_qps", report.qps_sim);
            run.push("serve.jain", report.jain);
            for (job, sparql) in jobs.iter().zip(&sparqls) {
                distinct.entry(job.label.clone()).or_insert_with(|| sparql.clone());
            }
        }
    }
    run.push("serve.slo_rate", slo_rate);

    // The engine's own observers at the nominal rate.
    let spec = api::serve_spec(clients, NOMINAL_RATE, workloads::SERVE_TRACE_SEED);
    for (metric, tracing, recorder) in
        [("obs.tracing_ratio", true, false), ("obs.recorder_ratio", false, true)]
    {
        let observed = api::observed(cfg, tracing, recorder);
        let engine = workloads::serve_engine(lake.clone(), observed, clients)?;
        let start = Instant::now();
        let (jobs, _) = api::build_jobs(&engine, &spec)?;
        api::serve(&engine, &jobs, &spec)?;
        run.push(metric, ratio(start.elapsed().as_secs_f64(), nominal_s));
    }

    // The stages of one job, on every distinct instance of the mix, run solo
    // (serialized) on the serving engine; one untraced execution first, so
    // the solo path's lift cache is as warm as the serve path's SQL memo.
    let caches = ProbeCaches::new();
    for (label, sparql) in &distinct {
        api::execute(&engine, sparql)?;
        let op = Op {
            what: label,
            sparql,
            plain: &engine,
            traced: &engine,
            probe_lake: api::lake_of(&engine),
            caches: &caches,
            cached: Cached::Lift,
            answers: expected.of(label, sparql)?.0,
        };
        trace_op(run, &op)?;
    }
    run.plan_cache(&engine);
    Ok(())
}

fn mutate_requery(run: &mut Run, lake: api::DataLake, p: &Params) -> Result<(), Error> {
    let cycles = (p.sizing.mutate_cycles / 10).max(4);
    let queries = api::stock_queries();
    let writes = workloads::mutate_writes(&lake, cycles, p.seed)?;
    let oracle = api::Oracle::new(&lake);
    let mut answers: Vec<usize> = queries
        .iter()
        .map(|(_, sparql)| Ok(oracle.answer(sparql)?.0))
        .collect::<Result<_, Error>>()?;
    drop(oracle);
    let mut plain = workloads::mutate_engine(&lake, p.seed)?;
    let mut traced = workloads::mutate_engine(&lake, p.seed)?;
    let caches: Vec<ProbeCaches> = queries.iter().map(|_| ProbeCaches::new()).collect();
    for (cycle, w) in writes.iter().enumerate() {
        api::insert_row(&mut plain, w.source, w.table, w.row.clone())?;
        api::refresh_templates(&mut plain);
        run.t.next_op();
        run.attempted += 1;
        let root = run.t.begin("lake.write", NO_PARENT);
        let (_, inserted) = run.probe("lake.insert", "lake.insert_us", root, || {
            api::insert_row(&mut traced, w.source, w.table, w.row.clone())
        });
        inserted?;
        let (refresh, ()) =
            run.t.span("lake.refresh_templates", root, || api::refresh_templates(&mut traced));
        run.t.end(root);
        run.push("lake.refresh_templates_ms", run.t.dur_us(refresh) / 1e3);
        run.push("lake.write_ms", run.t.dur_us(root) / 1e3);
        let (collect, ()) =
            run.t.span("stats.collect", refresh, || api::collect_statistics(api::lake_of(&traced)));
        run.push("stats.collect_ms", run.t.dur_us(collect) / 1e3);
        answers[w.affects] += 1;
        for (((id, sparql), caches), &expect) in queries.iter().zip(&caches).zip(&answers) {
            let op = Op {
                what: &format!("cycle {cycle}: {id}"),
                sparql,
                plain: &plain,
                traced: &traced,
                probe_lake: api::lake_of(&traced),
                caches,
                cached: Cached::SqlMemo,
                answers: expect,
            };
            trace_op(run, &op)?;
        }
    }
    run.plan_cache(&traced);

    // Known stale answers: how many rows a warm engine on the serialized
    // schedule is behind the oracle after one matching insert (see README).
    let cfg = api::config(Planner::Aware, api::NetworkProfile::GAMMA1, false, p.seed);
    let mut warm = api::new_engine(lake.clone(), cfg);
    let (_, q1) = &queries[0];
    api::execute(&warm, q1)?;
    let w = &workloads::mutate_writes(&lake, 1, p.seed)?[0];
    api::insert_row(&mut warm, w.source, w.table, w.row.clone())?;
    api::refresh_templates(&mut warm);
    let fresh = api::Oracle::new(api::lake_of(&warm)).answer(q1)?.0;
    let served = api::execute(&warm, q1)?.rows.len();
    run.push("lift.stale_rows", fresh as f64 - served as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Contract;

    #[test]
    fn layer_table_matches_the_contract() {
        let contract = Contract::embedded();
        let declared: Vec<&str> = contract.per_layer.iter().map(|m| m.name.as_str()).collect();
        let emitted: Vec<&str> = LAYERS.iter().map(|(name, _)| *name).collect();
        assert_eq!(declared, emitted);
    }
}
