//! The four workloads, end to end: set-up, the timed loop, and the answer
//! checks. README.md says why each exists and what its numbers mean.
//!
//! Every workload is a fixed, seeded *lap* of operations, repeated until
//! `--seconds` of wall-clock have passed (at least once). Host timings pool
//! every lap; simulated times and counts come from lap 1 alone, so they do
//! not depend on how fast the host is. Lap 1 is compared byte for byte with
//! the oracle; every later lap must repeat lap 1's answer counts and
//! simulated statistics exactly.

use crate::alloc;
use crate::api::{self, Error, FedResult, FedStats, FederatedEngine, Planner};
use crate::reference;
use crate::stats::{mean, median, percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMatrix,
    AdhocCold,
    ServeOpen,
    MutateRequery,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PaperMatrix, Workload::AdhocCold, Workload::ServeOpen, Workload::MutateRequery];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper_matrix",
            Workload::AdhocCold => "adhoc_cold",
            Workload::ServeOpen => "serve_open",
            Workload::MutateRequery => "mutate_requery",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Lap sizes. The full sizes are frozen: changing one changes what every
/// simulated metric and count means.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub scale: f64,
    /// `adhoc_cold`: rounds per lap (a round is 3 planners × 5 templates).
    pub adhoc_rounds: usize,
    /// `serve_open`: clients per serve run (`api::QUERIES_PER_CLIENT` queries each).
    pub serve_clients: usize,
    /// `mutate_requery`: write-then-requery cycles per lap.
    pub mutate_cycles: usize,
    /// `mutate_requery`: the oracle is re-evaluated on every n-th cycle.
    pub oracle_every: usize,
    /// Traced run: `paper_matrix` rounds replayed. The other workloads
    /// replay a tenth of their lap.
    pub traced_matrix_rounds: usize,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        scale: 1.0,
        adhoc_rounds: 40,
        serve_clients: 16,
        mutate_cycles: 100,
        oracle_every: 25,
        traced_matrix_rounds: 10,
    };
    /// `--quick`: a smoke test, not a measurement.
    pub const QUICK: Sizing = Sizing {
        scale: 0.05,
        adhoc_rounds: 2,
        serve_clients: 4,
        mutate_cycles: 8,
        oracle_every: 4,
        traced_matrix_rounds: 2,
    };
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub sizing: Sizing,
}

/// `serve_open`'s offered rates, in jobs per simulated second; they straddle
/// the knee (no backlog at 3.0, a growing one at 5.0).
pub const SERVE_RATES: [f64; 5] = [2.0, 3.0, 3.5, 4.0, 5.0];
/// The rate whose simulated latencies are the end-to-end `sim_*` metrics.
pub const NOMINAL_RATE: f64 = 3.0;
/// `serve_open` replays one frozen job trace (template draws and arrivals);
/// `--seed` moves only the links' delay draws. Sizing runs with the trace
/// drawn from `--seed` moved the simulated p99 at the nominal rate between
/// 3.3 s and 5.6 s over ten seeds, more than any bound could absorb.
pub const SERVE_TRACE_SEED: u64 = 7;
/// `slo_rate` limits: simulated p99 and the longest admission wait.
pub const SLO_P99_MS: f64 = 10_000.0;
pub const SLO_WAIT_MS: f64 = 1_000.0;

/// Set-up is repeated and its median reported, so one slow page-in does not
/// decide `setup_s`.
const SETUPS: usize = 3;

/// Failed checks: every one counted, the first few named.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub named: Vec<String>,
}

impl Failures {
    const NAMED: usize = 20;

    pub fn push(&mut self, what: String) {
        self.count += 1;
        if self.named.len() < Self::NAMED {
            self.named.push(what);
        }
    }
}

/// Reference-kernel timings after each round of a closed loop (tens of
/// milliseconds long), and on each side of a set-up or a serve run (a second
/// or so long); their median is the slowdown.
const ROUND_SAMPLES: usize = 3;
const BRACKET_SAMPLES: usize = 5;

/// One operation's simulated outcome (lap 1 only).
#[derive(Debug, Clone, Copy)]
pub struct SimOp {
    pub exec_ms: f64,
    pub first_ms: Option<f64>,
    pub latency_ms: f64,
}

impl SimOp {
    fn of(stats: &FedStats) -> SimOp {
        let exec_ms = ms(stats.execution_time);
        SimOp { exec_ms, first_ms: stats.first_answer.map(ms), latency_ms: exec_ms }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    pub attempted: u64,
    pub failures: Failures,
    /// Host seconds of each set-up, host µs of each timed operation and
    /// summed timed seconds of each round (every lap) — all divided by the
    /// host's slowdown at the time (see `reference.rs`).
    pub setup_s: Vec<f64>,
    pub op_us: Vec<f64>,
    pub round_s: Vec<f64>,
    /// The same three as the wall clock read them, and the slowdowns.
    pub raw_setup_s: Vec<f64>,
    pub raw_op_us: Vec<f64>,
    pub raw_round_s: Vec<f64>,
    pub slowdown: Vec<f64>,
    pub ops_per_round: f64,
    pub laps: f64,
    pub sim: Vec<SimOp>,
    /// Bytes and calls allocated inside timed regions.
    pub alloc: alloc::Snapshot,
    pub peak_live_bytes: u64,
}

impl E2e {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Runs a long `f` between two batches of reference timings; returns its
    /// result, its wall-clock seconds and the slowdown around it.
    fn bracketed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let mut timings = reference::sample(BRACKET_SAMPLES);
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        timings.extend(reference::sample(BRACKET_SAMPLES));
        let slowdown = reference::slowdown(&timings);
        self.slowdown.push(slowdown);
        (r, secs, slowdown)
    }

    /// Runs `f` as one timed, attempted operation; returns its result and
    /// its host seconds.
    fn op<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = alloc::snapshot();
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        self.alloc += alloc::snapshot().since(before);
        self.attempted += 1;
        self.raw_op_us.push(secs * 1e6);
        (r, secs)
    }

    /// Closes a round of `round_s` timed seconds: times the reference
    /// kernel (untimed for the workload) and divides the round and its
    /// operations — every raw sample not yet normalised — by the slowdown.
    fn end_round(&mut self, round_s: f64) {
        let slowdown = reference::slowdown(&reference::sample(ROUND_SAMPLES));
        self.slowdown.push(slowdown);
        self.raw_round_s.push(round_s);
        self.round_s.push(round_s / slowdown);
        let done = self.op_us.len();
        self.op_us.extend(self.raw_op_us[done..].iter().map(|us| us / slowdown));
    }

    /// What the wall clock read, before normalisation: `(name, value)` rows
    /// for the human-readable report only.
    pub fn raw(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("raw setup_s", median(&self.raw_setup_s)),
            ("raw host_qps", self.ops_per_round / median(&self.raw_round_s)),
            ("raw host_p50_us", percentile(&self.raw_op_us, 0.50)),
            ("raw host_p90_us", percentile(&self.raw_op_us, 0.90)),
            ("host slowdown, median", median(&self.slowdown)),
            ("host slowdown, least", self.slowdown.iter().copied().fold(f64::INFINITY, f64::min)),
            ("host slowdown, most", self.slowdown.iter().copied().fold(0.0, f64::max)),
        ]
    }

    /// Every end-to-end metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let firsts: Vec<f64> = self.sim.iter().filter_map(|s| s.first_ms).collect();
        let latencies: Vec<f64> = self.sim.iter().map(|s| s.latency_ms).collect();
        let execs: Vec<f64> = self.sim.iter().map(|s| s.exec_ms).collect();
        vec![
            ("setup_s", median(&self.setup_s)),
            ("host_qps", self.ops_per_round / median(&self.round_s)),
            ("host_p50_us", percentile(&self.op_us, 0.50)),
            ("host_p90_us", percentile(&self.op_us, 0.90)),
            ("sim_exec_ms", mean(&execs)),
            ("sim_first_ms", mean(&firsts)),
            ("sim_p50_ms", percentile(&latencies, 0.50)),
            ("sim_p99_ms", percentile(&latencies, 0.99)),
            ("alloc_kb_per_op", self.alloc.bytes as f64 / 1024.0 / self.attempted as f64),
            ("peak_live_mb", self.peak_live_bytes as f64 / (1 << 20) as f64),
        ]
    }
}

pub fn run(workload: Workload, p: &Params) -> Result<E2e, Error> {
    let mut out = match workload {
        Workload::PaperMatrix => paper_matrix(p),
        Workload::AdhocCold => adhoc_cold(p),
        Workload::ServeOpen => serve_open(p),
        Workload::MutateRequery => mutate_requery(p),
    }?;
    out.peak_live_bytes = alloc::peak_live_bytes();
    Ok(out)
}

/// Builds the workload's state [`SETUPS`] times, keeping the last one. The
/// live-heap high-water mark restarts with that last build, so it covers the
/// workload's own set-up and loop and nothing before.
fn set_up<S>(out: &mut E2e, mut build: impl FnMut() -> Result<S, Error>) -> Result<S, Error> {
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        alloc::reset_peak();
        let (built, secs, slowdown) = out.bracketed(&mut build);
        state = Some(built?);
        out.raw_setup_s.push(secs);
        out.setup_s.push(secs / slowdown);
    }
    Ok(state.expect("SETUPS > 0"))
}

/// Oracle answers by query label, evaluated on first use (never inside a
/// timed region).
pub struct Expected {
    oracle: api::Oracle,
    answers: BTreeMap<String, (usize, String)>,
}

impl Expected {
    pub fn new(lake: &api::DataLake) -> Self {
        Expected { oracle: api::Oracle::new(lake), answers: BTreeMap::new() }
    }

    pub fn of(&mut self, label: &str, sparql: &str) -> Result<&(usize, String), Error> {
        if !self.answers.contains_key(label) {
            self.answers.insert(label.to_string(), self.oracle.answer(sparql)?);
        }
        Ok(&self.answers[label])
    }
}

/// What lap 1 saw for one closed-loop operation; later laps must repeat it.
/// `None` where lap 1's operation failed.
type Seen = Option<(usize, FedStats)>;

/// Checks one closed-loop result. Lap 1 passes the oracle's CSV as
/// `expected`: the answer is compared byte for byte and remembered in
/// `seen`. Later laps pass `None`: the answer count and the simulated
/// statistics must repeat what `seen` holds.
fn check_op(
    out: &mut E2e,
    seen: &mut Seen,
    what: &str,
    result: Result<FedResult, Error>,
    expected: Option<&str>,
) {
    let result = match result {
        Ok(r) if !r.stats.degraded => r,
        Ok(_) => return out.fail(format!("{what}: degraded answer")),
        Err(e) => return out.fail(format!("{what}: {e}")),
    };
    let Some(expected) = expected else {
        if seen.as_ref().is_some_and(|(n, stats)| *n != result.rows.len() || *stats != result.stats)
        {
            out.fail(format!("{what}: answer count or statistics differ from lap 1"));
        }
        return;
    };
    if api::sorted_csv(&result) != expected {
        out.fail(format!("{what}: the {} answers differ from the oracle's", result.rows.len()));
    }
    out.sim.push(SimOp::of(&result.stats));
    *seen = Some((result.rows.len(), result.stats));
}

// ---- paper_matrix ---------------------------------------------------------

/// One cell of the paper's grid: a stock query on its own warm engine.
pub struct Cell {
    pub what: String,
    pub query: usize,
    pub sparql: String,
    pub engine: FederatedEngine,
}

/// Q1–Q5 × 3 planners × 4 networks, serialized schedule, each engine warmed
/// by one execution.
pub fn matrix_cells(lake: &api::DataLake, seed: u64) -> Result<Vec<Cell>, Error> {
    let mut cells = Vec::new();
    for (query, (id, sparql)) in api::stock_queries().into_iter().enumerate() {
        for planner in Planner::ALL {
            for network in api::NETWORKS {
                let engine =
                    api::new_engine(lake.clone(), api::config(planner, network, false, seed));
                api::execute(&engine, &sparql)?;
                cells.push(Cell {
                    what: format!("{id}/{}/{}", planner.label(), network.name),
                    query,
                    sparql: sparql.clone(),
                    engine,
                });
            }
        }
    }
    Ok(cells)
}

fn paper_matrix(p: &Params) -> Result<E2e, Error> {
    let mut out = E2e::default();
    let oracle = api::Oracle::new(&api::build_lake(p.sizing.scale));
    let expected: Vec<(usize, String)> = api::stock_queries()
        .iter()
        .map(|(_, sparql)| oracle.answer(sparql))
        .collect::<Result<_, _>>()?;
    drop(oracle);
    let cells = set_up(&mut out, || matrix_cells(&api::build_lake(p.sizing.scale), p.seed))?;

    out.ops_per_round = cells.len() as f64;
    let mut seen: Vec<Seen> = vec![None; cells.len()];
    let start = Instant::now();
    while out.laps == 0.0 || start.elapsed().as_secs_f64() < p.seconds {
        let want = (out.laps == 0.0).then_some(&expected);
        let mut round_s = 0.0;
        for (cell, seen) in cells.iter().zip(&mut seen) {
            let (result, secs) = out.op(|| api::execute(&cell.engine, &cell.sparql));
            round_s += secs;
            let want = want.map(|e| e[cell.query].1.as_str());
            check_op(&mut out, seen, &cell.what, result, want);
        }
        out.end_round(round_s);
        out.laps += 1.0;
    }
    // The last word: after all those rounds every cell still answers like
    // the oracle, byte for byte (untimed, not an attempted op).
    for cell in &cells {
        match api::execute(&cell.engine, &cell.sparql) {
            Ok(r) if api::sorted_csv(&r) == expected[cell.query].1 => {}
            Ok(_) => out.fail(format!("{}: closing round differs from the oracle", cell.what)),
            Err(e) => out.fail(format!("{}: closing round: {e}", cell.what)),
        }
    }
    Ok(out)
}

// ---- adhoc_cold -----------------------------------------------------------

/// A lap's draws: per round and planner, one seeded instance of each of
/// Q1–Q5, as `(label, sparql)` in execution order.
pub fn adhoc_draws(rounds: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = api::Prng::seed_from_u64(seed);
    let mut draws = Vec::with_capacity(rounds * Planner::ALL.len() * api::TEMPLATES.len());
    for _ in 0..rounds * Planner::ALL.len() {
        for template in api::TEMPLATES {
            draws.push(api::instantiate(template, &mut rng));
        }
    }
    draws
}

/// The cold configuration: Gamma1, overlapped (event-driven) schedule.
pub fn adhoc_config(planner: Planner, seed: u64) -> api::PlanConfig {
    api::config(planner, api::NetworkProfile::GAMMA1, true, seed)
}

fn adhoc_cold(p: &Params) -> Result<E2e, Error> {
    let mut out = E2e::default();
    let draws = adhoc_draws(p.sizing.adhoc_rounds, p.seed);
    let per_planner = api::TEMPLATES.len();
    let per_round = Planner::ALL.len() * per_planner;
    let lake = set_up(&mut out, || {
        // Warm-up round: nothing survives it but a warm allocator.
        let lake = api::build_lake(p.sizing.scale);
        for (i, planner) in Planner::ALL.into_iter().enumerate() {
            let engine = api::new_engine(lake.clone(), adhoc_config(planner, p.seed));
            for (_, sparql) in &draws[i * per_planner..(i + 1) * per_planner] {
                api::execute(&engine, sparql)?;
            }
        }
        Ok(lake)
    })?;
    let mut expected = Expected::new(&lake);

    out.ops_per_round = per_round as f64;
    let mut seen: Vec<Seen> = vec![None; draws.len()];
    let mut round = 0;
    let start = Instant::now();
    while round < p.sizing.adhoc_rounds || start.elapsed().as_secs_f64() < p.seconds {
        let in_lap = round % p.sizing.adhoc_rounds;
        let mut round_s = 0.0;
        for (i, planner) in Planner::ALL.into_iter().enumerate() {
            // Untimed: a fresh engine over a fresh clone, so the SQL memo,
            // the lift cache and all plan state are empty.
            let engine = api::new_engine(lake.clone(), adhoc_config(planner, p.seed));
            for k in 0..per_planner {
                let idx = in_lap * per_round + i * per_planner + k;
                let (label, sparql) = &draws[idx];
                let (result, secs) = out.op(|| api::execute(&engine, sparql));
                round_s += secs;
                let what = format!("{label}/{}", planner.label());
                let want = match round < p.sizing.adhoc_rounds {
                    true => Some(expected.of(label, sparql)?.1.as_str()),
                    false => None,
                };
                check_op(&mut out, &mut seen[idx], &what, result, want);
            }
        }
        out.end_round(round_s);
        round += 1;
    }
    out.laps = round as f64 / p.sizing.adhoc_rounds as f64;
    Ok(out)
}

// ---- serve_open -----------------------------------------------------------

/// The warm serving engine: aware + cost-based, Gamma1, every distinct
/// instance of the job list served once.
pub fn serve_engine(
    lake: api::DataLake,
    cfg: api::PlanConfig,
    clients: usize,
) -> Result<FederatedEngine, Error> {
    let engine = api::new_engine(lake, cfg);
    let spec = api::serve_spec(clients, NOMINAL_RATE, SERVE_TRACE_SEED);
    let (jobs, _) = api::build_jobs(&engine, &spec)?;
    let mut labels = std::collections::BTreeSet::new();
    let distinct: Vec<api::ServeJob> =
        jobs.into_iter().filter(|j| labels.insert(j.label.clone())).collect();
    api::serve(&engine, &distinct, &spec)?;
    Ok(engine)
}

pub fn serve_config(seed: u64) -> api::PlanConfig {
    api::config(Planner::AwareCost, api::NetworkProfile::GAMMA1, false, seed)
}

/// Checks one serve run: every job completed with the oracle's answer count,
/// and the first job of each distinct instance byte for byte. Returns the
/// failures, named.
pub fn check_serve(
    rate: f64,
    outcome: &api::ServeOutcome,
    sparqls: &[String],
    expected: &mut Expected,
) -> Result<Vec<String>, Error> {
    let mut failures = Vec::new();
    let mut compared = std::collections::BTreeSet::new();
    for (o, sparql) in outcome.outcomes.iter().zip(sparqls) {
        let what = format!("{} @ {rate}/s", o.label);
        if let Some(e) = &o.error {
            failures.push(format!("{what}: {e}"));
        } else if o.degraded {
            failures.push(format!("{what}: degraded answer"));
        } else {
            let want = expected.of(&o.label, sparql)?;
            let same = if compared.insert(o.label.clone()) {
                api::outcome_csv(o) == want.1
            } else {
                o.rows.len() == want.0
            };
            if !same {
                failures.push(format!(
                    "{what}: {} answers differ from the oracle's {}",
                    o.rows.len(),
                    want.0
                ));
            }
        }
    }
    Ok(failures)
}

fn serve_open(p: &Params) -> Result<E2e, Error> {
    let mut out = E2e::default();
    let clients = p.sizing.serve_clients;
    let engine = set_up(&mut out, || {
        serve_engine(api::build_lake(p.sizing.scale), serve_config(p.seed), clients)
    })?;
    let mut expected = Expected::new(api::lake_of(&engine));

    // What lap 1 saw per rate: the makespan and every job's latency.
    let mut seen: Vec<(Duration, Vec<Duration>)> = Vec::new();
    // Host seconds of every serve run, by rate, raw and normalised.
    let mut raw_run_s = [const { Vec::new() }; SERVE_RATES.len()];
    let mut run_s = [const { Vec::new() }; SERVE_RATES.len()];
    let jobs = (clients * api::QUERIES_PER_CLIENT) as f64;
    let mut lap_wall = 0.0;
    let start = Instant::now();
    // Whole laps only (the rates cost differently per job); a lap starts
    // while at least half of it fits the time left.
    while out.laps == 0.0 || start.elapsed().as_secs_f64() + lap_wall / 2.0 < p.seconds {
        let lap_start = Instant::now();
        for (r, rate) in SERVE_RATES.into_iter().enumerate() {
            let spec = api::serve_spec(clients, rate, SERVE_TRACE_SEED);
            let (served, secs, slowdown) = out.bracketed(|| {
                let before = alloc::snapshot();
                let (jobs, sparqls) = api::build_jobs(&engine, &spec)?;
                let outcome = api::serve(&engine, &jobs, &spec)?;
                Ok::<_, Error>((outcome, sparqls, alloc::snapshot().since(before)))
            });
            let (outcome, sparqls, allocated) = served?;
            out.alloc += allocated;
            out.attempted += outcome.outcomes.len() as u64;
            raw_run_s[r].push(secs);
            run_s[r].push(secs / slowdown);

            let latencies: Vec<Duration> = outcome.outcomes.iter().map(|o| o.latency).collect();
            if r == seen.len() {
                for failure in check_serve(rate, &outcome, &sparqls, &mut expected)? {
                    out.fail(failure);
                }
                if rate == NOMINAL_RATE {
                    out.sim = outcome
                        .outcomes
                        .iter()
                        .map(|o| SimOp {
                            exec_ms: ms(o.finish - o.admitted),
                            first_ms: o.first_answer.map(ms),
                            latency_ms: ms(o.latency),
                        })
                        .collect();
                }
                seen.push((outcome.makespan, latencies));
            } else {
                out.failures.count +=
                    outcome.outcomes.iter().filter(|o| !o.completed()).count() as u64;
                if seen[r] != (outcome.makespan, latencies) {
                    out.fail(format!("serve run @ {rate}/s: simulated times differ from lap 1"));
                }
            }
        }
        lap_wall = lap_start.elapsed().as_secs_f64();
        out.laps += 1.0;
    }
    // One host sample per rate — the median over the laps of that rate's run
    // seconds ÷ jobs — and one round: a lap made of those medians. A run is
    // a second or more long, so a lap has few of them; the median per rate
    // keeps one disturbed run from deciding a percentile.
    let per_job_us = |runs: &[Vec<f64>]| runs.iter().map(|r| median(r) * 1e6 / jobs).collect();
    out.op_us = per_job_us(&run_s);
    out.raw_op_us = per_job_us(&raw_run_s);
    out.round_s = vec![run_s.iter().map(|r| median(r)).sum()];
    out.raw_round_s = vec![raw_run_s.iter().map(|r| median(r)).sum()];
    out.ops_per_round = jobs * SERVE_RATES.len() as f64;
    Ok(out)
}

// ---- mutate_requery -------------------------------------------------------

/// One seeded write: a row built to add exactly one answer to stock query
/// `affects` (an index into Q1–Q5).
pub struct Write {
    pub source: &'static str,
    pub table: &'static str,
    pub row: Vec<api::Value>,
    pub affects: usize,
}

/// A lap's writes, rotating over `chebi.compound` (Q1) and three tables
/// that multi-source queries read: `linkedct.trial` (Q3),
/// `sider.drug_effect` (Q4) and `tcga.expression` (Q5).
pub fn mutate_writes(lake: &api::DataLake, cycles: usize, seed: u64) -> Result<Vec<Write>, Error> {
    use api::Value;
    let diseases = api::column(lake, "diseasome", "SELECT id FROM disease")?;
    let drugs = api::column(lake, "drugbank", "SELECT id FROM drug")?;
    let effects = api::column(lake, "sider", "SELECT id FROM side_effect")?;
    let patients = api::column(lake, "tcga", "SELECT id FROM patient")?;
    let cancer_genes = api::column(
        lake,
        "diseasome",
        "SELECT g.id FROM gene g JOIN disease d ON g.disease = d.id WHERE d.class = 'Cancer'",
    )?;
    let mut rng = api::Prng::seed_from_u64(seed ^ 0x6d75_7461_7465);
    let pick = |rng: &mut api::Prng, ids: &[String]| ids[rng.gen_range(0..ids.len())].clone();
    // A tiny `--quick` lake may have no gene of a cancer: rotate over three.
    let tables = if cancer_genes.is_empty() { 3 } else { 4 };
    let mut writes = Vec::with_capacity(cycles);
    for c in 0..cycles {
        writes.push(match c % tables {
            0 => Write {
                source: "chebi",
                table: "compound",
                row: vec![
                    Value::text(format!("bench-c{c}")),
                    Value::text(format!("bench-compound-{c} acid")),
                    Value::text("checked"),
                    Value::Int(rng.gen_range(-3i64..=3)),
                    Value::Double(rng.gen_range(50.0..900.0f64).round()),
                ],
                affects: 0,
            },
            1 => Write {
                source: "linkedct",
                table: "trial",
                row: vec![
                    Value::text(format!("bench-t{c}")),
                    Value::text(format!("bench-trial-{c} study")),
                    Value::text("Phase 2"),
                    Value::text("cat-7"),
                    Value::text(pick(&mut rng, &diseases)),
                ],
                affects: 2,
            },
            2 => Write {
                source: "sider",
                table: "drug_effect",
                row: vec![
                    Value::text(format!("bench-de{c}")),
                    Value::text(pick(&mut rng, &drugs)),
                    Value::text(pick(&mut rng, &effects)),
                    Value::text("very rare"),
                ],
                affects: 3,
            },
            _ => Write {
                source: "tcga",
                table: "expression",
                row: vec![
                    Value::text(format!("bench-x{c}")),
                    Value::text(pick(&mut rng, &patients)),
                    Value::text(pick(&mut rng, &cancer_genes)),
                    Value::Double(3.5 + rng.gen_range(0.0..0.5f64)),
                ],
                affects: 4,
            },
        });
    }
    Ok(writes)
}

/// The engine writes go to: aware, Gamma1, overlapped — the schedule whose
/// reads see a write today (see README.md, *Known stale answers*).
pub fn mutate_engine(lake: &api::DataLake, seed: u64) -> Result<FederatedEngine, Error> {
    let cfg = api::config(Planner::Aware, api::NetworkProfile::GAMMA1, true, seed);
    let engine = api::new_engine(lake.clone(), cfg);
    for (_, sparql) in api::stock_queries() {
        api::execute(&engine, &sparql)?;
    }
    Ok(engine)
}

fn mutate_requery(p: &Params) -> Result<E2e, Error> {
    let mut out = E2e::default();
    let queries = api::stock_queries();
    let cycles = p.sizing.mutate_cycles;
    let (lake, first_engine) = set_up(&mut out, || {
        let lake = api::build_lake(p.sizing.scale);
        let engine = mutate_engine(&lake, p.seed)?;
        Ok((lake, engine))
    })?;
    let writes = mutate_writes(&lake, cycles, p.seed)?;
    let oracle = api::Oracle::new(&lake);
    let base: Vec<(usize, String)> =
        queries.iter().map(|(_, sparql)| oracle.answer(sparql)).collect::<Result<_, _>>()?;
    drop(oracle);

    out.ops_per_round = (1 + queries.len()) as f64;
    let mut seen: Vec<Seen> = vec![None; cycles * queries.len()];
    let mut engine = first_engine;
    let mut expected = base.clone();
    let mut cycle = 0;
    let start = Instant::now();
    while cycle < cycles || start.elapsed().as_secs_f64() < p.seconds {
        let in_lap = cycle % cycles;
        if in_lap == 0 && cycle > 0 {
            // Next lap: the same writes against a fresh copy of the lake.
            engine = mutate_engine(&lake, p.seed)?;
            expected = base.clone();
        }
        let w = &writes[in_lap];
        let (written, write_s) = out.op(|| {
            api::insert_row(&mut engine, w.source, w.table, w.row.clone())?;
            api::refresh_templates(&mut engine);
            Ok::<_, Error>(())
        });
        if let Err(e) = written {
            out.fail(format!("cycle {in_lap}: write to {}.{}: {e}", w.source, w.table));
        }
        let mut round_s = write_s;
        let first_lap = cycle < cycles;
        let ask_oracle = first_lap
            && ((in_lap + 1).is_multiple_of(p.sizing.oracle_every) || in_lap + 1 == cycles);
        let mut answers = Vec::new();
        for (q, (id, sparql)) in queries.iter().enumerate() {
            let (result, secs) = out.op(|| api::execute(&engine, sparql));
            round_s += secs;
            let what = format!("cycle {in_lap}: {id}");
            if let (true, Ok(r)) = (first_lap && q == w.affects, &result) {
                // The written row must show as exactly one more answer; the
                // bytes are settled when the oracle is next asked.
                if r.rows.len() != expected[q].0 + 1 {
                    out.fail(format!(
                        "{what}: {} answers after the write, expected {}",
                        r.rows.len(),
                        expected[q].0 + 1
                    ));
                }
                expected[q] = (r.rows.len(), api::sorted_csv(r));
            }
            if ask_oracle {
                answers.push(result.as_ref().ok().map(api::sorted_csv));
            }
            let want = first_lap.then_some(expected[q].1.as_str());
            check_op(&mut out, &mut seen[in_lap * queries.len() + q], &what, result, want);
        }
        if ask_oracle {
            let oracle = api::Oracle::new(api::lake_of(&engine));
            for ((id, sparql), got) in queries.iter().zip(&answers) {
                if got.as_ref() != Some(&oracle.answer(sparql)?.1) {
                    out.fail(format!("cycle {in_lap}: {id}: differs from the oracle after writes"));
                }
            }
        }
        out.end_round(round_s);
        cycle += 1;
    }
    out.laps = cycle as f64 / cycles as f64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Contract;

    #[test]
    fn end_to_end_metrics_match_the_contract() {
        let contract = Contract::embedded();
        let declared: Vec<&str> = contract.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let emitted: Vec<&str> = E2e::default().metrics().iter().map(|(name, _)| *name).collect();
        assert_eq!(declared, emitted);
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract.workloads, names);
        assert_eq!(Workload::from_name("serve_open"), Some(Workload::ServeOpen));
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seeded_inputs_repeat() {
        assert_eq!(adhoc_draws(2, 7), adhoc_draws(2, 7));
        assert_ne!(adhoc_draws(2, 7), adhoc_draws(2, 8));
        assert_eq!(adhoc_draws(2, 7).len(), 2 * 3 * 5);
    }
}
