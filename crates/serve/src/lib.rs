//! # fedlake-serve
//!
//! The concurrent serving harness: seeded multi-client workloads driven
//! through [`FederatedEngine::serve`](fedlake_core::FederatedEngine::serve).
//!
//! A [`ServeSpec`] describes the offered load — N clients, a weighted
//! [`Mix`] of Q1–Q5 templates, queries per client, an exponential
//! arrival process, an in-flight bound and optional per-query deadlines.
//! [`build_jobs`] instantiates every template with seeded parameters
//! (see [`workload`]) and plans it once; [`run`] executes the whole load
//! against one engine on a single shared simulated clock and link map,
//! and summarizes the result as a [`ServeReport`] (throughput,
//! p50/p95/p99 latency, Jain fairness).
//!
//! Everything downstream of the seeds is deterministic: the same spec
//! over the same lake reproduces the same jobs, interleavings, answers
//! and report bit for bit. Each job's answer *set* is byte-identical to
//! executing its instantiated query alone (see [`solo_golden`]) — the
//! contention changes when rows arrive, never which rows arrive.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod report;
pub mod workload;

pub use report::ServeReport;
pub use workload::{InstantiatedQuery, Mix};

use fedlake_core::serve::{ServeConfig, ServeJob, ServeOutcome};
use fedlake_core::{DataLake, FedError, FedResult, FederatedEngine, PlanConfig};
use fedlake_prng::Prng;
use fedlake_sparql::parser::parse_query;
use std::time::Duration;

/// The offered load of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Client sessions issuing queries.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// Template mix the clients draw from.
    pub mix: Mix,
    /// Workload + arrival seed (independent of the engine's link seed).
    pub seed: u64,
    /// Mean exponential inter-arrival gap; `ZERO` = closed batch at t=0.
    pub mean_interarrival: Duration,
    /// Admission bound (0 = unbounded).
    pub max_in_flight: usize,
    /// Per-query deadline, relative to arrival, written into every job;
    /// `None` leaves the engine's `PlanConfig::deadline` in force.
    pub deadline: Option<Duration>,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            clients: 8,
            queries_per_client: 2,
            mix: Mix::default(),
            seed: 7,
            mean_interarrival: Duration::from_millis(5),
            max_in_flight: 8,
            deadline: None,
        }
    }
}

impl ServeSpec {
    /// The serve-loop configuration this spec implies.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            seed: self.seed,
            max_in_flight: self.max_in_flight,
            mean_interarrival: self.mean_interarrival,
        }
    }
}

/// One complete serve run: the instantiated jobs, the raw outcome, and
/// its summary report.
#[derive(Debug)]
pub struct ServeRun {
    /// The planned jobs, in job order (parallel to `outcome.outcomes`).
    pub jobs: Vec<ServeJob>,
    /// The instantiated queries, in job order (parallel to
    /// `outcome.outcomes`).
    pub instances: Vec<InstantiatedQuery>,
    /// Per-job outcomes and the server rollup.
    pub outcome: ServeOutcome,
    /// The summary report.
    pub report: ServeReport,
}

impl ServeRun {
    /// The run's slow-query log: breaching queries from the flight
    /// recording, enriched with each session's trace report (per-operator
    /// rows/q-error, per-link waits) when tracing was on. Empty when the
    /// recorder was off. Records match outcomes by `(client, label)` —
    /// labels carry their instance parameters, so the pairing is as
    /// unambiguous as the workload itself.
    pub fn slow_queries(
        &self,
        cfg: &fedlake_core::SlowLogConfig,
    ) -> Vec<fedlake_core::SlowQueryRecord> {
        let Some(recording) = &self.outcome.recording else { return Vec::new() };
        let mut records = fedlake_core::slow_queries(recording, cfg);
        for rec in &mut records {
            if let Some(outcome) = self
                .outcome
                .outcomes
                .iter()
                .find(|o| o.client == rec.client && o.label == rec.label)
            {
                if let Some(trace) = &outcome.obs {
                    rec.attach_trace(trace);
                }
            }
        }
        records
    }

    /// Runs the SLO watchdog over the run's flight recording. `None` when
    /// the recorder was off.
    pub fn watchdog(
        &self,
        cfg: &fedlake_core::WatchdogConfig,
    ) -> Option<fedlake_core::WatchdogReport> {
        self.outcome.recording.as_ref().map(|r| fedlake_core::watch(r, cfg))
    }
}

/// FNV-1a fold of per-job coordinates into one template seed.
fn job_seed(seed: u64, client: usize, slot: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in [client as u64, slot as u64] {
        for byte in b.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Instantiates and plans the spec's jobs against `engine`.
///
/// Jobs are ordered round-robin across clients (slot 0 of every client,
/// then slot 1, …), which is also their arrival order; each job's
/// template draw and parameters come from an independent seed derived
/// from `(spec.seed, client, slot)`, so adding clients never reshuffles
/// existing clients' queries.
pub fn build_jobs(
    engine: &FederatedEngine,
    spec: &ServeSpec,
) -> Result<(Vec<ServeJob>, Vec<InstantiatedQuery>), FedError> {
    let mut jobs = Vec::with_capacity(spec.clients * spec.queries_per_client);
    let mut instances = Vec::with_capacity(jobs.capacity());
    for slot in 0..spec.queries_per_client {
        for client in 0..spec.clients {
            let mut rng = Prng::seed_from_u64(job_seed(spec.seed, client, slot));
            let id = spec.mix.draw(&mut rng).ok_or_else(|| FedError::Internal("empty mix".into()))?;
            let inst = workload::instantiate(id, &mut rng)
                .ok_or_else(|| FedError::Internal(format!("no template for {id}")))?;
            let ast = parse_query(&inst.sparql)?;
            let (planned, origin) = engine.plan_cached(&ast)?;
            jobs.push(ServeJob {
                client,
                label: inst.label.clone(),
                planned,
                deadline: spec.deadline,
                cached: origin.cached,
            });
            instances.push(inst);
        }
    }
    Ok((jobs, instances))
}

/// Builds, serves and summarizes the spec's load against `engine`.
pub fn run(engine: &FederatedEngine, spec: &ServeSpec) -> Result<ServeRun, FedError> {
    let (jobs, instances) = build_jobs(engine, spec)?;
    let outcome = engine.serve(&jobs, &spec.serve_config())?;
    let report = ServeReport::from_outcome(&outcome);
    Ok(ServeRun { jobs, instances, outcome, report })
}

/// Executes one instantiated query alone on a fresh engine over a clone
/// of `lake` — the golden a served query's answer set must byte-match.
pub fn solo_golden(
    lake: &DataLake,
    config: PlanConfig,
    sparql: &str,
) -> Result<FedResult, FedError> {
    FederatedEngine::new(lake.clone(), config).execute_sparql(sparql)
}

/// Answers as sorted SPARQL CSV — the canonical byte-comparable form
/// shared with the chaos and equivalence suites.
pub fn sorted_csv(vars: &[fedlake_sparql::binding::Var], rows: &[fedlake_sparql::binding::Row]) -> String {
    let mut rows = rows.to_vec();
    rows.sort_by_cached_key(|row| row.to_string());
    fedlake_core::results::to_sparql_csv(vars, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_datagen::{build_lake_with, LakeConfig};
    use fedlake_netsim::NetworkProfile;
    use fedlake_core::PlanMode;

    #[test]
    fn build_jobs_is_deterministic_and_round_robin() {
        let spec = ServeSpec {
            clients: 3,
            queries_per_client: 2,
            seed: 11,
            ..Default::default()
        };
        let lake_cfg = LakeConfig { scale: 0.02, ..Default::default() };
        let lake = build_lake_with(&lake_cfg, &spec.mix.datasets());
        let engine = FederatedEngine::new(
            lake,
            PlanConfig::new(PlanMode::AWARE, NetworkProfile::NO_DELAY),
        );
        let (a, ia) = build_jobs(&engine, &spec).unwrap();
        let (b, ib) = build_jobs(&engine, &spec).unwrap();
        assert_eq!(ia, ib);
        assert_eq!(a.len(), 6);
        assert_eq!(a.iter().map(|j| j.client).collect::<Vec<_>>(), vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(
            a.iter().map(|j| j.label.clone()).collect::<Vec<_>>(),
            b.iter().map(|j| j.label.clone()).collect::<Vec<_>>()
        );
    }
}
