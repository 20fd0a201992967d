//! Shared experiment runner: lakes, configurations and single executions.

use fedlake_core::{
    FedResult, FederatedEngine, MergeTranslation, PlanConfig, PlanMode,
};
use fedlake_datagen::workload::WorkloadQuery;
use fedlake_datagen::{build_lake_with, LakeConfig};
use fedlake_netsim::NetworkProfile;
use std::time::Duration;

/// The lake/scale setup an experiment runs against.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// Data generator configuration.
    pub lake: LakeConfig,
    /// Link RNG seed.
    pub run_seed: u64,
}

impl Default for ExperimentSetup {
    fn default() -> Self {
        ExperimentSetup { lake: LakeConfig::default(), run_seed: 7 }
    }
}

/// One execution's reported numbers.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Query id.
    pub query: &'static str,
    /// Plan label.
    pub plan: String,
    /// Network name.
    pub network: &'static str,
    /// Simulated execution time.
    pub time: Duration,
    /// Simulated time of the first answer.
    pub first_answer: Option<Duration>,
    /// Number of answers.
    pub answers: u64,
    /// Rows transferred over the wrapper links.
    pub rows_transferred: u64,
    /// Messages over the links.
    pub messages: u64,
    /// SQL queries issued.
    pub sql_queries: u64,
    /// The full result (trace, explain, …).
    pub result: FedResult,
}

/// Builds the lake for a query and executes it under a full [`PlanConfig`]
/// (the general entry point; [`run_query`] covers the common case).
pub fn run_with(setup: &ExperimentSetup, q: &WorkloadQuery, mut cfg: PlanConfig) -> RunOutcome {
    let lake = build_lake_with(&setup.lake, q.datasets);
    cfg.seed = setup.run_seed;
    let engine = FederatedEngine::new(lake, cfg);
    let result = engine
        .execute_sparql(&q.sparql)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", q.id, cfg.mode.label()));
    RunOutcome {
        query: q.id,
        plan: cfg.mode.label(),
        network: cfg.network.name,
        time: result.stats.execution_time,
        first_answer: result.stats.first_answer,
        answers: result.stats.answers,
        rows_transferred: result.stats.rows_transferred,
        messages: result.stats.messages,
        sql_queries: result.stats.sql_queries,
        result,
    }
}

/// Builds the (cached-per-process would be nicer, but generation is fast)
/// lake for a query and executes it under one configuration.
pub fn run_query(
    setup: &ExperimentSetup,
    q: &WorkloadQuery,
    mode: PlanMode,
    network: NetworkProfile,
    merge: MergeTranslation,
) -> RunOutcome {
    let lake = build_lake_with(&setup.lake, q.datasets);
    let mut cfg = PlanConfig::new(mode, network);
    cfg.merge_translation = merge;
    cfg.seed = setup.run_seed;
    let engine = FederatedEngine::new(lake, cfg);
    let result = engine
        .execute_sparql(&q.sparql)
        .unwrap_or_else(|e| panic!("{} under {}/{}: {e}", q.id, mode.label(), network.name));
    RunOutcome {
        query: q.id,
        plan: mode.label(),
        network: network.name,
        time: result.stats.execution_time,
        first_answer: result.stats.first_answer,
        answers: result.stats.answers,
        rows_transferred: result.stats.rows_transferred,
        messages: result.stats.messages,
        sql_queries: result.stats.sql_queries,
        result,
    }
}

/// Runs a full (query × mode × network) matrix; the paper's eight
/// configurations are `modes = [Unaware, AWARE]` × the four networks.
pub(crate) fn run_matrix(
    setup: &ExperimentSetup,
    queries: &[WorkloadQuery],
    modes: &[PlanMode],
    networks: &[NetworkProfile],
) -> Vec<RunOutcome> {
    let mut out = Vec::new();
    for q in queries {
        for &mode in modes {
            for &network in networks {
                out.push(run_query(setup, q, mode, network, MergeTranslation::Optimized));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_datagen::workload;

    #[test]
    fn run_query_produces_outcome() {
        let setup = ExperimentSetup {
            lake: LakeConfig { scale: 0.1, ..Default::default() },
            ..Default::default()
        };
        let q = workload::q1();
        let o = run_query(
            &setup,
            &q,
            PlanMode::Unaware,
            NetworkProfile::NO_DELAY,
            MergeTranslation::Optimized,
        );
        assert_eq!(o.query, "Q1");
        assert!(o.answers > 0);
        assert!(o.time > Duration::ZERO);
    }

    #[test]
    fn matrix_covers_all_cells() {
        let setup = ExperimentSetup {
            lake: LakeConfig { scale: 0.05, ..Default::default() },
            ..Default::default()
        };
        let queries = vec![workload::q1()];
        let outcomes = run_matrix(
            &setup,
            &queries,
            &[PlanMode::Unaware, PlanMode::AWARE],
            &NetworkProfile::ALL,
        );
        assert_eq!(outcomes.len(), 8);
    }
}
