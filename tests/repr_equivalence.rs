//! Answer-equivalence suite: what neither the message size nor the planning
//! strategy may change. Eight rows per message — so message boundaries no
//! longer coincide with rows — must leave the sorted CSV byte-identical to
//! the golden snapshots under `tests/golden/`, and the cost-based planner's
//! answers must equal the heuristic planner's. The timing of the message
//! matrix is pinned by `tests/golden/schedule_digest.txt`
//! (`overlap_equivalence.rs`).

use fedlake_core::{FedResult, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_sparql::parser::parse_query;

fn sorted_rows(r: &FedResult) -> Vec<String> {
    let mut v: Vec<String> = r.rows.iter().map(|row| row.to_string()).collect();
    v.sort();
    v
}

/// Multi-row messages: across {serialized, overlapped} × {1, 2} replicas
/// with eight rows per message, the sorted CSV stays byte-identical to the
/// golden snapshots under `tests/golden/`.
#[test]
fn message_matrix_matches_golden_snapshots() {
    let lake_cfg = LakeConfig { scale: 0.1, ..Default::default() };
    for q in workload::experiment_queries() {
        let golden_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{}.csv", q.id.to_lowercase()));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {golden_path:?} ({e})"));
        let ast = parse_query(&q.sparql).unwrap();
        for overlap in [false, true] {
            for replicas in [1u32, 2] {
                let mut lake = build_lake_with(&lake_cfg, q.datasets);
                if replicas > 1 {
                    let ids: Vec<String> =
                        lake.sources().iter().map(|s| s.id().to_string()).collect();
                    for id in ids {
                        lake.set_replicas(id, replicas);
                    }
                }
                let mut config = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
                config.overlap = overlap;
                config.rows_per_message = 8;
                let engine = FederatedEngine::new(lake, config);
                let result = engine.execute(&ast).unwrap();
                let label =
                    format!("{}/messages/overlap={overlap}/replicas={replicas}", q.id);
                assert!(result.stats.answers > 0, "{label}: query returned no rows");
                let mut rows = result.rows.clone();
                rows.sort_by_cached_key(|row| row.to_string());
                let csv = fedlake_core::results::to_sparql_csv(&result.vars, &rows);
                assert_eq!(csv, golden, "{label}: CSV diverges from {golden_path:?}");
            }
        }
    }
}

/// The cost planner may choose a different join order and bind joins, but
/// planning strategy must never change results: on the same lake, the
/// cost-based plan's answers equal the heuristic plan's.
#[test]
fn cost_based_answers_match_heuristic_answers() {
    let lake_cfg = LakeConfig { scale: 0.1, ..Default::default() };
    for q in workload::experiment_queries() {
        let lake = build_lake_with(&lake_cfg, q.datasets);
        let ast = parse_query(&q.sparql).unwrap();
        for network in NetworkProfile::ALL {
            let mut heur_cfg = PlanConfig::new(PlanMode::AWARE, network);
            heur_cfg.cost_based = false;
            let mut cost_cfg = heur_cfg;
            cost_cfg.cost_based = true;
            let heur_engine = FederatedEngine::new(lake.clone(), heur_cfg);
            let engine = FederatedEngine::new(lake.clone(), cost_cfg);
            let planned = engine.plan(&ast).unwrap();
            assert!(planned.report.cost_based, "cost flag must reach the report");
            let cost = engine.execute_planned(&planned).unwrap();
            let label = format!("{}/cost/{}", q.id, network.name);
            assert!(cost.stats.answers > 0, "{label}: query returned no rows");

            let heur = heur_engine.execute(&ast).unwrap();
            assert_eq!(
                sorted_rows(&heur),
                sorted_rows(&cost),
                "{label}: cost-based answers diverge from heuristic answers"
            );
        }
    }
}
