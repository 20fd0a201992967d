//! Representation-equivalence suite: the interned slot-row engine must
//! return byte-identical answers, the whole [`fedlake_core::FedStats`] and
//! the whole [`fedlake_core::AnswerTrace`] — first answer and every answer
//! timestamp included — of the reference term-row executor, for every
//! workload query, every network profile, both planning modes and both
//! schedules. The two executors share the wrapper streams and bind-join
//! machinery, so link traffic matches by construction — this suite pins
//! that down together with the engine-side operators, whose charges and
//! counters are mirrored by hand.

use fedlake_core::{FaultPlan, FedResult, FederatedEngine, PlanConfig, PlanMode, RetryPolicy};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_sparql::parser::parse_query;

fn sorted_rows(r: &FedResult) -> Vec<String> {
    let mut v: Vec<String> = r.rows.iter().map(|row| row.to_string()).collect();
    v.sort();
    v
}

fn assert_equivalent(label: &str, a: &FedResult, b: &FedResult) {
    assert_eq!(sorted_rows(a), sorted_rows(b), "{label}: answer rows diverge");
    assert_eq!(a.stats, b.stats, "{label}: stats diverge");
    assert_eq!(a.trace, b.trace, "{label}: answer traces diverge");
}

fn run_suite(mode: PlanMode, mode_name: &str) {
    let lake_cfg = LakeConfig { scale: 0.1, ..Default::default() };
    for q in workload::experiment_queries() {
        let lake = build_lake_with(&lake_cfg, q.datasets);
        let ast = parse_query(&q.sparql).unwrap();
        for network in NetworkProfile::ALL {
            for overlap in [false, true] {
                let mut config = PlanConfig::new(mode, network);
                config.overlap = overlap;
                let engine = FederatedEngine::new(lake.clone(), config);
                let planned = engine.plan(&ast).unwrap();
                let interned = engine.execute_planned(&planned).unwrap();
                let reference = engine.execute_planned_reference(&planned).unwrap();
                let label = format!("{}/{mode_name}/{}/overlap={overlap}", q.id, network.name);
                assert!(interned.stats.answers > 0, "{label}: query returned no rows");
                assert_equivalent(&label, &interned, &reference);
            }
        }
    }
}

#[test]
fn interned_rows_match_reference_unaware() {
    run_suite(PlanMode::Unaware, "unaware");
}

#[test]
fn interned_rows_match_reference_aware() {
    run_suite(PlanMode::AWARE, "aware");
}

/// Parity must also hold with fault injection and retries active: the two
/// executors share the wrapper streams, so they see the same fault
/// decisions, issue the same retries and — when the budget is exhausted —
/// fail with the same error.
#[test]
fn interned_rows_match_reference_with_faults() {
    let lake_cfg = LakeConfig { scale: 0.1, ..Default::default() };
    let faults = FaultPlan {
        drop_prob: 0.08,
        truncate_prob: 0.05,
        spike_prob: 0.10,
        spike_factor: 8.0,
        outage_after: Some(40),
        outage_len: 2,
    };
    for q in workload::experiment_queries() {
        let lake = build_lake_with(&lake_cfg, q.datasets);
        let ast = parse_query(&q.sparql).unwrap();
        for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
            let mut config = PlanConfig::new(PlanMode::AWARE, network);
            config.faults = faults;
            config.retry = RetryPolicy { max_attempts: 6, ..Default::default() };
            let engine = FederatedEngine::new(lake.clone(), config);
            let planned = engine.plan(&ast).unwrap();
            let label = format!("{}/faults/{}", q.id, network.name);
            let interned = engine.execute_planned(&planned);
            let reference = engine.execute_planned_reference(&planned);
            match (interned, reference) {
                (Ok(a), Ok(b)) => {
                    assert_equivalent(&label, &a, &b);
                    assert!(
                        a.stats.retries > 0 || a.stats.source_failures.is_empty(),
                        "{label}: faults without retries"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{label}: errors diverge"),
                (a, b) => panic!("{label}: outcomes diverge: {a:?} vs {b:?}"),
            }
        }
    }
}

/// Multi-row messages: across {serialized, overlapped} × {1, 2} replicas
/// with eight rows per message — so message boundaries no longer coincide
/// with rows — the engine still matches the reference executor in answers,
/// stats and trace, and the sorted CSV stays byte-identical to the golden
/// snapshots under `tests/golden/`.
#[test]
fn message_matrix_matches_reference_and_golden_snapshots() {
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
                let planned = engine.plan(&ast).unwrap();
                let interned = engine.execute_planned(&planned).unwrap();
                let reference = engine.execute_planned_reference(&planned).unwrap();
                let label =
                    format!("{}/messages/overlap={overlap}/replicas={replicas}", q.id);
                assert!(interned.stats.answers > 0, "{label}: query returned no rows");
                assert_equivalent(&label, &interned, &reference);
                let mut rows = interned.rows.clone();
                rows.sort_by_cached_key(|row| row.to_string());
                let csv = fedlake_core::results::to_sparql_csv(&interned.vars, &rows);
                assert_eq!(csv, golden, "{label}: CSV diverges from {golden_path:?}");
            }
        }
    }
}

#[test]
fn interned_rows_match_reference_motivating_query() {
    let q = workload::motivating();
    let lake = build_lake_with(&LakeConfig { scale: 0.1, ..Default::default() }, q.datasets);
    let ast = parse_query(&q.sparql).unwrap();
    for mode in [PlanMode::Unaware, PlanMode::AWARE] {
        for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
            let engine = FederatedEngine::new(lake.clone(), PlanConfig::new(mode, network));
            let planned = engine.plan(&ast).unwrap();
            let interned = engine.execute_planned(&planned).unwrap();
            let reference = engine.execute_planned_reference(&planned).unwrap();
            assert_equivalent(
                &format!("motivating/{}", network.name),
                &interned,
                &reference,
            );
        }
    }
}

/// Parity must hold under cost-based planning too: the cost planner may
/// choose a different join order and bind joins, but both executors
/// consume the same `PlannedQuery`, so everything — answers, traffic,
/// counters, simulated timings — must still agree. Additionally, the
/// cost-based plan's answers must equal the heuristic plan's answers
/// (same query, same lake: planning strategy must never change results).
#[test]
fn interned_rows_match_reference_cost_based() {
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
            let interned = engine.execute_planned(&planned).unwrap();
            let reference = engine.execute_planned_reference(&planned).unwrap();
            let label = format!("{}/cost/{}", q.id, network.name);
            assert!(interned.stats.answers > 0, "{label}: query returned no rows");
            assert_equivalent(&label, &interned, &reference);

            let heur = heur_engine.execute_sparql(&q.sparql).unwrap();
            assert_eq!(
                sorted_rows(&heur),
                sorted_rows(&interned),
                "{label}: cost-based answers diverge from heuristic answers"
            );
        }
    }
}
