//! Cross-crate integration: the full synthetic LSLOD-like lake, the whole
//! experiment workload (QM, Q1–Q5), every plan mode, every cell of the
//! shared configuration matrix (`tests/common/mod.rs`) — all answers
//! checked against the lifted-graph oracle.

mod common;

use common::for_each_cell;
use fedlake::core::{
    DecompositionStrategy, FederatedEngine, FilterPlacement, PlanConfig, PlanMode,
};
use fedlake::datagen::{build_lake_with, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::sparql::eval::evaluate;
use fedlake::sparql::parser::parse_query;
use std::collections::BTreeSet;

fn small_config() -> LakeConfig {
    LakeConfig { scale: 0.15, ..Default::default() }
}

fn answer_set(rows: &[fedlake::sparql::Row]) -> BTreeSet<String> {
    rows.iter().map(|r| r.to_string()).collect()
}

#[test]
fn every_workload_query_matches_the_oracle_in_every_mode() {
    for_each_cell(|cell| {
        let cfg = small_config();
        let modes = [
            PlanMode::Unaware,
            PlanMode::AWARE,
            PlanMode::AWARE_H2,
            PlanMode::Aware { h1_join_pushdown: false, filters: FilterPlacement::PushIndexed },
            PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::PushAll },
        ];
        for q in workload::all() {
            let mut lake = build_lake_with(&cfg, q.datasets);
            let oracle = lake.oracle_graph();
            cell.replicate(&mut lake);
            let parsed = parse_query(&q.sparql).unwrap();
            let expected = answer_set(&evaluate(&parsed, &oracle).unwrap());
            assert!(
                !expected.is_empty(),
                "{} must have answers at scale {}",
                q.id,
                cfg.scale
            );
            for mode in modes {
                for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA3] {
                    let engine = FederatedEngine::new(
                        lake.clone(),
                        cell.config(PlanConfig::new(mode, network)),
                    );
                    let result = engine.execute_sparql(&q.sparql).unwrap_or_else(|e| {
                        panic!("{} failed under {} / {}: {e}", q.id, mode.label(), network.name)
                    });
                    assert_eq!(
                        answer_set(&result.rows),
                        expected,
                        "{} answers diverge under {} / {}\nplan:\n{}",
                        q.id,
                        mode.label(),
                        network.name,
                        result.explain
                    );
                }
            }
        }
    });
}

#[test]
fn q2_is_merged_by_h1_and_q3_pushes_its_filter() {
    let cfg = small_config();

    // Q2: both stars live at diseasome and the FK is indexed → merged.
    let q2 = workload::q2();
    let lake = build_lake_with(&cfg, q2.datasets);
    let engine = FederatedEngine::new(lake, PlanConfig::aware(NetworkProfile::NO_DELAY));
    let r = engine.execute_sparql(&q2.sparql).unwrap();
    assert_eq!(r.stats.merged_services, 1, "{}", r.explain);
    assert_eq!(r.stats.services, 1, "{}", r.explain);
    assert!(r.explain.contains("JOIN"), "{}", r.explain);

    // Q3: category is indexed → the aware plan pushes the equality filter.
    let q3 = workload::q3();
    let lake = build_lake_with(&cfg, q3.datasets);
    let engine =
        FederatedEngine::new(lake.clone(), PlanConfig::aware(NetworkProfile::NO_DELAY));
    let r = engine.execute_sparql(&q3.sparql).unwrap();
    assert!(r.explain.contains("category = 'cat-7'"), "{}", r.explain);
    // And the unaware plan does not.
    let engine = FederatedEngine::new(lake, PlanConfig::unaware(NetworkProfile::NO_DELAY));
    let r = engine.execute_sparql(&q3.sparql).unwrap();
    assert!(!r.explain.contains("category = 'cat-7'"), "{}", r.explain);
    assert!(r.stats.engine_filter_evals > 0);
}

#[test]
fn qm_shape_matches_figure_1() {
    // Figure 1c: the aware plan pushes the Diseasome join down and keeps
    // the (unindexable) species filter at the engine; Figure 1b evaluates
    // everything engine-side.
    let cfg = small_config();
    let qm = workload::motivating();
    let lake = build_lake_with(&cfg, qm.datasets);

    let aware = FederatedEngine::new(lake.clone(), PlanConfig::aware(NetworkProfile::GAMMA3))
        .execute_sparql(&qm.sparql)
        .unwrap();
    // Gene⋈Disease merged at diseasome; probeset service separate.
    assert_eq!(aware.stats.merged_services, 1, "{}", aware.explain);
    assert_eq!(aware.stats.services, 2, "{}", aware.explain);
    // The species filter is NOT pushed (no index under the 15 % rule) even
    // though the network is slow and the mode is aware.
    assert!(aware.stats.engine_filter_evals > 0, "{}", aware.explain);
    assert!(!aware.explain.to_lowercase().contains("sapiens%'"), "{}", aware.explain);

    let unaware =
        FederatedEngine::new(lake, PlanConfig::unaware(NetworkProfile::GAMMA3))
            .execute_sparql(&qm.sparql)
            .unwrap();
    assert_eq!(unaware.stats.merged_services, 0);
    assert_eq!(unaware.stats.services, 3);
    // The aware plan needs fewer engine-level operators — Figure 1's point.
    assert!(
        aware.stats.engine_operators < unaware.stats.engine_operators,
        "aware {} vs unaware {}",
        aware.stats.engine_operators,
        unaware.stats.engine_operators
    );
}

#[test]
fn full_ten_dataset_lake_answers_cross_source_chains() {
    for_each_cell(|cell| {
        // A query spanning three datasets end-to-end on the full lake:
        // prescriptions → drugs → targets → genes → diseases.
        let cfg = LakeConfig { scale: 0.1, ..Default::default() };
        let mut lake = fedlake::datagen::build_lake(&cfg);
        cell.replicate(&mut lake);
        let v = "http://lake.example/vocab/";
        let sparql = format!(
            "SELECT ?dn ?gl WHERE {{\n\
               ?dt a <{v}drugbank/Target> .\n\
               ?dt <{v}drugbank/drug> ?dr .\n\
               ?dt <{v}drugbank/gene> ?g .\n\
               ?dr <{v}drugbank/name> ?dn .\n\
               ?g <{v}diseasome/label> ?gl .\n\
             }}"
        );
        let oracle = lake.oracle_graph();
        let parsed = parse_query(&sparql).unwrap();
        let expected = answer_set(&evaluate(&parsed, &oracle).unwrap());
        assert!(!expected.is_empty());
        for mode in [PlanMode::Unaware, PlanMode::AWARE] {
            let config = cell.config(PlanConfig::new(mode, NetworkProfile::GAMMA1));
            let result = FederatedEngine::new(lake.clone(), config).execute_sparql(&sparql).unwrap();
            assert_eq!(answer_set(&result.rows), expected, "mode {}", mode.label());
        }
    });
}

#[test]
fn triple_based_decomposition_agrees_and_costs_more() {
    // §5 future work: triple-based instead of star-shaped sub-queries.
    // Same answers, more services, more engine joins, slower execution.
    let cfg = small_config();
    for q in workload::all() {
        let lake = build_lake_with(&cfg, q.datasets);
        let oracle = lake.oracle_graph();
        let parsed = parse_query(&q.sparql).unwrap();
        let expected = answer_set(&evaluate(&parsed, &oracle).unwrap());

        let mut star_cfg = PlanConfig::aware(NetworkProfile::GAMMA1);
        star_cfg.decomposition = DecompositionStrategy::StarShaped;
        let mut triple_cfg = star_cfg;
        triple_cfg.decomposition = DecompositionStrategy::TripleBased;

        let star = FederatedEngine::new(lake.clone(), star_cfg)
            .execute_sparql(&q.sparql)
            .unwrap();
        let triple = FederatedEngine::new(lake, triple_cfg)
            .execute_sparql(&q.sparql)
            .unwrap();
        assert_eq!(answer_set(&star.rows), expected, "{} star answers", q.id);
        assert_eq!(
            answer_set(&triple.rows),
            expected,
            "{} triple-based answers\nplan:\n{}",
            q.id,
            triple.explain
        );
        assert!(
            triple.stats.services >= star.stats.services,
            "{}: triple-based must not need fewer services",
            q.id
        );
        assert!(
            triple.stats.execution_time >= star.stats.execution_time,
            "{}: triple-based {:?} should not beat star-shaped {:?}",
            q.id,
            triple.stats.execution_time,
            star.stats.execution_time
        );
    }
}

#[test]
fn denormalized_diseasome_agrees_and_merges_without_join() {
    // §5 future work: "not normalized tables". The denormalized lake holds
    // identical logical content, so answers must match the 3NF lake; the
    // gene–disease pair then merges into a single-table SELECT (no JOIN).
    let cfg = small_config();
    let denorm_cfg = LakeConfig { denormalized: vec!["diseasome".into()], ..cfg.clone() };
    for q in [workload::motivating(), workload::q5()] {
        let lake_3nf = build_lake_with(&cfg, q.datasets);
        let lake_denorm = build_lake_with(&denorm_cfg, q.datasets);
        let expected = answer_set(
            &FederatedEngine::new(lake_3nf, PlanConfig::aware(NetworkProfile::NO_DELAY))
                .execute_sparql(&q.sparql)
                .unwrap()
                .rows,
        );
        let r = FederatedEngine::new(
            lake_denorm.clone(),
            PlanConfig::aware(NetworkProfile::NO_DELAY),
        )
        .execute_sparql(&q.sparql)
        .unwrap();
        assert_eq!(answer_set(&r.rows), expected, "{} denormalized answers\n{}", q.id, r.explain);
        assert_eq!(r.stats.merged_services, 1, "{}", r.explain);
        // The merged service reads ONE table with no join.
        assert!(!r.explain.contains("JOIN"), "{}", r.explain);
        assert!(r.explain.contains("gene_disease"), "{}", r.explain);

        // The denormalized source also agrees with its own oracle.
        let oracle = lake_denorm.oracle_graph();
        let parsed = parse_query(&q.sparql).unwrap();
        assert_eq!(
            answer_set(&evaluate(&parsed, &oracle).unwrap()),
            expected,
            "{} lifted-denormalized oracle",
            q.id
        );
    }
}

#[test]
fn lake_with_native_rdf_member_answers_workload() {
    for_each_cell(|cell| {
        // Mount diseasome as a native RDF source: QM then spans a relational
        // source (affymetrix) and an RDF one (diseasome) — the heterogeneous
        // lake of §2.1. H1 cannot merge into an RDF source; answers must not
        // change.
        let qm = workload::motivating();
        let mut cfg = small_config();
        let relational_lake = build_lake_with(&cfg, qm.datasets);
        cfg.rdf_sources = vec!["diseasome".into()];
        let mut mixed_lake = build_lake_with(&cfg, qm.datasets);
        cell.replicate(&mut mixed_lake);

        let expected = {
            let engine = FederatedEngine::new(
                relational_lake,
                PlanConfig::aware(NetworkProfile::NO_DELAY),
            );
            answer_set(&engine.execute_sparql(&qm.sparql).unwrap().rows)
        };
        let config = cell.config(PlanConfig::aware(NetworkProfile::NO_DELAY));
        let result = FederatedEngine::new(mixed_lake, config).execute_sparql(&qm.sparql).unwrap();
        assert_eq!(answer_set(&result.rows), expected);
        assert_eq!(result.stats.merged_services, 0, "{}", result.explain);
    });
}
