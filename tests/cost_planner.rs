//! The statistics-driven cost-based planner, end to end: catalog
//! determinism and invalidation, estimator properties over the real
//! workload lake, DP and greedy strategy selection, answer equivalence
//! against the heuristic plans, and the EXPLAIN ANALYZE estimated-vs-
//! actual row reporting.

mod common;

use fedlake::core::{
    DataLake, DataSource, FedResult, FederatedEngine, LakeStatistics, PlanConfig, PlanMode,
};
use fedlake::datagen::{build_lake_with, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::rdf::{Graph, Term};
use fedlake::relational::{Database, Value};
use fedlake::sparql::parser::parse_query;
use fedlake_core::planner::{PlanStrategy, DP_UNIT_LIMIT};
use fedlake_prng::Prng;

fn sorted_rows(r: &FedResult) -> Vec<String> {
    let mut v: Vec<String> = r.rows.iter().map(|row| row.to_string()).collect();
    v.sort();
    v
}

fn lake_cfg() -> LakeConfig {
    LakeConfig { scale: 0.15, ..Default::default() }
}

fn cost_config(network: NetworkProfile) -> PlanConfig {
    let mut cfg = PlanConfig::new(PlanMode::AWARE, network);
    cfg.cost_based = true;
    cfg
}

// --- the statistics catalog ------------------------------------------------

#[test]
fn statistics_collection_is_deterministic() {
    let q = workload::q5();
    let a = build_lake_with(&lake_cfg(), q.datasets);
    let b = build_lake_with(&lake_cfg(), q.datasets);
    for source in a.sources() {
        let sa = a.source_stats(source.id()).expect("stats collected at registration");
        let sb = b.source_stats(source.id()).expect("stats collected at registration");
        assert_eq!(sa, sb, "{}: statistics differ across identical builds", source.id());
        assert!(sa.triples > 0, "{}: empty statistics", source.id());
    }
}

#[test]
fn statistics_are_invalidated_on_source_mutation() {
    let mut lake = DataLake::new();
    let mut g = Graph::new();
    g.insert_terms(
        Term::iri("http://d/x1"),
        Term::iri(fedlake::rdf::vocab::rdf::TYPE),
        Term::iri("http://v/Thing"),
    );
    lake.add_source(DataSource::sparql("things", g));
    let before = lake.source_stats("things").unwrap().clone();
    assert_eq!(before.triples, 1);

    // Mutate the source in place, then refresh — the invalidation point.
    if let Some(DataSource::Sparql { graph, .. }) = lake.source_mut("things") {
        graph.insert_terms(
            Term::iri("http://d/x2"),
            Term::iri(fedlake::rdf::vocab::rdf::TYPE),
            Term::iri("http://v/Thing"),
        );
    } else {
        panic!("source vanished");
    }
    assert_eq!(
        lake.source_stats("things").unwrap(),
        &before,
        "stats must stay stale until refresh_templates runs"
    );
    lake.refresh_templates();
    let after = lake.source_stats("things").unwrap();
    assert_eq!(after.triples, 2, "refresh must recollect the mutated source");
    assert_ne!(after, &before);
}

/// A lake with the same rows, built from nothing, table by table and
/// source by source — so every statistic in it comes from one pass at
/// registration.
fn rebuilt(lake: &DataLake) -> DataLake {
    let mut out = DataLake::new();
    for source in lake.sources() {
        let DataSource::Relational { id, db, mapping } = source else {
            panic!("the generated lake is relational");
        };
        let mut copy = Database::new(id.as_str());
        for name in db.table_names() {
            common::copy_table(&mut copy, db.table(name).unwrap());
        }
        out.add_source(DataSource::relational(id.as_str(), copy, mapping.clone()));
    }
    out
}

/// The catalog decides plans, so the one a warm lake keeps through writes
/// must price them as a catalog collected from scratch does: after
/// fedbench's `mutate_requery` sequence — one row into `chebi.compound`,
/// `linkedct.trial`, `sider.drug_effect`, `tcga.expression` in turn, a
/// refresh after each, 40 cycles — a warm cost-based engine and a cold one
/// over a lake rebuilt from the same rows agree on every estimate and plan.
#[test]
fn a_written_catalog_plans_like_one_collected_from_scratch() {
    let datasets = ["chebi", "drugbank", "linkedct", "diseasome", "sider", "tcga"];
    let lake = build_lake_with(&lake_cfg(), &datasets);
    let ids = |source: &str, sql: &str| -> Vec<Value> {
        let Some(DataSource::Relational { db, .. }) = lake.source(source) else { panic!() };
        db.query(sql).unwrap().rows.into_iter().map(|mut r| r.swap_remove(0)).collect()
    };
    let diseases = ids("diseasome", "SELECT id FROM disease");
    let genes = ids("diseasome", "SELECT id FROM gene");
    let drugs = ids("drugbank", "SELECT id FROM drug");
    let effects = ids("sider", "SELECT id FROM side_effect");
    let patients = ids("tcga", "SELECT id FROM patient");

    let queries = workload::experiment_queries();
    let mut warm = FederatedEngine::new(lake, cost_config(NetworkProfile::GAMMA1));
    for q in &queries {
        warm.execute_sparql(&q.sparql).unwrap();
    }
    let mut rng = Prng::seed_from_u64(0x20_ca7a);
    let pick = |rng: &mut Prng, ids: &[Value]| ids[rng.gen_range(0..ids.len())].clone();
    for c in 0..40 {
        let id = Value::text(format!("w{c}"));
        let (source, table, row) = match c % 4 {
            0 => {
                let mass = Value::Double(rng.gen_range(50.0..900.0f64).round());
                let charge = Value::Int(rng.gen_range(-3i64..=3));
                let name = Value::text(format!("written-{c} acid"));
                ("chebi", "compound", vec![id, name, Value::text("checked"), charge, mass])
            }
            1 => {
                let title = Value::text(format!("written-{c} study"));
                let (phase, cat) = (Value::text("Phase 2"), Value::text("cat-7"));
                ("linkedct", "trial", vec![id, title, phase, cat, pick(&mut rng, &diseases)])
            }
            2 => {
                let (drug, effect) = (pick(&mut rng, &drugs), pick(&mut rng, &effects));
                ("sider", "drug_effect", vec![id, drug, effect, Value::text("very rare")])
            }
            _ => {
                let value = Value::Double(3.5 + rng.gen_range(0.0..0.5f64));
                let (patient, gene) = (pick(&mut rng, &patients), pick(&mut rng, &genes));
                ("tcga", "expression", vec![id, patient, gene, value])
            }
        };
        match warm.lake_mut().source_mut(source) {
            Some(DataSource::Relational { db, .. }) => db.insert_row(table, row).unwrap(),
            _ => panic!("{source} is relational"),
        }
        warm.lake_mut().refresh_templates();
    }

    let scratch = rebuilt(warm.lake());
    assert_eq!(warm.lake().statistics(), &LakeStatistics::collect(scratch.sources()));
    let cold = FederatedEngine::new(scratch, cost_config(NetworkProfile::GAMMA1));
    for q in &queries {
        let ast = parse_query(&q.sparql).unwrap();
        let (kept, fresh) = (warm.plan(&ast).unwrap(), cold.plan(&ast).unwrap());
        // Estimated rows and cost, strategy, plans costed, bind joins.
        assert_eq!(kept.report, fresh.report, "{}", q.id);
        let body = |r: FedResult| -> String {
            r.explain.lines().filter(|l| !l.starts_with("plan: ")).collect::<Vec<_>>().join("\n")
        };
        let (kept, fresh) = (warm.execute(&ast).unwrap(), cold.execute(&ast).unwrap());
        assert_eq!(sorted_rows(&kept), sorted_rows(&fresh), "{}", q.id);
        assert_eq!(body(kept), body(fresh), "{}", q.id);
    }
}

// --- estimator properties over the real lake -------------------------------

#[test]
fn star_estimates_bound_actual_cardinalities_within_source_size() {
    // For every source of the Q5 lake, the estimate of any predicate
    // subset's star is positive and never exceeds the source's triple
    // count (a star yields at most one row per covered subject, and
    // multiplicities only widen up to the triple count).
    let q = workload::q5();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    for source in lake.sources() {
        let stats = lake.source_stats(source.id()).unwrap();
        assert!(stats.subjects <= stats.triples + 1);
        let mut preds: Vec<&str> = stats.predicates.keys().map(String::as_str).collect();
        preds.sort_unstable();
        // Covering-subject counts must shrink (or hold) as the predicate
        // set grows: monotonicity of characteristic-set containment.
        let mut prev = stats.star_subjects(&[]);
        let mut chosen: Vec<&str> = Vec::new();
        for p in preds.iter().take(4) {
            chosen.push(p);
            let now = stats.star_subjects(&chosen);
            assert!(
                now <= prev,
                "{}: star_subjects grew when adding {p} ({now} > {prev})",
                source.id()
            );
            prev = now;
        }
    }
}

#[test]
fn cost_estimates_populate_the_plan_report() {
    let q = workload::q3();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    let ast = parse_query(&q.sparql).unwrap();
    let engine = FederatedEngine::new(lake, cost_config(NetworkProfile::GAMMA2));
    let planned = engine.plan(&ast).unwrap();
    let report = &planned.report;
    assert!(report.cost_based);
    assert_eq!(report.strategy, PlanStrategy::Dp, "Q3 has few units: DP applies");
    assert!(report.plans_costed > 0, "the DP must have priced candidate plans");
    assert!(report.estimated_rows >= 1.0);
    let cost = report.estimated_cost.expect("cost mode must report the chosen cost");
    assert!(cost.total_us() > 0.0, "{cost:?}");
    assert!(cost.network_us > 0.0, "a federated plan always pays the network");
}

#[test]
fn heuristic_mode_reports_heuristic_strategy() {
    let q = workload::q3();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    let ast = parse_query(&q.sparql).unwrap();
    let mut cfg = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA2);
    cfg.cost_based = false;
    let planned = FederatedEngine::new(lake, cfg).plan(&ast).unwrap();
    assert!(!planned.report.cost_based);
    assert_eq!(planned.report.strategy, PlanStrategy::Heuristic);
    assert_eq!(planned.report.plans_costed, 0);
    assert!(planned.report.estimated_cost.is_none());
}

// --- strategy selection ----------------------------------------------------

/// A chain query of more stars than `DP_UNIT_LIMIT`, all on one SPARQL
/// source (SPARQL stars are never merged, so each star is one ordering
/// unit): the planner must take the greedy cost-based path and still
/// return the right answers.
#[test]
fn many_star_chains_fall_back_to_greedy_ordering() {
    let n = DP_UNIT_LIMIT + 2;
    let mut g = Graph::new();
    for level in 0..n {
        for item in 0..3u32 {
            let subject = format!("http://d/n{level}_{item}");
            g.insert_terms(
                Term::iri(&subject),
                Term::iri(fedlake::rdf::vocab::rdf::TYPE),
                Term::iri(format!("http://v/C{level}")),
            );
            if level + 1 < n {
                g.insert_terms(
                    Term::iri(&subject),
                    Term::iri(format!("http://v/next{level}")),
                    Term::iri(format!("http://d/n{}_{item}", level + 1)),
                );
            }
        }
    }
    let mut lake = DataLake::new();
    lake.add_source(DataSource::sparql("chain", g));

    let mut pattern = String::new();
    for level in 0..n {
        pattern.push_str(&format!("?x{level} a <http://v/C{level}> .\n"));
        if level + 1 < n {
            pattern.push_str(&format!(
                "?x{level} <http://v/next{level}> ?x{} .\n",
                level + 1
            ));
        }
    }
    let sparql = format!("SELECT ?x0 ?x{} WHERE {{ {pattern} }}", n - 1);
    let ast = parse_query(&sparql).unwrap();

    let engine = FederatedEngine::new(lake.clone(), cost_config(NetworkProfile::GAMMA1));
    let planned = engine.plan(&ast).unwrap();
    assert_eq!(
        planned.report.strategy,
        PlanStrategy::GreedyCost,
        "{n} units exceed DP_UNIT_LIMIT={DP_UNIT_LIMIT}"
    );
    assert!(planned.report.plans_costed > 0);
    let cost = engine.execute_planned(&planned).unwrap();
    assert_eq!(cost.rows.len(), 3, "three chains survive end to end");

    let mut heur_cfg = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
    heur_cfg.cost_based = false;
    let heur = FederatedEngine::new(lake, heur_cfg).execute_sparql(&sparql).unwrap();
    assert_eq!(sorted_rows(&heur), sorted_rows(&cost));
}

// --- answer equivalence and the bench claim --------------------------------

#[test]
fn cost_based_plans_answer_identically_across_workload_and_schedules() {
    for q in workload::experiment_queries() {
        let lake = build_lake_with(&lake_cfg(), q.datasets);
        let ast = parse_query(&q.sparql).unwrap();
        for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
            let cfg = cost_config(network);
            let mut ovl_cfg = cfg;
            ovl_cfg.overlap = true;
            let mut heur_cfg = cfg;
            heur_cfg.cost_based = false;

            let engine = FederatedEngine::new(lake.clone(), cfg);
            let planned = engine.plan(&ast).unwrap();
            let ser = engine.execute_planned(&planned).unwrap();
            let ovl = FederatedEngine::new(lake.clone(), ovl_cfg)
                .execute_planned(&planned)
                .unwrap();
            let heur = FederatedEngine::new(lake.clone(), heur_cfg)
                .execute_sparql(&q.sparql)
                .unwrap();

            let label = format!("{}/{}", q.id, network.name);
            assert!(ser.stats.answers > 0, "{label}: no answers");
            assert_eq!(
                sorted_rows(&ser),
                sorted_rows(&ovl),
                "{label}: schedules diverge under cost planning"
            );
            assert_eq!(
                sorted_rows(&ser),
                sorted_rows(&heur),
                "{label}: cost-based answers diverge from heuristic answers"
            );
        }
    }
}

#[test]
fn cost_based_beats_heuristics_on_cross_source_joins_under_delay() {
    // The acceptance shape of the bench section, pinned as a test: on at
    // least two of Q3–Q5 under each slow profile, the cost-based plan is
    // strictly faster with byte-identical answers. The size of the win is
    // pinned too, as floors under the simulated ratios at this scale and
    // these seeds (Q3 5.44x, Q4 1.17x, Q5 2.28x under both profiles).
    for network in [NetworkProfile::GAMMA2, NetworkProfile::GAMMA3] {
        let mut wins = 0;
        for (q, floor) in [(workload::q3(), 4.0), (workload::q4(), 1.1), (workload::q5(), 2.0)] {
            let lake = build_lake_with(&lake_cfg(), q.datasets);
            let mut heur_cfg = PlanConfig::new(PlanMode::AWARE, network);
            heur_cfg.cost_based = false;
            let heur = FederatedEngine::new(lake.clone(), heur_cfg)
                .execute_sparql(&q.sparql)
                .unwrap();
            let cost = FederatedEngine::new(lake, cost_config(network))
                .execute_sparql(&q.sparql)
                .unwrap();
            assert_eq!(sorted_rows(&heur), sorted_rows(&cost), "{}: answers", q.id);
            if cost.stats.execution_time < heur.stats.execution_time {
                wins += 1;
            }
            let ratio =
                heur.stats.execution_time.as_secs_f64() / cost.stats.execution_time.as_secs_f64();
            assert!(
                ratio >= floor,
                "{} under {}: heuristic / cost-based = {ratio:.2}x, floor {floor}x",
                q.id,
                network.name
            );
        }
        assert!(
            wins >= 2,
            "cost-based must win at least 2 of Q3–Q5 under {} (won {wins})",
            network.name
        );
    }
}

// --- EXPLAIN ANALYZE reporting ---------------------------------------------

#[test]
fn explain_analyze_reports_estimates_for_every_operator() {
    let q = workload::q4();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    let mut cfg = cost_config(NetworkProfile::GAMMA2);
    cfg.tracing = true;
    let engine = FederatedEngine::new(lake, cfg);
    let r = engine.execute_sparql(&q.sparql).unwrap();
    let report = r.obs.as_ref().expect("tracing was on");
    assert!(!report.nodes.is_empty());
    for node in &report.nodes {
        assert!(
            node.estimated >= 1.0,
            "{}: missing estimate ({})",
            node.label,
            node.estimated
        );
    }
    let rendered = fedlake_core::explain_analyze(report);
    let op_lines: Vec<&str> =
        rendered.lines().filter(|l| l.contains("[rows=")).collect();
    assert_eq!(
        op_lines.len(),
        report.nodes.len(),
        "every operator gets an analyzed line:\n{rendered}"
    );
    for line in &op_lines {
        assert!(
            line.contains("est=") && line.contains("err=x"),
            "estimated rows and error must be printed: {line}"
        );
    }
    // The planner counters flow into the trace metrics.
    assert_eq!(report.metrics.counter("planner.strategy.dp"), 1, "{rendered}");
    assert!(report.metrics.counter("planner.plans_costed") > 0);
}

// --- determinism regressions -----------------------------------------------

/// Two perfectly symmetric stars on two sources cost exactly the same,
/// so the DP's choice between the `alpha`-first and `beta`-first orders
/// is a pure tie. The tie must break on the deterministic step key
/// (lowest unit index first), never on map-iteration or fold-accumulator
/// order — the historical bug kept whichever equal-cost state happened
/// to be visited last.
#[test]
fn equal_cost_stars_order_deterministically() {
    fn star_graph(class: &str, pred: &str) -> Graph {
        let mut g = Graph::new();
        for i in 0..10u32 {
            let subject = format!("http://d/{class}{i}");
            g.insert_terms(
                Term::iri(&subject),
                Term::iri(fedlake::rdf::vocab::rdf::TYPE),
                Term::iri(format!("http://v/{class}")),
            );
            g.insert_terms(
                Term::iri(&subject),
                Term::iri(format!("http://v/{pred}")),
                Term::iri(format!("http://o/k{}", i % 5)),
            );
        }
        g
    }
    let mut lake = DataLake::new();
    lake.add_source(DataSource::sparql("alpha", star_graph("C1", "p1")));
    lake.add_source(DataSource::sparql("beta", star_graph("C2", "p2")));
    let sparql = "SELECT ?x WHERE { \
                  ?a a <http://v/C1> . ?a <http://v/p1> ?x . \
                  ?b a <http://v/C2> . ?b <http://v/p2> ?x . }";
    let ast = parse_query(sparql).unwrap();

    let golden = FederatedEngine::new(lake.clone(), cost_config(NetworkProfile::GAMMA1))
        .plan(&ast)
        .unwrap();
    assert_eq!(golden.report.strategy, PlanStrategy::Dp);
    let rendered = format!("{:?}", golden.plan);
    let alpha = rendered.find("alpha").expect("alpha star planned");
    let beta = rendered.find("beta").expect("beta star planned");
    assert!(
        alpha < beta,
        "on an exact cost tie the lower unit index must lead:\n{rendered}"
    );
    for _ in 0..5 {
        let again = FederatedEngine::new(lake.clone(), cost_config(NetworkProfile::GAMMA1))
            .plan(&ast)
            .unwrap();
        assert_eq!(format!("{:?}", again.plan), rendered, "plan must be stable");
    }
}

/// Cost-based planning against a statistics catalog that predates the
/// latest catalog mutation is a refusal, not a silent misestimate:
/// `source_mut` bumps the lake epoch without recollecting, and the
/// planner demands `refresh_templates` before pricing another plan.
/// Heuristic planning never consults the catalog and is unaffected.
#[test]
fn cost_based_planning_refuses_stale_statistics() {
    let mut g = Graph::new();
    g.insert_terms(
        Term::iri("http://d/x1"),
        Term::iri(fedlake::rdf::vocab::rdf::TYPE),
        Term::iri("http://v/Thing"),
    );
    let mut lake = DataLake::new();
    lake.add_source(DataSource::sparql("things", g));
    let sparql = "SELECT ?t WHERE { ?t a <http://v/Thing> . }";
    let ast = parse_query(sparql).unwrap();

    let mut engine = FederatedEngine::new(lake, cost_config(NetworkProfile::NO_DELAY));
    assert!(engine.lake().statistics_fresh());
    engine.plan(&ast).expect("fresh statistics plan fine");

    if let Some(DataSource::Sparql { graph, .. }) = engine.lake_mut().source_mut("things") {
        graph.insert_terms(
            Term::iri("http://d/x2"),
            Term::iri(fedlake::rdf::vocab::rdf::TYPE),
            Term::iri("http://v/Thing"),
        );
    } else {
        panic!("source vanished");
    }
    assert!(!engine.lake().statistics_fresh());
    match engine.plan(&ast) {
        Err(fedlake::core::FedError::StaleStatistics { epoch, stats_epoch }) => {
            assert!(stats_epoch < epoch, "{stats_epoch} vs {epoch}");
        }
        other => panic!("expected StaleStatistics, got {other:?}"),
    }

    engine.lake_mut().refresh_templates();
    let planned = engine.plan(&ast).expect("refresh restores cost-based planning");
    assert!(planned.report.cost_based);

    // The heuristic path plans straight through the same staleness.
    let mut heur = FederatedEngine::new(engine.lake().clone(), {
        let mut cfg = PlanConfig::new(PlanMode::AWARE, NetworkProfile::NO_DELAY);
        cfg.cost_based = false;
        cfg
    });
    heur.lake_mut().source_mut("things");
    assert!(!heur.lake().statistics_fresh());
    heur.plan(&ast).expect("heuristic planning ignores the statistics catalog");
}

/// Only a recollection makes a stale catalog fresh. A replica-topology
/// change (one that changes something, one that changes nothing) and the
/// registration of an unrelated source are catalog changes that say
/// nothing about the source a bare `source_mut` left undescribed: cost-based
/// planning keeps refusing until `refresh_templates`. Planted drift
/// (`statistics_mut`) *is* the catalog, and stays plannable through the
/// same calls.
#[test]
fn only_a_refresh_makes_a_stale_catalog_fresh() {
    fn thing(class: &str, n: usize) -> (Term, Term, Term) {
        (
            Term::iri(format!("http://d/{class}{n}")),
            Term::iri(fedlake::rdf::vocab::rdf::TYPE),
            Term::iri(format!("http://v/{class}")),
        )
    }
    let engine_over_one_thing = || {
        let mut g = Graph::new();
        let (s, p, o) = thing("Thing", 0);
        g.insert_terms(s, p, o);
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("things", g));
        FederatedEngine::new(lake, cost_config(NetworkProfile::NO_DELAY))
    };
    let ast = parse_query("SELECT ?t WHERE { ?t a <http://v/Thing> . }").unwrap();
    type Change = fn(&mut DataLake);
    let changes: [(&str, Change); 4] = [
        ("set_replicas that changes the count", |lake| lake.set_replicas("things", 2)),
        ("set_replicas to the count it has", |lake| lake.set_replicas("things", 1)),
        ("set_replicas of an id no source has", |lake| lake.set_replicas("no-such-source", 3)),
        ("add_source of an unrelated source", |lake| {
            let mut g = Graph::new();
            let (s, p, o) = thing("Other", 0);
            g.insert_terms(s, p, o);
            lake.add_source(DataSource::sparql("others", g));
        }),
    ];
    for (what, change) in changes {
        let mut engine = engine_over_one_thing();
        let before = engine.plan(&ast).expect("fresh statistics plan fine");
        let Some(DataSource::Sparql { graph, .. }) = engine.lake_mut().source_mut("things")
        else {
            panic!("source vanished");
        };
        for n in 1..199 {
            let (s, p, o) = thing("Thing", n);
            graph.insert_terms(s, p, o);
        }
        change(engine.lake_mut());
        assert!(!engine.lake().statistics_fresh(), "{what}: the catalog predates the write");
        match engine.plan(&ast) {
            Err(fedlake::core::FedError::StaleStatistics { epoch, stats_epoch }) => {
                assert!(stats_epoch < epoch, "{what}: {stats_epoch} vs {epoch}");
            }
            other => panic!("{what}: expected StaleStatistics, got {other:?}"),
        }
        engine.lake_mut().refresh_templates();
        let after = engine.plan(&ast).expect("refresh restores cost-based planning");
        assert!(
            after.report.estimated_rows > before.report.estimated_rows,
            "{what}: the replan must price 199 things, not one ({} vs {})",
            after.report.estimated_rows,
            before.report.estimated_rows
        );

        // Planted drift leaves every source dirty and the catalog current:
        // the same change must not turn *that* into a refusal.
        let mut drifted = engine_over_one_thing();
        drifted.lake_mut().statistics_mut().source_mut("things").expect("statistics").scale(10);
        change(drifted.lake_mut());
        assert!(drifted.lake().statistics_fresh(), "{what}: planted drift is the catalog");
        drifted.plan(&ast).unwrap_or_else(|e| panic!("{what}: planted drift must plan: {e:?}"));
    }
}
