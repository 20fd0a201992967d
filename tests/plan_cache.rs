//! The normalized-plan cache's correctness contract.
//!
//! A cache hit must be invisible except for speed: the replayed
//! [`PlannedQuery`] is byte-identical to what cold planning would have
//! produced, across the workload, both planning strategies, both join
//! schedules and replicated lakes. Mutating the catalog, drifting the
//! statistics or flipping an endpoint's health must invalidate exactly
//! the affected entries — and nothing else. The serving layer reuses
//! plans across runs on the same engine and reports the cache counters
//! in its metrics rollup.

use fedlake_core::explain::explain_plan;
use fedlake_core::fedplan::{FedPlan, ServiceKind, SqlRequest};
use fedlake_core::ir::{plan_fingerprint, Fnv64};
use fedlake_core::obs::Metric;
use fedlake_core::planner::{plan_query_with_health, PlannedQuery, DP_UNIT_LIMIT};
use fedlake_core::{
    DataLake, DataSource, FedError, FederatedEngine, HealthView, PlanConfig, PlanMode,
};
use fedlake_datagen::vocab::{class, pred};
use fedlake_datagen::{build_lake, build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_rdf::{vocab, Graph, Term};
use fedlake_serve::{run, solo_golden, sorted_csv, Mix, ServeSpec};
use fedlake_sparql::parser::parse_query;
use std::collections::BTreeSet;
use std::time::Duration;

mod common;

fn lake_cfg() -> LakeConfig {
    LakeConfig { scale: 0.1, ..Default::default() }
}

fn config(cost_based: bool, overlap: bool) -> PlanConfig {
    let mut cfg = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
    cfg.seed = 1;
    cfg.cost_based = cost_based;
    cfg.overlap = overlap;
    cfg
}

// --- byte-identity of replayed plans ---------------------------------------

/// The workload × {heuristic, cost-based} × {serialized, overlapped} ×
/// {1, 2 replicas} matrix: the second plan of every query is a cache
/// hit, its `Debug` rendering — routes, estimates, report and all — is
/// byte-identical to the cold plan's, and both equal what the planner
/// itself returns when called directly, without the cache in between.
#[test]
fn cache_hits_replay_byte_identical_plans() {
    for q in workload::experiment_queries() {
        for cost_based in [false, true] {
            for overlap in [false, true] {
                for replicas in [1u32, 2] {
                    let mut lake = build_lake_with(&lake_cfg(), q.datasets);
                    if replicas > 1 {
                        for id in q.datasets {
                            lake.set_replicas(*id, replicas);
                        }
                    }
                    let ast = parse_query(&q.sparql).unwrap();
                    let ctx = format!(
                        "{} cost={cost_based} overlap={overlap} replicas={replicas}",
                        q.id
                    );

                    let engine = FederatedEngine::new(lake, config(cost_based, overlap));
                    let (cold, origin) = engine.plan_cached(&ast).unwrap();
                    assert!(!origin.cached, "{ctx}: first plan must miss");
                    let (warm, origin) = engine.plan_cached(&ast).unwrap();
                    assert!(origin.cached, "{ctx}: second plan must hit");
                    assert_eq!(warm, cold, "{ctx}: replay must be identical");
                    assert_eq!(
                        format!("{warm:?}"),
                        format!("{cold:?}"),
                        "{ctx}: replay must be byte-identical"
                    );

                    // A fresh session has observed no endpoint, so the
                    // empty health view is the one the engine planned under.
                    let direct = plan_query_with_health(
                        &ast,
                        engine.lake(),
                        engine.config(),
                        &HealthView::empty(),
                    )
                    .unwrap();
                    // Structural equality across planning calls: the
                    // schema's index map renders in per-instance order, so
                    // the byte-level contract only binds the replay above.
                    assert_eq!(direct, cold, "{ctx}: caching must not change what is planned");

                    let stats = engine.plan_cache_stats();
                    assert_eq!(stats.lookups, 2, "{ctx}");
                    assert_eq!((stats.hits, stats.misses), (1, 1), "{ctx}");
                }
            }
        }
    }
}

/// A config switch is a new key: `set_config` folds the config half of
/// the key again, so the first plan under the new mode is cold and is
/// that mode's plan, and the next one hits. The switch keeps the cache's
/// entries, so switching back replays the first mode's plan.
#[test]
fn set_config_keys_plans_by_the_new_config() {
    let q = workload::q2();
    let ast = parse_query(&q.sparql).unwrap();
    let unaware = PlanConfig::new(PlanMode::Unaware, NetworkProfile::GAMMA1);
    let aware = PlanConfig { mode: PlanMode::AWARE, ..unaware };
    let mut engine = FederatedEngine::new(build_lake_with(&lake_cfg(), q.datasets), unaware);
    let (first, origin) = engine.plan_cached(&ast).unwrap();
    assert!(!origin.cached, "the first plan misses");

    engine.set_config(aware);
    let (switched, origin) = engine.plan_cached(&ast).unwrap();
    assert!(!origin.cached, "the first plan under the new config is cold");
    let direct =
        plan_query_with_health(&ast, engine.lake(), &aware, &HealthView::empty()).unwrap();
    assert_eq!(switched, direct, "the new config's plan");
    assert_ne!(switched.report.fingerprint, first.report.fingerprint, "the modes plan alike");
    let (again, origin) = engine.plan_cached(&ast).unwrap();
    assert!(origin.cached, "the next plan under the new config hits");
    assert_eq!(again, switched);

    engine.set_config(unaware);
    let (back, origin) = engine.plan_cached(&ast).unwrap();
    assert!(origin.cached, "the switch kept the first config's entry");
    assert_eq!(back, first);
    let stats = engine.plan_cache_stats();
    assert_eq!((stats.lookups, stats.hits, stats.misses), (4, 2, 2));
}

/// Executing a replayed plan produces the same answers, stats and
/// EXPLAIN body as the cold run.
#[test]
fn cached_execution_matches_cold_execution() {
    let q = workload::q3();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    for cost_based in [false, true] {
        let engine = FederatedEngine::new(lake.clone(), config(cost_based, true));
        let cold = engine.execute_sparql(&q.sparql).unwrap();
        let warm = engine.execute_sparql(&q.sparql).unwrap();
        let ctx = format!("cost={cost_based}");
        assert_eq!(warm.rows, cold.rows, "{ctx}: answers");
        assert_eq!(warm.stats, cold.stats, "{ctx}: stats");
        assert!(
            cold.explain.contains("plan: cold["),
            "{ctx}: first EXPLAIN is cold:\n{}",
            cold.explain
        );
        assert!(
            warm.explain.contains("plan: cached["),
            "{ctx}: second EXPLAIN is cached:\n{}",
            warm.explain
        );
        let strip = |e: &str| {
            e.lines()
                .filter(|l| !l.starts_with("plan: "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&warm.explain),
            strip(&cold.explain),
            "{ctx}: EXPLAIN bodies must match"
        );
    }
}

// --- the plan fingerprint --------------------------------------------------

/// Three queries over QM's three stars (probeset, gene, disease) that reach
/// what the stock workload does not: an OPTIONAL (a left join), a UNION,
/// and both at once.
fn optional_union_queries() -> [String; 3] {
    let (ps, gene, dis) = (
        class("affymetrix", "Probeset"),
        class("diseasome", "Gene"),
        class("diseasome", "Disease"),
    );
    let (pgene, pspecies) = (pred("affymetrix", "gene"), pred("affymetrix", "scientificName"));
    let (glabel, gdisease, dname) = (
        pred("diseasome", "label"),
        pred("diseasome", "associatedDisease"),
        pred("diseasome", "name"),
    );
    [
        format!(
            "SELECT ?ps ?gl ?dn WHERE {{ ?ps a <{ps}> . ?ps <{pgene}> ?g . \
             ?ps <{pspecies}> ?sp . ?g a <{gene}> . ?g <{glabel}> ?gl . \
             ?g <{gdisease}> ?d . OPTIONAL {{ ?d a <{dis}> . ?d <{dname}> ?dn }} \
             FILTER(CONTAINS(?sp, \"sapiens\")) }}"
        ),
        format!(
            "SELECT ?g ?x WHERE {{ ?ps a <{ps}> . ?ps <{pgene}> ?g . \
             {{ ?g a <{gene}> . ?g <{glabel}> ?x }} UNION \
             {{ ?g <{gdisease}> ?d . ?d a <{dis}> . ?d <{dname}> ?x }} }}"
        ),
        format!(
            "SELECT ?ps ?sp ?x ?dn WHERE {{ ?ps a <{ps}> . ?ps <{pspecies}> ?sp . \
             ?ps <{pgene}> ?g . {{ ?g a <{gene}> . ?g <{glabel}> ?x }} UNION \
             {{ ?g a <{gene}> . ?g <{gdisease}> ?x }} \
             OPTIONAL {{ ?g <{gdisease}> ?d . ?d a <{dis}> . ?d <{dname}> ?dn }} }}"
        ),
    ]
}

/// A plan node's kind, a SQL leaf's by its request form.
fn kind(node: &FedPlan) -> &'static str {
    match node {
        FedPlan::Service(s) => match &s.kind {
            ServiceKind::Sparql { .. } => "sparql",
            ServiceKind::Sql { request: SqlRequest::Single(_), .. } => "single",
            ServiceKind::Sql { request: SqlRequest::MergedOptimized(_), .. } => "merged",
        },
        FedPlan::Join { .. } => "join",
        FedPlan::LeftJoin { .. } => "left_join",
        FedPlan::Union(_) => "union",
        FedPlan::BindJoin { .. } => "bind_join",
        FedPlan::Filter { .. } => "filter",
    }
}

/// The plan fingerprint (`PlanReport::fingerprint`, the label EXPLAIN and
/// the flight recorder carry) keeps its value: one digest over
/// - Q1–Q5 and QM × {unaware, aware, aware-H2, cost-based aware} × the four
///   networks on the default lake, and
/// - QM and three OPTIONAL/UNION queries × {unaware, aware, cost-based
///   aware} × the four networks on the default lake and on one that mounts
///   Diseasome as a SPARQL source,
///
/// whose plans reach every kind of plan node and both SQL request forms.
#[test]
fn plan_fingerprints_keep_their_values() {
    const STOCK: [(PlanMode, bool); 4] = [
        (PlanMode::Unaware, false),
        (PlanMode::AWARE, false),
        (PlanMode::AWARE_H2, false),
        (PlanMode::AWARE, true),
    ];
    let three = [STOCK[0], STOCK[1], STOCK[3]];

    let (mut digest, mut reached, mut plans) = (Fnv64::new(), BTreeSet::new(), 0);
    let mut pin = |lake: &DataLake, sparql: &str, planners: &[(PlanMode, bool)]| {
        let ast = parse_query(sparql).unwrap();
        for &(mode, cost_based) in planners {
            for network in NetworkProfile::ALL {
                let mut config = PlanConfig::new(mode, network);
                config.cost_based = cost_based;
                let planned = plan_query_with_health(&ast, lake, &config, &HealthView::empty())
                    .unwrap_or_else(|e| panic!("{sparql}\n{config:?}: {e}"));
                digest.push_u64(planned.report.fingerprint);
                planned.plan.visit(0, &mut |node, _| {
                    reached.insert(kind(node));
                });
                plans += 1;
            }
        }
    };

    let lake = build_lake(&lake_cfg());
    for q in workload::all() {
        pin(&lake, &q.sparql, &STOCK);
    }
    let rdf = build_lake(&LakeConfig { rdf_sources: vec!["diseasome".into()], ..lake_cfg() });
    for lake in [&lake, &rdf] {
        pin(lake, &workload::motivating().sparql, &three);
        for sparql in optional_union_queries() {
            pin(lake, &sparql, &three);
        }
    }

    assert_eq!(plans, 192);
    let every = ["sparql", "single", "merged", "join", "left_join", "union", "bind_join", "filter"];
    assert_eq!(reached, BTreeSet::from(every), "the pinned plans must reach every kind of node");
    assert_eq!(digest.finish(), 0x6f88_1103_b3a4_5bd5, "the plan fingerprints moved");
}

/// The fingerprint's text leaves out what the lowering walk sets (replica
/// routes, lift plans, verdict keys): on a replicated lake, where every
/// leaf gets a route, the lowered plan folds to the fingerprint the
/// planner took before lowering.
#[test]
fn lowering_leaves_the_plan_fingerprint_alone() {
    for q in workload::all() {
        let mut lake = build_lake_with(&lake_cfg(), q.datasets);
        for id in q.datasets {
            lake.set_replicas(*id, 2);
        }
        let ast = parse_query(&q.sparql).unwrap();
        for cost_based in [false, true] {
            let config = config(cost_based, false);
            let planned = plan_query_with_health(&ast, &lake, &config, &HealthView::empty()).unwrap();
            let mut routed = false;
            planned.plan.visit(0, &mut |node, _| {
                routed |= matches!(node, FedPlan::Service(s) if s.route.is_some());
            });
            assert!(routed, "{} cost={cost_based}: no leaf was routed", q.id);
            assert_eq!(
                plan_fingerprint(&planned.plan),
                planned.report.fingerprint,
                "{} cost={cost_based}",
                q.id
            );
        }
    }
}

// --- the join order --------------------------------------------------------

/// Folds what a plan's join order decides into `digest`: the EXPLAIN text,
/// which keeps every join's operands in their order (the fingerprint sorts
/// them), and the report's strategy, plans costed, bind joins and
/// estimates. A `PlannedQuery`'s `Debug` text is no pin: its schema's map
/// order is not stable.
fn push_order(digest: &mut Fnv64, planned: &PlannedQuery) {
    let report = &planned.report;
    digest.push_str(&explain_plan(&planned.plan)).push_str(report.strategy.label());
    digest.push_u64(report.plans_costed).push_u64(report.bind_joins);
    digest.push_u64(report.estimated_rows.to_bits());
    match report.estimated_cost {
        Some(c) => {
            for part in [c.cpu_us, c.io_us, c.network_us, c.parallelism_us] {
                digest.push_u64(part.to_bits());
            }
        }
        None => {
            digest.push_str("no cost");
        }
    }
}

/// A chain of `DP_UNIT_LIMIT + 2` stars on one SPARQL source, three
/// items per level: more ordering units than the DP takes, so cost mode
/// orders them greedily.
fn chain_query() -> (DataLake, String) {
    let n = DP_UNIT_LIMIT + 2;
    let mut g = Graph::new();
    let mut pattern = String::new();
    for level in 0..n {
        for item in 0..3u32 {
            let subject = Term::iri(format!("http://d/n{level}_{item}"));
            let class = Term::iri(format!("http://v/C{level}"));
            g.insert_terms(subject.clone(), Term::iri(vocab::rdf::TYPE), class);
            if level + 1 < n {
                let next = Term::iri(format!("http://d/n{}_{item}", level + 1));
                g.insert_terms(subject, Term::iri(format!("http://v/next{level}")), next);
            }
        }
        pattern.push_str(&format!("?x{level} a <http://v/C{level}> .\n"));
        if level + 1 < n {
            pattern.push_str(&format!("?x{level} <http://v/next{level}> ?x{} .\n", level + 1));
        }
    }
    let mut lake = DataLake::new();
    lake.add_source(DataSource::sparql("chain", g));
    (lake, format!("SELECT ?x0 ?x{} WHERE {{ {pattern} }}", n - 1))
}

/// The join order both planners choose keeps its value: one digest
/// ([`push_order`]) over [`common::plan_matrix`] with both schedules (Q1–Q5
/// and QM × five plan modes × the four networks × {heuristic, cost-based}
/// × {optimized, naive} merges × {serialized, overlapped} × lake scales
/// {0.05, 0.25}), and over the many-star chain (the greedy cost path) ×
/// the four networks × both schedules.
#[test]
fn join_orders_keep_their_values() {
    let (mut digest, mut plans) = (Fnv64::new(), 0);
    let (mut bind_joins, mut strategies) = (0, BTreeSet::new());
    let mut pin = |lake: &DataLake, sparql: &str, config: PlanConfig| {
        let ast = parse_query(sparql).unwrap();
        let planned = plan_query_with_health(&ast, lake, &config, &HealthView::empty())
            .unwrap_or_else(|e| panic!("{sparql}\n{config:?}: {e}"));
        push_order(&mut digest, &planned);
        planned.plan.visit(0, &mut |node, _| {
            bind_joins += usize::from(matches!(node, FedPlan::BindJoin { .. }));
        });
        strategies.insert(planned.report.strategy.label());
        plans += 1;
    };

    let (lakes, queries) = (common::plan_lakes(), workload::all());
    for point in common::plan_matrix(&[false, true]) {
        pin(&lakes[point.scale], &queries[point.query].sparql, point.config);
    }
    let (chain, sparql) = chain_query();
    for network in NetworkProfile::ALL {
        for overlap in [false, true] {
            let mut config = PlanConfig::new(PlanMode::AWARE, network);
            config.cost_based = true;
            config.overlap = overlap;
            pin(&chain, &sparql, config);
        }
    }

    assert_eq!(plans, 1920 + 8);
    assert!(bind_joins > 0, "the pinned plans must reach a bind join");
    let every = BTreeSet::from(["dp", "greedy-cost", "heuristic"]);
    assert_eq!(strategies, every, "the pinned plans must take every strategy");
    assert_eq!(digest.finish(), 0x32ec_f950_322a_e460, "the join orders moved");
}

// --- invalidation ----------------------------------------------------------

/// Mutating a source bumps the lake epoch: the next plan is a miss that
/// replans against the refreshed catalog instead of replaying routes
/// over data that no longer exists.
#[test]
fn source_mutation_invalidates_the_entry() {
    let q = workload::q1();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    let ast = parse_query(&q.sparql).unwrap();
    let mut engine = FederatedEngine::new(lake, config(true, false));

    engine.plan_cached(&ast).unwrap();
    let (_, origin) = engine.plan_cached(&ast).unwrap();
    assert!(origin.cached);

    // The mutable borrow alone bumps the lake epoch: whatever the caller
    // does with it, cached routes into the old catalog are suspect.
    engine.lake_mut().source_mut("chebi").expect("chebi exists");
    // Stale statistics refuse cost-based planning outright — the cache
    // cannot resurrect a plan the planner would no longer produce.
    assert!(matches!(
        engine.plan_cached(&ast),
        Err(FedError::StaleStatistics { .. })
    ));
    engine.lake_mut().refresh_templates();
    let (_, origin) = engine.plan_cached(&ast).unwrap();
    assert!(!origin.cached, "the epoch moved: the entry must not replay");
    let stats = engine.plan_cache_stats();
    assert!(stats.invalidations >= 1, "{stats:?}");
    let (_, origin) = engine.plan_cached(&ast).unwrap();
    assert!(origin.cached, "the refreshed plan is cacheable again");
}

/// A refresh that finds nothing dirty — a serving layer calling it on a
/// timer, a second call after one write — describes the catalog it already
/// has: no counter moves, and a plan cached since the first refresh still
/// replays.
#[test]
fn an_idle_refresh_invalidates_nothing() {
    let q = workload::q1();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    let ast = parse_query(&q.sparql).unwrap();
    let mut engine = FederatedEngine::new(lake, config(true, false));

    engine.lake_mut().source_mut("chebi").expect("chebi exists");
    engine.lake_mut().refresh_templates();
    let (planned, origin) = engine.plan_cached(&ast).unwrap();
    assert!(!origin.cached, "the write moved the epoch");

    let before = (engine.lake().epoch(), engine.lake().statistics_epoch());
    let version = engine.lake().source_version("chebi");
    engine.lake_mut().refresh_templates();
    assert_eq!((engine.lake().epoch(), engine.lake().statistics_epoch()), before);
    assert_eq!(engine.lake().source_version("chebi"), version);
    assert!(engine.lake().statistics_fresh());
    let (replayed, origin) = engine.plan_cached(&ast).unwrap();
    assert!(origin.cached, "nothing changed: the entry must replay");
    assert_eq!(replayed, planned);
    assert_eq!(engine.plan_cache_stats().invalidations, 0);
}

/// A `set_replicas` that changes nothing — the count the source already
/// has, `n <= 1` on an unreplicated source, an id no source has — is not a
/// catalog change: no counter moves, nothing is registered, and a warm
/// plan still replays.
#[test]
fn a_set_replicas_that_changes_nothing_invalidates_nothing() {
    let q = workload::q1();
    let mut lake = build_lake_with(&lake_cfg(), q.datasets);
    lake.set_replicas("chebi", 2);
    let ast = parse_query(&q.sparql).unwrap();
    let mut engine = FederatedEngine::new(lake, config(true, false));
    let (planned, _) = engine.plan_cached(&ast).unwrap();

    let before = (engine.lake().epoch(), engine.lake().statistics_epoch());
    engine.lake_mut().set_replicas("chebi", 2);
    engine.lake_mut().set_replicas("no-such-source", 3);
    engine.lake_mut().set_replicas("no-such-source", 1);
    assert_eq!((engine.lake().epoch(), engine.lake().statistics_epoch()), before);
    assert_eq!(engine.lake().replica_count("chebi"), 2);
    assert_eq!(engine.lake().replica_count("no-such-source"), 1);
    let (replayed, origin) = engine.plan_cached(&ast).unwrap();
    assert!(origin.cached, "nothing changed: the entry must replay");
    assert_eq!(replayed, planned);
    assert_eq!(engine.plan_cache_stats().invalidations, 0);

    // A change is still a change.
    engine.lake_mut().set_replicas("chebi", 1);
    assert!(engine.lake().epoch() > before.0);
    let (_, origin) = engine.plan_cached(&ast).unwrap();
    assert!(!origin.cached, "the topology moved: the entry must not replay");
}

/// Catalog drift (statistics scaled after collection) bumps the epoch
/// too: the cached plan carries the old estimates and must not replay.
#[test]
fn statistics_drift_invalidates_the_entry() {
    let q = workload::q1();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    let ast = parse_query(&q.sparql).unwrap();
    let mut engine = FederatedEngine::new(lake, config(true, false));

    let (before, _) = engine.plan_cached(&ast).unwrap();
    engine
        .lake_mut()
        .statistics_mut()
        .source_mut("chebi")
        .expect("chebi statistics")
        .scale(1000);
    let (after, origin) = engine.plan_cached(&ast).unwrap();
    assert!(!origin.cached, "drifted statistics must not replay");
    assert!(
        after.report.estimated_rows > before.report.estimated_rows,
        "the replan must price the drifted catalog ({} vs {})",
        after.report.estimated_rows,
        before.report.estimated_rows
    );
}

/// A health flip invalidates exactly the entries whose plans touch the
/// flipped endpoint: the other query's entry revalidates and still
/// hits.
#[test]
fn health_flips_invalidate_only_affected_entries() {
    let lake = build_lake_with(&lake_cfg(), &["chebi", "drugbank"]);
    let q1 = parse_query(&workload::q1().sparql).unwrap(); // chebi only
    let q2 = parse_query(&workload::q2().sparql).unwrap(); // drugbank only
    let engine = FederatedEngine::new(lake, config(false, false));

    engine.plan_cached(&q1).unwrap();
    engine.plan_cached(&q2).unwrap();

    // Failures on chebi move the health generation *and* chebi's digest.
    engine.health().observe("chebi", 0, 9);

    let (_, origin) = engine.plan_cached(&q2).unwrap();
    assert!(origin.cached, "drugbank's plan never consulted chebi's health");
    let (_, origin) = engine.plan_cached(&q1).unwrap();
    assert!(!origin.cached, "chebi's plan must replan under the new health");

    let stats = engine.plan_cache_stats();
    assert_eq!(stats.lookups, 4, "{stats:?}");
    assert_eq!(stats.hits, 1, "{stats:?}");
    assert_eq!(stats.invalidations, 1, "{stats:?}");
}

// --- the serving layer -----------------------------------------------------

/// Serving the same spec twice on one engine: the second run's jobs are
/// all replays, every answer byte-matches the first run and the job's
/// solo execution on a fresh engine (which plans it cold), and the
/// rollup's cache gauges reconcile with the engine's counters.
#[test]
fn serve_runs_reuse_plans_without_changing_answers() {
    let spec = ServeSpec {
        clients: 8,
        queries_per_client: 2,
        mix: Mix::default(),
        seed: 21,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 4,
        deadline: None,
    };
    let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, &spec.mix.datasets());

    let engine = FederatedEngine::new(lake.clone(), config(false, false));
    let first = run(&engine, &spec).unwrap();
    let second = run(&engine, &spec).unwrap();

    assert!(
        second.jobs.iter().all(|j| j.cached),
        "every second-run job replans a first-run query"
    );
    for ((a, b), inst) in
        first.outcome.outcomes.iter().zip(&second.outcome.outcomes).zip(&second.instances)
    {
        assert_eq!(a.label, b.label);
        let csv = sorted_csv(&a.vars, &a.rows);
        assert_eq!(csv, sorted_csv(&b.vars, &b.rows), "{}: across runs", a.label);
        let cold = solo_golden(&lake, config(false, false), &inst.sparql).unwrap();
        assert_eq!(csv, sorted_csv(&cold.vars, &cold.rows), "{}: vs a cold plan", a.label);
        assert_eq!(a.stats, b.stats, "{}", a.label);
    }
    assert_eq!(first.report, second.report, "the rollup is cache-invariant");

    let stats = engine.plan_cache_stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");
    assert!(stats.hits as usize >= second.jobs.len(), "{stats:?}");
    let gauge = |name: &str| match second.outcome.metrics.get(name) {
        Some(Metric::Gauge { last, .. }) => last,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(gauge("serve.plancache.lookups"), stats.lookups, "{stats:?}");
    assert_eq!(gauge("serve.plancache.hits"), stats.hits, "{stats:?}");
    assert_eq!(gauge("serve.plancache.misses"), stats.misses, "{stats:?}");
    let job_hits = second.outcome.metrics.counter("serve.plancache.job_hits");
    assert_eq!(job_hits as usize, second.jobs.len(), "all second-run jobs hit");
}
