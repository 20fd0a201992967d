//! The lift plan: a leaf lifts only the cells something above it reads
//! (DESIGN §19). One warm engine answers, in turn, queries whose leaves
//! send the same SQL but read different cells — another projection, or
//! another engine FILTER over the same star — and every answer must equal
//! the oracle's: two plans of one request that read different cells must
//! not share a lift-cache entry. Nor may two FILTERs share the verdicts the
//! engine keeps for a one-slot conjunct unless they are one function of
//! the slot's id (DESIGN §20).

use fedlake::core::fedplan::{FedPlan, ServiceKind, ServiceNode};
use fedlake::core::{FederatedEngine, PlanConfig, PlanMode};
use fedlake::datagen::{build_lake_with, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::rdf::{Graph, Term};
use fedlake::sparql::binding::Var;
use fedlake::sparql::eval::evaluate;
use fedlake::sparql::parser::parse_query;
use std::collections::BTreeSet;

mod common;

fn small() -> LakeConfig {
    LakeConfig {
        scale: 0.15,
        ..Default::default()
    }
}

/// The three planners: unaware, aware, aware + cost.
fn planners(network: NetworkProfile) -> [(&'static str, PlanConfig); 3] {
    let mut cost = PlanConfig::new(PlanMode::AWARE, network);
    cost.cost_based = true;
    [
        ("unaware", PlanConfig::new(PlanMode::Unaware, network)),
        ("aware", PlanConfig::new(PlanMode::AWARE, network)),
        ("aware+cost", cost),
    ]
}

/// The SQL text of every leaf of a plan.
fn leaf_sql(plan: &FedPlan, out: &mut BTreeSet<String>) {
    plan.visit(0, &mut |node, _| {
        if let FedPlan::Service(ServiceNode { kind: ServiceKind::Sql { request, .. }, .. }) = node {
            out.insert(request.sql().to_string());
        }
    });
}

fn sql_of(engine: &FederatedEngine, sparql: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    leaf_sql(
        &engine.plan(&parse_query(sparql).unwrap()).unwrap().plan,
        &mut out,
    );
    out
}

/// The answers as a sorted multiset.
fn lines(rows: &[fedlake::sparql::Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
    out.sort();
    out
}

/// Runs `queries` in turn, twice over, on one engine per planner and
/// network, each answer against the oracle; returns the oracle's answer
/// counts.
fn in_turn_on_one_engine(datasets: &[&str], queries: &[String]) -> Vec<usize> {
    let lake = build_lake_with(&small(), datasets);
    let oracle: Graph = lake.oracle_graph();
    let want: Vec<Vec<String>> = queries
        .iter()
        .map(|q| lines(&evaluate(&parse_query(q).unwrap(), &oracle).unwrap()))
        .collect();
    for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
        for (label, config) in planners(network) {
            let engine = FederatedEngine::new(lake.clone(), config);
            for round in 0..2 {
                for (sparql, want) in queries.iter().zip(&want) {
                    let got = engine.execute_sparql(sparql).unwrap();
                    assert_eq!(
                        &lines(&got.rows),
                        want,
                        "{label} / {} round {round}:\n{sparql}\n{}",
                        network.name,
                        got.explain
                    );
                }
            }
        }
    }
    want.iter().map(Vec::len).collect()
}

/// Q1 with and without `?m` in the projection: one leaf SQL, and only one
/// of the two reads the mass column.
#[test]
fn one_warm_engine_answers_two_projections_of_one_leaf() {
    let with_m = workload::q1().sparql;
    let without_m = with_m.replacen("SELECT ?c ?n ?m", "SELECT ?c ?n", 1);
    assert_ne!(with_m, without_m);
    let lake = build_lake_with(&small(), &["chebi"]);
    for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
        for (label, config) in planners(network) {
            let engine = FederatedEngine::new(lake.clone(), config);
            assert_eq!(
                sql_of(&engine, &without_m),
                sql_of(&engine, &with_m),
                "{label}"
            );
        }
    }
    let counts = in_turn_on_one_engine(&["chebi"], &[without_m, with_m]);
    assert!(counts.iter().all(|n| *n > 0), "{counts:?}");
}

/// The stock queries' lift plans at scale 1.0, Gamma1 (`adhoc_cold`'s
/// network): per query and planner, the variables some leaf leaves unlifted
/// and the variables its guards read. An unread variable is a star's
/// subject nothing joins on or projects (Q2's `?dt`, Q4's `?de`), an
/// unprojected object (Q2's `?m`), a join variable that Heuristic 1 took
/// into SQL (Q2's `?dr`, Q4's `?se`, Q5's `?d`) or the column of a pushed
/// FILTER (Q3's `?cat`).
#[test]
fn stock_queries_lift_what_their_plans_read() {
    const WANT: [(&str, [(&str, &str); 3]); 5] = [
        ("Q1", [("", "?n"), ("", ""), ("", "")]),
        (
            "Q2",
            [("?dt ?m", ""), ("?dr ?dt ?m", ""), ("?dr ?dt ?m", "")],
        ),
        ("Q3", [("", "?cat"), ("?cat", ""), ("?cat", "")]),
        (
            "Q4",
            [("?de", "?fr"), ("?de ?se", "?fr"), ("?de ?se", "?fr")],
        ),
        ("Q5", [("", "?cl ?v"), ("?d", "?cl ?v"), ("?d", "?cl")]),
    ];
    let lake = fedlake::datagen::build_lake(&LakeConfig::default());
    for (q, (id, want)) in workload::experiment_queries().into_iter().zip(WANT) {
        assert_eq!(q.id, id);
        for ((label, config), want) in planners(NetworkProfile::GAMMA1).into_iter().zip(want) {
            let engine = FederatedEngine::new(lake.clone(), config);
            let planned = engine.plan(&parse_query(&q.sparql).unwrap()).unwrap();
            let names = |vars: Vec<String>| -> String {
                vars.into_iter()
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            // Every lift plan of the plan: its leaves' and its bind-join
            // targets'.
            let mut lifts = Vec::new();
            planned.plan.visit(0, &mut |node, _| match node {
                FedPlan::Service(s) => lifts.push(&s.lift),
                FedPlan::BindJoin { right, .. } => lifts.push(&right.lift),
                _ => {}
            });
            let unread =
                names(lifts.iter().flat_map(|l| l.unread()).map(|v| v.to_string()).collect());
            let guarded = names(
                lifts
                    .iter()
                    .flat_map(|l| l.guards())
                    .flat_map(|g| g.vars())
                    .map(|v| v.to_string())
                    .collect(),
            );
            assert_eq!((unread.as_str(), guarded.as_str()), want, "{id} {label}");
        }
    }
}

/// Only an engine FILTER's direct input is guarded (`planner::lower`): a
/// guarded leaf hands each row its guards reject up as `RowId::DROPPED`,
/// which only a FILTER over it may receive. Over every plan of the plan
/// matrix (QM and Q1–Q5), each leaf with guards sits straight under a
/// FILTER, no bind-join target has guards, and some leaves do.
#[test]
fn only_a_filters_direct_input_is_guarded() {
    use fedlake::core::planner::plan_query_with_health;
    use fedlake::core::HealthView;
    let (lakes, queries) = (common::plan_lakes(), workload::all());
    let mut guarded = 0;
    for point in common::plan_matrix(&[false, true]) {
        let (lake, q) = (&lakes[point.scale], &queries[point.query]);
        let ast = parse_query(&q.sparql).unwrap();
        let planned = plan_query_with_health(&ast, lake, &point.config, &HealthView::empty())
            .unwrap_or_else(|e| panic!("{} {:?}: {e}", q.id, point.config));
        let (mut leaves, mut under_filter) = (0, 0);
        planned.plan.visit(0, &mut |node, _| match node {
            FedPlan::Service(s) if !s.lift.guards().is_empty() => leaves += 1,
            FedPlan::Filter { input, .. } => {
                if let FedPlan::Service(s) = &**input {
                    under_filter += usize::from(!s.lift.guards().is_empty());
                }
            }
            FedPlan::BindJoin { right, .. } => {
                assert!(right.lift.guards().is_empty(), "{} {:?}", q.id, point.config);
            }
            _ => {}
        });
        assert_eq!(leaves, under_filter, "{} {:?}:\n{:?}", q.id, point.config, planned.plan);
        guarded += leaves;
    }
    assert!(guarded > 0, "the matrix must reach a guarded leaf");
}

/// Q3-unaware keeps the trials of one category at the engine: the lift
/// interns the titles of those trials only, and every one of them.
#[test]
fn q3_unaware_interns_the_titles_of_kept_trials_only() {
    let q3 = workload::q3();
    let lake = build_lake_with(&LakeConfig::default(), q3.datasets);
    let oracle = lake.oracle_graph();
    let title = fedlake::datagen::vocab::pred("linkedct", "title");
    let category = fedlake::datagen::vocab::pred("linkedct", "category");
    let trials = format!("SELECT ?ti ?cat WHERE {{ ?t <{title}> ?ti . ?t <{category}> ?cat }}");
    let rows = evaluate(&parse_query(&trials).unwrap(), &oracle).unwrap();
    let (ti, cat) = (Var::new("ti"), Var::new("cat"));
    let kept: BTreeSet<Term> = rows
        .iter()
        .filter(|r| r.get(&cat) == Some(&Term::literal("cat-7")))
        .map(|r| r.get(&ti).unwrap().clone())
        .collect();
    let dropped: BTreeSet<Term> = rows
        .iter()
        .map(|r| r.get(&ti).unwrap().clone())
        .filter(|t| !kept.contains(t))
        .collect();
    assert!(!kept.is_empty() && !dropped.is_empty());

    let engine = FederatedEngine::new(lake, PlanConfig::unaware(NetworkProfile::GAMMA1));
    engine.execute_sparql(&q3.sparql).unwrap();
    let dict = engine.interner().lock();
    assert!(
        kept.iter().all(|t| dict.id(t).is_some()),
        "a kept trial's title is missing"
    );
    let interned: Vec<&Term> = dropped.iter().filter(|t| dict.id(t).is_some()).collect();
    assert!(
        interned.is_empty(),
        "{} titles of dropped trials interned",
        interned.len()
    );
}

/// Q3 under `cat-7`, then under `cat-12`: where the filter stays at the
/// engine, one leaf SQL under two FILTERs that keep different trials.
#[test]
fn one_warm_engine_answers_q3_under_two_categories() {
    let cat7 = workload::q3().sparql;
    let cat12 = cat7.replacen("\"cat-7\"", "\"cat-12\"", 1);
    assert_ne!(cat7, cat12);
    let datasets = workload::q3().datasets;
    let lake = build_lake_with(&small(), datasets);
    let unaware = FederatedEngine::new(lake, PlanConfig::unaware(NetworkProfile::NO_DELAY));
    assert_eq!(sql_of(&unaware, &cat7), sql_of(&unaware, &cat12));
    let counts = in_turn_on_one_engine(datasets, &[cat7, cat12]);
    assert!(counts.iter().all(|n| *n > 0), "{counts:?}");
}

/// One FILTER text over two variables: `?a = "…" || BOUND(?b)` keeps the
/// compounds of one name where the query binds `?a`, and every compound
/// where it binds `?b` (the schema does not know `?a`, so it reads as
/// unbound). Both read the same name terms, so a verdict memo keyed by the
/// text alone would answer the second query with the first one's verdicts.
#[test]
fn one_warm_engine_keeps_one_filter_text_over_two_variables_apart() {
    let lake = build_lake_with(&small(), &["chebi"]);
    let (compound, name) = (
        fedlake::datagen::vocab::class("chebi", "Compound"),
        fedlake::datagen::vocab::pred("chebi", "name"),
    );
    let first = format!("SELECT ?n WHERE {{ ?c <{name}> ?n }} ORDER BY ?n LIMIT 1");
    let first = evaluate(&parse_query(&first).unwrap(), &lake.oracle_graph()).unwrap();
    let Some(Term::Literal(lit)) = first[0].get(&Var::new("n")) else {
        panic!("{first:?}")
    };
    let binding = |var: &str| {
        format!(
            "SELECT ?c ?{var} WHERE {{ ?c a <{compound}> . ?c <{name}> ?{var} .\n\
               FILTER(?a = \"{}\" || BOUND(?b)) }}",
            lit.lexical
        )
    };
    let counts = in_turn_on_one_engine(&["chebi"], &[binding("a"), binding("b")]);
    assert!(0 < counts[0] && counts[0] < counts[1], "{counts:?}");
}
