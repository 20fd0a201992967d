//! Cache-invalidation regression: a warm engine must see every write.
//!
//! Q1–Q5 run on a warm engine, one source is mutated through
//! `lake_mut().source_mut(id)` (four relational inserts built to add an
//! answer, one triple into a native RDF source) followed by
//! `refresh_templates()`, and Q1–Q5 run again. After every write the warm
//! engine's answers must be byte-equal (sorted CSV) to the lifted-graph
//! oracle *and* to a fresh engine over the mutated lake, with equal
//! `FedStats` — a cache hit may only ever change host time — across
//! {unaware, aware, aware+cost} × {serialized, overlapped} × {solo, serve}.
//!
//! Bind-join batches are cached like every other source request, so the
//! suite also holds its own coverage of them: under aware+cost some plan
//! must reach a written source *only* through a bind join, and that write
//! must turn cached batches stale — in the serve loop and in a solo run.

use fedlake::core::fedplan::FedPlan;
use fedlake::core::serve::{ServeConfig, ServeJob, ServeOutcome};
use fedlake::core::{DataLake, DataSource, FederatedEngine, PlanConfig, PlanMode};
use fedlake::datagen::vocab::pred;
use fedlake::datagen::{build_lake_with, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::rdf::Term;
use fedlake::relational::Value;
use fedlake::serve::sorted_csv;
use fedlake::sparql::ast::SelectQuery;
use fedlake::sparql::eval::evaluate;
use fedlake::sparql::parser::parse_query;
use std::collections::BTreeSet;

/// One write and the stock query (index into Q1–Q5) it must add answers to.
enum Write {
    Row { source: &'static str, table: &'static str, row: Vec<Value>, affects: usize },
    Triple { source: &'static str, s: Term, p: Term, o: Term, affects: usize },
}

impl Write {
    fn affects(&self) -> usize {
        match self {
            Write::Row { affects, .. } | Write::Triple { affects, .. } => *affects,
        }
    }

    fn source(&self) -> &'static str {
        match self {
            Write::Row { source, .. } | Write::Triple { source, .. } => source,
        }
    }

    fn label(&self) -> String {
        match self {
            Write::Row { source, table, .. } => format!("insert into {source}.{table}"),
            Write::Triple { source, .. } => format!("triple into {source}"),
        }
    }

    fn apply(&self, lake: &mut DataLake) {
        match self {
            Write::Row { source, table, row, .. } => match lake.source_mut(source) {
                Some(DataSource::Relational { db, .. }) => {
                    db.insert_row(table, row.clone()).expect("row fits the table")
                }
                _ => panic!("{source} is not relational"),
            },
            Write::Triple { source, s, p, o, .. } => match lake.source_mut(source) {
                Some(DataSource::Sparql { graph, .. }) => {
                    graph.insert_terms(s.clone(), p.clone(), o.clone());
                }
                _ => panic!("{source} is not an RDF source"),
            },
        }
        lake.refresh_templates();
    }
}

/// The lake Q1–Q5 read, with DrugBank mounted as a native RDF source so
/// one write goes through a `Graph`.
fn lake() -> DataLake {
    let cfg = LakeConfig {
        scale: 0.05,
        rdf_sources: vec!["drugbank".into()],
        ..Default::default()
    };
    build_lake_with(&cfg, &["chebi", "drugbank", "linkedct", "diseasome", "sider", "tcga"])
}

fn first_text(lake: &DataLake, source: &str, sql: &str) -> String {
    let Some(DataSource::Relational { db, .. }) = lake.source(source) else {
        panic!("{source} is not relational");
    };
    match db.query(sql).expect("set-up query").rows.first().and_then(|r| r.first()) {
        Some(Value::Text(s)) => s.clone(),
        other => panic!("{source}: `{sql}` returned {other:?}"),
    }
}

/// Rows built to match: each adds at least one answer to its query.
fn writes(lake: &DataLake) -> Vec<Write> {
    let disease = first_text(lake, "linkedct", "SELECT condition FROM trial");
    let drug = first_text(lake, "sider", "SELECT drug FROM drug_effect");
    let effect = first_text(lake, "sider", "SELECT id FROM side_effect");
    let patient = first_text(lake, "tcga", "SELECT id FROM patient");
    let cancer_gene = first_text(
        lake,
        "diseasome",
        "SELECT g.id FROM gene g JOIN disease d ON g.disease = d.id WHERE d.class = 'Cancer'",
    );
    // The drug of a "very rare" side effect, as DrugBank's graph names it.
    let rare = parse_query(&format!(
        "SELECT ?dr WHERE {{ ?de <{}> ?dr . ?de <{}> \"very rare\" . ?dr <{}> ?n }}",
        pred("sider", "drug"),
        pred("sider", "frequency"),
        pred("drugbank", "name"),
    ))
    .unwrap();
    let rare_drug = evaluate(&rare, &lake.oracle_graph()).unwrap()[0]
        .get(&fedlake::sparql::Var::new("dr"))
        .expect("?dr is bound")
        .clone();
    vec![
        Write::Row {
            source: "chebi",
            table: "compound",
            row: vec![
                Value::text("inv-c"),
                Value::text("invalidation acid"),
                Value::text("checked"),
                Value::Int(0),
                Value::Double(123.0),
            ],
            affects: 0,
        },
        Write::Row {
            source: "linkedct",
            table: "trial",
            row: vec![
                Value::text("inv-t"),
                Value::text("invalidation study"),
                Value::text("Phase 2"),
                Value::text("cat-7"),
                Value::text(disease),
            ],
            affects: 2,
        },
        Write::Row {
            source: "sider",
            table: "drug_effect",
            row: vec![
                Value::text("inv-de"),
                Value::text(drug),
                Value::text(effect),
                Value::text("very rare"),
            ],
            affects: 3,
        },
        Write::Row {
            source: "tcga",
            table: "expression",
            row: vec![
                Value::text("inv-x"),
                Value::text(patient),
                Value::text(cancer_gene),
                Value::Double(3.75),
            ],
            affects: 4,
        },
        Write::Triple {
            source: "drugbank",
            s: rare_drug,
            p: Term::iri(pred("drugbank", "name")),
            o: Term::literal("invalidation alias"),
            affects: 3,
        },
    ]
}

fn queries() -> Vec<(&'static str, SelectQuery)> {
    workload::experiment_queries()
        .into_iter()
        .map(|q| (q.id, parse_query(&q.sparql).unwrap()))
        .collect()
}

/// The oracle's answers to Q1–Q5 over `lake`, as sorted CSV.
fn oracle_answers(lake: &DataLake, queries: &[(&'static str, SelectQuery)]) -> Vec<String> {
    let graph = lake.oracle_graph();
    queries
        .iter()
        .map(|(_, ast)| {
            sorted_csv(&ast.effective_projection(), &evaluate(ast, &graph).unwrap())
        })
        .collect()
}

/// Adds the sources `plan` asks one-shot (`leaves`) and the ones it asks
/// batch by batch as a bind join's target (`bound`).
fn plan_sources(plan: &FedPlan, leaves: &mut BTreeSet<String>, bound: &mut BTreeSet<String>) {
    match plan {
        FedPlan::Service(node) => {
            leaves.insert(node.source_id.clone());
        }
        FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
            plan_sources(left, leaves, bound);
            plan_sources(right, leaves, bound);
        }
        FedPlan::BindJoin { left, right, .. } => {
            plan_sources(left, leaves, bound);
            bound.insert(right.source_id.clone());
        }
        FedPlan::Filter { input, .. } => plan_sources(input, leaves, bound),
        FedPlan::Union(branches) => {
            branches.iter().for_each(|b| plan_sources(b, leaves, bound));
        }
    }
}

fn serve_all(engine: &FederatedEngine, queries: &[(&'static str, SelectQuery)]) -> ServeOutcome {
    let jobs: Vec<ServeJob> = queries
        .iter()
        .enumerate()
        .map(|(client, (id, ast))| ServeJob {
            client,
            label: id.to_string(),
            planned: engine.plan(ast).unwrap(),
            deadline: None,
            cached: false,
        })
        .collect();
    engine.serve(&jobs, &ServeConfig::default()).unwrap()
}

/// Solo and served, the warm engine must agree with the oracle and with
/// fresh engines over the same lake, answers and statistics alike.
fn assert_current(
    warm: &FederatedEngine,
    queries: &[(&'static str, SelectQuery)],
    expected: &[String],
    ctx: &str,
) {
    let fresh = || FederatedEngine::new(warm.lake().clone(), *warm.config());
    let cold = fresh();
    for ((id, ast), expected) in queries.iter().zip(expected) {
        let w = warm.execute(ast).unwrap();
        let c = cold.execute(ast).unwrap();
        assert_eq!(&sorted_csv(&w.vars, &w.rows), expected, "{ctx} {id} solo: warm vs oracle");
        assert_eq!(&sorted_csv(&c.vars, &c.rows), expected, "{ctx} {id} solo: fresh vs oracle");
        assert_eq!(w.stats, c.stats, "{ctx} {id} solo: a hit re-charges what a miss charges");
    }
    let w = serve_all(warm, queries);
    let c = serve_all(&fresh(), queries);
    assert_eq!(w.makespan, c.makespan, "{ctx} serve: makespan");
    for (((id, _), expected), (w, c)) in
        queries.iter().zip(expected).zip(w.outcomes.iter().zip(&c.outcomes))
    {
        assert!(w.completed() && c.completed(), "{ctx} {id} serve: {:?} {:?}", w.error, c.error);
        assert_eq!(&sorted_csv(&w.vars, &w.rows), expected, "{ctx} {id} serve: warm vs oracle");
        assert_eq!(&sorted_csv(&c.vars, &c.rows), expected, "{ctx} {id} serve: fresh vs oracle");
        assert_eq!(w.stats, c.stats, "{ctx} {id} serve: per-session stats");
        assert_eq!(
            (w.latency, w.first_answer),
            (c.latency, c.first_answer),
            "{ctx} {id} serve: simulated timings"
        );
    }
}

#[test]
fn a_warm_engine_sees_every_write() {
    let base = lake();
    let writes = writes(&base);
    let queries = queries();

    // What the oracle answers before any write and after each one.
    let mut expected = vec![oracle_answers(&base, &queries)];
    let mut reference = base.clone();
    for w in &writes {
        w.apply(&mut reference);
        let after = oracle_answers(&reference, &queries);
        let before = expected.last().unwrap();
        assert!(
            after[w.affects()].lines().count() > before[w.affects()].lines().count(),
            "{} must add an answer to {}",
            w.label(),
            queries[w.affects()].0
        );
        expected.push(after);
    }

    for (planner, mode, cost_based) in [
        ("unaware", PlanMode::Unaware, false),
        ("aware", PlanMode::AWARE, false),
        ("aware+cost", PlanMode::AWARE, true),
    ] {
        for overlap in [false, true] {
            let mut cfg = PlanConfig::new(mode, NetworkProfile::GAMMA1);
            cfg.cost_based = cost_based;
            cfg.overlap = overlap;
            let schedule = if overlap { "overlapped" } else { "serialized" };
            let mut engine = FederatedEngine::new(base.clone(), cfg);
            // Twice, so the second pass runs on warm caches.
            for pass in ["cold", "warm"] {
                let ctx = format!("{planner}/{schedule} before any write ({pass})");
                assert_current(&engine, &queries, &expected[0], &ctx);
            }
            // The sources the warm plans reach through bind joins only:
            // every lifted result cached for one of them is a batch.
            let (mut leaves, mut bound) = (BTreeSet::new(), BTreeSet::new());
            for (_, ast) in &queries {
                plan_sources(&engine.plan(ast).unwrap().plan, &mut leaves, &mut bound);
            }
            let batched: Vec<&str> = bound.difference(&leaves).map(String::as_str).collect();
            assert!(
                !cost_based || writes.iter().any(|w| batched.contains(&w.source())),
                "{planner}/{schedule}: no write reaches a bind-join target (batched: {batched:?})"
            );
            for (w, expected) in writes.iter().zip(&expected[1..]) {
                w.apply(engine.lake_mut());
                let ctx = format!("{planner}/{schedule} after {}", w.label());
                if batched.contains(&w.source()) {
                    // The serve loop finds the target's batches stale …
                    let before = engine.cache_stats().lift.stale;
                    serve_all(&engine, &queries);
                    let served = engine.cache_stats().lift.stale;
                    assert!(served > before, "{ctx}: serve must drop the stale batches");
                    // … and so does a solo run, once the source was handed
                    // out again (which moves its version whatever the
                    // caller then does).
                    engine.lake_mut().source_mut(w.source()).expect("written source");
                    engine.lake_mut().refresh_templates();
                    engine.execute(&queries[w.affects()].1).unwrap();
                    let solo = engine.cache_stats().lift.stale;
                    assert!(solo > served, "{ctx}: a solo run must drop the stale batches");
                }
                assert_current(&engine, &queries, expected, &ctx);
            }
        }
    }
}
