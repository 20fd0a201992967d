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
//!
//! The lift cache is *the* cache of source answers: a leaf or a batch is
//! lifted from the source's rows in place and never goes through the
//! source's SQL memo, before a write or after it, on either merge
//! translation — the naive N+1 one is a bind join of batch 1
//! (`leaves_never_touch_the_sql_memo`).

use fedlake::core::fedplan::FedPlan;
use fedlake::core::serve::{ServeConfig, ServeJob, ServeOutcome};
use fedlake::core::{
    DataLake, DataSource, FedStats, FederatedEngine, LakeStatistics, MergeTranslation,
    PlanConfig, PlanMode,
};
use fedlake::datagen::vocab::pred;
use fedlake::datagen::{build_lake_with, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::rdf::Term;
use fedlake::relational::storage::Table;
use fedlake::relational::{CacheStats, SqlError, Value};
use fedlake::serve::sorted_csv;
use fedlake::sparql::ast::SelectQuery;
use fedlake::sparql::eval::evaluate;
use fedlake::sparql::parser::parse_query;
use fedlake_prng::Prng;
use std::collections::BTreeSet;

mod common;

/// One write to one source of a lake.
enum Write {
    Row { source: String, table: String, row: Vec<Value> },
    Index { source: String, table: String, column: String, name: String },
    Triple { source: String, s: Term, p: Term, o: Term },
}

impl Write {
    fn row(source: &str, table: &str, row: Vec<Value>) -> Self {
        Write::Row { source: source.into(), table: table.into(), row }
    }

    fn source(&self) -> &str {
        match self {
            Write::Row { source, .. }
            | Write::Index { source, .. }
            | Write::Triple { source, .. } => source,
        }
    }

    fn label(&self) -> String {
        match self {
            Write::Row { source, table, .. } => format!("insert into {source}.{table}"),
            Write::Index { source, table, column, .. } => {
                format!("index on {source}.{table}({column})")
            }
            Write::Triple { source, .. } => format!("triple into {source}"),
        }
    }

    /// Hands the source out, writes, refreshes the catalog. A rejected
    /// write is returned; the hand-out and the refresh happened anyway.
    fn apply(&self, lake: &mut DataLake) -> Result<(), SqlError> {
        let source = lake.source_mut(self.source()).expect("the write names a source");
        let applied = match (self, source) {
            (Write::Row { table, row, .. }, DataSource::Relational { db, .. }) => {
                db.insert_row(table, row.clone())
            }
            (Write::Index { table, column, name, .. }, DataSource::Relational { db, .. }) => {
                db.create_index(table, name, std::slice::from_ref(column), false)
            }
            (Write::Triple { s, p, o, .. }, DataSource::Sparql { graph, .. }) => {
                graph.insert_terms(s.clone(), p.clone(), o.clone());
                Ok(())
            }
            _ => panic!("{} does not fit its source's data model", self.label()),
        };
        lake.refresh_templates();
        applied
    }
}

/// The lake Q1–Q5 read, with DrugBank mounted as a native RDF source so
/// one write goes through a `Graph`.
fn lake(scale: f64) -> DataLake {
    let cfg = LakeConfig {
        scale,
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

/// Writes built to match, each with the stock query (index into Q1–Q5) it
/// adds at least one answer to.
fn writes(lake: &DataLake) -> Vec<(Write, usize)> {
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
        (
            Write::row(
                "chebi",
                "compound",
                vec![
                    Value::text("inv-c"),
                    Value::text("invalidation acid"),
                    Value::text("checked"),
                    Value::Int(0),
                    Value::Double(123.0),
                ],
            ),
            0,
        ),
        (
            Write::row(
                "linkedct",
                "trial",
                vec![
                    Value::text("inv-t"),
                    Value::text("invalidation study"),
                    Value::text("Phase 2"),
                    Value::text("cat-7"),
                    Value::text(disease),
                ],
            ),
            2,
        ),
        (
            Write::row(
                "sider",
                "drug_effect",
                vec![
                    Value::text("inv-de"),
                    Value::text(drug),
                    Value::text(effect),
                    Value::text("very rare"),
                ],
            ),
            3,
        ),
        (
            Write::row(
                "tcga",
                "expression",
                vec![
                    Value::text("inv-x"),
                    Value::text(patient),
                    Value::text(cancer_gene),
                    Value::Double(3.75),
                ],
            ),
            4,
        ),
        (
            Write::Triple {
                source: "drugbank".into(),
                s: rare_drug,
                p: Term::iri(pred("drugbank", "name")),
                o: Term::literal("invalidation alias"),
            },
            3,
        ),
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
    plan.visit(0, &mut |node, _| match node {
        FedPlan::Service(node) => {
            leaves.insert(node.source_id.clone());
        }
        FedPlan::BindJoin { right, .. } => {
            bound.insert(right.source_id.clone());
        }
        _ => {}
    });
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
    let base = lake(0.05);
    let writes = writes(&base);
    let queries = queries();

    // What the oracle answers before any write and after each one.
    let mut expected = vec![oracle_answers(&base, &queries)];
    let mut reference = base.clone();
    for (w, affects) in &writes {
        w.apply(&mut reference).unwrap();
        let after = oracle_answers(&reference, &queries);
        let before = expected.last().unwrap();
        assert!(
            after[*affects].lines().count() > before[*affects].lines().count(),
            "{} must add an answer to {}",
            w.label(),
            queries[*affects].0
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
                !cost_based || writes.iter().any(|(w, _)| batched.contains(&w.source())),
                "{planner}/{schedule}: no write reaches a bind-join target (batched: {batched:?})"
            );
            for ((w, affects), expected) in writes.iter().zip(&expected[1..]) {
                w.apply(engine.lake_mut()).unwrap();
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
                    engine.execute(&queries[*affects].1).unwrap();
                    let solo = engine.cache_stats().lift.stale;
                    assert!(solo > served, "{ctx}: a solo run must drop the stale batches");
                }
                assert_current(&engine, &queries, expected, &ctx);
            }
            assert_eq!(
                sql_memo(engine.lake()),
                CacheStats::default(),
                "{planner}/{schedule}: every re-fetch after a write was lifted in place"
            );
        }
    }
}

/// The SQL memos of `lake`'s relational sources, summed.
fn sql_memo(lake: &DataLake) -> CacheStats {
    let mut sum = CacheStats::default();
    for source in lake.sources() {
        if let DataSource::Relational { db, .. } = source {
            sum += db.cache_stats();
        }
    }
    sum
}

/// In every cell of the matrix, Q1–Q5 leave the sources' SQL memos at zero
/// — not one lookup — on both merge translations, cold and warm.
#[test]
fn leaves_never_touch_the_sql_memo() {
    let base = lake(0.05);
    let queries = queries();
    let expected = oracle_answers(&base, &queries);
    common::for_each_cell(|cell| {
        let mut lake = base.clone();
        cell.replicate(&mut lake);
        for translation in [MergeTranslation::Optimized, MergeTranslation::Naive] {
            let mut cfg = cell.config(PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1));
            cfg.merge_translation = translation;
            let engine = FederatedEngine::new(lake.clone(), cfg);
            for pass in ["cold", "warm"] {
                for ((id, ast), expected) in queries.iter().zip(&expected) {
                    let r = engine.execute(ast).unwrap();
                    assert_eq!(
                        &sorted_csv(&r.vars, &r.rows),
                        expected,
                        "{translation:?} {id} {pass}"
                    );
                }
            }
            let stats = engine.cache_stats();
            assert!(stats.lift.misses > 0 && stats.lift.hits > 0, "{translation:?}: {stats:?}");
            assert_eq!(sql_memo(engine.lake()), CacheStats::default(), "{translation:?}");
        }
    });
}

/// A lake as its readers see it: the lifted triples and the statistics
/// catalog.
fn contents(lake: &DataLake) -> (BTreeSet<[Term; 3]>, LakeStatistics) {
    let graph = lake.oracle_graph();
    let term = |id| graph.term(id).expect("interned").clone();
    let triples = graph.iter().map(|t| [term(t.s), term(t.p), term(t.o)]).collect();
    (triples, lake.statistics().clone())
}

/// The catalog epoch and every source's data version.
fn counters(lake: &DataLake) -> (u64, Vec<u64>) {
    let versions = lake.sources().iter().map(|s| lake.source_version(s.id()).unwrap()).collect();
    (lake.epoch(), versions)
}

/// A random table of a random relational source of `lake`, with the
/// source's id.
fn random_table<'a>(lake: &'a DataLake, rng: &mut Prng) -> (&'a str, &'a Table) {
    let relational: Vec<_> = lake
        .sources()
        .iter()
        .filter_map(|s| match s {
            DataSource::Relational { id, db, .. } => Some((id.as_str(), db)),
            DataSource::Sparql { .. } => None,
        })
        .collect();
    let (id, db) = relational[rng.gen_range(0..relational.len())];
    let names = db.table_names();
    (id, db.table(names[rng.gen_range(0..names.len())]).unwrap())
}

/// A copy of a random row of `lake`: under a fresh key when `key` is given,
/// verbatim — a duplicate the table must reject — otherwise.
fn copied_row(lake: &DataLake, key: Option<String>, rng: &mut Prng) -> Write {
    let (source, table) = random_table(lake, rng);
    let mut row = table.row(rng.gen_range(0..table.len())).unwrap().to_vec();
    if let Some(key) = key {
        let at = table.schema.column_index(&table.schema.primary_key[0]).unwrap();
        row[at] = Value::text(key);
    }
    Write::row(source, &table.schema.name, row)
}

/// A random write against `lake` as it stands: a row that joins like an
/// existing one, a duplicate key, a secondary index, or one more literal
/// for an existing subject and predicate of the RDF source.
fn random_write(lake: &DataLake, step: usize, rng: &mut Prng) -> Write {
    match rng.gen_range(0..10usize) {
        0..=4 => copied_row(lake, Some(format!("iso-{step}")), rng),
        5 => copied_row(lake, None, rng),
        6 => {
            let (source, table) = random_table(lake, rng);
            let columns = &table.schema.columns;
            Write::Index {
                source: source.into(),
                table: table.schema.name.clone(),
                column: columns[rng.gen_range(0..columns.len())].name.clone(),
                name: format!("iso_{step}"),
            }
        }
        _ => {
            let (source, graph) = lake
                .sources()
                .iter()
                .find_map(|s| match s {
                    DataSource::Sparql { id, graph } => Some((id.clone(), graph)),
                    DataSource::Relational { .. } => None,
                })
                .expect("the lake mounts an RDF source");
            let literals: Vec<_> =
                graph.iter().filter(|t| graph.term(t.o).unwrap().is_literal()).collect();
            let t = literals[rng.gen_range(0..literals.len())];
            Write::Triple {
                source,
                s: graph.term(t.s).unwrap().clone(),
                p: graph.term(t.p).unwrap().clone(),
                o: Term::literal(format!("iso {step}")),
            }
        }
    }
}

/// Sharing is invisible: three values of one lake — the original and two
/// clones, which share every table and the graph until written — each under
/// a warm engine, take 60 random writes between them. Beside each sits a
/// twin built from scratch, which shares nothing and takes the same writes.
/// After every write each lake reads like its twin, only the written lake's
/// counters moved, and the two engines that were not written to replay
/// Q1–Q5 — answers and `FedStats` — exactly as before.
#[test]
fn a_write_to_one_lake_value_never_shows_in_another() {
    let mut rng = Prng::seed_from_u64(0x150_1A7E);
    let queries = queries();
    let base = lake(0.01);
    let planners = [(PlanMode::Unaware, false), (PlanMode::AWARE, false), (PlanMode::AWARE, true)];
    let mut engines: Vec<FederatedEngine> = [base.clone(), base.clone(), base]
        .into_iter()
        .zip(planners)
        .map(|(lake, (mode, cost_based))| {
            let mut cfg = PlanConfig::new(mode, NetworkProfile::GAMMA1);
            cfg.cost_based = cost_based;
            cfg.overlap = true;
            FederatedEngine::new(lake, cfg)
        })
        .collect();
    let mut twins: Vec<DataLake> = engines.iter().map(|_| lake(0.01)).collect();
    let mut twin_contents: Vec<_> = twins.iter().map(contents).collect();

    // Q1–Q5 on `engine` as sorted CSV and `FedStats`.
    let replay = |engine: &FederatedEngine| -> Vec<(String, FedStats)> {
        let run = |(_, ast): &(&str, SelectQuery)| {
            let r = engine.execute(ast).unwrap();
            (sorted_csv(&r.vars, &r.rows), r.stats)
        };
        queries.iter().map(run).collect()
    };
    // The same, checked against the oracle over the engine's own lake.
    let replay_checked = |engine: &FederatedEngine, ctx: &str| {
        let seen = replay(engine);
        let expected = oracle_answers(engine.lake(), &queries);
        for (((id, _), (csv, _)), expected) in queries.iter().zip(&seen).zip(&expected) {
            assert_eq!(csv, expected, "{ctx} {id}: engine vs its own oracle");
        }
        seen
    };
    let mut seen: Vec<_> = engines.iter().map(|e| replay_checked(e, "before any write")).collect();

    let (mut rejected, mut indexes, mut triples) = (0, 0, 0);
    for step in 0..60 {
        let written = rng.gen_range(0..engines.len());
        // The first write is a duplicate key into a table all three share.
        let write = match step {
            0 => copied_row(engines[written].lake(), None, &mut rng),
            _ => random_write(engines[written].lake(), step, &mut rng),
        };
        let ctx = format!("step {step}, lake {written}, {}", write.label());
        let before: Vec<_> = engines.iter().map(|e| counters(e.lake())).collect();

        let applied = write.apply(engines[written].lake_mut());
        assert_eq!(applied, write.apply(&mut twins[written]), "{ctx}: the twin agrees");
        match (&write, &applied) {
            // `twin_contents` stays: the lake must read as it did.
            (Write::Row { .. }, Err(SqlError::Constraint(_))) => rejected += 1,
            (_, Err(e)) => panic!("{ctx}: {e}"),
            (_, Ok(())) => {
                twin_contents[written] = contents(&twins[written]);
                indexes += usize::from(matches!(write, Write::Index { .. }));
                triples += usize::from(matches!(write, Write::Triple { .. }));
            }
        }

        let at = engines[written].lake().sources().iter().position(|s| s.id() == write.source());
        for (k, engine) in engines.iter().enumerate() {
            assert_eq!(contents(engine.lake()), twin_contents[k], "{ctx}: lake {k} vs its twin");
            let (epoch, versions) = counters(engine.lake());
            let (epoch_before, versions_before) = &before[k];
            if k != written {
                assert_eq!((epoch, &versions), (*epoch_before, versions_before), "{ctx}: lake {k}");
                assert_eq!(replay(engine), seen[k], "{ctx}: engine {k} replays what it answered");
                continue;
            }
            assert!(epoch > *epoch_before, "{ctx}: the written lake's epoch");
            for (i, (now, was)) in versions.iter().zip(versions_before).enumerate() {
                assert_eq!(*now, was + u64::from(Some(i) == at), "{ctx}: source {i}'s version");
            }
            seen[k] = replay_checked(engine, &ctx);
        }
    }
    assert!(rejected > 1 && indexes > 0 && triples > 0, "{rejected} {indexes} {triples}");
}
