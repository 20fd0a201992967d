//! Golden snapshot of the relational executor at the point the simulation
//! reads it: for the SQL of every stock Q1–Q5 service leaf under the three
//! planners (lake scale 0.05), and for two bind-join `IN (…)` batches (one
//! written out by hand, one rendered by `bind_batch_query` from duplicate
//! join terms and terms no stored value lifts to), the result rows *in
//! order* and the eight
//! `CostStats` counters.
//!
//! The counters are what `CostModel::rdb_time` turns into simulated time
//! and the row order is the order messages leave the source in, so this
//! pins every `sim_*` number at its origin: an executor change that keeps
//! this file byte-identical cannot move simulated time. Regenerate
//! deliberately with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test sql_leaf_golden
//! ```
//!
//! What the snapshot does not hold is the physical plan the relational
//! optimizer picks for each statement; `sql_plans_keep_their_values`
//! folds it, with the counters and row count, into one digest over every
//! statement the planner emits and a hand-written list of shapes it never
//! emits. That digest is not blessable.

use fedlake::core::fedplan::{BindTarget, FedPlan, ServiceKind};
use fedlake::core::ir::Fnv64;
use fedlake::core::planner::plan_query_with_health;
use fedlake::core::translate::{sql_single, Lift};
use fedlake::core::wrapper::bind_batch_query;
use fedlake::core::{
    DataLake, DataSource, FederatedEngine, HealthView, PlanConfig, PlanMode,
};
use fedlake::datagen::{build_lake, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::mapping::lift::{value_key, value_to_term};
use fedlake::rdf::Term;
use fedlake::relational::explain::explain;
use fedlake::relational::sql::{parse, Statement};
use fedlake::relational::{Database, Value};
use fedlake::sparql::parser::parse_query;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

mod common;

/// Keys shipped in the pinned bind-join batch.
const BATCH_KEYS: usize = 8;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sql_leaves.txt")
}

fn relational<'a>(lake: &'a DataLake, source: &str) -> &'a Database {
    match lake.source(source) {
        Some(DataSource::Relational { db, .. }) => db,
        _ => panic!("{source} is not a relational source"),
    }
}

/// One section: the SQL text, the counters, then every row in result order.
fn dump(out: &mut String, title: &str, db: &Database, sql: &str) {
    let rs = db
        .query(sql)
        .unwrap_or_else(|e| panic!("{title}: {sql}: {e}"));
    let c = rs.cost;
    writeln!(out, "## {title}").unwrap();
    writeln!(out, "sql: {sql}").unwrap();
    writeln!(
        out,
        "cost: rows_scanned={} index_probes={} index_rows={} filter_evals={} \
         hash_build_rows={} hash_probe_rows={} sort_rows={} rows_output={}",
        c.rows_scanned,
        c.index_probes,
        c.index_rows,
        c.filter_evals,
        c.hash_build_rows,
        c.hash_probe_rows,
        c.sort_rows,
        c.rows_output
    )
    .unwrap();
    writeln!(out, "columns: {}", rs.columns.join(",")).unwrap();
    for row in &rs.rows {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        writeln!(out, "{}", cells.join("\t")).unwrap();
    }
    out.push('\n');
}

/// Walks the plan left to right, dumping every SQL leaf; the first bind
/// join met also contributes, once its left input's leaves are out, one
/// `IN (…)` batch built the way `BindJoinOp` builds them.
fn walk(plan: &FedPlan, lake: &DataLake, label: &str, batch_done: &mut bool, out: &mut String) {
    let mut leaf = 0;
    // Bind joins whose left input is still being walked, with their depth:
    // the walk has left a bind join's input when it meets a node no deeper.
    let mut pending: Vec<(usize, &BindTarget)> = Vec::new();
    let mut left_done = |depth, pending: &mut Vec<(usize, &BindTarget)>, out: &mut String| {
        while pending.last().is_some_and(|&(d, _)| d >= depth) {
            let (_, right) = pending.pop().unwrap();
            if !*batch_done {
                *batch_done = true;
                dump_batches(right, lake, label, out);
            }
        }
    };
    plan.visit(0, &mut |node, depth| {
        left_done(depth, &mut pending, out);
        match node {
            FedPlan::Service(node) => {
                if let ServiceKind::Sql { request, .. } = &node.kind {
                    let title = format!("{label} leaf {leaf} @ {}", node.source_id);
                    dump(out, &title, relational(lake, &node.source_id), request.sql());
                }
                leaf += 1;
            }
            FedPlan::BindJoin { right, .. } => pending.push((depth, right)),
            _ => {}
        }
    });
    left_done(0, &mut pending, out);
}

/// The first `BATCH_KEYS` distinct non-NULL values of the bind column, in
/// table order.
fn batch_values<'a>(right: &BindTarget, db: &'a Database) -> Vec<&'a Value> {
    let table = db.table(&right.part.table).expect("bind target table");
    let pos = table
        .schema
        .column_index(&right.column.name)
        .expect("bind column");
    let mut keys: Vec<String> = Vec::new();
    let mut values: Vec<&Value> = Vec::new();
    for (_, row) in table.iter() {
        let k = row[pos].to_string();
        if !row[pos].is_null() && !keys.contains(&k) {
            keys.push(k);
            values.push(&row[pos]);
        }
        if keys.len() == BATCH_KEYS {
            break;
        }
    }
    values
}

/// The join term whose lift is the stored value `v` of the bind column.
fn term_of(right: &BindTarget, v: &Value) -> Term {
    match &right.column.lift {
        Lift::SubjectIri(tmpl) | Lift::RefIri(tmpl) => Term::iri(tmpl.apply(&value_key(v))),
        Lift::Literal(dt) => value_to_term(v, *dt),
    }
}

/// The two pinned batches of the bind join into `right`.
fn dump_batches(right: &BindTarget, lake: &DataLake, label: &str, out: &mut String) {
    let db = relational(lake, &right.source_id);
    let values = batch_values(right, db);
    let mut keys: Vec<String> = values.iter().map(ToString::to_string).collect();
    keys.push("'no-such-key'".to_string());
    let mut part = right.part.clone();
    part.wheres.push(format!(
        "{}.{} IN ({})",
        part.alias,
        right.column.name,
        keys.join(", ")
    ));
    let title = format!("{label} bind batch @ {}", right.source_id);
    dump(out, &title, db, &sql_single(&part).sql);

    // A second batch, rendered by `bind_batch_query` itself
    // from join terms: the same keys last first, each arriving
    // twice, among terms no stored value lifts to. Distinct
    // keys in first-seen order, the rest dropped.
    let keys_are_iris = !matches!(right.column.lift, Lift::Literal(_));
    let mut terms = vec![Term::iri("http://elsewhere.example/not-minted-here")];
    for v in values.iter().rev() {
        terms.push(term_of(right, v));
        if keys_are_iris {
            // The key as a literal is not an IRI the template minted.
            terms.push(Term::literal(value_key(v)));
        }
        terms.push(term_of(right, v));
    }
    let q = bind_batch_query(right, &terms);
    let title = format!("{label} bind batch (duplicates, strays) @ {}", right.source_id);
    dump(out, &title, db, &q.sql);
}

#[test]
fn service_leaf_sql_matches_the_golden_rows_and_counters() {
    let lake = build_lake(&LakeConfig {
        scale: 0.05,
        ..Default::default()
    });
    let planners: [(&str, PlanMode, bool); 3] = [
        ("unaware", PlanMode::Unaware, false),
        ("aware", PlanMode::AWARE, false),
        ("aware+cost", PlanMode::AWARE, true),
    ];
    let mut out = String::new();
    let mut batch_done = false;
    for (name, mode, cost_based) in planners {
        let mut cfg = PlanConfig::new(mode, NetworkProfile::NO_DELAY);
        cfg.cost_based = cost_based;
        let engine = FederatedEngine::new(lake.clone(), cfg);
        for q in workload::experiment_queries() {
            let planned = engine.plan(&parse_query(&q.sparql).unwrap()).unwrap();
            let label = format!("{} {name}", q.id);
            walk(
                &planned.plan,
                engine.lake(),
                &label,
                &mut batch_done,
                &mut out,
            );
        }
    }
    assert!(
        batch_done,
        "no planner produced a bind join: the IN-list path is unpinned"
    );

    let path = golden_path();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); bless with BLESS_GOLDEN=1")
    });
    if out != want {
        let line = out.lines().zip(want.lines()).position(|(a, b)| a != b);
        panic!(
            "executor output diverges from {path:?} at line {:?} ({} vs {} bytes)",
            line.map(|l| l + 1),
            out.len(),
            want.len()
        );
    }
}

// --- the physical plan of every SQL statement ------------------------------

/// Folds one statement into `digest`: its physical plan (the `EXPLAIN` text
/// and the `Debug` rendering, which carries every estimate to the bit), the
/// eight `CostStats` counters and the row count; or, for a statement the
/// database rejects, the error.
fn push_statement(digest: &mut Fnv64, source: &str, db: &Database, sql: &str) {
    digest.push_str(source).push_str(sql);
    let stmt = match parse(sql) {
        Ok(Statement::Select(stmt)) => stmt,
        other => panic!("{sql}: not a SELECT: {other:?}"),
    };
    let run = db.plan(&stmt).and_then(|plan| Ok((db.run_plan(&plan)?, plan)));
    match run {
        Ok((rs, plan)) => {
            digest.push_str(&explain(&plan)).push_str(&format!("{plan:?}"));
            let c = rs.cost;
            for n in [
                c.rows_scanned,
                c.index_probes,
                c.index_rows,
                c.filter_evals,
                c.hash_build_rows,
                c.hash_probe_rows,
                c.sort_rows,
                c.rows_output,
            ] {
                digest.push_u64(n);
            }
            digest.push_u64(rs.rows.len() as u64);
        }
        Err(e) => {
            digest.push_str(&e.to_string());
        }
    }
}

/// Shapes the engine's own SQL never takes — it reaches only sequential,
/// index and `IN`-list scans and index nested-loop joins — over the
/// diseasome source (`disease`, and `gene` referencing it): a hash join,
/// residual equi-join edges, a cross join, range scans, a self-join, a
/// tie in the join order, `ORDER BY` / `DISTINCT` / `LIMIT`, unqualified
/// columns over two tables, and the planner's error classes.
const HAND_WRITTEN: [&str; 25] = [
    "SELECT * FROM disease WHERE id = 'd3'",
    "SELECT id, name FROM disease WHERE id >= 'd1' AND id < 'd2'",
    "SELECT id FROM disease WHERE size > 100 AND class <> 'Cancer'",
    "SELECT id FROM disease WHERE id > 0",
    "SELECT id FROM gene WHERE label LIKE '%1%' AND chromosome IS NOT NULL",
    "SELECT id FROM gene WHERE label NOT LIKE '%1%' AND chromosome IS NULL",
    "SELECT id FROM gene WHERE id IN ('g1', 'g2', 'nope') AND disease IN ('d2', 'd5')",
    "SELECT a.id, b.id FROM gene a JOIN gene b ON a.chromosome = b.chromosome WHERE a.label = 'GENE1'",
    "SELECT g.id, d.id FROM gene g JOIN disease d ON g.chromosome = d.class WHERE g.label = 'GENE1'",
    "SELECT g.id FROM gene g JOIN disease d ON g.disease = d.id WHERE d.id = g.disease",
    "SELECT g.id, d.id FROM gene g JOIN disease d ON g.disease = g.disease \
     WHERE d.size < 60 AND g.chromosome = 'chr2'",
    "SELECT * FROM gene g JOIN disease d ON d.id = g.disease WHERE d.class = 'Cancer'",
    "SELECT label, name FROM gene JOIN disease ON gene.disease = disease.id WHERE size >= 100",
    "SELECT a.id, b.id FROM gene a JOIN gene b ON a.disease = b.disease WHERE a.id = 'g7'",
    "SELECT c.id FROM gene a JOIN gene b ON a.id = b.id JOIN gene c ON b.disease = c.disease",
    "SELECT DISTINCT class FROM disease ORDER BY class DESC LIMIT 3",
    "SELECT d.class, size FROM disease d WHERE size <= 100 ORDER BY d.size, id LIMIT 5",
    "SELECT DISTINCT g.disease AS dis FROM gene g JOIN disease d ON g.disease = d.id",
    "SELECT id FROM disease LIMIT 0",
    "SELECT * FROM nope",
    "SELECT x.id FROM gene g",
    "SELECT g.nope FROM gene g",
    "SELECT nope FROM gene",
    "SELECT id FROM gene g JOIN disease d ON g.disease = d.id",
    "SELECT g.id FROM gene g JOIN disease d ON g.disease = d.id WHERE g.id < d.id",
];

/// The physical plan of every SQL statement keeps its value: one digest
/// ([`push_statement`]) over each distinct `(source, SQL)` the planner
/// emits over [`common::plan_matrix`] with the serialized schedule (Q1–Q5
/// and QM × five plan modes × the four networks × {heuristic, cost-based}
/// × {optimized, naive} merges at lake scales {0.05, 0.25}) — service
/// leaves, and one `IN` batch per bind-join target — and over
/// [`HAND_WRITTEN`]. `sql_leaves.txt` pins the leaves' rows and counters,
/// not their plans. Not blessable: a move means a SQL plan, an estimate or
/// a counter changed.
#[test]
fn sql_plans_keep_their_values() {
    let lakes = common::plan_lakes();
    let queries: Vec<_> = workload::all().iter().map(|q| parse_query(&q.sparql).unwrap()).collect();
    let mut seen: [BTreeSet<(String, String)>; 2] = Default::default();
    let mut batches = 0;
    for point in common::plan_matrix(&[false]) {
        let (lake, config) = (&lakes[point.scale], &point.config);
        let ast = &queries[point.query];
        let planned = plan_query_with_health(ast, lake, config, &HealthView::empty())
            .unwrap_or_else(|e| panic!("query {}\n{config:?}: {e}", point.query));
        let seen = &mut seen[point.scale];
        planned.plan.visit(0, &mut |node, _| match node {
            FedPlan::Service(node) => {
                if let ServiceKind::Sql { request, .. } = &node.kind {
                    seen.insert((node.source_id.clone(), request.sql().to_string()));
                }
            }
            FedPlan::BindJoin { right, .. } => {
                let db = relational(lake, &right.source_id);
                let terms: Vec<Term> =
                    batch_values(right, db).into_iter().map(|v| term_of(right, v)).collect();
                let sql = bind_batch_query(right, &terms).sql;
                if seen.insert((right.source_id.clone(), sql)) {
                    batches += 1;
                }
            }
            _ => {}
        });
    }
    let mut digest = Fnv64::new();
    for (lake, seen) in lakes.iter().zip(&seen) {
        for (source, sql) in seen {
            push_statement(&mut digest, source, relational(lake, source), sql);
        }
    }
    let statements: usize = seen.iter().map(BTreeSet::len).sum();
    let diseasome = relational(&lakes[0], "diseasome");
    for sql in HAND_WRITTEN {
        push_statement(&mut digest, "diseasome", diseasome, sql);
    }

    assert!(batches > 0, "the pinned statements must reach an IN batch");
    assert_eq!(statements, 72, "the planner emits another set of SQL statements");
    assert_eq!(digest.finish(), 0x5d8d_d184_8e93_fcaa, "a SQL plan, estimate or counter moved");
}
