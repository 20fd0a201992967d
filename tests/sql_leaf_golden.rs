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

use fedlake::core::fedplan::{BindTarget, FedPlan, ServiceKind};
use fedlake::core::translate::{sql_single, Lift};
use fedlake::core::wrapper::bind_batch_query;
use fedlake::core::{DataLake, DataSource, FederatedEngine, PlanConfig, PlanMode};
use fedlake::datagen::{build_lake, workload, LakeConfig};
use fedlake::netsim::NetworkProfile;
use fedlake::mapping::lift::{value_key, value_to_term};
use fedlake::rdf::Term;
use fedlake::relational::{Database, Value};
use fedlake::sparql::parser::parse_query;
use std::fmt::Write as _;
use std::path::PathBuf;

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

/// The two pinned batches of the bind join into `right`.
fn dump_batches(right: &BindTarget, lake: &DataLake, label: &str, out: &mut String) {
    let db = relational(lake, &right.source_id);
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
    let term_of = |v: &Value| match &right.column.lift {
        Lift::SubjectIri(tmpl) | Lift::RefIri(tmpl) => Term::iri(tmpl.apply(&value_key(v))),
        Lift::Literal(dt) => value_to_term(v, *dt),
    };
    let mut terms = vec![Term::iri("http://elsewhere.example/not-minted-here")];
    for v in values.iter().rev() {
        terms.push(term_of(v));
        if keys_are_iris {
            // The key as a literal is not an IRI the template minted.
            terms.push(Term::literal(value_key(v)));
        }
        terms.push(term_of(v));
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
