//! The query optimizer: name resolution, predicate classification, access
//! path selection and greedy left-deep join ordering.
//!
//! The optimizer is deliberately index-driven: when a selection or join key
//! is covered by an index it produces an index access path, otherwise a
//! sequential scan. This is the behaviour the paper's heuristics rely on —
//! a physical-design-aware federated plan only wins if the underlying RDBMS
//! actually exploits its indexes.

use crate::error::SqlError;
use crate::plan::{AccessPath, JoinAlgo, PhysicalPlan, ScanNode};
use crate::sql::ast::{
    ColumnRef, JoinClause, Operand, Predicate, SelectItem, SelectStmt, SqlCmpOp,
};
use crate::stats::column_stats;
use crate::storage::Table;
use std::collections::HashMap;

/// Default selectivity guesses for non-equality predicates.
const RANGE_SELECTIVITY: f64 = 0.33;
const LIKE_SELECTIVITY: f64 = 0.25;
const NULL_SELECTIVITY: f64 = 0.05;

/// The catalog view the optimizer needs.
pub trait CatalogView {
    /// Resolves a table by name.
    fn table(&self, name: &str) -> Option<&Table>;
}

impl CatalogView for HashMap<String, Table> {
    fn table(&self, name: &str) -> Option<&Table> {
        self.get(name)
    }
}

/// An equi-join edge between two aliases.
#[derive(Debug, Clone)]
struct JoinEdge {
    left: ColumnRef,
    right: ColumnRef,
}

/// Plans a `SELECT` statement into a physical plan.
pub fn plan_select<C: CatalogView>(stmt: &SelectStmt, catalog: &C) -> Result<PhysicalPlan, SqlError> {
    // 1. Resolve aliases.
    let mut aliases: Vec<(String, String)> = Vec::new(); // (alias, table)
    let mut register = |alias: &str, table: &str| -> Result<(), SqlError> {
        if catalog.table(table).is_none() {
            return Err(SqlError::UnknownTable(table.to_string()));
        }
        aliases.push((alias.to_string(), table.to_string()));
        Ok(())
    };
    register(&stmt.from.alias, &stmt.from.table)?;
    for j in &stmt.joins {
        register(&j.table.alias, &j.table.table)?;
    }
    let alias_table: HashMap<&str, &str> = aliases
        .iter()
        .map(|(a, t)| (a.as_str(), t.as_str()))
        .collect();

    // 2. Qualify every column reference.
    let qualify = |c: &ColumnRef| -> Result<ColumnRef, SqlError> {
        if let Some(t) = &c.table {
            let table = alias_table
                .get(t.as_str())
                .ok_or_else(|| SqlError::UnknownTable(t.clone()))?;
            let tbl = catalog.table(table).expect("validated above");
            if tbl.schema.column_index(&c.column).is_none() {
                return Err(SqlError::UnknownColumn(format!("{t}.{}", c.column)));
            }
            return Ok(c.clone());
        }
        let mut owner: Option<&str> = None;
        for (alias, table) in &aliases {
            let tbl = catalog.table(table).expect("validated above");
            if tbl.schema.column_index(&c.column).is_some() {
                if owner.is_some() {
                    return Err(SqlError::AmbiguousColumn(c.column.clone()));
                }
                owner = Some(alias);
            }
        }
        match owner {
            Some(alias) => Ok(ColumnRef::qualified(alias, &c.column)),
            None => Err(SqlError::UnknownColumn(c.column.clone())),
        }
    };

    // 3. Classify predicates: per-alias selections vs. join edges.
    let mut selections: HashMap<String, Vec<Predicate>> = HashMap::new();
    let mut edges: Vec<JoinEdge> = Vec::new();
    let push_pred = |p: Predicate,
                         selections: &mut HashMap<String, Vec<Predicate>>,
                         edges: &mut Vec<JoinEdge>|
     -> Result<(), SqlError> {
        match p {
            Predicate::Compare { left, op, right } => {
                let left = qualify(&left)?;
                match right {
                    Operand::Column(r) => {
                        let r = qualify(&r)?;
                        if op == SqlCmpOp::Eq {
                            edges.push(JoinEdge { left, right: r });
                        } else {
                            return Err(SqlError::Internal(
                                "non-equality join predicates are not supported".into(),
                            ));
                        }
                    }
                    Operand::Literal(v) => {
                        let alias = left.table.clone().expect("qualified");
                        selections.entry(alias).or_default().push(Predicate::Compare {
                            left,
                            op,
                            right: Operand::Literal(v),
                        });
                    }
                }
            }
            Predicate::Like { col, pattern, negated } => {
                let col = qualify(&col)?;
                let alias = col.table.clone().expect("qualified");
                selections
                    .entry(alias)
                    .or_default()
                    .push(Predicate::Like { col, pattern, negated });
            }
            Predicate::IsNull { col, negated } => {
                let col = qualify(&col)?;
                let alias = col.table.clone().expect("qualified");
                selections
                    .entry(alias)
                    .or_default()
                    .push(Predicate::IsNull { col, negated });
            }
            Predicate::InList { col, values } => {
                let col = qualify(&col)?;
                let alias = col.table.clone().expect("qualified");
                selections
                    .entry(alias)
                    .or_default()
                    .push(Predicate::InList { col, values });
            }
        }
        Ok(())
    };
    for j in &stmt.joins {
        let jc: JoinClause = j.clone();
        push_pred(
            Predicate::Compare {
                left: jc.left,
                op: SqlCmpOp::Eq,
                right: Operand::Column(jc.right),
            },
            &mut selections,
            &mut edges,
        )?;
    }
    for p in &stmt.predicates {
        push_pred(p.clone(), &mut selections, &mut edges)?;
    }

    // 4. Estimate filtered cardinality per alias and build scan nodes.
    let mut scans: HashMap<String, ScanNode> = HashMap::new();
    for (alias, table_name) in &aliases {
        let table = catalog.table(table_name).expect("validated above");
        let preds = selections.remove(alias).unwrap_or_default();
        scans.insert(alias.clone(), build_scan(table, alias, table_name, preds));
    }

    // 5. Greedy left-deep join ordering: start at the smallest scan,
    //    repeatedly attach the connected table with the smallest estimate.
    let mut remaining: Vec<String> = aliases.iter().map(|(a, _)| a.clone()).collect();
    remaining.sort_by(|a, b| {
        scans[a]
            .estimated_rows
            .total_cmp(&scans[b].estimated_rows)
            .then_with(|| a.cmp(b))
    });
    let first = remaining.remove(0);
    let mut joined: Vec<String> = vec![first.clone()];
    let mut plan = PhysicalPlan::Scan(scans[&first].clone());
    let mut used_edges: Vec<bool> = vec![false; edges.len()];

    while !remaining.is_empty() {
        // Find connectable aliases.
        let mut candidate: Option<(usize, usize, f64)> = None; // (remaining idx, edge idx, est)
        for (ri, alias) in remaining.iter().enumerate() {
            for (ei, edge) in edges.iter().enumerate() {
                if used_edges[ei] {
                    continue;
                }
                let la = edge.left.table.as_deref().expect("qualified");
                let ra = edge.right.table.as_deref().expect("qualified");
                let connects = (joined.iter().any(|j| j == la) && ra == alias)
                    || (joined.iter().any(|j| j == ra) && la == alias);
                if connects {
                    let est = scans[alias].estimated_rows;
                    if candidate.is_none_or(|(_, _, best)| est < best) {
                        candidate = Some((ri, ei, est));
                    }
                }
            }
        }
        match candidate {
            Some((ri, ei, _)) => {
                let alias = remaining.remove(ri);
                used_edges[ei] = true;
                let edge = &edges[ei];
                // Orient the edge: left side must belong to the joined set.
                let (lk, rk) = if edge.right.table.as_deref() == Some(alias.as_str()) {
                    (edge.left.clone(), edge.right.clone())
                } else {
                    (edge.right.clone(), edge.left.clone())
                };
                let right_scan = scans[&alias].clone();
                let table = catalog
                    .table(alias_table[alias.as_str()])
                    .expect("validated above");
                // Index nested loop when the inner join column is indexed
                // and the inner scan isn't already narrowed by an index.
                let algo = if table.has_index_on(&rk.column) {
                    JoinAlgo::IndexNestedLoop
                } else {
                    JoinAlgo::Hash
                };
                plan = PhysicalPlan::Join {
                    left: Box::new(plan),
                    right: right_scan,
                    algo,
                    left_key: Some(lk),
                    right_key: Some(rk),
                };
                joined.push(alias);
            }
            None => {
                // Disconnected: cross join the smallest remaining table.
                let alias = remaining.remove(0);
                plan = PhysicalPlan::Join {
                    left: Box::new(plan),
                    right: scans[&alias].clone(),
                    algo: JoinAlgo::Cross,
                    left_key: None,
                    right_key: None,
                };
                joined.push(alias);
            }
        }
    }

    // Any join edges not consumed by ordering become residual filters.
    let residual: Vec<Predicate> = edges
        .iter()
        .zip(&used_edges)
        .filter(|(_, used)| !**used)
        .map(|(e, _)| Predicate::Compare {
            left: e.left.clone(),
            op: SqlCmpOp::Eq,
            right: Operand::Column(e.right.clone()),
        })
        .collect();
    if !residual.is_empty() {
        plan = PhysicalPlan::Filter { input: Box::new(plan), predicates: residual };
    }

    // 6. Modifiers: sort → project → distinct → limit.
    if !stmt.order_by.is_empty() {
        let keys = stmt
            .order_by
            .iter()
            .map(|k| {
                Ok(crate::sql::ast::SortKey { col: qualify(&k.col)?, asc: k.asc })
            })
            .collect::<Result<Vec<_>, SqlError>>()?;
        plan = PhysicalPlan::Sort { input: Box::new(plan), keys };
    }

    let mut columns = Vec::new();
    let mut names = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Star => {
                for (alias, table_name) in &aliases {
                    let table = catalog.table(table_name).expect("validated above");
                    for col in &table.schema.columns {
                        columns.push(ColumnRef::qualified(alias, &col.name));
                        names.push(col.name.clone());
                    }
                }
            }
            SelectItem::Column(c, as_name) => {
                let q = qualify(c)?;
                names.push(as_name.clone().unwrap_or_else(|| q.column.clone()));
                columns.push(q);
            }
        }
    }
    plan = PhysicalPlan::Project { input: Box::new(plan), columns, names };

    if stmt.distinct {
        plan = PhysicalPlan::Distinct(Box::new(plan));
    }
    if let Some(n) = stmt.limit {
        plan = PhysicalPlan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

/// True when a literal can be compared with values of a column type under
/// SQL semantics. Index paths must not be chosen for incompatible pairs:
/// the B-tree's total order ranks types (e.g. all text above all numbers),
/// so a cross-type range scan would return rows that `sql_cmp` treats as
/// UNKNOWN.
fn literal_compatible(table: &Table, column: &str, v: &crate::value::Value) -> bool {
    use crate::value::DataType;
    let Some(col) = table.schema.column(column) else { return false };
    matches!(
        (col.data_type, v.data_type()),
        (DataType::Int | DataType::Double, Some(DataType::Int | DataType::Double))
            | (DataType::Text, Some(DataType::Text))
            | (DataType::Bool, Some(DataType::Bool))
    )
}

/// Builds a scan node: chooses the access path among the alias's selection
/// predicates and estimates the result cardinality.
fn build_scan(table: &Table, alias: &str, table_name: &str, preds: Vec<Predicate>) -> ScanNode {
    let mut best: Option<(usize, AccessPath, f64)> = None; // (pred idx, path, selectivity)
    for (i, p) in preds.iter().enumerate() {
        let (col, path, sel) = match p {
            Predicate::Compare { left, op: SqlCmpOp::Eq, right: Operand::Literal(v) } => {
                if !literal_compatible(table, &left.column, v) {
                    continue;
                }
                let Some(idx) = table.index_on(&left.column) else { continue };
                let sel = column_stats(table, &left.column)
                    .map(|s| s.eq_selectivity())
                    .unwrap_or(0.1);
                (
                    left,
                    AccessPath::IndexEq { index: idx.name.clone(), key: v.clone() },
                    sel,
                )
            }
            Predicate::Compare { left, op, right: Operand::Literal(v) }
                if matches!(op, SqlCmpOp::Lt | SqlCmpOp::Le | SqlCmpOp::Gt | SqlCmpOp::Ge) =>
            {
                if !literal_compatible(table, &left.column, v) {
                    continue;
                }
                let Some(idx) = table.index_on(&left.column) else { continue };
                let (low, high) = match op {
                    SqlCmpOp::Gt => (Some((v.clone(), false)), None),
                    SqlCmpOp::Ge => (Some((v.clone(), true)), None),
                    SqlCmpOp::Lt => (None, Some((v.clone(), false))),
                    _ => (None, Some((v.clone(), true))),
                };
                (
                    left,
                    AccessPath::IndexRange { index: idx.name.clone(), low, high },
                    RANGE_SELECTIVITY,
                )
            }
            Predicate::InList { col, values } => {
                if !values.iter().all(|v| literal_compatible(table, &col.column, v)) {
                    continue;
                }
                let Some(idx) = table.index_on(&col.column) else { continue };
                let sel = column_stats(table, &col.column)
                    .map(|s| s.eq_selectivity() * values.len() as f64)
                    .unwrap_or(0.2);
                (
                    col,
                    AccessPath::IndexInList {
                        index: idx.name.clone(),
                        keys: values.clone(),
                    },
                    sel.min(1.0),
                )
            }
            _ => continue,
        };
        let _ = col;
        if best.as_ref().is_none_or(|(_, _, s)| sel < *s) {
            best = Some((i, path, sel));
        }
    }

    let mut residual = preds;
    let (path, _path_sel) = match best {
        Some((i, path, sel)) => {
            residual.remove(i);
            (path, sel)
        }
        None => (AccessPath::SeqScan, 1.0),
    };

    // Cardinality estimate: rows × path selectivity × residual
    // selectivities.
    let mut est = table.len() as f64;
    if let Some((_, _, sel)) = &best_selectivity(&path, table) {
        est *= sel;
    }
    for p in &residual {
        est *= predicate_selectivity(p, table);
    }
    ScanNode {
        table: table_name.to_string(),
        alias: alias.to_string(),
        path,
        residual,
        estimated_rows: est.max(1.0),
    }
}

fn best_selectivity<'a>(
    path: &'a AccessPath,
    table: &Table,
) -> Option<(&'a str, &'a AccessPath, f64)> {
    match path {
        AccessPath::SeqScan => None,
        AccessPath::IndexEq { index, .. } => {
            let sel = index_selectivity(table, index, 1);
            Some((index.as_str(), path, sel))
        }
        AccessPath::IndexRange { index, .. } => Some((index.as_str(), path, RANGE_SELECTIVITY)),
        AccessPath::IndexInList { index, keys } => {
            let sel = index_selectivity(table, index, keys.len());
            Some((index.as_str(), path, sel))
        }
    }
}

fn index_selectivity(table: &Table, index_name: &str, keys: usize) -> f64 {
    table
        .indexes()
        .iter()
        .find(|i| i.name == index_name)
        .map(|i| {
            if i.distinct_keys() == 0 {
                0.0
            } else {
                (keys as f64 / i.distinct_keys() as f64).min(1.0)
            }
        })
        .unwrap_or(0.1)
}

/// Heuristic selectivity of a residual predicate.
pub fn predicate_selectivity(p: &Predicate, table: &Table) -> f64 {
    match p {
        Predicate::Compare { left, op, right: Operand::Literal(_) } => match op {
            SqlCmpOp::Eq => column_stats(table, &left.column)
                .map(|s| s.eq_selectivity())
                .unwrap_or(0.1),
            SqlCmpOp::Ne => 0.9,
            _ => RANGE_SELECTIVITY,
        },
        Predicate::Compare { .. } => 0.1, // join-ish residual
        Predicate::Like { negated, .. } => {
            if *negated {
                1.0 - LIKE_SELECTIVITY
            } else {
                LIKE_SELECTIVITY
            }
        }
        Predicate::IsNull { negated, .. } => {
            if *negated {
                1.0 - NULL_SELECTIVITY
            } else {
                NULL_SELECTIVITY
            }
        }
        Predicate::InList { values, col } => {
            let per = column_stats(table, &col.column)
                .map(|s| s.eq_selectivity())
                .unwrap_or(0.1);
            (per * values.len() as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::sql::parser::parse;
    use crate::sql::Statement;
    use crate::value::{DataType, Value};

    fn catalog() -> HashMap<String, Table> {
        let mut m = HashMap::new();
        let mut gene = Table::new(
            TableSchema::new(
                "gene",
                vec![
                    Column::not_null("id", DataType::Text),
                    Column::new("species", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        for i in 0..20 {
            gene.insert(vec![
                Value::text(format!("g{i}")),
                Value::text(if i % 2 == 0 { "Homo sapiens" } else { "Mus musculus" }),
            ])
            .unwrap();
        }
        let mut gd = Table::new(
            TableSchema::new(
                "gene_disease",
                vec![
                    Column::not_null("gene", DataType::Text),
                    Column::not_null("disease", DataType::Text),
                ],
            )
            .with_primary_key(&["gene", "disease"]),
        )
        .unwrap();
        for i in 0..20 {
            gd.insert(vec![Value::text(format!("g{i}")), Value::text(format!("d{}", i % 5))])
                .unwrap();
        }
        m.insert("gene".to_string(), gene);
        m.insert("gene_disease".to_string(), gd);
        m
    }

    fn select(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn pk_equality_uses_index() {
        let c = catalog();
        let plan = plan_select(&select("SELECT * FROM gene WHERE id = 'g3'"), &c).unwrap();
        assert_eq!(plan.indexed_scan_count(), 1);
    }

    #[test]
    fn unindexed_filter_is_seq_scan() {
        let c = catalog();
        let plan =
            plan_select(&select("SELECT * FROM gene WHERE species = 'Homo sapiens'"), &c)
                .unwrap();
        assert_eq!(plan.indexed_scan_count(), 0);
        assert_eq!(plan.scan_count(), 1);
    }

    #[test]
    fn join_on_indexed_key_uses_inlj() {
        let c = catalog();
        let plan = plan_select(
            &select("SELECT * FROM gene_disease gd JOIN gene g ON gd.gene = g.id"),
            &c,
        )
        .unwrap();
        fn find_join(p: &PhysicalPlan) -> Option<JoinAlgo> {
            match p {
                PhysicalPlan::Join { algo, .. } => Some(*algo),
                PhysicalPlan::Filter { input, .. }
                | PhysicalPlan::Project { input, .. }
                | PhysicalPlan::Sort { input, .. }
                | PhysicalPlan::Limit { input, .. } => find_join(input),
                PhysicalPlan::Distinct(input) => find_join(input),
                PhysicalPlan::Scan(_) => None,
            }
        }
        // One side has an index on the join column (gene.id is PK or
        // gene_disease.gene is PK-prefix), so the optimizer picks INLJ.
        assert_eq!(find_join(&plan), Some(JoinAlgo::IndexNestedLoop));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let mut c = catalog();
        // Add a `species` column to gene_disease to force ambiguity.
        let mut t = Table::new(TableSchema::new(
            "gene_disease2",
            vec![
                Column::new("gene", DataType::Text),
                Column::new("species", DataType::Text),
            ],
        ))
        .unwrap();
        t.insert(vec![Value::text("g1"), Value::text("x")]).unwrap();
        c.insert("gene_disease2".to_string(), t);
        let err = plan_select(
            &select(
                "SELECT species FROM gene g JOIN gene_disease2 h ON g.id = h.gene",
            ),
            &c,
        );
        assert!(matches!(err, Err(SqlError::AmbiguousColumn(_))));
    }

    #[test]
    fn unknown_table_and_column() {
        let c = catalog();
        assert!(matches!(
            plan_select(&select("SELECT * FROM nope"), &c),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            plan_select(&select("SELECT nope FROM gene"), &c),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn cross_type_literal_never_uses_index_path() {
        // Regression: `a > 0` on an indexed TEXT column must not become an
        // index range scan — the B-tree total order would include every
        // text value, while SQL calls the comparison UNKNOWN.
        let mut c = HashMap::new();
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("a", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        t.insert(vec![Value::Int(0), Value::text("0")]).unwrap();
        t.create_index("idx_a", &["a".to_string()], false).unwrap();
        c.insert("t".to_string(), t);
        let plan = plan_select(&select("SELECT id FROM t WHERE a > 0"), &c).unwrap();
        assert_eq!(plan.indexed_scan_count(), 0);
        // And the residual predicate filters the row out.
        let (rel, _) = crate::exec::execute(&plan, &c).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn estimate_shrinks_with_filters() {
        let c = catalog();
        let all = plan_select(&select("SELECT * FROM gene"), &c).unwrap();
        let filtered =
            plan_select(&select("SELECT * FROM gene WHERE id = 'g3'"), &c).unwrap();
        fn est(p: &PhysicalPlan) -> f64 {
            match p {
                PhysicalPlan::Scan(s) => s.estimated_rows,
                PhysicalPlan::Join { right, .. } => right.estimated_rows,
                PhysicalPlan::Filter { input, .. }
                | PhysicalPlan::Project { input, .. }
                | PhysicalPlan::Sort { input, .. }
                | PhysicalPlan::Limit { input, .. } => est(input),
                PhysicalPlan::Distinct(input) => est(input),
            }
        }
        assert!(est(&filtered) < est(&all));
    }
}
