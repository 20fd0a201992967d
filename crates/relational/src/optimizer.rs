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
use crate::sql::ast::{ColumnRef, Operand, Predicate, SelectItem, SelectStmt, SortKey, SqlCmpOp};
use crate::storage::Table;
use std::collections::HashMap;

/// Default selectivity guesses for non-equality predicates.
const RANGE_SELECTIVITY: f64 = 0.33;
const LIKE_SELECTIVITY: f64 = 0.25;
const NULL_SELECTIVITY: f64 = 0.05;

/// One FROM table, resolved once: the alias its columns are exposed
/// under, its catalog name and the table. A statement's parts are in FROM
/// order; the executor's relation (`exec.rs`) holds the same parts, alias
/// and table, in the order the plan joins them.
struct Part<'a> {
    alias: &'a str,
    name: &'a str,
    table: &'a Table,
}

/// A column reference qualified to the part that owns it: the part's
/// index, and the reference as the plan spells it.
type Qualified = (usize, ColumnRef);

/// An equi-join edge between two parts.
struct JoinEdge {
    left: Qualified,
    right: Qualified,
}

/// The one column a selection tests.
fn tested_column(p: &mut Predicate) -> &mut ColumnRef {
    match p {
        Predicate::Compare { left: col, .. }
        | Predicate::Like { col, .. }
        | Predicate::IsNull { col, .. }
        | Predicate::InList { col, .. } => col,
    }
}

/// Plans a `SELECT` statement into a physical plan.
pub(crate) fn plan_select(
    stmt: &SelectStmt,
    catalog: &HashMap<String, Table>,
) -> Result<PhysicalPlan, SqlError> {
    // 1. Resolve the FROM clause into parts; an alias names one part.
    let from = std::iter::once(&stmt.from).chain(stmt.joins.iter().map(|j| &j.table));
    let mut parts: Vec<Part> = Vec::with_capacity(1 + stmt.joins.len());
    for t in from {
        let table = catalog.get(&t.table).ok_or_else(|| SqlError::UnknownTable(t.table.clone()))?;
        if parts.iter().any(|p| p.alias == t.alias) {
            return Err(SqlError::AlreadyExists(format!("FROM alias {}", t.alias)));
        }
        parts.push(Part { alias: &t.alias, name: &t.table, table });
    }

    // 2. Qualify a column reference to the part that owns it.
    let qualify = |c: &ColumnRef| -> Result<Qualified, SqlError> {
        let owns = |p: &Part| p.table.schema.column_index(&c.column).is_some();
        let part = match &c.table {
            Some(t) => {
                let unknown = || SqlError::UnknownTable(t.clone());
                let part = parts.iter().position(|p| p.alias == t).ok_or_else(unknown)?;
                if !owns(&parts[part]) {
                    return Err(SqlError::UnknownColumn(format!("{t}.{}", c.column)));
                }
                part
            }
            None => {
                let mut owners = (0..parts.len()).filter(|&i| owns(&parts[i]));
                let part =
                    owners.next().ok_or_else(|| SqlError::UnknownColumn(c.column.clone()))?;
                if owners.next().is_some() {
                    return Err(SqlError::AmbiguousColumn(c.column.clone()));
                }
                part
            }
        };
        Ok((part, ColumnRef::qualified(parts[part].alias, &c.column)))
    };

    // 3. Classify predicates: per-part selections vs. join edges.
    let mut selections: Vec<Vec<Predicate>> = parts.iter().map(|_| Vec::new()).collect();
    let mut edges: Vec<JoinEdge> = Vec::new();
    let join_edge = |left: &ColumnRef, op: SqlCmpOp, right: &ColumnRef| {
        let edge = JoinEdge { left: qualify(left)?, right: qualify(right)? };
        if op != SqlCmpOp::Eq {
            let msg = "non-equality join predicates are not supported";
            return Err(SqlError::Internal(msg.into()));
        }
        Ok(edge)
    };
    for j in &stmt.joins {
        edges.push(join_edge(&j.left, SqlCmpOp::Eq, &j.right)?);
    }
    for p in &stmt.predicates {
        if let Predicate::Compare { left, op, right: Operand::Column(right) } = p {
            edges.push(join_edge(left, *op, right)?);
            continue;
        }
        let mut p = p.clone();
        let col = tested_column(&mut p);
        let (part, qualified) = qualify(col)?;
        *col = qualified;
        selections[part].push(p);
    }

    // 4. Estimate filtered cardinality per part and build scan nodes.
    let scans: Vec<ScanNode> =
        parts.iter().zip(selections).map(|(part, preds)| build_scan(part, preds)).collect();

    // 5. Greedy left-deep join ordering: start at the smallest scan,
    //    repeatedly attach the connected table with the smallest estimate.
    let mut remaining: Vec<usize> = (0..parts.len()).collect();
    remaining.sort_by(|&a, &b| {
        scans[a]
            .estimated_rows
            .total_cmp(&scans[b].estimated_rows)
            .then_with(|| parts[a].alias.cmp(parts[b].alias))
    });
    let first = remaining.remove(0);
    let mut joined: Vec<bool> = vec![false; parts.len()];
    joined[first] = true;
    let mut plan = PhysicalPlan::Scan(scans[first].clone());
    let mut used_edges: Vec<bool> = vec![false; edges.len()];

    while !remaining.is_empty() {
        // Find connectable parts.
        let mut candidate: Option<(usize, usize, f64)> = None; // (remaining idx, edge idx, est)
        for (ri, &part) in remaining.iter().enumerate() {
            for (ei, edge) in edges.iter().enumerate() {
                let (l, r) = (edge.left.0, edge.right.0);
                if !used_edges[ei] && ((joined[l] && r == part) || (joined[r] && l == part)) {
                    let est = scans[part].estimated_rows;
                    if candidate.is_none_or(|(_, _, best)| est < best) {
                        candidate = Some((ri, ei, est));
                    }
                }
            }
        }
        let (part, algo, left_key, right_key) = match candidate {
            Some((ri, ei, _)) => {
                let part = remaining.remove(ri);
                used_edges[ei] = true;
                let JoinEdge { left, right } = &edges[ei];
                // Orient the edge: left side must belong to the joined set.
                let (lk, rk) = if right.0 == part { (left, right) } else { (right, left) };
                // Index nested loop when the inner join column is indexed.
                let algo = if parts[part].table.has_index_on(&rk.1.column) {
                    JoinAlgo::IndexNestedLoop
                } else {
                    JoinAlgo::Hash
                };
                (part, algo, Some(lk.1.clone()), Some(rk.1.clone()))
            }
            // Disconnected: cross join the smallest remaining table.
            None => (remaining.remove(0), JoinAlgo::Cross, None, None),
        };
        let right = scans[part].clone();
        plan = PhysicalPlan::Join { left: Box::new(plan), right, algo, left_key, right_key };
        joined[part] = true;
    }

    // Any join edges not consumed by ordering become residual filters.
    let residual: Vec<Predicate> = edges
        .into_iter()
        .zip(used_edges)
        .filter(|(_, used)| !used)
        .map(|(e, _)| Predicate::Compare {
            left: e.left.1,
            op: SqlCmpOp::Eq,
            right: Operand::Column(e.right.1),
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
            .map(|k| Ok(SortKey { col: qualify(&k.col)?.1, asc: k.asc }))
            .collect::<Result<Vec<_>, SqlError>>()?;
        plan = PhysicalPlan::Sort { input: Box::new(plan), keys };
    }

    let mut columns = Vec::new();
    let mut names = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Star => {
                for part in &parts {
                    for col in &part.table.schema.columns {
                        columns.push(ColumnRef::qualified(part.alias, &col.name));
                        names.push(col.name.clone());
                    }
                }
            }
            SelectItem::Column(c, as_name) => {
                let (_, q) = qualify(c)?;
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

/// Builds a scan node: chooses the access path among the part's selection
/// predicates and estimates the result cardinality.
fn build_scan(part: &Part, preds: Vec<Predicate>) -> ScanNode {
    let table = part.table;
    let mut best: Option<(usize, AccessPath, f64)> = None; // (pred idx, path, selectivity)
    for (i, p) in preds.iter().enumerate() {
        let (path, sel) = match p {
            Predicate::Compare { left, op: SqlCmpOp::Eq, right: Operand::Literal(v) } => {
                if !literal_compatible(table, &left.column, v) {
                    continue;
                }
                let Some(idx) = table.index_on(&left.column) else { continue };
                let sel = equality_selectivity(table, &left.column).unwrap_or(0.1);
                (AccessPath::IndexEq { index: idx.name.clone(), key: v.clone() }, sel)
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
                (AccessPath::IndexRange { index: idx.name.clone(), low, high }, RANGE_SELECTIVITY)
            }
            Predicate::InList { col, values } => {
                if !values.iter().all(|v| literal_compatible(table, &col.column, v)) {
                    continue;
                }
                let Some(idx) = table.index_on(&col.column) else { continue };
                let sel = equality_selectivity(table, &col.column)
                    .map(|s| s * values.len() as f64)
                    .unwrap_or(0.2);
                let keys = values.clone();
                (AccessPath::IndexInList { index: idx.name.clone(), keys }, sel.min(1.0))
            }
            _ => continue,
        };
        if best.as_ref().is_none_or(|(_, _, s)| sel < *s) {
            best = Some((i, path, sel));
        }
    }

    let mut residual = preds;
    let path = match best {
        Some((i, path, _)) => {
            residual.remove(i);
            path
        }
        None => AccessPath::SeqScan,
    };

    // Cardinality estimate: rows × path selectivity × residual
    // selectivities.
    let mut est = table.len() as f64 * path_selectivity(&path, table);
    for p in &residual {
        est *= predicate_selectivity(p, table);
    }
    ScanNode {
        table: part.name.to_string(),
        alias: part.alias.to_string(),
        path,
        residual,
        estimated_rows: est.max(1.0),
    }
}

/// The fraction of the table's rows an access path fetches.
fn path_selectivity(path: &AccessPath, table: &Table) -> f64 {
    match path {
        AccessPath::SeqScan => 1.0,
        AccessPath::IndexEq { index, .. } => index_selectivity(table, index, 1),
        AccessPath::IndexRange { .. } => RANGE_SELECTIVITY,
        AccessPath::IndexInList { index, keys } => index_selectivity(table, index, keys.len()),
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

/// Estimated selectivity of an equality on `column`: `1 / NDV` under the
/// uniformity assumption, the distinct count read from the table's profile;
/// `None` for a column the table does not have.
fn equality_selectivity(table: &Table, column: &str) -> Option<f64> {
    let pos = table.schema.column_index(column)?;
    let distinct = *table.profile().distinct.get(pos)?;
    Some(if distinct == 0 { 0.0 } else { 1.0 / distinct as f64 })
}

/// Heuristic selectivity of a residual predicate.
pub(crate) fn predicate_selectivity(p: &Predicate, table: &Table) -> f64 {
    match p {
        Predicate::Compare { left, op, right: Operand::Literal(_) } => match op {
            SqlCmpOp::Eq => equality_selectivity(table, &left.column).unwrap_or(0.1),
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
            let per = equality_selectivity(table, &col.column).unwrap_or(0.1);
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

    /// The access path of a one-table plan's scan.
    fn scan_path(plan: &PhysicalPlan) -> &AccessPath {
        match plan {
            PhysicalPlan::Scan(s) => &s.path,
            PhysicalPlan::Project { input, .. } | PhysicalPlan::Filter { input, .. } => {
                scan_path(input)
            }
            other => panic!("not a one-table plan: {other:?}"),
        }
    }

    #[test]
    fn pk_equality_uses_index() {
        let c = catalog();
        let plan = plan_select(&select("SELECT * FROM gene WHERE id = 'g3'"), &c).unwrap();
        assert!(matches!(scan_path(&plan), AccessPath::IndexEq { .. }));
    }

    #[test]
    fn unindexed_filter_is_seq_scan() {
        let c = catalog();
        let plan =
            plan_select(&select("SELECT * FROM gene WHERE species = 'Homo sapiens'"), &c)
                .unwrap();
        assert_eq!(scan_path(&plan), &AccessPath::SeqScan);
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
    fn a_repeated_alias_is_rejected() {
        // Regression: a second `a` used to shadow the first, so `gene` was
        // never read and `SELECT *` failed with an internal error.
        let c = catalog();
        for (sql, alias) in [
            ("SELECT a.id FROM gene a JOIN gene_disease a ON a.id = a.gene", "a"),
            ("SELECT * FROM gene a JOIN gene_disease a ON a.id = a.gene", "a"),
            ("SELECT gene.id FROM gene JOIN gene ON gene.id = gene.id", "gene"),
        ] {
            let err = plan_select(&select(sql), &c);
            assert_eq!(err, Err(SqlError::AlreadyExists(format!("FROM alias {alias}"))), "{sql}");
        }
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
        assert_eq!(scan_path(&plan), &AccessPath::SeqScan);
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
