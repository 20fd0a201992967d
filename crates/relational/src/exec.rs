//! Plan execution with cost accounting.
//!
//! Every operator records the work it performs in a [`CostStats`]. The
//! network/cost simulation (`fedlake-netsim`) converts these counters into
//! simulated time, which is how the experiments price an indexed lookup
//! differently from a full scan without depending on wall-clock noise.

use crate::error::SqlError;
use crate::plan::{AccessPath, JoinAlgo, PhysicalPlan, ScanNode};
use crate::sql::ast::{ColumnRef, Operand, Predicate, SortKey, SqlCmpOp};
use crate::storage::Table;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Work counters accumulated during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostStats {
    /// Heap rows visited by sequential scans.
    pub rows_scanned: u64,
    /// Index lookups (point, range or IN-list probes).
    pub index_probes: u64,
    /// Rows fetched through an index.
    pub index_rows: u64,
    /// Predicate evaluations.
    pub filter_evals: u64,
    /// Rows inserted into join hash tables.
    pub hash_build_rows: u64,
    /// Rows probed against join hash tables.
    pub hash_probe_rows: u64,
    /// Rows passed through sort operators.
    pub sort_rows: u64,
    /// Rows in the final result.
    pub rows_output: u64,
}

/// One base table taking part in an intermediate relation.
struct Part<'t> {
    alias: String,
    table: &'t Table,
}

/// A column of an intermediate relation: which part, and which offset in
/// that part's base-table rows.
#[derive(Debug, Clone, Copy)]
struct Pos {
    part: usize,
    col: usize,
}

/// An intermediate relation below `Project`: nothing is copied, a row is
/// one borrowed base-table row slice per joined alias. Row `r` occupies
/// `rows[r * parts.len()..][..parts.len()]`, in `parts` order, so the
/// column order is the one a concatenation of the parts' schemas has.
struct Borrowed<'t> {
    parts: Vec<Part<'t>>,
    rows: Vec<&'t [Value]>,
}

impl<'t> Borrowed<'t> {
    fn len(&self) -> usize {
        self.rows.len() / self.parts.len()
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, &'t [Value]> {
        self.rows.chunks_exact(self.parts.len())
    }
}

/// The first column named `c.column` among the parts `c.table` admits
/// (every part, when the reference is unqualified).
fn resolve(parts: &[Part<'_>], c: &ColumnRef) -> Option<Pos> {
    parts.iter().enumerate().find_map(|(part, p)| {
        if c.table.as_ref().is_some_and(|t| *t != p.alias) {
            return None;
        }
        let col = p.table.schema.columns.iter().position(|s| s.name == c.column)?;
        Some(Pos { part, col })
    })
}

fn resolve_or(parts: &[Part<'_>], c: &ColumnRef, what: &str) -> Result<Pos, SqlError> {
    resolve(parts, c).ok_or_else(|| SqlError::Internal(format!("{what} {c} missing")))
}

/// A plan's result, read where it lies: every cell is a `&'t Value` into a
/// base table of the catalog the plan ran against, so producing it clones
/// nothing. The owned [`crate::ResultSet`] is this, cloned.
pub struct Relation<'t> {
    rel: Borrowed<'t>,
    /// The output columns, in order.
    at: Vec<Pos>,
}

impl<'t> Relation<'t> {
    /// Row count.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rel.rows.is_empty()
    }

    /// The cells of output column `c`, in row order.
    ///
    /// # Panics
    /// When the result has no column `c`.
    pub fn column(&self, c: usize) -> impl Iterator<Item = &'t Value> + '_ {
        let Pos { part, col } = self.at[c];
        self.rel.iter().map(move |row| &row[part][col])
    }

    /// The rows in order, each as its cells in column order.
    pub fn rows(&self) -> impl Iterator<Item = impl Iterator<Item = &'t Value> + '_> + '_ {
        self.rel.iter().map(|row| Cells { row, at: &self.at }.iter())
    }

    /// The output columns' names as their tables spell them, unqualified.
    pub(crate) fn column_names(&self) -> Vec<String> {
        let name = |p: &Pos| self.rel.parts[p.part].table.schema.columns[p.col].name.clone();
        self.at.iter().map(name).collect()
    }
}

/// One row's output cells; as a `DISTINCT` key, equal and hashed as the
/// row of values it stands for.
#[derive(Clone, Copy)]
struct Cells<'a, 't> {
    row: &'a [&'t [Value]],
    at: &'a [Pos],
}

impl<'a, 't> Cells<'a, 't> {
    fn iter(self) -> impl Iterator<Item = &'t Value> + 'a {
        self.at.iter().map(move |p| &self.row[p.part][p.col])
    }
}

impl PartialEq for Cells<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Cells<'_, '_> {}

impl std::hash::Hash for Cells<'_, '_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.iter().for_each(|v| v.hash(state));
    }
}

/// Executes a physical plan against a catalog.
pub(crate) fn execute<'t>(
    plan: &PhysicalPlan,
    catalog: &'t HashMap<String, Table>,
) -> Result<(Relation<'t>, CostStats), SqlError> {
    let mut cost = CostStats::default();
    let rel = exec_output(plan, catalog, &mut cost)?;
    cost.rows_output = rel.len() as u64;
    Ok((rel, cost))
}

/// `Project` and the modifiers the optimizer stacks on it: which columns
/// of which rows are the output. The rows stay borrowed.
fn exec_output<'t>(
    plan: &PhysicalPlan,
    catalog: &'t HashMap<String, Table>,
    cost: &mut CostStats,
) -> Result<Relation<'t>, SqlError> {
    match plan {
        PhysicalPlan::Project { input, columns, names: _ } => {
            let rel = exec_borrowed(input, catalog, cost)?;
            let at = columns
                .iter()
                .map(|c| resolve_or(&rel.parts, c, "projection column"))
                .collect::<Result<_, _>>()?;
            Ok(Relation { rel, at })
        }
        PhysicalPlan::Distinct(input) => {
            let mut out = exec_output(input, catalog, cost)?;
            let mut seen = std::collections::HashSet::with_capacity(out.len());
            let mut rows = Vec::new();
            for row in out.rel.iter() {
                if seen.insert(Cells { row, at: &out.at }) {
                    rows.extend_from_slice(row);
                }
            }
            out.rel.rows = rows;
            Ok(out)
        }
        PhysicalPlan::Limit { input, n } => {
            let mut out = exec_output(input, catalog, cost)?;
            out.rel.rows.truncate(n.saturating_mul(out.rel.parts.len()));
            Ok(out)
        }
        // A plan without a `Project`: every column of every part.
        _ => {
            let rel = exec_borrowed(plan, catalog, cost)?;
            let columns = |(part, p): (usize, &Part)| {
                (0..p.table.schema.columns.len()).map(move |col| Pos { part, col })
            };
            let at = rel.parts.iter().enumerate().flat_map(columns).collect();
            Ok(Relation { rel, at })
        }
    }
}

/// Scans, joins, residual filters and sorts: everything below `Project`.
fn exec_borrowed<'t>(
    plan: &PhysicalPlan,
    catalog: &'t HashMap<String, Table>,
    cost: &mut CostStats,
) -> Result<Borrowed<'t>, SqlError> {
    match plan {
        PhysicalPlan::Scan(scan) => {
            let (part, rows) = exec_scan(scan, catalog, cost)?;
            Ok(Borrowed { parts: vec![part], rows })
        }
        PhysicalPlan::Join { left, right, algo, left_key, right_key } => {
            let left_rel = exec_borrowed(left, catalog, cost)?;
            exec_join(left_rel, right, *algo, left_key, right_key, catalog, cost)
        }
        PhysicalPlan::Filter { input, predicates } => {
            let mut rel = exec_borrowed(input, catalog, cost)?;
            let tests: Vec<Test> = predicates.iter().map(|p| Test::new(p, &rel.parts)).collect();
            let mut rows = Vec::with_capacity(rel.rows.len());
            for row in rel.iter() {
                cost.filter_evals += tests.len() as u64;
                if tests.iter().all(|t| t.eval(row)) {
                    rows.extend_from_slice(row);
                }
            }
            rel.rows = rows;
            Ok(rel)
        }
        PhysicalPlan::Sort { input, keys } => {
            let mut rel = exec_borrowed(input, catalog, cost)?;
            let at: Vec<(Pos, bool)> = keys
                .iter()
                .map(|SortKey { col, asc }| Ok((resolve_or(&rel.parts, col, "sort column")?, *asc)))
                .collect::<Result<_, SqlError>>()?;
            cost.sort_rows += rel.len() as u64;
            // A stable sort of row numbers is the stable sort of the rows.
            let width = rel.parts.len();
            let row = |r: usize| &rel.rows[r * width..][..width];
            let mut order: Vec<usize> = (0..rel.len()).collect();
            order.sort_by(|&a, &b| {
                let (a, b) = (row(a), row(b));
                for &(p, asc) in &at {
                    let ord = a[p.part][p.col].cmp(&b[p.part][p.col]);
                    let ord = if asc { ord } else { ord.reverse() };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            rel.rows = order.into_iter().flat_map(|r| row(r).iter().copied()).collect();
            Ok(rel)
        }
        PhysicalPlan::Project { .. } | PhysicalPlan::Distinct(_) | PhysicalPlan::Limit { .. } => {
            Err(SqlError::Internal(
                "projection, DISTINCT and LIMIT must sit above every scan, join, filter and sort"
                    .into(),
            ))
        }
    }
}

/// Runs a scan's access path and residual predicates; the rows stay in the
/// table.
fn exec_scan<'t>(
    scan: &ScanNode,
    catalog: &'t HashMap<String, Table>,
    cost: &mut CostStats,
) -> Result<(Part<'t>, Vec<&'t [Value]>), SqlError> {
    let table = catalog
        .get(&scan.table)
        .ok_or_else(|| SqlError::UnknownTable(scan.table.clone()))?;
    let part = Part { alias: scan.alias.to_lowercase(), table };
    let residual: Vec<Test> = scan
        .residual
        .iter()
        .map(|p| Test::new(p, std::slice::from_ref(&part)))
        .collect();
    let mut rows = Vec::new();
    let mut fetch = |rid: usize, cost: &mut CostStats| -> Result<(), SqlError> {
        let row = table
            .row(rid)
            .ok_or_else(|| SqlError::Internal(format!("dangling rid {rid}")))?;
        cost.filter_evals += residual.len() as u64;
        if residual.iter().all(|t| t.eval(&[row])) {
            rows.push(row);
        }
        Ok(())
    };
    match &scan.path {
        AccessPath::SeqScan => {
            cost.rows_scanned += table.len() as u64;
            for rid in 0..table.len() {
                fetch(rid, cost)?;
            }
        }
        AccessPath::IndexEq { index, key } => {
            cost.index_probes += 1;
            let rids = find_index(table, index)?.seek(key);
            cost.index_rows += rids.len() as u64;
            for &rid in rids.iter() {
                fetch(rid, cost)?;
            }
        }
        AccessPath::IndexRange { index, low, high } => {
            cost.index_probes += 1;
            let rids = find_index(table, index)?.range(
                low.as_ref().map(|(v, inc)| (v, *inc)),
                high.as_ref().map(|(v, inc)| (v, *inc)),
            );
            cost.index_rows += rids.len() as u64;
            for rid in rids {
                fetch(rid, cost)?;
            }
        }
        AccessPath::IndexInList { index, keys } => {
            let idx = find_index(table, index)?;
            for key in keys {
                cost.index_probes += 1;
                let rids = idx.seek(key);
                cost.index_rows += rids.len() as u64;
                for &rid in rids.iter() {
                    fetch(rid, cost)?;
                }
            }
        }
    }
    Ok((part, rows))
}

fn find_index<'t>(
    table: &'t Table,
    name: &str,
) -> Result<&'t crate::index::BTreeIndex, SqlError> {
    table
        .indexes()
        .iter()
        .find(|i| i.name == name)
        .ok_or_else(|| SqlError::Internal(format!("index {name} disappeared")))
}

#[allow(clippy::too_many_arguments)]
fn exec_join<'t>(
    left: Borrowed<'t>,
    right: &ScanNode,
    algo: JoinAlgo,
    left_key: &Option<ColumnRef>,
    right_key: &Option<ColumnRef>,
    catalog: &'t HashMap<String, Table>,
    cost: &mut CostStats,
) -> Result<Borrowed<'t>, SqlError> {
    let keys = |what: &str| -> Result<(Pos, &ColumnRef), SqlError> {
        let missing = || SqlError::Internal(format!("{what} without key"));
        let lk = left_key.as_ref().ok_or_else(missing)?;
        let rk = right_key.as_ref().ok_or_else(missing)?;
        Ok((resolve_or(&left.parts, lk, "join key")?, rk))
    };
    let mut rows = Vec::new();
    let part = match algo {
        JoinAlgo::Cross => {
            let (part, right_rows) = exec_scan(right, catalog, cost)?;
            for l in left.iter() {
                for r in &right_rows {
                    rows.extend_from_slice(l);
                    rows.push(*r);
                }
            }
            part
        }
        JoinAlgo::Hash => {
            let (li, rk) = keys("hash join")?;
            let (part, right_rows) = exec_scan(right, catalog, cost)?;
            let ri = resolve_or(std::slice::from_ref(&part), rk, "join key")?.col;
            let width = left.parts.len();
            let left_at = |n: usize| &left.rows[n * width + li.part][li.col];
            let right_at = |n: usize| &right_rows[n][ri];
            // Build on the smaller input.
            let build_is_left = left.len() <= right_rows.len();
            let (build_len, probe_len) = if build_is_left {
                (left.len(), right_rows.len())
            } else {
                (right_rows.len(), left.len())
            };
            let zero = Value::Double(0.0);
            let mut ht: HashMap<&Value, Vec<usize>> = HashMap::new();
            for n in 0..build_len {
                cost.hash_build_rows += 1;
                let key = if build_is_left { left_at(n) } else { right_at(n) };
                if let Some(key) = sql_key(key, &zero) {
                    ht.entry(key).or_default().push(n);
                }
            }
            for n in 0..probe_len {
                cost.hash_probe_rows += 1;
                let key = if build_is_left { right_at(n) } else { left_at(n) };
                let Some(key) = sql_key(key, &zero) else { continue };
                for &b in ht.get(key).map(Vec::as_slice).unwrap_or_default() {
                    let (l, r) = if build_is_left { (b, n) } else { (n, b) };
                    rows.extend_from_slice(&left.rows[l * width..][..width]);
                    rows.push(right_rows[r]);
                }
            }
            part
        }
        JoinAlgo::IndexNestedLoop => {
            let (li, rk) = keys("INLJ")?;
            let table = catalog
                .get(&right.table)
                .ok_or_else(|| SqlError::UnknownTable(right.table.clone()))?;
            let part = Part { alias: right.alias.to_lowercase(), table };
            let idx = table
                .index_on(&rk.column)
                .ok_or_else(|| SqlError::Internal(format!("no index on {rk} for INLJ")))?;
            let residual: Vec<Test> = right
                .residual
                .iter()
                .map(|p| Test::new(p, std::slice::from_ref(&part)))
                .collect();
            // The planner may have both an index path and a join; the
            // scan's own access path then restricts the fetched rows.
            let path_column = match &right.path {
                AccessPath::SeqScan => None,
                AccessPath::IndexEq { index, .. }
                | AccessPath::IndexRange { index, .. }
                | AccessPath::IndexInList { index, .. } => find_index(table, index)
                    .ok()
                    .and_then(|i| i.key_columns.first().copied()),
            };
            // The index files −0.0 apart from 0.0 and NaN as a key of its
            // own; SQL's `=` joins the two zeros and NaN to nothing.
            let zeros = [Value::Double(-0.0), Value::Double(0.0)];
            for lrow in left.iter() {
                let key = &lrow[li.part][li.col];
                if key.is_null() {
                    continue;
                }
                cost.index_probes += 1;
                let keys: &[Value] = match key {
                    Value::Int(0) | Value::Double(0.0) => &zeros,
                    Value::Double(d) if d.is_nan() => &[],
                    _ => std::slice::from_ref(key),
                };
                for rid in keys.iter().flat_map(|k| idx.lookup_prefix(std::slice::from_ref(k))) {
                    let rrow = table
                        .row(rid)
                        .ok_or_else(|| SqlError::Internal(format!("dangling rid {rid}")))?;
                    cost.index_rows += 1;
                    cost.filter_evals += residual.len() as u64;
                    if residual.iter().all(|t| t.eval(&[rrow]))
                        && path_accepts(&right.path, path_column, rrow)
                    {
                        rows.extend_from_slice(lrow);
                        rows.push(rrow);
                    }
                }
            }
            part
        }
    };
    let mut parts = left.parts;
    parts.push(part);
    Ok(Borrowed { parts, rows })
}

/// A hash-join key as SQL's `=` sees it: `None` for NULL and NaN, which
/// equal nothing, and `zero` for −0.0, which equals 0.0; any other value is
/// its own key in the value total order.
fn sql_key<'v>(v: &'v Value, zero: &'v Value) -> Option<&'v Value> {
    match v {
        Value::Null => None,
        Value::Double(d) if d.is_nan() => None,
        Value::Double(d) if *d == 0.0 => Some(zero),
        _ => Some(v),
    }
}

/// When an INLJ drives row fetches, the scan's own access path becomes a
/// residual restriction on the fetched rows. `column` is the leading key
/// column of the path's index (`None`: the index is gone, nothing passes).
fn path_accepts(path: &AccessPath, column: Option<usize>, row: &[Value]) -> bool {
    let key = column.map(|c| &row[c]);
    match path {
        AccessPath::SeqScan => true,
        AccessPath::IndexEq { key: wanted, .. } => {
            key.is_some_and(|k| k.sql_cmp(wanted) == Some(Ordering::Equal))
        }
        AccessPath::IndexRange { low, high, .. } => key.is_some_and(|k| {
            let lo_ok = low.as_ref().is_none_or(|(v, inc)| match k.sql_cmp(v) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => *inc,
                _ => false,
            });
            let hi_ok = high.as_ref().is_none_or(|(v, inc)| match k.sql_cmp(v) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => *inc,
                _ => false,
            });
            !k.is_null() && lo_ok && hi_ok
        }),
        AccessPath::IndexInList { keys, .. } => {
            key.is_some_and(|k| keys.iter().any(|w| k.sql_cmp(w) == Some(Ordering::Equal)))
        }
    }
}

/// A predicate with its columns resolved to positions, once per operator;
/// literals are compared where the plan holds them.
enum Test<'p> {
    Compare { left: Pos, op: SqlCmpOp, right: Rhs<'p> },
    Like { col: Pos, pattern: &'p str, negated: bool },
    IsNull { col: Pos, negated: bool },
    InList { col: Pos, values: &'p [Value] },
    /// Names a column the relation does not have: never true.
    Never,
}

enum Rhs<'p> {
    Literal(&'p Value),
    Column(Pos),
}

impl<'p> Test<'p> {
    fn new(p: &'p Predicate, parts: &[Part<'_>]) -> Self {
        let at = |c: &ColumnRef| resolve(parts, c);
        let test = match p {
            Predicate::Compare { left, op, right } => at(left).and_then(|left| {
                let right = match right {
                    Operand::Literal(v) => Rhs::Literal(v),
                    Operand::Column(c) => Rhs::Column(at(c)?),
                };
                Some(Test::Compare { left, op: *op, right })
            }),
            Predicate::Like { col, pattern, negated } => {
                at(col).map(|col| Test::Like { col, pattern, negated: *negated })
            }
            Predicate::IsNull { col, negated } => {
                at(col).map(|col| Test::IsNull { col, negated: *negated })
            }
            Predicate::InList { col, values } => at(col).map(|col| Test::InList { col, values }),
        };
        test.unwrap_or(Test::Never)
    }

    /// Evaluates against one row: one base-table slice per part.
    fn eval(&self, row: &[&[Value]]) -> bool {
        let get = |p: &Pos| &row[p.part][p.col];
        match self {
            Test::Compare { left, op, right } => {
                let rv = match right {
                    Rhs::Literal(v) => *v,
                    Rhs::Column(p) => get(p),
                };
                match get(left).sql_cmp(rv) {
                    None => false,
                    Some(ord) => match op {
                        SqlCmpOp::Eq => ord == Ordering::Equal,
                        SqlCmpOp::Ne => ord != Ordering::Equal,
                        SqlCmpOp::Lt => ord == Ordering::Less,
                        SqlCmpOp::Le => ord != Ordering::Greater,
                        SqlCmpOp::Gt => ord == Ordering::Greater,
                        SqlCmpOp::Ge => ord != Ordering::Less,
                    },
                }
            }
            Test::Like { col, pattern, negated } => {
                let v = get(col);
                !v.is_null() && v.like(pattern) != *negated
            }
            Test::IsNull { col, negated } => get(col).is_null() != *negated,
            Test::InList { col, values } => {
                let v = get(col);
                !v.is_null() && values.iter().any(|w| v.sql_cmp(w) == Some(Ordering::Equal))
            }
            Test::Never => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(TableSchema::new(
            "t",
            vec![Column::new("id", DataType::Int), Column::new("name", DataType::Text)],
        ))
        .unwrap()
    }

    fn eval(p: &Predicate, row: &[Value]) -> bool {
        let table = table();
        let part = Part { alias: "t".into(), table: &table };
        Test::new(p, std::slice::from_ref(&part)).eval(&[row])
    }

    #[test]
    fn predicate_eval_compare() {
        let row = vec![Value::Int(5), Value::text("abc")];
        let p = Predicate::Compare {
            left: ColumnRef::qualified("t", "id"),
            op: SqlCmpOp::Gt,
            right: Operand::Literal(Value::Int(3)),
        };
        assert!(eval(&p, &row));
    }

    #[test]
    fn predicate_eval_unqualified_matches() {
        let row = vec![Value::Int(5), Value::text("abc")];
        let p = Predicate::Compare {
            left: ColumnRef::new("name"),
            op: SqlCmpOp::Eq,
            right: Operand::Literal(Value::text("abc")),
        };
        assert!(eval(&p, &row));
    }

    #[test]
    fn predicate_null_semantics() {
        let row = vec![Value::Null, Value::Null];
        let eq = Predicate::Compare {
            left: ColumnRef::new("id"),
            op: SqlCmpOp::Eq,
            right: Operand::Literal(Value::Null),
        };
        // NULL = NULL is UNKNOWN → filtered out.
        assert!(!eval(&eq, &row));
        let isnull = Predicate::IsNull { col: ColumnRef::new("id"), negated: false };
        assert!(eval(&isnull, &row));
    }

    #[test]
    fn predicate_on_a_missing_column_is_never_true() {
        let row = vec![Value::Int(5), Value::text("abc")];
        let other_alias = Predicate::IsNull { col: ColumnRef::qualified("u", "id"), negated: true };
        assert!(!eval(&other_alias, &row));
        let no_column = Predicate::IsNull { col: ColumnRef::new("nope"), negated: true };
        assert!(!eval(&no_column, &row));
    }
}
