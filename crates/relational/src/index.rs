//! B-tree secondary indexes.
//!
//! An index maps a (possibly composite) key to the row ids holding it.
//! Point lookups and range scans are what the physical-design-aware
//! planner exploits; their costs are tracked by the executor so the
//! simulation can price indexed vs. non-indexed access differently.

use crate::error::SqlError;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A row identifier: position in the table's row vector.
pub type RowId = usize;

/// A B-tree index over one or more columns.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    /// Index name.
    pub name: String,
    /// Indexed column positions in the base table.
    pub key_columns: Vec<usize>,
    /// UNIQUE constraint.
    pub unique: bool,
    tree: BTreeMap<Vec<Value>, Vec<RowId>>,
}

impl BTreeIndex {
    /// Creates an empty index.
    pub(crate) fn new(name: impl Into<String>, key_columns: Vec<usize>, unique: bool) -> Self {
        BTreeIndex { name: name.into(), key_columns, unique, tree: BTreeMap::new() }
    }

    /// Extracts this index's key from a full table row.
    pub(crate) fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.key_columns.iter().map(|&i| row[i].clone()).collect()
    }

    /// Inserts a row. Fails on UNIQUE violation (NULL keys are exempt, as
    /// in standard SQL unique indexes).
    pub(crate) fn insert(&mut self, row: &[Value], rid: RowId) -> Result<(), SqlError> {
        let key = self.key_of(row);
        let has_null = key.iter().any(Value::is_null);
        let entry = self.tree.entry(key).or_default();
        if self.unique && !entry.is_empty() && !has_null {
            return Err(SqlError::Constraint(format!(
                "unique index {} violated",
                self.name
            )));
        }
        entry.push(rid);
        Ok(())
    }

    /// True when inserting `row` would violate this index's UNIQUE
    /// constraint. Lets the table validate all indexes before mutating any.
    pub(crate) fn would_violate(&self, row: &[Value]) -> bool {
        if !self.unique {
            return false;
        }
        let key = self.key_of(row);
        if key.iter().any(Value::is_null) {
            return false;
        }
        self.tree.get(&key).is_some_and(|rids| !rids.is_empty())
    }

    /// Point lookup: row ids whose key equals `key` in the total order.
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        self.tree.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row ids whose single-column key equals `key` under SQL's `=`
    /// ([`Value::sql_cmp`]), where the total order of [`lookup`] differs: a
    /// zero finds both zeros and a NaN finds nothing.
    ///
    /// [`lookup`]: BTreeIndex::lookup
    pub(crate) fn seek(&self, key: &Value) -> Cow<'_, [RowId]> {
        match key {
            Value::Int(0) | Value::Double(0.0) => {
                self.range(Some((key, true)), Some((key, true))).into()
            }
            Value::Double(d) if d.is_nan() => Cow::Borrowed(&[]),
            _ => self.lookup(std::slice::from_ref(key)).into(),
        }
    }

    /// Prefix lookup for composite indexes: row ids whose key starts with
    /// `prefix`, in key order. Borrows the prefix as the range bound, so a
    /// probe allocates nothing.
    pub(crate) fn lookup_prefix<'a>(&'a self, prefix: &'a [Value]) -> impl Iterator<Item = RowId> + 'a {
        self.tree
            .range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .flat_map(|(_, rids)| rids.iter().copied())
    }

    /// Range scan on a single-column index: keys in `[low, high]` with
    /// inclusivity flags, compared as [`Value::sql_cmp`] compares them.
    /// `None` bounds are open.
    pub(crate) fn range(
        &self,
        low: Option<(&Value, bool)>,
        high: Option<(&Value, bool)>,
    ) -> Vec<RowId> {
        // The total order puts -0.0 just below 0.0 (and `Int(0)`), where SQL
        // sees one value: a zero bound takes both zeros in or leaves both out.
        let bound = |v: &Value, inclusive: bool, below: bool| {
            let v = match v {
                Value::Int(0) | Value::Double(0.0) => Value::Double(if below { -0.0 } else { 0.0 }),
                v => v.clone(),
            };
            if inclusive { Bound::Included(vec![v]) } else { Bound::Excluded(vec![v]) }
        };
        let lo = low.map_or(Bound::Unbounded, |(v, inclusive)| bound(v, inclusive, inclusive));
        let hi = high.map_or(Bound::Unbounded, |(v, inclusive)| bound(v, inclusive, !inclusive));
        // NULL and NaN sort at ends of the value total order but never
        // satisfy a range predicate.
        let unordered = |v: &Value| v.is_null() || matches!(v, Value::Double(d) if d.is_nan());
        self.tree
            .range((lo, hi))
            .filter(|(k, _)| !k.iter().any(unordered))
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }

    /// Number of distinct keys.
    pub(crate) fn distinct_keys(&self) -> usize {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: &[Value]) -> Vec<Value> {
        v.to_vec()
    }

    #[test]
    fn point_lookup() {
        let mut idx = BTreeIndex::new("i", vec![0], false);
        idx.insert(&row(&[Value::text("a"), Value::Int(1)]), 0).unwrap();
        idx.insert(&row(&[Value::text("b"), Value::Int(2)]), 1).unwrap();
        idx.insert(&row(&[Value::text("a"), Value::Int(3)]), 2).unwrap();
        assert_eq!(idx.lookup(&[Value::text("a")]), &[0, 2]);
        assert_eq!(idx.lookup(&[Value::text("b")]), &[1]);
        assert!(idx.lookup(&[Value::text("zz")]).is_empty());
    }

    #[test]
    fn unique_violation() {
        let mut idx = BTreeIndex::new("u", vec![0], true);
        idx.insert(&row(&[Value::Int(1)]), 0).unwrap();
        assert!(idx.insert(&row(&[Value::Int(1)]), 1).is_err());
        assert!(idx.insert(&row(&[Value::Int(2)]), 1).is_ok());
    }

    #[test]
    fn unique_allows_multiple_nulls() {
        let mut idx = BTreeIndex::new("u", vec![0], true);
        idx.insert(&row(&[Value::Null]), 0).unwrap();
        assert!(idx.insert(&row(&[Value::Null]), 1).is_ok());
    }

    #[test]
    fn range_scan() {
        let mut idx = BTreeIndex::new("r", vec![0], false);
        for i in 0..10 {
            idx.insert(&row(&[Value::Int(i)]), i as usize).unwrap();
        }
        let rids = idx.range(Some((&Value::Int(3), true)), Some((&Value::Int(6), false)));
        assert_eq!(rids, vec![3, 4, 5]);
        let open = idx.range(Some((&Value::Int(8), false)), None);
        assert_eq!(open, vec![9]);
    }

    #[test]
    fn range_excludes_nulls() {
        let mut idx = BTreeIndex::new("r", vec![0], false);
        idx.insert(&row(&[Value::Null]), 0).unwrap();
        idx.insert(&row(&[Value::Int(5)]), 1).unwrap();
        // NULL < everything in the total order, but must not appear in
        // x <= 10 results.
        let rids = idx.range(None, Some((&Value::Int(10), true)));
        assert_eq!(rids, vec![1]);
    }

    #[test]
    fn composite_prefix_lookup() {
        let mut idx = BTreeIndex::new("c", vec![0, 1], false);
        idx.insert(&row(&[Value::text("a"), Value::Int(1)]), 0).unwrap();
        idx.insert(&row(&[Value::text("a"), Value::Int(2)]), 1).unwrap();
        idx.insert(&row(&[Value::text("b"), Value::Int(1)]), 2).unwrap();
        let rids: Vec<RowId> = idx.lookup_prefix(&[Value::text("a")]).collect();
        assert_eq!(rids, vec![0, 1]);
        let exact: Vec<RowId> =
            idx.lookup_prefix(&[Value::text("a"), Value::Int(2)]).collect();
        assert_eq!(exact, vec![1]);
    }

    #[test]
    fn stats() {
        let mut idx = BTreeIndex::new("s", vec![0], false);
        idx.insert(&row(&[Value::Int(1)]), 0).unwrap();
        idx.insert(&row(&[Value::Int(1)]), 1).unwrap();
        idx.insert(&row(&[Value::Int(2)]), 2).unwrap();
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.tree.values().map(Vec::len).sum::<usize>(), 3);
    }
}
