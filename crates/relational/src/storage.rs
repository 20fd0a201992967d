//! Row storage: one in-memory heap per table plus its indexes.

use crate::cache::{CacheStats, VersionedCache};
use crate::error::SqlError;
use crate::index::{BTreeIndex, RowId};
use crate::schema::TableSchema;
use crate::stats::ColumnStats;
use crate::value::{DataType, Value};
use std::sync::{Arc, Mutex, MutexGuard};

/// A stored table: schema, rows and indexes (the primary-key index is
/// created automatically).
///
/// What the table *stores* sits behind copy-on-write handles: a clone
/// shares the rows and the indexes with its original, and the first write
/// to either value copies what it touches — the rows and the indexes for
/// an insert, the indexes alone for index DDL — so the two diverge from
/// there. What the table *caches* (the column statistics) is per value.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    rows: Arc<Vec<Vec<Value>>>,
    indexes: Arc<Vec<BTreeIndex>>,
    /// Column statistics by column position, stamped with the row count
    /// they were computed from. Rows are only ever appended — there is no
    /// update or delete — so the count identifies the table's contents and
    /// serves as the version: an insert makes every entry stale without
    /// anyone having to say so.
    stats: Mutex<StatsCache>,
}

type StatsCache = VersionedCache<usize, ColumnStats>;

impl Clone for Table {
    fn clone(&self) -> Self {
        // The data is shared, the statistics are a snapshot that travels
        // along: the clone holds the same rows, and once it diverges its
        // own row count outdates them. A scan either value pays from here
        // on is its own.
        Table {
            schema: self.schema.clone(),
            rows: Arc::clone(&self.rows),
            indexes: Arc::clone(&self.indexes),
            stats: Mutex::new(self.stats_cache().clone()),
        }
    }
}

impl Table {
    /// Creates an empty table; builds the primary-key index if a key is
    /// declared.
    pub fn new(schema: TableSchema) -> Result<Self, SqlError> {
        let mut t = Table {
            schema,
            rows: Arc::default(),
            indexes: Arc::default(),
            stats: Mutex::default(),
        };
        if !t.schema.primary_key.is_empty() {
            let cols = t.resolve_columns(&t.schema.primary_key.clone())?;
            t.indexes = Arc::new(vec![BTreeIndex::new(
                format!("pk_{}", t.schema.name),
                cols,
                true,
            )]);
        }
        Ok(t)
    }

    fn resolve_columns(&self, names: &[String]) -> Result<Vec<usize>, SqlError> {
        names
            .iter()
            .map(|n| {
                self.schema
                    .column_index(n)
                    .ok_or_else(|| SqlError::UnknownColumn(n.clone()))
            })
            .collect()
    }

    /// Inserts a row after validating arity, types and NOT NULL, updating
    /// all indexes. Returns the new row id.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId, SqlError> {
        if row.len() != self.schema.arity() {
            return Err(SqlError::Constraint(format!(
                "table {} expects {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        for (col, v) in self.schema.columns.iter().zip(&row) {
            if v.is_null() {
                if col.not_null {
                    return Err(SqlError::Constraint(format!(
                        "column {}.{} is NOT NULL",
                        self.schema.name, col.name
                    )));
                }
                continue;
            }
            let ok = matches!(
                (col.data_type, v.data_type()),
                (DataType::Int, Some(DataType::Int))
                    | (DataType::Double, Some(DataType::Double))
                    | (DataType::Double, Some(DataType::Int))
                    | (DataType::Text, Some(DataType::Text))
                    | (DataType::Bool, Some(DataType::Bool))
            );
            if !ok {
                return Err(SqlError::Constraint(format!(
                    "type mismatch for {}.{}: expected {}, got {v}",
                    self.schema.name, col.name, col.data_type
                )));
            }
        }
        // Validate every unique index before mutating any, so a failed
        // insert leaves no phantom index entries.
        for idx in self.indexes.iter() {
            if idx.would_violate(&row) {
                return Err(SqlError::Constraint(format!(
                    "unique index {} violated",
                    idx.name
                )));
            }
        }
        // Past every check: only a write that will be applied unshares.
        let rid = self.rows.len();
        for idx in Arc::make_mut(&mut self.indexes) {
            idx.insert(&row, rid)?;
        }
        Arc::make_mut(&mut self.rows).push(row);
        Ok(rid)
    }

    /// Adds a secondary index over `columns`, backfilling existing rows.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: &[String],
        unique: bool,
    ) -> Result<(), SqlError> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(SqlError::AlreadyExists(name));
        }
        let cols = self.resolve_columns(columns)?;
        let mut idx = BTreeIndex::new(name, cols, unique);
        for (rid, row) in self.rows.iter().enumerate() {
            idx.insert(row, rid)?;
        }
        Arc::make_mut(&mut self.indexes).push(idx);
        Ok(())
    }

    /// Drops an index by name; true when it existed.
    pub fn drop_index(&mut self, name: &str) -> bool {
        // Names are unique (`create_index` sees to it); a miss unshares nothing.
        let droppable = |i: &BTreeIndex| i.name == name && !i.name.starts_with("pk_");
        let Some(at) = self.indexes.iter().position(droppable) else { return false };
        Arc::make_mut(&mut self.indexes).remove(at);
        true
    }

    /// The first index whose leading key column is `col`, if any. This is
    /// the question Heuristics 1 and 2 ask of the physical design.
    pub fn index_on(&self, col: &str) -> Option<&BTreeIndex> {
        let pos = self.schema.column_index(col)?;
        self.indexes.iter().find(|i| i.key_columns.first() == Some(&pos))
    }

    /// True when column `col` is covered by an index as its leading key.
    pub fn has_index_on(&self, col: &str) -> bool {
        self.index_on(col).is_some()
    }

    /// All indexes (primary first).
    pub fn indexes(&self) -> &[BTreeIndex] {
        &self.indexes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row access by id.
    pub fn row(&self, rid: RowId) -> Option<&[Value]> {
        self.rows.get(rid).map(Vec::as_slice)
    }

    /// Iterates all rows with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows.iter().enumerate().map(|(i, r)| (i, r.as_slice()))
    }

    fn stats_cache(&self) -> MutexGuard<'_, StatsCache> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The statistics of the column at `pos` as of the current rows: the
    /// cached ones, or `fresh()` computed now and kept for the next caller.
    pub(crate) fn column_stats_cached(
        &self,
        pos: usize,
        fresh: impl FnOnce() -> ColumnStats,
    ) -> ColumnStats {
        let version = self.rows.len() as u64;
        if let Some(hit) = self.stats_cache().lookup(&pos, version) {
            return hit;
        }
        let stats = fresh();
        self.stats_cache().insert(pos, version, stats.clone());
        stats
    }

    /// Counters of the column-statistics cache; `misses` is the number of
    /// full passes over the table's rows.
    pub fn stats_cache_stats(&self) -> CacheStats {
        self.stats_cache().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn table() -> Table {
        Table::new(
            TableSchema::new(
                "drug",
                vec![
                    Column::not_null("id", DataType::Text),
                    Column::new("name", DataType::Text),
                    Column::new("mass", DataType::Double),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap()
    }

    #[test]
    fn insert_and_read() {
        let mut t = table();
        let rid = t
            .insert(vec![Value::text("d1"), Value::text("Aspirin"), Value::Double(180.2)])
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(rid).unwrap()[1], Value::text("Aspirin"));
    }

    #[test]
    fn primary_key_enforced() {
        let mut t = table();
        t.insert(vec![Value::text("d1"), Value::Null, Value::Null]).unwrap();
        let err = t.insert(vec![Value::text("d1"), Value::Null, Value::Null]);
        assert!(matches!(err, Err(SqlError::Constraint(_))));
        // Failed insert must not leave a phantom row.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table();
        let err = t.insert(vec![Value::Null, Value::Null, Value::Null]);
        assert!(matches!(err, Err(SqlError::Constraint(_))));
    }

    #[test]
    fn arity_enforced() {
        let mut t = table();
        assert!(t.insert(vec![Value::text("d1")]).is_err());
    }

    #[test]
    fn type_checked() {
        let mut t = table();
        let err = t.insert(vec![Value::Int(5), Value::Null, Value::Null]);
        assert!(matches!(err, Err(SqlError::Constraint(_))));
        // Int widens into a DOUBLE column.
        assert!(t
            .insert(vec![Value::text("d1"), Value::Null, Value::Int(42)])
            .is_ok());
    }

    #[test]
    fn secondary_index_backfills() {
        let mut t = table();
        t.insert(vec![Value::text("d1"), Value::text("Aspirin"), Value::Null]).unwrap();
        t.insert(vec![Value::text("d2"), Value::text("Ibuprofen"), Value::Null]).unwrap();
        t.create_index("idx_name", &["name".into()], false).unwrap();
        let idx = t.index_on("name").unwrap();
        assert_eq!(idx.lookup(&[Value::text("Aspirin")]), &[0]);
    }

    #[test]
    fn index_on_detects_pk_and_secondary() {
        let mut t = table();
        assert!(t.has_index_on("id")); // primary key
        assert!(!t.has_index_on("name"));
        t.create_index("idx_name", &["name".into()], false).unwrap();
        assert!(t.has_index_on("name"));
        assert!(!t.has_index_on("mass"));
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = table();
        t.create_index("i", &["name".into()], false).unwrap();
        assert!(matches!(
            t.create_index("i", &["mass".into()], false),
            Err(SqlError::AlreadyExists(_))
        ));
    }

    #[test]
    fn drop_index() {
        let mut t = table();
        t.create_index("i", &["name".into()], false).unwrap();
        assert!(t.drop_index("i"));
        assert!(!t.has_index_on("name"));
        assert!(!t.drop_index("i"));
    }

    #[test]
    fn a_clone_shares_storage_until_an_applied_write() {
        let shared = |a: &Table, b: &Table| {
            (Arc::ptr_eq(&a.rows, &b.rows), Arc::ptr_eq(&a.indexes, &b.indexes))
        };
        let mut t = table();
        t.insert(vec![Value::text("d1"), Value::text("Aspirin"), Value::Null]).unwrap();
        let mut c = t.clone();
        assert_eq!(shared(&t, &c), (true, true));
        // A rejected write unshares nothing.
        assert!(c.insert(vec![Value::text("d1"), Value::Null, Value::Null]).is_err());
        assert!(c.create_index("i", &["nope".into()], false).is_err());
        assert!(!c.drop_index("pk_drug") && !c.drop_index("nope"));
        assert_eq!(shared(&t, &c), (true, true));
        // Index DDL copies the indexes alone, an insert the rows as well.
        c.create_index("i", &["name".into()], false).unwrap();
        assert_eq!(shared(&t, &c), (true, false));
        c.insert(vec![Value::text("d2"), Value::text("Ibuprofen"), Value::Null]).unwrap();
        assert_eq!(shared(&t, &c), (false, false));
        // The original saw neither.
        assert_eq!((t.len(), c.len()), (1, 2));
        assert!(!t.has_index_on("name"));
        assert!(t.index_on("id").unwrap().lookup(&[Value::text("d2")]).is_empty());
        assert_eq!(c.index_on("name").unwrap().lookup(&[Value::text("Ibuprofen")]), &[1]);
    }
}
