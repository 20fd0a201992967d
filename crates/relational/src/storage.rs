//! Row storage: one in-memory heap per table plus its indexes.

use crate::error::SqlError;
use crate::index::{BTreeIndex, RowId};
use crate::schema::TableSchema;
use crate::value::{DataType, Value};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// A stored table: schema, rows and indexes (the primary-key index is
/// created automatically).
///
/// What the table *stores* sits behind copy-on-write handles: a clone
/// shares the rows and the indexes with its original, and the first write
/// to either value copies what it touches — the rows and the indexes for
/// an insert, the indexes alone for index DDL — so the two diverge from
/// there. What the table *caches*, its profile, travels as a pointer and is
/// replaced, never written through.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    rows: Arc<Vec<Vec<Value>>>,
    indexes: Arc<Vec<BTreeIndex>>,
    /// The profile of the first `profile.rows` rows. Rows are only ever
    /// appended — there is no update or delete — so an old profile is
    /// short, never wrong, and whoever asks extends it by the rows it lacks
    /// instead of dropping it ([`Table::profile`]).
    profile: Mutex<Arc<TableProfile>>,
}

/// The one synopsis of a table's rows, knowing nothing about mappings: how
/// many distinct values each column holds and which columns the rows leave
/// NULL. The SQL optimizer prices an equality from its distinct counts, and
/// the statistics catalog derives a mapped table's triples, subjects and
/// characteristic sets from it without a pass over the rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProfile {
    /// Rows described.
    pub rows: usize,
    /// Distinct non-NULL values per column, in schema order.
    pub distinct: Vec<u64>,
    /// Rows per NULL pattern; bit `c` of a pattern is set when the row's
    /// column `c` is not NULL. `None` for a table wider than
    /// [`TableProfile::MAX_COLUMNS`].
    pub patterns: Option<BTreeMap<u64, u64>>,
}

impl TableProfile {
    /// Most columns whose NULL patterns a profile keeps: a pattern is one
    /// `u64`.
    pub const MAX_COLUMNS: usize = 64;

    fn empty(arity: usize) -> Self {
        let patterns = (arity <= Self::MAX_COLUMNS).then(BTreeMap::new);
        TableProfile { rows: 0, distinct: vec![0; arity], patterns }
    }

    /// Rows whose column `pos` is not NULL, when the profile keeps the NULL
    /// patterns.
    pub fn non_null(&self, pos: usize) -> Option<u64> {
        let patterns = self.patterns.as_ref()?;
        Some(patterns.iter().filter(|(p, _)| *p >> pos & 1 == 1).map(|(_, n)| n).sum())
    }
}

/// What the two ways of bringing a profile up to date cost per cell, in
/// comparisons of one stored value with another. A full pass puts every
/// cell into a hash set; an extension asks the table whether the value
/// occurred before — one B-tree descent on an indexed column, else a
/// comparison per earlier row until one matches, which for a value never
/// seen is every row. Measured on the four tables fedbench writes to at
/// scale 1.0 (2 000 – 5 000 rows, release build): a comparison, with the
/// pointer chase to its row, 7–12 ns; a hash insert 65–78 ns; a descent
/// 170–230 ns. Constants, not settings: no caller wants another ratio.
const HASH_INSERT_COST: usize = 8;
const INDEX_PROBE_COST: usize = 24;

impl Clone for Table {
    fn clone(&self) -> Self {
        // The data is shared, and so is the profile: it travels as a
        // pointer, and whoever extends it stores a profile of its own.
        Table {
            schema: self.schema.clone(),
            rows: Arc::clone(&self.rows),
            indexes: Arc::clone(&self.indexes),
            profile: Mutex::new(Arc::clone(&self.profile_slot())),
        }
    }
}

impl Table {
    /// Creates an empty table; builds the primary-key index if a key is
    /// declared. A column named twice, in the table or in its key, is
    /// rejected: the second could never be reached by name.
    pub(crate) fn new(schema: TableSchema) -> Result<Self, SqlError> {
        for (at, column) in schema.columns.iter().enumerate() {
            if schema.columns[..at].iter().any(|c| c.name == column.name) {
                return Err(SqlError::AlreadyExists(format!("column {}", column.name)));
            }
        }
        let profile = Mutex::new(Arc::new(TableProfile::empty(schema.arity())));
        let mut t = Table { schema, rows: Arc::default(), indexes: Arc::default(), profile };
        if !t.schema.primary_key.is_empty() {
            let cols = t.resolve_columns(&t.schema.primary_key.clone())?;
            for (at, &col) in cols.iter().enumerate() {
                if cols[..at].contains(&col) {
                    let name = &t.schema.columns[col].name;
                    return Err(SqlError::AlreadyExists(format!("column {name}")));
                }
            }
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
    /// all indexes. Returns the new row id. An `Int` in a DOUBLE column is
    /// stored as the double it rounds to, the value the column's lift reads.
    pub(crate) fn insert(&mut self, mut row: Vec<Value>) -> Result<RowId, SqlError> {
        if row.len() != self.schema.arity() {
            return Err(SqlError::Constraint(format!(
                "table {} expects {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        for (col, v) in self.schema.columns.iter().zip(&mut row) {
            if let (DataType::Double, Value::Int(i)) = (col.data_type, &*v) {
                *v = Value::Double(*i as f64);
            }
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
    pub(crate) fn create_index(
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
    pub(crate) fn has_index_on(&self, col: &str) -> bool {
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

    fn profile_slot(&self) -> MutexGuard<'_, Arc<TableProfile>> {
        self.profile.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The profile of the current rows. A profile that is behind is
    /// extended by the rows appended since — equal to a full pass at every
    /// point — and kept for the next caller; a clone carries the one it was
    /// cloned with and extends it on its own from there.
    pub fn profile(&self) -> Arc<TableProfile> {
        let mut slot = self.profile_slot();
        if slot.rows < self.rows.len() {
            // Built aside and stored whole: rows covered and counters move
            // together, so a panic on the way leaves the old profile —
            // short, not wrong — behind the poison-tolerant lock.
            *slot = Arc::new(self.profile_after(&slot));
        }
        Arc::clone(&slot)
    }

    /// `old` brought up to the current rows: extended when asking the table
    /// about the appended cells is estimated cheaper than hashing every
    /// cell again, rebuilt in one full pass otherwise — the first ask and a
    /// bulk load.
    fn profile_after(&self, old: &TableProfile) -> TableProfile {
        let (arity, len) = (self.schema.arity(), self.rows.len());
        let probes: Vec<Option<&BTreeIndex>> = (0..arity)
            .map(|c| self.indexes.iter().find(|i| i.key_columns == [c]))
            .collect();
        let indexed = probes.iter().flatten().count();
        let per_appended_row = indexed * INDEX_PROBE_COST + (arity - indexed) * len;
        let extend =
            (len - old.rows).saturating_mul(per_appended_row) < len * arity * HASH_INSERT_COST;

        let mut profile = if extend { old.clone() } else { TableProfile::empty(arity) };
        let mut seen: Vec<HashSet<&Value>> = vec![HashSet::new(); if extend { 0 } else { arity }];
        for at in profile.rows..len {
            let mut pattern = 0u64;
            for (c, v) in self.rows[at].iter().enumerate().filter(|(_, v)| !v.is_null()) {
                if c < TableProfile::MAX_COLUMNS {
                    pattern |= 1 << c;
                }
                let new = match (extend, probes[c]) {
                    (false, _) => seen[c].insert(v),
                    // The index already holds this row: the value is new
                    // when the oldest row under its key is this one.
                    (true, Some(index)) => {
                        index.lookup(std::slice::from_ref(v)).first() == Some(&at)
                    }
                    (true, None) => !self.rows[..at].iter().any(|row| row[c] == *v),
                };
                profile.distinct[c] += u64::from(new);
            }
            if let Some(patterns) = &mut profile.patterns {
                *patterns.entry(pattern).or_insert(0) += 1;
            }
        }
        profile.rows = len;
        profile
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

    /// The profile by definition: every cell of every row into a set.
    fn full_pass(t: &Table) -> TableProfile {
        let mut profile = TableProfile::empty(t.schema.arity());
        let mut seen = vec![HashSet::new(); t.schema.arity()];
        for (_, row) in t.iter() {
            let mut pattern = 0;
            for (c, v) in row.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                if c < TableProfile::MAX_COLUMNS {
                    pattern |= 1 << c;
                }
                seen[c].insert(v);
            }
            if let Some(patterns) = &mut profile.patterns {
                *patterns.entry(pattern).or_insert(0) += 1;
            }
        }
        profile.rows = t.len();
        profile.distinct = seen.iter().map(|s| s.len() as u64).collect();
        profile
    }

    /// The drug table widened to `width` columns: `id`, `name` and `mass`
    /// first, then TEXT and DOUBLE columns in turn.
    fn table_of_width(width: usize) -> Table {
        let mut columns = table().schema.columns;
        columns.extend((3..width).map(|c| {
            let data_type = if c % 2 == 1 { DataType::Text } else { DataType::Double };
            Column::new(format!("c{c}"), data_type)
        }));
        Table::new(TableSchema::new("drug", columns).with_primary_key(&["id"])).unwrap()
    }

    #[test]
    fn profile_counts_values_and_null_patterns() {
        let mut t = table();
        assert_eq!(*t.profile(), TableProfile::empty(3));
        t.insert(vec![Value::text("d1"), Value::text("Aspirin"), Value::Double(180.0)]).unwrap();
        t.insert(vec![Value::text("d2"), Value::text("Aspirin"), Value::Null]).unwrap();
        t.insert(vec![Value::text("d3"), Value::Null, Value::Int(180)]).unwrap();
        let p = t.profile();
        assert_eq!((p.rows, &p.distinct[..]), (3, &[3, 1, 1][..]), "180 and 180.0 are one value");
        let patterns = BTreeMap::from([(0b111, 1), (0b011, 1), (0b101, 1)]);
        assert_eq!(p.patterns, Some(patterns));
        assert_eq!((p.non_null(0), p.non_null(1), p.non_null(2)), (Some(3), Some(2), Some(2)));
        assert_eq!(*p, full_pass(&t));

        // Past `MAX_COLUMNS` the distinct counts are kept, the NULL
        // patterns are not.
        let mut wide = table_of_width(TableProfile::MAX_COLUMNS + 1);
        let mut row = vec![Value::Null; TableProfile::MAX_COLUMNS + 1];
        (row[0], row[64]) = (Value::text("d1"), Value::Double(1.5));
        wide.insert(row).unwrap();
        let p = wide.profile();
        assert_eq!((p.rows, p.distinct[0], p.distinct[1], p.distinct[64]), (1, 1, 0, 1));
        assert_eq!((&p.patterns, p.non_null(0)), (&None, None));
        assert_eq!(*p, full_pass(&wide));
    }

    /// Whenever it is asked — after one append, after many, across an index
    /// appearing and going under it — the kept profile equals a full pass
    /// and its distinct counts equal a scan of each column, on a table of
    /// three columns and on one too wide for NULL patterns; a rejected
    /// insert leaves it as it is, and a clone starts from the one it was
    /// cloned with.
    #[test]
    fn an_extended_profile_equals_a_full_pass() {
        use crate::stats::scan_column;
        use fedlake_prng::Prng;
        // The wide table takes fewer steps: each one scans 65 columns.
        for (width, steps) in [(3, 400usize), (TableProfile::MAX_COLUMNS + 1, 80)] {
            let mut rng = Prng::seed_from_u64(0x9f0f_11e5);
            let mut t = table_of_width(width);
            let mut clone: Option<Table> = None;
            for step in 0..steps {
                // In eighths of the run: an index appears, another, the
                // first goes, the table is cloned.
                match (step * 8 / steps, step * 8 % steps) {
                    (3, 0) => t.create_index("by_name", &["name".into()], false).unwrap(),
                    (4, 0) => t.create_index("by_mass", &["mass".into()], false).unwrap(),
                    (5, 0) => assert!(t.drop_index("by_name")),
                    (6, 0) => {
                        let c = t.clone();
                        assert!(Arc::ptr_eq(&c.profile(), &t.profile()));
                        clone = Some(c);
                    }
                    _ => {}
                }
                let target = match &mut clone {
                    Some(c) if rng.gen_bool(0.5) => c,
                    _ => &mut t,
                };
                // Mostly one row per ask; now and then a load large enough
                // to be cheaper as a full pass.
                let rows = if rng.gen_bool(0.05) { rng.gen_range(20..120usize) } else { 1 };
                for _ in 0..rows {
                    let mut row = vec![Value::text(format!("d{}", rng.gen_range(0..2000)))];
                    for c in 1..width {
                        row.push(match (c % 2, rng.gen_range(0u8..8)) {
                            (_, 0) => Value::Null,
                            (1, 1..=4) => Value::text(format!("n{}", rng.gen_range(0..12))),
                            (1, _) => Value::text(format!("fresh{}", rng.next_u64())),
                            (_, 1..=2) => Value::Int(rng.gen_range(0i64..30)),
                            _ => Value::Double(rng.gen_range(0i64..60) as f64 / 2.0),
                        });
                    }
                    // Asking in the middle of a load would make it single
                    // appends.
                    let before = (rows == 1).then(|| target.profile());
                    if target.insert(row).is_err() {
                        if let Some(before) = before {
                            assert!(Arc::ptr_eq(&before, &target.profile()));
                        }
                    }
                }
                let profile = target.profile();
                let scanned: Vec<u64> =
                    (0..width).map(|c| scan_column(target, c).distinct as u64).collect();
                assert_eq!(profile.distinct, scanned, "width {width}, step {step}");
                if rng.gen_bool(0.8) {
                    assert_eq!(*profile, full_pass(target), "width {width}, step {step}");
                }
            }
            let c = clone.unwrap();
            assert_ne!(t.len(), c.len());
            assert_eq!(*t.profile(), full_pass(&t));
            assert_eq!(*c.profile(), full_pass(&c));
        }
    }
}
