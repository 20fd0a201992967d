//! Table and column statistics.
//!
//! These drive both the optimizer's cardinality estimates and the paper's
//! physical-design policy: *"No index is created \[when\] there are values
//! that are present in more than 15 % of the records"* (§1). The
//! [`ColumnStats::duplication_ratio`] captures exactly that quantity.

use crate::storage::Table;
use crate::value::Value;
use std::collections::HashMap;

/// The paper's indexing threshold: an attribute is indexable only when no
/// single value occurs in more than 15 % of the records.
pub const INDEXABLE_DUPLICATION_THRESHOLD: f64 = 0.15;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub column: String,
    /// Total non-NULL values.
    pub count: usize,
    /// NULL count.
    pub nulls: usize,
    /// Number of distinct non-NULL values.
    pub distinct: usize,
    /// Frequency of the most common value, as a fraction of all rows
    /// (`0.0` for an empty column).
    pub duplication_ratio: f64,
}

impl ColumnStats {
    /// Estimated selectivity of an equality predicate on this column:
    /// `1 / NDV` under the uniformity assumption.
    pub(crate) fn eq_selectivity(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            1.0 / self.distinct as f64
        }
    }

    /// Whether the paper's physical-design policy permits an index on this
    /// column (§1: no value in more than 15 % of records).
    pub fn is_indexable(&self) -> bool {
        self.duplication_ratio <= INDEXABLE_DUPLICATION_THRESHOLD
    }
}

/// Statistics for one column of a table, served from the table's cache
/// ([`crate::cache`]; the row count is the version) so that planning a
/// query does not scan the data it is about to plan around. Equal to a
/// fresh pass over the rows at every point.
pub fn column_stats(table: &Table, column: &str) -> Option<ColumnStats> {
    let pos = table.schema.column_index(column)?;
    Some(table.column_stats_cached(pos, || scan_column(table, pos)))
}

/// One pass over the rows of the column at `pos`.
fn scan_column(table: &Table, pos: usize) -> ColumnStats {
    let mut freq: HashMap<&Value, usize> = HashMap::new();
    let mut nulls = 0usize;
    for (_, row) in table.iter() {
        let v = &row[pos];
        if v.is_null() {
            nulls += 1;
        } else {
            *freq.entry(v).or_insert(0) += 1;
        }
    }
    let count: usize = freq.values().sum();
    let max_freq = freq.values().copied().max().unwrap_or(0);
    let total = count + nulls;
    ColumnStats {
        column: table.schema.columns[pos].name.clone(),
        count,
        nulls,
        distinct: freq.len(),
        duplication_ratio: if total == 0 {
            0.0
        } else {
            max_freq as f64 / total as f64
        },
    }
}

/// Statistics for a whole table, computed on demand.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count.
    pub rows: usize,
    /// Per-column statistics in schema order.
    pub columns: Vec<ColumnStats>,
}

/// Computes statistics for every column of a table.
pub(crate) fn table_stats(table: &Table) -> TableStats {
    let columns = (0..table.schema.columns.len())
        .map(|pos| table.column_stats_cached(pos, || scan_column(table, pos)))
        .collect();
    TableStats { rows: table.len(), columns }
}

impl TableStats {
    /// Looks up a column's stats by name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        let name = name.to_lowercase();
        self.columns.iter().find(|c| c.column == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::DataType;

    fn table_with(names: &[&str]) -> Table {
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("species", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        for (i, n) in names.iter().enumerate() {
            t.insert(vec![Value::Int(i as i64), Value::text(*n)]).unwrap();
        }
        t
    }

    #[test]
    fn stats_basic() {
        let t = table_with(&["a", "b", "a", "c"]);
        let s = column_stats(&t, "species").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.duplication_ratio, 0.5);
        assert_eq!(s.nulls, 0);
    }

    #[test]
    fn nulls_counted_separately() {
        let mut t = table_with(&["a"]);
        t.insert(vec![Value::Int(99), Value::Null]).unwrap();
        let s = column_stats(&t, "species").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.nulls, 1);
        // max_freq 1 over 2 total rows.
        assert_eq!(s.duplication_ratio, 0.5);
    }

    #[test]
    fn fifteen_percent_rule() {
        // 20 distinct values in 20 rows: every value at 5 % → indexable.
        let names: Vec<String> = (0..20).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let t = table_with(&refs);
        assert!(column_stats(&t, "species").unwrap().is_indexable());

        // One value in 4 of 20 rows (20 %) → not indexable. This mirrors
        // the paper's Affymetrix species attribute.
        let mut skewed: Vec<&str> = vec!["Homo sapiens"; 4];
        let uniq: Vec<String> = (0..16).map(|i| format!("v{i}")).collect();
        skewed.extend(uniq.iter().map(String::as_str));
        let t = table_with(&skewed);
        let s = column_stats(&t, "species").unwrap();
        assert!(s.duplication_ratio > INDEXABLE_DUPLICATION_THRESHOLD);
        assert!(!s.is_indexable());
    }

    #[test]
    fn eq_selectivity() {
        let t = table_with(&["a", "b", "a", "c"]);
        let s = column_stats(&t, "species").unwrap();
        assert!((s.eq_selectivity() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_stats_covers_all_columns() {
        let t = table_with(&["a", "b"]);
        let ts = table_stats(&t);
        assert_eq!(ts.rows, 2);
        assert_eq!(ts.columns.len(), 2);
        assert!(ts.column("ID").is_some());
        assert!(ts.column("nope").is_none());
    }

    /// After every insert of a seeded sequence — accepted or rejected —
    /// the cached statistics equal a fresh pass, and each column is
    /// scanned once per row count at which somebody asked.
    #[test]
    fn cached_stats_equal_a_fresh_pass_after_any_insert_sequence() {
        use fedlake_prng::Prng;
        let mut rng = Prng::seed_from_u64(0x57a7_0001);
        for _ in 0..32 {
            let mut t = table_with(&[]);
            let mut asked_at: [Option<usize>; 2] = [None, None];
            let mut passes = 0;
            for _ in 0..rng.gen_range(1usize..40) {
                // A small id range, so some inserts violate the key.
                let id = Value::Int(rng.gen_range(0i64..24));
                let species = match rng.gen_range(0u8..5) {
                    0 => Value::Null,
                    n => Value::text(format!("s{n}")),
                };
                let _ = t.insert(vec![id, species]);
                for (pos, name) in ["id", "species"].into_iter().enumerate() {
                    if rng.gen_bool(0.6) {
                        assert_eq!(column_stats(&t, name).unwrap(), scan_column(&t, pos));
                        if asked_at[pos] != Some(t.len()) {
                            asked_at[pos] = Some(t.len());
                            passes += 1;
                        }
                    }
                }
            }
            let s = t.stats_cache_stats();
            assert_eq!(s.misses, passes, "one pass per (column, row count) asked about");
            assert_eq!(s.lookups, s.hits + s.misses);
        }
    }

    #[test]
    fn a_clone_answers_from_the_carried_cache_until_it_diverges() {
        let t = table_with(&["a", "b", "a"]);
        let original = column_stats(&t, "species").unwrap();
        assert_eq!(t.stats_cache_stats().misses, 1);

        let mut c = t.clone();
        assert_eq!(column_stats(&c, "species").unwrap(), original);
        assert_eq!(table_stats(&c).column("species"), Some(&original));
        assert_eq!(c.stats_cache_stats().misses, 2, "only `id` was new to the clone");

        // Diverge: the clone recomputes, the original is untouched.
        c.insert(vec![Value::Int(99), Value::text("a")]).unwrap();
        assert_eq!(column_stats(&c, "species").unwrap().count, 4);
        assert_eq!(c.stats_cache_stats().stale, 1);
        assert_eq!(column_stats(&t, "species").unwrap(), original);
        assert_eq!(t.stats_cache_stats().misses, 1);
    }

    #[test]
    fn empty_table_stats() {
        let t = table_with(&[]);
        let s = column_stats(&t, "species").unwrap();
        assert_eq!(s.count, 0);
        assert_eq!(s.duplication_ratio, 0.0);
        assert_eq!(s.eq_selectivity(), 0.0);
        assert!(s.is_indexable());
    }
}
