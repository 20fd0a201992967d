//! Column statistics for the paper's physical-design policy: *"No index is
//! created \[when\] there are values that are present in more than 15 % of
//! the records"* (§1). The [`ColumnStats::duplication_ratio`] captures
//! exactly that quantity. The optimizer's distinct counts come from the
//! table's profile (`Table::profile`), not from here.

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
    /// Whether the paper's physical-design policy permits an index on this
    /// column (§1: no value in more than 15 % of records).
    pub fn is_indexable(&self) -> bool {
        self.duplication_ratio <= INDEXABLE_DUPLICATION_THRESHOLD
    }
}

/// Statistics for one column of a table, by one pass over its rows.
pub fn column_stats(table: &Table, column: &str) -> Option<ColumnStats> {
    Some(scan_column(table, table.schema.column_index(column)?))
}

/// One pass over the rows of the column at `pos`.
pub(crate) fn scan_column(table: &Table, pos: usize) -> ColumnStats {
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
    fn empty_table_stats() {
        let t = table_with(&[]);
        let s = column_stats(&t, "species").unwrap();
        assert_eq!(s.count, 0);
        assert_eq!(s.duplication_ratio, 0.0);
        assert!(s.is_indexable());
    }
}
