//! Table schemas, keys and index definitions.

use crate::value::DataType;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lowercase).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// NOT NULL constraint.
    pub not_null: bool,
}

impl Column {
    /// Creates a nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column { name: name.into().to_lowercase(), data_type, not_null: false }
    }

    /// Creates a NOT NULL column.
    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Self {
        Column { name: name.into().to_lowercase(), data_type, not_null: true }
    }
}

/// A secondary-index definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name.
    pub name: String,
    /// Indexed columns, in key order.
    pub columns: Vec<String>,
    /// UNIQUE constraint.
    pub unique: bool,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (lowercase).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Primary-key columns (always implicitly indexed).
    pub primary_key: Vec<String>,
}

impl TableSchema {
    /// Creates a schema with no keys.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        TableSchema {
            name: name.into().to_lowercase(),
            columns,
            primary_key: Vec::new(),
        }
    }

    /// Builder: sets the primary key.
    pub fn with_primary_key(mut self, cols: &[&str]) -> Self {
        self.primary_key = cols.iter().map(|c| c.to_lowercase()).collect();
        self
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let name = name.to_lowercase();
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True when `col` is the (single-column) primary key.
    pub fn is_primary_key(&self, col: &str) -> bool {
        self.primary_key.len() == 1 && self.primary_key[0].eq_ignore_ascii_case(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "Drug",
            vec![
                Column::not_null("ID", DataType::Text),
                Column::new("name", DataType::Text),
                Column::new("mass", DataType::Double),
            ],
        )
        .with_primary_key(&["ID"])
    }

    #[test]
    fn names_are_lowercased() {
        let s = schema();
        assert_eq!(s.name, "drug");
        assert_eq!(s.columns[0].name, "id");
        assert_eq!(s.primary_key, vec!["id"]);
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("NAME"), Some(1));
        assert_eq!(s.column("Mass").unwrap().data_type, DataType::Double);
        assert!(s.column_index("missing").is_none());
    }

    #[test]
    fn primary_key_detection() {
        let s = schema();
        assert!(s.is_primary_key("id"));
        assert!(s.is_primary_key("ID"));
        assert!(!s.is_primary_key("name"));
    }

    #[test]
    fn arity() {
        assert_eq!(schema().arity(), 3);
    }
}
