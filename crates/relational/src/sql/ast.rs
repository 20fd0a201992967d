//! SQL abstract syntax.

use crate::schema::TableSchema;
use crate::value::Value;
use std::fmt;

/// A possibly table-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias, when qualified.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColumnRef { table: None, column: column.into().to_lowercase() }
    }

    /// A qualified reference.
    pub(crate) fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into().to_lowercase()),
            column: column.into().to_lowercase(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// SQL comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlCmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for SqlCmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SqlCmpOp::Eq => "=",
            SqlCmpOp::Ne => "<>",
            SqlCmpOp::Lt => "<",
            SqlCmpOp::Le => "<=",
            SqlCmpOp::Gt => ">",
            SqlCmpOp::Ge => ">=",
        })
    }
}

/// The right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A column reference (making the predicate a join condition).
    Column(ColumnRef),
    /// A literal value.
    Literal(Value),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Column(c) => write!(f, "{c}"),
            Operand::Literal(v) => write!(f, "{v}"),
        }
    }
}

/// A conjunct of a `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col OP operand`.
    Compare {
        /// Left column.
        left: ColumnRef,
        /// Operator.
        op: SqlCmpOp,
        /// Right operand.
        right: Operand,
    },
    /// `col [NOT] LIKE 'pattern'`.
    Like {
        /// Filtered column.
        col: ColumnRef,
        /// LIKE pattern with `%`/`_` wildcards.
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull {
        /// Tested column.
        col: ColumnRef,
        /// IS NOT NULL.
        negated: bool,
    },
    /// `col IN (v1, v2, …)`.
    InList {
        /// Tested column.
        col: ColumnRef,
        /// Allowed values.
        values: Vec<Value>,
    },
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::Like { col, pattern, negated } => {
                write!(f, "{col} {}LIKE '{pattern}'", if *negated { "NOT " } else { "" })
            }
            Predicate::IsNull { col, negated } => {
                write!(f, "{col} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Predicate::InList { col, values } => {
                write!(f, "{col} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One projected item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Star,
    /// A column, optionally aliased with `AS`.
    Column(ColumnRef, Option<String>),
}

/// A table in the `FROM`/`JOIN` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: String,
}

/// One `JOIN … ON a = b` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// Left side of the ON equality.
    pub left: ColumnRef,
    /// Right side of the ON equality.
    pub right: ColumnRef,
}

/// An `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Sorted column.
    pub col: ColumnRef,
    /// Ascending?
    pub asc: bool,
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// First `FROM` table.
    pub from: TableRef,
    /// `JOIN` clauses in syntactic order.
    pub joins: Vec<JoinClause>,
    /// Conjunctive `WHERE` predicates.
    pub predicates: Vec<Predicate>,
    /// `ORDER BY` keys.
    pub order_by: Vec<SortKey>,
    /// `LIMIT`.
    pub limit: Option<usize>,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE`.
    CreateTable(TableSchema),
    /// `CREATE [UNIQUE] INDEX`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Target table.
        table: String,
        /// Indexed columns.
        columns: Vec<String>,
        /// UNIQUE flag.
        unique: bool,
    },
    /// `INSERT INTO … VALUES …`.
    Insert {
        /// Target table.
        table: String,
        /// Row tuples.
        rows: Vec<Vec<Value>>,
    },
    /// `SELECT`.
    Select(SelectStmt),
    /// `EXPLAIN SELECT`.
    Explain(SelectStmt),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::new("Name").to_string(), "name");
        assert_eq!(ColumnRef::qualified("T", "C").to_string(), "t.c");
    }

    #[test]
    fn predicate_display() {
        let p = Predicate::Like {
            col: ColumnRef::new("name"),
            pattern: "%sapiens%".into(),
            negated: false,
        };
        assert_eq!(p.to_string(), "name LIKE '%sapiens%'");
        let q = Predicate::InList {
            col: ColumnRef::new("id"),
            values: vec![Value::Int(1), Value::Int(2)],
        };
        assert_eq!(q.to_string(), "id IN (1, 2)");
    }
}
