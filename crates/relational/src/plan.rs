//! Physical query plans.
//!
//! Plans are left-deep: the right side of every join is a base-table scan.
//! This mirrors the shape of plans MySQL produces for the star-shaped
//! queries the paper's workload consists of, and keeps the cost accounting
//! interpretable.

use crate::sql::ast::{ColumnRef, Predicate, SortKey};
use crate::value::Value;

/// How a base table is accessed.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full heap scan.
    SeqScan,
    /// Point lookup on an index's leading column.
    IndexEq {
        /// Index name.
        index: String,
        /// Lookup key.
        key: Value,
    },
    /// Range scan on an index's leading column.
    IndexRange {
        /// Index name.
        index: String,
        /// Lower bound (value, inclusive).
        low: Option<(Value, bool)>,
        /// Upper bound (value, inclusive).
        high: Option<(Value, bool)>,
    },
    /// A batch of point lookups (`IN` list).
    IndexInList {
        /// Index name.
        index: String,
        /// Lookup keys.
        keys: Vec<Value>,
    },
}

/// A base-table scan with residual predicates evaluated after access.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanNode {
    /// Table name.
    pub table: String,
    /// Alias the scan's columns are exposed under.
    pub alias: String,
    /// Access path chosen by the optimizer.
    pub path: AccessPath,
    /// Single-table predicates applied after row fetch.
    pub residual: Vec<Predicate>,
    /// Optimizer's cardinality estimate after residual filters.
    pub estimated_rows: f64,
}

/// Join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Build a hash table on the accumulated left side, probe with the
    /// right scan.
    Hash,
    /// For each left row, probe the right table's index on the join key.
    IndexNestedLoop,
    /// Cartesian product (no join condition).
    Cross,
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Leaf scan.
    Scan(ScanNode),
    /// Left-deep join step.
    Join {
        /// Accumulated left input.
        left: Box<PhysicalPlan>,
        /// Right base-table scan.
        right: ScanNode,
        /// Algorithm.
        algo: JoinAlgo,
        /// Join key on the left input (alias-qualified), unless `Cross`.
        left_key: Option<ColumnRef>,
        /// Join key on the right table, unless `Cross`.
        right_key: Option<ColumnRef>,
    },
    /// Residual multi-table filter.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Conjunctive predicates.
        predicates: Vec<Predicate>,
    },
    /// Column projection.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Projected columns (alias-qualified).
        columns: Vec<ColumnRef>,
        /// Output names for the projected columns.
        names: Vec<String>,
    },
    /// Duplicate elimination.
    Distinct(Box<PhysicalPlan>),
    /// Sorting.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Maximum rows.
        n: usize,
    },
}
