//! # fedlake-relational
//!
//! An embedded, in-memory relational database engine — the stand-in for the
//! MySQL 5.7 containers the paper's data lake is built from.
//!
//! The engine provides everything the physical-design heuristics observe:
//!
//! * a catalog with primary keys, foreign keys and **secondary indexes**
//!   ([`schema`], [`Database::create_index`]);
//! * B-tree indexes supporting point and range lookups ([`index`]);
//! * one profile per table — distinct values per column, rows per NULL
//!   pattern — kept current as rows are appended, that the optimizer
//!   prices equalities from ([`storage::TableProfile`]);
//! * per-column statistics including the *duplication ratio* that drives
//!   the paper's "no index when a value occurs in more than 15 % of the
//!   records" rule ([`stats`]);
//! * a SQL subset (`CREATE TABLE`, `CREATE INDEX`, `INSERT`, `SELECT` with
//!   joins, `WHERE`, `ORDER BY`, `LIMIT`) ([`sql`]);
//! * a rule/cost optimizer that picks access paths and join algorithms
//!   based on available indexes ([`optimizer`]);
//! * an iterator executor with **cost accounting** ([`exec`]) — the numbers
//!   the network/cost simulation converts into simulated time;
//! * `EXPLAIN` output ([`explain`]).
//!
//! ## Example
//!
//! ```
//! use fedlake_relational::Database;
//!
//! let mut db = Database::new("demo");
//! db.execute("CREATE TABLE drug (id TEXT PRIMARY KEY, name TEXT)").unwrap();
//! db.execute("INSERT INTO drug VALUES ('d1', 'Aspirin')").unwrap();
//! let rs = db.execute("SELECT name FROM drug WHERE id = 'd1'").unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod cache;
pub mod db;
pub mod error;
pub mod exec;
pub mod explain;
pub mod index;
pub mod optimizer;
pub mod plan;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod value;

pub use cache::{CacheStats, VersionedCache};
pub use db::{BorrowedResult, Database, ResultSet};
pub use error::SqlError;
pub use exec::CostStats;
pub use schema::{Column, IndexDef, TableSchema};
pub use value::{DataType, Value};
