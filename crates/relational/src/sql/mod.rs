//! The SQL front-end: lexer, AST and parser for the supported subset.
//!
//! Supported statements:
//!
//! * `CREATE TABLE t (col TYPE [NOT NULL] [PRIMARY KEY], …,
//!   [PRIMARY KEY (a, b)], [FOREIGN KEY (a) REFERENCES t2 (b)])`; a
//!   foreign key is checked and dropped, since no plan reads one
//! * `CREATE [UNIQUE] INDEX name ON t (col, …)`
//! * `INSERT INTO t VALUES (…), (…)`
//! * `SELECT [DISTINCT] cols | * FROM t [alias]
//!   [JOIN t2 [alias] ON a.x = b.y]* [WHERE pred [AND pred]*]
//!   [ORDER BY col [ASC|DESC], …] [LIMIT n]`
//! * `EXPLAIN SELECT …`

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{ColumnRef, Operand, Predicate, SelectStmt, SqlCmpOp, Statement};
pub use parser::parse;
