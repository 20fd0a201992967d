//! # fedlake-sparql
//!
//! A SPARQL 1.0/1.1 subset sufficient for federated query processing over a
//! Semantic Data Lake: `SELECT` queries with basic graph patterns,
//! `FILTER`, `OPTIONAL`, `UNION`, `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET`
//! and `PREFIX` declarations.
//!
//! The crate provides:
//!
//! * [`parser`] — text → [`ast::SelectQuery`];
//! * [`algebra`] — the logical algebra the federated engine plans over;
//! * [`eval`] — a complete local evaluator against a
//!   [`fedlake_rdf::Graph`], used both by the SPARQL-endpoint wrapper and
//!   as the ground-truth oracle in tests;
//! * [`binding`] — solution mappings ([`binding::Row`]) shared by every
//!   operator in the workspace.
//!
//! ## Example
//!
//! ```
//! use fedlake_rdf::{Graph, Term};
//! use fedlake_sparql::{eval::evaluate, parser::parse_query};
//!
//! let mut g = Graph::new();
//! g.insert_terms(
//!     Term::iri("http://ex/alice"),
//!     Term::iri("http://ex/name"),
//!     Term::literal("Alice"),
//! );
//! let q = parse_query("SELECT ?n WHERE { ?s <http://ex/name> ?n }").unwrap();
//! let rows = evaluate(&q, &g).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

pub mod algebra;
pub mod ast;
pub mod binding;
pub mod error;
pub mod eval;
pub mod expr;
pub mod parser;
pub mod token;

pub use ast::{SelectQuery, TriplePattern, VarOrTerm};
pub use binding::{decode_row, encode_row, Row, RowArena, RowId, RowSchema, Rows, Var};
pub use error::SparqlError;
