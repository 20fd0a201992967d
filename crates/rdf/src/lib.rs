//! # fedlake-rdf
//!
//! An in-memory RDF data model and triple store.
//!
//! This crate provides the RDF substrate of the FedLake Semantic Data Lake:
//! RDF terms ([`Term`]), triples ([`Triple`]), an interning dictionary
//! ([`Dictionary`]) and an indexed, in-memory triple store ([`Graph`]) with
//! `SPO`/`POS`/`OSP` indexes and triple-pattern matching.
//!
//! The store is the storage layer behind the SPARQL-endpoint members of a
//! data lake (see `fedlake-core`), and the target model for the RDF lifting
//! of relational datasets (see `fedlake-mapping`).
//!
//! ## Example
//!
//! ```
//! use fedlake_rdf::{Graph, Term};
//!
//! let mut g = Graph::new();
//! g.insert_terms(
//!     Term::iri("http://example.org/alice"),
//!     Term::iri("http://xmlns.com/foaf/0.1/knows"),
//!     Term::iri("http://example.org/bob"),
//! );
//! assert_eq!(g.len(), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod dict;
pub mod graph;
pub mod hash;
pub mod term;
pub mod vocab;

pub use dict::{Dictionary, SharedInterner, TermId};
pub use hash::{BuildFastHasher, FastMap, FastSet};
pub use graph::{Graph, TriplePattern};
pub use term::{Literal, Term};

/// A triple of interned term identifiers, valid with respect to the
/// [`Dictionary`] of the [`Graph`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject term id (an IRI or blank node).
    pub s: TermId,
    /// Predicate term id (an IRI).
    pub p: TermId,
    /// Object term id (any term).
    pub o: TermId,
}

impl Triple {
    /// Creates a triple from three interned term ids.
    pub(crate) fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Triple { s, p, o }
    }
}
