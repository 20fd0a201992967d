//! # FedLake
//!
//! Physical-design-aware federated query processing over a Semantic Data
//! Lake — a from-scratch Rust reproduction of
//! *Optimizing Federated Queries Based on the Physical Design of a Data
//! Lake* (Rohde & Vidal, EDBT 2020 workshops / SEAData 2020).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`rdf`] — RDF data model and indexed triple store.
//! * [`sparql`] — SPARQL subset: parser, algebra, local evaluation.
//! * [`relational`] — embedded relational engine (the MySQL stand-in).
//! * [`netsim`] — network simulation: gamma-distributed per-message delays
//!   over a virtual clock, plus the engine cost model.
//! * [`mapping`] — table↔RDF mappings, source descriptions, RDF Molecule
//!   Templates.
//! * [`core`] — the federated engine: decomposition into star-shaped
//!   sub-queries, source selection, plan generation with the paper's two
//!   physical-design heuristics, adaptive operators, wrappers, answer
//!   traces.
//! * [`datagen`] — the synthetic LSLOD-like life-science data lake.
//! * [`serve`] — concurrent multi-query serving: seeded client
//!   workloads, admission control, shared-link contention, latency and
//!   fairness reporting.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture and
//! the experiment index.

pub use fedlake_core as core;
pub use fedlake_datagen as datagen;
pub use fedlake_mapping as mapping;
pub use fedlake_netsim as netsim;
pub use fedlake_rdf as rdf;
pub use fedlake_relational as relational;
pub use fedlake_serve as serve;
pub use fedlake_sparql as sparql;
