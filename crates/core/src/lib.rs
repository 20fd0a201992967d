//! # fedlake-core
//!
//! The federated SPARQL query engine for Semantic Data Lakes — a
//! from-scratch Rust reproduction of Ontario extended with the
//! physical-design heuristics of Rohde & Vidal (EDBT 2020 workshops):
//!
//! * **Heuristic 1 — pushing down joins**: star-shaped sub-queries over the
//!   same relational endpoint are merged into one SQL query when the join
//!   attribute is indexed there ([`planner`]).
//! * **Heuristic 2 — pushing up instantiations**: filters on relational
//!   sub-queries run at the engine unless the filtered attribute is indexed
//!   *and* the network is slow ([`planner`]).
//!
//! The pipeline follows Ontario/MULDER/ANAPSID:
//!
//! ```text
//! SPARQL ─parse→ decompose into star-shaped sub-queries (SSQs)
//!        ─select sources via RDF Molecule Templates
//!        ─plan (PlanMode::Unaware | PlanMode::Aware{h1, h2})
//!        ─execute: streaming symmetric hash joins over wrappers
//!            SQL wrapper: SPARQL→SQL translation, per-message network delay
//!            SPARQL wrapper: local BGP evaluation
//!        → answers + answer trace + execution statistics
//! ```
//!
//! Execution runs over a simulated clock (`fedlake-netsim`), so answer
//! traces — the measurement behind the paper's Figure 2 — are
//! deterministic and fast to produce.
//!
//! ## Example
//!
//! ```
//! use fedlake_core::{DataLake, DataSource, FederatedEngine, PlanConfig};
//! use fedlake_rdf::{Graph, Term};
//!
//! let mut g = Graph::new();
//! g.insert_terms(
//!     Term::iri("http://ex/g1"),
//!     Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
//!     Term::iri("http://ex/Gene"),
//! );
//! g.insert_terms(
//!     Term::iri("http://ex/g1"),
//!     Term::iri("http://ex/label"),
//!     Term::literal("BRCA1"),
//! );
//! let mut lake = DataLake::new();
//! lake.add_source(DataSource::sparql("genes", g));
//! let engine = FederatedEngine::new(lake, PlanConfig::default());
//! let result = engine
//!     .execute_sparql("SELECT ?l WHERE { ?g a <http://ex/Gene> . ?g <http://ex/label> ?l }")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod config;
pub mod decompose;
pub mod engine;
pub mod error;
pub mod explain;
pub mod fedplan;
pub mod health;
pub mod ir;
pub mod lake;
pub mod obs;
pub mod operators;
pub mod plancache;
pub mod planner;
pub mod results;
pub mod selection;
pub mod serve;
pub mod source;
pub mod stats;
pub mod trace;
pub mod translate;
pub mod wrapper;

pub use config::{FilterPlacement, MergeTranslation, PlanConfig, PlanMode, RetryPolicy};
pub use decompose::DecompositionStrategy;
pub use engine::{EngineCacheStats, FedResult, FedStats, FederatedEngine};
pub use fedlake_relational::cache::CacheStats;
pub use fedlake_netsim::{FaultPlan, FaultPlans, LinkFault, OutageGroup};
pub use error::FedError;
pub use fedplan::ReplicaRoute;
pub use health::{EndpointHealth, HealthView, SourceHealth};
pub use lake::{logical_source_id, DataLake};
pub use obs::{
    chrome_trace, explain_analyze, serve_chrome_trace, serve_timeline_html, slow_log_json,
    slow_queries, watch, FlightRecording, MetricsRegistry, SlowLogConfig, SlowQueryRecord,
    TraceReport, WatchdogConfig, WatchdogReport,
};
pub use plancache::{PlanCacheStats, PlanOrigin};
pub use serve::{QueryOutcome, ServeConfig, ServeJob, ServeOutcome, ServeQueryStats};
pub use source::DataSource;
pub use stats::{FederationCost, LakeStatistics, SourceStatistics};
pub use trace::AnswerTrace;

// The multi-core precondition, held at compile time: worker threads share
// one lake (`&DataLake`, or a clone each — handles to the same storage) and
// may be handed an engine or a reference to one.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<DataLake>();
    shareable::<FederatedEngine>();
};
