//! # fedlake-bench
//!
//! The experiment harness regenerating the paper's evaluation artifacts:
//!
//! | ID | Paper artifact | Harness entry |
//! |----|----------------|---------------|
//! | F1 | Figure 1 (plan comparison)            | [`experiments::figure1`] |
//! | F2 | Figure 2 (Q3 answer traces)           | [`experiments::figure2`] |
//! | T1 | §3 8-configuration comparison         | [`experiments::table1`] |
//! | C1 | §3 Q2 merged-SQL ≈ halves claim       | [`experiments::q2_pushdown`] |
//! | C2 | §3 Q1/Q3 filter-placement study       | [`experiments::h2_study`] |
//! | A1 | heuristic ablations                   | [`experiments::ablation`] |
//! | A2 | §5: decomposition strategies          | [`experiments::decomposition_study`] |
//! | A3 | §5: RDB implementation variants       | [`experiments::rdb_variants`] |
//! | A4 | §5: 3NF vs denormalized tables        | [`experiments::normalization_study`] |
//! | A5 | message-granularity ablation          | [`experiments::batching_study`] |
//! | A6 | heuristic vs cost-chosen engine joins | [`experiments::join_strategy_study`] |
//!
//! The `experiments` binary drives these from the command line and
//! `lake_shell` is the interactive surface. Performance — simulated and
//! host time, end to end and per layer — is measured by `fedbench/`, a
//! package of its own outside the workspace.

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{run_query, run_with, ExperimentSetup, RunOutcome};
