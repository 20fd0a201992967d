//! Golden-snapshot answers for the experiment workload.
//!
//! The fault-free answers of Q1–Q5 (lake scale 0.1, sorted SPARQL 1.1 CSV
//! via `to_sparql_csv`) are pinned as files under `tests/golden/`. Any
//! change to the parser, decomposer, planner, wrappers, join operators or
//! data generator that alters an answer set shows up as a readable CSV
//! diff. Regenerate deliberately with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_answers
//! ```
//!
//! The snapshots are configuration-invariant: every cell of the shared
//! matrix (`tests/common/mod.rs`) must reproduce them; blessing writes
//! the all-default cell's answers.

mod common;

use common::{for_each_cell, Cell, CELLS};
use fedlake_core::{FedResult, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use std::path::PathBuf;

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.csv", id.to_lowercase()))
}

fn sorted_csv(r: &FedResult) -> String {
    let mut rows = r.rows.clone();
    rows.sort_by_cached_key(|row| row.to_string());
    fedlake_core::results::to_sparql_csv(&r.vars, &rows)
}

fn run(q: &workload::WorkloadQuery, mode: PlanMode, cell: &Cell) -> FedResult {
    let mut lake = build_lake_with(&LakeConfig { scale: 0.1, ..Default::default() }, q.datasets);
    cell.replicate(&mut lake);
    let config = cell.config(PlanConfig::new(mode, NetworkProfile::NO_DELAY));
    FederatedEngine::new(lake, config).execute_sparql(&q.sparql).unwrap()
}

#[test]
fn workload_answers_match_golden_snapshots() {
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        for q in workload::experiment_queries() {
            let csv = sorted_csv(&run(&q, PlanMode::AWARE, &CELLS[0]));
            std::fs::write(golden_path(q.id), csv).unwrap();
        }
        return;
    }
    for_each_cell(|cell| {
        for q in workload::experiment_queries() {
            let csv = sorted_csv(&run(&q, PlanMode::AWARE, cell));
            let path = golden_path(q.id);
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("missing golden snapshot {path:?} ({e}); bless with BLESS_GOLDEN=1")
            });
            assert_eq!(csv, want, "{}: answers diverge from {path:?}", q.id);
        }
    });
}

/// The snapshots are plan-invariant: the unaware plan must produce the
/// same answer sets the aware plan was blessed with.
#[test]
fn unaware_plan_matches_golden_snapshots() {
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        return; // snapshots are being rewritten by the blessing run
    }
    for_each_cell(|cell| {
        for q in workload::experiment_queries() {
            let csv = sorted_csv(&run(&q, PlanMode::Unaware, cell));
            let want = std::fs::read_to_string(golden_path(q.id)).unwrap();
            assert_eq!(csv, want, "{}: unaware plan diverges from snapshot", q.id);
        }
    });
}
