//! The configuration matrix the integration suites share, enumerated in
//! process: a test means the same thing in every shell.
//!
//! The genuine axes of an execution are the schedule {serialized,
//! overlapped}, the planner {heuristic, cost-based}, the two observers
//! (tracing, flight recorder) and the replica count {1, 2}. Exhaustive
//! would be 32 cells; [`CELLS`] is a fixed pairwise covering table — every
//! pair of axis values occurs in at least one cell (`cells_cover_every_pair`
//! holds it to that) — whose first cell is the all-default one.
//!
//! Each axis is "on" in three of the five non-default rows. Two distinct
//! three-of-five row sets always intersect (on/on), neither contains the
//! other (on/off, off/on), and row 0 is off/off — so any five distinct
//! triples cover all pairs in six rows.

//!
//! Beside the matrix: [`plan_matrix`], the configurations the plan pins
//! fold over, and [`copy_table`], for the suites that compare a lake with
//! one built from nothing.

// Each suite uses the part of the helper it needs.
#![allow(dead_code)]

use fedlake_core::{DataLake, FilterPlacement, MergeTranslation, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_relational::storage::Table;
use fedlake_relational::Database;

/// Builds `table` again inside `into`, from nothing: created from its
/// schema, filled row by row, then indexed as the original is.
pub fn copy_table(into: &mut Database, table: &Table) {
    let name = table.schema.name.as_str();
    into.create_table(table.schema.clone()).unwrap();
    for (_, row) in table.iter() {
        into.insert_row(name, row.to_vec()).unwrap();
    }
    for index in table.indexes().iter().filter(|i| !i.name.starts_with("pk_")) {
        let columns: Vec<String> =
            index.key_columns.iter().map(|&c| table.schema.columns[c].name.clone()).collect();
        into.create_index(name, &index.name, &columns, index.unique).unwrap();
    }
}

/// The lake scales the plan pins walk.
pub const PLAN_SCALES: [f64; 2] = [0.05, 0.25];

/// The plan modes the plan pins walk: the paper's three planners and the
/// two other placements of Heuristics 1 and 2.
pub const PLAN_MODES: [PlanMode; 5] = [
    PlanMode::Unaware,
    PlanMode::AWARE,
    PlanMode::AWARE_H2,
    PlanMode::Aware { h1_join_pushdown: false, filters: FilterPlacement::PushIndexed },
    PlanMode::Aware { h1_join_pushdown: true, filters: FilterPlacement::PushAll },
];

/// The lakes the plan pins plan over, one per [`PLAN_SCALES`] entry.
pub fn plan_lakes() -> [DataLake; 2] {
    PLAN_SCALES.map(|scale| build_lake(&LakeConfig { scale, ..Default::default() }))
}

/// One plan of [`plan_matrix`].
#[derive(Debug, Clone, Copy)]
pub struct PlanPoint {
    /// The lake, as an index into [`PLAN_SCALES`] and [`plan_lakes`].
    pub scale: usize,
    /// The stock query, as an index into `workload::all()` (QM, Q1–Q5).
    pub query: usize,
    /// Everything else the plan depends on.
    pub config: PlanConfig,
}

/// The plan matrix: lake scale × stock query × [`PLAN_MODES`] × the four
/// networks × {heuristic, cost-based} × {optimized, naive} merges × the
/// given schedules (`overlap` values), nested in that order, so that a
/// digest folded over it in iteration order is stable.
pub fn plan_matrix(schedules: &[bool]) -> impl Iterator<Item = PlanPoint> {
    let mut points = Vec::new();
    for scale in 0..PLAN_SCALES.len() {
        for query in 0..workload::all().len() {
            for mode in PLAN_MODES {
                for network in NetworkProfile::ALL {
                    for cost_based in [false, true] {
                        for merge in [MergeTranslation::Optimized, MergeTranslation::Naive] {
                            for &overlap in schedules {
                                let mut config = PlanConfig::new(mode, network);
                                config.cost_based = cost_based;
                                config.merge_translation = merge;
                                config.overlap = overlap;
                                points.push(PlanPoint { scale, query, config });
                            }
                        }
                    }
                }
            }
        }
    }
    points.into_iter()
}

/// One combination of axis values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Overlapped (event-driven) schedule instead of the serialized one.
    pub overlap: bool,
    /// Cost-based planner instead of the paper's heuristics.
    pub cost_based: bool,
    /// Span recorder attached (contractually passive).
    pub tracing: bool,
    /// Flight recorder attached (contractually passive).
    pub recorder: bool,
    /// Endpoints per source: 1, or 2 to bring per-replica links, seeds
    /// and failover into play.
    pub replicas: u32,
}

const fn cell(
    overlap: bool,
    cost_based: bool,
    tracing: bool,
    recorder: bool,
    replicas: u32,
) -> Cell {
    Cell {
        overlap,
        cost_based,
        tracing,
        recorder,
        replicas,
    }
}

/// The pairwise covering table; `CELLS[0]` is [`PlanConfig::default`]'s.
pub const CELLS: [Cell; 6] = [
    //   overlap  cost   trace  record replicas
    cell(false, false, false, false, 1),
    cell(true, true, false, true, 1),
    cell(true, false, true, true, 1),
    cell(true, false, true, false, 2),
    cell(false, true, true, false, 2),
    cell(false, true, false, true, 2),
];

impl Cell {
    /// `config` with the four configuration axes set.
    pub fn config(&self, mut config: PlanConfig) -> PlanConfig {
        config.overlap = self.overlap;
        config.cost_based = self.cost_based;
        config.tracing = self.tracing;
        config.recorder = self.recorder;
        config
    }

    /// Applies the replica axis: every source of `lake` gets
    /// [`Cell::replicas`] endpoints.
    pub fn replicate(&self, lake: &mut DataLake) {
        if self.replicas > 1 {
            let ids: Vec<String> = lake.sources().iter().map(|s| s.id().to_string()).collect();
            for id in ids {
                lake.set_replicas(id, self.replicas);
            }
        }
    }
}

/// Runs `body` once per cell, naming the cell on stderr first: the test
/// harness shows captured output on failure, so a failing assertion's
/// report ends with the cell it ran in.
pub fn for_each_cell(mut body: impl FnMut(&Cell)) {
    for cell in &CELLS {
        eprintln!("-- matrix cell: {cell:?}");
        body(cell);
    }
}

/// Editing [`CELLS`] cannot silently drop coverage: every pair of values
/// of every two axes must occur together in at least one cell. Compiled
/// into each suite that shares the helper.
#[test]
fn cells_cover_every_pair() {
    const AXES: [&str; 5] = ["overlap", "cost_based", "tracing", "recorder", "replicas=2"];
    let values = |c: &Cell| {
        [
            c.overlap,
            c.cost_based,
            c.tracing,
            c.recorder,
            c.replicas == 2,
        ]
    };
    assert_eq!(
        CELLS[0].config(PlanConfig::default()),
        PlanConfig::default(),
        "the first cell is the all-default one"
    );
    assert_eq!(
        CELLS[0].replicas, 1,
        "the first cell is the all-default one"
    );
    assert!(
        CELLS.iter().all(|c| matches!(c.replicas, 1 | 2)),
        "replicas is a two-valued axis"
    );
    for (a, a_name) in AXES.iter().enumerate() {
        for (b, b_name) in AXES.iter().enumerate().skip(a + 1) {
            for want in [(false, false), (false, true), (true, false), (true, true)] {
                assert!(
                    CELLS.iter().any(|c| (values(c)[a], values(c)[b]) == want),
                    "no cell has ({a_name}, {b_name}) = {want:?}"
                );
            }
        }
    }
}
