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
//! Beside the matrix: [`copy_table`], for the suites that compare a lake
//! with one built from nothing.

// Each suite uses the part of the helper it needs.
#![allow(dead_code)]

use fedlake_core::{DataLake, PlanConfig};
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
