//! # fedlake-datagen
//!
//! A deterministic, seeded generator for an LSLOD-like life-science
//! Semantic Data Lake.
//!
//! The paper's evaluation uses the ten real-world datasets of the LSLOD
//! benchmark (life sciences Linked Open Data), each transformed to 3NF
//! relational tables in its own MySQL container, with indexes on primary
//! keys plus *"additional indexes for some attributes that are used for
//! joins or selections in the queries"*, and **no** index on attributes
//! where a value occurs in more than 15 % of records (the Affymetrix
//! species name being the paper's example).
//!
//! The LSLOD dumps are not redistributable here, so this crate generates a
//! synthetic lake with the same *shape*: ten datasets
//! ([`DATASET_IDS`]: ChEBI, KEGG, DrugBank, Diseasome, SIDER, TCGA,
//! Affymetrix, LinkedCT, Medicare, DailyMed), 3NF schemas with
//! foreign-key interlinks across datasets (gene, disease and drug
//! namespaces shared LOD-style), skewed low-cardinality attributes that
//! fail the 15 % indexing rule, and distinct-rich attributes that pass it.
//! Every dataset carries an RML-style mapping, so each can be mounted as a
//! relational source or as its RDF lifting — the two physical designs the
//! paper compares implicitly.
//!
//! The generated content is a deterministic function of
//! [`LakeConfig::seed`] and [`LakeConfig::scale`].

// The library crates deny panic sites outside tests; this one keeps its
// `expect`s and its `panic!`. It builds a fixed synthetic lake from program
// constants, and every site is a constant DDL statement, an insert of
// generated rows or a lookup in them: none can be reached from input.
#![allow(clippy::expect_used, clippy::panic)]

pub mod datasets;
pub mod vocab;
pub mod workload;

use fedlake_core::{DataLake, DataSource};
use fedlake_mapping::lift_database;

/// The ten LSLOD datasets, in build order.
pub const DATASET_IDS: [&str; 10] = [
    "chebi",
    "kegg",
    "drugbank",
    "diseasome",
    "sider",
    "tcga",
    "affymetrix",
    "linkedct",
    "medicare",
    "dailymed",
];

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LakeConfig {
    /// RNG seed; the lake is a pure function of seed + scale + flags.
    pub seed: u64,
    /// Multiplies every base table's row count (1.0 ≈ 20k rows total).
    pub scale: f64,
    /// Create the paper's "additional indexes" on join attributes (FK
    /// columns). Turning this off is how the H1 ablation removes the
    /// merge opportunity.
    pub join_indexes: bool,
    /// Create the paper's "additional indexes" on selection attributes
    /// that pass the 15 % duplication rule.
    pub selection_indexes: bool,
    /// Dataset ids to mount as native RDF sources (their relational data
    /// is lifted); everything else is mounted relationally, as in §3.
    pub rdf_sources: Vec<String>,
    /// Dataset ids to build with a **denormalized** physical design
    /// instead of 3NF — the paper's §5 "not normalized tables" study.
    /// Currently supported: `diseasome`.
    pub denormalized: Vec<String>,
}

impl Default for LakeConfig {
    fn default() -> Self {
        LakeConfig {
            seed: 0x5EA_DA7A,
            scale: 1.0,
            join_indexes: true,
            selection_indexes: true,
            rdf_sources: Vec::new(),
            denormalized: Vec::new(),
        }
    }
}

impl LakeConfig {
    /// A small lake for fast tests (scale 0.2).
    pub fn small() -> Self {
        LakeConfig { scale: 0.2, ..Default::default() }
    }

    /// Scales a base row count.
    pub(crate) fn rows(&self, base: usize) -> usize {
        ((base as f64) * self.scale).round().max(2.0) as usize
    }
}

/// Builds the full ten-dataset lake.
pub fn build_lake(config: &LakeConfig) -> DataLake {
    let mut lake = DataLake::new();
    for id in DATASET_IDS {
        add_dataset(&mut lake, config, id);
    }
    lake
}

/// Builds a lake restricted to the given datasets (tests use subsets).
pub fn build_lake_with(config: &LakeConfig, ids: &[&str]) -> DataLake {
    let mut lake = DataLake::new();
    for id in ids {
        add_dataset(&mut lake, config, id);
    }
    lake
}

fn add_dataset(lake: &mut DataLake, config: &LakeConfig, id: &str) {
    let (db, mapping) = datasets::build_dataset(config, id);
    if config.rdf_sources.iter().any(|s| s == id) {
        let graph = lift_database(&db, &mapping);
        lake.add_source(DataSource::sparql(id, graph));
    } else {
        lake.add_source(DataSource::relational(id, db, mapping));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_ten_datasets() {
        let lake = build_lake(&LakeConfig::small());
        assert_eq!(lake.len(), 10);
        for id in DATASET_IDS {
            assert!(lake.source(id).is_some(), "missing {id}");
        }
        assert!(!lake.molecule_templates().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_lake_with(&LakeConfig::small(), &["diseasome"]);
        let b = build_lake_with(&LakeConfig::small(), &["diseasome"]);
        let (da, db) = match (a.source("diseasome"), b.source("diseasome")) {
            (
                Some(DataSource::Relational { db: da, .. }),
                Some(DataSource::Relational { db: db_, .. }),
            ) => (da, db_),
            _ => panic!("diseasome must be relational by default"),
        };
        let ra = da.query("SELECT id, name FROM disease ORDER BY id LIMIT 20").unwrap();
        let rb = db.query("SELECT id, name FROM disease ORDER BY id LIMIT 20").unwrap();
        assert_eq!(ra.rows, rb.rows);
    }

    #[test]
    fn different_seed_changes_content() {
        let a = build_lake_with(&LakeConfig::small(), &["chebi"]);
        let cfg = LakeConfig { seed: 999, ..LakeConfig::small() };
        let b = build_lake_with(&cfg, &["chebi"]);
        let (da, db) = match (a.source("chebi"), b.source("chebi")) {
            (
                Some(DataSource::Relational { db: da, .. }),
                Some(DataSource::Relational { db: db_, .. }),
            ) => (da, db_),
            _ => panic!("chebi must be relational by default"),
        };
        let ra = da.query("SELECT mass FROM compound ORDER BY id LIMIT 20").unwrap();
        let rb = db.query("SELECT mass FROM compound ORDER BY id LIMIT 20").unwrap();
        assert_ne!(ra.rows, rb.rows);
    }

    #[test]
    fn scale_controls_row_counts() {
        let small = LakeConfig { scale: 0.1, ..Default::default() };
        let big = LakeConfig { scale: 0.5, ..Default::default() };
        assert!(small.rows(1000) < big.rows(1000));
        assert_eq!(LakeConfig::default().rows(1000), 1000);
    }

    #[test]
    fn rdf_source_option_lifts() {
        let cfg = LakeConfig {
            rdf_sources: vec!["drugbank".into()],
            ..LakeConfig::small()
        };
        let lake = build_lake_with(&cfg, &["drugbank", "diseasome"]);
        assert!(matches!(
            lake.source("drugbank"),
            Some(DataSource::Sparql { .. })
        ));
        assert!(matches!(
            lake.source("diseasome"),
            Some(DataSource::Relational { .. })
        ));
    }
}
