//! Data sources: the heterogeneous members of the lake.

use fedlake_mapping::{mt, DatasetMapping, RdfMoleculeTemplate};
use fedlake_rdf::Graph;
use fedlake_relational::Database;

/// One data source in the Semantic Data Lake. Sources keep their native
/// data model — the defining property of a data lake (§2.1).
// A `Graph` is two handles, a `Database` carries its catalog inline; a lake
// holds ten of these in one vector, so the padding is not worth a `Box`
// every reader of `db` would have to see through.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum DataSource {
    /// An RDF store queried with SPARQL.
    Sparql {
        /// Source identifier.
        id: String,
        /// The store.
        graph: Graph,
    },
    /// A relational database queried with SQL, semantified by a mapping.
    Relational {
        /// Source identifier.
        id: String,
        /// The embedded database (the MySQL container stand-in).
        db: Database,
        /// Its RML-style semantic mapping.
        mapping: DatasetMapping,
    },
}

impl DataSource {
    /// Creates a SPARQL source.
    pub fn sparql(id: impl Into<String>, graph: Graph) -> Self {
        DataSource::Sparql { id: id.into(), graph }
    }

    /// Creates a mapped relational source.
    pub fn relational(id: impl Into<String>, db: Database, mapping: DatasetMapping) -> Self {
        DataSource::Relational { id: id.into(), db, mapping }
    }

    /// The source identifier.
    pub fn id(&self) -> &str {
        match self {
            DataSource::Sparql { id, .. } | DataSource::Relational { id, .. } => id,
        }
    }

    /// True for relational sources — the ones the paper's heuristics
    /// reason about.
    pub fn is_relational(&self) -> bool {
        matches!(self, DataSource::Relational { .. })
    }

    /// Computes this source's RDF Molecule Templates: scanned for RDF
    /// sources, derived from the mapping for relational ones.
    pub(crate) fn molecule_templates(&self) -> Vec<RdfMoleculeTemplate> {
        match self {
            DataSource::Sparql { id, graph } => mt::extract_from_graph(graph, id),
            DataSource::Relational { db, mapping, .. } => {
                mt::derive_from_mapping(mapping, |t| {
                    db.table(&t.table).map_or(0, |tbl| tbl.len())
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_mapping::{IriTemplate, TableMapping};
    use fedlake_rdf::Term;

    fn relational_source() -> DataSource {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT)").unwrap();
        db.execute("INSERT INTO gene VALUES ('g1', 'BRCA1')").unwrap();
        let mapping = DatasetMapping::new("d").with_table(
            TableMapping::new(
                "gene",
                "http://v/Gene",
                IriTemplate::new("http://d/gene/", ""),
                "id",
            )
            .with_literal("label", "http://v/label"),
        );
        DataSource::relational("d", db, mapping)
    }

    #[test]
    fn relational_mts_carry_cardinality() {
        let s = relational_source();
        let mts = s.molecule_templates();
        assert_eq!(mts.len(), 1);
        assert_eq!(mts[0].cardinality, 1);
        assert_eq!(mts[0].source_id, "d");
        assert!(s.is_relational());
    }

    #[test]
    fn sparql_source_mts_from_scan() {
        let mut g = Graph::new();
        g.insert_terms(
            Term::iri("http://d/x"),
            Term::iri(fedlake_rdf::vocab::rdf::TYPE),
            Term::iri("http://v/C"),
        );
        let s = DataSource::sparql("r", g);
        let mts = s.molecule_templates();
        assert_eq!(mts.len(), 1);
        assert_eq!(mts[0].class, "http://v/C");
        assert!(!s.is_relational());
    }
}
