//! # fedlake-mapping
//!
//! Semantic annotations for the data lake: RML-style mappings from
//! relational tables to RDF classes, RDF Molecule Templates (RDF-MTs) as
//! source descriptions, and RDF *lifting* of relational data.
//!
//! A [`TableMapping`] declares how one 3NF table represents one RDF class:
//! the subject IRI is minted from the primary key through an IRI
//! [`template`], each column maps to a predicate, and foreign-key columns
//! map to object references of other classes. Following the paper's
//! assumption (§2.2), *"the subjects of a SPARQL query are modeled as the
//! primary keys of the tables"*.
//!
//! [`RdfMoleculeTemplate`]s (from MULDER) describe which predicates a class
//! offers at which source and how classes interlink; the federated engine
//! uses them for source selection and decomposition. They can be
//! [extracted](mt::extract_from_graph) from RDF sources by scanning, or
//! [derived](mt::derive_from_mapping) from mappings for relational sources.
//!
//! [`lift`] materializes the RDF view of a mapped relational database —
//! used by the data generator to build equivalent RDF/relational dataset
//! pairs and by the test suite as a ground-truth oracle: a federated query
//! over the relational source must return exactly the answers of a local
//! SPARQL evaluation over the lifted graph.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod lift;
pub mod mt;
pub mod template;

pub use lift::lift_database;
pub use mt::{MtLink, RdfMoleculeTemplate};
pub use template::IriTemplate;

use fedlake_relational::DataType;

/// How one column of a mapped table appears in RDF.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateMapping {
    /// Source column (lowercase).
    pub column: String,
    /// The predicate IRI this column maps to.
    pub predicate: String,
    /// When set, the column is a foreign key and its value is lifted to an
    /// entity IRI via this template instead of a literal.
    pub ref_template: Option<IriTemplate>,
}

impl PredicateMapping {
    /// A literal-valued predicate.
    pub(crate) fn literal(column: impl Into<String>, predicate: impl Into<String>) -> Self {
        PredicateMapping {
            column: column.into().to_lowercase(),
            predicate: predicate.into(),
            ref_template: None,
        }
    }

    /// An object-reference predicate minted through `template`.
    pub(crate) fn reference(
        column: impl Into<String>,
        predicate: impl Into<String>,
        template: IriTemplate,
    ) -> Self {
        PredicateMapping {
            column: column.into().to_lowercase(),
            predicate: predicate.into(),
            ref_template: Some(template),
        }
    }
}

/// Maps one relational table to one RDF class.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMapping {
    /// The mapped table (lowercase).
    pub table: String,
    /// The RDF class its rows instantiate.
    pub class: String,
    /// Template minting subject IRIs from the subject column.
    pub subject_template: IriTemplate,
    /// The column (normally the primary key) feeding the subject template.
    pub subject_column: String,
    /// Column→predicate mappings.
    pub predicates: Vec<PredicateMapping>,
}

impl TableMapping {
    /// Creates a mapping.
    pub fn new(
        table: impl Into<String>,
        class: impl Into<String>,
        subject_template: IriTemplate,
        subject_column: impl Into<String>,
    ) -> Self {
        TableMapping {
            table: table.into().to_lowercase(),
            class: class.into(),
            subject_template,
            subject_column: subject_column.into().to_lowercase(),
            predicates: Vec::new(),
        }
    }

    /// Builder: adds a literal predicate mapping.
    pub fn with_literal(mut self, column: &str, predicate: &str) -> Self {
        self.predicates.push(PredicateMapping::literal(column, predicate));
        self
    }

    /// Builder: adds an object-reference predicate mapping.
    pub fn with_reference(mut self, column: &str, predicate: &str, template: IriTemplate) -> Self {
        self.predicates
            .push(PredicateMapping::reference(column, predicate, template));
        self
    }

    /// The column mapped to `predicate`, if any.
    pub fn column_for_predicate(&self, predicate: &str) -> Option<&PredicateMapping> {
        self.predicates.iter().find(|p| p.predicate == predicate)
    }
}

/// The full mapping of one dataset (one database) in the lake.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetMapping {
    /// Dataset/source identifier.
    pub source_id: String,
    /// Table mappings.
    pub tables: Vec<TableMapping>,
}

impl DatasetMapping {
    /// Creates an empty dataset mapping.
    pub fn new(source_id: impl Into<String>) -> Self {
        DatasetMapping { source_id: source_id.into(), tables: Vec::new() }
    }

    /// Builder: adds a table mapping.
    pub fn with_table(mut self, t: TableMapping) -> Self {
        self.tables.push(t);
        self
    }

    /// The mapping whose class is `class`, if any.
    pub fn for_class(&self, class: &str) -> Option<&TableMapping> {
        self.tables.iter().find(|t| t.class == class)
    }

    /// The mapping for `table`, if any.
    pub fn for_table(&self, table: &str) -> Option<&TableMapping> {
        let table = table.to_lowercase();
        self.tables.iter().find(|t| t.table == table)
    }
}

/// The XSD datatype IRI a relational column type lifts to (`None` for
/// text, which lifts to plain literals).
pub fn xsd_for(dt: DataType) -> Option<&'static str> {
    match dt {
        DataType::Int => Some(fedlake_rdf::vocab::xsd::INTEGER),
        DataType::Double => Some(fedlake_rdf::vocab::xsd::DOUBLE),
        DataType::Bool => Some(fedlake_rdf::vocab::xsd::BOOLEAN),
        DataType::Text => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> TableMapping {
        TableMapping::new(
            "gene",
            "http://lake/vocab/Gene",
            IriTemplate::new("http://lake/diseasome/gene/", ""),
            "id",
        )
        .with_literal("label", "http://www.w3.org/2000/01/rdf-schema#label")
        .with_reference(
            "disease",
            "http://lake/vocab/associatedWith",
            IriTemplate::new("http://lake/diseasome/disease/", ""),
        )
    }

    #[test]
    fn builder_and_lookup() {
        let m = mapping();
        assert_eq!(m.predicates.len(), 2);
        assert!(m
            .column_for_predicate("http://www.w3.org/2000/01/rdf-schema#label")
            .is_some());
        assert!(m.column_for_predicate("http://nope").is_none());
    }

    #[test]
    fn dataset_lookup() {
        let d = DatasetMapping::new("diseasome").with_table(mapping());
        assert!(d.for_class("http://lake/vocab/Gene").is_some());
        assert!(d.for_table("GENE").is_some());
        assert!(d.for_class("http://lake/vocab/Drug").is_none());
    }

    #[test]
    fn xsd_mapping() {
        assert_eq!(xsd_for(DataType::Int), Some(fedlake_rdf::vocab::xsd::INTEGER));
        assert_eq!(xsd_for(DataType::Text), None);
    }
}
