//! The lake's vocabulary: class and predicate IRIs per dataset, plus the
//! shared entity namespaces that interlink datasets LOD-style.

use fedlake_mapping::IriTemplate;

/// Base IRI of the lake.
pub const BASE: &str = "http://lake.example/";

/// Vocabulary base.
pub const V: &str = "http://lake.example/vocab/";

/// A class IRI: `vocab/<Dataset>/<Class>`.
pub fn class(dataset: &str, name: &str) -> String {
    format!("{V}{dataset}/{name}")
}

/// A predicate IRI: `vocab/<dataset>/<predicate>`.
pub fn pred(dataset: &str, name: &str) -> String {
    format!("{V}{dataset}/{name}")
}

/// The entity IRI template of a dataset's entity type, e.g.
/// `http://lake.example/diseasome/disease/{}`.
pub(crate) fn entity_template(dataset: &str, entity: &str) -> IriTemplate {
    IriTemplate::new(format!("{BASE}{dataset}/{entity}/"), "")
}

/// Shared namespaces: genes and diseases are minted by Diseasome and
/// referenced from Affymetrix/TCGA/DrugBank/LinkedCT; drugs are minted by
/// DrugBank and referenced from SIDER/Medicare/DailyMed.
pub mod shared {
    use super::{entity_template, IriTemplate};

    /// The gene namespace (owned by Diseasome).
    pub(crate) fn gene_template() -> IriTemplate {
        entity_template("diseasome", "gene")
    }

    /// The disease namespace (owned by Diseasome).
    pub(crate) fn disease_template() -> IriTemplate {
        entity_template("diseasome", "disease")
    }

    /// The drug namespace (owned by DrugBank).
    pub(crate) fn drug_template() -> IriTemplate {
        entity_template("drugbank", "drug")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_shapes() {
        assert_eq!(class("diseasome", "Disease"), "http://lake.example/vocab/diseasome/Disease");
        assert_eq!(pred("chebi", "mass"), "http://lake.example/vocab/chebi/mass");
        assert_eq!(
            entity_template("diseasome", "gene").to_string(),
            "http://lake.example/diseasome/gene/{}"
        );
        assert!(shared::drug_template().to_string().contains("drugbank/drug/"));
    }
}
