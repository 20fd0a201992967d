//! RDF Molecule Templates (RDF-MTs).
//!
//! An RDF-MT (MULDER, Endris et al. 2018) is an abstract description of one
//! class of entities at one source: the predicates its instances share and
//! the links to other molecule templates. The federated engine matches
//! star-shaped sub-queries against RDF-MTs to select sources.

use crate::{DatasetMapping, TableMapping};
use fedlake_rdf::{Graph, Term, TriplePattern};

/// A link from one molecule template to another class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtLink {
    /// The linking predicate.
    pub predicate: String,
    /// The class of the link's target entities.
    pub target_class: String,
}

/// An RDF Molecule Template: one entity class at one source.
#[derive(Debug, Clone, PartialEq)]
pub struct RdfMoleculeTemplate {
    /// The described class IRI.
    pub class: String,
    /// The source offering this molecule.
    pub source_id: String,
    /// Predicates the class's instances carry (including `rdf:type`).
    pub predicates: Vec<String>,
    /// Intra- and inter-source links.
    pub links: Vec<MtLink>,
    /// Number of instances at the source (0 when unknown).
    pub cardinality: usize,
}

impl RdfMoleculeTemplate {
    /// True when this molecule offers every predicate in `preds`.
    /// `rdf:type` is always considered offered.
    pub fn offers_all(&self, preds: &[&str]) -> bool {
        preds.iter().all(|p| {
            *p == fedlake_rdf::vocab::rdf::TYPE || self.predicates.iter().any(|q| q == p)
        })
    }
}

/// Extracts RDF-MTs from an RDF source by scanning its `rdf:type` triples
/// and instance predicates — how MULDER/Ontario bootstrap descriptions of
/// SPARQL endpoints.
pub fn extract_from_graph(graph: &Graph, source_id: &str) -> Vec<RdfMoleculeTemplate> {
    let Some(type_id) = graph.id(&Term::iri(fedlake_rdf::vocab::rdf::TYPE)) else {
        return Vec::new();
    };
    // A class or a predicate is an IRI: a triple that puts a literal there
    // describes no molecule and is skipped.
    let iri = |id| graph.term(id).and_then(Term::as_iri);
    let mut classes: Vec<(fedlake_rdf::TermId, &str)> = Vec::new();
    for t in graph.match_pattern(&TriplePattern::any().with_p(type_id)) {
        if let Some(class) = iri(t.o) {
            if !classes.iter().any(|(id, _)| *id == t.o) {
                classes.push((t.o, class));
            }
        }
    }
    let mut out = Vec::new();
    for (class, class_iri) in classes {
        let instances = graph.instances_of(class);
        let mut predicates: Vec<String> = Vec::new();
        let mut links: Vec<MtLink> = Vec::new();
        for s in &instances {
            for t in graph.match_pattern(&TriplePattern::any().with_s(*s)) {
                let Some(p) = iri(t.p) else { continue };
                let p = p.to_string();
                if !predicates.contains(&p) {
                    predicates.push(p.clone());
                }
                // A link exists when the object is itself a typed instance.
                if iri(t.o).is_some() {
                    let types = TriplePattern::any().with_s(t.o).with_p(type_id);
                    for target in graph.match_pattern(&types).into_iter().filter_map(|tt| iri(tt.o)) {
                        let link = MtLink { predicate: p.clone(), target_class: target.to_string() };
                        if !links.contains(&link) {
                            links.push(link);
                        }
                    }
                }
            }
        }
        out.push(RdfMoleculeTemplate {
            class: class_iri.to_string(),
            source_id: source_id.to_string(),
            predicates,
            links,
            cardinality: instances.len(),
        });
    }
    out.sort_by(|a, b| a.class.cmp(&b.class));
    out
}

/// Derives RDF-MTs from a relational dataset's mapping — no scan needed;
/// the mapping *is* the semantic description. `cardinalities` supplies the
/// per-table row counts when known.
pub fn derive_from_mapping(
    mapping: &DatasetMapping,
    cardinality_of: impl Fn(&TableMapping) -> usize,
) -> Vec<RdfMoleculeTemplate> {
    let mut out: Vec<RdfMoleculeTemplate> = mapping
        .tables
        .iter()
        .map(|t| {
            let mut predicates = vec![fedlake_rdf::vocab::rdf::TYPE.to_string()];
            predicates.extend(t.predicates.iter().map(|p| p.predicate.clone()));
            let links = t
                .predicates
                .iter()
                .filter_map(|p| {
                    p.ref_template.as_ref().and_then(|tmpl| {
                        // The target class is the mapping (in any dataset
                        // table of this mapping) whose subject template
                        // matches; cross-dataset links resolve at the
                        // federation level.
                        mapping
                            .tables
                            .iter()
                            .find(|t2| t2.subject_template == *tmpl)
                            .map(|t2| MtLink {
                                predicate: p.predicate.clone(),
                                target_class: t2.class.clone(),
                            })
                    })
                })
                .collect();
            RdfMoleculeTemplate {
                class: t.class.clone(),
                source_id: mapping.source_id.clone(),
                predicates,
                links,
                cardinality: cardinality_of(t),
            }
        })
        .collect();
    out.sort_by(|a, b| a.class.cmp(&b.class));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IriTemplate;

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let typ = Term::iri(fedlake_rdf::vocab::rdf::TYPE);
        let gene = Term::iri("http://v/Gene");
        let disease = Term::iri("http://v/Disease");
        for i in 0..3 {
            let s = Term::iri(format!("http://d/gene/g{i}"));
            g.insert_terms(s.clone(), typ.clone(), gene.clone());
            g.insert_terms(s.clone(), Term::iri("http://v/label"), Term::literal(format!("gene {i}")));
            let d = Term::iri(format!("http://d/disease/d{i}"));
            g.insert_terms(d.clone(), typ.clone(), disease.clone());
            g.insert_terms(s, Term::iri("http://v/associated"), d);
        }
        g
    }

    #[test]
    fn extract_finds_classes_and_predicates() {
        let mts = extract_from_graph(&sample_graph(), "src");
        assert_eq!(mts.len(), 2);
        let gene = mts.iter().find(|m| m.class == "http://v/Gene").unwrap();
        assert_eq!(gene.cardinality, 3);
        assert!(gene.predicates.iter().any(|p| p == "http://v/label"));
        assert!(gene.predicates.iter().any(|p| p == "http://v/associated"));
        assert!(gene
            .predicates
            .iter()
            .any(|p| p == fedlake_rdf::vocab::rdf::TYPE));
    }

    #[test]
    fn extract_finds_links() {
        let mts = extract_from_graph(&sample_graph(), "src");
        let gene = mts.iter().find(|m| m.class == "http://v/Gene").unwrap();
        assert!(gene.links.contains(&MtLink {
            predicate: "http://v/associated".into(),
            target_class: "http://v/Disease".into()
        }));
        let disease = mts.iter().find(|m| m.class == "http://v/Disease").unwrap();
        assert!(disease.links.is_empty());
    }

    #[test]
    fn offers_all_semantics() {
        let mt = RdfMoleculeTemplate {
            class: "C".into(),
            source_id: "s".into(),
            predicates: vec!["p".into(), "q".into()],
            links: Vec::new(),
            cardinality: 1,
        };
        assert!(mt.offers_all(&["p"]));
        assert!(mt.offers_all(&["p", "q", fedlake_rdf::vocab::rdf::TYPE]));
        assert!(!mt.offers_all(&["p", "r"]));
    }

    #[test]
    fn derive_from_mapping_builds_links() {
        let disease_tmpl = IriTemplate::new("http://d/disease/", "");
        let m = DatasetMapping::new("diseasome")
            .with_table(
                TableMapping::new(
                    "gene",
                    "http://v/Gene",
                    IriTemplate::new("http://d/gene/", ""),
                    "id",
                )
                .with_literal("label", "http://v/label")
                .with_reference("disease", "http://v/associated", disease_tmpl.clone()),
            )
            .with_table(TableMapping::new(
                "disease",
                "http://v/Disease",
                disease_tmpl,
                "id",
            ));
        let mts = derive_from_mapping(&m, |t| if t.table == "gene" { 10 } else { 5 });
        assert_eq!(mts.len(), 2);
        let gene = mts.iter().find(|m| m.class == "http://v/Gene").unwrap();
        assert_eq!(gene.cardinality, 10);
        assert_eq!(gene.links.len(), 1);
        assert_eq!(gene.links[0].target_class, "http://v/Disease");
        // rdf:type is always offered.
        assert!(gene.offers_all(&[fedlake_rdf::vocab::rdf::TYPE, "http://v/label"]));
    }

    #[test]
    fn literal_classes_and_predicates_describe_nothing() {
        let mut g = sample_graph();
        let typ = Term::iri(fedlake_rdf::vocab::rdf::TYPE);
        let (g0, g1, y) = (Term::iri("http://d/gene/g0"), Term::iri("http://d/gene/g1"), Term::iri("http://d/y"));
        g.insert_terms(Term::iri("http://d/x"), typ.clone(), Term::literal("not a class"));
        g.insert_terms(g0, Term::literal("not a predicate"), Term::iri("o"));
        g.insert_terms(g1, Term::iri("http://v/kind"), y.clone());
        g.insert_terms(y, typ, Term::literal("not a class either"));
        let mts = extract_from_graph(&g, "src");
        let classes: Vec<&str> = mts.iter().map(|m| m.class.as_str()).collect();
        assert_eq!(classes, ["http://v/Disease", "http://v/Gene"]);
        let gene = mts.iter().find(|m| m.class == "http://v/Gene").unwrap();
        assert!(gene.predicates.iter().any(|p| p == "http://v/kind"));
        assert!(!gene.links.iter().any(|l| l.predicate == "http://v/kind"));
    }

    #[test]
    fn extract_on_untyped_graph_is_empty() {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("s"), Term::iri("p"), Term::iri("o"));
        assert!(extract_from_graph(&g, "x").is_empty());
    }
}
