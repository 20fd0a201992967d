//! Source selection: matching star-shaped sub-queries against the lake's
//! RDF Molecule Templates (the MULDER/Ontario strategy).

use crate::decompose::StarSubquery;
use crate::error::FedError;
use crate::health::HealthView;
use crate::lake::DataLake;
use fedlake_mapping::RdfMoleculeTemplate;

/// One candidate source for a star: the source id and the molecule
/// template that matched.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The matched source.
    pub source_id: String,
    /// The class whose molecule matched.
    pub class: String,
    /// Estimated instances at the source.
    pub cardinality: usize,
}

/// Selects the candidate sources for one star.
///
/// A molecule template matches when (a) the star's class constraint, if
/// any, equals the template's class, and (b) the template offers every
/// ground predicate of the star. Stars with variable predicates can only
/// be answered by SPARQL sources (full triple stores).
pub(crate) fn candidates_for(star: &StarSubquery, lake: &DataLake) -> Vec<Candidate> {
    if star.has_variable_predicate() {
        // Only native RDF stores answer variable-predicate stars.
        return lake
            .sources()
            .iter()
            .filter(|s| !s.is_relational())
            .map(|s| Candidate {
                source_id: s.id().to_string(),
                class: star.class.clone().unwrap_or_default(),
                cardinality: 0,
            })
            .collect();
    }
    let preds = star.predicates();
    lake.molecule_templates()
        .iter()
        .filter(|mt| class_matches(mt, star) && mt.offers_all(&preds))
        .map(|mt| Candidate {
            source_id: mt.source_id.clone(),
            class: mt.class.clone(),
            cardinality: mt.cardinality,
        })
        .collect()
}

fn class_matches(mt: &RdfMoleculeTemplate, star: &StarSubquery) -> bool {
    match &star.class {
        Some(c) => &mt.class == c,
        None => true,
    }
}

/// Selects sources for every star; errors when a star has no candidate.
pub fn select_sources(
    stars: &[StarSubquery],
    lake: &DataLake,
) -> Result<Vec<Vec<Candidate>>, FedError> {
    select_sources_with_health(stars, lake, &HealthView::empty(), false).map(|(c, _)| c)
}

/// Health-aware source selection: like [`select_sources`], but when
/// `degraded_ok` is set, a candidate whose replica endpoints have *all*
/// crossed the failure threshold is demoted — it is skipped for the star
/// as long as at least one healthier candidate remains, and its source id
/// is reported back so the engine can mark the answer degraded. A star
/// whose candidates are all degraded keeps them: partial answers beat no
/// answers, and strict mode never skips (failover handles faults there).
///
/// Returns the per-star candidate lists and the skipped source ids (in
/// deterministic first-seen order, deduplicated).
pub(crate) fn select_sources_with_health(
    stars: &[StarSubquery],
    lake: &DataLake,
    health: &HealthView,
    degraded_ok: bool,
) -> Result<(Vec<Vec<Candidate>>, Vec<String>), FedError> {
    let mut skipped: Vec<String> = Vec::new();
    let mut per_star = Vec::with_capacity(stars.len());
    for star in stars {
        let cands = candidates_for(star, lake);
        if cands.is_empty() {
            return Err(FedError::NoSourceFor(star.subject.to_string()));
        }
        let kept: Vec<Candidate> = if degraded_ok {
            let degraded = |c: &Candidate| {
                health.all_degraded(
                    lake.replica_endpoints(&c.source_id).iter().map(String::as_str),
                )
            };
            let healthy: Vec<Candidate> =
                cands.iter().filter(|c| !degraded(c)).cloned().collect();
            if healthy.is_empty() {
                cands
            } else {
                for c in &cands {
                    if degraded(c) && !skipped.contains(&c.source_id) {
                        skipped.push(c.source_id.clone());
                    }
                }
                healthy
            }
        } else {
            cands
        };
        per_star.push(kept);
    }
    Ok((per_star, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::source::DataSource;
    use fedlake_mapping::{DatasetMapping, IriTemplate, TableMapping};
    use fedlake_relational::Database;
    use fedlake_sparql::parser::parse_query;

    fn lake() -> DataLake {
        let mut db = Database::new("diseasome");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT)").unwrap();
        db.execute("INSERT INTO gene VALUES ('g1', 'BRCA1')").unwrap();
        db.execute("INSERT INTO gene VALUES ('g2', 'TP53')").unwrap();
        let mapping = DatasetMapping::new("diseasome").with_table(
            TableMapping::new(
                "gene",
                "http://v/Gene",
                IriTemplate::new("http://d/gene/", ""),
                "id",
            )
            .with_literal("label", "http://v/label"),
        );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::relational("diseasome", db, mapping));

        // A SPARQL source offering a different class.
        let mut g = fedlake_rdf::Graph::new();
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/d1"),
            fedlake_rdf::Term::iri(fedlake_rdf::vocab::rdf::TYPE),
            fedlake_rdf::Term::iri("http://v/Drug"),
        );
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/d1"),
            fedlake_rdf::Term::iri("http://v/name"),
            fedlake_rdf::Term::literal("Aspirin"),
        );
        lake.add_source(DataSource::sparql("drugbank", g));
        lake
    }

    fn stars(q: &str) -> Vec<StarSubquery> {
        decompose(&parse_query(q).unwrap()).unwrap().stars
    }

    #[test]
    fn class_constrained_selection() {
        let lake = lake();
        let s = stars("SELECT * WHERE { ?g a <http://v/Gene> . ?g <http://v/label> ?l }");
        let c = candidates_for(&s[0], &lake);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].source_id, "diseasome");
        assert_eq!(c[0].cardinality, 2);
    }

    #[test]
    fn predicate_based_selection_without_class() {
        let lake = lake();
        let s = stars("SELECT * WHERE { ?g <http://v/label> ?l }");
        let c = candidates_for(&s[0], &lake);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].source_id, "diseasome");
    }

    #[test]
    fn missing_predicate_excludes_source() {
        let lake = lake();
        let s = stars("SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/unknown> ?u }");
        assert!(candidates_for(&s[0], &lake).is_empty());
        assert!(matches!(
            select_sources(&s, &lake),
            Err(FedError::NoSourceFor(_))
        ));
    }

    #[test]
    fn sparql_source_selected_for_its_class() {
        let lake = lake();
        let s = stars("SELECT * WHERE { ?d a <http://v/Drug> . ?d <http://v/name> ?n }");
        let c = candidates_for(&s[0], &lake);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].source_id, "drugbank");
    }

    #[test]
    fn variable_predicate_goes_to_sparql_sources_only() {
        let lake = lake();
        let s = stars("SELECT * WHERE { ?s ?p ?o }");
        let c = candidates_for(&s[0], &lake);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].source_id, "drugbank");
    }

    #[test]
    fn degraded_candidates_are_skipped_only_when_safe() {
        use crate::health::SourceHealth;
        let mut lake = lake();
        // A second SPARQL source offering the same Drug molecule.
        let mut g = fedlake_rdf::Graph::new();
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/d2"),
            fedlake_rdf::Term::iri(fedlake_rdf::vocab::rdf::TYPE),
            fedlake_rdf::Term::iri("http://v/Drug"),
        );
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/d2"),
            fedlake_rdf::Term::iri("http://v/name"),
            fedlake_rdf::Term::literal("Ibuprofen"),
        );
        lake.add_source(DataSource::sparql("drugbank2", g));
        let s = stars("SELECT * WHERE { ?d a <http://v/Drug> . ?d <http://v/name> ?n }");

        let health = SourceHealth::new();
        health.observe("drugbank", 0, 9);
        let view =
            HealthView { endpoints: health.snapshot(), threshold: 8, generation: health.generation() };

        // degraded_ok: the unhealthy candidate is demoted and reported.
        let (cands, skipped) = select_sources_with_health(&s, &lake, &view, true).unwrap();
        assert_eq!(cands[0].len(), 1);
        assert_eq!(cands[0][0].source_id, "drugbank2");
        assert_eq!(skipped, vec!["drugbank".to_string()]);

        // Strict mode keeps every candidate (failover handles faults).
        let (cands, skipped) = select_sources_with_health(&s, &lake, &view, false).unwrap();
        assert_eq!(cands[0].len(), 2);
        assert!(skipped.is_empty());

        // When every candidate is degraded, none are dropped.
        health.observe("drugbank2", 0, 9);
        let view =
            HealthView { endpoints: health.snapshot(), threshold: 8, generation: health.generation() };
        let (cands, skipped) = select_sources_with_health(&s, &lake, &view, true).unwrap();
        assert_eq!(cands[0].len(), 2);
        assert!(skipped.is_empty());
    }

    #[test]
    fn select_sources_covers_all_stars() {
        let lake = lake();
        let s = stars(
            "SELECT * WHERE { ?g a <http://v/Gene> . ?g <http://v/label> ?l . \
             ?d a <http://v/Drug> . ?d <http://v/name> ?n }",
        );
        let per_star = select_sources(&s, &lake).unwrap();
        assert_eq!(per_star.len(), 2);
        assert_eq!(per_star[0][0].source_id, "diseasome");
        assert_eq!(per_star[1][0].source_id, "drugbank");
    }
}
