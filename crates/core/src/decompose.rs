//! Star-shaped query decomposition.
//!
//! Following ANAPSID/MULDER (§2.1), a conjunctive SPARQL query is
//! partitioned into *star-shaped sub-queries* (SSQs): maximal groups of
//! triple patterns sharing the same subject. Filters whose variables are
//! covered by a single SSQ are attached to it (they are candidates for
//! Heuristic 2); the rest stay at the engine level.

use crate::error::FedError;
use fedlake_sparql::ast::{GroupGraphPattern, PatternElement, SelectQuery, TriplePattern, VarOrTerm};
use fedlake_sparql::binding::Var;
use fedlake_sparql::expr::Expr;
use fedlake_rdf::Term;
use std::fmt;

/// The subject shared by an SSQ's triple patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum StarSubject {
    /// A subject variable (the common case).
    Var(Var),
    /// A ground subject term.
    Term(Term),
}

impl fmt::Display for StarSubject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StarSubject::Var(v) => write!(f, "{v}"),
            StarSubject::Term(t) => write!(f, "{t}"),
        }
    }
}

/// A star-shaped sub-query.
#[derive(Debug, Clone, PartialEq)]
pub struct StarSubquery {
    /// The shared subject.
    pub subject: StarSubject,
    /// The star's triple patterns (all with this subject).
    pub triples: Vec<TriplePattern>,
    /// Filters whose variables are all bound by this star. Their placement
    /// (source vs. engine) is what Heuristic 2 decides.
    pub filters: Vec<Expr>,
    /// The star's class, when an `rdf:type` pattern with a ground class is
    /// present.
    pub class: Option<String>,
}

impl StarSubquery {
    /// All variables bound by this star (subject first, then objects).
    pub(crate) fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        if let StarSubject::Var(v) = &self.subject {
            out.push(v.clone());
        }
        for t in &self.triples {
            for v in t.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The star's predicate IRIs (ground predicates only).
    pub(crate) fn predicates(&self) -> Vec<&str> {
        self.triples
            .iter()
            .filter_map(|t| t.p.as_term().and_then(Term::as_iri))
            .collect()
    }

    /// True when any predicate position is a variable (precludes
    /// translation to SQL).
    pub(crate) fn has_variable_predicate(&self) -> bool {
        self.triples.iter().any(|t| t.p.is_var())
    }
}

/// The result of decomposing a query: a required conjunctive part plus
/// zero or more `OPTIONAL` groups (each itself conjunctive).
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// The star-shaped sub-queries, in subject order of first appearance.
    pub stars: Vec<StarSubquery>,
    /// Filters spanning multiple stars — always engine-level.
    pub cross_filters: Vec<Expr>,
    /// `OPTIONAL { … }` groups, decomposed recursively; the engine joins
    /// each with a streaming left join on the shared variables.
    pub optionals: Vec<Decomposition>,
    /// `{ … } UNION { … }` blocks, each a list of branches decomposed
    /// recursively; the engine concatenates branch answers and joins the
    /// block with the rest of the pattern.
    pub unions: Vec<Vec<Decomposition>>,
}

impl Decomposition {
    /// Variables bound on every answer of the required part: star
    /// variables plus the variables bound by **all** branches of each
    /// union block (optionals bind only conditionally).
    pub(crate) fn vars(&self) -> Vec<Var> {
        let mut out: Vec<Var> = Vec::new();
        for s in &self.stars {
            for v in s.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        for block in &self.unions {
            for v in union_block_vars(block) {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

/// The variables every branch of a union block binds.
pub(crate) fn union_block_vars(block: &[Decomposition]) -> Vec<Var> {
    let mut iter = block.iter().map(Decomposition::vars);
    let Some(first) = iter.next() else { return Vec::new() };
    iter.fold(first, |acc, branch| {
        acc.into_iter().filter(|v| branch.contains(v)).collect()
    })
}

/// How a query's basic graph pattern is partitioned into sub-queries.
///
/// The paper's engine uses star-shaped decomposition (ANAPSID/MULDER);
/// §5 names *"studying different kinds of query decomposition (e.g.,
/// triple-based instead of star-shaped sub-queries)"* as future work —
/// both are implemented so the ablation experiments can compare them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecompositionStrategy {
    /// Maximal groups of triple patterns sharing a subject (the default).
    #[default]
    StarShaped,
    /// One sub-query per triple pattern (FedX-style exclusive groups
    /// degenerate to this without its grouping optimization).
    TripleBased,
}

/// Decomposes a parsed query. Only conjunctive queries (BGP + FILTER) are
/// federated; `OPTIONAL`/`UNION` inside the pattern are rejected — the
/// paper's workload (and LSLOD's) is conjunctive.
pub fn decompose(query: &SelectQuery) -> Result<Decomposition, FedError> {
    decompose_pattern(&query.pattern)
}

/// Decomposes a parsed query with an explicit strategy.
pub(crate) fn decompose_as(
    query: &SelectQuery,
    strategy: DecompositionStrategy,
) -> Result<Decomposition, FedError> {
    decompose_pattern_as(&query.pattern, strategy)
}

/// Decomposes a group graph pattern (star-shaped).
pub(crate) fn decompose_pattern(pattern: &GroupGraphPattern) -> Result<Decomposition, FedError> {
    decompose_pattern_as(pattern, DecompositionStrategy::StarShaped)
}

/// Decomposes a group graph pattern with an explicit strategy.
pub(crate) fn decompose_pattern_as(
    pattern: &GroupGraphPattern,
    strategy: DecompositionStrategy,
) -> Result<Decomposition, FedError> {
    let mut triples: Vec<TriplePattern> = Vec::new();
    let mut filters: Vec<Expr> = Vec::new();
    let mut optional_groups: Vec<GroupGraphPattern> = Vec::new();
    let mut union_groups: Vec<Vec<GroupGraphPattern>> = Vec::new();
    collect(pattern, &mut triples, &mut filters, &mut optional_groups, &mut union_groups)?;
    let optionals = optional_groups
        .iter()
        .map(|g| decompose_pattern_as(g, strategy))
        .collect::<Result<Vec<_>, _>>()?;
    let unions = union_groups
        .iter()
        .map(|branches| {
            branches
                .iter()
                .map(|g| decompose_pattern_as(g, strategy))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Class hints by subject are useful under both strategies: with
    // triple-based decomposition, a lone `?g <label> ?l` sub-query still
    // benefits from knowing `?g a Gene` appeared elsewhere in the BGP.
    let mut classes: Vec<(StarSubject, String)> = Vec::new();
    for t in &triples {
        if let (VarOrTerm::Term(Term::Iri(p)), VarOrTerm::Term(Term::Iri(c))) = (&t.p, &t.o) {
            if p == fedlake_rdf::vocab::rdf::TYPE {
                let subject = match &t.s {
                    VarOrTerm::Var(v) => StarSubject::Var(v.clone()),
                    VarOrTerm::Term(term) => StarSubject::Term(term.clone()),
                };
                classes.push((subject, c.clone()));
            }
        }
    }
    let class_of = |subject: &StarSubject| -> Option<String> {
        classes
            .iter()
            .find(|(s, _)| s == subject)
            .map(|(_, c)| c.clone())
    };

    let mut stars: Vec<StarSubquery> = Vec::new();
    for t in triples {
        let subject = match &t.s {
            VarOrTerm::Var(v) => StarSubject::Var(v.clone()),
            VarOrTerm::Term(term) => StarSubject::Term(term.clone()),
        };
        let class = class_of(&subject);
        let group = match strategy {
            DecompositionStrategy::StarShaped => {
                stars.iter_mut().find(|s| s.subject == subject)
            }
            DecompositionStrategy::TripleBased => None,
        };
        match group {
            Some(star) => {
                if star.class.is_none() {
                    star.class = class;
                }
                star.triples.push(t);
            }
            None => stars.push(StarSubquery {
                subject,
                triples: vec![t],
                filters: Vec::new(),
                class,
            }),
        }
    }

    // Attach each filter to the unique star covering its variables.
    let mut cross_filters = Vec::new();
    for f in filters {
        let fvars = f.vars();
        let covering: Vec<usize> = stars
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let sv = s.vars();
                fvars.iter().all(|v| sv.contains(v))
            })
            .map(|(i, _)| i)
            .collect();
        match covering.first() {
            Some(&i) if !covering.is_empty() && !fvars.is_empty() => {
                stars[i].filters.push(f);
            }
            _ => cross_filters.push(f),
        }
    }

    Ok(Decomposition { stars, cross_filters, optionals, unions })
}

fn collect(
    pattern: &GroupGraphPattern,
    triples: &mut Vec<TriplePattern>,
    filters: &mut Vec<Expr>,
    optionals: &mut Vec<GroupGraphPattern>,
    unions: &mut Vec<Vec<GroupGraphPattern>>,
) -> Result<(), FedError> {
    for el in &pattern.elements {
        match el {
            PatternElement::Triple(t) => triples.push(t.clone()),
            PatternElement::Filter(f) => filters.push(f.clone()),
            PatternElement::Group(g) => collect(g, triples, filters, optionals, unions)?,
            PatternElement::Optional(g) => optionals.push(g.clone()),
            PatternElement::Union(branches) => unions.push(branches.clone()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlake_sparql::parser::parse_query;

    fn dec(q: &str) -> Decomposition {
        decompose(&parse_query(q).unwrap()).unwrap()
    }

    #[test]
    fn motivating_example_shape() {
        // Figure 1a: a gene star (Affymetrix) and a gene-disease star
        // (Diseasome) joined on the gene.
        let d = dec(r#"
            SELECT ?gl ?dn WHERE {
                ?g a <http://v/Gene> .
                ?g <http://v/label> ?gl .
                ?g <http://v/species> ?sp .
                ?gd <http://v/gene> ?g .
                ?gd <http://v/diseaseName> ?dn .
                FILTER(CONTAINS(?sp, "sapiens"))
            }
        "#);
        assert_eq!(d.stars.len(), 2);
        assert_eq!(d.stars[0].triples.len(), 3);
        assert_eq!(d.stars[0].class.as_deref(), Some("http://v/Gene"));
        assert_eq!(d.stars[1].triples.len(), 2);
        assert!(d.stars[1].class.is_none());
        // The species filter belongs to the gene star.
        assert_eq!(d.stars[0].filters.len(), 1);
        assert!(d.cross_filters.is_empty());
        // The stars share ?g.
        let b = d.stars[1].vars();
        let shared: Vec<Var> = d.stars[0].vars().into_iter().filter(|v| b.contains(v)).collect();
        assert_eq!(shared, vec![Var::new("g")]);
    }

    #[test]
    fn ground_subject_star() {
        let d = dec("SELECT ?p WHERE { <http://d/g1> ?p ?o }");
        assert_eq!(d.stars.len(), 1);
        assert!(matches!(d.stars[0].subject, StarSubject::Term(_)));
        assert!(d.stars[0].has_variable_predicate());
    }

    #[test]
    fn cross_star_filter_stays_at_engine() {
        let d = dec(
            "SELECT * WHERE { ?a <http://p> ?x . ?b <http://q> ?y . FILTER(?x < ?y) }",
        );
        assert_eq!(d.stars.len(), 2);
        assert_eq!(d.cross_filters.len(), 1);
        assert!(d.stars.iter().all(|s| s.filters.is_empty()));
    }

    #[test]
    fn star_vars_and_predicates() {
        let d = dec("SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/species> ?s }");
        let star = &d.stars[0];
        assert_eq!(star.vars().len(), 3);
        assert_eq!(star.predicates(), vec!["http://v/label", "http://v/species"]);
        let object_of = |p: &str| {
            star.triples
                .iter()
                .find(|t| t.p.as_term().and_then(Term::as_iri) == Some(p))
                .and_then(|t| t.o.as_var())
        };
        assert_eq!(object_of("http://v/label"), Some(&Var::new("l")));
        assert!(object_of("http://nope").is_none());
    }

    #[test]
    fn optional_becomes_nested_decomposition() {
        let q = parse_query("SELECT * WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?x } }")
            .unwrap();
        let d = decompose(&q).unwrap();
        assert_eq!(d.stars.len(), 1);
        assert_eq!(d.optionals.len(), 1);
        assert_eq!(d.optionals[0].stars.len(), 1);
        assert_eq!(
            d.optionals[0].stars[0].predicates(),
            vec!["http://q"]
        );
        assert_eq!(d.vars(), vec![Var::new("s"), Var::new("o")]);
    }

    #[test]
    fn union_becomes_branch_decompositions() {
        let q = parse_query(
            "SELECT * WHERE { { ?s a <http://A> } UNION { ?s a <http://B> } }",
        )
        .unwrap();
        let d = decompose(&q).unwrap();
        assert!(d.stars.is_empty());
        assert_eq!(d.unions.len(), 1);
        assert_eq!(d.unions[0].len(), 2);
        assert_eq!(d.unions[0][0].stars[0].class.as_deref(), Some("http://A"));
        // ?s is bound by every branch, so the block binds it.
        assert_eq!(union_block_vars(&d.unions[0]), vec![Var::new("s")]);
        assert_eq!(d.vars(), vec![Var::new("s")]);
    }

    #[test]
    fn variable_free_filter_is_cross() {
        let d = dec("SELECT * WHERE { ?s <http://p> ?o . FILTER(1 < 2) }");
        assert_eq!(d.cross_filters.len(), 1);
    }

    #[test]
    fn triple_based_strategy_splits_stars() {
        let q = parse_query(
            "SELECT * WHERE { ?g a <http://v/Gene> . ?g <http://v/label> ?l . \
             ?g <http://v/species> ?sp . FILTER(CONTAINS(?sp, \"x\")) }",
        )
        .unwrap();
        let star = decompose_as(&q, DecompositionStrategy::StarShaped).unwrap();
        assert_eq!(star.stars.len(), 1);
        let triple = decompose_as(&q, DecompositionStrategy::TripleBased).unwrap();
        assert_eq!(triple.stars.len(), 3);
        // Every triple-based sub-query inherits the class hint from the
        // type pattern elsewhere in the BGP.
        assert!(triple
            .stars
            .iter()
            .all(|s| s.class.as_deref() == Some("http://v/Gene")));
        // The species filter attaches to the sub-query binding ?sp.
        let with_filter: Vec<_> = triple
            .stars
            .iter()
            .filter(|s| !s.filters.is_empty())
            .collect();
        assert_eq!(with_filter.len(), 1);
        assert_eq!(
            with_filter[0].predicates(),
            vec!["http://v/species"]
        );
    }

    #[test]
    fn same_ground_subject_merges() {
        let d = dec(
            "SELECT * WHERE { <http://d/g1> <http://p> ?a . <http://d/g1> <http://q> ?b }",
        );
        assert_eq!(d.stars.len(), 1);
        assert_eq!(d.stars[0].triples.len(), 2);
    }
}
