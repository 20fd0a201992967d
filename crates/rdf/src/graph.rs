//! An indexed, in-memory triple store.
//!
//! [`Graph`] keeps three covering indexes (`SPO`, `POS`, `OSP`) as sorted
//! sets of id-triples, so any triple pattern with at least one bound
//! component is answered by a range scan over the most selective index.

use crate::dict::{Dictionary, TermId};
use crate::term::Term;
use crate::Triple;
use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

/// A triple pattern over interned ids; `None` components are wildcards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject constraint.
    pub s: Option<TermId>,
    /// Predicate constraint.
    pub p: Option<TermId>,
    /// Object constraint.
    pub o: Option<TermId>,
}

impl TriplePattern {
    /// A pattern matching every triple.
    pub fn any() -> Self {
        Self::default()
    }

    /// Builder: constrain the subject.
    pub fn with_s(mut self, s: TermId) -> Self {
        self.s = Some(s);
        self
    }

    /// Builder: constrain the predicate.
    pub fn with_p(mut self, p: TermId) -> Self {
        self.p = Some(p);
        self
    }

    /// Builder: constrain the object.
    pub fn with_o(mut self, o: TermId) -> Self {
        self.o = Some(o);
        self
    }

    /// True when `t` matches this pattern.
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }
}

/// Which index a pattern lookup used; exposed for tests and EXPLAIN output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// Subject-predicate-object index.
    Spo,
    /// Predicate-object-subject index.
    Pos,
    /// Object-subject-predicate index.
    Osp,
    /// Full scan of the SPO index.
    FullScan,
}

/// An in-memory RDF graph with its own term dictionary.
///
/// Both halves sit behind copy-on-write handles: a clone shares the
/// dictionary and the indexes with its original, and the first write to
/// either value copies the half it touches, so the two diverge from there.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    dict: Arc<Dictionary>,
    triples: Arc<TripleIndexes>,
}

/// The three covering indexes, kept in step by [`Graph::insert`] and
/// [`Graph::remove`].
#[derive(Debug, Default, Clone)]
struct TripleIndexes {
    spo: BTreeSet<(u32, u32, u32)>,
    pos: BTreeSet<(u32, u32, u32)>,
    osp: BTreeSet<(u32, u32, u32)>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term in this graph's dictionary.
    pub(crate) fn intern(&mut self, term: Term) -> TermId {
        Arc::make_mut(&mut self.dict).intern(term)
    }

    /// Resolves a term id.
    pub fn term(&self, id: TermId) -> Option<&Term> {
        self.dict.term(id)
    }

    /// The dictionary's handle on the term of `id`
    /// ([`Dictionary::shared`]).
    pub fn shared(&self, id: TermId) -> Option<&Arc<Term>> {
        self.dict.shared(id)
    }

    /// Looks up the id of a term without interning.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        self.dict.id(term)
    }

    /// Inserts a triple of already-interned ids. Returns true when new.
    pub(crate) fn insert(&mut self, t: Triple) -> bool {
        let ix = Arc::make_mut(&mut self.triples);
        let added = ix.spo.insert((t.s.0, t.p.0, t.o.0));
        if added {
            ix.pos.insert((t.p.0, t.o.0, t.s.0));
            ix.osp.insert((t.o.0, t.s.0, t.p.0));
        }
        added
    }

    /// Interns three terms and inserts the resulting triple.
    pub fn insert_terms(&mut self, s: Term, p: Term, o: Term) -> Triple {
        let t = Triple::new(self.intern(s), self.intern(p), self.intern(o));
        self.insert(t);
        t
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.spo.len()
    }

    /// True when the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.spo.is_empty()
    }

    /// True when the triple is present.
    pub fn contains(&self, t: Triple) -> bool {
        self.triples.spo.contains(&(t.s.0, t.p.0, t.o.0))
    }

    /// Iterates all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.triples
            .spo
            .iter()
            .map(|&(s, p, o)| Triple::new(TermId(s), TermId(p), TermId(o)))
    }

    /// Chooses the index that serves `pattern` with a contiguous range scan.
    pub(crate) fn index_for(pattern: &TriplePattern) -> IndexChoice {
        match (pattern.s, pattern.p, pattern.o) {
            (Some(_), _, _) => IndexChoice::Spo,
            (None, Some(_), _) => IndexChoice::Pos,
            (None, None, Some(_)) => IndexChoice::Osp,
            (None, None, None) => IndexChoice::FullScan,
        }
    }

    /// Matches a triple pattern, returning the triples in an index-defined
    /// order. Uses a range scan on the most selective covering index.
    pub fn match_pattern(&self, pattern: &TriplePattern) -> Vec<Triple> {
        match Self::index_for(pattern) {
            IndexChoice::Spo => {
                let s = pattern.s.expect("SPO choice implies bound subject").0;
                let range = match (pattern.p, pattern.o) {
                    (Some(p), Some(o)) => {
                        let t = Triple::new(TermId(s), p, o);
                        return if self.contains(t) { vec![t] } else { Vec::new() };
                    }
                    (Some(p), None) => (
                        Bound::Included((s, p.0, 0)),
                        Bound::Included((s, p.0, u32::MAX)),
                    ),
                    (None, _) => (
                        Bound::Included((s, 0, 0)),
                        Bound::Included((s, u32::MAX, u32::MAX)),
                    ),
                };
                self.triples
                    .spo
                    .range(range)
                    .map(|&(s, p, o)| Triple::new(TermId(s), TermId(p), TermId(o)))
                    .filter(|t| pattern.matches(t))
                    .collect()
            }
            IndexChoice::Pos => {
                let p = pattern.p.expect("POS choice implies bound predicate").0;
                let range = match pattern.o {
                    Some(o) => (
                        Bound::Included((p, o.0, 0)),
                        Bound::Included((p, o.0, u32::MAX)),
                    ),
                    None => (
                        Bound::Included((p, 0, 0)),
                        Bound::Included((p, u32::MAX, u32::MAX)),
                    ),
                };
                self.triples
                    .pos
                    .range(range)
                    .map(|&(p, o, s)| Triple::new(TermId(s), TermId(p), TermId(o)))
                    .filter(|t| pattern.matches(t))
                    .collect()
            }
            IndexChoice::Osp => {
                let o = pattern.o.expect("OSP choice implies bound object").0;
                self.triples
                    .osp
                    .range((
                        Bound::Included((o, 0, 0)),
                        Bound::Included((o, u32::MAX, u32::MAX)),
                    ))
                    .map(|&(o, s, p)| Triple::new(TermId(s), TermId(p), TermId(o)))
                    .collect()
            }
            IndexChoice::FullScan => self.iter().collect(),
        }
    }

    /// All distinct subjects that have predicate `rdf:type` with object `class`.
    pub fn instances_of(&self, class: TermId) -> Vec<TermId> {
        let type_id = match self.dict.id(&Term::iri(crate::vocab::rdf::TYPE)) {
            Some(id) => id,
            None => return Vec::new(),
        };
        self.match_pattern(&TriplePattern::any().with_p(type_id).with_o(class))
            .into_iter()
            .map(|t| t.s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("s1"), Term::iri("p1"), Term::iri("o1"));
        g.insert_terms(Term::iri("s1"), Term::iri("p1"), Term::iri("o2"));
        g.insert_terms(Term::iri("s1"), Term::iri("p2"), Term::iri("o1"));
        g.insert_terms(Term::iri("s2"), Term::iri("p1"), Term::iri("o1"));
        g.insert_terms(Term::iri("s2"), Term::iri("p2"), Term::literal("x"));
        g
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("s"), Term::iri("p"), Term::iri("o"));
        g.insert_terms(Term::iri("s"), Term::iri("p"), Term::iri("o"));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn pattern_by_subject() {
        let g = sample();
        let s1 = g.id(&Term::iri("s1")).unwrap();
        let hits = g.match_pattern(&TriplePattern::any().with_s(s1));
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|t| t.s == s1));
    }

    #[test]
    fn pattern_by_predicate() {
        let g = sample();
        let p1 = g.id(&Term::iri("p1")).unwrap();
        let hits = g.match_pattern(&TriplePattern::any().with_p(p1));
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|t| t.p == p1));
    }

    #[test]
    fn pattern_by_object() {
        let g = sample();
        let o1 = g.id(&Term::iri("o1")).unwrap();
        let hits = g.match_pattern(&TriplePattern::any().with_o(o1));
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|t| t.o == o1));
    }

    #[test]
    fn pattern_fully_bound() {
        let g = sample();
        let s1 = g.id(&Term::iri("s1")).unwrap();
        let p1 = g.id(&Term::iri("p1")).unwrap();
        let o2 = g.id(&Term::iri("o2")).unwrap();
        let hits = g.match_pattern(&TriplePattern { s: Some(s1), p: Some(p1), o: Some(o2) });
        assert_eq!(hits.len(), 1);
        let miss = g.match_pattern(&TriplePattern { s: Some(o2), p: Some(p1), o: Some(s1) });
        assert!(miss.is_empty());
    }

    #[test]
    fn pattern_subject_predicate() {
        let g = sample();
        let s1 = g.id(&Term::iri("s1")).unwrap();
        let p1 = g.id(&Term::iri("p1")).unwrap();
        let hits = g.match_pattern(&TriplePattern { s: Some(s1), p: Some(p1), o: None });
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn pattern_subject_object_filters_predicate() {
        let g = sample();
        let s1 = g.id(&Term::iri("s1")).unwrap();
        let o1 = g.id(&Term::iri("o1")).unwrap();
        let hits = g.match_pattern(&TriplePattern { s: Some(s1), p: None, o: Some(o1) });
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|t| t.s == s1 && t.o == o1));
    }

    #[test]
    fn pattern_predicate_object() {
        let g = sample();
        let p1 = g.id(&Term::iri("p1")).unwrap();
        let o1 = g.id(&Term::iri("o1")).unwrap();
        let hits = g.match_pattern(&TriplePattern { s: None, p: Some(p1), o: Some(o1) });
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn full_scan_returns_everything() {
        let g = sample();
        assert_eq!(g.match_pattern(&TriplePattern::any()).len(), g.len());
    }

    #[test]
    fn index_choice() {
        let s = TermId(0);
        assert_eq!(Graph::index_for(&TriplePattern::any().with_s(s)), IndexChoice::Spo);
        assert_eq!(Graph::index_for(&TriplePattern::any().with_p(s)), IndexChoice::Pos);
        assert_eq!(Graph::index_for(&TriplePattern::any().with_o(s)), IndexChoice::Osp);
        assert_eq!(Graph::index_for(&TriplePattern::any()), IndexChoice::FullScan);
    }

    #[test]
    fn instances_of_class() {
        let mut g = Graph::new();
        g.insert_terms(
            Term::iri("s1"),
            Term::iri(crate::vocab::rdf::TYPE),
            Term::iri("C"),
        );
        g.insert_terms(
            Term::iri("s2"),
            Term::iri(crate::vocab::rdf::TYPE),
            Term::iri("C"),
        );
        g.insert_terms(
            Term::iri("s3"),
            Term::iri(crate::vocab::rdf::TYPE),
            Term::iri("D"),
        );
        let c = g.id(&Term::iri("C")).unwrap();
        assert_eq!(g.instances_of(c).len(), 2);
    }

    #[test]
    fn a_clone_shares_storage_until_written() {
        let shared = |a: &Graph, b: &Graph| {
            (Arc::ptr_eq(&a.dict, &b.dict), Arc::ptr_eq(&a.triples, &b.triples))
        };
        let mut g = sample();
        let mut c = g.clone();
        assert_eq!(shared(&g, &c), (true, true));
        // Known terms still unshare the dictionary: interning is a write.
        let t = c.insert_terms(Term::iri("s2"), Term::iri("p2"), Term::iri("o1"));
        assert_eq!(shared(&g, &c), (false, false));
        assert_eq!((g.len(), c.len()), (5, 6));
        assert!(!g.contains(t));
        // The other way round: the original moves on, the clone stays.
        g.insert_terms(Term::iri("s9"), Term::iri("p1"), Term::iri("o1"));
        assert!(c.id(&Term::iri("s9")).is_none());
        assert!(!g.contains(t) && c.contains(t));
        assert_eq!((g.len(), c.len()), (6, 6));
    }
}
