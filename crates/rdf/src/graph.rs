//! An indexed, in-memory triple store.
//!
//! [`Graph`] keeps three covering indexes (`SPO`, `POS`, `OSP`) as sorted
//! sets of id-triples, so any triple pattern with at least one bound
//! component is answered by a range scan over the most selective index.

use crate::dict::{Dictionary, TermId};
use crate::term::Term;
use crate::Triple;
use std::collections::BTreeSet;
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

/// The three covering indexes, kept in step by [`Graph::insert`], the one
/// write: a graph only grows.
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

    /// Matches a triple pattern, returning the triples in an index-defined
    /// order: the pattern's shape picks the index whose key prefix it
    /// binds (SPO for a bound subject, else POS for a bound predicate, else
    /// OSP), so every lookup is one contiguous range scan.
    pub fn match_pattern(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let ix = &self.triples;
        match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple::new(s, p, o);
                if self.contains(t) {
                    vec![t]
                } else {
                    Vec::new()
                }
            }
            (Some(s), p, o) => prefix_scan(&ix.spo, s, p)
                .map(|&(s, p, o)| Triple::new(TermId(s), TermId(p), TermId(o)))
                .filter(|t| o.is_none_or(|o| o == t.o))
                .collect(),
            (None, Some(p), o) => prefix_scan(&ix.pos, p, o)
                .map(|&(p, o, s)| Triple::new(TermId(s), TermId(p), TermId(o)))
                .collect(),
            (None, None, Some(o)) => prefix_scan(&ix.osp, o, None)
                .map(|&(o, s, p)| Triple::new(TermId(s), TermId(p), TermId(o)))
                .collect(),
            (None, None, None) => self.iter().collect(),
        }
    }

    /// The terms of each triple [`Graph::match_pattern`] returns, in its
    /// order: the dictionary's own handles, nothing copied.
    pub fn match_terms(&self, pattern: &TriplePattern) -> impl Iterator<Item = [&Arc<Term>; 3]> {
        self.match_pattern(pattern).into_iter().map(|t| self.terms_of(t))
    }

    /// The terms of every triple, in SPO order ([`Graph::iter`]).
    pub fn iter_terms(&self) -> impl Iterator<Item = [&Arc<Term>; 3]> {
        self.iter().map(|t| self.terms_of(t))
    }

    /// The terms of `t`, a triple of this graph's own index.
    // Every id the index holds was interned in this graph's dictionary
    // (`insert_terms` is the one public writer, `insert` is crate-private),
    // and only this graph's triples are passed here, so each lookup resolves.
    #[allow(clippy::expect_used)]
    fn terms_of(&self, t: Triple) -> [&Arc<Term>; 3] {
        let term = |id| self.dict.shared(id).expect("a graph's triples hold its own ids");
        [term(t.s), term(t.p), term(t.o)]
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

/// The id triples of `index` whose first component is `a` and, when `b` is
/// given, whose second is `b`: one range of the sorted set.
fn prefix_scan(
    index: &BTreeSet<(u32, u32, u32)>,
    a: TermId,
    b: Option<TermId>,
) -> impl Iterator<Item = &(u32, u32, u32)> {
    let (lo, hi) = match b {
        Some(b) => ((a.0, b.0, 0), (a.0, b.0, u32::MAX)),
        None => ((a.0, 0, 0), (a.0, u32::MAX, u32::MAX)),
    };
    index.range(lo..=hi)
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
