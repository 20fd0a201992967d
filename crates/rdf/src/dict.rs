//! Term interning.
//!
//! Graphs store triples as triples of [`TermId`]s; the [`Dictionary`] maps
//! between ids and full [`Term`]s. Interning keeps the triple indexes
//! compact (12 bytes per triple per index) and makes joins and comparisons
//! integer comparisons.

use crate::hash::BuildFastHasher;
use crate::term::{Literal, Term};
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A compact identifier for an interned RDF term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// Sentinel for "no term": an unbound slot in a solution mapping.
    /// Never allocated by [`Dictionary::intern`].
    pub const UNBOUND: TermId = TermId(u32::MAX);

    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id, or `None` when it is [`TermId::UNBOUND`].
    pub fn bound(self) -> Option<TermId> {
        (self != TermId::UNBOUND).then_some(self)
    }
}

/// A term by its borrowed parts: what the by-parts entry points look up
/// with, and what a whole [`Term`] is reduced to before it is hashed or
/// compared — so there is one hash function and one equality (the derived
/// ones), and interning by parts cannot disagree with interning the term.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Parts<'a> {
    Iri(&'a str),
    Blank(&'a str),
    Literal { lexical: &'a str, lang: Option<&'a str>, datatype: Option<&'a str> },
}

impl<'a> Parts<'a> {
    fn of(term: &'a Term) -> Self {
        match term {
            Term::Iri(v) => Parts::Iri(v),
            Term::Blank(v) => Parts::Blank(v),
            Term::Literal(l) => Parts::Literal {
                lexical: &l.lexical,
                lang: l.lang.as_deref(),
                datatype: l.datatype.as_deref(),
            },
        }
    }

    fn content_hash(self) -> u64 {
        BuildFastHasher.hash_one(self)
    }

    fn to_term(self) -> Term {
        match self {
            Parts::Iri(v) => Term::Iri(v.to_string()),
            Parts::Blank(v) => Term::Blank(v.to_string()),
            Parts::Literal { lexical, lang, datatype } => Term::Literal(Literal {
                lexical: lexical.to_string(),
                lang: lang.map(str::to_string),
                datatype: datatype.map(str::to_string),
            }),
        }
    }
}

/// Marks a free slot of the id table; also [`TermId::UNBOUND`], which is
/// therefore never handed out.
const FREE: u32 = u32::MAX;

/// A bidirectional mapping between [`Term`]s and [`TermId`]s.
///
/// Ids are dense and allocated in insertion order, so they can be used to
/// index side tables. Each term is stored once, in `terms`, next to the
/// content hash it was found by; the reverse direction is an open-addressed
/// table of ids (linear probing, at most half full) that compares the
/// stored hash before it looks at a string. Growing the table re-seats
/// the ids from the stored hashes, so a string is hashed exactly once — by
/// the lookup that interned it — and a clone copies three vectors.
///
/// A term has one owner: the dictionary holds it behind an [`Arc`], and
/// whoever needs the term past the dictionary's lock — an answer row,
/// another dictionary ([`Dictionary::intern_shared`]) — takes a handle
/// ([`Dictionary::shared`]) instead of copying its strings.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Arc<Term>>,
    hashes: Vec<u64>,
    /// Power-of-two length (or empty); a slot holds an id or [`FREE`].
    table: Vec<u32>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id. Idempotent. The term is moved in:
    /// a first sighting stores it as is, a repeat drops it.
    pub fn intern(&mut self, term: Term) -> TermId {
        let hash = Parts::of(&term).content_hash();
        match self.find(Parts::of(&term), hash) {
            Some(id) => id,
            None => self.push(Arc::new(term), hash),
        }
    }

    /// Interns a term another owner already holds — a graph's dictionary,
    /// a row — giving it the id [`Dictionary::intern`] would. A first
    /// sighting stores a handle to the same allocation; nothing is copied
    /// either way.
    pub fn intern_shared(&mut self, term: &Arc<Term>) -> TermId {
        let hash = Parts::of(term).content_hash();
        match self.find(Parts::of(term), hash) {
            Some(id) => id,
            None => self.push(Arc::clone(term), hash),
        }
    }

    /// Interns the IRI `iri` — the same id [`Dictionary::intern`] gives
    /// `Term::iri(iri)` — allocating only when it is new.
    pub fn intern_iri(&mut self, iri: &str) -> TermId {
        self.intern_parts(Parts::Iri(iri))
    }

    /// Interns a literal by its parts — the same id
    /// [`Dictionary::intern`] gives the assembled `Term::Literal` —
    /// allocating only when it is new.
    pub fn intern_literal(
        &mut self,
        lexical: &str,
        lang: Option<&str>,
        datatype: Option<&str>,
    ) -> TermId {
        self.intern_parts(Parts::Literal { lexical, lang, datatype })
    }

    fn intern_parts(&mut self, parts: Parts<'_>) -> TermId {
        let hash = parts.content_hash();
        match self.find(parts, hash) {
            Some(id) => id,
            None => self.push(Arc::new(parts.to_term()), hash),
        }
    }

    fn find(&self, parts: Parts<'_>, hash: u64) -> Option<TermId> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.table[slot];
            if id == FREE {
                return None;
            }
            if self.hashes[id as usize] == hash && parts == Parts::of(&self.terms[id as usize]) {
                return Some(TermId(id));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Stores a term `find` did not find.
    fn push(&mut self, term: Arc<Term>, hash: u64) -> TermId {
        // Ids are `u32`s below `FREE`. A dictionary that full holds 2^32 - 1
        // handles and hashes — 64 GiB before the first string — so the
        // allocator gives out long before the id space does; the check keeps
        // a wrapped id from ever aliasing a stored one regardless.
        assert!(self.terms.len() < FREE as usize, "dictionary holds 2^32 - 1 terms");
        let raw = self.terms.len() as u32;
        if (self.terms.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        let slot = self.free_slot(hash);
        self.table[slot] = raw;
        self.terms.push(term);
        self.hashes.push(hash);
        TermId(raw)
    }

    /// Where the probe sequence of `hash` meets its first free slot.
    fn free_slot(&self, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        while self.table[slot] != FREE {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Doubles the id table and re-seats every id from its stored hash.
    fn grow(&mut self) {
        self.table = vec![FREE; (self.table.len() * 2).max(16)];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let slot = self.free_slot(hash);
            self.table[slot] = id as u32;
        }
    }

    /// Looks up the id of `term` without interning it.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        let parts = Parts::of(term);
        self.find(parts, parts.content_hash())
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index()).map(|t| &**t)
    }

    /// The dictionary's own handle on the term of `id`: clone it to keep
    /// the term without copying it.
    pub fn shared(&self, id: TermId) -> Option<&Arc<Term>> {
        self.terms.get(id.index())
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), &**t))
    }
}

/// A query-scoped, append-only term interner shareable across operators
/// and source boundaries.
///
/// Every wrapper stream and engine operator participating in one query
/// execution holds a clone, so a term arriving from any source maps to the
/// same [`TermId`] everywhere — which is what lets joins compare raw ids.
/// Ids are never recycled: the interner only grows for the lifetime of the
/// query and is dropped wholesale when execution finishes.
#[derive(Debug, Default, Clone)]
pub struct SharedInterner {
    inner: Arc<Mutex<Dictionary>>,
}

impl SharedInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the underlying dictionary (non-poisoning).
    pub fn lock(&self) -> MutexGuard<'_, Dictionary> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns `term`, returning its query-wide id.
    pub fn intern(&self, term: Term) -> TermId {
        self.lock().intern(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::iri("http://x/a"));
        let b = d.intern(Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::iri("a"));
        let b = d.intern(Term::iri("b"));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn roundtrip() {
        let mut d = Dictionary::new();
        let t = Term::literal("v");
        let id = d.intern(t.clone());
        assert_eq!(d.term(id), Some(&t));
        assert_eq!(d.id(&t), Some(id));
    }

    #[test]
    fn a_term_has_one_owner_across_dictionaries() {
        let mut graph = Dictionary::new();
        let id = graph.intern(Term::iri("http://x/a"));
        let handle = Arc::clone(graph.shared(id).unwrap());
        let mut query = Dictionary::new();
        let qid = query.intern_shared(&handle);
        assert!(Arc::ptr_eq(query.shared(qid).unwrap(), &handle));
        // Idempotent with `intern`, and a repeat keeps the first handle.
        assert_eq!(query.intern(Term::iri("http://x/a")), qid);
        assert_eq!(query.intern_shared(&Arc::new(Term::iri("http://x/a"))), qid);
        assert!(Arc::ptr_eq(query.shared(qid).unwrap(), &handle));
        assert_eq!(query.len(), 1);
        assert!(query.shared(TermId::UNBOUND).is_none());
    }

    #[test]
    fn lookup_missing() {
        let d = Dictionary::new();
        assert!(d.id(&Term::iri("nope")).is_none());
        assert!(d.term(TermId(0)).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn distinct_terms_distinct_ids() {
        let mut d = Dictionary::new();
        // IRI "a" and literal "a" are different terms.
        let i = d.intern(Term::iri("a"));
        let l = d.intern(Term::literal("a"));
        assert_ne!(i, l);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut d = Dictionary::new();
        d.intern(Term::iri("a"));
        d.intern(Term::iri("b"));
        let pairs: Vec<_> = d.iter().map(|(id, t)| (id.index(), t.clone())).collect();
        assert_eq!(pairs, vec![(0, Term::iri("a")), (1, Term::iri("b"))]);
    }

    #[test]
    fn shared_interner_agrees_across_clones() {
        let a = SharedInterner::new();
        let b = a.clone();
        let id_a = a.intern(Term::iri("http://x/a"));
        let id_b = b.intern(Term::iri("http://x/a"));
        assert_eq!(id_a, id_b);
        assert_eq!(a.lock().len(), 1);
        assert_eq!(b.lock().term(id_a), Some(&Term::iri("http://x/a")));
    }

    #[test]
    fn unbound_sentinel_never_resolves() {
        let i = SharedInterner::new();
        i.intern(Term::iri("a"));
        assert_eq!(i.lock().term(TermId::UNBOUND), None);
    }
}
