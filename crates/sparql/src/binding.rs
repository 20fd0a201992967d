//! Solution mappings.
//!
//! A [`Row`] maps variables to RDF terms — handles on terms a dictionary
//! owns, not copies; it is the external currency at API boundaries (final
//! results, the local SPARQL evaluator).
//! Inside the federated engine, solution mappings travel as [`SlotRow`]s:
//! fixed-width arrays of [`TermId`]s laid out by a per-query [`RowSchema`]
//! and interned in a query-scoped dictionary shared across all sources.
//! Operators then hash and compare `u32` ids instead of strings, and only
//! materialize full [`Term`]s at the result boundary (or lazily inside
//! FILTER value comparisons).

use fedlake_rdf::{Dictionary, Term, TermId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A query variable (without the leading `?`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub Arc<str>);

impl Var {
    /// Creates a variable from its name (no leading `?`).
    pub fn new(name: impl AsRef<str>) -> Self {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable name without the `?` sigil.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A single solution mapping: variable → term.
///
/// Bindings sit in one vector sorted by variable, without duplicates — a
/// handful of entries, so a binary search beats a tree walk and a row is
/// one allocation. Order, equality and hashing are those of the sorted
/// `(variable, term)` sequence. A binding holds its term behind an
/// [`Arc`]: a row decoded from a dictionary or matched in a graph shares
/// the dictionary's allocation, and cloning or merging rows bumps counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row {
    slots: Vec<(Var, Arc<Term>)>,
}

impl Row {
    /// An empty solution mapping.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, var: &Var) -> Result<usize, usize> {
        self.slots.binary_search_by(|(v, _)| v.cmp(var))
    }

    /// Binds `var` to `term`, replacing any existing binding.
    pub fn bind(&mut self, var: Var, term: Term) {
        self.bind_shared(var, Arc::new(term));
    }

    /// [`Row::bind`] with a term someone already owns.
    pub fn bind_shared(&mut self, var: Var, term: Arc<Term>) {
        match self.position(&var) {
            Ok(i) => self.slots[i].1 = term,
            Err(i) => self.slots.insert(i, (var, term)),
        }
    }

    /// Builder-style [`Row::bind`].
    pub fn with(mut self, var: impl Into<Var>, term: Term) -> Self {
        self.bind(var.into(), term);
        self
    }

    /// The term bound to `var`, if any.
    pub fn get(&self, var: &Var) -> Option<&Term> {
        self.shared(var).map(|t| &**t)
    }

    /// The row's handle on the term bound to `var`, if any.
    pub fn shared(&self, var: &Var) -> Option<&Arc<Term>> {
        self.position(var).ok().map(|i| &self.slots[i].1)
    }

    /// True when `var` is bound.
    pub fn is_bound(&self, var: &Var) -> bool {
        self.position(var).is_ok()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates `(variable, term)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Term)> {
        self.slots.iter().map(|(v, t)| (v, &**t))
    }

    /// The set of bound variables.
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.slots.iter().map(|(v, _)| v)
    }

    /// Two rows are *compatible* when they agree on every shared variable.
    pub fn compatible(&self, other: &Row) -> bool {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .iter()
            .all(|(v, t)| large.get(v).is_none_or(|u| u == t))
    }

    /// Merges two compatible rows; `None` when they conflict.
    pub fn merge(&self, other: &Row) -> Option<Row> {
        let mut slots = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (self.slots.iter().peekable(), other.slots.iter().peekable());
        loop {
            let from_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.0.cmp(&y.0) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => {
                        if x.1 != y.1 {
                            return None;
                        }
                        b.next();
                        true
                    }
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return Some(Row { slots }),
            };
            slots.extend(if from_a { a.next() } else { b.next() }.cloned());
        }
    }

    /// Restricts the row to `vars` (projection).
    pub fn project(&self, vars: &[Var]) -> Row {
        let mut out = Row::new();
        for v in vars {
            if let Some(t) = self.shared(v) {
                out.bind_shared(v.clone(), Arc::clone(t));
            }
        }
        out
    }
}

/// Later bindings of a repeated variable replace earlier ones.
impl FromIterator<(Var, Term)> for Row {
    fn from_iter<I: IntoIterator<Item = (Var, Term)>>(iter: I) -> Self {
        let mut out = Row::new();
        for (v, t) in iter {
            out.bind(v, t);
        }
        out
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}={t}")?;
        }
        write!(f, "}}")
    }
}

/// A multiset of solution mappings.
pub type Rows = Vec<Row>;

/// The slot layout of one query: every variable the query can bind, in a
/// stable order, with a reverse index for O(1) variable → slot lookup.
///
/// Built once at plan time and shared by `Arc` across all operators of one
/// execution, so per-row work never touches variable names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSchema {
    vars: Vec<Var>,
    index: HashMap<Var, usize>,
    /// The slots in variable order — the order a [`Row`] keeps its
    /// bindings in, so [`decode_row`] appends and never searches.
    by_var: Vec<usize>,
}

impl RowSchema {
    /// Builds a schema from `vars`, deduplicating while preserving first
    /// occurrence order.
    pub fn new(vars: impl IntoIterator<Item = Var>) -> Self {
        let mut schema = RowSchema::default();
        for v in vars {
            if !schema.index.contains_key(&v) {
                schema.index.insert(v.clone(), schema.vars.len());
                schema.vars.push(v);
            }
        }
        schema.by_var = (0..schema.vars.len()).collect();
        schema.by_var.sort_by(|&a, &b| schema.vars[a].cmp(&schema.vars[b]));
        schema
    }

    /// The slot index of `var`, if the schema knows it.
    pub fn slot(&self, var: &Var) -> Option<usize> {
        self.index.get(var).copied()
    }

    /// All variables in slot order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when the schema has no slots.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Resolves a list of variables to slot indices, skipping variables the
    /// schema does not know (they can never be bound, so an operator keyed
    /// on them sees only unbound values either way).
    pub fn slots_of(&self, vars: &[Var]) -> Vec<usize> {
        vars.iter().filter_map(|v| self.slot(v)).collect()
    }
}

/// A dictionary-encoded solution mapping: one [`TermId`] per schema slot,
/// with [`TermId::UNBOUND`] marking unbound variables.
///
/// Equality and hashing are plain `u32`-array operations, which is what
/// makes join probes and DISTINCT dedup cheap.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotRow {
    slots: Box<[TermId]>,
}

impl SlotRow {
    /// A row of `width` unbound slots.
    pub fn unbound(width: usize) -> Self {
        SlotRow { slots: vec![TermId::UNBOUND; width].into_boxed_slice() }
    }

    /// The id in `slot`, or `None` when unbound.
    pub fn get(&self, slot: usize) -> Option<TermId> {
        match self.slots[slot] {
            TermId::UNBOUND => None,
            id => Some(id),
        }
    }

    /// Binds `slot` to `id`.
    pub fn set(&mut self, slot: usize, id: TermId) {
        self.slots[slot] = id;
    }

    /// True when `slot` holds a term.
    pub fn is_bound(&self, slot: usize) -> bool {
        self.slots[slot] != TermId::UNBOUND
    }

    /// The raw slot array (unbound slots hold [`TermId::UNBOUND`]).
    pub fn slots(&self) -> &[TermId] {
        &self.slots
    }

    /// Number of bound slots.
    pub fn bound_count(&self) -> usize {
        self.slots.iter().filter(|id| **id != TermId::UNBOUND).count()
    }

    /// Merges two rows of the same width; `None` when a slot is bound to
    /// different ids on both sides. Id equality is term equality because
    /// both rows encode through the same query-scoped interner.
    pub fn merge(&self, other: &SlotRow) -> Option<SlotRow> {
        debug_assert_eq!(self.slots.len(), other.slots.len());
        let mut out = self.clone();
        for (slot, &id) in other.slots.iter().enumerate() {
            if id == TermId::UNBOUND {
                continue;
            }
            match out.slots[slot] {
                TermId::UNBOUND => out.slots[slot] = id,
                existing if existing == id => {}
                _ => return None,
            }
        }
        Some(out)
    }
}

/// Encodes a [`Row`] into schema slots, interning each term — by its
/// handle, so a term new to `dict` is shared with the row, not copied.
/// Variables the schema does not know are dropped (the schema covers every
/// variable the query can bind, so this only loses bindings no operator can
/// see).
pub fn encode_row(row: &Row, schema: &RowSchema, dict: &mut Dictionary) -> SlotRow {
    let mut out = SlotRow::unbound(schema.len());
    for (v, t) in &row.slots {
        if let Some(slot) = schema.slot(v) {
            out.set(slot, dict.intern_shared(t));
        }
    }
    out
}

/// Materializes one dictionary-encoded row back into a variable → term
/// mapping; `id_of` reads the id in a schema slot (`|s| row.get(s)` for
/// a [`SlotRow`]). One pass in variable order into a vector of exactly the
/// bound width; every binding takes a handle on `dict`'s term, so the
/// answer shares the interner's strings and this copies none.
///
/// `None` when a bound id is missing from `dict`: encode and decode must
/// use the same query-scoped dictionary.
pub fn decode_row(
    schema: &RowSchema,
    dict: &Dictionary,
    id_of: impl Fn(usize) -> Option<TermId>,
) -> Option<Row> {
    let bound = (0..schema.len()).filter(|&s| id_of(s).is_some()).count();
    let mut slots = Vec::with_capacity(bound);
    for &slot in &schema.by_var {
        if let Some(id) = id_of(slot) {
            slots.push((schema.vars[slot].clone(), Arc::clone(dict.shared(id)?)));
        }
    }
    Some(Row { slots })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &str) -> Term {
        Term::iri(format!("http://x/{v}"))
    }

    #[test]
    fn bind_and_get() {
        let r = Row::new().with("x", t("a"));
        assert_eq!(r.get(&Var::new("x")), Some(&t("a")));
        assert!(r.get(&Var::new("y")).is_none());
        assert!(r.is_bound(&Var::new("x")));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn compatible_when_disjoint() {
        let a = Row::new().with("x", t("a"));
        let b = Row::new().with("y", t("b"));
        assert!(a.compatible(&b));
        let m = a.merge(&b).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn compatible_when_agreeing() {
        let a = Row::new().with("x", t("a")).with("y", t("b"));
        let b = Row::new().with("x", t("a")).with("z", t("c"));
        assert!(a.compatible(&b));
        assert_eq!(a.merge(&b).unwrap().len(), 3);
    }

    #[test]
    fn incompatible_when_conflicting() {
        let a = Row::new().with("x", t("a"));
        let b = Row::new().with("x", t("b"));
        assert!(!a.compatible(&b));
        assert!(a.merge(&b).is_none());
    }

    #[test]
    fn projection_keeps_only_requested() {
        let r = Row::new().with("x", t("a")).with("y", t("b"));
        let p = r.project(&[Var::new("y"), Var::new("z")]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(&Var::new("y")), Some(&t("b")));
    }

    #[test]
    fn display_is_readable() {
        let r = Row::new().with("x", t("a"));
        assert_eq!(r.to_string(), "{?x=<http://x/a>}");
    }

    #[test]
    fn empty_row_compatible_with_all() {
        let a = Row::new();
        let b = Row::new().with("x", t("a"));
        assert!(a.compatible(&b));
        assert_eq!(a.merge(&b).unwrap(), b);
    }

    #[test]
    fn schema_dedups_preserving_order() {
        let s = RowSchema::new(["x", "y", "x", "z"].map(Var::new));
        assert_eq!(s.len(), 3);
        assert_eq!(s.slot(&Var::new("x")), Some(0));
        assert_eq!(s.slot(&Var::new("y")), Some(1));
        assert_eq!(s.slot(&Var::new("z")), Some(2));
        assert_eq!(s.slot(&Var::new("w")), None);
        assert_eq!(s.slots_of(&[Var::new("z"), Var::new("w"), Var::new("x")]), vec![2, 0]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = RowSchema::new(["x", "y", "z"].map(Var::new));
        let mut dict = Dictionary::new();
        let row = Row::new().with("x", t("a")).with("z", t("c"));
        let enc = encode_row(&row, &s, &mut dict);
        assert!(enc.is_bound(0));
        assert!(!enc.is_bound(1));
        assert_eq!(enc.bound_count(), 2);
        let dec = decode_row(&s, &dict, |i| enc.get(i)).unwrap();
        assert_eq!(dec, row);
        // One owner per term: the row, the dictionary and the decoded row
        // hold the same allocation.
        for (v, _) in row.iter() {
            assert!(Arc::ptr_eq(dec.shared(v).unwrap(), row.shared(v).unwrap()));
        }
        // An id the dictionary never assigned is an error, not a panic.
        assert_eq!(decode_row(&s, &Dictionary::new(), |i| enc.get(i)), None);
    }

    #[test]
    fn slot_merge_matches_row_merge() {
        let s = RowSchema::new(["x", "y", "z"].map(Var::new));
        let mut dict = Dictionary::new();
        let a = Row::new().with("x", t("a")).with("y", t("b"));
        let b = Row::new().with("y", t("b")).with("z", t("c"));
        let c = Row::new().with("y", t("other"));
        let (ea, eb, ec) = (
            encode_row(&a, &s, &mut dict),
            encode_row(&b, &s, &mut dict),
            encode_row(&c, &s, &mut dict),
        );
        let merged = ea.merge(&eb).unwrap();
        assert_eq!(decode_row(&s, &dict, |i| merged.get(i)), a.merge(&b));
        assert!(ea.merge(&ec).is_none());
        assert!(a.merge(&c).is_none());
    }

    #[test]
    fn slot_rows_hash_and_compare_by_id() {
        let s = RowSchema::new(["x"].map(Var::new));
        let mut dict = Dictionary::new();
        let a = encode_row(&Row::new().with("x", t("a")), &s, &mut dict);
        let b = encode_row(&Row::new().with("x", t("a")), &s, &mut dict);
        let c = encode_row(&Row::new().with("x", t("b")), &s, &mut dict);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: std::collections::HashSet<SlotRow> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
