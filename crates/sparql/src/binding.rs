//! Solution mappings.
//!
//! A [`Row`] maps variables to RDF terms — handles on terms a dictionary
//! owns, not copies; it is the external currency at API boundaries (final
//! results, the local SPARQL evaluator).
//! Inside the federated engine, solution mappings travel as [`RowId`]s:
//! handles on fixed-width arrays of [`TermId`]s in the execution's
//! [`RowArena`], laid out by a per-query [`RowSchema`] and interned in a
//! query-scoped dictionary shared across all sources. Operators then hash
//! and compare `u32` ids instead of strings, and only materialize full
//! [`Term`]s at the result boundary (or lazily inside FILTER value
//! comparisons).

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

/// The handle of one row in a [`RowArena`]: four bytes, `Copy`.
///
/// A handle an operator passes up is *moved*: the receiver may change the
/// row in place, so an operator never hands up a row it keeps while
/// anything could still read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(u32);

/// What a chunk of a [`RowArena`] aims to hold, in ids: the largest
/// power-of-two number of rows that fits, and at least one row. 2 KiB,
/// so an execution leaves at most that much unused.
const CHUNK_IDS: usize = 512;

/// Every dictionary-encoded solution mapping of one execution: rows of one
/// fixed width — one [`TermId`] per schema slot, [`TermId::UNBOUND`]
/// marking unbound variables — appended in fixed-size chunks and named by
/// [`RowId`]. A chunk holds a power-of-two number of rows, so a handle
/// splits into chunk and row with a shift and a mask, and a chunk never
/// moves once allocated: the arena grows by one allocation per chunk and is
/// freed in as many blocks when it drops. Rows are never freed one by one;
/// a merge that fails takes back the row it wrote.
///
/// Row equality is slice equality: id equality is term equality because
/// every row of the arena encodes through the same query-scoped interner.
#[derive(Debug)]
pub struct RowArena {
    width: usize,
    /// log2 of the rows a chunk holds.
    shift: u32,
    /// Each holds `width << shift` ids when full; only the last one that
    /// holds a row may be partly filled.
    chunks: Vec<Vec<TermId>>,
    len: u32,
}

impl RowArena {
    /// An empty arena of rows `width` slots wide.
    pub fn new(width: usize) -> Self {
        let rows = (CHUNK_IDS / width.max(1)).max(1);
        RowArena { width, shift: rows.ilog2(), chunks: Vec::new(), len: 0 }
    }

    /// Rows per chunk.
    pub fn rows_per_chunk(&self) -> usize {
        1 << self.shift
    }

    /// Rows written so far.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no row was written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk of row `id` and the offset of its first slot there.
    fn locate(&self, id: RowId) -> (usize, usize) {
        let i = id.0 as usize;
        (i >> self.shift, (i & ((1 << self.shift) - 1)) * self.width)
    }

    /// The chunk the next row goes into, allocated when it is new.
    fn tail(&mut self) -> usize {
        // Handles are `u32`s. 2^32 rows of one slot or more are at least
        // 16 GiB of ids, so the allocator gives out first; the check keeps
        // a handle from wrapping onto a stored row regardless, and at
        // width 0, where rows cost no ids.
        assert!(self.len < u32::MAX, "a row arena holds 2^32 - 1 rows");
        let chunk = (self.len >> self.shift) as usize;
        if chunk == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(self.width << self.shift));
        }
        chunk
    }

    /// Names the row just written to the tail chunk.
    fn appended(&mut self) -> RowId {
        self.len += 1;
        RowId(self.len - 1)
    }

    /// Appends a row holding `cell(slot)` in each slot.
    pub fn push_with(&mut self, cell: impl FnMut(usize) -> TermId) -> RowId {
        let chunk = self.tail();
        self.chunks[chunk].extend((0..self.width).map(cell));
        self.appended()
    }

    /// Appends a row of unbound slots.
    pub fn push_unbound(&mut self) -> RowId {
        self.push_with(|_| TermId::UNBOUND)
    }

    /// Appends a copy of row `src`.
    pub fn copy(&mut self, src: RowId) -> RowId {
        let chunk = self.tail();
        let (from, at) = self.locate(src);
        let cells = at..at + self.width;
        if from == chunk {
            self.chunks[chunk].extend_from_within(cells);
        } else {
            // `src` was written earlier, so its chunk comes first.
            let (done, tail) = self.chunks.split_at_mut(chunk);
            tail[0].extend_from_slice(&done[from][cells]);
        }
        self.appended()
    }

    /// The slots of row `id`.
    pub fn row(&self, id: RowId) -> &[TermId] {
        let (chunk, at) = self.locate(id);
        &self.chunks[chunk][at..at + self.width]
    }

    /// Every row, in the order written.
    pub fn rows(&self) -> impl Iterator<Item = &[TermId]> {
        (0..self.len).map(|i| self.row(RowId(i)))
    }

    /// The slots of row `id`, to change in place.
    pub fn row_mut(&mut self, id: RowId) -> &mut [TermId] {
        let (chunk, at) = self.locate(id);
        &mut self.chunks[chunk][at..at + self.width]
    }

    /// The id row `id` holds in `slot`, or `None` when unbound.
    pub fn get(&self, id: RowId, slot: usize) -> Option<TermId> {
        self.row(id)[slot].bound()
    }

    /// Binds `slot` of row `id` to `term`.
    pub fn set(&mut self, id: RowId, slot: usize, term: TermId) {
        self.row_mut(id)[slot] = term;
    }

    /// Number of bound slots of row `id`.
    pub fn bound_count(&self, id: RowId) -> usize {
        self.row(id).iter().filter(|t| **t != TermId::UNBOUND).count()
    }

    /// Appends `left` merged with `right`: a copy of `left` with `right`'s
    /// bound slots laid over it. `None` when a slot is bound to different
    /// ids on both sides; the arena is then as it was.
    pub fn merge(&mut self, left: RowId, right: RowId) -> Option<RowId> {
        let out = self.copy(left);
        let (from, at) = self.locate(right);
        let (chunk, to) = self.locate(out);
        let width = self.width;
        let merged = if from == chunk {
            // `right` was written before `out`: it lies below `to`.
            let (before, dst) = self.chunks[chunk].split_at_mut(to);
            overlay(&mut dst[..width], |s| before[at + s])
        } else {
            let (done, tail) = self.chunks.split_at_mut(chunk);
            let right = &done[from][at..at + width];
            overlay(&mut tail[0][to..to + width], |s| right[s])
        };
        self.keep(merged, out)
    }

    /// [`RowArena::merge`] of `left` with a row held elsewhere, whose
    /// `slot` holds `cell(slot)`.
    pub fn merge_cells(&mut self, left: RowId, cell: impl Fn(usize) -> TermId) -> Option<RowId> {
        let out = self.copy(left);
        let merged = overlay(self.row_mut(out), cell);
        self.keep(merged, out)
    }

    /// `out`, the last row written, when `merged`; else takes it back.
    fn keep(&mut self, merged: bool, out: RowId) -> Option<RowId> {
        if merged {
            return Some(out);
        }
        let (chunk, at) = self.locate(out);
        self.chunks[chunk].truncate(at);
        self.len -= 1;
        None
    }
}

/// Lays the bound ids of `cell(slot)` over `dst`; false when one differs
/// from an id `dst` already binds in that slot.
fn overlay(dst: &mut [TermId], cell: impl Fn(usize) -> TermId) -> bool {
    for (slot, held) in dst.iter_mut().enumerate() {
        match cell(slot) {
            TermId::UNBOUND => {}
            id if *held == TermId::UNBOUND => *held = id,
            id if *held == id => {}
            _ => return false,
        }
    }
    true
}

/// Encodes a [`Row`] into schema slots, interning each term — by its
/// handle, so a term new to `dict` is shared with the row, not copied —
/// and handing `set(slot, id)` each bound slot. Variables the schema does
/// not know are dropped (the schema covers every variable the query can
/// bind, so this only loses bindings no operator can see).
pub fn encode_row(
    row: &Row,
    schema: &RowSchema,
    dict: &mut Dictionary,
    mut set: impl FnMut(usize, TermId),
) {
    for (v, t) in &row.slots {
        if let Some(slot) = schema.slot(v) {
            set(slot, dict.intern_shared(t));
        }
    }
}

/// Materializes one dictionary-encoded row — its `ids`, one per schema
/// slot — back into a variable → term mapping. One pass in variable order
/// into a vector of exactly the bound width; every binding takes a handle
/// on `dict`'s term, so the answer shares the interner's strings and this
/// copies none.
///
/// `None` when a bound id is missing from `dict`: encode and decode must
/// use the same query-scoped dictionary.
pub fn decode_row(schema: &RowSchema, dict: &Dictionary, ids: &[TermId]) -> Option<Row> {
    let bound = ids.iter().filter(|id| **id != TermId::UNBOUND).count();
    let mut slots = Vec::with_capacity(bound);
    for &slot in &schema.by_var {
        if let Some(id) = ids[slot].bound() {
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

    /// Encodes `row` as a new row of `rows`.
    fn enc(row: &Row, s: &RowSchema, dict: &mut Dictionary, rows: &mut RowArena) -> RowId {
        let id = rows.push_unbound();
        encode_row(row, s, dict, |slot, t| rows.set(id, slot, t));
        id
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = RowSchema::new(["x", "y", "z"].map(Var::new));
        let (mut dict, mut rows) = (Dictionary::new(), RowArena::new(s.len()));
        let row = Row::new().with("x", t("a")).with("z", t("c"));
        let enc = enc(&row, &s, &mut dict, &mut rows);
        assert!(rows.get(enc, 0).is_some());
        assert!(rows.get(enc, 1).is_none());
        assert_eq!(rows.bound_count(enc), 2);
        let dec = decode_row(&s, &dict, rows.row(enc)).unwrap();
        assert_eq!(dec, row);
        // One owner per term: the row, the dictionary and the decoded row
        // hold the same allocation.
        for (v, _) in row.iter() {
            assert!(Arc::ptr_eq(dec.shared(v).unwrap(), row.shared(v).unwrap()));
        }
        // An id the dictionary never assigned is an error, not a panic.
        assert_eq!(decode_row(&s, &Dictionary::new(), rows.row(enc)), None);
    }

    #[test]
    fn arena_merge_matches_row_merge() {
        let s = RowSchema::new(["x", "y", "z"].map(Var::new));
        let (mut dict, mut rows) = (Dictionary::new(), RowArena::new(s.len()));
        let a = Row::new().with("x", t("a")).with("y", t("b"));
        let b = Row::new().with("y", t("b")).with("z", t("c"));
        let c = Row::new().with("y", t("other"));
        let ea = enc(&a, &s, &mut dict, &mut rows);
        let eb = enc(&b, &s, &mut dict, &mut rows);
        let ec = enc(&c, &s, &mut dict, &mut rows);
        let merged = rows.merge(ea, eb).unwrap();
        assert_eq!(decode_row(&s, &dict, rows.row(merged)), a.merge(&b));
        assert_eq!(rows.len(), 4);
        assert!(rows.merge(ea, ec).is_none());
        assert!(a.merge(&c).is_none());
        assert_eq!(rows.len(), 4, "a failed merge takes its row back");
        // The operands are untouched, and equal rows compare equal.
        assert_eq!(decode_row(&s, &dict, rows.row(ea)), Some(a.clone()));
        let again = enc(&a, &s, &mut dict, &mut rows);
        assert_ne!(again, ea);
        assert_eq!(rows.row(again), rows.row(ea));
        assert_ne!(rows.row(ea), rows.row(ec));
    }

    #[test]
    fn width_zero_rows_get_distinct_handles() {
        let mut rows = RowArena::new(0);
        let ids: Vec<RowId> = (0..3 * rows.rows_per_chunk()).map(|_| rows.push_unbound()).collect();
        assert_eq!(rows.len(), ids.len());
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let copy = rows.copy(ids[7]);
        assert_eq!(rows.merge(copy, ids[0]).map(|m| rows.row(m).len()), Some(0));
    }
}
