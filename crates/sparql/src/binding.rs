//! Solution mappings.
//!
//! A [`Row`] maps variables to RDF terms by value; it is the external
//! currency at API boundaries (final results, the local SPARQL evaluator).
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
/// `(variable, term)` sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row {
    slots: Vec<(Var, Term)>,
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
        self.slots.iter().map(|(v, t)| (v, t))
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
            if let Some(t) = self.get(v) {
                out.bind(v.clone(), t.clone());
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

/// A morsel of [`SlotRow`]s in column-major layout: one `TermId` buffer
/// per schema slot plus an optional selection vector.
///
/// Batches are the currency of the vectorized executor: wrapper streams
/// fill one batch per delivered message chunk, FILTER narrows the
/// selection vector without moving data, PROJECT remaps columns, and the
/// hash operators gather individual rows only where a table insert needs
/// an owned [`SlotRow`]. All ids come from the same query-scoped
/// interner as the row-at-a-time path, so id equality remains term
/// equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBatch {
    /// One buffer per schema slot, each `rows` long (column-major).
    cols: Vec<Vec<TermId>>,
    /// Physical rows in the batch.
    rows: usize,
    /// Selected physical row indices, in order; `None` selects all rows.
    sel: Option<Vec<u32>>,
}

impl RowBatch {
    /// An empty batch of `width` columns with room for `cap` rows.
    pub fn with_capacity(width: usize, cap: usize) -> Self {
        RowBatch {
            cols: (0..width).map(|_| Vec::with_capacity(cap)).collect(),
            rows: 0,
            sel: None,
        }
    }

    /// Number of schema slots (columns).
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Physical rows in the batch (ignoring the selection vector).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows visible through the selection vector.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.rows,
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one row, copying its slots into the column buffers.
    ///
    /// Panics when a selection vector is already installed: batches are
    /// built dense first, then narrowed.
    pub fn push_row(&mut self, row: &SlotRow) {
        assert!(self.sel.is_none(), "push into a filtered batch");
        debug_assert_eq!(row.slots().len(), self.cols.len());
        for (col, &id) in self.cols.iter_mut().zip(row.slots()) {
            col.push(id);
        }
        self.rows += 1;
    }

    /// The id at physical row `row`, column `col` (`None` when unbound).
    pub fn get(&self, row: usize, col: usize) -> Option<TermId> {
        match self.cols[col][row] {
            TermId::UNBOUND => None,
            id => Some(id),
        }
    }

    /// One column's buffer.
    pub fn col(&self, col: usize) -> &[TermId] {
        &self.cols[col]
    }

    /// The selection vector, when one is installed.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Installs a selection vector of physical row indices (ascending).
    pub fn set_sel(&mut self, sel: Vec<u32>) {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.rows));
        self.sel = Some(sel);
    }

    /// Iterates the selected physical row indices, in order.
    pub fn selected(&self) -> impl Iterator<Item = usize> + '_ {
        let sel = self.sel.as_deref();
        let n = match sel {
            Some(s) => s.len(),
            None => self.rows,
        };
        (0..n).map(move |i| match sel {
            Some(s) => s[i] as usize,
            None => i,
        })
    }

    /// Gathers physical row `row` into `out` (which must have the batch's
    /// width), overwriting every slot.
    pub fn read_row(&self, row: usize, out: &mut SlotRow) {
        for (slot, col) in self.cols.iter().enumerate() {
            out.set(slot, col[row]);
        }
    }

    /// Materializes physical row `row` as an owned [`SlotRow`].
    pub fn to_slot_row(&self, row: usize) -> SlotRow {
        let mut out = SlotRow::unbound(self.width());
        self.read_row(row, &mut out);
        out
    }

    /// Appends the merge of `src`'s physical row `row` with the slot array
    /// `other`, mirroring [`SlotRow::merge`] exactly: a slot bound to
    /// different ids on both sides is a conflict and nothing is appended
    /// (returns `false`). Writing the merged row straight into the column
    /// buffers is what lets the vectorized hash join emit matches without
    /// materializing an intermediate [`SlotRow`] per output row.
    pub fn push_merge_from(&mut self, src: &RowBatch, row: usize, other: &[TermId]) -> bool {
        debug_assert!(self.sel.is_none(), "push into a filtered batch");
        debug_assert_eq!(self.width(), src.width());
        debug_assert_eq!(other.len(), src.width());
        for (col, &b) in src.cols.iter().zip(other) {
            let a = col[row];
            if a != TermId::UNBOUND && b != TermId::UNBOUND && a != b {
                return false;
            }
        }
        for (dst, (col, &b)) in self.cols.iter_mut().zip(src.cols.iter().zip(other)) {
            let a = col[row];
            dst.push(if a == TermId::UNBOUND { b } else { a });
        }
        self.rows += 1;
        true
    }

    /// Wraps pre-built column buffers (all the same length) as a dense
    /// batch — the zero-copy handoff from a columnar wrapper store.
    pub fn from_cols(cols: Vec<Vec<TermId>>) -> Self {
        let rows = cols.first().map_or(0, Vec::len);
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        RowBatch { cols, rows, sel: None }
    }

    /// A single-row batch holding `row`.
    pub fn from_row(row: &SlotRow) -> Self {
        let mut b = RowBatch::with_capacity(row.slots().len(), 1);
        b.push_row(row);
        b
    }

    /// Projects the batch to `keep_slots`: kept columns are gathered
    /// through the selection vector into a dense batch, all other columns
    /// come out unbound.
    pub fn remap(&self, keep_slots: &[usize]) -> RowBatch {
        let n = self.len();
        let mut cols = vec![vec![TermId::UNBOUND; n]; self.width()];
        for &s in keep_slots {
            let src = &self.cols[s];
            let dst = &mut cols[s];
            for (j, i) in self.selected().enumerate() {
                dst[j] = src[i];
            }
        }
        RowBatch { cols, rows: n, sel: None }
    }

    /// Consuming variant of [`RowBatch::remap`]: compacts the kept columns
    /// through the selection vector in place and blanks the dropped ones,
    /// reusing the batch's own buffers. Produces exactly the batch
    /// `remap` would, without allocating.
    pub fn remap_owned(mut self, keep_slots: &[usize]) -> RowBatch {
        match self.sel.take() {
            None => {
                for (s, col) in self.cols.iter_mut().enumerate() {
                    if !keep_slots.contains(&s) {
                        col.fill(TermId::UNBOUND);
                    }
                }
                self
            }
            Some(sel) => {
                let n = sel.len();
                for (s, col) in self.cols.iter_mut().enumerate() {
                    if keep_slots.contains(&s) {
                        // `sel` is ascending, so `j <= sel[j]` and the
                        // in-place gather never overwrites a pending read.
                        for (j, &i) in sel.iter().enumerate() {
                            col[j] = col[i as usize];
                        }
                        col.truncate(n);
                    } else {
                        col.truncate(n);
                        col.fill(TermId::UNBOUND);
                    }
                }
                self.rows = n;
                self
            }
        }
    }
}

/// Lets hash containers keyed by [`SlotRow`] answer lookups from a bare
/// slot slice without materializing a row (the derived `Hash` hashes the
/// slice, so the contracts line up).
impl std::borrow::Borrow<[TermId]> for SlotRow {
    fn borrow(&self) -> &[TermId] {
        &self.slots
    }
}

/// Encodes a [`Row`] into schema slots, interning each term. Variables the
/// schema does not know are dropped (the schema covers every variable the
/// query can bind, so this only loses bindings no operator can see).
pub fn encode_row(row: &Row, schema: &RowSchema, dict: &mut Dictionary) -> SlotRow {
    let mut out = SlotRow::unbound(schema.len());
    for (v, t) in row.iter() {
        if let Some(slot) = schema.slot(v) {
            out.set(slot, dict.intern(t.clone()));
        }
    }
    out
}

/// Materializes one dictionary-encoded row back into a variable → term
/// mapping; `id_of` reads the id in a schema slot — `|s| row.get(s)` for
/// a [`SlotRow`], `|s| batch.get(i, s)` for physical row `i` of a
/// [`RowBatch`]. One pass in variable order into a vector of exactly the
/// bound width: this is where terms are copied out, once.
///
/// Panics when a bound id is missing from `dict`; encode and decode must
/// use the same query-scoped dictionary.
pub fn decode_row(
    schema: &RowSchema,
    dict: &Dictionary,
    id_of: impl Fn(usize) -> Option<TermId>,
) -> Row {
    let bound = (0..schema.len()).filter(|&s| id_of(s).is_some()).count();
    let mut slots = Vec::with_capacity(bound);
    for &slot in &schema.by_var {
        if let Some(id) = id_of(slot) {
            let term = dict.term(id).expect("slot id interned in this query's dictionary");
            slots.push((schema.vars[slot].clone(), term.clone()));
        }
    }
    Row { slots }
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
        assert_eq!(decode_row(&s, &dict, |i| enc.get(i)), row);
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
        assert_eq!(decode_row(&s, &dict, |i| merged.get(i)), a.merge(&b).unwrap());
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

    #[test]
    fn batch_roundtrips_rows() {
        let s = RowSchema::new(["x", "y"].map(Var::new));
        let mut dict = Dictionary::new();
        let rows: Vec<SlotRow> = [("a", "b"), ("c", "d"), ("e", "f")]
            .iter()
            .map(|(x, y)| {
                encode_row(&Row::new().with("x", t(x)).with("y", t(y)), &s, &mut dict)
            })
            .collect();
        let mut batch = RowBatch::with_capacity(s.len(), rows.len());
        for r in &rows {
            batch.push_row(r);
        }
        assert_eq!(batch.width(), 2);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.len(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&batch.to_slot_row(i), r);
            assert_eq!(batch.get(i, 0), r.get(0));
        }
        let mut scratch = SlotRow::unbound(2);
        batch.read_row(1, &mut scratch);
        assert_eq!(scratch, rows[1]);
    }

    #[test]
    fn batch_selection_vector_narrows() {
        let s = RowSchema::new(["x"].map(Var::new));
        let mut dict = Dictionary::new();
        let mut batch = RowBatch::with_capacity(1, 4);
        for v in ["a", "b", "c", "d"] {
            batch.push_row(&encode_row(&Row::new().with("x", t(v)), &s, &mut dict));
        }
        assert_eq!(batch.selected().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        batch.set_sel(vec![1, 3]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.rows(), 4, "selection hides, never moves");
        assert_eq!(batch.selected().collect::<Vec<_>>(), vec![1, 3]);
        assert!(!batch.is_empty());
        batch.set_sel(Vec::new());
        assert!(batch.is_empty());
    }

    #[test]
    fn batch_from_single_row_and_unbound_slots() {
        let s = RowSchema::new(["x", "y"].map(Var::new));
        let mut dict = Dictionary::new();
        let r = encode_row(&Row::new().with("y", t("only")), &s, &mut dict);
        let batch = RowBatch::from_row(&r);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.get(0, 0), None, "unbound slot stays unbound");
        assert_eq!(batch.get(0, 1), r.get(1));
        assert_eq!(batch.to_slot_row(0), r);
    }

    #[test]
    fn slot_row_borrows_as_slice_for_lookups() {
        use std::borrow::Borrow;
        let s = RowSchema::new(["x"].map(Var::new));
        let mut dict = Dictionary::new();
        let a = encode_row(&Row::new().with("x", t("a")), &s, &mut dict);
        let ids: &[TermId] = a.borrow();
        let set: std::collections::HashSet<SlotRow> = [a.clone()].into_iter().collect();
        assert!(set.contains(ids));
    }
}
