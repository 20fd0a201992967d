//! Lifting relational results into slot rows, and the cache of lifted
//! source results.

use crate::operators::Conjunct;
use crate::planner::LiftPlan;
use crate::translate::{Lift, OutputBinding};
use fedlake_mapping::lift::value_key_in;
use fedlake_mapping::xsd_for;
use fedlake_netsim::cost::fedlake_relational_cost;
use fedlake_rdf::{BuildFastHasher, Dictionary, TermId};
use fedlake_relational::cache::{CacheStats, VersionedCache};
use fedlake_relational::{BorrowedResult, ResultSet, Value};
use fedlake_sparql::binding::{RowArena, RowSchema};
use std::sync::Arc;

/// Converts the relational engine's counters to the netsim mirror type.
pub(super) fn convert_cost(
    c: &fedlake_relational::CostStats,
) -> fedlake_relational_cost::CostStats {
    fedlake_relational_cost::CostStats {
        rows_scanned: c.rows_scanned,
        index_probes: c.index_probes,
        index_rows: c.index_rows,
        filter_evals: c.filter_evals,
        hash_build_rows: c.hash_build_rows,
        hash_probe_rows: c.hash_probe_rows,
        sort_rows: c.sort_rows,
        rows_output: c.rows_output,
    }
}

/// The two buffers a lift reuses for every cell: the key text of a
/// non-text value, and the IRI being minted.
#[derive(Default)]
struct LiftScratch {
    key: String,
    iri: String,
}

/// Lifts one non-NULL relational value through its output binding and
/// interns the resulting term by its parts: the id is the one
/// `intern(Term::iri(template.apply(&value_key(v))))` resp.
/// `intern(value_to_term(v, dt))` assigns, but no `Term` or `String` is
/// built unless the term is new to the dictionary.
fn lift_value(
    v: &Value,
    ob: &OutputBinding,
    scratch: &mut LiftScratch,
    dict: &mut Dictionary,
) -> TermId {
    let LiftScratch { key, iri } = scratch;
    let key = value_key_in(v, key);
    match &ob.lift {
        Lift::SubjectIri(t) | Lift::RefIri(t) => {
            iri.clear();
            t.apply_into(key, iri);
            dict.intern_iri(iri)
        }
        Lift::Literal(dt) => dict.intern_literal(key, None, xsd_for(*dt)),
    }
}

/// Lifts an owned SQL result set into a row arena of `schema`'s width,
/// interning each lifted term; the slot of each output column is resolved
/// once, not per row. No engine path calls it: every source request —
/// one-shot leaves and bind-join batches — lifts a column at a time into
/// the [`LiftCache`]'s rows ([`LiftedSource`]). Its last callers are
/// fedbench's `lift.*` probes, which time it by name.
pub fn lift_result(
    rs: &ResultSet,
    outputs: &[OutputBinding],
    schema: &RowSchema,
    dict: &mut Dictionary,
) -> RowArena {
    let slots: Vec<Option<usize>> = outputs.iter().map(|ob| schema.slot(&ob.var)).collect();
    let mut scratch = LiftScratch::default();
    let mut out = RowArena::new(schema.len());
    for row in &rs.rows {
        let id = out.push_unbound();
        for ((v, ob), slot) in row.iter().zip(outputs).zip(&slots) {
            if let (Some(slot), false) = (*slot, v.is_null()) {
                out.set(id, slot, lift_value(v, ob, &mut scratch, dict));
            }
        }
    }
    out
}

/// Column-at-a-time lift of a SQL result, read where it lies in the
/// source's tables, strided into rows of the schema's width, and no `Value`
/// copied on the way, under the leaf's [`LiftPlan`]. A cell that is lifted
/// gets exactly the id [`lift_result`] would assign to it. Only the
/// interning *order* (and therefore the raw id numbering) differs, which
/// nothing downstream observes: ids never leave the execution, and every
/// consumer compares or decodes them.
///
/// Under guards, their columns are lifted for every row first and decide
/// each row's verdict; the rows they reject are then left out of the
/// answer's cells, and only the verdict bits remember them.
pub(super) fn lift_result_cols(
    rs: &BorrowedResult<'_>,
    outputs: &[OutputBinding],
    plan: &LiftPlan,
    schema: &RowSchema,
    dict: &mut Dictionary,
) -> LiftedSource {
    let (n, width) = (rs.rows.len(), schema.len());
    let mut ids = vec![TermId::UNBOUND; n * width];
    let mut scratch = LiftScratch::default();
    let mut guards: Vec<Conjunct> = plan.guards().iter().map(|e| Conjunct::new(e, schema)).collect();
    // The slot each column lifts into, and whether a guard reads it.
    let targets: Vec<Option<(usize, bool)>> = outputs
        .iter()
        .map(|ob| {
            let slot = schema.slot(&ob.var).filter(|_| !plan.unread().contains(&ob.var))?;
            Some((slot, guards.iter().any(|g| g.slot() == Some(slot))))
        })
        .collect();
    // The guards' columns for every row, the rows they reject, and the
    // guard cells of the rows they keep moved down over the others'.
    let mut dropped = Vec::new();
    if !guards.is_empty() {
        for (i, ob) in outputs.iter().enumerate() {
            if let Some((slot, true)) = targets[i] {
                let cells = ids.iter_mut().skip(slot).step_by(width);
                lift_column(rs, i, ob, &[], cells, &mut scratch, dict);
            }
        }
        let d: &Dictionary = dict;
        dropped = vec![0u64; n.div_ceil(64)];
        let mut kept = 0;
        for r in 0..n {
            let row = r * width..(r + 1) * width;
            let cell = |s: usize| ids[row.start + s];
            if guards.iter_mut().all(|g| g.slot().is_none_or(|s| g.keeps_id(cell(s), d))) {
                ids.copy_within(row, kept * width);
                kept += 1;
            } else {
                dropped[r / 64] |= 1 << (r % 64);
            }
        }
        ids.truncate(kept * width);
        ids.shrink_to_fit();
    }
    for (i, ob) in outputs.iter().enumerate() {
        if let Some((slot, false)) = targets[i] {
            let cells = ids.iter_mut().skip(slot).step_by(width);
            lift_column(rs, i, ob, &dropped, cells, &mut scratch, dict);
        }
    }
    LiftedSource { ids, width, rows: n, dropped, sql_cost: Some(convert_cost(&rs.cost)) }
}

/// True when bit `r` of `bits` is set; a row past the bits' end is not.
fn bit(bits: &[u64], r: usize) -> bool {
    bits.get(r / 64).is_some_and(|w| w >> (r % 64) & 1 == 1)
}

/// Lifts column `i` of `rs` into `cells`, a slot's cells strided through
/// the rows `dropped` keeps: every non-NULL value of those rows.
fn lift_column<'c>(
    rs: &BorrowedResult<'_>,
    i: usize,
    ob: &OutputBinding,
    dropped: &[u64],
    cells: impl Iterator<Item = &'c mut TermId>,
    scratch: &mut LiftScratch,
    dict: &mut Dictionary,
) {
    let values = rs.rows.column(i).enumerate().filter(|&(r, _)| !bit(dropped, r));
    for (cell, (_, v)) in cells.zip(values) {
        if !v.is_null() {
            *cell = lift_value(v, ob, scratch, dict);
        }
    }
}

/// One source's answer to one request — a one-shot leaf or one bind-join
/// batch — materialized and lifted: `rows` rows shipped, and in one
/// buffer the rows of `width` ids that its guards keep (every row of an
/// unguarded answer), the [`RowArena`]'s row layout (a warm leaf copies a
/// row in with [`RowArena::push_row`], a probe lays one over its left row
/// with [`RowArena::merge_row`]). `dropped` holds one bit per shipped row
/// the guards rejected, and is empty for an unguarded answer: a rejected
/// row's cells are kept nowhere. Then come the source-side cost counters
/// the simulation charges per execution (`None` for a SPARQL source, whose
/// charge follows from the star's shape and the row count). The ids stay
/// valid for as long as the interner they were interned into — the
/// engine's is append-only and shared with every execution. The default is
/// the empty answer a failed request delivers.
#[derive(Debug, Default)]
pub struct LiftedSource {
    pub(super) ids: Vec<TermId>,
    pub(super) width: usize,
    pub(super) rows: usize,
    pub(super) dropped: Vec<u64>,
    pub(super) sql_cost: Option<fedlake_relational_cost::CostStats>,
}

impl LiftedSource {
    /// Kept row `k`: one id per slot.
    pub(super) fn row(&self, k: usize) -> &[TermId] {
        &self.ids[k * self.width..(k + 1) * self.width]
    }

    /// The rows the guards keep: the number of [`LiftedSource::row`]s.
    pub(super) fn kept(&self) -> usize {
        let dropped: usize = self.dropped.iter().map(|w| w.count_ones() as usize).sum();
        self.rows - dropped
    }

    /// True when shipped row `r` is one the guards rejected.
    pub(super) fn is_dropped(&self, r: usize) -> bool {
        bit(&self.dropped, r)
    }
}

/// *The* source-result cache: every source request but the N+1 wrapper's —
/// one-shot leaves and bind-join batches alike, on both schedules and in
/// `serve` — reads its lifted result from here, through `lifted`. Keyed
/// by `LiftKey` and held to the contract of
/// [`fedlake_relational::cache`]: an entry is stamped with the
/// [`DataLake::source_version`] it was computed from, `source_mut(id)`
/// bumps that version, and a lookup under another version is a counted
/// stale miss that drops the entry. A hit skips the request's rendering,
/// the source's evaluation and the lift but re-charges the stored cost
/// counters, so the *simulated* execution is the one a miss would have
/// produced — only host time changes. Must be paired with the interner its
/// ids were interned into.
///
/// [`DataLake::source_version`]: crate::DataLake::source_version
#[derive(Debug, Default)]
pub struct LiftCache(std::sync::Mutex<LiftEntries>);

/// What a lifted result is cached under: the schema's slot-layout
/// fingerprint, the request's signature (source id, request text, output
/// bindings and the leaf's [`LiftPlan`] — see [`LeafRequest::signature`])
/// and, for a bind-join batch,
/// the join terms it asks about (empty for a one-shot leaf). The terms are
/// ids of the engine's append-only interner, so equal ids render equal SQL
/// and — at an equal source version — fetch an equal result.
#[derive(Debug)]
pub(super) struct LiftKey {
    pub(super) layout: u64,
    pub(super) signature: Arc<str>,
    pub(super) ids: Box<[TermId]>,
}

/// A [`LiftKey`] by its parts, owned or borrowed: what the cache hashes
/// and compares, so a lookup presents `(layout, &signature, &ids)` and a
/// hit neither boxes the ids nor touches the signature's count.
pub(super) trait LiftKeyParts {
    fn parts(&self) -> (u64, &str, &[TermId]);
}

impl LiftKeyParts for LiftKey {
    fn parts(&self) -> (u64, &str, &[TermId]) {
        (self.layout, &self.signature, &self.ids)
    }
}

impl LiftKeyParts for (u64, &str, &[TermId]) {
    fn parts(&self) -> (u64, &str, &[TermId]) {
        *self
    }
}

impl<'a> std::borrow::Borrow<dyn LiftKeyParts + 'a> for LiftKey {
    fn borrow(&self) -> &(dyn LiftKeyParts + 'a) {
        self
    }
}

impl std::hash::Hash for dyn LiftKeyParts + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn LiftKeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn LiftKeyParts + '_ {}

// Through the parts, as `Borrow` requires: an owned key hashes and compares
// like the borrowed one that looks it up.
impl std::hash::Hash for LiftKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for LiftKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for LiftKey {}

type LiftEntries = VersionedCache<LiftKey, Arc<LiftedSource>, BuildFastHasher>;

impl LiftCache {
    pub(super) fn lock(&self) -> std::sync::MutexGuard<'_, LiftEntries> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        self.lock().stats()
    }
}

/// The engine's handle on its [`LiftCache`].
pub type SharedLiftCache = Arc<LiftCache>;

/// Fingerprint of a schema's slot layout: FNV-1a over the slot-ordered
/// variable names. Cached rows are laid out by slot, so two schemas with
/// the same fingerprint lay rows out identically and may share cache
/// entries. An address-based key would be unsound here: a dropped
/// schema's allocation can be reused by a *different* layout with the
/// same stream signature, which would serve wrongly-slotted rows.
pub(crate) fn schema_fingerprint(schema: &RowSchema) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in schema.vars() {
        for b in v.name().as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100_0000_01b3);
        }
        // Separator so ["ab","c"] and ["a","bc"] cannot collide.
        h = (h ^ 0x1f).wrapping_mul(0x100_0000_01b3);
    }
    h
}
