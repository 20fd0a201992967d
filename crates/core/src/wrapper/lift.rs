//! Lifting relational results into slot rows, and the cache of lifted
//! source results.

use crate::operators::Conjunct;
use crate::translate::{Lift, OutputBinding};
use fedlake_mapping::lift::value_key_in;
use fedlake_mapping::xsd_for;
use fedlake_netsim::cost::fedlake_relational_cost;
use fedlake_rdf::{BuildFastHasher, Dictionary, TermId};
use fedlake_relational::cache::{CacheStats, VersionedCache};
use fedlake_relational::{BorrowedResult, ResultSet, Value};
use fedlake_sparql::binding::{RowArena, RowId, RowSchema, Var};
use fedlake_sparql::expr::Expr;
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
/// one-shot leaves and bind-join batches — lifts column-major into the
/// [`LiftCache`]. Its last callers are fedbench's `lift.*` probes, which
/// time it by name.
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

/// Which cells of a SQL leaf's answer the plan reads: decided once per plan
/// by the planner (`planner::lift_plans`) and cached with it, one per plan
/// node. A column no operator above the leaf reads is not lifted: its
/// cells stay [`TermId::UNBOUND`]. The guards are the one-slot conjuncts of
/// an engine FILTER directly over the leaf, on slots the leaf binds. Their
/// columns are lifted for every row, and a row one of them rejects keeps
/// only those cells: the FILTER drops it whatever the others hold, and
/// still counts and charges every conjunct on it. The default plan lifts
/// everything.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiftPlan {
    unread: Vec<Var>,
    guards: Vec<Expr>,
    /// Both of the above as text: what the plan adds to its leaf's
    /// [`LiftKey`] signature, since two plans of one request that lift
    /// different cells must not share an entry. Empty for the default.
    key: String,
}

impl LiftPlan {
    /// The plan that leaves `unread` unlifted and lifts the other cells of
    /// a row only when the row passes every guard. The planner builds it,
    /// once per plan; nothing at execution time does.
    pub(crate) fn new(unread: Vec<Var>, guards: Vec<Expr>) -> Self {
        if unread.is_empty() && guards.is_empty() {
            return LiftPlan::default();
        }
        let names: Vec<&str> = unread.iter().map(Var::name).collect();
        let key = format!(":lift{names:?}{guards:?}");
        LiftPlan { unread, guards, key }
    }

    /// The variables whose cells stay unbound.
    pub fn unread(&self) -> &[Var] {
        &self.unread
    }

    /// The conjuncts a row must pass to be lifted in full.
    pub fn guards(&self) -> &[Expr] {
        &self.guards
    }

    /// What the plan adds to its leaf's cache signature.
    pub(super) fn key(&self) -> &str {
        &self.key
    }
}

/// Columnar lift of a SQL result, read where it lies in the source's
/// tables: one `TermId` buffer per slot, written column-at-a-time, and no
/// `Value` copied on the way, under the leaf's [`LiftPlan`] (`None` lifts
/// every cell). A cell that is lifted gets exactly the id [`lift_result`]
/// would assign to it. Only the interning *order* (and therefore the raw
/// id numbering) differs, which nothing downstream observes: ids never
/// leave the execution, and every consumer compares or decodes them.
pub(super) fn lift_result_cols(
    rs: &BorrowedResult<'_>,
    outputs: &[OutputBinding],
    plan: Option<&LiftPlan>,
    schema: &RowSchema,
    dict: &mut Dictionary,
) -> LiftedSource {
    let all = LiftPlan::default();
    let plan = plan.unwrap_or(&all);
    let n = rs.rows.len();
    let mut cols = vec![vec![TermId::UNBOUND; n]; schema.len()];
    let mut scratch = LiftScratch::default();
    let mut guards: Vec<Conjunct> = plan.guards.iter().map(|e| Conjunct::new(e, schema)).collect();
    // The slot each column lifts into, and whether a guard reads it.
    let targets: Vec<Option<(usize, bool)>> = outputs
        .iter()
        .map(|ob| {
            let slot = schema.slot(&ob.var).filter(|_| !plan.unread.contains(&ob.var))?;
            Some((slot, guards.iter().any(|g| g.slot() == Some(slot))))
        })
        .collect();
    // The guards' columns for every row, then the rows every guard keeps.
    let mut kept: Option<Vec<bool>> = None;
    if !guards.is_empty() {
        for (i, ob) in outputs.iter().enumerate() {
            if let Some((slot, true)) = targets[i] {
                lift_column(rs, i, ob, None, &mut cols[slot], &mut scratch, dict);
            }
        }
        let d: &Dictionary = dict;
        let keeps = |r: usize, guards: &mut [Conjunct]| {
            guards.iter_mut().all(|g| g.slot().is_none_or(|s| g.keeps_id(cols[s][r], d)))
        };
        kept = Some((0..n).map(|r| keeps(r, &mut guards)).collect());
    }
    for (i, ob) in outputs.iter().enumerate() {
        if let Some((slot, false)) = targets[i] {
            lift_column(rs, i, ob, kept.as_deref(), &mut cols[slot], &mut scratch, dict);
        }
    }
    LiftedSource { cols, rows: n, sql_cost: Some(convert_cost(&rs.cost)) }
}

/// Lifts column `i` of `rs` into `cells`: every non-NULL value, or only
/// those of the rows `kept` keeps.
fn lift_column(
    rs: &BorrowedResult<'_>,
    i: usize,
    ob: &OutputBinding,
    kept: Option<&[bool]>,
    cells: &mut [TermId],
    scratch: &mut LiftScratch,
    dict: &mut Dictionary,
) {
    for (r, (cell, v)) in cells.iter_mut().zip(rs.rows.column(i)).enumerate() {
        if !v.is_null() && kept.is_none_or(|kept| kept[r]) {
            *cell = lift_value(v, ob, scratch, dict);
        }
    }
}

/// One source's answer to one request — a one-shot leaf or one bind-join
/// batch — materialized and lifted: column-major `TermId` buffers, one per
/// schema slot, plus the source-side cost counters the simulation charges
/// per execution (`None` for a SPARQL source, whose charge follows from the
/// star's shape and the row count). The ids stay valid for as long as the
/// interner they were interned into — the engine's is append-only and
/// shared with every execution. The default is the empty answer a failed
/// request delivers.
#[derive(Debug, Default)]
pub struct LiftedSource {
    pub(super) cols: Vec<Vec<TermId>>,
    pub(super) rows: usize,
    pub(super) sql_cost: Option<fedlake_relational_cost::CostStats>,
}

impl LiftedSource {
    /// Appends to `rows` the row `left` merged with row `r`, as
    /// [`RowArena::merge`] merges two of its own: `None`, and `rows` as it
    /// was, when a slot is bound to different ids on both sides.
    pub(super) fn merge_row(&self, rows: &mut RowArena, left: RowId, r: usize) -> Option<RowId> {
        rows.merge_cells(left, |slot| self.cols[slot][r])
    }
}

/// *The* source-result cache: every source request but the N+1 wrapper's —
/// one-shot leaves and bind-join batches alike, on both schedules and in
/// `serve` — reads its lifted result from here, through [`lifted`]. Keyed
/// by [`LiftKey`] and held to the contract of
/// [`fedlake_relational::cache`]: an entry is stamped with the
/// [`DataLake::source_version`] it was computed from, `source_mut(id)`
/// bumps that version, and a lookup under another version is a counted
/// stale miss that drops the entry. A hit skips the request's rendering,
/// the source's evaluation and the lift but re-charges the stored cost
/// counters, so the *simulated* execution is the one a miss would have
/// produced — only host time changes. Must be paired with the interner its
/// ids were interned into.
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
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }
}

/// The engine's handle on its [`LiftCache`].
pub type SharedLiftCache = Arc<LiftCache>;

/// Fingerprint of a schema's slot layout: FNV-1a over the slot-ordered
/// variable names. Cached column buffers are indexed by slot, so two
/// schemas with the same fingerprint lay rows out identically and may
/// share cache entries. An address-based key would be unsound here: a
/// dropped schema's allocation can be reused by a *different* layout with
/// the same stream signature, which would serve wrongly-slotted columns.
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
