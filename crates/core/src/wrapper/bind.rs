//! The engine-level bind join and the SQL its batches ship.

use super::leaf::{lifted, LeafRequest};
use super::lift::LiftedSource;
use super::route::{
    message_size, schedule_rows_with_retry, schedule_transfer_with_retry, Landing, SourceRoute,
};
use crate::error::FedError;
use crate::fedplan::BindTarget;
use crate::lake::DataLake;
use crate::obs::SourceSpan;
use crate::operators::{BoxedOp, ExecCtx, FedOp, KeyedVerdicts, Poll, SharedVerdictMemo};
use crate::source::DataSource;
use crate::translate::{sql_single, TranslatedQuery};
use fedlake_rdf::{Term, TermId};
use fedlake_relational::Database;
use fedlake_sparql::binding::RowId;
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// The SQL a bind join ships for one batch: `target`'s star restricted to
/// the stored values whose lifts are the join terms, distinct and in
/// first-seen order, as one `IN` list. A term no stored value lifts to (an
/// IRI the target's template did not mint or would write differently, a
/// literal of another form) is skipped: [`BindJoinOp`] asks only about
/// terms that have one, so its list is never empty. Rendered on a
/// lift-cache miss only: a batch is cached under its join terms' ids, not
/// under this text.
pub fn bind_batch_query<'t>(
    target: &BindTarget,
    terms: impl IntoIterator<Item = &'t Term>,
) -> TranslatedQuery {
    let mut seen: HashSet<String> = HashSet::new();
    let mut list = String::new();
    for key in terms.into_iter().filter_map(|t| target.column.sql_value(t)) {
        if !seen.contains(&key) {
            let sep = if seen.is_empty() { "" } else { ", " };
            let _ = write!(list, "{sep}{key}");
            seen.insert(key);
        }
    }
    let mut part = target.part.clone();
    part.wheres.push(format!("{}.{} IN ({list})", part.alias, target.column.name));
    sql_single(&part)
}

/// The engine-level dependent (bind) join: batches of left bindings are
/// shipped to a relational source as SQL `IN` lists — ANAPSID's adjoin
/// lineage, and the classical alternative to fetching the right star in
/// full when the left side is selective. Each batch is a leaf request of
/// its own (`LeafRequest::Batch`): its answer comes through `lifted`,
/// so a batch the engine already answered at the target's current data
/// version renders no SQL and runs no query. Which join terms the target's
/// column can store is decided once per id, per engine: a function of the
/// column's lift and the id, kept in the engine's verdict memo under the
/// target's key (DESIGN §20).
pub struct BindJoinOp<'a> {
    left: BoxedOp<'a>,
    db: &'a Database,
    target: &'a BindTarget,
    /// The target's statement signature: the part of the cache key every
    /// batch of this operator shares.
    signature: Arc<str>,
    /// The target's data version when the operator was built: what a
    /// cached batch must have been computed from to be served.
    version: u64,
    route: SourceRoute,
    rows_per_message: usize,
    batch_size: usize,
    /// The engine's verdict memo, once the first batch took what it held
    /// under the target's key into `verdicts`; `None` before, and for a
    /// target without a key.
    memo: Option<SharedVerdictMemo>,
    /// Whether the target's column stores each join id met so far.
    verdicts: KeyedVerdicts,
    left_done: bool,
    out: VecDeque<RowId>,
    stage: BindStage,
}

/// The state of the bind join: a batch gathers from the left, then its
/// request, source evaluation and result transfer fly as one scheduled
/// chain; probing happens when the wait for the chain is over.
enum BindStage {
    Gather { batch: Vec<RowId> },
    /// `lifted` is the batch's answer, once its request got through.
    Flying { landing: Landing, batch: Vec<RowId>, lifted: Option<Arc<LiftedSource>> },
}

impl<'a> BindJoinOp<'a> {
    /// Creates the operator over `target`'s source in `lake`, lifting what
    /// the target's [`LiftPlan`] says; the engine resolves the route from
    /// the target's routing decision.
    ///
    /// [`LiftPlan`]: crate::planner::LiftPlan
    pub fn new(
        left: BoxedOp<'a>,
        target: &'a BindTarget,
        lake: &'a DataLake,
        route: SourceRoute,
        rows_per_message: usize,
        batch_size: usize,
    ) -> Result<Self, FedError> {
        let rows_per_message = message_size(rows_per_message)?;
        let id = &target.source_id;
        let (db, version) = match lake.source(id).zip(lake.source_version(id)) {
            Some((DataSource::Relational { db, .. }, version)) => (db, version),
            _ => {
                return Err(FedError::Internal(format!(
                    "bind join target {id} is not relational"
                )))
            }
        };
        let signature =
            LeafRequest::Batch { db, target, ids: &[] }.signature(route.logical()).into();
        Ok(BindJoinOp {
            left,
            db,
            target,
            signature,
            version,
            route,
            rows_per_message,
            batch_size: batch_size.max(1),
            memo: None,
            verdicts: KeyedVerdicts::default(),
            left_done: false,
            out: VecDeque::new(),
            stage: BindStage::Gather { batch: Vec::new() },
        })
    }

    /// The join terms the batch asks the target about: the distinct ids its
    /// rows bind the join variable to, in first-seen order, less those no
    /// stored value lifts to ([`StarColumn::stores`]). Empty means no
    /// traffic — the batch can never match. An id's verdict comes from the
    /// memo's set or this operator's earlier batches; only an id neither
    /// holds is read back from the interner, under one lock per batch.
    ///
    /// [`StarColumn::stores`]: crate::translate::StarColumn::stores
    fn batch_ids(&mut self, batch: &[RowId], ctx: &ExecCtx) -> Vec<TermId> {
        let Some(jslot) = ctx.schema.slot(&self.target.join_var) else {
            return Vec::new();
        };
        if let (None, Some(key)) = (&self.memo, &self.target.verdict_key) {
            self.verdicts = ctx.verdicts.verdicts(key);
            self.memo = Some(Arc::clone(&ctx.verdicts));
        }
        let mut dict = None;
        let mut ids = Vec::with_capacity(batch.len());
        for id in batch.iter().filter_map(|&row| ctx.rows.get(row, jslot)) {
            if ids.contains(&id) {
                continue;
            }
            let stored = self.verdicts.get(id).unwrap_or_else(|| {
                let dict = dict.get_or_insert_with(|| ctx.interner.lock());
                let stored = dict.term(id).is_some_and(|t| self.target.column.stores(t));
                self.verdicts.insert(id, stored);
                stored
            });
            if stored {
                ids.push(id);
            }
        }
        ids
    }

    /// The batch's lifted answer, through the one lookup-or-fill path, and
    /// the simulated source-side time of producing it — charged hit or
    /// miss, as a one-shot leaf's is.
    fn fetch(
        &self,
        ids: &[TermId],
        ctx: &ExecCtx,
    ) -> Result<(Arc<LiftedSource>, Duration), FedError> {
        let request = LeafRequest::Batch { db: self.db, target: self.target, ids };
        let right = lifted(&request, &self.signature, self.version, ctx)?;
        let work = request.work(&right, &ctx.cost)?;
        Ok((right, work))
    }

    /// Probes the batch against the fetched right rows, each read in place
    /// and laid over a copy of its left row (`RowArena::merge_row`), charging
    /// the engine-side join work; merged rows land in the output queue.
    /// One interner on both sides makes id equality term equality.
    fn probe_batch(&mut self, batch: &[RowId], right: &LiftedSource, ctx: &mut ExecCtx) {
        let jslot = ctx.schema.slot(&self.target.join_var);
        // The right rows by join id, in row order within an id.
        let mut by_key: Vec<(TermId, usize)> = jslot
            .map(|s| {
                let ids = (0..right.kept()).map(|r| (right.row(r)[s], r));
                ids.filter(|(id, _)| *id != TermId::UNBOUND).collect()
            })
            .unwrap_or_default();
        by_key.sort_unstable();
        for &lrow in batch {
            ctx.stats.engine_join_probes += 1;
            ctx.charge_join_probe();
            let Some(id) = jslot.and_then(|s| ctx.rows.get(lrow, s)) else { continue };
            let first = by_key.partition_point(|(k, _)| *k < id);
            for (_, r) in by_key[first..].iter().take_while(|(k, _)| *k == id) {
                if let Some(merged) = ctx.rows.merge_row(lrow, right.row(*r)) {
                    ctx.charge_row();
                    self.out.push_back(merged);
                }
            }
        }
    }

    /// Schedules a batch's request + evaluation + result transfer as one
    /// chain on the link timeline; the probe happens at completion.
    fn launch_batch(&mut self, batch: Vec<RowId>, ctx: &mut ExecCtx) -> Result<(), FedError> {
        let ids = self.batch_ids(&batch, ctx);
        if ids.is_empty() {
            self.stage = BindStage::Gather { batch: Vec::new() };
            return Ok(());
        }
        ctx.stats.sql_queries += 1;
        let t0 = ctx.clock.now();
        let mut lifted = None;
        let mut chain = schedule_transfer_with_retry(&self.route, 0, t0, ctx);
        if let Ok(requested) = chain {
            let (right, work) = self.fetch(&ids, ctx)?;
            let computed = self.route.active_link().schedule_busy(work, requested);
            ctx.stats.service_rows += right.rows as u64;
            chain = schedule_rows_with_retry(
                &self.route,
                right.rows,
                self.rows_per_message,
                computed,
                ctx,
            );
            if let Ok(done) = &chain {
                let batch_span = SourceSpan::BindBatch { left_rows: batch.len() };
                let endpoint = self.route.active_endpoint();
                ctx.obs.source_span(batch_span, endpoint, t0, *done, right.rows as u64);
            }
            lifted = Some(right);
        }
        self.stage = BindStage::Flying { landing: Landing::of(chain, ctx), batch, lifted };
        Ok(())
    }
}

impl FedOp for BindJoinOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Poll::Ready(row));
            }
            match &mut self.stage {
                BindStage::Flying { landing, batch, lifted } => {
                    let landed = landing.poll(ctx);
                    if let Ok(Some(ev)) = landed {
                        return Ok(Poll::Pending(ev));
                    }
                    let batch = std::mem::take(batch);
                    let lifted = lifted.take();
                    self.stage = BindStage::Gather { batch: Vec::new() };
                    landed?;
                    if let Some(right) = lifted {
                        self.probe_batch(&batch, &right, ctx);
                    }
                }
                BindStage::Gather { batch } => {
                    // Fill the batch from the left without shipping a
                    // partial batch on Pending: batch composition (and so
                    // link traffic) does not depend on the schedule.
                    while !self.left_done && batch.len() < self.batch_size {
                        match self.left.poll_next(ctx)? {
                            Poll::Ready(row) => batch.push(row),
                            Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                            Poll::Done => self.left_done = true,
                        }
                    }
                    if batch.is_empty() {
                        return Ok(Poll::Done);
                    }
                    let batch = std::mem::take(batch);
                    self.launch_batch(batch, ctx)?;
                }
            }
        }
    }
}

impl Drop for BindJoinOp<'_> {
    /// Publishes the verdicts the batches decided, when they decided one.
    fn drop(&mut self) {
        if let (Some(memo), Some(key)) = (&self.memo, &self.target.verdict_key) {
            memo.publish(key, &mut self.verdicts);
        }
    }
}
