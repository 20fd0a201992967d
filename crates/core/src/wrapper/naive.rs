//! The naive N+1 merged-SQL wrapper — claim C1's unoptimised translation.

use super::leaf::Delivery;
use super::lift::{convert_cost, lift_result};
use super::route::{schedule_transfer_with_retry, Landing, RouteExhausted, SourceRoute};
use crate::error::FedError;
use crate::fedplan::NaiveJoin;
use crate::obs::SourceSpan;
use crate::operators::{ExecCtx, FedOp, Poll};
use crate::translate::{sql_single, StarPart, TranslatedQuery};
use fedlake_mapping::lift::term_to_value;
use fedlake_relational::{Database, Value};
use fedlake_sparql::binding::SlotRow;
use std::collections::VecDeque;
use std::time::Duration;

/// The N+1 dependent join emulating Ontario's unoptimized merged-SQL
/// translation: the outer star is evaluated once, then the wrapper issues
/// one parameterized inner query per outer binding. Outer bindings are
/// consumed one at a time, each spawning an outer-binding message plus
/// (when the key extracts) an inner round trip.
pub(super) struct NaiveStream<'a> {
    pub(super) db: &'a Database,
    pub(super) outer: TranslatedQuery,
    pub(super) inner: StarPart,
    pub(super) join: NaiveJoin,
    pub(super) route: SourceRoute,
    pub(super) rows_per_message: usize,
    /// Outer bindings whose inner query has not been issued yet.
    pub(super) bindings: VecDeque<SlotRow>,
    /// The merged rows of the current outer binding.
    pub(super) buffer: Delivery,
    /// Whether any inner buffer was ever installed: the final empty-result
    /// notification fires exactly when the outer query returned no
    /// bindings at all.
    pub(super) installed_inner: bool,
    pub(super) stage: NaiveStage,
}

pub(super) enum NaiveStage {
    /// Not polled yet: the outer query is still to be sent.
    Unopened,
    /// Waiting on source work; once it has landed `then` applies.
    Waiting { landing: Landing, then: NaiveNext },
    /// The buffer is deliverable or the next outer binding is due.
    Idle,
    /// Everything delivered (and any final notification observed).
    Finished,
}

pub(super) enum NaiveNext {
    /// The outer request + query completed: install the outer bindings.
    Outer(Vec<SlotRow>),
    /// An outer binding's message + inner round trip completed: the
    /// merged rows become the next buffer.
    Inner(Vec<SlotRow>),
    /// The final empty-result notification arrived.
    Notified,
}

impl NaiveStage {
    /// The stage that waits for `chain` and then applies `then`.
    fn wait(
        chain: Result<Duration, Box<RouteExhausted>>,
        then: NaiveNext,
        ctx: &mut ExecCtx,
    ) -> Self {
        NaiveStage::Waiting { landing: Landing::of(chain, ctx), then }
    }
}

impl NaiveStream<'_> {
    /// One query of the N+1: its request round trip starting at `start`
    /// plus the source's evaluation, on the link timeline; `then` says what
    /// the lifted rows become once both are over.
    fn round_trip(
        &self,
        q: &TranslatedQuery,
        what: &'static str,
        start: Duration,
        then: impl FnOnce(Vec<SlotRow>) -> NaiveNext,
        ctx: &mut ExecCtx,
    ) -> Result<NaiveStage, FedError> {
        ctx.stats.sql_queries += 1;
        let requested = match schedule_transfer_with_retry(&self.route, 0, start, ctx) {
            Ok(t) => t,
            failed => return Ok(NaiveStage::wait(failed, then(Vec::new()), ctx)),
        };
        let rs = self.db.query_cached(&q.sql)?;
        let computed = self
            .route
            .active_link()
            .schedule_busy(ctx.cost.rdb_time(&convert_cost(&rs.cost)), requested);
        let rows = lift_result(&rs, &q.outputs, &ctx.schema, &mut ctx.interner.lock());
        ctx.stats.service_rows += rows.len() as u64;
        let (endpoint, n) = (self.route.active_endpoint(), rows.len() as u64);
        ctx.obs.source_span(SourceSpan::Compute(what), endpoint, requested, computed, n);
        Ok(NaiveStage::wait(Ok(computed), then(rows), ctx))
    }

    /// One outer binding's inner round trip, starting at `start`: an
    /// unextractable key costs no traffic, otherwise it is the
    /// parameterized query's [`NaiveStream::round_trip`].
    fn inner_round_trip(
        &self,
        outer_row: &SlotRow,
        start: Duration,
        ctx: &mut ExecCtx,
    ) -> Result<NaiveStage, FedError> {
        let term = ctx
            .schema
            .slot(&self.join.outer_var)
            .and_then(|s| outer_row.get(s))
            .and_then(|id| ctx.interner.resolve(id));
        let key = match (&self.join.extract, term) {
            (_, None) => None,
            (Some(tmpl), Some(term)) => {
                term.as_iri().and_then(|iri| tmpl.extract(iri)).map(Value::Text)
            }
            (None, Some(term)) => Some(term_to_value(&term)),
        };
        let Some(key) = key else {
            return Ok(NaiveStage::wait(Ok(start), NaiveNext::Inner(Vec::new()), ctx));
        };
        let mut part = self.inner.clone();
        part.wheres.push(format!("{}.{} = {key}", part.alias, self.join.inner_col));
        let merge = |rows: Vec<SlotRow>| {
            NaiveNext::Inner(rows.into_iter().filter_map(|r| outer_row.merge(&r)).collect())
        };
        self.round_trip(&sql_single(&part), "sql evaluation (inner)", start, merge, ctx)
    }
}

impl FedOp for NaiveStream<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        loop {
            match &mut self.stage {
                NaiveStage::Unopened => {
                    self.stage = self.round_trip(
                        &self.outer,
                        "sql evaluation (outer)",
                        ctx.clock.now(),
                        NaiveNext::Outer,
                        ctx,
                    )?;
                }
                NaiveStage::Waiting { landing, then } => {
                    let landed = landing.poll(ctx);
                    if let Ok(Some(ev)) = landed {
                        return Ok(Poll::Pending(ev));
                    }
                    let then = std::mem::replace(then, NaiveNext::Notified);
                    self.stage = NaiveStage::Finished;
                    landed?;
                    self.stage = NaiveStage::Idle;
                    match then {
                        NaiveNext::Outer(rows) => self.bindings = rows.into(),
                        NaiveNext::Inner(rows) => self.buffer = Delivery::pre_notified(rows),
                        NaiveNext::Notified => self.stage = NaiveStage::Finished,
                    }
                }
                NaiveStage::Finished => return Ok(Poll::Done),
                NaiveStage::Idle => {
                    match self.buffer.poll(&self.route, self.rows_per_message, ctx)? {
                        Poll::Ready(row) => return Ok(Poll::Ready(row)),
                        Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                        Poll::Done => {}
                    }
                    let next = self.bindings.pop_front();
                    let first_empty = next.is_none() && !self.installed_inner;
                    self.installed_inner = true;
                    self.stage = match next {
                        // Retrieving the next outer binding is itself a
                        // message; the inner round trip chains after.
                        Some(outer_row) => {
                            match schedule_transfer_with_retry(
                                &self.route,
                                1,
                                ctx.clock.now(),
                                ctx,
                            ) {
                                Ok(t) => self.inner_round_trip(&outer_row, t, ctx)?,
                                failed => {
                                    NaiveStage::wait(failed, NaiveNext::Inner(Vec::new()), ctx)
                                }
                            }
                        }
                        // Empty outer result: the one empty-result
                        // notification, then done.
                        None if first_empty => {
                            let notified =
                                schedule_transfer_with_retry(&self.route, 0, ctx.clock.now(), ctx);
                            NaiveStage::wait(notified, NaiveNext::Notified, ctx)
                        }
                        None => NaiveStage::Finished,
                    };
                }
            }
        }
    }
}
