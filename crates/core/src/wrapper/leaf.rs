//! One-shot leaves: what a leaf asks of its source, the message-batched
//! delivery of the answer, and the stream over both.

use super::lift::{lift_result_cols, LiftKey, LiftKeyParts, LiftedSource};
use super::bind::bind_batch_query;
use super::route::{message_size, schedule_transfer_with_retry, Landing, SourceRoute};
use crate::error::FedError;
use crate::fedplan::{BindTarget, ServiceKind, ServiceNode};
use crate::lake::DataLake;
use crate::obs::SourceSpan;
use crate::operators::{BoxedOp, ExecCtx, FedOp, Poll};
use crate::planner::LiftPlan;
use crate::source::DataSource;
use crate::translate::{sql_single, Lift, OutputBinding, TranslatedQuery};
use fedlake_rdf::TermId;
use fedlake_relational::Database;
use fedlake_sparql::binding::{encode_row, Row, RowArena, RowId};
use fedlake_sparql::eval::eval_bgp;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Opens the operator streaming a service's answers, lifting what the
/// node's [`LiftPlan`] says.
pub fn open_service<'a>(
    node: &'a ServiceNode,
    lake: &'a DataLake,
    route: SourceRoute,
    rows_per_message: usize,
) -> Result<BoxedOp<'a>, FedError> {
    let rows_per_message = message_size(rows_per_message)?;
    let (source, version) = lake
        .source(&node.source_id)
        .zip(lake.source_version(&node.source_id))
        .ok_or_else(|| FedError::NoSuchSource(node.source_id.clone()))?;
    let request = match (&node.kind, source) {
        (ServiceKind::Sparql { star, filters }, DataSource::Sparql { graph, .. }) => {
            LeafRequest::Sparql { graph, star, filters }
        }
        (ServiceKind::Sql { request, .. }, DataSource::Relational { db, .. }) => {
            LeafRequest::Sql { db, query: request.query(), lift: &node.lift }
        }
        (kind, src) => {
            return Err(FedError::Internal(format!(
                "service kind {kind:?} does not match source {}",
                src.id()
            )))
        }
    };
    Ok(Box::new(LeafStream {
        signature: request.signature(route.logical()).into(),
        request,
        version,
        route,
        rows_per_message,
        computing: None,
        delivery: None,
    }))
}

/// One message on its way, and how many rows it carries (none for an
/// empty-result notification).
struct Flight {
    landing: Landing,
    rows: usize,
}

/// Message-batched delivery of a leaf's lifted answer. Rows are taken out
/// in order from the shared rows of `data`, at this stream's `cursor`; a
/// kept row is copied into the arena with one slice copy, and a row the
/// guards rejected is handed up as [`RowId::DROPPED`] and copied nowhere.
/// `ready` counts those whose message has landed. At most one message is
/// on the link at a time, and a poll reports `Poll::Pending` while it is
/// in the air, letting the engine drain *other* sources in the meantime —
/// unless the serialized policy sat the wait out when the message was
/// sent. Message boundaries, the empty-result notification and the retry
/// accounting do not depend on the policy.
struct Delivery {
    data: Arc<LiftedSource>,
    /// Shipped rows taken.
    cursor: usize,
    /// Kept rows taken: the next kept row's index in `data`.
    kept: usize,
    ready: usize,
    inflight: Option<Flight>,
    empty_notified: bool,
}

impl Delivery {
    fn of(data: Arc<LiftedSource>) -> Self {
        Delivery { data, cursor: 0, kept: 0, ready: 0, inflight: None, empty_notified: false }
    }

    fn remaining(&self) -> usize {
        self.data.rows - self.cursor
    }

    /// The next row, written to `rows` unless the guards rejected it;
    /// `None` when none remain.
    fn take_row(&mut self, rows: &mut RowArena) -> Option<RowId> {
        if self.cursor >= self.data.rows {
            return None;
        }
        let dropped = self.data.is_dropped(self.cursor);
        self.cursor += 1;
        if dropped {
            return Some(RowId::DROPPED);
        }
        let row = self.data.row(self.kept);
        self.kept += 1;
        Some(rows.push_row(row))
    }

    /// Lands the message in flight once it is due and sends the next one
    /// only when a poll observes no landed rows left, so send times, link
    /// occupancy and event ordering follow the rows consumed. `Done` when
    /// drained — after the empty-result notification message when there
    /// were no rows at all.
    fn poll(
        &mut self,
        route: &SourceRoute,
        rows_per_message: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Poll<RowId>, FedError> {
        loop {
            if self.ready > 0 {
                self.ready -= 1;
                // `ready` only ever counts rows `remaining` still holds.
                let Some(row) = self.take_row(&mut ctx.rows) else {
                    return Err(FedError::Internal("a landed message outran its result".into()));
                };
                return Ok(Poll::Ready(row));
            }
            // The message in flight, or the next one sent now.
            let mut flight = match self.inflight.take() {
                Some(flight) => flight,
                None => {
                    let n = self.remaining().min(rows_per_message);
                    if n == 0 && self.empty_notified {
                        return Ok(Poll::Done);
                    }
                    self.empty_notified = true;
                    let chain = schedule_transfer_with_retry(route, n, ctx.clock.now(), ctx);
                    Flight { landing: Landing::of(chain, ctx), rows: n }
                }
            };
            if let Some(ev) = flight.landing.poll(ctx)? {
                self.inflight = Some(flight);
                return Ok(Poll::Pending(ev));
            }
            self.ready = flight.rows;
        }
    }
}

/// What a leaf asks of its source: a one-shot request, or one batch of a
/// bind join. A SQL request lifts what its [`LiftPlan`] says; a batch what
/// its target's says.
pub(super) enum LeafRequest<'a> {
    Sql {
        db: &'a Database,
        query: &'a TranslatedQuery,
        lift: &'a LiftPlan,
    },
    Sparql {
        graph: &'a fedlake_rdf::Graph,
        star: &'a crate::decompose::StarSubquery,
        filters: &'a [fedlake_sparql::expr::Expr],
    },
    /// `target`'s star restricted to the join terms `ids`, each of which a
    /// stored value lifts to (see [`bind_batch_query`]).
    Batch {
        db: &'a Database,
        target: &'a BindTarget,
        ids: &'a [TermId],
    },
}

impl LeafRequest<'_> {
    /// The request's cache signature at `logical`. SQL: the text already
    /// pins the selected columns, the output var names pin their
    /// SPARQL-side binding order and the lift plan's key which cells are
    /// lifted. SPARQL: the triple patterns written positionally (vars by
    /// name, ground terms by display form) plus any source-side filters. A
    /// batch: everything of its statement but the `IN` list — the
    /// unrestricted star's SQL, the restricted column and the key template
    /// — so a bind join builds it once, not per batch. The slot layout and
    /// a batch's join terms are keyed separately.
    pub(super) fn signature(&self, logical: &str) -> String {
        fn sql_signature(
            kind: &str,
            logical: &str,
            sql: &str,
            outputs: &[OutputBinding],
            lift: &LiftPlan,
        ) -> String {
            let key = lift.key();
            let mut sig = String::with_capacity(sql.len() + logical.len() + key.len() + 32);
            for part in [kind, logical, ":", sql] {
                sig.push_str(part);
            }
            for ob in outputs {
                sig.push(':');
                sig.push_str(ob.var.name());
            }
            sig.push_str(key);
            sig
        }
        match self {
            LeafRequest::Sql { query, lift, .. } => {
                sql_signature("sql:", logical, &query.sql, &query.outputs, lift)
            }
            LeafRequest::Batch { target, .. } => {
                let star = sql_single(&target.part);
                let mut sig =
                    sql_signature("bind:", logical, &star.sql, &star.outputs, &target.lift);
                let _ = write!(sig, ":{}.{} IN ", target.part.alias, target.column.name);
                if let Lift::SubjectIri(tmpl) | Lift::RefIri(tmpl) = &target.column.lift {
                    let _ = write!(sig, "{tmpl}");
                }
                sig
            }
            LeafRequest::Sparql { star, filters, .. } => {
                let mut sig = format!("sparql:{logical}");
                for t in &star.triples {
                    for pos in [&t.s, &t.p, &t.o] {
                        match pos {
                            fedlake_sparql::ast::VarOrTerm::Var(v) => {
                                let _ = write!(sig, ":?{}", v.name());
                            }
                            fedlake_sparql::ast::VarOrTerm::Term(t) => {
                                let _ = write!(sig, ":{t}");
                            }
                        }
                    }
                }
                for f in filters.iter() {
                    let _ = write!(sig, ":{f:?}");
                }
                sig
            }
        }
    }

    /// Evaluates the request at the source and lifts the answer — what a
    /// cache miss costs in host time. A SQL answer is lifted from the
    /// source's own rows: no owned result is built and the source's SQL
    /// memo is neither read nor filled, the [`LiftCache`] being the one
    /// cache of what a leaf fetched.
    fn evaluate(&self, ctx: &ExecCtx) -> Result<LiftedSource, FedError> {
        match self {
            LeafRequest::Sql { db, query, lift } => {
                let rs = db.query_borrowed(&query.sql)?;
                let mut dict = ctx.interner.lock();
                Ok(lift_result_cols(&rs, &query.outputs, lift, &ctx.schema, &mut dict))
            }
            LeafRequest::Batch { db, target, ids } => {
                let q = {
                    let dict = ctx.interner.lock();
                    bind_batch_query(target, ids.iter().filter_map(|id| dict.term(*id)))
                };
                let rs = db.query_borrowed(&q.sql)?;
                let mut dict = ctx.interner.lock();
                Ok(lift_result_cols(&rs, &q.outputs, &target.lift, &ctx.schema, &mut dict))
            }
            LeafRequest::Sparql { graph, star, filters } => {
                let filters: Vec<_> = filters.iter().map(|f| f.bind(None)).collect();
                let rows: Vec<Row> = eval_bgp(&star.triples, graph, vec![Row::new()])
                    .into_iter()
                    .filter(|r| filters.iter().all(|f| f.test(r)))
                    .collect();
                let width = ctx.schema.len();
                let mut ids = vec![TermId::UNBOUND; rows.len() * width];
                let mut dict = ctx.interner.lock();
                for (i, r) in rows.iter().enumerate() {
                    encode_row(r, &ctx.schema, &mut dict, |slot, id| ids[i * width + slot] = id);
                }
                Ok(LiftedSource { ids, width, rows: rows.len(), ..Default::default() })
            }
        }
    }

    /// The simulated source-side time of producing `lifted` — charged on
    /// every execution, hit or miss, from what the entry stores.
    pub(super) fn work(
        &self,
        lifted: &LiftedSource,
        cost: &fedlake_netsim::CostModel,
    ) -> Result<Duration, FedError> {
        Ok(match (self, &lifted.sql_cost) {
            (LeafRequest::Sparql { star, .. }, _) => {
                cost.sparql_time(star.triples.len(), lifted.rows as u64)
            }
            (_, Some(sql_cost)) => cost.rdb_time(sql_cost),
            // `evaluate` stores the counters with every SQL result it lifts.
            (_, None) => return Err(FedError::Internal("sql lift without cost counters".into())),
        })
    }
}

/// *The* lookup-or-fill of the [`LiftCache`]: `request`'s lifted answer as
/// of the source's data `version`, from the cache when it holds one under
/// `signature` (and, for a batch, its join terms), evaluated at the source
/// and cached otherwise. Every leaf stream and every bind-join batch, on
/// both schedules, gets its rows here; a cached answer of another width
/// than the execution's schema is `FedError::Internal`, not shifted rows.
pub(super) fn lifted(
    request: &LeafRequest,
    signature: &Arc<str>,
    version: u64,
    ctx: &ExecCtx,
) -> Result<Arc<LiftedSource>, FedError> {
    let ids: &[TermId] = match request {
        LeafRequest::Batch { ids, .. } => ids,
        _ => &[],
    };
    let probe: &dyn LiftKeyParts = &(ctx.layout, &**signature, ids);
    if let Some(hit) = ctx.lifts.lock().lookup(probe, version) {
        // Once per answer, not per row: `evaluate` lifts at this width.
        let (width, wide) = (ctx.schema.len(), hit.width);
        if wide == width && hit.ids.len() == hit.kept() * width {
            return Ok(hit);
        }
        let msg = format!("a cached answer {wide} slots wide opened under {width} slots");
        return Err(FedError::Internal(msg));
    }
    let fresh = Arc::new(request.evaluate(ctx)?);
    let key = LiftKey { layout: ctx.layout, signature: Arc::clone(signature), ids: ids.into() };
    ctx.lifts.lock().insert(key, version, Arc::clone(&fresh));
    Ok(fresh)
}

/// Streams a one-shot request's answers: one SQL query or one SPARQL star.
struct LeafStream<'a> {
    request: LeafRequest<'a>,
    /// [`LeafRequest::signature`] at the route's logical source.
    signature: Arc<str>,
    /// The source's data version when the stream was opened: what a cached
    /// result must have been computed from to be served.
    version: u64,
    route: SourceRoute,
    rows_per_message: usize,
    /// The request round trip plus the source's evaluation, waited for as
    /// one.
    computing: Option<Landing>,
    delivery: Option<Delivery>,
}

impl<'a> LeafStream<'a> {
    /// The first poll: ship the request (one message, retried on faults),
    /// let the source compute — its work is priced by the cost model — and
    /// return the delivery of its result. Both occupy the link's timeline
    /// and are waited for as one, charge for charge.
    fn open(&mut self, ctx: &mut ExecCtx) -> Result<Delivery, FedError> {
        if matches!(self.request, LeafRequest::Sql { .. }) {
            ctx.stats.sql_queries += 1;
        }
        let requested =
            match schedule_transfer_with_retry(&self.route, 0, ctx.clock.now(), ctx) {
                Ok(done) => done,
                failed => {
                    self.computing = Some(Landing::of(failed, ctx));
                    return Ok(Delivery::of(Arc::default()));
                }
            };
        let lifted = lifted(&self.request, &self.signature, self.version, ctx)?;
        let work = self.request.work(&lifted, &ctx.cost)?;
        let computed = self.route.active_link().schedule_busy(work, requested);
        ctx.stats.service_rows += lifted.rows as u64;
        let what = match self.request {
            LeafRequest::Sparql { .. } => "sparql evaluation",
            _ => "sql evaluation",
        };
        let (endpoint, rows) = (self.route.active_endpoint(), lifted.rows as u64);
        ctx.obs.source_span(SourceSpan::Compute(what), endpoint, requested, computed, rows);
        self.computing = Some(Landing::of(Ok(computed), ctx));
        Ok(Delivery::of(lifted))
    }
}

impl FedOp for LeafStream<'_> {
    /// Opens the stream, waits out the request + evaluation, then polls
    /// the delivery.
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<RowId>, FedError> {
        if self.delivery.is_none() {
            self.delivery = Some(self.open(ctx)?);
        }
        if let Some(computing) = &mut self.computing {
            if let Some(ev) = computing.poll(ctx)? {
                return Ok(Poll::Pending(ev));
            }
            self.computing = None;
        }
        let Some(delivery) = &mut self.delivery else {
            return Err(FedError::Internal("leaf stream lost the delivery it opened".into()));
        };
        delivery.poll(&self.route, self.rows_per_message, ctx)
    }
}
