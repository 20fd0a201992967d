//! Source wrappers.
//!
//! A wrapper executes a service request against its source and streams the
//! resulting solution mappings to the engine. Network delays are simulated
//! here, exactly as in the paper: *"Network delays are simulated within
//! the SQL wrapper …; delaying the retrieval of the next answer from the
//! source"* (§3). Every message pulled through the wrapper occupies its
//! [`Link`]'s timeline for a sampled latency, and the source's own
//! computation for the cost model's price of the work the relational
//! engine reports; a stream waits for both (`Landing`) — on the spot
//! under the paper's serialized schedule, as an event otherwise
//! (`ExecCtx::wait_until`).
//!
//! Wrappers are the encode boundary of the slot-row representation: lifted
//! terms are interned into the query-scoped dictionary here, so everything
//! downstream of a wrapper handles `u32` ids only.

use crate::error::FedError;
use crate::fedplan::{BindTarget, NaiveJoin, ReplicaRoute, ServiceKind, ServiceNode, SqlRequest};
use crate::lake::{logical_source_id, DataLake};
use crate::obs::SpanKind;
use crate::operators::{BoxedOp, ExecCtx, FedOp, Poll, Wait};
use crate::source::DataSource;
use crate::translate::{sql_single, Lift, OutputBinding, StarPart, TranslatedQuery};
use fedlake_mapping::lift::{term_to_value, value_key_in};
use fedlake_mapping::xsd_for;
use fedlake_netsim::cost::fedlake_relational_cost;
use fedlake_netsim::{EventTime, Link};
use fedlake_rdf::{BuildFastHasher, Dictionary, Term, TermId};
use fedlake_relational::cache::{CacheStats, VersionedCache};
use fedlake_relational::{Database, ResultSet, Value};
use fedlake_sparql::binding::{encode_row, Row, RowSchema, SlotRow};
use fedlake_sparql::eval::eval_bgp;
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A stream's resolved connection to one logical source: the replica
/// endpoints (with their links) in the planner's preferred order, plus a
/// sticky cursor at the replica currently serving the stream.
///
/// Failover semantics live here: when the active replica exhausts its
/// retry budget the transfer helpers advance the cursor and continue the
/// stream's *remaining* messages on the next endpoint (a resumable result
/// stream), never returning to an earlier replica within the stream. Only
/// when the last endpoint's budget is spent does the stream surface
/// [`FedError::SourceUnavailable`] — attributed to the logical source,
/// with the total attempt count across every replica tried.
#[derive(Debug)]
pub struct SourceRoute {
    logical: String,
    endpoints: Vec<(String, Arc<Link>)>,
    active: AtomicUsize,
}

impl SourceRoute {
    /// A route over explicit endpoints, preferred first. Panics on an
    /// empty endpoint list — a route must lead somewhere.
    pub fn new(logical: impl Into<String>, endpoints: Vec<(String, Arc<Link>)>) -> Self {
        // Invariant: `endpoints[active]` always exists. A plan reaches this
        // through `route_for`, which turns an empty replica route into a
        // typed error first; only a route written out by hand can trip it.
        assert!(!endpoints.is_empty(), "a route needs at least one endpoint");
        SourceRoute { logical: logical.into(), endpoints, active: AtomicUsize::new(0) }
    }

    /// The unreplicated route: one endpoint, named like the source.
    pub fn single(id: impl Into<String>, link: Arc<Link>) -> Self {
        let id = id.into();
        SourceRoute::new(id.clone(), vec![(id, link)])
    }

    /// The logical source id this route serves.
    pub fn logical(&self) -> &str {
        &self.logical
    }

    fn len(&self) -> usize {
        self.endpoints.len()
    }

    fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    fn set_active(&self, idx: usize) {
        self.active.store(idx, Ordering::Relaxed);
    }

    fn endpoint(&self, idx: usize) -> (&str, &Link) {
        let (id, link) = &self.endpoints[idx];
        (id.as_str(), link.as_ref())
    }

    /// The endpoint currently serving the stream.
    pub fn active_endpoint(&self) -> &str {
        &self.endpoints[self.active()].0
    }

    /// The link currently serving the stream.
    pub fn active_link(&self) -> &Link {
        &self.endpoints[self.active()].1
    }
}

/// Resolves a plan node's routing decision against a query's link map:
/// the planner's ordered endpoints when the node carries a
/// [`ReplicaRoute`], otherwise the plain source id.
pub fn route_for(
    source_id: &str,
    route: &Option<ReplicaRoute>,
    links: &std::collections::HashMap<String, Arc<Link>>,
) -> Result<SourceRoute, FedError> {
    let endpoint_ids: Vec<&str> = match route {
        Some(r) => r.endpoints.iter().map(String::as_str).collect(),
        None => vec![source_id],
    };
    // The planner routes only sources with two or more replicas, but a
    // `ReplicaRoute` is plain data anyone can build.
    if endpoint_ids.is_empty() {
        return Err(FedError::Internal(format!("replica route of {source_id} names no endpoint")));
    }
    let mut endpoints = Vec::with_capacity(endpoint_ids.len());
    for id in endpoint_ids {
        let link = links
            .get(id)
            .ok_or_else(|| FedError::NoSuchSource(id.to_string()))?;
        endpoints.push((id.to_string(), Arc::clone(link)));
    }
    Ok(SourceRoute::new(source_id, endpoints))
}

/// A stream's message size, checked where the stream is opened: a message
/// of zero rows can only ever be the empty-result notification, so a
/// delivery sized that way would report any result as drained.
fn message_size(rows_per_message: usize) -> Result<usize, FedError> {
    if rows_per_message == 0 {
        return Err(FedError::Unsupported(
            "rows_per_message = 0: a message must carry at least one row".into(),
        ));
    }
    Ok(rows_per_message)
}

/// Opens the operator streaming a service's answers.
pub fn open_service<'a>(
    node: &ServiceNode,
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
            LeafRequest::Sparql { graph, star: star.clone(), filters: filters.clone() }
        }
        (ServiceKind::Sql { request, .. }, DataSource::Relational { db, .. }) => match request {
            SqlRequest::Single(q) | SqlRequest::MergedOptimized(q) => {
                LeafRequest::Sql { db, sql: q.sql.clone(), outputs: q.outputs.clone() }
            }
            SqlRequest::MergedNaive { outer, inner, join } => {
                return Ok(Box::new(NaiveStream {
                    db,
                    outer: outer.clone(),
                    inner: inner.clone(),
                    join: join.clone(),
                    route,
                    rows_per_message,
                    bindings: VecDeque::new(),
                    buffer: Delivery::pre_notified(Vec::new()),
                    installed_inner: false,
                    stage: NaiveStage::Unopened,
                }))
            }
        },
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

/// The backoff pause actually charged before the next attempt: the full
/// exponential backoff, clamped so a query never waits past its own
/// deadline. `now` is the failing link's local failure time.
fn clamped_backoff(
    policy: &crate::config::RetryPolicy,
    attempt: u32,
    deadline: Option<Duration>,
    now: Duration,
) -> Duration {
    let pause = policy.backoff_after(attempt);
    match deadline {
        Some(d) => pause.min(d.saturating_sub(now)),
        None => pause,
    }
}

/// A chain of source work that cannot complete, and the time on the link
/// timelines at which its stream finds out: the last endpoint of a route
/// ran out of attempts — [`FedError::SourceUnavailable`], attributed to the
/// logical source with the total attempts across all replicas tried.
/// Boxed where it is returned, so the per-message path hands a completion
/// time back in registers.
#[derive(Debug)]
pub struct RouteExhausted {
    /// When the last attempt's detection timeout ran out.
    pub at: Duration,
    /// What the stream surfaces once it has waited until then.
    pub error: FedError,
}

/// The wait for a scheduled chain of source work: over when the chain
/// completes — or when it fails, and then the error surfaces, exactly when
/// a stream blocking on the chain would have observed it.
struct Landing {
    wait: Wait,
    failed: Option<Box<RouteExhausted>>,
}

impl Landing {
    /// Starts waiting for `chain` (see [`ExecCtx::wait_until`]).
    fn of(chain: Result<Duration, Box<RouteExhausted>>, ctx: &mut ExecCtx) -> Self {
        match chain {
            Ok(done) => Landing { wait: ctx.wait_until(done), failed: None },
            Err(x) => Landing { wait: ctx.wait_until(x.at), failed: Some(x) },
        }
    }

    /// The event to report as [`Poll::Pending`] while the chain is in the
    /// air; once the wait is over, `None` — or the chain's error.
    fn poll(&mut self, ctx: &mut ExecCtx) -> Result<Option<EventTime>, FedError> {
        if let Some(ev) = ctx.still_pending(self.wait) {
            return Ok(Some(ev));
        }
        match self.failed.take() {
            Some(x) => Err(x.error),
            None => Ok(None),
        }
    }
}

/// Schedules one message, with its full retry-and-failover chain, on the
/// route's link timelines starting no earlier than `start` — *the* way a
/// message crosses a route, on either schedule. Every failed attempt
/// occupies the link for the receiver's detection timeout; every retry
/// additionally for the (deadline-clamped) exponential backoff, per the
/// context's [`crate::config::RetryPolicy`] — link occupancy, not
/// shared-clock advances, so one source's retries never stall another
/// source's transfers. A replica that exhausts its attempt budget triggers
/// an immediate failover — no backoff — to the next endpoint on the route,
/// which gets a fresh budget and continues the chain on its own timeline at
/// the predecessor's failure time.
///
/// Returns the completion time on success (the route's active cursor then
/// names the endpoint that delivered, so callers chain follow-up work on
/// the right link). Only exhausting the *last* endpoint fails, as
/// [`RouteExhausted`]; a stream turns either into a `Landing` to wait for.
pub fn schedule_transfer_with_retry(
    route: &SourceRoute,
    rows: usize,
    start: Duration,
    ctx: &mut ExecCtx,
) -> Result<Duration, Box<RouteExhausted>> {
    let policy = ctx.retry;
    let budget = policy.attempts();
    let mut at = start;
    let mut idx = route.active();
    // Attempts made on endpoint `idx`, and on the whole route.
    let mut attempt = 0u32;
    let mut total_attempts = 0u32;
    loop {
        let (endpoint, link) = route.endpoint(idx);
        let (done, result) = link.schedule_message(rows, at);
        if result.is_ok() {
            route.set_active(idx);
            return Ok(done);
        }
        total_attempts += 1;
        // The receiver waited `timeout` before concluding the attempt
        // failed, whatever the failure mode was.
        let failed_at = link.schedule_busy(policy.timeout, done);
        if ctx.trace.is_enabled() {
            ctx.trace.source_span(
                SpanKind::Timeout,
                endpoint,
                "detection timeout",
                done,
                failed_at,
                0,
            );
        }
        let budget_spent = attempt + 1 == budget;
        if budget_spent && idx + 1 == route.len() {
            return Err(Box::new(RouteExhausted {
                at: failed_at,
                error: FedError::SourceUnavailable {
                    source: route.logical().to_string(),
                    attempts: total_attempts,
                },
            }));
        }
        ctx.stats.retries += 1;
        ctx.recorder.retry(failed_at, endpoint, attempt);
        if budget_spent {
            // Immediate failover: the successor picks up at the
            // predecessor's failure time, no backoff.
            at = failed_at;
            let (next, _) = route.endpoint(idx + 1);
            route.set_active(idx + 1);
            if let Some(obs) = link.observer() {
                obs.on_failover(route.logical(), endpoint, next);
            }
            ctx.recorder.failover(at, route.logical(), endpoint, next);
            idx += 1;
            attempt = 0;
        } else {
            let pause = clamped_backoff(&policy, attempt, ctx.deadline, failed_at);
            at = link.schedule_busy(pause, failed_at);
            if ctx.trace.is_enabled() {
                ctx.trace.source_span(
                    SpanKind::Backoff,
                    endpoint,
                    &format!("backoff before attempt {}", attempt + 2),
                    failed_at,
                    at,
                    0,
                );
            }
            attempt += 1;
        }
    }
}

/// Schedules `total_rows` rows as a chain of messages of
/// `rows_per_message` on the route's timelines. An empty result still costs one (empty) message,
/// mirroring [`Link::transfer_rows`].
pub fn schedule_rows_with_retry(
    route: &SourceRoute,
    total_rows: usize,
    rows_per_message: usize,
    start: Duration,
    ctx: &mut ExecCtx,
) -> Result<Duration, Box<RouteExhausted>> {
    let rows_per_message = message_size(rows_per_message)
        .map_err(|error| Box::new(RouteExhausted { at: start, error }))?;
    if total_rows == 0 {
        return schedule_transfer_with_retry(route, 0, start, ctx);
    }
    let mut at = start;
    let mut remaining = total_rows;
    while remaining > 0 {
        let n = remaining.min(rows_per_message);
        at = schedule_transfer_with_retry(route, n, at, ctx)?;
        remaining -= n;
    }
    Ok(at)
}

/// Converts the relational engine's counters to the netsim mirror type.
pub fn convert_cost(c: &fedlake_relational::CostStats) -> fedlake_relational_cost::CostStats {
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

/// Lifts a SQL result set directly into slot rows, interning each lifted
/// term — the row-major lift of the naive N+1 wrapper ([`NaiveStream`])
/// only, whose per-binding results are merged row by row and never shared.
/// Every other source request — one-shot leaves and bind-join batches —
/// lifts column-major into the [`LiftCache`]. The slot of each output
/// column is resolved once, not per row.
pub fn lift_result(
    rs: &ResultSet,
    outputs: &[OutputBinding],
    schema: &RowSchema,
    dict: &mut Dictionary,
) -> Vec<SlotRow> {
    let slots: Vec<Option<usize>> = outputs.iter().map(|ob| schema.slot(&ob.var)).collect();
    let mut scratch = LiftScratch::default();
    rs.rows
        .iter()
        .map(|row| {
            let mut out = SlotRow::unbound(schema.len());
            for ((v, ob), slot) in row.iter().zip(outputs).zip(&slots) {
                if let (Some(slot), false) = (*slot, v.is_null()) {
                    out.set(slot, lift_value(v, ob, &mut scratch, dict));
                }
            }
            out
        })
        .collect()
}

/// Columnar lift of a SQL result: one `TermId` buffer per slot, written
/// column-at-a-time. Produces exactly the ids [`lift_result`] would assign
/// to each cell — only the interning *order* (and therefore the raw id
/// numbering) differs, which nothing downstream observes: ids never leave
/// the execution, and every consumer compares or decodes them.
fn lift_result_cols(
    rs: &ResultSet,
    outputs: &[OutputBinding],
    schema: &RowSchema,
    dict: &mut Dictionary,
) -> LiftedSource {
    let n = rs.rows.len();
    let mut cols = vec![vec![TermId::UNBOUND; n]; schema.len()];
    let mut scratch = LiftScratch::default();
    for (i, ob) in outputs.iter().enumerate() {
        let Some(slot) = schema.slot(&ob.var) else { continue };
        for (cell, row) in cols[slot].iter_mut().zip(&rs.rows) {
            if !row[i].is_null() {
                *cell = lift_value(&row[i], ob, &mut scratch, dict);
            }
        }
    }
    LiftedSource { cols, rows: n, sql_cost: Some(convert_cost(&rs.cost)) }
}

/// One source's answer to one request — a one-shot leaf or one bind-join
/// batch — materialized and lifted: column-major `TermId` buffers, one per
/// schema slot, plus the source-side cost counters the simulation charges
/// per execution (`None` for a SPARQL source, whose charge follows from the
/// star's shape and the row count). The ids stay valid for as long as the
/// interner they were interned into — the engine's is append-only and
/// shared with every execution.
#[derive(Debug)]
pub struct LiftedSource {
    cols: Vec<Vec<TermId>>,
    rows: usize,
    sql_cost: Option<fedlake_relational_cost::CostStats>,
}

impl LiftedSource {
    /// `left` merged with row `r`, as [`SlotRow::merge`] would merge the
    /// two: `None` when a slot is bound to different ids on both sides.
    fn merge_row(&self, left: &SlotRow, r: usize) -> Option<SlotRow> {
        let mut out = left.clone();
        for (slot, col) in self.cols.iter().enumerate() {
            match (out.get(slot), col[r]) {
                (_, TermId::UNBOUND) => {}
                (None, id) => out.set(slot, id),
                (Some(bound), id) if bound == id => {}
                _ => return None,
            }
        }
        Some(out)
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
/// bindings — see [`LeafRequest::signature`]) and, for a bind-join batch,
/// the join terms it asks about (empty for a one-shot leaf). The terms are
/// ids of the engine's append-only interner, so equal ids render equal SQL
/// and — at an equal source version — fetch an equal result.
type LiftKey = (u64, Arc<str>, Box<[TermId]>);

type LiftEntries = VersionedCache<LiftKey, Arc<LiftedSource>, BuildFastHasher>;

impl LiftCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, LiftEntries> {
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

/// Materialized payload of a [`Delivery`]: the shared lifted columns of a
/// one-shot leaf (with this stream's cursor), or the N+1 wrapper's owned
/// rows, which are never shared.
enum Materialized {
    Rows(VecDeque<SlotRow>),
    Cols { data: Arc<LiftedSource>, cursor: usize },
}

impl Materialized {
    fn remaining(&self) -> usize {
        match self {
            Materialized::Rows(rows) => rows.len(),
            Materialized::Cols { data, cursor } => data.rows - cursor,
        }
    }

    /// The next row, `None` when none remain.
    fn take_row(&mut self) -> Option<SlotRow> {
        match self {
            Materialized::Rows(rows) => rows.pop_front(),
            Materialized::Cols { data, cursor } => {
                if *cursor >= data.rows {
                    return None;
                }
                let mut out = SlotRow::unbound(data.cols.len());
                for (slot, c) in data.cols.iter().enumerate() {
                    out.set(slot, c[*cursor]);
                }
                *cursor += 1;
                Some(out)
            }
        }
    }
}

/// One message on its way, and how many rows it carries (none for an
/// empty-result notification).
struct Flight {
    landing: Landing,
    rows: usize,
}

/// Message-batched delivery of a materialized result. Rows are handed out
/// in order from `data`; `ready` counts those whose message has landed. At
/// most one message is on the link at a time, and a poll reports
/// `Poll::Pending` while it is in the air, letting the engine drain *other*
/// sources in the meantime — unless the serialized policy sat the wait out
/// when the message was sent. Message boundaries, the empty-result
/// notification and the retry accounting do not depend on the policy.
struct Delivery {
    data: Materialized,
    ready: usize,
    inflight: Option<Flight>,
    empty_notified: bool,
}

impl Delivery {
    fn of(data: Materialized) -> Self {
        Delivery { data, ready: 0, inflight: None, empty_notified: false }
    }

    fn new(rows: Vec<SlotRow>) -> Self {
        Delivery::of(Materialized::Rows(rows.into()))
    }

    /// A delivery whose empty-result notification is considered already
    /// sent (the NaiveStream inner buffers: the per-binding round trip
    /// was its own message).
    fn pre_notified(rows: Vec<SlotRow>) -> Self {
        Delivery { empty_notified: true, ..Delivery::new(rows) }
    }

    fn remaining(&self) -> usize {
        self.data.remaining()
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
    ) -> Result<Poll<SlotRow>, FedError> {
        loop {
            if self.ready > 0 {
                self.ready -= 1;
                // `ready` only ever counts rows `remaining` still holds.
                let Some(row) = self.data.take_row() else {
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
/// bind join.
enum LeafRequest<'a> {
    Sql { db: &'a Database, sql: String, outputs: Vec<OutputBinding> },
    Sparql {
        graph: &'a fedlake_rdf::Graph,
        star: crate::decompose::StarSubquery,
        filters: Vec<fedlake_sparql::expr::Expr>,
    },
    /// `target`'s star restricted to the keys of the join terms `ids`, each
    /// of which a key can be extracted from (see [`bind_batch_query`]).
    Batch { db: &'a Database, target: &'a BindTarget, ids: &'a [TermId] },
}

impl LeafRequest<'_> {
    /// The request's cache signature at `logical`. SQL: the text already
    /// pins the selected columns and the output var names pin their
    /// SPARQL-side binding order. SPARQL: the triple patterns written
    /// positionally (vars by name, ground terms by display form) plus any
    /// source-side filters. A batch: everything of its statement but the
    /// `IN` list — the unrestricted star's SQL, the restricted column and
    /// the key template — so a bind join builds it once, not per batch. The
    /// slot layout and a batch's join terms are keyed separately.
    fn signature(&self, logical: &str) -> String {
        fn sql_signature(
            kind: &str,
            logical: &str,
            sql: &str,
            outputs: &[OutputBinding],
        ) -> String {
            let mut sig = String::with_capacity(sql.len() + logical.len() + 32);
            for part in [kind, logical, ":", sql] {
                sig.push_str(part);
            }
            for ob in outputs {
                sig.push(':');
                sig.push_str(ob.var.name());
            }
            sig
        }
        match self {
            LeafRequest::Sql { sql, outputs, .. } => sql_signature("sql:", logical, sql, outputs),
            LeafRequest::Batch { target, .. } => {
                let star = sql_single(&target.part);
                let mut sig = sql_signature("bind:", logical, &star.sql, &star.outputs);
                let _ = write!(sig, ":{}.{} IN ", target.part.alias, target.column);
                if let Some(tmpl) = &target.extract {
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
                for f in filters {
                    let _ = write!(sig, ":{f:?}");
                }
                sig
            }
        }
    }

    /// Evaluates the request at the source and lifts the answer — what a
    /// cache miss costs in host time.
    fn evaluate(&self, ctx: &ExecCtx) -> Result<LiftedSource, FedError> {
        match self {
            LeafRequest::Sql { db, sql, outputs } => {
                let rs = db.query_cached(sql)?;
                Ok(lift_result_cols(&rs, outputs, &ctx.schema, &mut ctx.interner.lock()))
            }
            LeafRequest::Batch { db, target, ids } => {
                let q = {
                    let dict = ctx.interner.lock();
                    bind_batch_query(target, ids.iter().filter_map(|id| dict.term(*id)))
                }
                .ok_or_else(|| FedError::Internal("bind batch without a key".into()))?;
                let rs = db.query_cached(&q.sql)?;
                Ok(lift_result_cols(&rs, &q.outputs, &ctx.schema, &mut ctx.interner.lock()))
            }
            LeafRequest::Sparql { graph, star, filters } => {
                let filters: Vec<_> = filters.iter().map(|f| f.bind(None)).collect();
                let rows: Vec<Row> = eval_bgp(&star.triples, graph, vec![Row::new()])
                    .into_iter()
                    .filter(|r| filters.iter().all(|f| f.test(r)))
                    .collect();
                let mut cols = vec![vec![TermId::UNBOUND; rows.len()]; ctx.schema.len()];
                let mut dict = ctx.interner.lock();
                for (i, r) in rows.iter().enumerate() {
                    let encoded = encode_row(r, &ctx.schema, &mut dict);
                    for (slot, id) in encoded.slots().iter().enumerate() {
                        cols[slot][i] = *id;
                    }
                }
                Ok(LiftedSource { cols, rows: rows.len(), sql_cost: None })
            }
        }
    }

    /// The simulated source-side time of producing `lifted` — charged on
    /// every execution, hit or miss, from what the entry stores.
    fn work(
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
/// both schedules, gets its rows here.
fn lifted(
    request: &LeafRequest,
    signature: &Arc<str>,
    version: u64,
    ctx: &ExecCtx,
) -> Result<Arc<LiftedSource>, FedError> {
    let ids: Box<[TermId]> = match request {
        LeafRequest::Batch { ids, .. } => (*ids).into(),
        _ => Box::default(),
    };
    let key = (schema_fingerprint(&ctx.schema), Arc::clone(signature), ids);
    if let Some(hit) = ctx.lifts.lock().lookup(&key, version) {
        return Ok(hit);
    }
    let fresh = Arc::new(request.evaluate(ctx)?);
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
                    return Ok(Delivery::new(Vec::new()));
                }
            };
        let lifted = lifted(&self.request, &self.signature, self.version, ctx)?;
        let work = self.request.work(&lifted, &ctx.cost)?;
        let computed = self.route.active_link().schedule_busy(work, requested);
        ctx.stats.service_rows += lifted.rows as u64;
        if ctx.trace.is_enabled() {
            ctx.trace.source_span(
                SpanKind::Compute,
                self.route.active_endpoint(),
                match self.request {
                    LeafRequest::Sparql { .. } => "sparql evaluation",
                    _ => "sql evaluation",
                },
                requested,
                computed,
                lifted.rows as u64,
            );
        }
        self.computing = Some(Landing::of(Ok(computed), ctx));
        Ok(Delivery::of(Materialized::Cols { data: lifted, cursor: 0 }))
    }
}

impl FedOp for LeafStream<'_> {
    /// Opens the stream, waits out the request + evaluation, then polls
    /// the delivery.
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
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

/// The N+1 dependent join emulating Ontario's unoptimized merged-SQL
/// translation: the outer star is evaluated once, then the wrapper issues
/// one parameterized inner query per outer binding. Outer bindings are
/// consumed one at a time, each spawning an outer-binding message plus
/// (when the key extracts) an inner round trip.
struct NaiveStream<'a> {
    db: &'a Database,
    outer: TranslatedQuery,
    inner: StarPart,
    join: NaiveJoin,
    route: SourceRoute,
    rows_per_message: usize,
    /// Outer bindings whose inner query has not been issued yet.
    bindings: VecDeque<SlotRow>,
    /// The merged rows of the current outer binding.
    buffer: Delivery,
    /// Whether any inner buffer was ever installed: the final empty-result
    /// notification fires exactly when the outer query returned no
    /// bindings at all.
    installed_inner: bool,
    stage: NaiveStage,
}

enum NaiveStage {
    /// Not polled yet: the outer query is still to be sent.
    Unopened,
    /// Waiting on source work; once it has landed `then` applies.
    Waiting { landing: Landing, then: NaiveNext },
    /// The buffer is deliverable or the next outer binding is due.
    Idle,
    /// Everything delivered (and any final notification observed).
    Finished,
}

enum NaiveNext {
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
        what: &str,
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
        if ctx.trace.is_enabled() {
            ctx.trace.source_span(
                SpanKind::Compute,
                self.route.active_endpoint(),
                what,
                requested,
                computed,
                rows.len() as u64,
            );
        }
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

/// The SQL a bind join ships for one batch: `target`'s star restricted to
/// the distinct keys of the left rows' join terms, in first-seen order, as
/// one `IN` list. Terms no key can be extracted from (an IRI the target's
/// template did not mint, a literal where it expects an IRI) are skipped;
/// `None` when that leaves nothing. The text is the source's memo key, so
/// the same batch must always render the same bytes.
pub fn bind_batch_query<'t>(
    target: &BindTarget,
    terms: impl IntoIterator<Item = &'t Term>,
) -> Option<TranslatedQuery> {
    let mut seen: HashSet<Value> = HashSet::new();
    let mut list = String::new();
    for term in terms {
        let key = match &target.extract {
            Some(tmpl) => term
                .as_iri()
                .and_then(|iri| tmpl.extract(iri))
                .map(Value::Text),
            None => Some(term_to_value(term)),
        };
        if let Some(key) = key {
            if !seen.contains(&key) {
                let sep = if seen.is_empty() { "" } else { ", " };
                let _ = write!(list, "{sep}{key}");
                seen.insert(key);
            }
        }
    }
    if seen.is_empty() {
        return None;
    }
    let mut part = target.part.clone();
    part.wheres.push(format!("{}.{} IN ({list})", part.alias, target.column));
    Some(sql_single(&part))
}

/// The engine-level dependent (bind) join: batches of left bindings are
/// shipped to a relational source as SQL `IN` lists — ANAPSID's adjoin
/// lineage, and the classical alternative to fetching the right star in
/// full when the left side is selective. Each batch is a leaf request of
/// its own ([`LeafRequest::Batch`]): its answer comes through [`lifted`],
/// so a batch the engine already answered at the target's current data
/// version renders no SQL and runs no query.
pub struct BindJoinOp<'a> {
    left: BoxedOp<'a>,
    db: &'a Database,
    target: BindTarget,
    /// The target's statement signature: the part of the cache key every
    /// batch of this operator shares.
    signature: Arc<str>,
    /// The target's data version when the operator was built: what a
    /// cached batch must have been computed from to be served.
    version: u64,
    route: SourceRoute,
    rows_per_message: usize,
    batch_size: usize,
    left_done: bool,
    out: VecDeque<SlotRow>,
    stage: BindStage,
}

/// The state of the bind join: a batch gathers from the left, then its
/// request, source evaluation and result transfer fly as one scheduled
/// chain; probing happens when the wait for the chain is over.
enum BindStage {
    Gather { batch: Vec<SlotRow> },
    /// `lifted` is the batch's answer, once its request got through.
    Flying { landing: Landing, batch: Vec<SlotRow>, lifted: Option<Arc<LiftedSource>> },
}

impl<'a> BindJoinOp<'a> {
    /// Creates the operator over `target`'s source in `lake`; the engine
    /// resolves the route from the target's routing decision.
    pub fn new(
        left: BoxedOp<'a>,
        target: &BindTarget,
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
            target: target.clone(),
            signature,
            version,
            route,
            rows_per_message,
            batch_size: batch_size.max(1),
            left_done: false,
            out: VecDeque::new(),
            stage: BindStage::Gather { batch: Vec::new() },
        })
    }

    /// The join terms the batch asks the target about: the distinct ids its
    /// rows bind the join variable to, in first-seen order, less those no
    /// key can be extracted from (an IRI the target's template did not
    /// mint, a literal where it expects an IRI). Empty means no traffic —
    /// the batch can never match. Read in place under one interner lock.
    fn batch_ids(&self, batch: &[SlotRow], ctx: &ExecCtx) -> Vec<TermId> {
        let Some(jslot) = ctx.schema.slot(&self.target.join_var) else {
            return Vec::new();
        };
        let dict = ctx.interner.lock();
        let mut ids = Vec::with_capacity(batch.len());
        for id in batch.iter().filter_map(|row| row.get(jslot)) {
            if ids.contains(&id) {
                continue;
            }
            let askable = match (&self.target.extract, dict.term(id)) {
                (_, None) => false,
                (None, Some(_)) => true,
                (Some(tmpl), Some(term)) => term.as_iri().is_some_and(|iri| tmpl.matches(iri)),
            };
            if askable {
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
        let request = LeafRequest::Batch { db: self.db, target: &self.target, ids };
        let right = lifted(&request, &self.signature, self.version, ctx)?;
        let work = request.work(&right, &ctx.cost)?;
        Ok((right, work))
    }

    /// Probes the batch against the fetched right rows — read in place
    /// from the shared columns — charging the engine-side join work;
    /// merged rows land in the output queue. Same interner on both sides
    /// makes id equality term equality.
    fn probe_batch(&mut self, batch: &[SlotRow], right: &LiftedSource, ctx: &mut ExecCtx) {
        let jslot = ctx.schema.slot(&self.target.join_var);
        // The right rows by join id, in row order within an id.
        let mut by_key: Vec<(TermId, usize)> = jslot
            .map(|s| {
                let ids = right.cols[s].iter().copied().zip(0..);
                ids.filter(|(id, _)| *id != TermId::UNBOUND).collect()
            })
            .unwrap_or_default();
        by_key.sort_unstable();
        for lrow in batch {
            ctx.stats.engine_join_probes += 1;
            ctx.clock.advance(ctx.cost.engine_join_time(1));
            let Some(id) = jslot.and_then(|s| lrow.get(s)) else { continue };
            let first = by_key.partition_point(|(k, _)| *k < id);
            for (_, r) in by_key[first..].iter().take_while(|(k, _)| *k == id) {
                if let Some(merged) = right.merge_row(lrow, *r) {
                    ctx.clock.advance(ctx.cost.engine_row_time(1));
                    self.out.push_back(merged);
                }
            }
        }
    }

    /// Schedules a batch's request + evaluation + result transfer as one
    /// chain on the link timeline; the probe happens at completion.
    fn launch_batch(&mut self, batch: Vec<SlotRow>, ctx: &mut ExecCtx) -> Result<(), FedError> {
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
            if let (Ok(done), true) = (&chain, ctx.trace.is_enabled()) {
                ctx.trace.source_span(
                    SpanKind::BindBatch,
                    self.route.active_endpoint(),
                    &format!("bind batch ({} left rows)", batch.len()),
                    t0,
                    *done,
                    right.rows as u64,
                );
            }
            lifted = Some(right);
        }
        self.stage = BindStage::Flying { landing: Landing::of(chain, ctx), batch, lifted };
        Ok(())
    }
}

impl FedOp for BindJoinOp<'_> {
    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
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

/// Drains an operator fully, as a lone driver would: when the operator is
/// waiting, the clock jumps to the event it waits on. Right under either
/// schedule policy — the serialized one just never reports a wait.
pub fn drain(op: &mut dyn FedOp, ctx: &mut ExecCtx) -> Result<Vec<SlotRow>, FedError> {
    crate::operators::drain_with(ctx, |ctx| op.poll_next(ctx))
}

/// Creates one link per endpoint, each with its own deterministic RNG
/// stream derived from the base seed. An unreplicated source gets one
/// link under its plain id with the seed derivation unchanged from the
/// pre-replica engine (bit-identical traffic); a source with N replicas
/// gets N links under `id#r0..id#rN-1`, replica 0 on the source's base
/// seed and each further replica on an independent stream. Each link gets
/// the fault plan the [`fedlake_netsim::FaultPlans`] resolves for its
/// endpoint (endpoint override, then logical override, then the default,
/// then any matching outage group), so a chaos schedule can target one
/// replica, one logical source, or a correlated set of links.
///
/// An enabled trace sink and/or flight recorder attaches as the links'
/// network observer; with both, a fan-out forwards to the two (trace
/// first) — observation only, so link behaviour is byte-identical either
/// way.
#[allow(clippy::too_many_arguments)]
pub fn links_for(
    lake: &DataLake,
    profile: fedlake_netsim::NetworkProfile,
    clock: fedlake_netsim::SharedClock,
    cost: fedlake_netsim::CostModel,
    seed: u64,
    faults: &fedlake_netsim::FaultPlans,
    trace: &crate::obs::TraceSink,
    recorder: &crate::obs::FlightRecorder,
) -> std::collections::HashMap<String, Arc<Link>> {
    let observer: Option<Arc<dyn fedlake_netsim::NetObserver>> =
        match (trace.net_observer(), recorder.net_observer()) {
            (Some(t), Some(r)) => {
                Some(Arc::new(crate::obs::recorder::FanoutObserver(vec![t, r])))
            }
            (Some(t), None) => Some(t),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        };
    let mut links = std::collections::HashMap::new();
    for (i, s) in lake.sources().iter().enumerate() {
        let base = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (k, endpoint) in lake.replica_endpoints(s.id()).into_iter().enumerate() {
            let link_seed = base.wrapping_add((k as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let mut link = Link::with_faults(
                profile,
                Arc::clone(&clock),
                cost,
                link_seed,
                faults.for_endpoint(&endpoint, s.id()),
            );
            if let Some(obs) = &observer {
                link = link.with_observer(&endpoint, Arc::clone(obs));
            }
            links.insert(endpoint, Arc::new(link));
        }
    }
    links
}

/// Per-source fault counts (drops + truncations + outage hits) across a
/// link map, attributed to *logical* source ids: replica links fold into
/// their source's single entry, so one flaky source is not split across
/// replica keys. Sources that never failed do not appear.
pub fn source_failures(
    links: &std::collections::HashMap<String, Arc<Link>>,
) -> std::collections::BTreeMap<String, u64> {
    let mut out = std::collections::BTreeMap::new();
    for (id, l) in links {
        let f = l.stats().faults();
        if f > 0 {
            *out.entry(logical_source_id(id).to_string()).or_insert(0) += f;
        }
    }
    out
}

/// Total link traffic across a link map (messages, rows, injected delay).
pub fn total_traffic(
    links: &std::collections::HashMap<String, Arc<Link>>,
) -> (u64, u64, Duration) {
    links.values().fold(
        (0, 0, Duration::ZERO),
        |(m, r, d), l| {
            let s = l.stats();
            (m + s.messages, r + s.rows, d + s.delay)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::fedplan::ServiceNode;
    use crate::operators::EngineStats;
    use crate::translate::{star_part, TranslatedQuery};
    use fedlake_mapping::{DatasetMapping, IriTemplate, TableMapping};
    use fedlake_netsim::clock::shared_virtual;
    use fedlake_netsim::{CostModel, NetworkProfile};
    use fedlake_rdf::SharedInterner;
    use fedlake_sparql::binding::{decode_row, Var};
    use fedlake_sparql::parser::parse_query;

    fn lake() -> DataLake {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)")
            .unwrap();
        for i in 0..5 {
            db.execute(&format!(
                "INSERT INTO gene VALUES ('g{i}', 'gene {i}', 'd{}')",
                i % 2
            ))
            .unwrap();
        }
        db.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT)").unwrap();
        db.execute("INSERT INTO disease VALUES ('d0', 'asthma'), ('d1', 'cancer')")
            .unwrap();
        let mapping = DatasetMapping::new("d")
            .with_table(
                TableMapping::new(
                    "gene",
                    "http://v/Gene",
                    IriTemplate::new("http://d/gene/{}"),
                    "id",
                )
                .with_literal("label", "http://v/label")
                .with_reference(
                    "disease",
                    "http://v/disease",
                    IriTemplate::new("http://d/disease/{}"),
                ),
            )
            .with_table(
                TableMapping::new(
                    "disease",
                    "http://v/Disease",
                    IriTemplate::new("http://d/disease/{}"),
                    "id",
                )
                .with_literal("name", "http://v/name"),
            );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::relational("d", db, mapping));
        lake
    }

    fn ctx(clock: fedlake_netsim::SharedClock, vars: &[&str]) -> ExecCtx {
        ExecCtx::new(
            clock,
            CostModel::default(),
            Arc::new(RowSchema::new(vars.iter().map(|v| Var::new(*v)))),
            SharedInterner::new(),
        )
    }

    fn decode(c: &ExecCtx, rows: &[SlotRow]) -> Vec<Row> {
        let dict = c.interner.lock();
        rows.iter().map(|r| decode_row(&c.schema, &dict, |s| r.get(s))).collect()
    }

    /// Both lifts assign the same id to every cell, and it is the id the
    /// whole-term route (`value_key` → `apply` → `Term` → `intern`, kept
    /// for the oracle lift in `mapping/lift.rs`) assigns — for every value
    /// kind, repeated values, keys that need escaping, and NULLs.
    #[test]
    fn both_lifts_assign_the_ids_of_the_whole_term_route() {
        use fedlake_mapping::lift::{value_key, value_to_term};
        use fedlake_relational::DataType;
        let gene = IriTemplate::new("http://d/gene/{}");
        let page = IriTemplate::new("http://d/{}.html");
        let lifts = [
            Lift::SubjectIri(gene.clone()),
            Lift::RefIri(page.clone()),
            Lift::Literal(DataType::Text),
            Lift::Literal(DataType::Int),
            Lift::Literal(DataType::Double),
            Lift::Literal(DataType::Bool),
            // A text column lifted as an integer literal, as a mapping may ask.
            Lift::Literal(DataType::Int),
        ];
        let vars: Vec<String> = (0..lifts.len()).map(|i| format!("v{i}")).collect();
        let outputs: Vec<OutputBinding> = lifts
            .iter()
            .zip(&vars)
            .map(|(lift, v)| OutputBinding { var: Var::new(v.as_str()), lift: lift.clone() })
            .collect();
        let row = |k: &str, n: i64, d: f64, b: bool| {
            vec![
                Value::text(k),
                Value::Int(n),
                Value::text(k),
                Value::Int(n),
                Value::Double(d),
                Value::Bool(b),
                Value::text(n.to_string()),
            ]
        };
        let mut rows = vec![
            row("g1", 7, 1.5, true),
            row("a b/c%é", -7, -0.0, false),
            row("g1", 7, 1e21, true),
            row("7", 42, 2.0, false),
        ];
        rows.push(vec![Value::Null; lifts.len()]);
        rows[1][3] = Value::Null;
        let rs = ResultSet {
            columns: vars.clone(),
            rows,
            cost: Default::default(),
            explain: None,
        };
        // One extra slot no output binds, and slots in another order than
        // the columns.
        let schema = RowSchema::new(
            ["unused"].into_iter().chain(vars.iter().rev().map(String::as_str)).map(Var::new),
        );

        let mut dict = Dictionary::new();
        let by_row = lift_result(&rs, &outputs, &schema, &mut dict);
        let terms_after_rows = dict.len();
        let by_col = lift_result_cols(&rs, &outputs, &schema, &mut dict);
        assert_eq!(dict.len(), terms_after_rows, "the columnar lift met only known terms");
        assert_eq!((by_row.len(), by_col.rows), (rs.rows.len(), rs.rows.len()));
        for (r, row) in rs.rows.iter().enumerate() {
            for (i, ob) in outputs.iter().enumerate() {
                let slot = schema.slot(&ob.var).unwrap();
                let expected = match (&row[i], &ob.lift) {
                    (Value::Null, _) => None,
                    (v, Lift::SubjectIri(t) | Lift::RefIri(t)) => {
                        Some(fedlake_rdf::Term::iri(t.apply(&value_key(v))))
                    }
                    (v, Lift::Literal(dt)) => Some(value_to_term(v, *dt)),
                };
                // `id()` never interns: the term must already be there,
                // under the id both lifts wrote.
                let expected = expected
                    .map(|t| dict.id(&t).unwrap_or_else(|| panic!("{t} not interned")));
                assert_eq!(by_row[r].get(slot), expected, "row-major, row {r} column {i}");
                let cell = by_col.cols[slot][r];
                let cell = (cell != TermId::UNBOUND).then_some(cell);
                assert_eq!(cell, expected, "columnar, row {r} column {i}");
            }
            assert_eq!(by_row[r].get(0), None);
            assert_eq!(by_col.cols[0][r], TermId::UNBOUND);
        }
        // Interning the whole terms afterwards adds nothing either.
        dict.intern(fedlake_rdf::Term::iri(gene.apply("a b/c%é")));
        dict.intern(value_to_term(&Value::Double(1e21), DataType::Double));
        assert_eq!(dict.len(), terms_after_rows);
    }

    /// The service leaf of the test lake's gene star (`?g`, `?l`).
    fn gene_node(lake: &DataLake) -> ServiceNode {
        let star = decompose(
            &parse_query("SELECT * WHERE { ?g a <http://v/Gene> . ?g <http://v/label> ?l }")
                .unwrap(),
        )
        .unwrap()
        .stars
        .remove(0);
        let (tm, schema) = match lake.source("d").unwrap() {
            DataSource::Relational { db, mapping, .. } => (
                mapping.for_table("gene").unwrap().clone(),
                db.table("gene").unwrap().schema.clone(),
            ),
            _ => unreachable!("lake() builds a relational source"),
        };
        let q = sql_single(&star_part(&star, &tm, &schema, &[], "s0").unwrap());
        ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(q),
                covers: vec!["?g".into()],
            },
            estimated_rows: 5.0,
        }
    }

    #[test]
    fn sql_stream_lifts_rows() {
        let lake = lake();
        let node = gene_node(&lake);
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::GAMMA2,
            Arc::clone(&clock),
            CostModel::default(),
            7,
        ));
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g", "l"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        assert_eq!(rows.len(), 5);
        let decoded = decode(&c, &rows);
        assert!(decoded[0]
            .get(&Var::new("g"))
            .unwrap()
            .as_iri()
            .unwrap()
            .starts_with("http://d/gene/"));
        assert_eq!(c.stats.sql_queries, 1);
        // 1 request + 5 per-row messages.
        assert_eq!(link.stats().messages, 6);
        assert!(c.clock.now() > Duration::ZERO);
    }

    /// A lone leaf has nothing to overlap with: draining it takes the same
    /// rows, the same traffic and the same simulated time whether its waits
    /// surface as events or are sat out on the spot — and only the former
    /// ever touches the event queue.
    #[test]
    fn drain_times_a_lone_leaf_the_same_under_either_policy() {
        let lake = lake();
        let node = gene_node(&lake);
        let run = |serialized: bool, rows_per_message: usize| {
            let clock = shared_virtual();
            let link = Arc::new(Link::new(
                NetworkProfile::GAMMA2,
                Arc::clone(&clock),
                CostModel::default(),
                7,
            ));
            let route = SourceRoute::single("d", Arc::clone(&link));
            let mut op = open_service(&node, &lake, route, rows_per_message).unwrap();
            let mut c = ctx(clock, &["g", "l"]);
            if serialized {
                c = c.serialized();
            }
            let rows = drain(op.as_mut(), &mut c).unwrap();
            assert!(c.sched.is_empty());
            let events_scheduled = c.sched.schedule(Duration::ZERO).seq;
            (decode(&c, &rows), c.clock.now(), link.stats(), c.stats, events_scheduled)
        };
        for rows_per_message in [1, 2] {
            let (rows, end, traffic, stats, events) = run(false, rows_per_message);
            let (s_rows, s_end, s_traffic, s_stats, s_events) = run(true, rows_per_message);
            assert_eq!(rows.len(), 5);
            assert_eq!((rows, end, traffic, stats), (s_rows, s_end, s_traffic, s_stats));
            // One event for the request + evaluation, one per result message.
            assert_eq!(events, traffic.messages);
            assert_eq!(s_events, 0, "a serialized wait never becomes an event");
        }
    }

    #[test]
    fn empty_result_still_messages() {
        let lake = lake();
        let node = ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: "SELECT g.id AS i FROM gene g WHERE g.id = 'zzz'".into(),
                    outputs: Vec::new(),
                }),
                covers: Vec::new(),
            },
            estimated_rows: 0.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            7,
        ));
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g"]);
        assert!(drain(op.as_mut(), &mut c).unwrap().is_empty());
        // Request + empty answer.
        assert_eq!(link.stats().messages, 2);
    }

    #[test]
    fn sparql_stream_evaluates_star() {
        let mut g = fedlake_rdf::Graph::new();
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/x"),
            fedlake_rdf::Term::iri("http://v/p"),
            fedlake_rdf::Term::integer(5),
        );
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/y"),
            fedlake_rdf::Term::iri("http://v/p"),
            fedlake_rdf::Term::integer(50),
        );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("r", g));
        let d = decompose(
            &parse_query("SELECT * WHERE { ?s <http://v/p> ?o . FILTER(?o > 10) }").unwrap(),
        )
        .unwrap();
        let node = ServiceNode {
            source_id: "r".into(),
            route: None,
            kind: ServiceKind::Sparql {
                star: d.stars[0].clone(),
                filters: d.stars[0].filters.clone(),
            },
            estimated_rows: 1.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
        ));
        let mut op = open_service(&node, &lake, SourceRoute::single("r", link), 1).unwrap();
        let mut c = ctx(clock, &["s", "o"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn naive_stream_issues_n_plus_one_queries() {
        let lake = lake();
        let (gene_tm, disease_tm, gene_schema, disease_schema) =
            match lake.source("d").unwrap() {
                DataSource::Relational { db, mapping, .. } => (
                    mapping.for_table("gene").unwrap().clone(),
                    mapping.for_table("disease").unwrap().clone(),
                    db.table("gene").unwrap().schema.clone(),
                    db.table("disease").unwrap().schema.clone(),
                ),
                _ => unreachable!("lake() builds a relational source"),
            };
        let d = decompose(
            &parse_query(
                "SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/disease> ?d . \
                 ?d <http://v/name> ?n }",
            )
            .unwrap(),
        )
        .unwrap();
        let outer =
            sql_single(&star_part(&d.stars[0], &gene_tm, &gene_schema, &[], "s0").unwrap());
        let inner = star_part(&d.stars[1], &disease_tm, &disease_schema, &[], "s1").unwrap();
        let node = ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::MergedNaive {
                    outer,
                    inner,
                    join: NaiveJoin {
                        outer_var: Var::new("d"),
                        inner_col: "id".into(),
                        extract: Some(IriTemplate::new("http://d/disease/{}")),
                    },
                },
                covers: vec!["?g".into(), "?d".into()],
            },
            estimated_rows: 5.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            3,
        ));
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g", "l", "d", "n"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        // Every gene has a disease with a name.
        assert_eq!(rows.len(), 5);
        // 1 outer + 5 inner queries.
        assert_eq!(c.stats.sql_queries, 6);
        // Rows bind variables from both stars.
        let decoded = decode(&c, &rows);
        assert!(decoded[0].is_bound(&Var::new("n")));
        assert!(decoded[0].is_bound(&Var::new("l")));
    }

    /// The bind-join target of the test lake: the `disease` star, keyed by
    /// the disease IRIs `?d` binds.
    fn disease_target(lake: &DataLake) -> BindTarget {
        let (tm, schema) = match lake.source("d").unwrap() {
            DataSource::Relational { db, mapping, .. } => (
                mapping.for_table("disease").unwrap().clone(),
                db.table("disease").unwrap().schema.clone(),
            ),
            _ => unreachable!("lake() builds a relational source"),
        };
        let star = decompose(
            &parse_query("SELECT * WHERE { ?d <http://v/name> ?n }").unwrap(),
        )
        .unwrap()
        .stars
        .remove(0);
        BindTarget {
            source_id: "d".into(),
            route: None,
            part: star_part(&star, &tm, &schema, &[], "s0").unwrap(),
            join_var: Var::new("d"),
            column: "id".into(),
            extract: Some(IriTemplate::new("http://d/disease/{}")),
            covers: "?d".into(),
            estimated_rows: 2.0,
        }
    }

    /// What one bind-join execution leaves behind: the decoded answers, the
    /// engine counters, the simulated end time and the link's traffic.
    type BindRun = (Vec<Row>, EngineStats, Duration, (u64, u64, Duration));

    /// Runs a bind join of `left` (one row per term, bound to `?d`, two
    /// rows per batch) against the disease target on a fresh clock and
    /// link, with the interner and lift cache of `session`.
    fn run_bind(
        lake: &DataLake,
        session: &(SharedInterner, SharedLiftCache),
        vars: &[&str],
        left: &[Option<Term>],
        overlap: bool,
    ) -> BindRun {
        let clock = shared_virtual();
        let link =
            Arc::new(Link::new(NetworkProfile::GAMMA1, Arc::clone(&clock), CostModel::default(), 7));
        let mut c = ctx(Arc::clone(&clock), vars).with_lifts(Arc::clone(&session.1));
        if !overlap {
            c = c.serialized();
        }
        c.interner = session.0.clone();
        let rows = left
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut r = Row::new().with("g", Term::iri(format!("http://d/gene/g{i}")));
                if let Some(d) = d {
                    r.bind(Var::new("d"), d.clone());
                }
                encode_row(&r, &c.schema, &mut c.interner.lock())
            })
            .collect();
        let mut op = BindJoinOp::new(
            Box::new(crate::operators::RowsOp::new(rows)),
            &disease_target(lake),
            lake,
            SourceRoute::single("d", Arc::clone(&link)),
            1,
            2,
        )
        .unwrap();
        let out = drain(&mut op, &mut c).unwrap();
        assert!(c.sched.is_empty(), "every event was completed, or none was ever scheduled");
        let traffic = link.stats();
        (
            decode(&c, &out),
            c.stats,
            c.clock.now(),
            (traffic.messages, traffic.rows, traffic.delay),
        )
    }

    fn disease(id: &str) -> Option<Term> {
        Some(Term::iri(format!("http://d/disease/{id}")))
    }

    #[test]
    fn a_batch_hit_replays_what_the_miss_produced() {
        let lake = lake();
        // Three batches of two left rows; the third repeats the first's
        // key set, so it already hits within the first execution.
        let left = [disease("d0"), disease("d1"), disease("d1"), None, disease("d0"), disease("d1")];
        for overlap in [false, true] {
            let session = (SharedInterner::new(), SharedLiftCache::default());
            let miss = run_bind(&lake, &session, &["g", "d", "n"], &left, overlap);
            let after_miss = session.1.stats();
            assert_eq!((after_miss.lookups, after_miss.misses, after_miss.hits), (3, 2, 1));
            let hit = run_bind(&lake, &session, &["g", "d", "n"], &left, overlap);
            let after_hit = session.1.stats();
            assert_eq!((after_hit.lookups, after_hit.misses, after_hit.hits), (6, 2, 4));
            assert_eq!(miss, hit, "overlap={overlap}: a hit may only change host time");
            let (rows, stats, _, (messages, shipped, _)) = miss;
            assert_eq!(rows.len(), 5, "every left row binding ?d finds its disease");
            assert!(rows.iter().all(|r| r.is_bound(&Var::new("n"))));
            // One request per batch; 2 + 1 + 2 result rows, one per message.
            assert_eq!((stats.sql_queries, stats.service_rows), (3, 5));
            assert_eq!((messages, shipped), (3 + 5, 5));
        }
    }

    #[test]
    fn equal_key_ids_under_two_slot_layouts_do_not_share_an_entry() {
        let lake = lake();
        let session = (SharedInterner::new(), SharedLiftCache::default());
        let left = [disease("d0"), disease("d1")];
        let a = run_bind(&lake, &session, &["g", "d", "n"], &left, false);
        // The same terms — the same ids — with every slot somewhere else.
        let b = run_bind(&lake, &session, &["n", "d", "g"], &left, false);
        let stats = session.1.stats();
        assert_eq!((stats.lookups, stats.misses, stats.hits), (2, 2, 0), "{stats:?}");
        assert_eq!(a, b, "both layouts decode to the same answers");
        assert_eq!(a.0.len(), 2);
    }

    #[test]
    fn a_batch_without_an_extractable_key_asks_nothing() {
        let lake = lake();
        let session = (SharedInterner::new(), SharedLiftCache::default());
        // An IRI the target's template did not mint, a literal where it
        // expects an IRI, a template match with an empty key, and rows
        // that do not bind the join variable at all.
        let left = [
            Some(Term::iri("http://elsewhere/disease/d0")),
            Some(Term::literal("d0")),
            Some(Term::iri("http://d/disease/")),
            None,
        ];
        for overlap in [false, true] {
            let (rows, stats, end, traffic) =
                run_bind(&lake, &session, &["g", "d", "n"], &left, overlap);
            assert!(rows.is_empty());
            assert_eq!(stats, EngineStats::default(), "no request, no probe");
            assert_eq!((end, traffic), (Duration::ZERO, (0, 0, Duration::ZERO)));
            assert_eq!(session.1.stats(), CacheStats::default(), "no lookup");
        }
    }

    /// One message over `route` right now, waited for: the chain is
    /// scheduled at the clock's time and the clock jumps to where it ends.
    fn transfer_now(route: &SourceRoute, rows: usize, c: &mut ExecCtx) -> Result<(), FedError> {
        let (end, result) = match schedule_transfer_with_retry(route, rows, c.clock.now(), c) {
            Ok(done) => (done, Ok(())),
            Err(x) => (x.at, Err(x.error)),
        };
        c.clock.advance_to(end);
        result
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let clock = shared_virtual();
        // Attempts 0 and 1 hit the outage; attempt 2 succeeds.
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: 2,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        transfer_now(&route, 1, &mut c).unwrap();
        assert_eq!(c.stats.retries, 2);
        let s = link.stats();
        assert_eq!((s.messages, s.outage_faults), (1, 2));
        // Two detection timeouts (10 ms each) plus backoff 2 ms + 4 ms,
        // then the delivery's transfer cost.
        assert_eq!(c.clock.now(), Duration::from_nanos(26_004_600));
    }

    #[test]
    fn exhausted_retry_budget_is_source_unavailable() {
        let clock = shared_virtual();
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: u64::MAX,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(clock, &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let err = transfer_now(&route, 1, &mut c).unwrap_err();
        assert_eq!(
            err,
            FedError::SourceUnavailable { source: "s".into(), attempts: 3 }
        );
        assert_eq!(c.stats.retries, 2);
        assert_eq!(link.stats().messages, 0);
    }

    fn dead_link(clock: &fedlake_netsim::SharedClock, seed: u64) -> Arc<Link> {
        Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(clock),
            CostModel::default(),
            seed,
            fedlake_netsim::FaultPlan {
                outage_after: Some(0),
                outage_len: u64::MAX,
                ..fedlake_netsim::FaultPlan::NONE
            },
        ))
    }

    fn live_link(clock: &fedlake_netsim::SharedClock, seed: u64) -> Arc<Link> {
        Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(clock),
            CostModel::default(),
            seed,
        ))
    }

    #[test]
    fn failover_rescues_a_dead_primary() {
        let clock = shared_virtual();
        let dead = dead_link(&clock, 1);
        let live = live_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&dead)), ("s#r1".into(), Arc::clone(&live))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        transfer_now(&route, 1, &mut c).unwrap();
        // Full budget burnt on r0 (2 intra-replica retries + the failover
        // switch), then r1 delivers on its first attempt.
        assert_eq!(c.stats.retries, 3);
        assert_eq!(dead.stats().faults(), 3);
        assert_eq!(live.stats().messages, 1);
        assert_eq!(route.active_endpoint(), "s#r1");
        // The stream is sticky: follow-up messages go straight to r1.
        transfer_now(&route, 1, &mut c).unwrap();
        assert_eq!(live.stats().messages, 2);
        assert_eq!(dead.stats().faults(), 3);
    }

    #[test]
    fn exhausting_every_replica_names_the_logical_source() {
        let clock = shared_virtual();
        let r0 = dead_link(&clock, 1);
        let r1 = dead_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&r0)), ("s#r1".into(), Arc::clone(&r1))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let err = transfer_now(&route, 1, &mut c).unwrap_err();
        assert_eq!(
            err,
            FedError::SourceUnavailable { source: "s".into(), attempts: 6 }
        );
        // Six detection timeouts and, on each replica, backoffs 2 ms + 4 ms.
        assert_eq!(c.clock.now(), Duration::from_millis(72));
        // Every non-terminal failure counts: 2 + 2 intra-replica retries
        // plus the one failover switch.
        assert_eq!(c.stats.retries, 5);
        assert_eq!(r0.stats().faults(), 3);
        assert_eq!(r1.stats().faults(), 3);
    }

    /// The failover chain, pinned to where the blocking retry loop left
    /// the clock before the two chains became one.
    #[test]
    fn failover_chain_lands_at_the_pinned_time() {
        let clock = shared_virtual();
        let dead = dead_link(&clock, 1);
        let live = live_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&dead)), ("s#r1".into(), Arc::clone(&live))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let done = schedule_transfer_with_retry(&route, 1, Duration::ZERO, &mut c).unwrap();
        assert_eq!(c.stats.retries, 3);
        assert_eq!(dead.stats().faults(), 3);
        assert_eq!(live.stats().messages, 1);
        assert_eq!(route.active_endpoint(), "s#r1");
        // 3 detection timeouts (10 ms) + backoffs 2 ms + 4 ms on r0, then
        // r1's delivery (4.6 µs of transfer cost on a NoDelay link).
        assert_eq!(done, Duration::from_nanos(36_004_600));
        // The chain occupied the links; nobody has waited for it yet.
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!((dead.local_time(), live.local_time()), (Duration::from_millis(36), done));
    }

    #[test]
    fn backoff_is_clamped_at_the_deadline() {
        let clock = shared_virtual();
        // Attempt 0 fails, attempt 1 succeeds: exactly one backoff pause.
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: 1,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy {
            max_attempts: 2,
            timeout: Duration::from_millis(1),
            backoff: Duration::from_secs(10),
        };
        c.deadline = Some(Duration::from_millis(5));
        transfer_now(&route, 1, &mut c).unwrap();
        // Timeout 1 ms, then the 10 s backoff clamps to the 4 ms left
        // before the deadline: the clock lands on the deadline plus the
        // final delivery's transfer cost, not 10 s past it.
        assert_eq!(c.clock.now(), Duration::from_nanos(5_004_600));
    }

    #[test]
    fn a_replica_route_naming_no_endpoint_is_a_typed_error() {
        let clock = shared_virtual();
        let links: std::collections::HashMap<String, Arc<Link>> =
            [("s".to_string(), live_link(&clock, 1))].into();
        let nowhere = ReplicaRoute { endpoints: Vec::new(), reason: "by hand".into() };
        let err = route_for("s", &Some(nowhere), &links).unwrap_err();
        assert!(matches!(err, FedError::Internal(_)), "{err}");
        assert_eq!(route_for("s", &None, &links).unwrap().active_endpoint(), "s");
    }

    #[test]
    fn links_are_deterministic_and_distinct() {
        let lake = lake();
        let clock = shared_virtual();
        let links = links_for(
            &lake,
            NetworkProfile::GAMMA1,
            clock,
            CostModel::default(),
            42,
            &fedlake_netsim::FaultPlans::default(),
            &crate::obs::TraceSink::disabled(),
            &crate::obs::FlightRecorder::disabled(),
        );
        assert_eq!(links.len(), 1);
        let (m, r, d) = total_traffic(&links);
        assert_eq!((m, r), (0, 0));
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn replicated_lake_gets_one_link_per_endpoint() {
        let mut lake = lake();
        lake.set_replicas("d", 3);
        let clock = shared_virtual();
        let links = links_for(
            &lake,
            NetworkProfile::GAMMA1,
            clock,
            CostModel::default(),
            42,
            &fedlake_netsim::FaultPlans::default(),
            &crate::obs::TraceSink::disabled(),
            &crate::obs::FlightRecorder::disabled(),
        );
        assert_eq!(links.len(), 3);
        for k in ["d#r0", "d#r1", "d#r2"] {
            assert!(links.contains_key(k), "missing link for {k}");
        }
        assert!(!links.contains_key("d"));
    }

    #[test]
    fn source_failures_fold_replicas_into_the_logical_id() {
        let clock = shared_virtual();
        let r0 = dead_link(&clock, 1);
        let r1 = dead_link(&clock, 2);
        let _ = r0.try_transfer_message(1);
        let _ = r0.try_transfer_message(1);
        let _ = r1.try_transfer_message(1);
        let links: std::collections::HashMap<String, Arc<Link>> =
            [("s#r0".to_string(), r0), ("s#r1".to_string(), r1)].into();
        let failures = source_failures(&links);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures["s"], 3);
    }
}
