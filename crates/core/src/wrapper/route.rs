//! Routes, the retry-and-failover chain a message crosses them by, and
//! the link maps they are resolved against.

use crate::error::FedError;
use crate::fedplan::ReplicaRoute;
use crate::lake::{logical_source_id, DataLake};
use crate::obs::SourceSpan;
use crate::operators::{ExecCtx, Wait};
use fedlake_netsim::{DelayTapes, EventTime, Link};
use std::cell::Cell;
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
    /// A plain cell: a route serves one stream of one session, on that
    /// session's thread, like the links it holds.
    active: Cell<usize>,
}

impl SourceRoute {
    /// A route over explicit endpoints, preferred first. Panics on an
    /// empty endpoint list — a route must lead somewhere.
    pub(crate) fn new(logical: impl Into<String>, endpoints: Vec<(String, Arc<Link>)>) -> Self {
        // Invariant: `endpoints[active]` always exists. A plan reaches this
        // through `route_for`, which turns an empty replica route into a
        // typed error first; only a route written out by hand can trip it.
        assert!(!endpoints.is_empty(), "a route needs at least one endpoint");
        SourceRoute { logical: logical.into(), endpoints, active: Cell::new(0) }
    }

    /// The unreplicated route: one endpoint, named like the source.
    pub fn single(id: impl Into<String>, link: Arc<Link>) -> Self {
        let id = id.into();
        SourceRoute::new(id.clone(), vec![(id, link)])
    }

    /// The logical source id this route serves.
    pub(crate) fn logical(&self) -> &str {
        &self.logical
    }

    fn len(&self) -> usize {
        self.endpoints.len()
    }

    fn active(&self) -> usize {
        self.active.get()
    }

    fn set_active(&self, idx: usize) {
        self.active.set(idx);
    }

    fn endpoint(&self, idx: usize) -> (&str, &Link) {
        let (id, link) = &self.endpoints[idx];
        (id.as_str(), link.as_ref())
    }

    /// The endpoint currently serving the stream.
    pub(crate) fn active_endpoint(&self) -> &str {
        &self.endpoints[self.active()].0
    }

    /// The link currently serving the stream.
    pub(crate) fn active_link(&self) -> &Link {
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
pub(super) fn message_size(rows_per_message: usize) -> Result<usize, FedError> {
    if rows_per_message == 0 {
        return Err(FedError::Unsupported(
            "rows_per_message = 0: a message must carry at least one row".into(),
        ));
    }
    Ok(rows_per_message)
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
pub(super) struct Landing {
    wait: Wait,
    failed: Option<Box<RouteExhausted>>,
}

impl Landing {
    /// Starts waiting for `chain` (see [`ExecCtx::wait_until`]).
    pub(super) fn of(chain: Result<Duration, Box<RouteExhausted>>, ctx: &mut ExecCtx) -> Self {
        match chain {
            Ok(done) => Landing { wait: ctx.wait_until(done), failed: None },
            Err(x) => Landing { wait: ctx.wait_until(x.at), failed: Some(x) },
        }
    }

    /// The event to report as [`Poll::Pending`] while the chain is in the
    /// air; once the wait is over, `None` — or the chain's error.
    pub(super) fn poll(&mut self, ctx: &mut ExecCtx) -> Result<Option<EventTime>, FedError> {
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
        ctx.obs.source_span(SourceSpan::Timeout, endpoint, done, failed_at, 0);
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
        ctx.obs.retry(failed_at, endpoint, attempt);
        if budget_spent {
            // Immediate failover: the successor picks up at the
            // predecessor's failure time, no backoff.
            at = failed_at;
            let (next, _) = route.endpoint(idx + 1);
            route.set_active(idx + 1);
            ctx.obs.failover(at, route.logical(), endpoint, next);
            idx += 1;
            attempt = 0;
        } else {
            let pause = clamped_backoff(&policy, attempt, ctx.deadline, failed_at);
            at = link.schedule_busy(pause, failed_at);
            ctx.obs.source_span(SourceSpan::Backoff { attempt }, endpoint, failed_at, at, 0);
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
/// `obs`, the recorder handle of the query (or of the fleet) the links
/// serve, attaches as their network observer when it keeps anything —
/// observation only, so link behaviour is byte-identical either way.
/// Every link reads its delays from its tape in `tapes` (a fault-active
/// link ignores it), so the same timing costs a warm engine no draws.
#[allow(clippy::too_many_arguments)]
pub(crate) fn links_for(
    lake: &DataLake,
    profile: fedlake_netsim::NetworkProfile,
    clock: fedlake_netsim::SharedClock,
    cost: fedlake_netsim::CostModel,
    seed: u64,
    faults: &fedlake_netsim::FaultPlans,
    tapes: &DelayTapes,
    obs: &crate::obs::QueryObs,
) -> std::collections::HashMap<String, Arc<Link>> {
    let observer = obs.net_observer();
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
            )
            .with_tape(tapes.tape(link_seed, profile.delay));
            if let Some(obs) = &observer {
                link = link.with_observer(&endpoint, Arc::clone(obs));
            }
            links.insert(endpoint, link.shared());
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
