//! Deterministic per-endpoint health accounting for source selection.
//!
//! Odyssey-style: statistics observed while *executing* queries feed back
//! into *planning* the next one. After every query the engine folds each
//! link's transfer counters into this registry; at plan time the planner
//! orders replica endpoints healthiest-first and (with `degraded_ok`) can
//! skip a source whose endpoints are all past the failure threshold. The
//! registry is plain arithmetic over [`fedlake_netsim::link::LinkStats`]
//! counters, which are themselves deterministic, so two sessions replaying
//! the same queries reach identical health states and thus identical
//! plans.

use fedlake_netsim::Link;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Observed reliability of one endpoint (a source id or a replica
/// endpoint id such as `"chebi#r1"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointHealth {
    /// Messages delivered successfully.
    pub successes: u64,
    /// Failed transfer attempts (drops, truncations, outage hits).
    pub failures: u64,
}

/// The registry's guarded state: the counters plus their generation.
#[derive(Debug, Default)]
struct HealthState {
    endpoints: BTreeMap<String, EndpointHealth>,
    /// Bumped whenever a *planning-relevant* observation lands (failures
    /// change routing; successes never do) and on reset. The plan cache
    /// uses it as a cheap "health unchanged" fast path.
    generation: u64,
}

/// Session-scoped health registry: endpoint id → observed counters.
///
/// Lives on the engine behind a mutex so the `&self` executors can feed
/// it; snapshots are `BTreeMap`s so iteration order (and therefore every
/// routing decision derived from one) is deterministic.
#[derive(Debug, Default)]
pub struct SourceHealth {
    inner: Mutex<HealthState>,
}

impl SourceHealth {
    /// An empty registry (every endpoint presumed healthy).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Folds `successes` delivered messages and `failures` failed attempts
    /// into the endpoint's counters.
    pub fn observe(&self, endpoint: &str, successes: u64, failures: u64) {
        if successes == 0 && failures == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if failures > 0 {
            inner.generation += 1;
        }
        // The id is copied only the first time the endpoint is seen.
        let h = match inner.endpoints.get_mut(endpoint) {
            Some(h) => h,
            None => inner.endpoints.entry(endpoint.to_string()).or_default(),
        };
        h.successes += successes;
        h.failures += failures;
    }

    /// Folds a query's link counters into the registry, one entry per
    /// endpoint (the link map is keyed by endpoint id).
    pub(crate) fn record_links(&self, links: &HashMap<String, Arc<Link>>) {
        for (endpoint, link) in links {
            let s = link.stats();
            self.observe(endpoint, s.messages, s.faults());
        }
    }

    /// A deterministic snapshot of all endpoint counters.
    pub(crate) fn snapshot(&self) -> BTreeMap<String, EndpointHealth> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).endpoints.clone()
    }

    /// Monotone generation of planning-relevant health state: moves when
    /// failures are recorded, never on success-only traffic (successes
    /// cannot change a routing decision).
    pub(crate) fn generation(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).generation
    }

    /// Exports the registry into `metrics` as
    /// `health.<endpoint>.successes` / `health.<endpoint>.failures`
    /// counters, so an exposition snapshot carries endpoint health next
    /// to the serve rollup. Read-only over the registry; iteration is the
    /// snapshot's `BTreeMap` order, so the export is deterministic.
    pub(crate) fn fold_into(&self, metrics: &mut crate::obs::MetricsRegistry) {
        for (endpoint, h) in self.snapshot() {
            metrics.counter_add(&format!("health.{endpoint}.successes"), h.successes);
            metrics.counter_add(&format!("health.{endpoint}.failures"), h.failures);
        }
    }
}

/// The planner's read-only view of session health: a failure snapshot
/// plus the demotion threshold an endpoint must stay under to count as
/// healthy.
#[derive(Debug, Clone, Default)]
pub struct HealthView {
    /// Endpoint id → counters, from `SourceHealth::snapshot`.
    pub endpoints: BTreeMap<String, EndpointHealth>,
    /// Failure count at which an endpoint is considered degraded.
    pub threshold: u64,
    /// The registry generation the snapshot was taken at (see
    /// `SourceHealth::generation`); the plan cache's fast-path guard.
    pub generation: u64,
}

impl HealthView {
    /// An empty view: nothing observed, nothing degraded (the behaviour
    /// of a fresh session, and of every pre-health code path).
    pub fn empty() -> Self {
        HealthView { endpoints: BTreeMap::new(), threshold: u64::MAX, generation: 0 }
    }

    /// Recorded failures for `endpoint`.
    pub(crate) fn failures_of(&self, endpoint: &str) -> u64 {
        self.endpoints.get(endpoint).map_or(0, |h| h.failures)
    }

    /// True when the endpoint has reached the demotion threshold.
    pub(crate) fn is_degraded(&self, endpoint: &str) -> bool {
        self.failures_of(endpoint) >= self.threshold
    }

    /// True when *every* endpoint in `endpoints` is degraded — the
    /// condition for skipping a whole logical source.
    pub(crate) fn all_degraded<'a>(&self, mut endpoints: impl Iterator<Item = &'a str>) -> bool {
        endpoints.all(|e| self.is_degraded(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_accumulates() {
        let h = SourceHealth::new();
        h.observe("a#r0", 10, 2);
        h.observe("a#r0", 5, 1);
        h.observe("a#r1", 7, 0);
        h.observe("ghost", 0, 0); // no-op, no entry
        let snap = h.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["a#r0"], EndpointHealth { successes: 15, failures: 3 });
        assert_eq!(snap["a#r1"], EndpointHealth { successes: 7, failures: 0 });
    }

    #[test]
    fn generation_moves_only_on_planning_relevant_changes() {
        let h = SourceHealth::new();
        assert_eq!(h.generation(), 0);
        h.observe("a", 10, 0); // success-only traffic: no routing impact
        assert_eq!(h.generation(), 0);
        h.observe("a", 0, 1);
        assert_eq!(h.generation(), 1);
        h.observe("b", 3, 2);
        assert_eq!(h.generation(), 2);
    }

    #[test]
    fn view_thresholds() {
        let h = SourceHealth::new();
        h.observe("a#r0", 0, 8);
        h.observe("a#r1", 20, 1);
        let view = HealthView { endpoints: h.snapshot(), threshold: 8, generation: h.generation() };
        assert!(view.is_degraded("a#r0"));
        assert!(!view.is_degraded("a#r1"));
        assert!(!view.is_degraded("never-seen"));
        assert!(!view.all_degraded(["a#r0", "a#r1"].into_iter()));
        assert!(view.all_degraded(["a#r0"].into_iter()));
        // The empty view degrades nothing, ever.
        let empty = HealthView::empty();
        assert!(!empty.is_degraded("a#r0"));
    }
}
