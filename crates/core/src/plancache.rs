//! The plan cache.
//!
//! Repeat traffic from the serving layer is dominated by a handful of
//! templated query shapes, yet every job used to pay full decomposition +
//! source selection + (cost-based) DP enumeration. [`PlanCache`] memoizes
//! whole [`PlannedQuery`]s behind a conservative key so a hit replays the
//! *byte-identical* plan a cold run would have built — the very plan, shared
//! behind an `Arc` (`CachedPlan`) with its EXPLAIN text:
//!
//! * **Key** — `(query fingerprint, config fingerprint)` from
//!   [`crate::ir`]: the SPARQL AST and the full planner configuration,
//!   each folded as written. Conservative by construction: different text
//!   ⇒ different key, so a hit can never cross queries or configs. The
//!   plan's own fingerprint (`PlanReport::fingerprint`) is no part of the
//!   key: it is a label EXPLAIN and the flight recorder carry.
//! * **Validation** — the workspace's one cache contract
//!   ([`fedlake_relational::cache`]): an entry is stamped with the lake
//!   epoch it was planned under, and a lookup under another epoch
//!   (`source_mut` / `refresh_templates` / `set_replicas` /
//!   `statistics_mut`) is a stale miss that drops it. On top of the
//!   epoch, each entry remembers an FNV digest of the health inputs
//!   (failure counts + threshold) over exactly the replica endpoints its
//!   plan touches, so a health flip on a *relevant* endpoint invalidates
//!   exactly the affected entries while unrelated churn leaves them live.
//!   The health-view generation is a fast path: if it has not moved since
//!   the entry was validated, the digest is known unchanged and is not
//!   recomputed.
//! * **Bounds** — [`fedlake_relational::cache::CACHE_CAPACITY`] entries,
//!   deterministic LRU.
//!
//! The cache is engine-internal: [`crate::FederatedEngine::plan`] probes
//! it on every call and [`PlanCacheStats`] reconciles every probe
//! (`lookups = hits + misses`, invalidations ≤ misses).

use crate::fedplan::FedPlan;
use crate::health::HealthView;
use crate::lake::DataLake;
use crate::planner::PlannedQuery;
use fedlake_relational::cache::{CacheStats, VersionedCache};
use std::sync::{Arc, OnceLock};

/// Monotone counters for every cache outcome. `lookups == hits + misses`
/// always holds; `invalidations` counts misses caused by epoch/health
/// revalidation failure; `evictions` counts capacity removals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Probes against the cache.
    pub lookups: u64,
    /// Probes that replayed a cached plan.
    pub hits: u64,
    /// Probes that fell through to cold planning.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Entries dropped because the lake epoch or the relevant health
    /// digest moved (a subset of `misses`; [`CacheStats::stale`]).
    pub invalidations: u64,
}

/// Where a plan came from: the cache, or cold planning. Carried alongside
/// the plan (never inside it) so cached and cold [`PlannedQuery`]s stay
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOrigin {
    /// True when the plan was replayed from the cache.
    pub cached: bool,
}

/// A planned query as the cache keeps it: the plan, and EXPLAIN's text of
/// it, rendered the first time the plan is executed and kept for every
/// execution after. A plan that is only planned (a serve job's) renders
/// none.
#[derive(Debug)]
pub(crate) struct CachedPlan {
    pub(crate) planned: PlannedQuery,
    explain: OnceLock<Box<str>>,
}

impl CachedPlan {
    pub(crate) fn new(planned: PlannedQuery) -> Self {
        CachedPlan { planned, explain: OnceLock::new() }
    }

    /// [`crate::explain::explain_plan`] of the plan, rendered once and kept
    /// at its exact length.
    pub(crate) fn explain(&self) -> &str {
        self.explain.get_or_init(|| crate::explain::explain_plan(&self.planned.plan).into())
    }
}

#[derive(Debug, Clone)]
struct Entry {
    health_generation: u64,
    health_digest: u64,
    sources: Arc<[String]>,
    planned: Arc<CachedPlan>,
}

/// The bounded, deterministic plan cache.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: VersionedCache<(u64, u64), Entry, fedlake_rdf::BuildFastHasher>,
}

impl PlanCache {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Counter snapshot in the shared cache vocabulary.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        let s = self.entries.stats();
        PlanCacheStats {
            lookups: s.lookups,
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            invalidations: s.stale,
        }
    }

    /// Probes for `key`, revalidating against the current lake epoch and
    /// health inputs. `digest` recomputes the health digest over the
    /// entry's relevant sources; it is skipped when `health_generation`
    /// has not moved since the entry was last validated.
    pub(crate) fn lookup(
        &mut self,
        key: (u64, u64),
        lake_epoch: u64,
        health_generation: u64,
        digest: impl FnOnce(&[String]) -> u64,
    ) -> Option<Arc<CachedPlan>> {
        let entry = self.entries.lookup_if(&key, lake_epoch, |entry| {
            if entry.health_generation != health_generation {
                if digest(&entry.sources) != entry.health_digest {
                    return false;
                }
                entry.health_generation = health_generation;
            }
            true
        })?;
        Some(entry.planned)
    }

    /// Inserts a cold-planned query.
    pub(crate) fn insert(
        &mut self,
        key: (u64, u64),
        lake_epoch: u64,
        health_generation: u64,
        health_digest: u64,
        sources: Vec<String>,
        planned: Arc<CachedPlan>,
    ) {
        self.entries.insert(
            key,
            lake_epoch,
            Entry { health_generation, health_digest, sources: sources.into(), planned },
        );
    }
}

/// The logical sources a plan contacts (service leaves + bind-join
/// targets) plus the sources it skipped as degraded — everything whose
/// health can change what planning would produce. Sorted and deduped so
/// digests are order-independent.
pub(crate) fn plan_sources(planned: &PlannedQuery) -> Vec<String> {
    let mut sources = Vec::new();
    planned.plan.visit(0, &mut |node, _| match node {
        FedPlan::Service(s) => sources.push(s.source_id.clone()),
        FedPlan::BindJoin { right, .. } => sources.push(right.source_id.clone()),
        _ => {}
    });
    sources.extend(planned.skipped_sources.iter().cloned());
    sources.sort_unstable();
    sources.dedup();
    sources
}

/// FNV digest of every health input that can steer planning for the given
/// logical sources: the view threshold plus, per replica endpoint in the
/// lake's deterministic order, its recorded failure count.
pub(crate) fn health_digest(lake: &DataLake, view: &HealthView, sources: &[String]) -> u64 {
    let mut h = crate::ir::Fnv64::new();
    h.push_u64(view.threshold);
    for source in sources {
        h.push_str(source);
        for endpoint in lake.replica_endpoints(source) {
            h.push_str(&endpoint);
            h.push_u64(view.failures_of(&endpoint));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{PlanReport, PlannedQuery};
    use fedlake_relational::cache::CACHE_CAPACITY;
    use fedlake_sparql::binding::{RowSchema, Var};

    fn planned(tag: &str) -> Arc<CachedPlan> {
        Arc::new(CachedPlan::new(PlannedQuery {
            plan: FedPlan::Union(Vec::new()),
            schema: Arc::new(RowSchema::new(Vec::<Var>::new())),
            projection: Arc::from(Vec::<Var>::new().into_boxed_slice()),
            distinct: false,
            order_by: Vec::new(),
            limit: None,
            offset: 0,
            skipped_sources: vec![tag.to_string()],
            report: PlanReport::default(),
        }))
    }

    #[test]
    fn lookup_insert_and_counters_reconcile() {
        let mut cache = PlanCache::new();
        let key = (1, 2);
        assert!(cache.lookup(key, 0, 0, |_| 0).is_none());
        cache.insert(key, 0, 0, 7, vec!["a".into()], planned("a"));
        let hit = cache.lookup(key, 0, 0, |_| unreachable!("generation unchanged"));
        assert_eq!(hit.unwrap().planned.skipped_sources, vec!["a".to_string()]);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.lookups, s.hits + s.misses);
    }

    #[test]
    fn epoch_mismatch_invalidates() {
        let mut cache = PlanCache::new();
        cache.insert((1, 1), 3, 0, 7, Vec::new(), planned("x"));
        assert!(cache.lookup((1, 1), 4, 0, |_| 7).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.entries.is_empty(), "stale entry must be dropped");
    }

    #[test]
    fn health_digest_change_invalidates_and_match_revalidates() {
        let mut cache = PlanCache::new();
        cache.insert((1, 1), 0, 0, 7, vec!["a".into()], planned("x"));
        // Generation moved but the digest still matches: hit, entry kept.
        assert!(cache.lookup((1, 1), 0, 5, |_| 7).is_some());
        // Generation unchanged from the revalidation: digest not recomputed.
        assert!(cache.lookup((1, 1), 0, 5, |_| unreachable!()).is_some());
        // Digest moved: exact invalidation.
        assert!(cache.lookup((1, 1), 0, 9, |_| 8).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn eviction_is_lru_and_bounded() {
        let mut cache = PlanCache::new();
        for i in 0..CACHE_CAPACITY as u64 {
            cache.insert((i, 0), 0, 0, 0, Vec::new(), planned("x"));
        }
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(cache.lookup((0, 0), 0, 0, |_| 0).is_some());
        cache.insert((u64::MAX, 0), 0, 0, 0, Vec::new(), planned("y"));
        assert_eq!(cache.entries.len(), CACHE_CAPACITY);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup((0, 0), 0, 0, |_| 0).is_some(), "touched entry survives");
        assert!(cache.lookup((1, 0), 0, 0, |_| 0).is_none(), "LRU entry evicted");
    }
}
