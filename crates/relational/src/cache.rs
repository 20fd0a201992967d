//! The one cache contract: versioned, bounded, counted.
//!
//! Every cache in the workspace — the engine's lifted source results (the
//! one cache of what a leaf or a bind-join batch fetched), its normalized
//! plans, its verdict memo and the SQL memo behind
//! [`crate::Database::query_cached`], which no engine path reads any more
//! (fedbench's `relational.*` probes are its last callers) — is a
//! [`VersionedCache`]. An entry is stamped
//! with the version of whatever it was computed from; a lookup presents the
//! owner's *current* version, and an entry stamped with another one is a
//! counted `stale` miss that drops the entry on the spot, so the refill
//! takes its place instead of sitting beside it. Nothing is ever cleared
//! from outside: whoever mutates the data bumps its version, and the check
//! on lookup is the whole invalidation path.
//!
//! Capacity is the constant [`CACHE_CAPACITY`]; eviction is
//! least-recently-used by a monotone tick that is unique per entry, so the
//! victim is deterministic even over an unordered map. [`CacheStats`]
//! reconciles every probe: `lookups == hits + misses`, `stale <= misses`.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Maximum resident entries of any one cache, sized from the largest
/// working set the repo's traffic has: the lifted source results of
/// fedbench's warm `serve_open` engine (256 jobs of the Q1–Q5 mix) are 401
/// entries — 36 one-shot leaves and 365 bind-join `IN (…)` batches, 108 k
/// cells ≈ 0.4 MiB — and every other cache keeps fewer. At 256 that run
/// evicted ≈ 1 040 entries per pass, one-shot leaves among the victims; at
/// 1024 it evicts none and a repeated pass misses nothing.
pub const CACHE_CAPACITY: usize = 1024;

/// Monotone counters for every cache outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes against the cache.
    pub lookups: u64,
    /// Probes answered from a current entry.
    pub hits: u64,
    /// Probes the caller had to recompute.
    pub misses: u64,
    /// Misses that found (and dropped) an entry of another version.
    pub stale: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, o: CacheStats) {
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.misses += o.misses;
        self.stale += o.stale;
        self.evictions += o.evictions;
    }
}

#[derive(Debug, Clone)]
struct Slot<V> {
    version: u64,
    tick: u64,
    value: V,
}

/// A bounded map whose entries are only served to the version they were
/// computed from. See the module documentation for the contract. A clone
/// carries the entries and the counters along; whether that is sound is
/// the owner's call (it is when the clone's version keeps meaning the same
/// data, as a table's row count does).
#[derive(Debug, Clone)]
pub struct VersionedCache<K, V, S = RandomState> {
    slots: HashMap<K, Slot<V>, S>,
    tick: u64,
    stats: CacheStats,
}

impl<K, V, S: Default> Default for VersionedCache<K, V, S> {
    fn default() -> Self {
        VersionedCache { slots: HashMap::default(), tick: 0, stats: CacheStats::default() }
    }
}

impl<K: Hash + Eq, V: Clone, S: BuildHasher> VersionedCache<K, V, S> {
    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The resident values, in no particular order; touches no tick and no
    /// counter.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.values().map(|s| &s.value)
    }

    /// Probes for `key` at the owner's current `version`.
    pub fn lookup<Q>(&mut self, key: &Q, version: u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup_if(key, version, |_| true)
    }

    /// Like [`VersionedCache::lookup`], with a second condition the entry
    /// must still meet (`current` may refresh what it keeps to decide
    /// faster next time). Failing either check is a `stale` miss.
    pub fn lookup_if<Q>(
        &mut self,
        key: &Q,
        version: u64,
        current: impl FnOnce(&mut V) -> bool,
    ) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.stats.lookups += 1;
        if let Some(slot) = self.slots.get_mut(key) {
            if slot.version == version && current(&mut slot.value) {
                self.tick += 1;
                slot.tick = self.tick;
                self.stats.hits += 1;
                return Some(slot.value.clone());
            }
            self.slots.remove(key);
            self.stats.stale += 1;
        }
        self.stats.misses += 1;
        None
    }

    /// Stores what the caller computed from `version`, replacing any entry
    /// under `key` and evicting the least-recently-used one when full.
    pub fn insert(&mut self, key: K, version: u64, value: V) {
        if self.slots.len() >= CACHE_CAPACITY && !self.slots.contains_key(&key) {
            let oldest = self.slots.values().map(|s| s.tick).min();
            self.slots.retain(|_, s| Some(s.tick) != oldest);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.slots.insert(key, Slot { version, tick: self.tick, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cache = VersionedCache<u64, &'static str>;

    #[test]
    fn counters_are_exact() {
        let mut c = Cache::default();
        assert_eq!(c.lookup(&1, 0), None);
        c.insert(1, 0, "a");
        assert_eq!(c.lookup(&1, 0), Some("a"));
        assert_eq!(c.lookup(&1, 0), Some("a"));
        assert_eq!(c.lookup(&2, 0), None);
        let s = c.stats();
        assert_eq!(s, CacheStats { lookups: 4, hits: 2, misses: 2, stale: 0, evictions: 0 });
        assert_eq!(s.lookups, s.hits + s.misses);
    }

    #[test]
    fn a_stale_entry_is_replaced_not_accumulated() {
        let mut c = Cache::default();
        c.insert(1, 0, "old");
        assert_eq!(c.lookup(&1, 1), None, "another version must not be served");
        assert!(c.is_empty(), "the stale entry is dropped by the lookup that saw it");
        c.insert(1, 1, "new");
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&1, 1), Some("new"));
        // Going back to an old version is just as stale.
        assert_eq!(c.lookup(&1, 0), None);
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.stale), (3, 1, 2, 2));
    }

    #[test]
    fn the_second_condition_counts_as_stale_too() {
        let mut c = Cache::default();
        c.insert(1, 0, "a");
        assert_eq!(c.lookup_if(&1, 0, |_| false), None);
        assert!(c.is_empty());
        assert_eq!(c.stats().stale, 1);
        // A failed version check never consults the condition.
        c.insert(1, 0, "a");
        assert_eq!(c.lookup_if(&1, 1, |_| unreachable!("version already differs")), None);
    }

    #[test]
    fn capacity_holds_and_eviction_is_lru() {
        let mut c = Cache::default();
        for k in 0..CACHE_CAPACITY as u64 {
            c.insert(k, 0, "x");
        }
        // Touch entry 0 so entry 1 becomes the least recently used.
        assert!(c.lookup(&0, 0).is_some());
        c.insert(u64::MAX, 0, "y");
        assert_eq!(c.len(), CACHE_CAPACITY);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(&0, 0).is_some(), "touched entry survives");
        assert!(c.lookup(&1, 0).is_none(), "LRU entry evicted");
        // Overwriting a resident key at capacity evicts nothing.
        c.insert(0, 1, "z");
        assert_eq!((c.len(), c.stats().evictions), (CACHE_CAPACITY, 1));
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c = Cache::default();
            let mut order = Vec::new();
            for k in 0..(CACHE_CAPACITY as u64 + 40) {
                c.insert(k, 0, "x");
                c.lookup(&(k / 3), 0);
            }
            for k in 0..(CACHE_CAPACITY as u64 + 40) {
                if c.lookup(&k, 0).is_none() {
                    order.push(k);
                }
            }
            (order, c.stats())
        };
        // `RandomState` seeds differ per map: the victims must not.
        assert_eq!(run(), run());
    }
}
