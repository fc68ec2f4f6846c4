//! A keyed, bounded plan cache: pay schedule construction once per
//! shape.
//!
//! Plans are pure functions of their inputs — every builder in
//! [`crate::plan`] is deterministic at any thread count — so repeated
//! requests for the same shape (figure sweeps re-linting the same
//! transpose plan at many machine points, `cubecheck` CI workloads, a
//! future service front-end) can share one construction. [`PlanCache`]
//! is a small LRU map from [`PlanKey`] to `Arc<CommSchedule>` with
//! hit/miss/eviction counters ([`CacheStats`]).
//!
//! # Keying and invalidation
//!
//! A [`PlanKey`] is the algorithm tag, the cube dimension `n` and a
//! 64-bit [`fingerprint`] of the *complete* planner input (message
//! lists, size matrices, Dragonfly `(k, m)`). Two keys collide only if
//! every input hashes identically — there is no invalidation protocol
//! to run, because nothing a key omits can influence the plan. Entries
//! are only ever dropped by LRU eviction (capacity pressure).
//!
//! Lookups lock a [`Mutex`]; construction on a miss runs *outside* the
//! lock, so a slow build never blocks concurrent hits. Two threads
//! racing on the same missing key may both build — determinism makes
//! both results identical, and the first insert wins.

use super::CommSchedule;
use cubesync::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Cache key: the algorithm, the cube dimension and a fingerprint of
/// the complete planner input.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PlanKey {
    /// Algorithm tag (`"ecube_route"`, `"dragonfly_direct"`, …).
    pub algorithm: &'static str,
    /// Cube dimension (`0` for the Dragonfly, whose `(k, m)` is part
    /// of the fingerprint).
    pub n: u32,
    /// Fingerprint of the planner inputs (see [`fingerprint`]).
    pub fingerprint: u64,
}

impl PlanKey {
    /// The key of `algorithm`'s plan for cube dimension `n` and inputs
    /// hashing to `fingerprint`.
    pub fn new(algorithm: &'static str, n: u32, fingerprint: u64) -> Self {
        PlanKey { algorithm, n, fingerprint }
    }
}

/// Hashes any planner input into a key fingerprint (std's SipHash —
/// deterministic within a process, which is all a cache key needs).
pub fn fingerprint(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Hit/miss/eviction counters of a [`PlanCache`], plus its current
/// occupancy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Plans currently held.
    pub entries: usize,
    /// Maximum plans held.
    pub capacity: usize,
}

struct Entry {
    plan: Arc<CommSchedule>,
    last_used: u64,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe LRU cache of built plans.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity cache cannot hold any plan");
        PlanCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking builder never holds the lock, so a poisoned mutex
        // only means a panic elsewhere mid-bookkeeping; the map is still
        // structurally sound.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached plan for `key`, if present (counts as a hit/miss).
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CommSchedule>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let plan = inner.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.plan)
        });
        match plan {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        plan
    }

    /// The plan for `key`, building (outside the lock) and inserting it
    /// on a miss.
    pub fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> CommSchedule,
    ) -> Arc<CommSchedule> {
        if let Some(plan) = self.get(&key) {
            return plan;
        }
        let plan = Arc::new(build());
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key) {
            // A racing builder got here first; its plan is identical.
            e.last_used = tick;
            return Arc::clone(&e.plan);
        }
        if inner.map.len() >= self.capacity {
            // Evict the least recently used entry (linear scan: the
            // cache is small and insertions are already paying a build).
            if let Some(lru) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
                inner.evictions += 1;
            }
        }
        inner.map.insert(key, Entry { plan: Arc::clone(&plan), last_used: tick });
        plan
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ecube_route_plan_cached;
    use super::*;
    use cubeaddr::NodeId;

    fn probe(n: u32, tag: u64) -> PlanKey {
        PlanKey::new("probe", n, tag)
    }

    fn tiny(n: u32) -> CommSchedule {
        super::super::ecube_route_plan(n, &[(NodeId(0), NodeId(1), 1)])
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = PlanCache::new(4);
        let a = cache.get_or_build(probe(2, 1), || tiny(2));
        let b = cache.get_or_build(probe(2, 1), || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        cache.get_or_build(probe(2, 1), || tiny(2));
        cache.get_or_build(probe(2, 2), || tiny(2));
        // Touch 1 so 2 is the LRU, then insert 3.
        assert!(cache.get(&probe(2, 1)).is_some());
        cache.get_or_build(probe(2, 3), || tiny(2));
        assert!(cache.get(&probe(2, 1)).is_some(), "recently used entry survived");
        assert!(cache.get(&probe(2, 2)).is_none(), "LRU entry evicted");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = PlanCache::new(8);
        let by_n = cache.get_or_build(probe(2, 1), || tiny(2));
        let other = cache.get_or_build(probe(3, 1), || tiny(3));
        assert_ne!(by_n.topo, other.topo);
    }

    #[test]
    fn cached_wrappers_key_on_full_inputs() {
        let cache = PlanCache::new(8);
        let msgs = vec![(NodeId(0), NodeId(3), 2u64)];
        let a = ecube_route_plan_cached(&cache, 2, &msgs);
        let b = ecube_route_plan_cached(&cache, 2, &msgs);
        assert!(Arc::ptr_eq(&a, &b));
        // Changing one element count is a different plan.
        let c = ecube_route_plan_cached(&cache, 2, &[(NodeId(0), NodeId(3), 3u64)]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }
}
