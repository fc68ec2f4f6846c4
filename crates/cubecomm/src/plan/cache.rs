//! A keyed, bounded plan cache: pay schedule construction once per
//! shape.
//!
//! Plans are pure functions of their inputs — every builder in
//! [`crate::plan`] is deterministic at any thread count — so repeated
//! requests for the same shape (figure sweeps re-linting the same
//! transpose plan at many machine points, `cubecheck` CI workloads, a
//! future service front-end) can share one construction. [`PlanCache`]
//! is a small LRU map from a key to `Arc<CommSchedule>` with
//! hit/miss/eviction counters ([`CacheStats`]).
//!
//! # Keying and invalidation
//!
//! A key is the algorithm tag, the cube dimension `n` and a 64-bit
//! fingerprint of the *complete* planner input (a [`PlanInput`]: message
//! lists, size matrices, Dragonfly `(k, m)`), taken in one pass of
//! multiply-rotate arithmetic over the input's words in independent
//! lanes. Each entry keeps a copy of the input it was built from, and a
//! hit must present an equal one, so a fingerprint collision can never
//! serve another input's plan: it only rebuilds, and the newer input
//! takes the entry. There is no invalidation protocol to run, because
//! nothing the input omits can influence the plan. Entries are only ever
//! dropped by LRU eviction (capacity pressure).
//!
//! Lookups lock a [`Mutex`]; construction on a miss runs *outside* the
//! lock, so a slow build never blocks concurrent hits. Two threads
//! racing on the same missing key may both build — determinism makes
//! both results identical, and the first insert wins.

use super::CommSchedule;
use cubeaddr::NodeId;
use cubesync::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::any::Any;
use std::collections::HashMap;

/// A planner input the cache keys on and keeps.
pub trait PlanInput {
    /// The copy of the input an entry keeps.
    type Owned: Send + Sync + 'static;

    /// The input's fingerprint: one pass of multiply-rotate steps over
    /// its words, spread over independent lanes so one word's multiply
    /// need not wait for the last one's.
    fn fingerprint(&self) -> u64;

    /// The copy an entry keeps.
    fn to_owned_input(&self) -> Self::Owned;

    /// Whether `stored` is a copy of this input.
    fn is_stored(&self, stored: &Self::Owned) -> bool;
}

/// One fingerprint step: `word` folded into `lane`.
#[inline(always)]
fn mix(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// The lanes of a fingerprint folded into one word, with the input's
/// length.
fn fold_lanes(len: usize, lanes: &[u64]) -> u64 {
    lanes.iter().fold(len as u64, |h, &lane| mix(h, lane))
}

/// A message list `(src, dst, elems)`.
impl PlanInput for [(NodeId, NodeId, u64)] {
    type Owned = Vec<(NodeId, NodeId, u64)>;

    fn fingerprint(&self) -> u64 {
        // One lane per field.
        let mut lanes = [1, 2, 3];
        for &(src, dst, elems) in self {
            lanes = [mix(lanes[0], src.0), mix(lanes[1], dst.0), mix(lanes[2], elems)];
        }
        fold_lanes(self.len(), &lanes)
    }

    fn to_owned_input(&self) -> Self::Owned {
        self.to_vec()
    }

    fn is_stored(&self, stored: &Self::Owned) -> bool {
        self == stored.as_slice()
    }
}

/// A size matrix, one row per source.
impl PlanInput for [Vec<u64>] {
    type Owned = Vec<Vec<u64>>;

    fn fingerprint(&self) -> u64 {
        let mut lanes = [1, 2, 3, 4];
        for row in self {
            lanes[0] = mix(lanes[0], row.len() as u64);
            let mut quads = row.chunks_exact(4);
            for quad in &mut quads {
                lanes = [0, 1, 2, 3].map(|i| mix(lanes[i], quad[i]));
            }
            for (lane, &word) in lanes.iter_mut().zip(quads.remainder()) {
                *lane = mix(*lane, word);
            }
        }
        fold_lanes(self.len(), &lanes)
    }

    fn to_owned_input(&self) -> Self::Owned {
        self.to_vec()
    }

    fn is_stored(&self, stored: &Self::Owned) -> bool {
        self == stored.as_slice()
    }
}

/// A Dragonfly planner's `(k, m, input)`.
impl<I: PlanInput + ?Sized> PlanInput for (u32, u32, &I) {
    type Owned = (u32, u32, I::Owned);

    fn fingerprint(&self) -> u64 {
        mix(mix(self.2.fingerprint(), self.0.into()), self.1.into())
    }

    fn to_owned_input(&self) -> Self::Owned {
        (self.0, self.1, self.2.to_owned_input())
    }

    fn is_stored(&self, stored: &Self::Owned) -> bool {
        (self.0, self.1) == (stored.0, stored.1) && self.2.is_stored(&stored.2)
    }
}

/// Cache key: the algorithm, the cube dimension (`0` for the Dragonfly,
/// whose `(k, m)` is part of the input) and the input's fingerprint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    algorithm: &'static str,
    n: u32,
    fingerprint: u64,
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
    /// The input the plan was built from: a [`PlanInput::Owned`].
    input: Box<dyn Any + Send + Sync>,
    last_used: u64,
}

impl Entry {
    fn is_built_from<I: PlanInput + ?Sized>(&self, input: &I) -> bool {
        self.input.downcast_ref::<I::Owned>().is_some_and(|stored| input.is_stored(stored))
    }
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

    /// `algorithm`'s plan for cube dimension `n` and `input`: the cached
    /// one, or on a miss the one `build` makes (outside the lock), which
    /// is then kept with a copy of `input`.
    pub fn get_or_build<I: PlanInput + ?Sized>(
        &self,
        algorithm: &'static str,
        n: u32,
        input: &I,
        build: impl FnOnce() -> CommSchedule,
    ) -> Arc<CommSchedule> {
        let key = PlanKey { algorithm, n, fingerprint: input.fingerprint() };
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let hit = inner.map.get_mut(&key).filter(|e| e.is_built_from(input)).map(|e| {
                e.last_used = tick;
                Arc::clone(&e.plan)
            });
            match hit {
                Some(plan) => {
                    inner.hits += 1;
                    return plan;
                }
                None => inner.misses += 1,
            }
        }
        let plan = Arc::new(build());
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key).filter(|e| e.is_built_from(input)) {
            // A racing builder got here first; its plan is identical.
            e.last_used = tick;
            return Arc::clone(&e.plan);
        }
        // An entry under this key was built from another input with this
        // fingerprint; this one takes its place.
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // Evict the least recently used entry (linear scan: the cache
            // is small and insertions are already paying a build).
            if let Some(lru) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
                inner.evictions += 1;
            }
        }
        let input = Box::new(input.to_owned_input());
        inner.map.insert(key, Entry { plan: Arc::clone(&plan), input, last_used: tick });
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
    use std::cell::Cell;

    /// A one-message input per tag.
    fn input(tag: u64) -> [(NodeId, NodeId, u64); 1] {
        [(NodeId(0), NodeId(1), tag)]
    }

    fn tiny(n: u32) -> CommSchedule {
        super::super::ecube_route_plan(n, &[(NodeId(0), NodeId(1), 1)])
    }

    /// The probe plan for `(n, tag)`, counting the builds in `builds`.
    fn probe(cache: &PlanCache, n: u32, tag: u64, builds: &Cell<u32>) -> Arc<CommSchedule> {
        cache.get_or_build("probe", n, &input(tag)[..], || {
            builds.set(builds.get() + 1);
            tiny(n)
        })
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = PlanCache::new(4);
        let a = cache.get_or_build("probe", 2, &input(1)[..], || tiny(2));
        let b = cache.get_or_build("probe", 2, &input(1)[..], || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        let builds = Cell::new(0);
        probe(&cache, 2, 1, &builds);
        probe(&cache, 2, 2, &builds);
        // Touch 1 so 2 is the LRU, then insert 3.
        probe(&cache, 2, 1, &builds);
        probe(&cache, 2, 3, &builds);
        assert_eq!(builds.get(), 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        probe(&cache, 2, 1, &builds);
        assert_eq!(builds.get(), 3, "recently used entry survived");
        probe(&cache, 2, 2, &builds);
        assert_eq!(builds.get(), 4, "LRU entry evicted");
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = PlanCache::new(8);
        let by_n = cache.get_or_build("probe", 2, &input(1)[..], || tiny(2));
        let other = cache.get_or_build("probe", 3, &input(1)[..], || tiny(3));
        assert_ne!(by_n.topo, other.topo);
    }

    /// An input whose fingerprint is one constant.
    struct Colliding(u64);

    impl PlanInput for Colliding {
        type Owned = u64;

        fn fingerprint(&self) -> u64 {
            7
        }

        fn to_owned_input(&self) -> u64 {
            self.0
        }

        fn is_stored(&self, stored: &u64) -> bool {
            self.0 == *stored
        }
    }

    #[test]
    fn a_fingerprint_collision_rebuilds_instead_of_serving_the_other_plan() {
        let cache = PlanCache::new(4);
        let a = cache.get_or_build("probe", 2, &Colliding(1), || tiny(2));
        let b = cache.get_or_build("probe", 2, &Colliding(2), || tiny(2));
        assert!(!Arc::ptr_eq(&a, &b));
        // The newer input took the entry.
        let c = cache.get_or_build("probe", 2, &Colliding(2), || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&b, &c));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
    }

    #[test]
    fn fingerprints_read_every_word() {
        let msgs = [(NodeId(0), NodeId(3), 2u64), (NodeId(1), NodeId(2), 5)];
        let sizes = vec![vec![0u64, 1, 2, 3, 4], vec![5]];
        let mut seen = vec![msgs[..].fingerprint(), sizes[..].fingerprint()];
        for i in 0..2 {
            let mut m = msgs;
            m[i].0 .0 ^= 8;
            seen.push(m[..].fingerprint());
            m = msgs;
            m[i].1 .0 ^= 8;
            seen.push(m[..].fingerprint());
            m = msgs;
            m[i].2 ^= 8;
            seen.push(m[..].fingerprint());
        }
        for (r, c) in [(0, 0), (0, 3), (0, 4), (1, 0)] {
            let mut s = sizes.clone();
            s[r][c] ^= 8;
            seen.push(s[..].fingerprint());
        }
        // Shape: the same words, rows split differently.
        seen.push([vec![0u64, 1, 2, 3], vec![4, 5]][..].fingerprint());
        seen.push((2u32, 3u32, &msgs[..]).fingerprint());
        seen.push((3u32, 2u32, &msgs[..]).fingerprint());
        let count = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), count, "two inputs share a fingerprint");
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
