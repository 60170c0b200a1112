//! Memoized route plans.
//!
//! Planning a batch of routes costs one randomized BFS tree per distinct
//! source. A trial, intact or faulted, plans each of its trees once
//! ([`crate::plan_trial`]), so a one-shot estimate or sweep never asks for
//! a tree twice and stores none. Repeated estimates on the *same* machine
//! with the *same* seed — a daemon's warm requests — would recompute those
//! trees verbatim; [`PlanCache`] memoizes them, and the daemon's registry
//! is what holds one warm. A zero-capacity cache stores nothing and only
//! counts the trees computed (its misses); the oracle grows those trees
//! only as far as their destinations, and whole trees for a cache that
//! stores.
//!
//! Correctness rests on the oracle's seeding discipline (see
//! [`crate::oracle::PathOracle`]): a BFS tree is a pure function of the key
//! `(graph fingerprint, node limit, plan seed, source)` — it does not depend
//! on which other sources were routed before, or on the composition of the
//! batch. A cache hit therefore returns bit-identical trees to a fresh
//! computation, which `tests/plan_cache.rs` proves property-style.
//!
//! The cache is `Sync` (internally a mutexed map) so one cache can serve all
//! workers of an [`fcn_exec::Pool`] sweep. It holds at most `capacity`
//! trees. The trees of one `(graph, node limit, plan seed)` triple form a
//! *generation* — one estimator trial — and a full cache makes room by
//! dropping its oldest generation whole: a finished trial's trees are never
//! asked for again, while the running trial's are. Only when the inserting
//! generation alone fills the cache is a fresh tree refused; lookups keep
//! working either way.
//!
//! Counters are [`fcn_telemetry`] instruments owned per cache instance —
//! observability only, attaching or detaching a cache never changes a
//! routed bit. [`PlanCache::publish`] pushes their change since a
//! [`PlanCache::counts`] snapshot into the thread's metric shard under the
//! `plan_cache_*` names (surfaced by `--metrics-out`; `fcnemu beta
//! --verbose` prints the misses as trees computed). Publishing a delta
//! keeps a long-lived cache, such as the daemon's warm one, from adding its
//! lifetime totals to every request.

use std::collections::BTreeMap;
use std::sync::Arc;

use fcn_exec::sync::Lock;
use fcn_multigraph::NodeId;
use fcn_telemetry::Counter;

/// The trees planned on one host graph, under one node limit, with one plan
/// seed — one estimator trial. The unit of eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Generation {
    /// [`fcn_multigraph::Multigraph::fingerprint`] of the host graph.
    graph: u64,
    /// Effective node limit (`usize::MAX` when unrestricted).
    node_limit: usize,
    /// The oracle's plan seed; per-source BFS seeds are pure functions of it.
    plan_seed: u64,
}

/// Key of one memoized BFS parent tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PlanKey {
    generation: Generation,
    /// BFS source.
    source: NodeId,
}

/// The trees and the order their generations arrived in, behind one lock.
#[derive(Debug, Default)]
struct Store {
    trees: BTreeMap<PlanKey, Arc<Vec<NodeId>>>,
    /// Generations with at least one stored tree, in first-insert order.
    generations: Vec<Generation>,
}

impl Store {
    /// The oldest stored generation other than `keep`.
    fn oldest_except(&self, keep: Generation) -> Option<Generation> {
        self.generations.iter().copied().find(|&g| g != keep)
    }

    /// Drop every tree of `generation`; returns how many were dropped.
    fn evict(&mut self, generation: Generation) -> u64 {
        self.generations.retain(|&g| g != generation);
        let before = self.trees.len();
        self.trees.retain(|k, _| k.generation != generation);
        (before - self.trees.len()) as u64
    }

    fn insert(&mut self, key: PlanKey, tree: Arc<Vec<NodeId>>) {
        if !self.generations.contains(&key.generation) {
            self.generations.push(key.generation);
        }
        self.trees.insert(key, tree);
    }
}

/// A snapshot of a [`PlanCache`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheCounts {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that computed a fresh tree.
    pub misses: u64,
    /// Stored trees dropped to make room.
    pub evictions: u64,
    /// Computed trees not stored because their generation filled the cache.
    pub refusals: u64,
}

/// A memoizing store for BFS parent trees, shared across planning calls.
#[derive(Debug)]
pub struct PlanCache {
    /// The stored trees. `Lock` recovers from poison, which is sound here:
    /// every edit is finished before another starts, so a panic elsewhere
    /// cannot leave a generation half-evicted.
    store: Lock<Store>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    refusals: Counter,
}

impl Default for PlanCache {
    fn default() -> Self {
        // A tree is 4n bytes, so the bound is 4096 × 4n: 64 MiB at
        // n = 4096 and 128 MiB at n = 8192, the largest machines
        // `table4 --full` builds. A trial stores one tree per distinct
        // source, so small machines stay far below it.
        PlanCache::with_capacity(4096)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` trees.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            store: Lock::new(Store::default()),
            capacity,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            refusals: Counter::new(),
        }
    }

    /// Lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that computed a fresh tree.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Stored trees dropped to make room, a whole older generation at a
    /// time.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Trees computed but *not* stored because their own generation
    /// already filled the cache.
    pub fn refusals(&self) -> u64 {
        self.refusals.get()
    }

    /// All four counters at once, the baseline for [`PlanCache::publish`].
    pub fn counts(&self) -> PlanCacheCounts {
        PlanCacheCounts {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            refusals: self.refusals(),
        }
    }

    /// Whether the cache can keep a tree at all: a zero-capacity cache
    /// only counts, so the trees it is handed may be partial.
    pub(crate) fn stores_trees(&self) -> bool {
        self.capacity > 0
    }

    /// Trees currently stored.
    pub fn entries(&self) -> usize {
        self.store.lock().trees.len()
    }

    /// Push the counters' change since `before` (taken with
    /// [`PlanCache::counts`] when the run started) and the resident entry
    /// count into the thread's telemetry shard; a no-op when the global
    /// registry is disabled. Call once per run, after the work that used
    /// the cache.
    pub fn publish(&self, before: PlanCacheCounts) {
        if !fcn_telemetry::global().enabled() {
            return;
        }
        let now = self.counts();
        let entries = self.entries() as u64;
        fcn_telemetry::with_shard(|s| {
            use fcn_telemetry::names;
            s.add(names::PLAN_CACHE_HITS_TOTAL, now.hits - before.hits);
            s.add(names::PLAN_CACHE_MISSES_TOTAL, now.misses - before.misses);
            s.add(
                names::PLAN_CACHE_EVICTIONS_TOTAL,
                now.evictions - before.evictions,
            );
            s.add(
                names::PLAN_CACHE_REFUSALS_TOTAL,
                now.refusals - before.refusals,
            );
            s.set_gauge(names::PLAN_CACHE_ENTRIES, entries);
        });
    }

    /// Serve the parent tree of `source` in generation `(graph, node_limit,
    /// plan_seed)`, computing it on a miss.
    ///
    /// The computation runs outside the lock, so a slow BFS never blocks
    /// other workers; the worst case is two workers computing the same tree
    /// concurrently, in which case the first insert wins (both results are
    /// identical by construction).
    pub(crate) fn get_or_compute(
        &self,
        graph: u64,
        node_limit: usize,
        plan_seed: u64,
        source: NodeId,
        compute: impl FnOnce() -> Vec<NodeId>,
    ) -> Arc<Vec<NodeId>> {
        let key = PlanKey {
            generation: Generation {
                graph,
                node_limit,
                plan_seed,
            },
            source,
        };
        if let Some(hit) = self.store.lock().trees.get(&key).cloned() {
            self.hits.inc();
            return hit;
        }
        self.misses.inc();
        let fresh = Arc::new(compute());
        let mut store = self.store.lock();
        if let Some(raced) = store.trees.get(&key) {
            return raced.clone();
        }
        while store.trees.len() >= self.capacity {
            let Some(oldest) = store.oldest_except(key.generation) else {
                self.refusals.inc();
                return fresh;
            };
            self.evictions.add(store.evict(oldest));
        }
        store.insert(key, fresh.clone());
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_first_compute() {
        let cache = PlanCache::with_capacity(8);
        let mut computes = 0;
        for _ in 0..3 {
            let tree = cache.get_or_compute(1, usize::MAX, 42, 0, || {
                computes += 1;
                vec![0, 0, 1]
            });
            assert_eq!(*tree, vec![0, 0, 1]);
        }
        assert_eq!(computes, 1);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (2, 1, 1));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = PlanCache::with_capacity(8);
        let a = cache.get_or_compute(1, usize::MAX, 1, 0, || vec![0]);
        let b = cache.get_or_compute(1, usize::MAX, 2, 0, || vec![1]);
        let c = cache.get_or_compute(2, usize::MAX, 1, 0, || vec![2]);
        let d = cache.get_or_compute(1, 16, 1, 0, || vec![3]);
        assert_eq!((a[0], b[0], c[0], d[0]), (0, 1, 2, 3));
        assert_eq!(cache.entries(), 4);
    }

    #[test]
    fn one_generation_past_capacity_is_refused_at_the_door() {
        let cache = PlanCache::with_capacity(2);
        for src in 0..10u32 {
            let tree = cache.get_or_compute(1, usize::MAX, 7, src, || vec![src]);
            assert_eq!(tree[0], src);
        }
        assert_eq!(cache.entries(), 2);
        assert_eq!((cache.refusals(), cache.evictions()), (8, 0));
        // Entries already stored keep hitting.
        let again = cache.get_or_compute(1, usize::MAX, 7, 0, || unreachable!());
        assert_eq!(again[0], 0);
    }

    #[test]
    fn a_full_cache_evicts_its_oldest_generation_whole() {
        let cache = PlanCache::with_capacity(4);
        for src in 0..3u32 {
            cache.get_or_compute(1, usize::MAX, 10, src, || vec![src]);
        }
        cache.get_or_compute(1, usize::MAX, 20, 0, || vec![100]);
        // Full: the next tree of seed 20 drops all three trees of seed 10.
        cache.get_or_compute(1, usize::MAX, 20, 1, || vec![101]);
        assert_eq!((cache.entries(), cache.evictions()), (2, 3));
        // A third generation evicts seed 20 only once the cache is full again.
        cache.get_or_compute(1, usize::MAX, 30, 0, || vec![200]);
        cache.get_or_compute(1, usize::MAX, 30, 1, || vec![201]);
        assert_eq!((cache.entries(), cache.evictions()), (4, 3));
        cache.get_or_compute(1, usize::MAX, 30, 2, || vec![202]);
        assert_eq!((cache.entries(), cache.evictions()), (3, 5));
        let kept = cache.get_or_compute(1, usize::MAX, 30, 0, || unreachable!());
        assert_eq!(kept[0], 200);
        let gone = cache.get_or_compute(1, usize::MAX, 10, 0, || vec![1000]);
        assert_eq!(gone[0], 1000, "an evicted tree is recomputed");
        assert_eq!(cache.refusals(), 0);
    }

    #[test]
    fn a_zero_capacity_cache_stores_nothing() {
        let cache = PlanCache::with_capacity(0);
        for seed in 0..3u64 {
            let tree = cache.get_or_compute(1, usize::MAX, seed, 0, || vec![5]);
            assert_eq!(tree[0], 5);
        }
        assert_eq!(
            (cache.entries(), cache.refusals(), cache.misses()),
            (0, 3, 3)
        );
    }
}
