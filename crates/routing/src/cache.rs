//! Memoized route plans.
//!
//! Planning a batch of routes costs one randomized BFS tree per distinct
//! source. A trial, intact or faulted, plans each of its trees once
//! ([`crate::plan_trial`]), so a one-shot estimate or sweep never asks for
//! a tree twice and stores none. Repeated estimates on the *same* machine
//! with the *same* seed — a daemon's warm requests — would recompute those
//! trees verbatim; [`PlanCache`] memoizes them, and the daemon's registry
//! is what holds one warm.
//!
//! Correctness rests on the oracle's seeding discipline (see
//! [`crate::oracle::PathOracle`]): a BFS tree is a pure function of the key
//! `(graph fingerprint, node limit, plan seed, source)` — it does not depend
//! on which other sources were routed before, or on the composition of the
//! batch. A cache hit therefore returns bit-identical trees to a fresh
//! computation, which `tests/plan_cache.rs` proves property-style.
//!
//! The cache is `Sync` (internally a mutexed map) so one cache can serve all
//! workers of an [`fcn_exec::Pool`] sweep. Its one rule: a tree is stored
//! while there is room, and nothing is ever evicted. A tree that will be
//! stored is grown whole, since a later batch may unwind it for other
//! destinations; a tree that will not be stored is grown only as far as
//! the destinations it was asked for, exactly as when no cache is
//! attached. The zero-capacity cache of a one-shot estimate is simply a
//! cache that is always full.
//!
//! Each cache counts its own lookups, under the same lock as its trees —
//! observability only, attaching or detaching a cache never changes a
//! routed bit. [`PlanCache::publish`] pushes their change since a
//! [`PlanCache::counts`] snapshot into the thread's metric shard under the
//! `plan_cache_*` names (surfaced by `--metrics-out`; `fcnemu beta
//! --verbose` prints the misses as trees computed). Publishing a delta
//! keeps a long-lived cache, such as the daemon's warm one, from adding its
//! lifetime totals to every request; since nothing is evicted, the summed
//! `plan_cache_stored_total` of a cache's runs is its entry count.

use std::collections::BTreeMap;
use std::sync::Arc;

use fcn_exec::sync::Lock;
use fcn_multigraph::NodeId;

/// Key of one memoized BFS parent tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PlanKey {
    /// [`fcn_multigraph::Multigraph::fingerprint`] of the host graph.
    graph: u64,
    /// Effective node limit (`usize::MAX` when unrestricted).
    node_limit: usize,
    /// The oracle's plan seed; per-source BFS seeds are pure functions of it.
    plan_seed: u64,
    /// BFS source.
    source: NodeId,
}

/// A snapshot of a [`PlanCache`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheCounts {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that computed a fresh tree.
    pub misses: u64,
    /// Computed trees not stored because the cache was full.
    pub refusals: u64,
    /// Computed trees stored.
    pub stored: u64,
}

/// A memoizing store for BFS parent trees, shared across planning calls.
#[derive(Debug)]
pub struct PlanCache {
    /// The stored trees and the lookup counts. `Lock` recovers from poison,
    /// which is sound here: each edit is a single insert or count bump.
    store: Lock<Store>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Store {
    trees: BTreeMap<PlanKey, Arc<Vec<NodeId>>>,
    counts: PlanCacheCounts,
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
        }
    }

    /// Lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.counts().hits
    }

    /// Lookups that computed a fresh tree.
    pub fn misses(&self) -> u64 {
        self.counts().misses
    }

    /// Always 0: the cache never evicts. Kept because the frozen benchmark
    /// replica (`fcn-benchmark`'s `layers.rs`) reads it.
    pub fn evictions(&self) -> u64 {
        0
    }

    /// Trees computed but *not* stored because the cache was full.
    pub fn refusals(&self) -> u64 {
        self.counts().refusals
    }

    /// Every counter at once, the baseline for [`PlanCache::publish`].
    pub fn counts(&self) -> PlanCacheCounts {
        self.store.lock().counts
    }

    /// Trees currently stored.
    pub fn entries(&self) -> usize {
        self.store.lock().trees.len()
    }

    /// Push the counters' change since `before` (taken with
    /// [`PlanCache::counts`] when the run started) into the thread's
    /// telemetry shard; a no-op when the global registry is disabled. Call
    /// once per run, after the work that used the cache.
    pub fn publish(&self, before: PlanCacheCounts) {
        if !fcn_telemetry::global().enabled() {
            return;
        }
        let now = self.counts();
        fcn_telemetry::with_shard(|s| {
            use fcn_telemetry::names;
            s.add(names::PLAN_CACHE_HITS_TOTAL, now.hits - before.hits);
            s.add(names::PLAN_CACHE_MISSES_TOTAL, now.misses - before.misses);
            s.add(
                names::PLAN_CACHE_REFUSALS_TOTAL,
                now.refusals - before.refusals,
            );
            s.add(names::PLAN_CACHE_STORED_TOTAL, now.stored - before.stored);
        });
    }

    /// Serve the parent tree of `source` on `(graph, node_limit,
    /// plan_seed)`, computing it on a miss with `compute(stop_at)`: `None`
    /// grows the whole tree, `Some(targets)` lets the BFS stop once
    /// `targets` all have parents.
    ///
    /// The lookup also decides whether a fresh tree will be stored, and so
    /// how far it grows: whole while the cache has room, only to `targets`
    /// once it is full. The computation runs outside the lock, so a slow
    /// BFS never blocks other workers. Two workers may compute the same
    /// tree concurrently, in which case the first insert wins (both results
    /// are identical by construction); a whole tree that finds the last
    /// slot taken is returned unstored and counted as a refusal.
    pub(crate) fn get_or_compute(
        &self,
        graph: u64,
        node_limit: usize,
        plan_seed: u64,
        source: NodeId,
        targets: &[NodeId],
        compute: impl FnOnce(Option<&[NodeId]>) -> Vec<NodeId>,
    ) -> Arc<Vec<NodeId>> {
        let key = PlanKey {
            graph,
            node_limit,
            plan_seed,
            source,
        };
        let has_room = {
            let mut store = self.store.lock();
            if let Some(hit) = store.trees.get(&key).cloned() {
                store.counts.hits += 1;
                return hit;
            }
            store.counts.misses += 1;
            let has_room = store.trees.len() < self.capacity;
            if !has_room {
                store.counts.refusals += 1;
            }
            has_room
        };
        if !has_room {
            return Arc::new(compute(Some(targets)));
        }
        let fresh = Arc::new(compute(None));
        let mut store = self.store.lock();
        if let Some(raced) = store.trees.get(&key) {
            return raced.clone();
        }
        if store.trees.len() >= self.capacity {
            store.counts.refusals += 1;
            return fresh;
        }
        store.trees.insert(key, fresh.clone());
        store.counts.stored += 1;
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
            let tree = cache.get_or_compute(1, usize::MAX, 42, 0, &[2], |_| {
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
        let a = cache.get_or_compute(1, usize::MAX, 1, 0, &[], |_| vec![0]);
        let b = cache.get_or_compute(1, usize::MAX, 2, 0, &[], |_| vec![1]);
        let c = cache.get_or_compute(2, usize::MAX, 1, 0, &[], |_| vec![2]);
        let d = cache.get_or_compute(1, 16, 1, 0, &[], |_| vec![3]);
        assert_eq!((a[0], b[0], c[0], d[0]), (0, 1, 2, 3));
        assert_eq!(cache.entries(), 4);
    }

    #[test]
    fn a_full_cache_grows_targeted_trees_and_keeps_what_it_stored() {
        let cache = PlanCache::with_capacity(2);
        // `compute` reports whether it was asked for the whole tree.
        let whole = |stop_at: Option<&[NodeId]>| vec![u32::from(stop_at.is_none())];
        for seed in [7, 8] {
            for src in 0..5u32 {
                let tree = cache.get_or_compute(1, usize::MAX, seed, src, &[src], whole);
                let stored = seed == 7 && src < 2;
                assert_eq!(tree[0], u32::from(stored), "seed {seed} source {src}");
            }
        }
        assert_eq!((cache.entries(), cache.counts().stored), (2, 2));
        assert_eq!((cache.misses(), cache.refusals()), (10, 8));
        // A new seed evicts nothing: the first trees stored keep hitting.
        for src in 0..2u32 {
            let again = cache.get_or_compute(1, usize::MAX, 7, src, &[], |_| unreachable!());
            assert_eq!(again[0], 1);
        }
        assert_eq!((cache.hits(), cache.evictions()), (2, 0));
    }

    #[test]
    fn a_whole_tree_that_loses_the_last_slot_is_returned_unstored() {
        let cache = PlanCache::with_capacity(1);
        // While source 0's whole tree is computed outside the lock, source
        // 1's lookup takes the only slot.
        let tree = cache.get_or_compute(1, usize::MAX, 7, 0, &[], |stop_at| {
            assert_eq!(stop_at, None, "the lookup found room");
            cache.get_or_compute(1, usize::MAX, 7, 1, &[], |_| vec![1]);
            vec![0]
        });
        assert_eq!(tree[0], 0);
        assert_eq!((cache.entries(), cache.refusals()), (1, 1));
        assert_eq!(cache.counts().stored, 1);
        let kept = cache.get_or_compute(1, usize::MAX, 7, 1, &[], |_| unreachable!());
        assert_eq!(kept[0], 1);
    }

    #[test]
    fn a_zero_capacity_cache_stores_nothing() {
        let cache = PlanCache::with_capacity(0);
        for seed in 0..3u64 {
            let tree = cache.get_or_compute(1, usize::MAX, seed, 0, &[1], |stop_at| {
                assert_eq!(stop_at, Some(&[1][..]), "a tree no cache keeps is targeted");
                vec![5]
            });
            assert_eq!(tree[0], 5);
        }
        assert_eq!(
            (cache.entries(), cache.refusals(), cache.misses()),
            (0, 3, 3)
        );
    }
}
