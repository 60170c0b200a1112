//! Property tests for the [`PlanCache`]: cache-served route planning must be
//! *indistinguishable* from fresh planning.
//!
//! The cache memoizes BFS parent trees keyed by (graph fingerprint, node
//! limit, plan seed, source). Because each tree is a pure function of that
//! key, a cache hit must reproduce exactly the path a fresh computation
//! would have produced — across machines, strategies, seeds, and demand
//! batches, including cache reuse across *different* batches with the same
//! plan seed (the saturation-sweep pattern) and a full cache, which stores
//! nothing more and grows its fresh trees only to their destinations.

use std::collections::BTreeSet;

use fcn_exec::Pool;
use fcn_routing::{plan_routes_cached, PathOracle, PlanCache, Strategy};
use fcn_topology::{Family, Machine};
use proptest::prelude::*;

/// A small machine drawn from four families with qualitatively different
/// route policies (BFS mesh/tree, arithmetic de Bruijn, level-walk X-tree).
fn machine_for(pick: usize, size: usize) -> Machine {
    let family = [
        Family::Mesh(2),
        Family::Tree,
        Family::DeBruijn,
        Family::XTree,
    ][pick % 4];
    family.build_near(size, 0x11)
}

/// Map raw endpoint draws onto the machine's processors.
fn demands_on(machine: &Machine, raw: &[(u64, u64)]) -> Vec<(u32, u32)> {
    let n = machine.processors() as u64;
    raw.iter()
        .map(|&(s, d)| ((s % n) as u32, (d % n) as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_plans_match_fresh_plans(
        pick in 0usize..4,
        size in 16usize..96,
        seed in proptest::strategy::any::<u64>(),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..40,
        ),
    ) {
        let machine = machine_for(pick, size);
        let demands = demands_on(&machine, &raw);
        for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
            let fresh = plan_routes_cached(&machine, &demands, strategy, seed, None);
            let cache = PlanCache::default();
            // Twice through the same cache: the first run populates it, the
            // second is served almost entirely from memory.
            let cold = plan_routes_cached(&machine, &demands, strategy, seed, Some(&cache));
            let warm = plan_routes_cached(&machine, &demands, strategy, seed, Some(&cache));
            prop_assert_eq!(&fresh, &cold);
            prop_assert_eq!(&fresh, &warm);
        }
    }

    #[test]
    fn cache_is_reusable_across_batches(
        pick in 0usize..4,
        size in 16usize..64,
        seed in proptest::strategy::any::<u64>(),
        raw_a in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..24,
        ),
        raw_b in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..24,
        ),
    ) {
        // The estimator's pattern: growing batches of one trial share a plan
        // seed and a cache. Serving batch B from a cache warmed by batch A
        // must equal planning B fresh.
        let machine = machine_for(pick, size);
        let a = demands_on(&machine, &raw_a);
        let b = demands_on(&machine, &raw_b);
        let cache = PlanCache::default();
        let _warmup = plan_routes_cached(
            &machine, &a, Strategy::ShortestPath, seed, Some(&cache),
        );
        let served = plan_routes_cached(
            &machine, &b, Strategy::ShortestPath, seed, Some(&cache),
        );
        let fresh = plan_routes_cached(&machine, &b, Strategy::ShortestPath, seed, None);
        prop_assert_eq!(&served, &fresh);
    }

    #[test]
    fn capped_cache_still_plans_correctly(
        size in 24usize..64,
        capacity in 1usize..8,
        seeds in proptest::collection::vec(proptest::strategy::any::<u64>(), 2..4),
        order in proptest::collection::vec(0usize..4, 4..12),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            8..32,
        ),
    ) {
        // A capacity smaller than the working set, with plan seeds
        // interleaved, fills the cache early and refuses every later tree;
        // correctness must not depend on what the cache managed to keep.
        let machine = Machine::mesh(2, (size as f64).sqrt() as usize + 2);
        let demands = demands_on(&machine, &raw);
        let cache = PlanCache::with_capacity(capacity);
        for pick in order {
            let seed = seeds[pick % seeds.len()];
            let served = plan_routes_cached(
                &machine, &demands, Strategy::ShortestPath, seed, Some(&cache),
            );
            let fresh = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, seed, None);
            prop_assert_eq!(&served, &fresh);
            prop_assert!(cache.entries() <= capacity);
        }
    }
}

/// A daemon's repeated request whose trials need more trees than the cache
/// holds (n ≤ capacity < 3n): three trials, each with its own plan seed and
/// planned in one call, run twice through one cache. The first pass stores
/// the first `capacity` trees and grows the rest only to their
/// destinations; the repeat is served those `capacity` trees and computes
/// the rest again. Nothing is evicted, and every route equals fresh
/// planning.
#[test]
fn trials_past_capacity_repeat_from_the_trees_stored_first() {
    let machine = Machine::mesh(2, 8);
    let n = machine.processors();
    let capacity = 100;
    assert!(n <= capacity && capacity < 3 * n);
    let cache = PlanCache::with_capacity(capacity);
    let trials: Vec<(u64, Vec<(u32, u32)>)> = (0..3u64)
        .map(|trial| {
            let shift = trial as usize;
            let demands = (0..8 * n)
                .map(|i| (((i * 7 + shift) % n) as u32, ((i * 37 + 11) % n) as u32))
                .collect();
            (0x5eed ^ trial, demands)
        })
        .collect();
    let trees_needed: u64 = trials
        .iter()
        .map(|(_, d)| d.iter().map(|&(s, _)| s).collect::<BTreeSet<_>>().len() as u64)
        .sum();
    assert!(trees_needed > capacity as u64);
    for pass in 0..2u64 {
        for (seed, demands) in &trials {
            let served = plan_routes_cached(
                &machine,
                demands,
                Strategy::ShortestPath,
                *seed,
                Some(&cache),
            );
            let fresh = plan_routes_cached(&machine, demands, Strategy::ShortestPath, *seed, None);
            assert_eq!(served, fresh, "pass {pass}, seed {seed:#x}");
        }
        assert_eq!(cache.hits(), pass * capacity as u64, "pass {pass}");
        assert_eq!(cache.entries(), capacity, "pass {pass}");
    }
    assert_eq!(cache.misses(), 2 * trees_needed - capacity as u64);
    assert_eq!(cache.refusals(), cache.misses() - capacity as u64);
}

/// Two workers plan one batch through a cache that fills midway. Trees that
/// lose the race for the last slots are refused, whatever the interleaving,
/// and the routes still equal a fresh sequential plan.
#[test]
fn a_pooled_batch_that_fills_the_cache_plans_like_a_fresh_one() {
    let machine = Machine::mesh(2, 8);
    let g = machine.graph();
    let n = machine.processors() as u32;
    let demands: Vec<(u32, u32)> = (0..4 * n).map(|i| (i % n, (i * 29 + 3) % n)).collect();
    let fresh = PathOracle::new(g, 9).routes(&demands, Strategy::ShortestPath);
    for capacity in [1, 20, 63] {
        let cache = PlanCache::with_capacity(capacity);
        let pooled = PathOracle::new(g, 9)
            .with_cache(&cache)
            .with_pool(Pool::new(2))
            .routes(&demands, Strategy::ShortestPath);
        assert_eq!(pooled, fresh, "capacity {capacity}");
        assert_eq!(cache.entries(), capacity);
        assert_eq!((cache.hits(), cache.misses()), (0, u64::from(n)));
        assert_eq!(cache.refusals(), u64::from(n) - capacity as u64);
    }
}

#[test]
fn cache_reports_hits_after_warmup() {
    let machine = Machine::mesh(2, 8);
    let demands: Vec<(u32, u32)> = (0..16u32).map(|i| (i, (i + 7) % 64)).collect();
    let cache = PlanCache::default();
    let _ = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, 5, Some(&cache));
    let cold_hits = cache.hits();
    let _ = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, 5, Some(&cache));
    assert!(
        cache.hits() > cold_hits,
        "second batch should hit: {} -> {}",
        cold_hits,
        cache.hits()
    );
    assert!(cache.entries() > 0);
}

/// Without a storing cache a tree's BFS stops at the batch's last
/// destination from its source; a storing cache must still get whole
/// trees, because a later batch may ask the same tree for other
/// destinations. Batch A asks each source for one near destination, batch B
/// for every other one, both with the same plan seed through one cache.
#[test]
fn storing_cache_serves_later_batches_full_trees() {
    for machine in [
        Machine::mesh(2, 8),
        Family::Tree.build_near(63, 1),
        Family::Butterfly.build_near(80, 1),
        Family::Expander.build_near(64, 1),
    ] {
        let n = machine.processors() as u32;
        let near = |s: u32| (s + 1) % n;
        let a: Vec<(u32, u32)> = (0..n).map(|s| (s, near(s))).collect();
        let b: Vec<(u32, u32)> = (0..n)
            .flat_map(|s| (0..n).filter(move |&d| d != near(s)).map(move |d| (s, d)))
            .collect();
        for seed in [3, 4] {
            let cache = PlanCache::default();
            let counting = PlanCache::with_capacity(0);
            for batch in [&a, &b] {
                let fresh = plan_routes_cached(&machine, batch, Strategy::ShortestPath, seed, None);
                let cached =
                    plan_routes_cached(&machine, batch, Strategy::ShortestPath, seed, Some(&cache));
                let counted = plan_routes_cached(
                    &machine,
                    batch,
                    Strategy::ShortestPath,
                    seed,
                    Some(&counting),
                );
                assert_eq!(fresh, cached, "{} seed {seed}", machine.name());
                assert_eq!(fresh, counted, "{} seed {seed}", machine.name());
            }
            assert_eq!(
                cache.hits(),
                n as u64,
                "batch B is served from batch A's trees"
            );
            assert_eq!(counting.entries(), 0);
        }
    }
}
