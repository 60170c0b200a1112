//! Property tests for the [`PlanCache`]: cache-served route planning must be
//! *indistinguishable* from fresh planning.
//!
//! The cache memoizes BFS parent trees keyed by (graph fingerprint, node
//! limit, plan seed, source). Because each tree is a pure function of that
//! key, a cache hit must reproduce exactly the path a fresh computation
//! would have produced — across machines, strategies, seeds, and demand
//! batches, including cache reuse across *different* batches with the same
//! plan seed (the saturation-sweep pattern) and eviction of older plan
//! seeds when the cache is full.

use std::collections::BTreeSet;

use fcn_routing::{plan_routes_cached, PlanCache, Strategy};
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
        // interleaved, forces both generation evictions and refusals;
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

/// The estimator's pattern — three trials, each with its own plan seed,
/// each planning batches of 2n, 4n and 8n messages — against a cache that
/// holds one trial's trees but not three (n ≤ capacity < 3n). Once a trial
/// is done its trees are dead, so the cache must make room for the next
/// trial by evicting them rather than refusing the live trial's trees:
/// every tree is computed exactly once per trial.
#[test]
fn finished_trials_make_room_for_the_next() {
    let machine = Machine::mesh(2, 8);
    let n = machine.processors();
    let capacity = 100;
    assert!(n <= capacity && capacity < 3 * n);
    let cache = PlanCache::with_capacity(capacity);
    let mut trees_needed = 0;
    for trial in 0..3u64 {
        let seed = 0x5eed ^ trial;
        let mut sources = BTreeSet::new();
        for multiplier in [2, 4, 8] {
            let demands: Vec<(u32, u32)> = (0..multiplier * n)
                .map(|i| ((i * 7 % n) as u32, ((i * 37 + 11) % n) as u32))
                .collect();
            sources.extend(demands.iter().map(|&(s, _)| s));
            let served = plan_routes_cached(
                &machine,
                &demands,
                Strategy::ShortestPath,
                seed,
                Some(&cache),
            );
            let fresh = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, seed, None);
            assert_eq!(served, fresh, "trial {trial}, batch {multiplier}n");
        }
        trees_needed += sources.len() as u64;
    }
    assert_eq!(cache.misses(), trees_needed, "one tree per (trial, source)");
    assert_eq!(cache.refusals(), 0);
    assert_eq!(cache.evictions(), 2 * n as u64, "trials 1 and 2 evicted");
    assert!(cache.entries() <= capacity);
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
