//! Path computation: turns (source, destination) demands into explicit
//! routes, memory-frugally.
//!
//! One BFS tree is computed per distinct *group key* (source for direct
//! routing, intermediate for the second Valiant leg) and dropped as soon as
//! its group is done, so peak memory is one tree plus the output paths.
//! Unless an attached [`PlanCache`] will store it, a tree's BFS stops once
//! its group's destinations are all reached. Per
//! group, BFS tie-breaking uses a random neighbor-preference permutation so
//! that shortest-path load spreads across equal-cost alternatives (on
//! meshes this approximates the usual randomized dimension-interleaving).
//!
//! ## Seeding discipline
//!
//! The BFS seed for source `s` is `job_seed(plan_seed, s)` — a pure
//! function of the oracle's plan seed and the source id, independent of the
//! order sources are visited in and of the batch's composition. Two
//! consequences:
//!
//! * routing the same demands through oracles built with the same seed is
//!   bit-identical regardless of what else each oracle routed before;
//! * a tree may be memoized by `(graph fingerprint, node limit, plan seed,
//!   source)` — which is exactly what [`PlanCache`] does when attached via
//!   [`PathOracle::with_cache`].
//!
//! Valiant intermediate draws still come from the oracle's own sequential
//! RNG: they are consumed in demand order before any BFS runs, so they too
//! are a pure function of `(plan_seed, demand index)`.
//!
//! Attaching a [`Pool`] via [`PathOracle::with_pool`] fans the distinct
//! sources of a batch out over its workers: each source's tree is still
//! fetched or computed exactly once and unwound for all of that source's
//! demands, and the routes come back in input order, so the output is
//! bit-identical for every worker count.
//!
//! Every emitted path is a walk on the host graph (BFS parents are graph
//! edges by construction), so compiling oracle output into a
//! [`crate::compiled::PacketBatch`] against the same machine's
//! [`crate::compiled::CompiledNet`] is infallible; a
//! [`crate::compiled::RouteError`] from that step indicates a planner bug,
//! not bad input.

use std::sync::Arc;

use fcn_exec::{job_seed, Pool};
use fcn_multigraph::{bfs_parents_shuffled, path_from_parents, Multigraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::cache::PlanCache;
use crate::packet::{PacketPath, Strategy};

/// Domain separator so BFS seeds never collide with other uses of the
/// plan-seed stream.
const BFS_STREAM: u64 = 0xb5f5_0000_0000_0001;

/// Computes explicit routes over a fixed host graph.
pub struct PathOracle<'g> {
    graph: &'g Multigraph,
    /// Sequential stream for Valiant intermediates and caller composition.
    rng: StdRng,
    /// Base seed; per-source BFS seeds are mixed from this.
    plan_seed: u64,
    /// BFS only visits nodes with id below this limit (used by machines
    /// whose good routing scheme avoids auxiliary/apex structure).
    node_limit: usize,
    /// Optional memo store; `graph_fp` is the graph's fingerprint, computed
    /// once when the cache is attached.
    cache: Option<&'g PlanCache>,
    graph_fp: u64,
    /// Workers the distinct sources of a batch fan out over.
    pool: Pool,
}

impl<'g> PathOracle<'g> {
    /// An oracle over `graph` whose BFS tie-breaks derive from `seed`.
    pub fn new(graph: &'g Multigraph, seed: u64) -> Self {
        PathOracle {
            graph,
            rng: StdRng::seed_from_u64(seed),
            plan_seed: seed,
            node_limit: usize::MAX,
            cache: None,
            graph_fp: 0,
            pool: Pool::sequential(),
        }
    }

    /// An oracle whose shortest paths are restricted to the subgraph induced
    /// by nodes `0..limit`. All demands must lie inside the prefix.
    pub fn with_node_limit(graph: &'g Multigraph, limit: usize, seed: u64) -> Self {
        let mut oracle = PathOracle::new(graph, seed);
        oracle.node_limit = limit;
        oracle
    }

    /// Attach a [`PlanCache`]; subsequent BFS trees are served from (and
    /// inserted into) it. Cached routes are bit-identical to fresh ones.
    pub fn with_cache(mut self, cache: &'g PlanCache) -> Self {
        self.graph_fp = self.graph.fingerprint();
        self.cache = Some(cache);
        self
    }

    /// Fan each batch's distinct sources out over `pool` (sequential by
    /// default). Routes are bit-identical for every worker count.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Compute routes for the given demands under a strategy.
    ///
    /// Output order matches input order.
    ///
    /// # Panics
    /// Panics when some demand has no path in the host (possible only on
    /// disconnected graphs — e.g. a [`fcn_faults::FaultPlan`]-degraded one);
    /// use [`PathOracle::try_routes`] there.
    pub fn routes(&mut self, demands: &[(NodeId, NodeId)], strategy: Strategy) -> Vec<PacketPath> {
        self.try_routes(demands, strategy)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                #[expect(
                    clippy::panic,
                    reason = "documented panicking wrapper; `try_routes` is the Option-returning entry point"
                )]
                p.unwrap_or_else(|| {
                    let (s, d) = demands[i];
                    panic!("no path {s} -> {d} in host")
                })
            })
            .collect()
    }

    /// [`PathOracle::routes`] surfacing unreachable demands as `None`
    /// instead of panicking — the fault-aware entry point: on a
    /// degraded graph a demand whose endpoints fall in different surviving
    /// components has no route. Reachable demands' routes are bit-identical
    /// to [`PathOracle::routes`] (same BFS trees, same RNG draws, in the
    /// same order).
    pub fn try_routes(
        &mut self,
        demands: &[(NodeId, NodeId)],
        strategy: Strategy,
    ) -> Vec<Option<PacketPath>> {
        match strategy {
            Strategy::ShortestPath => self
                .legs_grouped(demands)
                .into_iter()
                .map(|leg| leg.map(PacketPath::new))
                .collect(),
            Strategy::Valiant => self.valiant_routes(demands),
        }
    }

    fn valiant_routes(&mut self, demands: &[(NodeId, NodeId)]) -> Vec<Option<PacketPath>> {
        let n = (self.graph.node_count().min(self.node_limit)) as NodeId;
        let intermediates: Vec<NodeId> = (0..demands.len())
            .map(|_| self.rng.random_range(0..n))
            .collect();
        let first: Vec<(NodeId, NodeId)> = demands
            .iter()
            .zip(&intermediates)
            .map(|(&(s, _), &w)| (s, w))
            .collect();
        let second: Vec<(NodeId, NodeId)> = demands
            .iter()
            .zip(&intermediates)
            .map(|(&(_, d), &w)| (w, d))
            .collect();
        let leg1 = self.legs_grouped(&first);
        let leg2 = self.legs_grouped(&second);
        leg1.into_iter()
            .zip(leg2)
            .map(|(a, b)| {
                let (mut a, b) = (a?, b?);
                debug_assert_eq!(a.last(), b.first());
                a.extend_from_slice(&b[1..]);
                Some(PacketPath::new(a))
            })
            .collect()
    }

    /// Shortest-path legs for all demands, one BFS per distinct source,
    /// sources fanned out over the oracle's pool, trees dropped eagerly
    /// (unless cached) and grown only as far as their group's destinations
    /// (see [`PathOracle::parents_for`]). Returns raw vertex sequences in
    /// input order; `None` marks demands with no path (disconnected or
    /// degraded hosts).
    fn legs_grouped(&self, demands: &[(NodeId, NodeId)]) -> Vec<Option<Vec<NodeId>>> {
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by_key(|&i| demands[i].0);
        let groups: Vec<&[usize]> = order
            .chunk_by(|&a, &b| demands[a].0 == demands[b].0)
            .collect();
        let legs = self.pool.run(groups.len(), |g| {
            let src = demands[groups[g][0]].0;
            let targets: Vec<NodeId> = groups[g].iter().map(|&i| demands[i].1).collect();
            let parent = self.parents_for(src, &targets);
            groups[g]
                .iter()
                .map(|&i| match demands[i].1 {
                    dst if dst == src => Some(vec![src]),
                    dst => path_from_parents(&parent, src, dst),
                })
                .collect::<Vec<_>>()
        });
        let mut out: Vec<Option<Vec<NodeId>>> = vec![None; demands.len()];
        for (group, legs) in groups.iter().zip(legs) {
            for (&i, leg) in group.iter().zip(legs) {
                out[i] = leg;
            }
        }
        out
    }

    /// The (possibly memoized) BFS parent tree for `src`: a pure function
    /// of `(graph, node_limit, src, plan seed)`, its tie-breaks drawn from a
    /// fresh RNG seeded per source.
    ///
    /// A tree that no cache will keep is read only for `targets`, so its
    /// BFS stops once they all have parents; their paths are the full
    /// tree's, because the RNG is the tree's own. An attached cache decides
    /// how far each tree it computes grows ([`PlanCache`]). The vertices
    /// each computed tree dequeues are counted under
    /// `plan_tree_vertices_total`.
    fn parents_for(&self, src: NodeId, targets: &[NodeId]) -> Arc<Vec<NodeId>> {
        let bfs_seed = job_seed(self.plan_seed ^ BFS_STREAM, src as u64);
        let tree = |stop_at: Option<&[NodeId]>| {
            let mut rng = StdRng::seed_from_u64(bfs_seed);
            let (parent, dequeued) =
                bfs_parents_shuffled(self.graph, src, self.node_limit, stop_at, &mut rng);
            if fcn_telemetry::global().enabled() {
                fcn_telemetry::with_shard(|s| {
                    s.add(
                        fcn_telemetry::names::PLAN_TREE_VERTICES_TOTAL,
                        dequeued as u64,
                    );
                });
            }
            parent
        };
        match self.cache {
            Some(cache) => cache.get_or_compute(
                self.graph_fp,
                self.node_limit,
                self.plan_seed,
                src,
                targets,
                tree,
            ),
            None => Arc::new(tree(Some(targets))),
        }
    }

    /// Access the oracle's RNG (for callers composing extra randomness with
    /// the same seed stream).
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_multigraph::Multigraph;

    fn cycle(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId).map(|i| (i, (i + 1) % n as NodeId)))
    }

    #[test]
    fn direct_routes_are_shortest() {
        let g = cycle(10);
        let mut oracle = PathOracle::new(&g, 1);
        let routes = oracle.routes(&[(0, 3), (0, 7), (5, 5)], Strategy::ShortestPath);
        assert_eq!(routes[0].hops(), 3);
        assert_eq!(routes[1].hops(), 3); // around the other way
        assert_eq!(routes[2].hops(), 0);
        for r in &routes {
            for w in r.path.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn routes_preserve_input_order() {
        let g = cycle(8);
        let mut oracle = PathOracle::new(&g, 2);
        let demands = [(3, 1), (0, 2), (3, 4), (0, 6)];
        let routes = oracle.routes(&demands, Strategy::ShortestPath);
        for (r, &(s, d)) in routes.iter().zip(&demands) {
            assert_eq!(r.src(), s);
            assert_eq!(r.dst(), d);
        }
    }

    #[test]
    fn valiant_routes_connect_endpoints() {
        let g = cycle(12);
        let mut oracle = PathOracle::new(&g, 3);
        let demands: Vec<_> = (0..12u32).map(|i| (i, (i + 6) % 12)).collect();
        let routes = oracle.routes(&demands, Strategy::Valiant);
        for (r, &(s, d)) in routes.iter().zip(&demands) {
            assert_eq!(r.src(), s);
            assert_eq!(r.dst(), d);
            for w in r.path.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn tie_breaking_varies_with_seed() {
        // On a 4x4 torus many (s,d) pairs have multiple shortest paths;
        // different seeds should produce at least one differing route.
        let mut b = fcn_multigraph::MultigraphBuilder::new(16);
        for r in 0..4u32 {
            for c in 0..4u32 {
                let id = r * 4 + c;
                b.add_edge(id, r * 4 + (c + 1) % 4);
                b.add_edge(id, ((r + 1) % 4) * 4 + c);
            }
        }
        let g = b.build();
        let demands: Vec<_> = (0..16u32).map(|i| (i, (i + 5) % 16)).collect();
        let r1 = PathOracle::new(&g, 10).routes(&demands, Strategy::ShortestPath);
        let r2 = PathOracle::new(&g, 20).routes(&demands, Strategy::ShortestPath);
        assert!(r1 != r2, "seeds produced identical routes");
        // But same seed reproduces exactly.
        let r1b = PathOracle::new(&g, 10).routes(&demands, Strategy::ShortestPath);
        assert_eq!(r1, r1b);
    }

    #[test]
    fn routes_are_batch_composition_independent() {
        // Per-source seeding: demand i's route must not depend on which
        // other demands are in the batch or their order.
        let g = cycle(16);
        let demands = [(0u32, 8u32), (5, 12), (11, 2)];
        let full = PathOracle::new(&g, 77).routes(&demands, Strategy::ShortestPath);
        for (i, &d) in demands.iter().enumerate() {
            let solo = PathOracle::new(&g, 77).routes(&[d], Strategy::ShortestPath);
            assert_eq!(solo[0], full[i], "demand {d:?} changed with batch");
        }
        let mut rev = demands;
        rev.reverse();
        let rev_routes = PathOracle::new(&g, 77).routes(&rev, Strategy::ShortestPath);
        for (i, r) in rev_routes.iter().enumerate() {
            assert_eq!(*r, full[demands.len() - 1 - i]);
        }
    }

    #[test]
    fn cached_routes_match_fresh_routes() {
        let g = cycle(20);
        let cache = PlanCache::default();
        let demands: Vec<_> = (0..20u32).map(|i| (i, (i + 9) % 20)).collect();
        let fresh = PathOracle::new(&g, 5).routes(&demands, Strategy::ShortestPath);
        let cold = PathOracle::new(&g, 5)
            .with_cache(&cache)
            .routes(&demands, Strategy::ShortestPath);
        let warm = PathOracle::new(&g, 5)
            .with_cache(&cache)
            .routes(&demands, Strategy::ShortestPath);
        assert_eq!(fresh, cold);
        assert_eq!(fresh, warm);
        assert!(
            cache.hits() >= 20,
            "second pass should hit: {} hits",
            cache.hits()
        );
    }
}
