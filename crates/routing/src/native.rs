//! Machine-aware route planning.
//!
//! The operational bandwidth `β` is the delivery rate under the machine's
//! *best* routing, so each [`Machine`] declares the scheme that realizes its
//! Θ ([`RoutePolicy`]): randomized BFS is fine for meshes, trees and
//! butterflies, but pyramids/multigrids must route across their base mesh
//! (apex avoidance) and the shuffle-exchange / de Bruijn graphs use their
//! classical bit-correction schemes. [`plan_routes`] dispatches on the
//! policy; callers that want to *ablate* the scheme can still construct a
//! [`PathOracle`] directly.

use fcn_exec::Pool;
use fcn_faults::FaultPlan;
use fcn_multigraph::NodeId;
use fcn_topology::{Machine, RoutePolicy};

use crate::cache::PlanCache;
use crate::compiled::{CompiledNet, PacketBatch, RouteError};
use crate::oracle::PathOracle;
use crate::packet::{PacketPath, Strategy};

/// Plan routes for `demands` on `machine` under `strategy`, honoring the
/// machine's native routing policy. `Strategy::Valiant` always uses the
/// two-phase random-intermediate scheme (restricted to the base prefix when
/// the policy demands it).
pub fn plan_routes(
    machine: &Machine,
    demands: &[(NodeId, NodeId)],
    strategy: Strategy,
    seed: u64,
) -> Vec<PacketPath> {
    plan_routes_cached(machine, demands, strategy, seed, None)
}

/// [`plan_routes`] with an optional [`PlanCache`] serving the BFS trees:
/// the one-batch case of [`plan_trial`].
///
/// Cached planning is bit-identical to fresh planning — the oracle's BFS
/// trees are pure functions of `(graph, node limit, source, seed)` — so the
/// cache is purely a wall-clock optimization for repeated batches on the
/// same machine with the same seed (served requests, audits). Policies
/// that route arithmetically (de Bruijn / shuffle-exchange bit correction,
/// X-tree levels) compute no trees and ignore the cache.
pub fn plan_routes_cached(
    machine: &Machine,
    demands: &[(NodeId, NodeId)],
    strategy: Strategy,
    seed: u64,
    cache: Option<&PlanCache>,
) -> Vec<PacketPath> {
    plan_trial(
        machine,
        &[demands],
        strategy,
        seed,
        cache,
        Pool::sequential(),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Plan several batches that share one plan seed — the cells of one
/// estimator trial — returning each batch's routes in input order.
///
/// Under [`Strategy::ShortestPath`] on a BFS policy (shortest-path or
/// prefix-restricted), the batches are planned as one: every distinct
/// source across them gets one tree, fetched or computed once (through
/// `cache`, if any) and unwound for all of that source's demands, and the
/// sources fan out over `pool`. Native policies and [`Strategy::Valiant`]
/// draw from a sequential per-batch RNG, so they plan batch by batch, one
/// batch per pool job. Either way each batch's routes equal
/// [`plan_routes_cached`] on that batch alone, for every worker count.
pub fn plan_trial(
    machine: &Machine,
    batches: &[&[(NodeId, NodeId)]],
    strategy: Strategy,
    seed: u64,
    cache: Option<&PlanCache>,
    pool: Pool,
) -> Vec<Vec<PacketPath>> {
    let policy = machine.route_policy();
    let oracle = || {
        let o = match policy {
            RoutePolicy::RestrictToPrefix(p) => {
                PathOracle::with_node_limit(machine.graph(), p, seed)
            }
            _ => PathOracle::new(machine.graph(), seed),
        };
        match cache {
            Some(c) => o.with_cache(c),
            None => o,
        }
    };
    if strategy == Strategy::ShortestPath
        && matches!(
            policy,
            RoutePolicy::ShortestPath | RoutePolicy::RestrictToPrefix(_)
        )
    {
        let mut routes = oracle()
            .with_pool(pool)
            .routes(&batches.concat(), strategy)
            .into_iter();
        return batches
            .iter()
            .map(|b| routes.by_ref().take(b.len()).collect())
            .collect();
    }
    pool.run(batches.len(), |b| {
        let demands = batches[b];
        match (strategy, policy) {
            (Strategy::ShortestPath, RoutePolicy::DeBruijnBits { g }) => demands
                .iter()
                .map(|&(u, v)| PacketPath::new(de_bruijn_path(u, v, g)))
                .collect(),
            (Strategy::ShortestPath, RoutePolicy::ShuffleExchangeBits { g }) => demands
                .iter()
                .map(|&(u, v)| PacketPath::new(shuffle_exchange_path(u, v, g)))
                .collect(),
            (Strategy::ShortestPath, RoutePolicy::XTreeLevels { depth }) => {
                use rand::SeedableRng as _;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                demands
                    .iter()
                    .map(|&(u, v)| PacketPath::new(xtree_level_path(u, v, depth, &mut rng)))
                    .collect()
            }
            // Valiant; BFS shortest paths were planned above.
            _ => oracle().routes(demands, strategy),
        }
    })
}

/// Plan `demands` and compile the resulting paths straight into a
/// [`PacketBatch`] against an already-compiled `net` — the fused front half
/// of the compile-once/run-many pipeline ([`crate::harness::RouteCtx`] is
/// the ergonomic wrapper).
///
/// Every native planner emits walks on the machine graph, so compilation
/// only fails (`Err(RouteError)`) for a planner bug; callers routing
/// oracle-planned paths may safely `expect` the result.
pub fn plan_batch(
    machine: &Machine,
    net: &CompiledNet,
    demands: &[(NodeId, NodeId)],
    strategy: Strategy,
    seed: u64,
    cache: Option<&PlanCache>,
) -> Result<PacketBatch, RouteError> {
    let paths = plan_routes_cached(machine, demands, strategy, seed, cache);
    PacketBatch::compile(net, &paths)
}

/// Outcome of planning a batch against a [`FaultPlan`]-degraded machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedPlan {
    /// Routes for every *routable* demand, in input order (unreachable
    /// demands are simply absent).
    pub paths: Vec<PacketPath>,
    /// Indices (into the demand slice) of demands with no surviving route:
    /// a dead endpoint, or endpoints in different surviving components.
    pub unreachable: Vec<usize>,
    /// Demands whose native route crossed a fault and were successfully
    /// re-routed by BFS on the degraded graph.
    pub replans: u64,
}

/// Fault-aware [`plan_routes_cached`]: plan `demands` around the dead wires
/// and nodes of `fault_plan`, degrading gracefully per policy.
///
/// * **Empty plan** — delegates to [`plan_routes_cached`] untouched (the
///   transparency pin: zero overhead, bit-identical output).
/// * **BFS policies** (shortest-path, prefix-restricted, Valiant) — the
///   oracle runs on [`FaultPlan::degrade_graph`], so every emitted route
///   avoids dead wires by construction. A failed Valiant route (e.g. a dead
///   random intermediate) falls back to a direct BFS route, counted as a
///   replan.
/// * **Arithmetic policies** (de Bruijn / shuffle-exchange bit correction,
///   X-tree levels) — the native route is computed first; when it crosses a
///   fault, the demand is re-planned by seeded BFS on the degraded graph
///   (counted in [`DegradedPlan::replans`]).
///
/// Demands with a permanently dead endpoint are always unreachable, even
/// the trivial `s == s` ones — a dead processor originates nothing.
/// Attaching a [`PlanCache`] is safe: the degraded graph's fingerprint
/// differs from the intact one's, so cached trees never cross over.
pub fn plan_routes_degraded(
    machine: &Machine,
    demands: &[(NodeId, NodeId)],
    strategy: Strategy,
    seed: u64,
    fault_plan: &FaultPlan,
    cache: Option<&PlanCache>,
) -> DegradedPlan {
    if fault_plan.is_empty() {
        return DegradedPlan {
            paths: plan_routes_cached(machine, demands, strategy, seed, cache),
            unreachable: Vec::new(),
            replans: 0,
        };
    }
    let degraded = fault_plan.degrade_graph(machine.graph());
    let policy = machine.route_policy();
    let limit = match policy {
        RoutePolicy::RestrictToPrefix(p) => Some(p),
        _ => None,
    };
    let oracle = |lim: Option<usize>| {
        let o = match lim {
            Some(p) => PathOracle::with_node_limit(&degraded, p, seed),
            None => PathOracle::new(&degraded, seed),
        };
        match cache {
            Some(c) => o.with_cache(c),
            None => o,
        }
    };
    // Phase 1 — candidate routes. Arithmetic policies compute their native
    // route on the intact topology (to be fault-checked below); every other
    // policy plans directly on the degraded graph and is fault-free by
    // construction.
    let arithmetic = matches!(
        (strategy, policy),
        (
            Strategy::ShortestPath,
            RoutePolicy::DeBruijnBits { .. }
                | RoutePolicy::ShuffleExchangeBits { .. }
                | RoutePolicy::XTreeLevels { .. }
        )
    );
    let mut candidates: Vec<Option<PacketPath>> = if arithmetic {
        plan_routes_cached(machine, demands, strategy, seed, cache)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        oracle(limit).try_routes(demands, strategy)
    };
    // Phase 2 — fault-check and repair. A blocked or missing candidate is
    // re-planned by direct BFS on the degraded graph; per-source BFS
    // seeding keeps the repair a pure function of `(seed, demand)`,
    // independent of which other demands needed repair.
    let mut needs_bfs: Vec<usize> = Vec::new();
    for (i, cand) in candidates.iter_mut().enumerate() {
        let (s, d) = demands[i];
        if fault_plan.node_dead(s) || fault_plan.node_dead(d) {
            *cand = None; // dead endpoint: never routable
            continue;
        }
        let blocked = match cand {
            Some(p) => fault_plan.path_blocked(&p.path),
            None => true,
        };
        if blocked {
            *cand = None;
            needs_bfs.push(i);
        }
    }
    let mut replans = 0u64;
    if !needs_bfs.is_empty() {
        let sub: Vec<(NodeId, NodeId)> = needs_bfs.iter().map(|&i| demands[i]).collect();
        let repaired = oracle(limit).try_routes(&sub, Strategy::ShortestPath);
        for (&i, r) in needs_bfs.iter().zip(repaired) {
            if r.is_some() {
                replans += 1;
            }
            candidates[i] = r;
        }
    }
    // Phase 3 — split routable from stranded.
    let mut paths = Vec::with_capacity(candidates.len());
    let mut unreachable = Vec::new();
    for (i, cand) in candidates.into_iter().enumerate() {
        match cand {
            Some(p) => paths.push(p),
            None => unreachable.push(i),
        }
    }
    if fcn_telemetry::global().enabled() && (replans > 0 || !unreachable.is_empty()) {
        let dropped = unreachable.len() as u64;
        fcn_telemetry::with_shard(|s| {
            s.add(fcn_telemetry::names::PLANNER_REPLANS_TOTAL, replans);
            s.add(fcn_telemetry::names::PLANNER_UNREACHABLE_TOTAL, dropped);
        });
    }
    DegradedPlan {
        paths,
        unreachable,
        replans,
    }
}

/// Strict fault-aware planning: like [`plan_routes_degraded`] but an
/// unreachable demand is a typed [`RouteError::Unreachable`] (carrying the
/// first stranded demand) instead of being dropped. Use this when the
/// caller requires every demand delivered.
pub fn plan_routes_faulted(
    machine: &Machine,
    demands: &[(NodeId, NodeId)],
    strategy: Strategy,
    seed: u64,
    fault_plan: &FaultPlan,
    cache: Option<&PlanCache>,
) -> Result<Vec<PacketPath>, RouteError> {
    let planned = plan_routes_degraded(machine, demands, strategy, seed, fault_plan, cache);
    if let Some(&i) = planned.unreachable.first() {
        let (src, dst) = demands[i];
        return Err(RouteError::Unreachable {
            src,
            dst,
            packet: i,
        });
    }
    Ok(planned.paths)
}

/// The classical de Bruijn route: shift in the destination's bits, most
/// significant first (at most `g` hops), with two shortcuts — direct hops
/// for graph-adjacent pairs, and whichever direction (shift-in `v` from `u`
/// or the reverse of shift-in `u` from `v`) gives the shorter walk. The
/// shortcuts matter for emulations, whose demands are guest-adjacent pairs.
pub fn de_bruijn_path(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
    if u == v {
        return vec![u];
    }
    let mask = (1u64 << g) - 1;
    let (uu, vv) = (u as u64, v as u64);
    // Graph-adjacent (one a shift of the other): single hop.
    let shift_of = |a: u64, b: u64| ((a << 1) & mask) == b || (((a << 1) | 1) & mask) == b;
    if shift_of(uu, vv) || shift_of(vv, uu) {
        return vec![u, v];
    }
    let fwd = de_bruijn_shift_walk(u, v, g);
    let mut rev = de_bruijn_shift_walk(v, u, g);
    if rev.len() < fwd.len() {
        rev.reverse();
        rev
    } else {
        fwd
    }
}

/// Shift-in walk `u -> v` (forward direction only).
fn de_bruijn_shift_walk(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
    let mask = (1u64 << g) - 1;
    let mut cur = u as u64;
    let mut path = vec![u];
    for i in (0..g).rev() {
        if cur == v as u64 {
            break;
        }
        let next = ((cur << 1) | ((v as u64 >> i) & 1)) & mask;
        if next != cur {
            path.push(next as NodeId);
            cur = next;
        }
    }
    debug_assert_eq!(cur, v as u64, "de Bruijn route failed {u} -> {v}");
    path
}

/// The classical shuffle-exchange route: `g` rounds of (optional exchange,
/// shuffle). The bit corrected in round `j` lands at position `(g-j) mod g`,
/// so round `j` targets that bit of `v`. At most `2g` hops.
pub fn shuffle_exchange_path(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
    let mask = (1u64 << g) - 1;
    let rot_left = |x: u64| ((x << 1) | (x >> (g - 1))) & mask;
    if u == v {
        return vec![u];
    }
    // Graph-adjacent pairs (exchange or shuffle edges) hop directly —
    // emulation demands are guest-adjacent and must not pay the 2g-walk.
    if (u ^ v) == 1 || rot_left(u as u64) == v as u64 || rot_left(v as u64) == u as u64 {
        return vec![u, v];
    }
    let mut cur = u as u64;
    let mut path = vec![u];
    for j in 0..g {
        let pos = if j == 0 { 0 } else { g - j };
        let target = (v as u64 >> pos) & 1;
        if cur & 1 != target {
            cur ^= 1; // exchange edge
            path.push(cur as NodeId);
        }
        let shuffled = rot_left(cur);
        if shuffled != cur {
            path.push(shuffled as NodeId);
            cur = shuffled;
        }
    }
    debug_assert_eq!(cur, v as u64, "shuffle-exchange route failed {u} -> {v}");
    path
}

/// Level-balanced X-Tree route.
///
/// Nodes use heap numbering (root 0; children `2i+1`, `2i+2`; level of `i`
/// is `⌊lg(i+1)⌋`). The pair picks a crossing level `ℓ` uniformly between
/// its LCA's level and `depth`, climbs from `u` to its level-`ℓ` ancestor,
/// walks the level's sibling links, and descends to `v`. Adjacent pairs
/// (tree or level edges) hop directly.
pub fn xtree_level_path(
    u: NodeId,
    v: NodeId,
    _depth: u32,
    rng: &mut impl rand::Rng,
) -> Vec<NodeId> {
    use rand::RngExt as _;
    if u == v {
        return vec![u];
    }
    let level_of = |x: NodeId| 32 - (x + 1).leading_zeros() - 1;
    let ancestor_at = |mut x: NodeId, mut lx: u32, target: u32| -> NodeId {
        while lx > target {
            x = (x - 1) / 2;
            lx -= 1;
        }
        x
    };
    let (lu, lv) = (level_of(u), level_of(v));
    // Direct edges: parent/child or same-level neighbors.
    if (lu == lv + 1 && (u - 1) / 2 == v)
        || (lv == lu + 1 && (v - 1) / 2 == u)
        || (lu == lv && u.abs_diff(v) == 1)
    {
        return vec![u, v];
    }
    // LCA level.
    let common = lu.min(lv);
    let (mut a, mut b) = (ancestor_at(u, lu, common), ancestor_at(v, lv, common));
    let mut lca_level = common;
    while a != b {
        a = (a - 1) / 2;
        b = (b - 1) / 2;
        lca_level -= 1;
    }
    // Walk level: uniform between the LCA and the shallower endpoint, so
    // both endpoints climb (never descend) to it. At `walk == lca_level`
    // the horizontal segment is empty (the pure tree path).
    let hi_walk = lu.min(lv);
    let walk = if hi_walk <= lca_level {
        lca_level
    } else {
        rng.random_range(lca_level..=hi_walk)
    };
    let mut path = Vec::new();
    let mut x = u;
    let mut lx = lu;
    path.push(x);
    while lx > walk {
        x = (x - 1) / 2;
        lx -= 1;
        path.push(x);
    }
    // Horizontal walk along the level's sibling links to v's ancestor.
    let target = ancestor_at(v, lv, walk);
    while x != target {
        if x < target {
            x += 1;
        } else {
            x -= 1;
        }
        path.push(x);
    }
    // Descend along v's ancestor chain.
    let mut chain = Vec::new();
    let mut y = v;
    let mut ly = lv;
    while ly > walk {
        chain.push(y);
        y = (y - 1) / 2;
        ly -= 1;
    }
    debug_assert_eq!(y, target);
    for &node in chain.iter().rev() {
        path.push(node);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_topology::Machine;

    #[test]
    fn de_bruijn_paths_are_graph_walks_for_all_pairs() {
        let g = 4u32;
        let m = Machine::de_bruijn(g);
        for u in 0..16u32 {
            for v in 0..16u32 {
                let p = de_bruijn_path(u, v, g);
                assert_eq!(*p.first().unwrap(), u);
                assert_eq!(*p.last().unwrap(), v);
                assert!(p.len() <= g as usize + 1, "{u}->{v}: {p:?}");
                for w in p.windows(2) {
                    assert!(m.graph().has_edge(w[0], w[1]), "{u}->{v}: hop {w:?}");
                }
            }
        }
    }

    #[test]
    fn shuffle_exchange_paths_are_graph_walks_for_all_pairs() {
        let g = 4u32;
        let m = Machine::shuffle_exchange(g);
        for u in 0..16u32 {
            for v in 0..16u32 {
                let p = shuffle_exchange_path(u, v, g);
                assert_eq!(*p.first().unwrap(), u);
                assert_eq!(*p.last().unwrap(), v);
                assert!(p.len() <= 2 * g as usize + 1, "{u}->{v}: {p:?}");
                for w in p.windows(2) {
                    assert!(m.graph().has_edge(w[0], w[1]), "{u}->{v}: hop {w:?}");
                }
            }
        }
    }

    #[test]
    fn plan_routes_uses_native_schemes() {
        let m = Machine::de_bruijn(5);
        let demands = vec![(0u32, 21u32), (7, 7), (3, 30)];
        let routes = plan_routes(&m, &demands, Strategy::ShortestPath, 1);
        assert_eq!(routes.len(), 3);
        for (r, &(s, d)) in routes.iter().zip(&demands) {
            assert_eq!(r.src(), s);
            assert_eq!(r.dst(), d);
            assert!(r.hops() <= 5);
        }
    }

    #[test]
    fn restricted_routing_stays_in_base_mesh() {
        let m = Machine::pyramid(2, 8); // processors = 64 base cells
        let demands: Vec<(u32, u32)> = (0..32).map(|i| (i, 63 - i)).collect();
        let routes = plan_routes(&m, &demands, Strategy::ShortestPath, 2);
        for r in &routes {
            for &node in &r.path {
                assert!((node as usize) < 64, "route left the base mesh: {node}");
            }
        }
    }

    #[test]
    fn valiant_respects_restriction() {
        let m = Machine::pyramid(2, 4);
        let demands: Vec<(u32, u32)> = (0..8).map(|i| (i, 15 - i)).collect();
        let routes = plan_routes(&m, &demands, Strategy::Valiant, 3);
        for r in &routes {
            for &node in &r.path {
                assert!((node as usize) < 16);
            }
        }
    }

    #[test]
    fn xtree_level_paths_are_walks_for_all_pairs() {
        use rand::SeedableRng;
        let depth = 4u32;
        let m = Machine::xtree(depth);
        let n = m.processors() as u32;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for u in 0..n {
            for v in 0..n {
                let p = xtree_level_path(u, v, depth, &mut rng);
                assert_eq!(*p.first().unwrap(), u, "{u}->{v}");
                assert_eq!(*p.last().unwrap(), v, "{u}->{v}");
                for w in p.windows(2) {
                    assert!(m.graph().has_edge(w[0], w[1]), "{u}->{v}: hop {w:?}");
                }
            }
        }
    }

    #[test]
    fn xtree_level_routing_spreads_across_levels() {
        // The measured saturation rate with level routing must clearly beat
        // the root-bound BFS rate at a size where lg n >> constant.
        use crate::engine::{route_batch, RouterConfig};
        use fcn_multigraph::Traffic;
        let m = Machine::xtree(9); // n = 1023
        let t = Traffic::symmetric(m.processors());
        use rand::SeedableRng;
        let mut srng = rand::rngs::StdRng::seed_from_u64(3);
        let demands: Vec<_> = (0..8 * t.n()).map(|_| t.sample(&mut srng)).collect();
        // Native (level-balanced).
        let native = plan_routes(&m, &demands, Strategy::ShortestPath, 7);
        let out_native = route_batch(&m, native, RouterConfig::default());
        assert!(out_native.completed);
        // BFS baseline.
        let bfs =
            crate::oracle::PathOracle::new(m.graph(), 7).routes(&demands, Strategy::ShortestPath);
        let out_bfs = route_batch(&m, bfs, RouterConfig::default());
        assert!(out_bfs.completed);
        let (r_native, r_bfs) = (
            out_native.delivered as f64 / out_native.ticks as f64,
            out_bfs.delivered as f64 / out_bfs.ticks as f64,
        );
        assert!(r_native > 1.5 * r_bfs, "native {r_native} vs bfs {r_bfs}");
    }

    #[test]
    fn plan_batch_compiles_native_plans_infallibly() {
        use crate::compiled::CompiledNet;
        for m in [
            Machine::de_bruijn(5),
            Machine::mesh(2, 6),
            Machine::xtree(4),
            Machine::pyramid(2, 4),
        ] {
            let n = m.processors() as u32;
            let demands: Vec<_> = (0..n / 2).map(|i| (i, n - 1 - i)).collect();
            let net = CompiledNet::compile(&m);
            let batch = plan_batch(&m, &net, &demands, Strategy::ShortestPath, 9, None)
                .expect("native plans are graph walks");
            assert_eq!(batch.len(), demands.len());
            let paths = plan_routes(&m, &demands, Strategy::ShortestPath, 9);
            for (i, p) in paths.iter().enumerate() {
                assert_eq!(batch.decode_path(&net, i), p.path, "{}", m.name());
            }
        }
    }

    #[test]
    fn plan_trial_equals_planning_each_batch_alone() {
        for m in [
            Machine::mesh(2, 6),
            Machine::pyramid(2, 4),
            Machine::de_bruijn(5),
            Machine::xtree(4),
        ] {
            let n = m.processors() as u32;
            let batches: Vec<Vec<(u32, u32)>> = (1..4u32)
                .map(|k| (0..k * n).map(|i| (i * 7 % n, (i * 13 + k) % n)).collect())
                .collect();
            let slices: Vec<&[(u32, u32)]> = batches.iter().map(Vec::as_slice).collect();
            for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
                let alone: Vec<_> = batches
                    .iter()
                    .map(|b| plan_routes(&m, b, strategy, 9))
                    .collect();
                for jobs in [1, 2, 3] {
                    let cache = PlanCache::default();
                    let trial = plan_trial(&m, &slices, strategy, 9, Some(&cache), Pool::new(jobs));
                    assert_eq!(trial, alone, "{} {strategy:?} jobs={jobs}", m.name());
                    if strategy == Strategy::ShortestPath {
                        assert_eq!(cache.hits(), 0, "{}: a tree planned twice", m.name());
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_point_endpoints_route_correctly() {
        // 0…0 and 1…1 are shuffle/shift fixed points; routes to/from them
        // must still work.
        let g = 4u32;
        for (u, v) in [(0u32, 15u32), (15, 0), (0, 1), (15, 14)] {
            let p = de_bruijn_path(u, v, g);
            assert_eq!(*p.last().unwrap(), v);
            let p = shuffle_exchange_path(u, v, g);
            assert_eq!(*p.last().unwrap(), v);
        }
    }
}
