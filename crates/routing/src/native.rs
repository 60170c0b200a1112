//! Machine-aware route planning.
//!
//! The operational bandwidth `β` is the delivery rate under the machine's
//! *best* routing, so each [`Machine`] declares the scheme that realizes its
//! Θ ([`RoutePolicy`]): randomized BFS is fine for meshes, trees and
//! butterflies, but pyramids/multigrids must route across their base mesh
//! (apex avoidance) and the shuffle-exchange / de Bruijn graphs use their
//! classical bit-correction schemes.
//!
//! [`plan_trial`] is the one planner: it plans one or more batches that
//! share a plan seed, dispatching on the policy, around a fault plan's dead
//! wires and nodes when given one ([`Faults`]). [`plan_routes_cached`] is
//! its one-batch, intact case. To route demands as well as plan them, use
//! [`crate::RouteCtx::route_demands`]. Callers that want to *ablate* the
//! scheme can still construct a [`PathOracle`] directly.

use fcn_exec::Pool;
use fcn_faults::FaultPlan;
use fcn_multigraph::{Multigraph, NodeId};
use fcn_topology::{Machine, RoutePolicy};

use crate::cache::PlanCache;
use crate::oracle::PathOracle;
use crate::packet::{PacketPath, Strategy};

/// Plan routes for `demands` on the intact `machine` under `strategy`,
/// honoring the machine's native routing policy, with an optional
/// [`PlanCache`] serving the BFS trees: the one-batch, intact case of
/// [`plan_trial`]. `Strategy::Valiant` always uses the two-phase
/// random-intermediate scheme (restricted to the base prefix when the
/// policy demands it).
///
/// Cached planning is bit-identical to fresh planning — the oracle's BFS
/// trees are pure functions of `(graph, node limit, source, seed)` — so the
/// cache is purely a wall-clock optimization for repeated batches on the
/// same machine with the same seed (a daemon's warm requests). Policies
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
        None,
        cache,
        Pool::sequential(),
    )
    .into_iter()
    .flat_map(|plan| plan.paths)
    .collect()
}

/// A non-empty [`FaultPlan`] as planners see it: the plan, and the surviving
/// graph ([`FaultPlan::degrade_graph`]) their BFS trees grow on. Built once
/// per plan and shared by every trial planned around it.
pub struct Faults<'a> {
    plan: &'a FaultPlan,
    graph: Multigraph,
}

impl<'a> Faults<'a> {
    /// `plan` resolved against `machine`'s graph, or `None` for an empty
    /// plan: the intact case.
    pub fn new(machine: &Machine, plan: &'a FaultPlan) -> Option<Faults<'a>> {
        (!plan.is_empty()).then(|| Faults {
            plan,
            graph: plan.degrade_graph(machine.graph()),
        })
    }
}

/// Outcome of planning one batch, around a [`FaultPlan`] or on the intact
/// machine.
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

/// Plan several batches that share one plan seed — the cells of one
/// estimator trial — around `faults` (`None`: the intact machine),
/// returning each batch's plan in input order.
///
/// * **BFS policies** (shortest-path, prefix-restricted) under
///   [`Strategy::ShortestPath`] — the batches are planned as one: every
///   distinct source across them gets one tree on the surviving graph,
///   fetched or computed once (through `cache`, if any) and unwound for all
///   of that source's demands, and the sources fan out over `pool`. Every
///   route avoids the faults by construction; a demand the tree does not
///   reach is unreachable (a second tree from the same source and seed
///   would not reach it either).
/// * **Arithmetic policies** (de Bruijn / shuffle-exchange bit correction,
///   X-tree levels) and [`Strategy::Valiant`] draw from a sequential
///   per-batch RNG, so they plan batch by batch, one batch per pool job:
///   arithmetic routes on the intact topology, Valiant on the surviving
///   graph. A route that crosses a fault, or a Valiant route with a dead
///   intermediate, is then re-planned by BFS on the surviving graph —
///   every batch's repairs at once, one tree per distinct source —
///   and counted in [`DegradedPlan::replans`].
///
/// Demands with a permanently dead endpoint are always unreachable, even
/// the trivial `s == s` ones — a dead processor originates nothing. Each
/// batch's plan equals planning that batch alone, for every worker count. Attaching a [`PlanCache`] is safe: the degraded
/// graph's fingerprint differs from the intact one's, so cached trees never
/// cross over.
///
/// # Panics
/// On the intact machine, when some demand has no path in the host.
pub fn plan_trial(
    machine: &Machine,
    batches: &[&[(NodeId, NodeId)]],
    strategy: Strategy,
    seed: u64,
    faults: Option<&Faults<'_>>,
    cache: Option<&PlanCache>,
    pool: Pool,
) -> Vec<DegradedPlan> {
    let policy = machine.route_policy();
    let graph = faults.map_or(machine.graph(), |f| &f.graph);
    let oracle = || {
        let o = match policy {
            RoutePolicy::RestrictToPrefix(p) => PathOracle::with_node_limit(graph, p, seed),
            _ => PathOracle::new(graph, seed),
        };
        match cache {
            Some(c) => o.with_cache(c),
            None => o,
        }
    };
    let bfs = strategy == Strategy::ShortestPath
        && matches!(
            policy,
            RoutePolicy::ShortestPath | RoutePolicy::RestrictToPrefix(_)
        );
    // Phase 1 — candidate routes, one list per batch.
    let mut candidates: Vec<Vec<Option<PacketPath>>> = if bfs {
        let mut routes = oracle()
            .with_pool(pool)
            .try_routes(&batches.concat(), strategy)
            .into_iter();
        batches
            .iter()
            .map(|b| routes.by_ref().take(b.len()).collect())
            .collect()
    } else {
        pool.run(batches.len(), |b| {
            let demands = batches[b];
            match (strategy, policy) {
                (Strategy::ShortestPath, RoutePolicy::DeBruijnBits { g }) => demands
                    .iter()
                    .map(|&(u, v)| Some(PacketPath::new(de_bruijn_path(u, v, g))))
                    .collect(),
                (Strategy::ShortestPath, RoutePolicy::ShuffleExchangeBits { g }) => demands
                    .iter()
                    .map(|&(u, v)| Some(PacketPath::new(shuffle_exchange_path(u, v, g))))
                    .collect(),
                (Strategy::ShortestPath, RoutePolicy::XTreeLevels { depth }) => {
                    use rand::SeedableRng as _;
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    demands
                        .iter()
                        .map(|&(u, v)| {
                            Some(PacketPath::new(xtree_level_path(u, v, depth, &mut rng)))
                        })
                        .collect()
                }
                // Valiant; BFS shortest paths were planned above.
                _ => oracle().try_routes(demands, strategy),
            }
        })
    };
    let mut replans = vec![0u64; batches.len()];
    if let Some(faults) = faults {
        // Phase 2 — fault-check. Dead endpoints are never routable; a
        // blocked or missing non-BFS candidate is queued for repair.
        let mut repairs: Vec<(usize, usize)> = Vec::new();
        for (b, routes) in candidates.iter_mut().enumerate() {
            for (i, route) in routes.iter_mut().enumerate() {
                let (s, d) = batches[b][i];
                let dead_end = faults.plan.node_dead(s) || faults.plan.node_dead(d);
                let blocked = route
                    .as_ref()
                    .is_none_or(|p| faults.plan.path_blocked(&p.path));
                if dead_end || blocked {
                    *route = None;
                    if !dead_end && !bfs {
                        repairs.push((b, i));
                    }
                }
            }
        }
        // Phase 3 — repair by BFS on the surviving graph. Per-source BFS
        // seeding keeps a repair a pure function of `(seed, demand)`,
        // independent of which other demands needed one.
        if !repairs.is_empty() {
            let demands: Vec<(NodeId, NodeId)> =
                repairs.iter().map(|&(b, i)| batches[b][i]).collect();
            let repaired = oracle()
                .with_pool(pool)
                .try_routes(&demands, Strategy::ShortestPath);
            for (&(b, i), route) in repairs.iter().zip(repaired) {
                replans[b] += u64::from(route.is_some());
                candidates[b][i] = route;
            }
        }
    }
    // Phase 4 — split routable from stranded.
    let plans: Vec<DegradedPlan> = candidates
        .into_iter()
        .zip(batches)
        .zip(replans)
        .map(|((routes, demands), replans)| {
            let mut plan = DegradedPlan {
                paths: Vec::with_capacity(routes.len()),
                unreachable: Vec::new(),
                replans,
            };
            for (i, route) in routes.into_iter().enumerate() {
                match route {
                    Some(p) => plan.paths.push(p),
                    None if faults.is_some() => plan.unreachable.push(i),
                    // fcn-allow: ERR-UNWRAP documented panic: every machine graph is connected
                    None => panic!("no path {} -> {} in host", demands[i].0, demands[i].1),
                }
            }
            plan
        })
        .collect();
    if fcn_telemetry::global().enabled() {
        let replans: u64 = plans.iter().map(|p| p.replans).sum();
        let dropped: usize = plans.iter().map(|p| p.unreachable.len()).sum();
        if replans > 0 || dropped > 0 {
            fcn_telemetry::with_shard(|s| {
                s.add(fcn_telemetry::names::PLANNER_REPLANS_TOTAL, replans);
                s.add(
                    fcn_telemetry::names::PLANNER_UNREACHABLE_TOTAL,
                    dropped as u64,
                );
            });
        }
    }
    plans
}

/// The classical de Bruijn route: shift in the destination's bits, most
/// significant first (at most `g` hops), with two shortcuts — direct hops
/// for graph-adjacent pairs, and whichever direction (shift-in `v` from `u`
/// or the reverse of shift-in `u` from `v`) gives the shorter walk. The
/// shortcuts matter for emulations, whose demands are guest-adjacent pairs.
pub(crate) fn de_bruijn_path(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
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
pub(crate) fn shuffle_exchange_path(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
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
pub(crate) fn xtree_level_path(
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
        let routes = plan_routes_cached(&m, &demands, Strategy::ShortestPath, 1, None);
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
        let routes = plan_routes_cached(&m, &demands, Strategy::ShortestPath, 2, None);
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
        let routes = plan_routes_cached(&m, &demands, Strategy::Valiant, 3, None);
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
        use crate::compiled::{CompiledNet, PacketBatch};
        use crate::engine::{route_compiled_pooled, RouterConfig};
        use crate::harness::RouteCtx;
        use fcn_multigraph::Traffic;
        let m = Machine::xtree(9); // n = 1023
        let t = Traffic::symmetric(m.processors());
        use rand::SeedableRng;
        let mut srng = rand::rngs::StdRng::seed_from_u64(3);
        let demands: Vec<_> = (0..8 * t.n()).map(|_| t.sample(&mut srng)).collect();
        // Native (level-balanced).
        let ctx = RouteCtx::new(&m);
        let out_native =
            ctx.route_demands(&demands, Strategy::ShortestPath, 7, RouterConfig::default());
        assert!(out_native.completed);
        // BFS baseline.
        let bfs =
            crate::oracle::PathOracle::new(m.graph(), 7).routes(&demands, Strategy::ShortestPath);
        let net = CompiledNet::compile(&m);
        let batch = PacketBatch::compile(&net, &bfs).expect("oracle routes are walks");
        let out_bfs = route_compiled_pooled(&net, &batch, RouterConfig::default());
        assert!(out_bfs.completed);
        let (r_native, r_bfs) = (
            out_native.delivered as f64 / out_native.ticks as f64,
            out_bfs.delivered as f64 / out_bfs.ticks as f64,
        );
        assert!(r_native > 1.5 * r_bfs, "native {r_native} vs bfs {r_bfs}");
    }

    #[test]
    fn plan_batch_compiles_native_plans_infallibly() {
        use crate::compiled::{CompiledNet, PacketBatch};
        for m in [
            Machine::de_bruijn(5),
            Machine::mesh(2, 6),
            Machine::xtree(4),
            Machine::pyramid(2, 4),
        ] {
            let n = m.processors() as u32;
            let demands: Vec<_> = (0..n / 2).map(|i| (i, n - 1 - i)).collect();
            let net = CompiledNet::compile(&m);
            let paths = plan_routes_cached(&m, &demands, Strategy::ShortestPath, 9, None);
            let batch = PacketBatch::compile(&net, &paths).expect("native plans are graph walks");
            assert_eq!(batch.len(), demands.len());
            for (i, p) in paths.iter().enumerate() {
                assert_eq!(batch.decode_path(&net, i), p.path, "{}", m.name());
            }
        }
    }

    #[test]
    fn plan_trial_equals_planning_each_batch_alone() {
        use fcn_faults::FaultSpec;
        let mut replans = 0;
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
            let faulted = FaultPlan::generate(m.graph(), &FaultSpec::uniform(3, 0.15));
            assert!(!faulted.is_empty(), "{}", m.name());
            for fault_plan in [FaultPlan::none(), faulted] {
                let faults = Faults::new(&m, &fault_plan);
                for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
                    let alone: Vec<_> = batches
                        .iter()
                        .map(|b| {
                            let one = [b.as_slice()];
                            let pool = Pool::sequential();
                            plan_trial(&m, &one, strategy, 9, faults.as_ref(), None, pool)
                                .swap_remove(0)
                        })
                        .collect();
                    for (plan, batch) in alone.iter().zip(&batches) {
                        replans += plan.replans;
                        assert_eq!(plan.paths.len() + plan.unreachable.len(), batch.len());
                        assert!(plan.paths.iter().all(|p| !fault_plan.path_blocked(&p.path)));
                    }
                    for jobs in [1, 2, 3] {
                        let cache = PlanCache::default();
                        let trial = plan_trial(
                            &m,
                            &slices,
                            strategy,
                            9,
                            faults.as_ref(),
                            Some(&cache),
                            Pool::new(jobs),
                        );
                        let what = format!(
                            "{} {strategy:?} faulted={} jobs={jobs}",
                            m.name(),
                            faults.is_some()
                        );
                        assert_eq!(trial, alone, "{what}");
                        if strategy == Strategy::ShortestPath {
                            assert_eq!(cache.hits(), 0, "{what}: a tree planned twice");
                        }
                    }
                }
            }
        }
        assert!(replans > 0, "the fault plans must force some repairs");
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
