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
//! share a plan seed on a [`RouteCtx`], dispatching on the policy, around
//! the context's faults when it has some. It writes each batch's
//! [`PacketBatch`] directly: every planner job — a BFS source group, a
//! demand range of an arithmetic cell, a Valiant cell, a group of fault
//! repairs — walks its routes into a reused vertex buffer and appends the
//! hops' wire ids to its own arena, and one assembly pass copies every
//! route into its cell's batch in demand order. [`plan_routes_cached`] is
//! its one-batch, intact case, decoded back into vertex paths. To route
//! demands as well as plan them, use [`crate::RouteCtx::route_demands`].
//! Callers that want to *ablate* the scheme can still construct a
//! [`crate::PathOracle`] directly.

use std::ops::Range;

use fcn_exec::Pool;
use fcn_faults::FaultPlan;
use fcn_multigraph::{Multigraph, NodeId};
use fcn_topology::{Machine, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng as _;

use crate::cache::PlanCache;
use crate::compiled::{CompiledNet, PacketBatch, Routes, Runs};
use crate::harness::RouteCtx;
use crate::oracle::PathOracle;
use crate::packet::{PacketPath, Strategy};

/// Demands per job of an arithmetic cell: bit-correction routes are pure
/// per demand, so a cell splits into ranges of this many over the pool.
const WALK_CHUNK: usize = 4096;

/// Plan routes for `demands` on the intact `machine` under `strategy`,
/// honoring the machine's native routing policy, with an optional
/// [`PlanCache`] serving the BFS trees: the one-batch, intact case of
/// [`plan_trial`], decoded into vertex paths. `Strategy::Valiant` always
/// uses the two-phase random-intermediate scheme (restricted to the base
/// prefix when the policy demands it).
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
    let ctx = RouteCtx::new(machine);
    let ctx = match cache {
        Some(c) => ctx.with_cache(c),
        None => ctx,
    };
    let plan = plan_trial(&ctx, &[demands], strategy, seed, Pool::sequential());
    let batch = &plan.batches[0].batch;
    (0..batch.len())
        .map(|i| PacketPath::new(batch.decode_path(ctx.net(), i)))
        .collect()
}

/// A non-empty [`FaultPlan`] as planners see it: the plan, and the surviving
/// graph ([`FaultPlan::degrade_graph`]) their BFS trees grow on. Built once
/// per plan and shared by every trial planned around it.
#[derive(Clone)]
pub(crate) struct Faults<'a> {
    plan: &'a FaultPlan,
    graph: Multigraph,
}

impl<'a> Faults<'a> {
    /// `plan` resolved against `machine`'s graph, or `None` for an empty
    /// plan: the intact case.
    pub(crate) fn new(machine: &Machine, plan: &'a FaultPlan) -> Option<Faults<'a>> {
        (!plan.is_empty()).then(|| Faults {
            plan,
            graph: plan.degrade_graph(machine.graph()),
        })
    }

    /// Can the route leaving `src` over `wires` never be delivered? It
    /// cannot when one of its wires is dead on `net` (the net with this
    /// plan applied) or it touches a dead node: its source (the tail of its
    /// first wire) or any wire's head. [`FaultPlan::path_blocked`] on the
    /// wire run itself.
    fn blocks(&self, net: &CompiledNet, src: NodeId, wires: &[u32]) -> bool {
        self.plan.node_dead(src)
            || wires
                .iter()
                .any(|&w| net.wire_dead(w) || self.plan.node_dead(net.wire_head(w)))
    }
}

/// Outcome of planning one batch, around a [`FaultPlan`] or on the intact
/// machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedPlan {
    /// Routes for every *routable* demand, in input order (unreachable
    /// demands are simply absent), as wire ids of the context's net.
    pub batch: PacketBatch,
    /// Indices (into the demand slice) of demands with no surviving route:
    /// a dead endpoint, or endpoints in different surviving components.
    pub unreachable: Vec<usize>,
    /// Demands whose native route crossed a fault and were successfully
    /// re-routed by BFS on the degraded graph.
    pub replans: u64,
}

/// What [`plan_trial`] produces: each batch's plan, and the BFS trees the
/// planning computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialPlan {
    /// One plan per batch, in input order.
    pub batches: Vec<DegradedPlan>,
    /// BFS trees computed for these batches: every tree planned, less those
    /// the attached [`PlanCache`] served. Planners that route arithmetically
    /// compute none.
    pub trees: u64,
}

/// How a trial's routes are planned.
#[derive(Debug, Clone, Copy)]
enum Planner {
    /// BFS shortest paths, every batch's demands grouped by source.
    Bfs,
    /// Valiant's two phases, batch by batch.
    Valiant,
    /// A native arithmetic walk, demand by demand.
    Walk(Walk),
}

/// The native policies that route arithmetically.
#[derive(Debug, Clone, Copy)]
enum Walk {
    DeBruijn(u32),
    ShuffleExchange(u32),
    XTree(u32),
}

/// Plan several batches that share one plan seed — the cells of one
/// estimator trial — on `ctx`: around its faults (if any), through its
/// plan cache (if any), each batch's routes written as wire ids of its net.
/// Returns each batch's plan in input order.
///
/// * **BFS policies** (shortest-path, prefix-restricted) under
///   [`Strategy::ShortestPath`] — the batches are planned as one: every
///   distinct source across them gets one tree on the surviving graph,
///   fetched or computed once (through the cache, if any) and unwound for
///   all of that source's demands, and the sources fan out over `pool`.
///   Every route avoids the faults by construction; a demand the tree does
///   not reach is unreachable (a second tree from the same source and seed
///   would not reach it either).
/// * **Arithmetic policies** (de Bruijn / shuffle-exchange bit correction)
///   route each demand on its own, so every batch splits into ranges of
///   demands over `pool`. X-tree levels draw from one sequential RNG per
///   batch and [`Strategy::Valiant`] draws its intermediates from one, so
///   they plan one batch per pool job: arithmetic routes on the intact
///   topology, Valiant on the surviving graph. A route that crosses a
///   fault, or a Valiant route with a dead intermediate, is then re-planned
///   by BFS on the surviving graph — every batch's repairs at once, one
///   tree per distinct source — and counted in [`DegradedPlan::replans`].
///
/// Demands with a permanently dead endpoint are always unreachable, even
/// the trivial `s == s` ones — a dead processor originates nothing. Each
/// batch's plan equals planning that batch alone, for every worker count.
/// Attaching a [`PlanCache`] is safe: the degraded graph's fingerprint
/// differs from the intact one's, so cached trees never cross over.
///
/// # Panics
/// On the intact machine, when some demand has no path in the host.
pub fn plan_trial(
    ctx: &RouteCtx<'_>,
    batches: &[&[(NodeId, NodeId)]],
    strategy: Strategy,
    seed: u64,
    pool: Pool,
) -> TrialPlan {
    let (machine, net, faults) = (ctx.machine(), &**ctx.net(), ctx.faults.as_ref());
    let policy = machine.route_policy();
    let graph = faults.map_or(machine.graph(), |f| &f.graph);
    let oracle = || {
        let o = match policy {
            RoutePolicy::RestrictToPrefix(p) => PathOracle::with_node_limit(graph, p, seed),
            _ => PathOracle::new(graph, seed),
        };
        match ctx.cache {
            Some(c) => o.with_cache(c),
            None => o,
        }
    };
    let planner = match (strategy, policy) {
        (Strategy::Valiant, _) => Planner::Valiant,
        (_, RoutePolicy::DeBruijnBits { g }) => Planner::Walk(Walk::DeBruijn(g)),
        (_, RoutePolicy::ShuffleExchangeBits { g }) => Planner::Walk(Walk::ShuffleExchange(g)),
        (_, RoutePolicy::XTreeLevels { depth }) => Planner::Walk(Walk::XTree(depth)),
        (_, RoutePolicy::ShortestPath | RoutePolicy::RestrictToPrefix(_)) => Planner::Bfs,
    };
    // Demand `i` of batch `b` is demand `base[b] + i` of the trial.
    let mut base = Vec::with_capacity(batches.len() + 1);
    base.push(0);
    for b in batches {
        base.push(base[base.len() - 1] + b.len());
    }
    let demands = batches.concat();
    // Phase 1 — candidate routes, every job into its own arena.
    let mut trees = 0;
    let jobs = match planner {
        Planner::Bfs => {
            let o = oracle().with_pool(pool);
            let runs = o.leg_runs(net, &demands);
            trees += o.trees_computed();
            runs
        }
        Planner::Valiant => pool
            .run(batches.len(), |b| {
                let mut o = oracle();
                (o.valiant_runs(net, batches[b], base[b]), o.trees_computed())
            })
            .into_iter()
            .map(|(runs, computed)| {
                trees += computed;
                runs
            })
            .collect(),
        Planner::Walk(walk) => {
            // X-tree levels draw from one RNG per batch: one job per batch.
            let chunk = match walk {
                Walk::XTree(_) => usize::MAX,
                _ => WALK_CHUNK,
            };
            let ranges: Vec<Range<usize>> = (0..batches.len())
                .flat_map(|b| {
                    let end = base[b + 1];
                    (base[b]..end)
                        .step_by(chunk)
                        .map(move |lo| lo..end.min(lo.saturating_add(chunk)))
                })
                .collect();
            pool.run(ranges.len(), |r| {
                walk.runs(net, &demands, ranges[r].clone(), seed)
            })
        }
    };
    let mut routes = Routes::new(jobs, demands.len());
    let mut replans = vec![0u64; batches.len()];
    if let Some(faults) = faults {
        // Phase 2 — fault-check. Dead endpoints are never routable; a
        // blocked or missing non-BFS candidate is queued for repair.
        let mut repairs: Vec<usize> = Vec::new();
        for (i, &(s, d)) in demands.iter().enumerate() {
            let dead_end = faults.plan.node_dead(s) || faults.plan.node_dead(d);
            let blocked = routes
                .route(i)
                .is_none_or(|wires| faults.blocks(net, s, wires));
            if dead_end || blocked {
                routes.clear(i);
                if !dead_end && !matches!(planner, Planner::Bfs) {
                    repairs.push(i);
                }
            }
        }
        // Phase 3 — repair by BFS on the surviving graph. Per-source BFS
        // seeding keeps a repair a pure function of `(seed, demand)`,
        // independent of which other demands needed one.
        if !repairs.is_empty() {
            let legs: Vec<(NodeId, NodeId)> = repairs.iter().map(|&i| demands[i]).collect();
            let o = oracle().with_pool(pool);
            for runs in o.leg_runs(net, &legs) {
                routes.add(runs, |r| repairs[r]);
            }
            trees += o.trees_computed();
            for &i in &repairs {
                let b = base.partition_point(|&start| start <= i) - 1;
                replans[b] += u64::from(routes.route(i).is_some());
            }
        }
    }
    // Phase 4 — assembly: each batch's routes in demand order.
    let plans: Vec<DegradedPlan> = (0..batches.len())
        .zip(replans)
        .map(|(b, replans)| {
            let mut unreachable = Vec::new();
            let missing = |i: usize| {
                let (s, d) = demands[i];
                #[expect(
                    clippy::panic,
                    reason = "documented panic: every machine graph is connected"
                )]
                if faults.is_none() {
                    panic!("no path {s} -> {d} in host");
                }
                unreachable.push(i - base[b]);
            };
            #[expect(
                clippy::panic,
                reason = "documented panic: a trial's packet ids and wire ids fit u32"
            )]
            let batch = routes
                .batch(base[b]..base[b + 1], |i| demands[i].0, missing)
                .unwrap_or_else(|e| panic!("planner produced unroutable batch: {e}"));
            DegradedPlan {
                batch,
                unreachable,
                replans,
            }
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
    TrialPlan {
        batches: plans,
        trees,
    }
}

impl Walk {
    /// Hops to reserve per route: the most a bit-correction route takes
    /// (one per bit, two on the shuffle-exchange), and an X-tree route's
    /// longest climb and descent (its level walk may add more).
    fn hops(self) -> usize {
        match self {
            Walk::DeBruijn(g) => g as usize,
            Walk::ShuffleExchange(g) => 2 * g as usize,
            Walk::XTree(depth) => 2 * depth as usize,
        }
    }

    /// The routes of `demands[range]`, one batch's or part of one, written
    /// against `net`. X-tree levels draw from a fresh RNG seeded with the
    /// plan seed, so `range` must be a whole batch for them.
    fn runs(
        self,
        net: &CompiledNet,
        demands: &[(NodeId, NodeId)],
        range: Range<usize>,
        seed: u64,
    ) -> Runs {
        // Reserved for routes of the walk's usual length: a growing arena
        // costs more than the walk itself.
        let mut runs = Runs::with_capacity(range.len(), range.len() * self.hops());
        let mut walk = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in range {
            let (u, v) = demands[i];
            walk.clear();
            match self {
                Walk::DeBruijn(g) => de_bruijn_walk(u, v, g, &mut walk),
                Walk::ShuffleExchange(g) => shuffle_exchange_walk(u, v, g, &mut walk),
                Walk::XTree(depth) => xtree_level_walk(u, v, depth, &mut rng, &mut walk),
            }
            runs.push_walk(net, i, &walk);
        }
        runs
    }
}

/// The classical de Bruijn route, written into `walk`: shift in the
/// destination's bits, most significant first (at most `g` hops), with two
/// shortcuts — direct hops for graph-adjacent pairs, and whichever direction
/// (shift-in `v` from `u` or the reverse of shift-in `u` from `v`) gives the
/// shorter walk. The shortcuts matter for emulations, whose demands are
/// guest-adjacent pairs.
fn de_bruijn_walk(u: NodeId, v: NodeId, g: u32, walk: &mut Vec<NodeId>) {
    if u == v {
        walk.push(u);
        return;
    }
    let mask = (1u64 << g) - 1;
    let (uu, vv) = (u as u64, v as u64);
    // Graph-adjacent (one a shift of the other): single hop.
    let shift_of = |a: u64, b: u64| ((a << 1) & mask) == b || (((a << 1) | 1) & mask) == b;
    if shift_of(uu, vv) || shift_of(vv, uu) {
        walk.extend([u, v]);
        return;
    }
    // Count both walks' hops, then build only the shorter; the reversed
    // walk wins only when strictly shorter.
    let hops = |a, b| {
        let mut k = 0;
        de_bruijn_shift_walk(a, b, g, |_| k += 1);
        k
    };
    let (a, b) = if hops(v, u) < hops(u, v) {
        (v, u)
    } else {
        (u, v)
    };
    walk.push(a);
    de_bruijn_shift_walk(a, b, g, |w| walk.push(w));
    if a != u {
        walk.reverse();
    }
}

/// Shift-in walk `u -> v` (forward direction only): `step` is called on
/// each vertex after `u`, in order.
fn de_bruijn_shift_walk(u: NodeId, v: NodeId, g: u32, mut step: impl FnMut(NodeId)) {
    let mask = (1u64 << g) - 1;
    let mut cur = u as u64;
    for i in (0..g).rev() {
        if cur == v as u64 {
            break;
        }
        let next = ((cur << 1) | ((v as u64 >> i) & 1)) & mask;
        if next != cur {
            step(next as NodeId);
            cur = next;
        }
    }
    debug_assert_eq!(cur, v as u64, "de Bruijn route failed {u} -> {v}");
}

/// The classical shuffle-exchange route, written into `walk`: `g` rounds
/// of (optional exchange, shuffle). The bit corrected in round `j` lands at
/// position `(g-j) mod g`, so round `j` targets that bit of `v`. At most
/// `2g` hops.
fn shuffle_exchange_walk(u: NodeId, v: NodeId, g: u32, walk: &mut Vec<NodeId>) {
    let mask = (1u64 << g) - 1;
    let rot_left = |x: u64| ((x << 1) | (x >> (g - 1))) & mask;
    walk.push(u);
    if u == v {
        return;
    }
    // Graph-adjacent pairs (exchange or shuffle edges) hop directly —
    // emulation demands are guest-adjacent and must not pay the 2g-walk.
    if (u ^ v) == 1 || rot_left(u as u64) == v as u64 || rot_left(v as u64) == u as u64 {
        walk.push(v);
        return;
    }
    let mut cur = u as u64;
    for j in 0..g {
        let pos = if j == 0 { 0 } else { g - j };
        let target = (v as u64 >> pos) & 1;
        if cur & 1 != target {
            cur ^= 1; // exchange edge
            walk.push(cur as NodeId);
        }
        let shuffled = rot_left(cur);
        if shuffled != cur {
            walk.push(shuffled as NodeId);
            cur = shuffled;
        }
    }
    debug_assert_eq!(cur, v as u64, "shuffle-exchange route failed {u} -> {v}");
}

/// Level-balanced X-Tree route, written into `walk`.
///
/// Nodes use heap numbering (root 0; children `2i+1`, `2i+2`; level of `i`
/// is `⌊lg(i+1)⌋`). The pair picks a crossing level `ℓ` uniformly between
/// its LCA's level and `depth`, climbs from `u` to its level-`ℓ` ancestor,
/// walks the level's sibling links, and descends to `v`. Adjacent pairs
/// (tree or level edges) hop directly.
fn xtree_level_walk(
    u: NodeId,
    v: NodeId,
    _depth: u32,
    rng: &mut impl rand::Rng,
    walk: &mut Vec<NodeId>,
) {
    use rand::RngExt as _;
    walk.push(u);
    if u == v {
        return;
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
        walk.push(v);
        return;
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
    // both endpoints climb (never descend) to it. At `level == lca_level`
    // the horizontal segment is empty (the pure tree path).
    let hi_walk = lu.min(lv);
    let level = if hi_walk <= lca_level {
        lca_level
    } else {
        rng.random_range(lca_level..=hi_walk)
    };
    let mut x = u;
    let mut lx = lu;
    while lx > level {
        x = (x - 1) / 2;
        lx -= 1;
        walk.push(x);
    }
    // Horizontal walk along the level's sibling links to v's ancestor.
    let target = ancestor_at(v, lv, level);
    while x != target {
        if x < target {
            x += 1;
        } else {
            x -= 1;
        }
        walk.push(x);
    }
    // Descend along v's ancestor chain: push it bottom-up, then reverse it.
    let descent = walk.len();
    let mut y = v;
    let mut ly = lv;
    while ly > level {
        walk.push(y);
        y = (y - 1) / 2;
        ly -= 1;
    }
    debug_assert_eq!(y, target);
    walk[descent..].reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_topology::Machine;

    fn de_bruijn_path(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
        let mut walk = Vec::new();
        de_bruijn_walk(u, v, g, &mut walk);
        walk
    }

    fn shuffle_exchange_path(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
        let mut walk = Vec::new();
        shuffle_exchange_walk(u, v, g, &mut walk);
        walk
    }

    fn xtree_level_path(u: NodeId, v: NodeId, depth: u32, rng: &mut StdRng) -> Vec<NodeId> {
        let mut walk = Vec::new();
        xtree_level_walk(u, v, depth, rng, &mut walk);
        walk
    }

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

    /// The two-walk rule `de_bruijn_path` replaced: after the same
    /// shortcuts, build both shift walks and keep the reversed one only
    /// when it is strictly shorter.
    fn de_bruijn_path_two_walks(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
        let mask = (1u64 << g) - 1;
        let shift_of = |a: u32, b: u32| {
            let (a, b) = (a as u64, b as u64);
            (a << 1) & mask == b || ((a << 1) | 1) & mask == b
        };
        if u == v {
            return vec![u];
        }
        if shift_of(u, v) || shift_of(v, u) {
            return vec![u, v];
        }
        let walk = |a, b| {
            let mut path = vec![a];
            de_bruijn_shift_walk(a, b, g, |w| path.push(w));
            path
        };
        let (fwd, mut rev) = (walk(u, v), walk(v, u));
        if rev.len() < fwd.len() {
            rev.reverse();
            rev
        } else {
            fwd
        }
    }

    #[test]
    fn de_bruijn_path_builds_the_two_walk_rules_choice() {
        for g in 3..=8u32 {
            for u in 0..1u32 << g {
                for v in 0..1u32 << g {
                    assert_eq!(de_bruijn_path(u, v, g), de_bruijn_path_two_walks(u, v, g));
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
                let ctx = RouteCtx::new(&m).with_faults(&fault_plan);
                for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
                    let alone: Vec<_> = batches
                        .iter()
                        .map(|b| {
                            let one = [b.as_slice()];
                            plan_trial(&ctx, &one, strategy, 9, Pool::sequential())
                                .batches
                                .swap_remove(0)
                        })
                        .collect();
                    for (plan, batch) in alone.iter().zip(&batches) {
                        replans += plan.replans;
                        assert_eq!(plan.batch.len() + plan.unreachable.len(), batch.len());
                        for i in 0..plan.batch.len() {
                            let walk = plan.batch.decode_path(ctx.net(), i);
                            assert!(!fault_plan.path_blocked(&walk));
                        }
                    }
                    for jobs in [1, 2, 3] {
                        let cache = PlanCache::default();
                        let cached = RouteCtx::new(&m)
                            .with_faults(&fault_plan)
                            .with_cache(&cache);
                        let trial = plan_trial(&cached, &slices, strategy, 9, Pool::new(jobs));
                        let what = format!(
                            "{} {strategy:?} faulted={} jobs={jobs}",
                            m.name(),
                            !fault_plan.is_empty()
                        );
                        assert_eq!(trial.batches, alone, "{what}");
                        assert_eq!(trial.trees, cache.misses(), "{what}");
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
    fn the_wire_run_fault_check_is_path_blocked() {
        // Random walks, some through dead wires and dead nodes, some not:
        // `Faults::blocks` on a walk's wire run must agree with
        // `FaultPlan::path_blocked` on its vertices, zero-hop walks too.
        use fcn_faults::FaultSpec;
        use rand::RngExt as _;
        let (mut blocked, mut clear) = (0, 0);
        for (m, rate) in [
            (Machine::mesh(2, 8), 0.1),
            (Machine::de_bruijn(6), 0.05),
            (Machine::xtree(5), 0.2),
        ] {
            let plan = FaultPlan::generate(m.graph(), &FaultSpec::uniform(11, rate));
            let faults = Faults::new(&m, &plan).expect("a non-empty plan");
            let net = CompiledNet::compile(&m).apply_faults(&plan);
            let mut rng = StdRng::seed_from_u64(17);
            for _ in 0..2000 {
                let mut walk = vec![rng.random_range(0..m.graph().node_count() as NodeId)];
                for _ in 0..rng.random_range(0..8usize) {
                    let here = walk[walk.len() - 1];
                    let out: Vec<NodeId> = m
                        .graph()
                        .neighbor_ids(here)
                        .iter()
                        .copied()
                        .filter(|&v| v != here)
                        .collect();
                    walk.push(out[rng.random_range(0..out.len())]);
                }
                let mut runs = Runs::default();
                runs.push_walk(&net, 0, &walk);
                let routes = Routes::new(vec![runs], 1);
                let wires = routes.route(0).expect("a walk has a route");
                let expect = plan.path_blocked(&walk);
                assert_eq!(faults.blocks(&net, walk[0], wires), expect, "{walk:?}");
                *if expect { &mut blocked } else { &mut clear } += 1;
            }
        }
        assert!(
            blocked > 100 && clear > 100,
            "{blocked} blocked, {clear} clear"
        );
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
