//! BFS distances, diameter, and average distance.
//!
//! The paper's minimal-computation-time parameter `Λ(G)` ("proportional to
//! diameter for most machines") and the `λ` column of Table 4 are distance
//! quantities; the distance lower bound on bandwidth (`β ≤ E(G)/avg-dist`)
//! also needs the mean pairwise distance. Everything here is unweighted BFS:
//! multiplicities affect capacity, not hop counts.

use rand::seq::SliceRandom;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use crate::graph::{Multigraph, NodeId};

/// Sentinel distance for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances (hops). Unreachable vertices get
/// [`UNREACHABLE`].
pub fn bfs_distances(g: &Multigraph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    bfs_fill(g, src, &mut dist, &mut Vec::new());
    dist
}

/// BFS from `src` into `dist` (all [`UNREACHABLE`] on entry). On return
/// `queue` holds the reached vertices in visit order, so its last entry is
/// the farthest.
fn bfs_fill(g: &Multigraph, src: NodeId, dist: &mut [u32], queue: &mut Vec<NodeId>) {
    queue.clear();
    dist[src as usize] = 0;
    queue.push(src);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let du = dist[u as usize];
        for (v, _) in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push(v);
            }
        }
    }
}

/// BFS that also records one parent per vertex, for shortest-path extraction.
/// Ties are broken toward the neighbor discovered first (deterministic).
pub fn bfs_parents(g: &Multigraph, src: NodeId) -> (Vec<u32>, Vec<NodeId>) {
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut parent = vec![NodeId::MAX; n];
    let mut queue = std::collections::VecDeque::with_capacity(n.min(1024));
    dist[src as usize] = 0;
    parent[src as usize] = src;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for (v, _) in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// BFS parents with randomized tie-breaking, restricted to the subgraph
/// induced by vertices `0..limit`: a FIFO queue, each dequeued vertex's
/// neighbours shuffled by `rng`, and the first visit wins. Independent
/// shuffles spread shortest paths across equal-length alternatives.
/// `NodeId::MAX` marks a vertex not reached; the source is its own parent.
/// Returns the parents and the number of vertices dequeued.
///
/// The enqueue is predicated rather than branched: every shuffled
/// neighbour is stored at the queue's tail, its parent slot is rewritten
/// with either the new parent or its old value, and the tail advances by
/// whether the neighbour was fresh. The shuffle scatters first visits at
/// random, so a `parent[v] == MAX` branch would mispredict on every
/// family; the predicated walk visits the same vertices in the same order
/// and takes the same `deg − 1` draws per dequeued vertex, so the tree
/// and the state `rng` is left in are those of the branching loop.
///
/// With `targets`, the search stops before its next dequeue once every
/// target has a parent. A vertex's parent is fixed when it is discovered,
/// and so are its ancestors', so every target's tree path is the one the
/// full tree gives; other vertices may be left unreached, and `rng` is
/// left short of the full tree's draws. So only a caller that owns `rng`
/// and keeps the tree for nothing but `targets` may stop early. A target
/// outside `0..limit` or unreachable makes the search run to the end.
///
/// # Panics
/// Panics if `src` is not below `limit`, or a target is not a vertex.
pub fn bfs_parents_shuffled(
    g: &Multigraph,
    src: NodeId,
    limit: usize,
    targets: Option<&[NodeId]>,
    rng: &mut impl Rng,
) -> (Vec<NodeId>, usize) {
    assert!((src as usize) < limit, "source {src} outside node limit");
    let n = g.node_count();
    let mut parent = vec![NodeId::MAX; n];
    // Every vertex enters once, so `queue[head..tail]` is the FIFO; the
    // spare slot takes the store made after all `n` have entered.
    let mut queue = vec![0 as NodeId; n + 1];
    parent[src as usize] = src;
    queue[0] = src;
    let (mut head, mut tail) = (0, 1);
    // `targets[..pending]` all have parents; parents are never unset, so
    // the scan resumes where it stopped and costs O(targets) in all.
    let mut pending = 0;
    let mut neighbours: Vec<NodeId> = Vec::new();
    while head < tail {
        if let Some(targets) = targets {
            while pending < targets.len() && parent[targets[pending] as usize] != NodeId::MAX {
                pending += 1;
            }
            if pending == targets.len() {
                break;
            }
        }
        let u = queue[head];
        head += 1;
        neighbours.clear();
        neighbours.extend_from_slice(g.neighbor_ids(u));
        neighbours.shuffle(rng);
        for &v in &neighbours {
            let old = parent[v as usize];
            let fresh = (old == NodeId::MAX) & ((v as usize) < limit);
            parent[v as usize] = if fresh { u } else { old };
            queue[tail] = v;
            tail += fresh as usize;
        }
    }
    (parent, head)
}

/// Extract the `src -> dst` shortest path from a parent array produced by
/// [`bfs_parents`] or [`bfs_parents_shuffled`] rooted at `src`. Returns the vertex sequence including
/// both endpoints, or `None` if `dst` is unreachable.
pub fn path_from_parents(parent: &[NodeId], src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    if parent[dst as usize] == NodeId::MAX {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        path.push(cur);
        debug_assert!(path.len() <= parent.len(), "parent cycle");
    }
    path.reverse();
    Some(path)
}

/// Exact diameter (max eccentricity). `O(n·E)`; use on small graphs or rely
/// on [`distance_stats`] with sampling for large ones.
///
/// # Panics
/// Panics if the graph is disconnected (diameter undefined).
pub fn diameter(g: &Multigraph) -> u32 {
    all_pairs(g).0
}

/// Exact average pairwise distance over ordered pairs.
pub fn avg_distance_exact(g: &Multigraph) -> f64 {
    let n = g.node_count();
    assert!(n >= 2);
    all_pairs(g).1 as f64 / (n as f64 * (n as f64 - 1.0))
}

/// Largest eccentricity of vertex 0 at which [`all_pairs`] takes the
/// bit-parallel kernel. A pass of that kernel sweeps every adjacency list
/// once per BFS level and serves 64 sources; a scalar BFS sweeps them once
/// per source whatever the depth. Measured on every Table 4 family up to
/// n = 2048 (EXPERIMENTS.md, "Table 4's BFS layers do only the work that
/// is read"), the bit-parallel kernel breaks even at about 110–130 levels.
/// With `ecc(0) ≤ 64` no block runs more than `2·64` levels, so the choice
/// costs at most about a fifth on a graph whose vertex 0 is central, and
/// it picks the bit-parallel kernel on every Table 4 machine where that
/// kernel is faster, save mesh2(45) and the 1-d paths at n = 128.
const BITPARALLEL_MAX_ECC: u32 = 64;

/// Diameter and the sum of `d(u, v)` over all ordered pairs, from
/// [`all_pairs_bitparallel`] on shallow graphs and [`all_pairs_scalar`] on
/// deep ones (the 1-d families, whose depth grows like `n`). Both return
/// the same integers.
///
/// # Panics
/// Panics if the graph is disconnected.
fn all_pairs(g: &Multigraph) -> (u32, u64) {
    if is_shallow(g) {
        all_pairs_bitparallel(g)
    } else {
        all_pairs_scalar(g)
    }
}

/// Whether vertex 0's eccentricity `e` is at most [`BITPARALLEL_MAX_ECC`]:
/// one scalar BFS, and the diameter is at most `2e`.
///
/// # Panics
/// Panics if the graph is disconnected.
fn is_shallow(g: &Multigraph) -> bool {
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = Vec::with_capacity(n);
    bfs_fill(g, 0, &mut dist, &mut queue);
    assert!(queue.len() == n, "distances on a disconnected graph");
    dist[queue[n - 1] as usize] <= BITPARALLEL_MAX_ECC
}

/// [`all_pairs`] by one scalar BFS per source: the deep-graph kernel, and
/// the reference the bit-parallel kernel is tested against.
///
/// # Panics
/// Panics if the graph is disconnected.
fn all_pairs_scalar(g: &Multigraph) -> (u32, u64) {
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = Vec::with_capacity(n);
    let (mut diameter, mut total) = (0, 0u64);
    for u in 0..n as NodeId {
        dist.fill(UNREACHABLE);
        bfs_fill(g, u, &mut dist, &mut queue);
        assert!(queue.len() == n, "distances on a disconnected graph");
        diameter = diameter.max(dist[queue[n - 1] as usize]);
        total += dist.iter().map(|&d| d as u64).sum::<u64>();
    }
    (diameter, total)
}

/// [`all_pairs`] by bit-parallel BFS, 64 sources per pass (Then et al.,
/// "The More the Merrier", VLDB 2014). Bit `i` of a vertex's `seen` word
/// says source `base + i` has reached it, and of its `frontier` word that
/// it did so at the current level. Each level ORs every vertex's
/// neighbours' frontier words, keeps the bits not yet seen, and adds their
/// count times the level to the sum. The level that finds the block's last
/// pair is its largest eccentricity. Vertices every source has reached
/// skip the sweep.
///
/// # Panics
/// Panics if the graph is disconnected.
fn all_pairs_bitparallel(g: &Multigraph) -> (u32, u64) {
    let n = g.node_count();
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let (mut diameter, mut total) = (0, 0u64);
    for base in (0..n).step_by(64) {
        let width = (n - base).min(64);
        let all = u64::MAX >> (64 - width);
        seen.fill(0);
        frontier.fill(0);
        for i in 0..width {
            seen[base + i] = 1 << i;
            frontier[base + i] = 1 << i;
        }
        // Pairs `(source, v)` labelled so far, `d(s, s) = 0` included.
        let (mut found, want) = (width as u64, (n * width) as u64);
        let mut level = 0;
        while found < want {
            let mut fresh_pairs = 0u64;
            for v in 0..n {
                let old = seen[v];
                if old == all {
                    next[v] = 0;
                    continue;
                }
                let reach = g
                    .neighbor_ids(v as NodeId)
                    .iter()
                    .fold(0u64, |acc, &u| acc | frontier[u as usize]);
                let fresh = reach & !old;
                next[v] = fresh;
                seen[v] = old | fresh;
                fresh_pairs += u64::from(fresh.count_ones());
            }
            assert!(fresh_pairs > 0, "distances on a disconnected graph");
            level += 1;
            found += fresh_pairs;
            total += fresh_pairs * u64::from(level);
            std::mem::swap(&mut frontier, &mut next);
        }
        diameter = diameter.max(level);
    }
    (diameter, total)
}

/// Sum of `d(s, t)` over `pairs` (repeats count): the exact integer behind
/// a sampled average distance.
///
/// Pairs are grouped by source, and each group goes to whichever search is
/// expected to label fewer vertices: one BFS from the source that stops
/// once its last target is labelled, or one bidirectional BFS per pair,
/// which meets in the middle after two balls of about half the radius. The
/// estimates are the running means of the searches run so far (0 for the
/// bidirectional search and `n` for the BFS before their first runs). On
/// meshes, where balls grow slowly and ~8
/// sampled pairs share each source at n = 256, that picks the BFS; on de
/// Bruijn or shuffle-exchange graphs, whose balls double per hop, it picks
/// bidirectional search even for shared sources. The choice never changes
/// the sum. Labels are epoch-stamped and reused, so a search costs only
/// what it touches.
///
/// # Panics
/// Panics if some pair is disconnected.
pub fn pair_distance_sum(g: &Multigraph, pairs: &[(NodeId, NodeId)]) -> u64 {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable();
    let n = g.node_count();
    let (mut fwd, mut bwd) = (Labels::new(n), Labels::new(n));
    let mut wanted = vec![0u32; n];
    let mut epoch = 0u32;
    // Vertices labelled, and searches run: bidirectional (one per pair)
    // and grouped BFS (one per group).
    let (mut bidi_labelled, mut bidi_runs) = (0u64, 0u64);
    let (mut bfs_labelled, mut bfs_runs) = (0u64, 0u64);
    let mut total = 0u64;
    for group in sorted.chunk_by(|a, b| a.0 == b.0) {
        let s = group[0].0;
        let bidi_mean = bidi_labelled as f64 / bidi_runs.max(1) as f64;
        let bfs_mean = match bfs_runs {
            0 => n as f64,
            runs => bfs_labelled as f64 / runs as f64,
        };
        if group.len() as f64 * bidi_mean < bfs_mean {
            for &(_, t) in group {
                epoch += 1;
                let d = bidirectional_distance(g, s, t, &mut fwd, &mut bwd, epoch);
                assert!(d != UNREACHABLE, "pair distance on a disconnected graph");
                total += d as u64;
                bidi_labelled += (fwd.queue.len() + bwd.queue.len()) as u64;
                bidi_runs += 1;
            }
            continue;
        }
        epoch += 1;
        let mut remaining = 0usize;
        for &(_, t) in group {
            if wanted[t as usize] != epoch {
                wanted[t as usize] = epoch;
                remaining += 1;
            }
        }
        fwd.start(s, epoch);
        if wanted[s as usize] == epoch {
            remaining -= 1;
        }
        let mut head = 0;
        while remaining > 0 && head < fwd.queue.len() {
            let u = fwd.queue[head];
            head += 1;
            let du = fwd.dist[u as usize];
            for (v, _) in g.neighbors(u) {
                if fwd.seen[v as usize] != epoch {
                    fwd.label(v, du + 1, epoch);
                    if wanted[v as usize] == epoch {
                        remaining -= 1;
                    }
                }
            }
        }
        for &(_, t) in group {
            let d = fwd.get(t, epoch);
            assert!(d != UNREACHABLE, "pair distance on a disconnected graph");
            total += d as u64;
        }
        bfs_labelled += fwd.queue.len() as u64;
        bfs_runs += 1;
    }
    total
}

/// Epoch-stamped BFS labels: `dist[v]` is valid only while
/// `seen[v] == epoch`, so a new search starts in `O(1)`.
struct Labels {
    seen: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<NodeId>,
}

impl Labels {
    fn new(n: usize) -> Self {
        Labels {
            seen: vec![0; n],
            dist: vec![0; n],
            queue: Vec::new(),
        }
    }

    fn start(&mut self, src: NodeId, epoch: u32) {
        self.queue.clear();
        self.label(src, 0, epoch);
    }

    fn label(&mut self, v: NodeId, d: u32, epoch: u32) {
        self.seen[v as usize] = epoch;
        self.dist[v as usize] = d;
        self.queue.push(v);
    }

    fn get(&self, v: NodeId, epoch: u32) -> u32 {
        if self.seen[v as usize] == epoch {
            self.dist[v as usize]
        } else {
            UNREACHABLE
        }
    }
}

/// `d(s, t)` by BFS from both ends, one whole layer at a time on the side
/// with the smaller frontier. The two labelled balls stay disjoint until an
/// edge joins them, and the first such edge closes a shortest path.
/// [`UNREACHABLE`] if `t` is not reachable from `s`.
fn bidirectional_distance(
    g: &Multigraph,
    s: NodeId,
    t: NodeId,
    fwd: &mut Labels,
    bwd: &mut Labels,
    epoch: u32,
) -> u32 {
    fwd.start(s, epoch);
    bwd.start(t, epoch);
    if s == t {
        return 0;
    }
    // Start of each side's unexpanded frontier layer in its queue.
    let (mut fwd_head, mut bwd_head) = (0, 0);
    loop {
        let fwd_len = fwd.queue.len() - fwd_head;
        let bwd_len = bwd.queue.len() - bwd_head;
        if fwd_len == 0 || bwd_len == 0 {
            return UNREACHABLE;
        }
        let (near, far, head) = if fwd_len <= bwd_len {
            (&mut *fwd, &*bwd, &mut fwd_head)
        } else {
            (&mut *bwd, &*fwd, &mut bwd_head)
        };
        let layer_end = near.queue.len();
        for i in *head..layer_end {
            let u = near.queue[i];
            let du = near.dist[u as usize];
            for (v, _) in g.neighbors(u) {
                if near.seen[v as usize] == epoch {
                    continue;
                }
                if far.seen[v as usize] == epoch {
                    return du + 1 + far.dist[v as usize];
                }
                near.label(v, du + 1, epoch);
            }
        }
        *head = layer_end;
    }
}

/// Average distance estimated from `samples` random BFS sources.
pub fn avg_distance_sampled(g: &Multigraph, samples: usize, rng: &mut impl Rng) -> f64 {
    let n = g.node_count();
    assert!(n >= 2 && samples >= 1);
    let mut total = 0u64;
    let mut count = 0u64;
    for _ in 0..samples {
        let u = rng.random_range(0..n as NodeId);
        let d = bfs_distances(g, u);
        for (v, &dv) in d.iter().enumerate() {
            assert!(dv != UNREACHABLE, "sampled distance on disconnected graph");
            if v as NodeId != u {
                total += dv as u64;
                count += 1;
            }
        }
    }
    total as f64 / count as f64
}

/// Distance summary for a machine: the paper's `λ`-side quantities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistanceStats {
    /// Max observed eccentricity (== diameter when `exact`).
    pub diameter: u32,
    /// Mean pairwise distance over the probed sources.
    pub avg_distance: f64,
    /// Whether every vertex was used as a BFS source.
    pub exact: bool,
}

/// Compute [`DistanceStats`], exactly when `n <= exact_threshold`, otherwise
/// from `samples` random sources.
pub fn distance_stats(
    g: &Multigraph,
    exact_threshold: usize,
    samples: usize,
    rng: &mut impl Rng,
) -> DistanceStats {
    let n = g.node_count();
    if n <= exact_threshold {
        assert!(n >= 2);
        let (diameter, total) = all_pairs(g);
        return DistanceStats {
            diameter,
            avg_distance: total as f64 / (n as f64 * (n as f64 - 1.0)),
            exact: true,
        };
    }
    let mut max_ecc = 0;
    let mut total = 0u64;
    let mut count = 0u64;
    for _ in 0..samples.max(1) {
        let u = rng.random_range(0..n as NodeId);
        let d = bfs_distances(g, u);
        for (v, &dv) in d.iter().enumerate() {
            assert!(dv != UNREACHABLE, "distance stats on disconnected graph");
            if v as NodeId != u {
                total += dv as u64;
                count += 1;
                max_ecc = max_ecc.max(dv);
            }
        }
    }
    DistanceStats {
        diameter: max_ecc,
        avg_distance: total as f64 / count as f64,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn path_graph(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId - 1).map(|i| (i, i + 1)))
    }

    fn cycle_graph(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId).map(|i| (i, (i + 1) % n as NodeId)))
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, 2);
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = Multigraph::from_edges(4, [(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn parents_give_shortest_paths() {
        let g = cycle_graph(8);
        let (dist, parent) = bfs_parents(&g, 0);
        let p = path_from_parents(&parent, 0, 3).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len() as u32 - 1, dist[3]);
        // consecutive vertices adjacent
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn unreachable_path_is_none() {
        let g = Multigraph::from_edges(3, [(0, 1)]);
        let (_, parent) = bfs_parents(&g, 0);
        assert!(path_from_parents(&parent, 0, 2).is_none());
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&path_graph(10)), 9);
        assert_eq!(diameter(&cycle_graph(10)), 5);
        assert_eq!(diameter(&cycle_graph(9)), 4);
    }

    #[test]
    fn avg_distance_of_path3() {
        // distances: (0,1)=1 (0,2)=2 (1,2)=1 → ordered mean = 8/6
        let g = path_graph(3);
        assert!((avg_distance_exact(&g) - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_close_to_exact() {
        let g = cycle_graph(64);
        let exact = avg_distance_exact(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let approx = avg_distance_sampled(&g, 16, &mut rng);
        assert!((approx - exact).abs() / exact < 0.05);
    }

    #[test]
    fn stats_exact_and_sampled_modes() {
        let g = cycle_graph(32);
        let mut rng = StdRng::seed_from_u64(2);
        let s1 = distance_stats(&g, 64, 4, &mut rng);
        assert!(s1.exact);
        assert_eq!(s1.diameter, 16);
        let s2 = distance_stats(&g, 8, 8, &mut rng);
        assert!(!s2.exact);
        assert!(s2.diameter >= 8); // sampled eccentricity lower-bounds diameter
        assert!((s2.avg_distance - s1.avg_distance).abs() / s1.avg_distance < 0.1);
    }

    /// The branching loop `bfs_parents_shuffled` replaced, kept as its
    /// specification.
    fn bfs_parents_shuffled_reference(
        g: &Multigraph,
        src: NodeId,
        limit: usize,
        rng: &mut impl Rng,
    ) -> Vec<NodeId> {
        assert!((src as usize) < limit);
        let mut parent = vec![NodeId::MAX; g.node_count()];
        let mut queue = vec![src];
        parent[src as usize] = src;
        let mut neighbours: Vec<NodeId> = Vec::new();
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            neighbours.clear();
            neighbours.extend(g.neighbors(u).map(|(v, _)| v));
            neighbours.shuffle(rng);
            for &v in &neighbours {
                if (v as usize) < limit && parent[v as usize] == NodeId::MAX {
                    parent[v as usize] = u;
                    queue.push(v);
                }
            }
        }
        parent
    }

    /// A random multigraph with self-loops, multi-edges and possibly
    /// several components.
    fn random_multigraph(n: usize, edges: usize, seed: u64) -> Multigraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = crate::graph::MultigraphBuilder::new(n);
        let a = rng.random_range(0..n as NodeId);
        let c = (a + 1 + rng.random_range(0..n as NodeId - 1)) % n as NodeId;
        b.add_edge(a, a).add_edge(a, c).add_edge(a, c);
        for _ in 0..edges {
            let u = rng.random_range(0..n as NodeId);
            let v = match rng.random_range(0..8u32) {
                0 => u,
                _ => rng.random_range(0..n as NodeId),
            };
            b.add_edge_mult(u, v, 1 + rng.random_range(0..3u32));
        }
        b.build()
    }

    proptest::proptest! {
        #[test]
        fn shuffled_bfs_matches_branching_reference(
            n in 2usize..160,
            density in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
            limit_pick in proptest::prelude::any::<u64>(),
        ) {
            let g = random_multigraph(n, density * n, seed);
            let mut pick = StdRng::seed_from_u64(limit_pick);
            for _ in 0..4 {
                let limit = match pick.random_range(0..3u32) {
                    0 => n,
                    _ => 1 + pick.random_range(0..n),
                };
                let src = pick.random_range(0..limit as NodeId);
                let mut rng = StdRng::seed_from_u64(pick.random());
                let mut rng_ref = rng.clone();
                let (got, _) = bfs_parents_shuffled(&g, src, limit, None, &mut rng);
                let want = bfs_parents_shuffled_reference(&g, src, limit, &mut rng_ref);
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(rng.next_u64(), rng_ref.next_u64());
            }
        }
    }

    /// A connected multigraph with self-loops and multi-edges on a path
    /// backbone `0 – 1 – … – n−1`. Path-like: a few chords of span ≤ 2, so
    /// vertex 0's eccentricity stays at least `(n − 1) / 2`. Expander-like:
    /// `3n` random chords, so it is logarithmic.
    fn backbone_multigraph(n: usize, expander: bool, seed: u64) -> Multigraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = crate::graph::MultigraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge_mult(v - 1, v, 1 + rng.random_range(0..3u32));
        }
        let chords = if expander { 3 * n } else { n / 8 };
        for _ in 0..chords {
            let u = rng.random_range(0..n as NodeId);
            let v = match (expander, rng.random_range(0..6u32)) {
                (_, 0) => u,
                (true, _) => rng.random_range(0..n as NodeId),
                (false, _) => (u + rng.random_range(0..3u32)).min(n as NodeId - 1),
            };
            b.add_edge_mult(u, v, 1 + rng.random_range(0..2u32));
        }
        b.build()
    }

    proptest::proptest! {
        #[test]
        fn bitparallel_all_pairs_matches_scalar(
            n in 2usize..300,
            expander in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let g = backbone_multigraph(n, expander, seed);
            let want = all_pairs_scalar(&g);
            proptest::prop_assert_eq!(all_pairs_bitparallel(&g), want);
            proptest::prop_assert_eq!(all_pairs(&g), want);
            // Both sides of the kernel choice are reached.
            if !expander && n > 2 * BITPARALLEL_MAX_ECC as usize + 2 {
                proptest::prop_assert!(!is_shallow(&g));
            }
            if expander && n >= 8 {
                proptest::prop_assert!(is_shallow(&g));
            }
        }

        #[test]
        fn all_pairs_kernels_reject_disconnected_graphs(
            n in 2usize..200,
            split_pick in proptest::prelude::any::<u64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Two backbones side by side, no edge between them.
            let split = 1 + (split_pick % (n as u64 - 1)) as usize;
            let left = backbone_multigraph(split, seed.is_multiple_of(2), seed);
            let right = backbone_multigraph(n - split, true, !seed);
            let mut b = crate::graph::MultigraphBuilder::new(n);
            for e in left.edges() {
                b.add_edge_mult(e.u, e.v, e.multiplicity);
            }
            for e in right.edges() {
                b.add_edge_mult(e.u + split as NodeId, e.v + split as NodeId, e.multiplicity);
            }
            let g = b.build();
            for kernel in [all_pairs_scalar, all_pairs_bitparallel, all_pairs] {
                let err = std::panic::catch_unwind(|| kernel(&g))
                    .expect_err("a disconnected graph has no distance sum");
                let msg = match err.downcast_ref::<String>() {
                    Some(s) => s.clone(),
                    None => err.downcast_ref::<&str>().copied().unwrap_or_default().to_string(),
                };
                proptest::prop_assert!(msg.contains("disconnected"), "{}", msg);
            }
        }

        #[test]
        fn targeted_bfs_matches_full_tree(
            n in 2usize..160,
            density in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
            pick_seed in proptest::prelude::any::<u64>(),
        ) {
            let g = random_multigraph(n, density * n, seed);
            let mut pick = StdRng::seed_from_u64(pick_seed);
            for _ in 0..4 {
                let limit = match pick.random_range(0..3u32) {
                    0 => n,
                    _ => 1 + pick.random_range(0..n),
                };
                let src = pick.random_range(0..limit as NodeId);
                let targets: Vec<NodeId> = (0..pick.random_range(0..12usize))
                    .map(|_| pick.random_range(0..n as NodeId))
                    .collect();
                let tree_seed = pick.random();
                let (full, full_dequeued) = bfs_parents_shuffled(
                    &g, src, limit, None, &mut StdRng::seed_from_u64(tree_seed),
                );
                let (part, part_dequeued) = bfs_parents_shuffled(
                    &g, src, limit, Some(&targets), &mut StdRng::seed_from_u64(tree_seed),
                );
                proptest::prop_assert!(part_dequeued <= full_dequeued);
                for &t in &targets {
                    let (got, want) =
                        (path_from_parents(&part, src, t), path_from_parents(&full, src, t));
                    proptest::prop_assert!(got == want, "target {}: {:?} != {:?}", t, got, want);
                }
            }
        }
    }

    #[test]
    fn a_targeted_bfs_stops_at_its_last_target() {
        let g = path_graph(10);
        let mut rng = StdRng::seed_from_u64(1);
        let (parent, dequeued) = bfs_parents_shuffled(&g, 0, 10, Some(&[3, 2]), &mut rng);
        assert_eq!(path_from_parents(&parent, 0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(dequeued, 3, "vertex 3 is found by dequeuing 0, 1 and 2");
        assert_eq!(parent[5], NodeId::MAX, "the search stopped short of 5");
        let (_, dequeued) = bfs_parents_shuffled(&g, 0, 10, Some(&[]), &mut rng);
        assert_eq!(dequeued, 0);
        let (_, dequeued) = bfs_parents_shuffled(&g, 0, 10, None, &mut rng);
        assert_eq!(dequeued, 10);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn diameter_rejects_disconnected() {
        let g = Multigraph::from_edges(4, [(0, 1), (2, 3)]);
        let _ = diameter(&g);
    }
}
