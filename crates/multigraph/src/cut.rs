//! Vertex cuts, cut capacity, and flux upper bounds on delivery rate.
//!
//! The paper's lower bounds on routing time come from a "simple flux
//! argument ... since at most one message crosses an edge per tick": if a
//! fraction `f` of the traffic must cross a cut of capacity `cap`, the
//! delivery rate is at most `cap / f`. Minimizing that quotient over cuts
//! upper-bounds the operational bandwidth `β(H, π)` and is how Table 4's
//! `β` column is certified from above.
//!
//! Finding the optimal cut is NP-hard; the paper only ever needs *good
//! enough* witnesses. We combine three generators — id-prefix sweeps
//! (topologies number nodes so prefixes are geometric cuts), BFS balls, and
//! random seeds — with a Fiduccia–Mattheyses-style local improvement pass.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use crate::dist::bfs_distances;
use crate::graph::{Multigraph, NodeId};
use crate::traffic::{Traffic, TrafficKind};

/// A two-sided vertex cut: `side[u] == true` puts `u` in `S`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cut {
    /// `side[v]` is the side of node `v` (`true` = S-side).
    pub side: Vec<bool>,
}

/// Capacity and balance of a cut, plus the flux quotient against a traffic
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CutStats {
    /// Sum of multiplicities of edges with endpoints on opposite sides.
    pub capacity: u64,
    /// |S|.
    pub size_s: usize,
    /// |V \ S|.
    pub size_t: usize,
    /// Fraction of the traffic crossing the cut.
    pub crossing_fraction: f64,
    /// `2 · capacity / crossing_fraction`: an upper bound on the delivery
    /// rate (messages per tick) any router can sustain under the
    /// distribution. The factor 2 is because an undirected link of
    /// multiplicity `m` is two opposite unit wires, so up to `2m` messages
    /// cross it per tick.
    pub rate_bound: f64,
}

impl Cut {
    /// Cut with `S = {u : u < k}` (an id-prefix cut).
    pub fn prefix(n: usize, k: usize) -> Self {
        assert!(k > 0 && k < n, "prefix cut must be nontrivial");
        Cut {
            side: (0..n).map(|u| u < k).collect(),
        }
    }

    /// Cut from an explicit member set.
    pub fn from_members(n: usize, members: &[NodeId]) -> Self {
        let mut side = vec![false; n];
        for &u in members {
            side[u as usize] = true;
        }
        Cut { side }
    }

    /// Sum of multiplicities crossing the cut.
    pub fn capacity(&self, g: &Multigraph) -> u64 {
        g.edges()
            .filter(|e| self.side[e.u as usize] != self.side[e.v as usize])
            .map(|e| e.multiplicity as u64)
            .sum()
    }

    /// True when both sides are nonempty.
    pub fn is_nontrivial(&self) -> bool {
        self.side.iter().any(|&b| b) && self.side.iter().any(|&b| !b)
    }

    /// Full statistics against a traffic distribution.
    ///
    /// Returns `None` for trivial cuts or cuts no traffic crosses (the flux
    /// argument gives no information there).
    pub fn stats(&self, g: &Multigraph, traffic: &Traffic) -> Option<CutStats> {
        if !self.is_nontrivial() {
            return None;
        }
        let crossing_fraction = traffic.crossing_fraction(&self.side);
        if crossing_fraction <= 0.0 {
            return None;
        }
        let capacity = self.capacity(g);
        let size_s = self.side.iter().filter(|&&b| b).count();
        Some(CutStats {
            capacity,
            size_s,
            size_t: self.side.len() - size_s,
            crossing_fraction,
            rate_bound: 2.0 * capacity as f64 / crossing_fraction,
        })
    }
}

/// One Fiduccia–Mattheyses-style pass: greedily move single vertices across
/// the cut whenever the move lowers the flux quotient, keeping both sides
/// nonempty.
///
/// Gains are maintained incrementally — flipping `u` changes the cut
/// capacity by (same-side − cross-side incident multiplicity) and the
/// crossing traffic by the analogous pair sums — so a full sweep costs
/// `O(E + P)` instead of `O(n·E)`, and `O(E)` for the closed-form
/// (prefix-)symmetric distributions.
pub fn improve_cut(g: &Multigraph, traffic: &Traffic, cut: &mut Cut, sweeps: usize) {
    let n = g.node_count();
    if !cut.is_nontrivial() {
        return;
    }
    // Current aggregates.
    let mut capacity = cut.capacity(g) as i64;
    let mut size_s = cut.side.iter().filter(|&&b| b).count() as i64;
    let mut pairs = CrossingPairs::new(traffic, &cut.side);
    let mut crossing_pairs = pairs.count(&cut.side);
    let total_pairs = traffic.pair_count() as f64;
    let nf = n as f64;
    let symmetric = matches!(pairs, CrossingPairs::Symmetric);
    let rate_of = move |capacity: i64, size_s: i64, crossing_pairs: i64| -> Option<f64> {
        if size_s == 0 || size_s == n as i64 {
            return None; // trivial
        }
        let frac = if symmetric {
            let s = size_s as f64;
            2.0 * s * (nf - s) / (nf * (nf - 1.0))
        } else {
            crossing_pairs as f64 / total_pairs
        };
        if frac <= 0.0 {
            None
        } else {
            Some(2.0 * capacity as f64 / frac)
        }
    };
    let Some(mut current) = rate_of(capacity, size_s, crossing_pairs) else {
        return;
    };
    for _ in 0..sweeps {
        let mut improved = false;
        for u in 0..n as NodeId {
            // Deltas if u flips: same-side incident mass becomes crossing
            // and vice versa.
            let mut cap_delta: i64 = 0;
            for (v, m) in g.neighbors(u) {
                if v == u {
                    continue; // self-loops never cross
                }
                if cut.side[u as usize] == cut.side[v as usize] {
                    cap_delta += m as i64;
                } else {
                    cap_delta -= m as i64;
                }
            }
            let s_delta: i64 = if cut.side[u as usize] { -1 } else { 1 };
            let cross_delta = pairs.flip_delta(&cut.side, u);
            if let Some(r) = rate_of(
                capacity + cap_delta,
                size_s + s_delta,
                crossing_pairs + cross_delta,
            ) {
                if r + 1e-12 < current {
                    pairs.flip(&cut.side, u);
                    cut.side[u as usize] = !cut.side[u as usize];
                    capacity += cap_delta;
                    size_s += s_delta;
                    crossing_pairs += cross_delta;
                    current = r;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// How [`improve_cut`] prices a flip's change in crossing traffic.
enum CrossingPairs {
    /// The crossing fraction is a closed form of |S|; no count is kept.
    Symmetric,
    /// Symmetric on `[0, m)`: the crossing count is `2·s_p·(m − s_p)` with
    /// `s_p = |S ∩ [0, m)|`.
    Prefix { m: usize, s_p: usize },
    /// Explicit pairs: per-node pair adjacency (both directions, repeats
    /// kept as weight).
    Pairs(Vec<Vec<NodeId>>),
}

impl CrossingPairs {
    fn new(traffic: &Traffic, side: &[bool]) -> Self {
        match traffic.kind() {
            TrafficKind::Symmetric => CrossingPairs::Symmetric,
            &TrafficKind::SymmetricPrefix(m) => CrossingPairs::Prefix {
                m,
                s_p: side[..m].iter().filter(|&&b| b).count(),
            },
            TrafficKind::Pairs(p) => {
                let mut adj = vec![Vec::new(); side.len()];
                for &(a, b) in p {
                    adj[a as usize].push(b);
                    adj[b as usize].push(a);
                }
                CrossingPairs::Pairs(adj)
            }
        }
    }

    /// Ordered pairs crossing the cut (0 for symmetric traffic, which never
    /// reads it).
    fn count(&self, side: &[bool]) -> i64 {
        match self {
            CrossingPairs::Symmetric => 0,
            &CrossingPairs::Prefix { m, s_p } => (2 * s_p * (m - s_p)) as i64,
            CrossingPairs::Pairs(adj) => {
                // Each crossing pair is seen from both of its endpoints.
                let twice: usize = adj
                    .iter()
                    .zip(side)
                    .map(|(ws, &sa)| ws.iter().filter(|&&w| side[w as usize] != sa).count())
                    .sum();
                twice as i64 / 2
            }
        }
    }

    /// Change in the crossing count if `u` switches sides.
    fn flip_delta(&self, side: &[bool], u: NodeId) -> i64 {
        let us = side[u as usize];
        match self {
            CrossingPairs::Symmetric => 0,
            &CrossingPairs::Prefix { m, s_p } => {
                if u as usize >= m {
                    return 0;
                }
                let same = if us { s_p } else { m - s_p } as i64 - 1;
                2 * (same - (m as i64 - 1 - same))
            }
            CrossingPairs::Pairs(adj) => adj[u as usize]
                .iter()
                .map(|&w| if side[w as usize] == us { 1 } else { -1 })
                .sum(),
        }
    }

    /// Record that `u` switches sides (`side` is read before the flip).
    fn flip(&mut self, side: &[bool], u: NodeId) {
        if let CrossingPairs::Prefix { m, s_p } = self {
            if (u as usize) < *m {
                if side[u as usize] {
                    *s_p -= 1;
                } else {
                    *s_p += 1;
                }
            }
        }
    }
}

/// Generate candidate cuts: id prefixes at geometric sizes, BFS balls of
/// several radii around random seeds, and random balanced bipartitions.
pub fn candidate_cuts(g: &Multigraph, rng: &mut impl Rng, random_seeds: usize) -> Vec<Cut> {
    let n = g.node_count();
    let mut cuts = Vec::new();
    if n < 2 {
        return cuts;
    }
    // Prefix cuts at n/2, n/4, n/8, ... and 3n/4.
    let mut k = n / 2;
    while k >= 1 {
        cuts.push(Cut::prefix(n, k));
        if k == 1 {
            break;
        }
        k /= 2;
    }
    if n >= 4 {
        cuts.push(Cut::prefix(n, 3 * n / 4));
    }
    // BFS balls.
    for _ in 0..random_seeds {
        let src = rng.random_range(0..n as NodeId);
        let dist = bfs_distances(g, src);
        let max_d = dist.iter().copied().filter(|&d| d != u32::MAX).max();
        let Some(max_d) = max_d else { continue };
        for frac in [4u32, 2, 1] {
            let r = (max_d / frac).max(1);
            let side: Vec<bool> = dist.iter().map(|&d| d <= r && d != u32::MAX).collect();
            let cut = Cut { side };
            if cut.is_nontrivial() {
                cuts.push(cut);
            }
        }
    }
    // Random balanced bipartitions (then improved by the caller).
    for _ in 0..random_seeds {
        let side: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
        let cut = Cut { side };
        if cut.is_nontrivial() {
            cuts.push(cut);
        }
    }
    cuts
}

/// Best (lowest) flux rate bound over generated-and-improved candidate cuts.
///
/// Returns the bound and its witnessing cut. This is the certified *upper*
/// bound side of the bandwidth sandwich.
pub fn best_flux_bound(
    g: &Multigraph,
    traffic: &Traffic,
    rng: &mut impl Rng,
    random_seeds: usize,
    improve_sweeps: usize,
) -> Option<(CutStats, Cut)> {
    let mut best: Option<(CutStats, Cut)> = None;
    for mut cut in candidate_cuts(g, rng, random_seeds) {
        improve_cut(g, traffic, &mut cut, improve_sweeps);
        if let Some(stats) = cut.stats(g, traffic) {
            let better = match &best {
                None => true,
                Some((b, _)) => stats.rate_bound < b.rate_bound,
            };
            if better {
                best = Some((stats, cut));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn prefix_cut_capacity_on_path() {
        let g = path_graph(8);
        let cut = Cut::prefix(8, 4);
        assert_eq!(cut.capacity(&g), 1);
        let stats = cut.stats(&g, &Traffic::symmetric(8)).unwrap();
        assert_eq!(stats.size_s, 4);
        // crossing fraction = 2*16/56; rate bound = 1/f = 56/32 = 1.75
        assert!((stats.rate_bound - 2.0 * 56.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_cut_rejected() {
        let g = path_graph(4);
        let cut = Cut::from_members(4, &[]);
        assert!(cut.stats(&g, &Traffic::symmetric(4)).is_none());
        let cut = Cut::from_members(4, &[0, 1, 2, 3]);
        assert!(cut.stats(&g, &Traffic::symmetric(4)).is_none());
    }

    #[test]
    fn uncrossed_cut_rejected() {
        let g = path_graph(4);
        let t = Traffic::from_pairs(4, vec![(0, 1), (1, 0)]);
        let cut = Cut::prefix(4, 2); // pairs don't cross
        assert!(cut.stats(&g, &t).is_none());
    }

    #[test]
    fn flux_bound_on_path_is_constant() {
        // A linear array has β = Θ(1): the middle cut certifies it.
        let g = path_graph(64);
        let t = Traffic::symmetric(64);
        let mut rng = StdRng::seed_from_u64(11);
        let (stats, cut) = best_flux_bound(&g, &t, &mut rng, 4, 2).unwrap();
        assert!(stats.rate_bound <= 5.0, "bound {}", stats.rate_bound);
        assert!(cut.is_nontrivial());
    }

    #[test]
    fn flux_bound_scales_with_multiplicity() {
        let g = path_graph(16).scaled(5);
        let t = Traffic::symmetric(16);
        let mid = Cut::prefix(16, 8).stats(&g, &t).unwrap();
        let single = Cut::prefix(16, 8).stats(&path_graph(16), &t).unwrap();
        assert!((mid.rate_bound - 5.0 * single.rate_bound).abs() < 1e-9);
    }

    #[test]
    fn improvement_never_worsens() {
        let g = path_graph(32);
        let t = Traffic::symmetric(32);
        let mut cut = Cut::prefix(32, 3);
        let before = cut.stats(&g, &t).unwrap().rate_bound;
        improve_cut(&g, &t, &mut cut, 4);
        let after = cut.stats(&g, &t).unwrap().rate_bound;
        assert!(after <= before + 1e-9);
    }

    #[test]
    fn candidates_are_nontrivial() {
        let g = path_graph(20);
        let mut rng = StdRng::seed_from_u64(3);
        for cut in candidate_cuts(&g, &mut rng, 3) {
            assert!(cut.is_nontrivial());
            assert_eq!(cut.side.len(), 20);
        }
    }

    #[test]
    #[should_panic(expected = "nontrivial")]
    fn degenerate_prefix_panics() {
        let _ = Cut::prefix(5, 0);
    }
}
