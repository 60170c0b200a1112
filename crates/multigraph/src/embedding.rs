//! Embeddings of a guest multigraph into a host, with congestion/dilation
//! accounting.
//!
//! The paper's graph-theoretic bandwidth is `β(H,T) = E(T)/C(H,T)` where
//! `C(H,T)` is the minimum congestion of a (1-to-1) embedding of the traffic
//! multigraph `T` into `H`. Minimum congestion is intractable, but the paper
//! only ever *uses* explicit embeddings as upper-bound witnesses on
//! congestion (hence lower-bound witnesses on bandwidth).
//! [`embed_shortest_paths`] builds such a witness and measures it as it
//! walks, with no path stored: [`EmbeddingStats`] holds its congestion `c`,
//! dilation `δ` and average dilation `δ̄` — the quantities of the paper's
//! `C(H,G)`, `Λ(H,G)`, `λ(H,G)` definitions at finite size.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dist::bfs_parents_shuffled;
use crate::graph::{EdgeRef, Multigraph, NodeId};

/// Congestion/dilation measurements of an embedding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingStats {
    /// Max over host edges of the total guest multiplicity routed across it
    /// — the paper's congestion `c`.
    pub congestion: u64,
    /// Max path length in hops — the dilation `δ`.
    pub dilation: u32,
    /// Multiplicity-weighted mean path length — the average dilation `δ̄`.
    pub avg_dilation: f64,
    /// Total routed load `Σ mult · len` (the "communication volume").
    pub total_load: u64,
}

/// Embed `guest` into `host` by the vertex map `phi` (which may be
/// many-to-one, the emulation case) along BFS shortest paths, and measure
/// the embedding. Each distinct guest edge `{u, v}` (`u <= v`) follows the
/// BFS tree of `φ(u)` to `φ(v)`, loading every host edge on the way with
/// its multiplicity; `visit(e, walk)` sees that walk from `φ(u)` to `φ(v)`
/// (one vertex when the images meet) in a buffer reused between edges.
///
/// One tree is grown per source image, in the order each source first
/// appears in [`Multigraph::edges`], and the edges are walked grouped by
/// source, so one tree is alive at a time. `rng` shuffles each tree's
/// neighbour preference, spreading load across equal-length paths; trees
/// are grown whole, since one stopped early would shift every later tree's
/// draws.
///
/// # Panics
/// Panics if `phi` has the wrong length, maps out of range, or some edge
/// endpoint pair is disconnected in the host.
pub fn embed_shortest_paths(
    guest: &Multigraph,
    host: &Multigraph,
    phi: &[NodeId],
    rng: &mut impl Rng,
    mut visit: impl FnMut(EdgeRef, &[NodeId]),
) -> EmbeddingStats {
    assert_eq!(phi.len(), guest.node_count(), "phi must map every vertex");
    assert!(
        phi.iter().all(|&h| (h as usize) < host.node_count()),
        "phi maps out of range"
    );
    // `rank[s]` orders the sources by the first edge that leaves `s`;
    // sorting the guest vertices stably by it groups each source's edges.
    let mut rank = vec![u32::MAX; host.node_count()];
    let mut sources = 0;
    for u in 0..guest.node_count() as NodeId {
        let s = phi[u as usize];
        let leaves = |&v: &NodeId| v >= u && phi[v as usize] != s;
        if rank[s as usize] == u32::MAX && guest.neighbor_ids(u).iter().any(leaves) {
            rank[s as usize] = sources;
            sources += 1;
        }
    }
    let mut by_source: Vec<NodeId> = (0..guest.node_count() as NodeId).collect();
    by_source.sort_by_key(|&u| rank[phi[u as usize] as usize]);

    let mut loads = vec![0u64; 2 * host.distinct_edge_count()];
    let (mut parent, mut root) = (Vec::new(), NodeId::MAX);
    let mut walk = Vec::new();
    let (mut dilation, mut weighted_len, mut weight) = (0u32, 0u64, 0u64);
    for &u in &by_source {
        let src = phi[u as usize];
        if rank[src as usize] != u32::MAX && root != src {
            parent = bfs_parents_shuffled(host, src, host.node_count(), None, rng).0;
            root = src;
        }
        for (v, multiplicity) in guest.neighbors(u).filter(|&(v, _)| v >= u) {
            let (dst, mult) = (phi[v as usize], multiplicity as u64);
            walk.clear();
            walk.push(dst);
            if src != dst {
                assert!(
                    parent[dst as usize] != NodeId::MAX,
                    "host disconnects images {src} and {dst}"
                );
                let mut cur = dst;
                while cur != src {
                    let up = parent[cur as usize];
                    #[expect(clippy::expect_used, reason = "a BFS tree's parent is a neighbour")]
                    let slot = host.edge_slot(cur, up).expect("tree hop is a host edge");
                    loads[slot] += mult;
                    walk.push(up);
                    cur = up;
                }
                walk.reverse();
            }
            let len = (walk.len() - 1) as u32;
            dilation = dilation.max(len);
            weighted_len += len as u64 * mult;
            weight += mult;
            visit(EdgeRef { u, v, multiplicity }, &walk);
        }
    }
    EmbeddingStats {
        congestion: loads.into_iter().max().unwrap_or(0),
        dilation,
        // With no weight there is no length either: 0 / 1.
        avg_dilation: weighted_len as f64 / weight.max(1) as f64,
        total_load: weighted_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cycle(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId).map(|i| (i, (i + 1) % n as NodeId)))
    }

    fn path(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId - 1).map(|i| (i, i + 1)))
    }

    fn stats(guest: &Multigraph, host: &Multigraph, phi: &[NodeId], seed: u64) -> EmbeddingStats {
        let mut rng = StdRng::seed_from_u64(seed);
        embed_shortest_paths(guest, host, phi, &mut rng, |_, _| {})
    }

    #[test]
    fn cycle_into_path_dilation() {
        // Embedding C_n into P_n with φ = id forces the wrap edge to dilate
        // across the whole path.
        let s = stats(&cycle(8), &path(8), &(0..8).collect::<Vec<_>>(), 1);
        assert_eq!(s.dilation, 7);
        assert_eq!(s.congestion, 2); // wrap path overlaps each unit edge once
    }

    #[test]
    fn many_to_one_phi_produces_self_paths() {
        let guest = cycle(4);
        let mut walks = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        let s = embed_shortest_paths(&guest, &path(2), &[0, 0, 1, 1], &mut rng, |e, w| {
            walks.push((e.u, e.v, w.to_vec()))
        });
        // Edges 0-1 and 2-3 collapse to self-paths of length 0; edge 0-3
        // runs from φ(0) = 0 to φ(3) = 1.
        assert_eq!(
            walks,
            [
                (0, 1, vec![0]),
                (0, 3, vec![0, 1]),
                (1, 2, vec![0, 1]),
                (2, 3, vec![1])
            ]
        );
        assert_eq!(s.dilation, 1);
        assert_eq!(s.congestion, 2); // edges 1-2 and 3-0 both cross the link
    }

    #[test]
    fn multiplicity_weights_congestion() {
        let guest = Multigraph::from_edges(2, [(0, 1)]).scaled(9);
        let s = stats(&guest, &path(3), &[0, 2], 3);
        assert_eq!(s.congestion, 9);
        assert_eq!(s.dilation, 2);
        assert_eq!(s.total_load, 18);
    }

    #[test]
    fn shortest_paths_are_shortest() {
        let guest = Multigraph::from_edges(2, [(0, 1)]);
        assert_eq!(stats(&guest, &cycle(10), &[0, 3], 5).dilation, 3);
    }

    #[test]
    #[should_panic(expected = "disconnect")]
    fn disconnected_host_panics() {
        let guest = Multigraph::from_edges(2, [(0, 1)]);
        let host = Multigraph::from_edges(4, [(0, 1), (2, 3)]);
        let _ = stats(&guest, &host, &[0, 3], 6);
    }
}
