//! Embeddings of a guest multigraph into a host, with congestion/dilation
//! accounting.
//!
//! The paper's graph-theoretic bandwidth is `β(H,T) = E(T)/C(H,T)` where
//! `C(H,T)` is the minimum congestion of a (1-to-1) embedding of the traffic
//! multigraph `T` into `H`. Minimum congestion is intractable, but the paper
//! only ever *uses* explicit embeddings as upper-bound witnesses on
//! congestion (hence lower-bound witnesses on bandwidth). [`Embedding`]
//! represents such a witness: a vertex map `φ` plus one host path per
//! distinct guest edge, and [`EmbeddingStats`] measures its congestion `c`,
//! dilation `δ` and average dilation `δ̄` — exactly the quantities of the
//! paper's `C(H,G)`, `Λ(H,G)`, `λ(H,G)` definitions at finite size.

use std::collections::BTreeMap;

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use crate::dist::{bfs_parents_shuffled, path_from_parents};
use crate::graph::{EdgeRef, Multigraph, NodeId};

/// An embedding of `guest` into `host`: a vertex map and one host routing
/// path per distinct guest edge (parallel guest edges share the path and
/// contribute their multiplicity to its load).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    /// `phi[u]` is the host image of guest vertex `u`.
    pub phi: Vec<NodeId>,
    /// Snapshot of the guest's distinct edges, aligned with `paths`.
    pub guest_edges: Vec<EdgeRef>,
    /// Host vertex sequences; `paths[i]` connects `phi[guest_edges[i].u]` to
    /// `phi[guest_edges[i].v]`. A self-image edge may have a length-1 path.
    pub paths: Vec<Vec<NodeId>>,
}

/// Congestion/dilation measurements of an [`Embedding`].
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

impl Embedding {
    /// Embed `guest` into `host` along BFS shortest paths.
    ///
    /// One BFS tree is computed per distinct source image and reused for all
    /// guest edges sharing it; `rng` permutes each vertex's neighbor
    /// preference so independent calls spread load across equal-length
    /// paths. `phi` may be many-to-one (the emulation case).
    ///
    /// # Panics
    /// Panics if `phi` has the wrong length, maps out of range, or some edge
    /// endpoint pair is disconnected in the host.
    pub fn shortest_paths(
        guest: &Multigraph,
        host: &Multigraph,
        phi: Vec<NodeId>,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(phi.len(), guest.node_count(), "phi must map every vertex");
        for &h in &phi {
            assert!((h as usize) < host.node_count(), "phi maps out of range");
        }
        let guest_edges: Vec<EdgeRef> = guest.edges().collect();
        let mut trees: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        let mut paths = Vec::with_capacity(guest_edges.len());
        for e in &guest_edges {
            let (src, dst) = (phi[e.u as usize], phi[e.v as usize]);
            if src == dst {
                paths.push(vec![src]);
                continue;
            }
            // Tie-breaking is randomized independently per tree: a shared
            // neighbor order would make all trees prefer the same corridors
            // and inflate the congestion witness. Trees are grown whole:
            // they share `rng`, so one stopped early would shift every
            // later tree's draws.
            let parent = trees
                .entry(src)
                .or_insert_with(|| bfs_parents_shuffled(host, src, host.node_count(), None, rng).0);
            #[expect(
                clippy::panic,
                reason = "documented precondition: callers embed into connected hosts"
            )]
            let p = path_from_parents(parent, src, dst)
                .unwrap_or_else(|| panic!("host disconnects images {src} and {dst}"));
            paths.push(p);
        }
        Embedding {
            phi,
            guest_edges,
            paths,
        }
    }

    /// Embed `guest` into `host` via per-edge random intermediates
    /// (Valiant-style): each guest edge routes `φ(u) → w → φ(v)` with `w`
    /// uniform, both legs on BFS trees rooted at `w`.
    ///
    /// Compared to [`Embedding::shortest_paths`], paths are at most twice as
    /// long but the per-source tree-trunk correlation disappears (each pair
    /// uses an independent random tree), which makes the congestion witness
    /// near-balanced — the right choice when the embedding certifies a
    /// bandwidth *lower bound* (`β ≥ E/c`).
    pub fn valiant(
        guest: &Multigraph,
        host: &Multigraph,
        phi: Vec<NodeId>,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(phi.len(), guest.node_count(), "phi must map every vertex");
        for &h in &phi {
            assert!((h as usize) < host.node_count(), "phi maps out of range");
        }
        let guest_edges: Vec<EdgeRef> = guest.edges().collect();
        let hn = host.node_count() as NodeId;
        // Sample intermediates, then group edges by intermediate so only one
        // BFS tree lives at a time.
        let mids: Vec<NodeId> = (0..guest_edges.len())
            .map(|_| rng.random_range(0..hn))
            .collect();
        let mut order: Vec<usize> = (0..guest_edges.len()).collect();
        order.sort_by_key(|&i| mids[i]);
        let mut paths: Vec<Vec<NodeId>> = vec![Vec::new(); guest_edges.len()];
        let mut current: Option<NodeId> = None;
        let mut parent: Vec<NodeId> = Vec::new();
        for &i in &order {
            let e = &guest_edges[i];
            let (src, dst) = (phi[e.u as usize], phi[e.v as usize]);
            if src == dst {
                paths[i] = vec![src];
                continue;
            }
            let w = mids[i];
            if current != Some(w) {
                parent = bfs_parents_shuffled(host, w, host.node_count(), None, rng).0;
                current = Some(w);
            }
            // Leg 1: src -> w is the reverse of the tree path w -> src.
            #[expect(
                clippy::panic,
                reason = "documented precondition: callers embed into connected hosts"
            )]
            let mut leg1 = path_from_parents(&parent, w, src)
                .unwrap_or_else(|| panic!("host disconnects {w} and {src}"));
            leg1.reverse();
            #[expect(
                clippy::panic,
                reason = "documented precondition: callers embed into connected hosts"
            )]
            let leg2 = path_from_parents(&parent, w, dst)
                .unwrap_or_else(|| panic!("host disconnects {w} and {dst}"));
            leg1.extend_from_slice(&leg2[1..]);
            paths[i] = leg1;
        }
        Embedding {
            phi,
            guest_edges,
            paths,
        }
    }

    /// The identity embedding of a graph into itself (paths are single
    /// edges). Useful as a baseline witness: congestion equals the max edge
    /// multiplicity.
    pub fn identity(g: &Multigraph) -> Self {
        let guest_edges: Vec<EdgeRef> = g.edges().collect();
        let paths = guest_edges
            .iter()
            .map(|e| {
                if e.u == e.v {
                    vec![e.u]
                } else {
                    vec![e.u, e.v]
                }
            })
            .collect();
        Embedding {
            phi: (0..g.node_count() as NodeId).collect(),
            guest_edges,
            paths,
        }
    }

    /// Verify structural validity against the host: endpoints match `phi`,
    /// consecutive path vertices are host-adjacent.
    pub fn validate(&self, host: &Multigraph) -> Result<(), String> {
        if self.guest_edges.len() != self.paths.len() {
            return Err("paths and guest_edges length mismatch".into());
        }
        for (e, p) in self.guest_edges.iter().zip(&self.paths) {
            let (src, dst) = (self.phi[e.u as usize], self.phi[e.v as usize]);
            if p.is_empty() {
                return Err(format!("empty path for edge {e:?}"));
            }
            if p.first() != Some(&src) || p.last() != Some(&dst) {
                return Err(format!("path endpoints do not match φ for {e:?}"));
            }
            for w in p.windows(2) {
                if !host.has_edge(w[0], w[1]) {
                    return Err(format!("non-adjacent hop {}-{} for {e:?}", w[0], w[1]));
                }
            }
        }
        Ok(())
    }

    /// Per-host-edge load: map from unordered host edge to total guest
    /// multiplicity crossing it.
    pub fn edge_loads(&self) -> BTreeMap<(NodeId, NodeId), u64> {
        let mut loads: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        for (e, p) in self.guest_edges.iter().zip(&self.paths) {
            for w in p.windows(2) {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                *loads.entry(key).or_insert(0) += e.multiplicity as u64;
            }
        }
        loads
    }

    /// Measure congestion, dilation and load.
    pub fn stats(&self) -> EmbeddingStats {
        let congestion = self.edge_loads().values().copied().max().unwrap_or(0);
        let mut dilation = 0u32;
        let mut weighted_len = 0u64;
        let mut weight = 0u64;
        for (e, p) in self.guest_edges.iter().zip(&self.paths) {
            let len = (p.len() - 1) as u32;
            dilation = dilation.max(len);
            weighted_len += len as u64 * e.multiplicity as u64;
            weight += e.multiplicity as u64;
        }
        EmbeddingStats {
            congestion,
            dilation,
            avg_dilation: if weight == 0 {
                0.0
            } else {
                weighted_len as f64 / weight as f64
            },
            total_load: weighted_len,
        }
    }

    /// Lower-bound witness on the bandwidth `β(host, guest-as-traffic)`:
    /// `E(guest) / congestion`. (The true bandwidth uses the *minimum*
    /// congestion, so any explicit embedding certifies `β ≥ E/c`.)
    pub fn bandwidth_witness(&self, guest: &Multigraph) -> f64 {
        let stats = self.stats();
        if stats.congestion == 0 {
            f64::INFINITY
        } else {
            guest.simple_edge_count() as f64 / stats.congestion as f64
        }
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

    #[test]
    fn identity_embedding_is_valid_with_unit_stats() {
        let g = cycle(6);
        let emb = Embedding::identity(&g);
        emb.validate(&g).unwrap();
        let s = emb.stats();
        assert_eq!(s.congestion, 1);
        assert_eq!(s.dilation, 1);
        assert!((s.avg_dilation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_into_path_dilation() {
        // Embedding C_n into P_n with φ = id forces the wrap edge to dilate
        // across the whole path.
        let guest = cycle(8);
        let host = path(8);
        let mut rng = StdRng::seed_from_u64(1);
        let emb = Embedding::shortest_paths(&guest, &host, (0..8).collect(), &mut rng);
        emb.validate(&host).unwrap();
        let s = emb.stats();
        assert_eq!(s.dilation, 7);
        assert_eq!(s.congestion, 2); // wrap path overlaps each unit edge once
    }

    #[test]
    fn many_to_one_phi_produces_self_paths() {
        let guest = cycle(4);
        let host = path(2);
        let mut rng = StdRng::seed_from_u64(2);
        let emb = Embedding::shortest_paths(&guest, &host, vec![0, 0, 1, 1], &mut rng);
        emb.validate(&host).unwrap();
        // Edges 0-1 and 2-3 collapse to self-paths of length 0.
        let s = emb.stats();
        assert_eq!(s.dilation, 1);
        assert_eq!(s.congestion, 2); // edges 1-2 and 3-0 both cross the link
    }

    #[test]
    fn multiplicity_weights_congestion() {
        let guest = Multigraph::from_edges(2, [(0, 1)]).scaled(9);
        let host = path(3);
        let mut rng = StdRng::seed_from_u64(3);
        let emb = Embedding::shortest_paths(&guest, &host, vec![0, 2], &mut rng);
        let s = emb.stats();
        assert_eq!(s.congestion, 9);
        assert_eq!(s.dilation, 2);
        assert_eq!(s.total_load, 18);
    }

    #[test]
    fn bandwidth_witness_matches_ratio() {
        let guest = cycle(8);
        let host = path(8);
        let mut rng = StdRng::seed_from_u64(4);
        let emb = Embedding::shortest_paths(&guest, &host, (0..8).collect(), &mut rng);
        let s = emb.stats();
        let expected = guest.simple_edge_count() as f64 / s.congestion as f64;
        assert!((emb.bandwidth_witness(&guest) - expected).abs() < 1e-12);
    }

    #[test]
    fn validate_catches_bad_paths() {
        let guest = Multigraph::from_edges(2, [(0, 1)]);
        let host = path(3);
        let mut emb = Embedding {
            phi: vec![0, 2],
            guest_edges: guest.edges().collect(),
            paths: vec![vec![0, 2]], // skips vertex 1: not host-adjacent
        };
        assert!(emb.validate(&host).is_err());
        emb.paths = vec![vec![0, 1, 2]];
        assert!(emb.validate(&host).is_ok());
        emb.paths = vec![vec![1, 2]];
        assert!(emb.validate(&host).is_err()); // wrong endpoint
    }

    #[test]
    fn shortest_paths_are_shortest() {
        let guest = Multigraph::from_edges(2, [(0, 1)]);
        let host = cycle(10);
        let mut rng = StdRng::seed_from_u64(5);
        let emb = Embedding::shortest_paths(&guest, &host, vec![0, 3], &mut rng);
        assert_eq!(emb.stats().dilation, 3);
    }

    #[test]
    fn valiant_embedding_validates_and_connects() {
        let guest = cycle(12);
        let host = path(12);
        let mut rng = StdRng::seed_from_u64(8);
        let emb = Embedding::valiant(&guest, &host, (0..12).collect(), &mut rng);
        emb.validate(&host).unwrap();
        for (e, p) in emb.guest_edges.iter().zip(&emb.paths) {
            assert_eq!(*p.first().unwrap(), e.u);
            assert_eq!(*p.last().unwrap(), e.v);
        }
    }

    #[test]
    fn valiant_congestion_within_factor_of_trees() {
        // With per-tree decorrelated tie-breaking the shortest-path witness
        // is the tighter one; Valiant pays its 2x path length but must stay
        // within that factor (it exists for adversarial guests where
        // per-source trees misbehave).
        use crate::graph::MultigraphBuilder;
        use crate::traffic::complete_multigraph;
        let side = 16;
        let mut b = MultigraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let id = (r * side + c) as NodeId;
                if c + 1 < side {
                    b.add_edge(id, id + 1);
                }
                if r + 1 < side {
                    b.add_edge(id, id + side as u32);
                }
            }
        }
        let host = b.build();
        let kn = complete_multigraph(side * side, 1);
        let phi: Vec<NodeId> = (0..(side * side) as NodeId).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let tree_c = Embedding::shortest_paths(&kn, &host, phi.clone(), &mut rng)
            .stats()
            .congestion;
        let val_c = Embedding::valiant(&kn, &host, phi, &mut rng)
            .stats()
            .congestion;
        assert!(
            (val_c as f64) < 2.5 * tree_c as f64,
            "valiant {val_c} vs trees {tree_c}"
        );
    }

    #[test]
    #[should_panic(expected = "disconnect")]
    fn disconnected_host_panics() {
        let guest = Multigraph::from_edges(2, [(0, 1)]);
        let host = Multigraph::from_edges(4, [(0, 1), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = Embedding::shortest_paths(&guest, &host, vec![0, 3], &mut rng);
    }
}
