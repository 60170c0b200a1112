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

use rand::Rng;
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
    fn edge_loads(&self) -> BTreeMap<(NodeId, NodeId), u64> {
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
    #[should_panic(expected = "disconnect")]
    fn disconnected_host_panics() {
        let guest = Multigraph::from_edges(2, [(0, 1)]);
        let host = Multigraph::from_edges(4, [(0, 1), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = Embedding::shortest_paths(&guest, &host, vec![0, 3], &mut rng);
    }
}
