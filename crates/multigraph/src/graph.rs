//! Compact undirected multigraphs with integer edge multiplicities.
//!
//! The paper treats both machines and communication patterns as multigraphs;
//! `E(G)` ("the number of simple edges — sum of multiplicities over all
//! edges") is the quantity its bandwidth definition divides by, and the
//! scalar-multiplied graph `xG` appears throughout Section 2. Both are
//! first-class here ([`Multigraph::simple_edge_count`], [`Multigraph::scaled`]).
//!
//! Storage is CSR (compressed sparse row): two parallel arrays of neighbor
//! ids and multiplicities per node, built once by [`MultigraphBuilder`] and
//! immutable afterwards. All machines in the paper are fixed-degree, so CSR
//! rows are short and BFS over them is cache-friendly — the router in
//! `fcn-routing` iterates these rows in its inner loop.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of a vertex. `u32` keeps adjacency arrays half the size of `usize`
/// on 64-bit targets; no machine in the evaluation exceeds 2^32 nodes.
pub type NodeId = u32;

/// A (distinct) undirected edge with its multiplicity, as yielded by
/// [`Multigraph::edges`]. Self-loops have `u == v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdgeRef {
    /// Lower endpoint (canonical order `u <= v`).
    pub u: NodeId,
    /// Upper endpoint.
    pub v: NodeId,
    /// Number of parallel links on this edge.
    pub multiplicity: u32,
}

/// Accumulates edges, then freezes into a [`Multigraph`].
///
/// Parallel insertions of the same unordered pair sum their multiplicities.
///
/// ```
/// use fcn_multigraph::MultigraphBuilder;
///
/// let mut b = MultigraphBuilder::new(3);
/// b.add_edge(0, 1).add_edge(1, 2).add_edge_mult(1, 2, 2);
/// let g = b.build();
/// assert_eq!(g.multiplicity(1, 2), 3);
/// assert_eq!(g.simple_edge_count(), 4); // the paper's E(G)
/// ```
#[derive(Debug, Clone)]
pub struct MultigraphBuilder {
    n: usize,
    // Unordered pair (min,max) -> multiplicity. BTreeMap gives deterministic
    // iteration order, so built graphs are identical across runs.
    edges: BTreeMap<(NodeId, NodeId), u32>,
}

impl MultigraphBuilder {
    /// Start a graph on `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graph too large for u32 node ids");
        MultigraphBuilder {
            n,
            edges: BTreeMap::new(),
        }
    }

    /// Add an undirected edge with multiplicity 1. Self-loops are allowed
    /// (they arise from super-vertex collapse).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.add_edge_mult(u, v, 1)
    }

    /// Add an undirected edge with the given multiplicity.
    pub fn add_edge_mult(&mut self, u: NodeId, v: NodeId, mult: u32) -> &mut Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for {} nodes",
            self.n
        );
        if mult == 0 {
            return self;
        }
        let key = (u.min(v), u.max(v));
        *self.edges.entry(key).or_insert(0) += mult;
        self
    }

    /// Number of vertices the builder was created with.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Freeze into an immutable CSR multigraph.
    pub fn build(&self) -> Multigraph {
        let n = self.n;
        let mut deg = vec![0usize; n];
        for &(u, v) in self.edges.keys() {
            deg[u as usize] += 1;
            if u != v {
                deg[v as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; acc];
        let mut mults = vec![0u32; acc];
        let mut simple_edges: u64 = 0;
        let mut distinct_edges = 0usize;
        for (&(u, v), &m) in &self.edges {
            simple_edges += m as u64;
            distinct_edges += 1;
            neighbors[cursor[u as usize]] = v;
            mults[cursor[u as usize]] = m;
            cursor[u as usize] += 1;
            if u != v {
                neighbors[cursor[v as usize]] = u;
                mults[cursor[v as usize]] = m;
                cursor[v as usize] += 1;
            }
        }
        Multigraph {
            offsets,
            neighbors,
            mults,
            simple_edges,
            distinct_edges,
        }
    }
}

/// An immutable undirected multigraph in CSR form.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Multigraph {
    /// `offsets[u]..offsets[u+1]` indexes `neighbors`/`mults` for node `u`.
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    mults: Vec<u32>,
    /// `E(G)`: sum of multiplicities over distinct undirected edges.
    simple_edges: u64,
    distinct_edges: usize,
}

impl Multigraph {
    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        MultigraphBuilder::new(n).build()
    }

    /// Build directly from an unordered edge list (multiplicity 1 each;
    /// duplicates accumulate).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut b = MultigraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `E(G)`: the sum of multiplicities over all distinct undirected edges —
    /// the paper's "number of simple edges".
    pub fn simple_edge_count(&self) -> u64 {
        self.simple_edges
    }

    /// Number of distinct undirected edges (multiplicity ignored).
    pub fn distinct_edge_count(&self) -> usize {
        self.distinct_edges
    }

    /// A structural fingerprint: a 64-bit hash of the CSR arrays.
    ///
    /// Equal graphs hash equal (CSR is canonical: the builder sorts
    /// adjacency deterministically), so the fingerprint can key caches —
    /// notably `fcn-routing`'s route-plan cache — without holding the graph.
    /// Collisions are possible in principle but need ≈ 2³² graphs in one
    /// cache to matter.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the CSR words, with domain separators between arrays.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.node_count() as u64);
        mix(0x0f);
        for &o in &self.offsets {
            mix(o as u64);
        }
        mix(0xf0);
        for (&v, &m) in self.neighbors.iter().zip(&self.mults) {
            mix((v as u64) << 32 | m as u64);
        }
        h
    }

    /// Iterate `(neighbor, multiplicity)` pairs of `u`. Self-loops appear
    /// once.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        self.neighbors[lo..hi]
            .iter()
            .copied()
            .zip(self.mults[lo..hi].iter().copied())
    }

    /// The distinct neighbours of `u`, in CSR order (the ids of
    /// [`neighbors`](Self::neighbors) as one slice).
    pub fn neighbor_ids(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Weighted degree of `u` (sum of incident multiplicities; self-loops
    /// count twice, as in the standard degree-sum convention).
    pub fn degree(&self, u: NodeId) -> u64 {
        self.neighbors(u)
            .map(|(v, m)| if v == u { 2 * m as u64 } else { m as u64 })
            .sum()
    }

    /// Maximum weighted degree.
    pub fn max_degree(&self) -> u64 {
        (0..self.node_count() as NodeId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Multiplicity of edge `{u, v}` (0 if absent).
    pub fn multiplicity(&self, u: NodeId, v: NodeId) -> u32 {
        self.neighbors(u)
            .find(|&(w, _)| w == v)
            .map_or(0, |(_, m)| m)
    }

    /// True if `{u,v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.multiplicity(u, v) > 0
    }

    /// Iterate all distinct undirected edges with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.node_count() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| v >= u)
                .map(move |(v, m)| EdgeRef {
                    u,
                    v,
                    multiplicity: m,
                })
        })
    }

    /// The paper's `xG`: same vertices and edges, multiplicities scaled by
    /// `x`.
    pub fn scaled(&self, x: u32) -> Multigraph {
        let mut b = MultigraphBuilder::new(self.node_count());
        for e in self.edges() {
            b.add_edge_mult(e.u, e.v, e.multiplicity.saturating_mul(x));
        }
        b.build()
    }

    /// True when every pair of vertices is joined by a path.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Induced subgraph on the given vertices (renumbered 0..k in the order
    /// given). Returns the subgraph and the old-id-per-new-id table.
    pub fn induced(&self, vertices: &[NodeId]) -> (Multigraph, Vec<NodeId>) {
        let mut new_id = vec![NodeId::MAX; self.node_count()];
        for (i, &v) in vertices.iter().enumerate() {
            assert!(
                new_id[v as usize] == NodeId::MAX,
                "duplicate vertex {v} in induced set"
            );
            new_id[v as usize] = i as NodeId;
        }
        let mut b = MultigraphBuilder::new(vertices.len());
        for e in self.edges() {
            let (nu, nv) = (new_id[e.u as usize], new_id[e.v as usize]);
            if nu != NodeId::MAX && nv != NodeId::MAX {
                b.add_edge_mult(nu, nv, e.multiplicity);
            }
        }
        (b.build(), vertices.to_vec())
    }

    /// Sum of multiplicities of self-loops.
    pub fn self_loop_count(&self) -> u64 {
        (0..self.node_count() as NodeId)
            .map(|u| self.multiplicity(u, u) as u64)
            .sum()
    }
}

impl fmt::Debug for Multigraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Multigraph(n={}, distinct_edges={}, E={})",
            self.node_count(),
            self.distinct_edge_count(),
            self.simple_edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Multigraph {
        Multigraph::from_edges(3, [(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn builder_accumulates_multiplicity() {
        let mut b = MultigraphBuilder::new(2);
        b.add_edge(0, 1).add_edge(1, 0).add_edge_mult(0, 1, 3);
        let g = b.build();
        assert_eq!(g.multiplicity(0, 1), 5);
        assert_eq!(g.simple_edge_count(), 5);
        assert_eq!(g.distinct_edge_count(), 1);
    }

    #[test]
    fn csr_adjacency_is_symmetric() {
        let g = triangle();
        for u in 0..3 {
            let nb: Vec<_> = g.neighbors(u).map(|(v, _)| v).collect();
            assert_eq!(nb.len(), 2);
            for v in nb {
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn degrees_and_edges() {
        let g = triangle();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.edges().count(), 3);
        assert_eq!(g.simple_edge_count(), 3);
    }

    #[test]
    fn self_loops_count_once_in_rows_twice_in_degree() {
        let mut b = MultigraphBuilder::new(1);
        b.add_edge_mult(0, 0, 2);
        let g = b.build();
        assert_eq!(g.neighbor_ids(0), [0]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.self_loop_count(), 2);
        assert_eq!(g.simple_edge_count(), 2);
    }

    #[test]
    fn scaled_multiplies_multiplicities() {
        let g = triangle().scaled(7);
        assert_eq!(g.simple_edge_count(), 21);
        assert_eq!(g.multiplicity(1, 2), 7);
        assert_eq!(g.distinct_edge_count(), 3);
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let g = Multigraph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert!(Multigraph::empty(0).is_connected());
        assert!(Multigraph::empty(1).is_connected());
        assert!(!Multigraph::empty(2).is_connected());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Multigraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (sub, ids) = g.induced(&[1, 2, 3]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edges().count(), 2); // 1-2 and 2-3 survive
        assert!(sub.has_edge(0, 1) && sub.has_edge(1, 2));
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn zero_multiplicity_is_noop() {
        let mut b = MultigraphBuilder::new(2);
        b.add_edge_mult(0, 1, 0);
        let g = b.build();
        assert_eq!(g.distinct_edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        MultigraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn deterministic_build() {
        let g1 = triangle();
        let g2 = triangle();
        assert_eq!(g1, g2);
    }
}
