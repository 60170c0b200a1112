//! Redundant circuits — the paper's model of guest computations.
//!
//! "Computations on guest `G` are represented by *circuits* ... directed
//! graphs on circuit nodes described by 3-tuples `(u, t, c)` where `u` is
//! the corresponding vertex in `G`, `t` is the guest time step, and `c` is
//! the copy number." Copies introduce *redundancy*: a single guest
//! operation may be performed at several places, which is what makes the
//! emulation model general (Koch et al. \[7\]). A circuit is *efficient* if a
//! `t`-step circuit has `O(|G|·t)` nodes.
//!
//! [`Circuit`] stores levels of `(vertex, copy)` nodes and the arcs between
//! consecutive levels; [`Circuit::validate`] checks the paper's correctness
//! condition (every node has an input arc from a representative of each
//! guest in-neighbor class and of its own class); [`Circuit::is_efficient`]
//! checks the work bound.

use fcn_multigraph::{Multigraph, MultigraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// A circuit node: which guest vertex it represents and its copy number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CircuitNode {
    /// Guest vertex this node represents.
    pub vertex: NodeId,
    /// Copy number among the vertex's redundant copies.
    pub copy: u32,
}

/// A leveled redundant circuit over a guest graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Circuit {
    guest_n: usize,
    /// `levels[i]` lists the nodes of circuit level `i` (guest time `i`).
    levels: Vec<Vec<CircuitNode>>,
    /// `arcs[i][j] = (from, to)`: arc from `levels[i][from]` to
    /// `levels[i+1][to]`.
    arcs: Vec<Vec<(u32, u32)>>,
}

impl Circuit {
    /// The canonical *homogeneous, nonredundant* circuit: one copy of every
    /// guest vertex per level, identity arcs `(u,i) → (u,i+1)`, and routing
    /// arcs `(u,i) → (v,i+1)` for every guest edge `{u,v}` in both
    /// directions. This is the minimal efficient circuit for `t` steps.
    pub fn nonredundant(guest: &Multigraph, t: u32) -> Circuit {
        let n = guest.node_count();
        assert!(n >= 1 && t >= 1);
        let level: Vec<CircuitNode> = (0..n as NodeId)
            .map(|vertex| CircuitNode { vertex, copy: 0 })
            .collect();
        let mut gap = Vec::new();
        for u in 0..n as NodeId {
            gap.push((u, u)); // identity arc
            for (v, _) in guest.neighbors(u) {
                if v != u {
                    gap.push((u, v)); // routing arc (each direction once)
                }
            }
        }
        Circuit {
            guest_n: n,
            levels: vec![level; t as usize + 1],
            arcs: vec![gap; t as usize],
        }
    }

    /// A randomized redundant circuit: class `(u, i)` has duplicity drawn
    /// uniformly from `1..=max_dup`, and every node gets one input from a
    /// random representative of each required class. Used to exercise the
    /// general model in tests and the efficiency audit.
    pub fn redundant_random(guest: &Multigraph, t: u32, max_dup: u32, seed: u64) -> Circuit {
        assert!(max_dup >= 1);
        let n = guest.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut levels: Vec<Vec<CircuitNode>> = Vec::with_capacity(t as usize + 1);
        // Per level: start index of each vertex's copies, to find reps fast.
        let mut starts: Vec<Vec<u32>> = Vec::new();
        for _ in 0..=t {
            let mut level = Vec::new();
            let mut start = Vec::with_capacity(n);
            for vertex in 0..n as NodeId {
                start.push(level.len() as u32);
                let dup = rng.random_range(1..=max_dup);
                for copy in 0..dup {
                    level.push(CircuitNode { vertex, copy });
                }
            }
            start.push(level.len() as u32);
            levels.push(level);
            starts.push(start);
        }
        let mut arcs = Vec::with_capacity(t as usize);
        for i in 0..t as usize {
            let mut gap = Vec::new();
            let pick = |vertex: NodeId, rng: &mut StdRng, starts_i: &[u32]| -> u32 {
                let lo = starts_i[vertex as usize];
                let hi = starts_i[vertex as usize + 1];
                rng.random_range(lo..hi)
            };
            for (to_idx, node) in levels[i + 1].iter().enumerate() {
                // Input from own class...
                gap.push((pick(node.vertex, &mut rng, &starts[i]), to_idx as u32));
                // ... and from each guest neighbor's class.
                for (u, _) in guest.neighbors(node.vertex) {
                    if u != node.vertex {
                        gap.push((pick(u, &mut rng, &starts[i]), to_idx as u32));
                    }
                }
            }
            arcs.push(gap);
        }
        Circuit {
            guest_n: n,
            levels,
            arcs,
        }
    }

    /// Number of guest vertices.
    pub fn guest_n(&self) -> usize {
        self.guest_n
    }

    /// Number of guest steps represented (levels - 1).
    pub fn depth(&self) -> u32 {
        (self.levels.len() - 1) as u32
    }

    /// Total circuit nodes.
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Total arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.iter().map(Vec::len).sum()
    }

    /// Nodes of one level.
    pub fn level(&self, i: u32) -> &[CircuitNode] {
        &self.levels[i as usize]
    }

    /// Arcs from level `i` to `i+1`.
    pub fn arcs_at(&self, i: u32) -> &[(u32, u32)] {
        &self.arcs[i as usize]
    }

    /// Duplicity of class `(vertex, level)`.
    pub fn duplicity(&self, level: u32, vertex: NodeId) -> usize {
        self.levels[level as usize]
            .iter()
            .filter(|nd| nd.vertex == vertex)
            .count()
    }

    /// The paper's efficiency predicate: a `t`-step circuit is efficient if
    /// it contains at most `c · |G| · (t+1)` nodes.
    pub fn is_efficient(&self, c: f64) -> bool {
        (self.node_count() as f64) <= c * self.guest_n as f64 * self.levels.len() as f64
    }

    /// Correctness: every node of level `i+1 ≥ 1` has an input arc from some
    /// representative of its own class and of each guest-neighbor class at
    /// level `i`. Returns a description of the first violation.
    pub fn validate(&self, guest: &Multigraph) -> Result<(), String> {
        for i in 0..self.arcs.len() {
            let from_level = &self.levels[i];
            let to_level = &self.levels[i + 1];
            // inputs[j] = set of source vertices feeding node j.
            let mut inputs: Vec<Vec<NodeId>> = vec![Vec::new(); to_level.len()];
            for &(f, t) in &self.arcs[i] {
                let fv = from_level
                    .get(f as usize)
                    .ok_or_else(|| format!("arc source {f} out of range at level {i}"))?;
                if (t as usize) >= to_level.len() {
                    return Err(format!("arc target {t} out of range at level {i}"));
                }
                inputs[t as usize].push(fv.vertex);
            }
            for (j, node) in to_level.iter().enumerate() {
                let needed: Vec<NodeId> = std::iter::once(node.vertex)
                    .chain(
                        guest
                            .neighbors(node.vertex)
                            .map(|(u, _)| u)
                            .filter(|&u| u != node.vertex),
                    )
                    .collect();
                for u in needed {
                    if !inputs[j].contains(&u) {
                        return Err(format!(
                            "level {} node ({},{}) missing input from vertex {u}",
                            i + 1,
                            node.vertex,
                            node.copy
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Flatten the circuit into an undirected multigraph (node ids are level
    /// offsets + in-level index); parallel arcs merge into multiplicity.
    /// Returns the graph and the global offset of each level.
    pub fn as_multigraph(&self) -> (Multigraph, Vec<usize>) {
        let mut offsets = Vec::with_capacity(self.levels.len() + 1);
        let mut acc = 0usize;
        for l in &self.levels {
            offsets.push(acc);
            acc += l.len();
        }
        offsets.push(acc);
        let mut b = MultigraphBuilder::new(acc);
        for (i, gap) in self.arcs.iter().enumerate() {
            for &(f, t) in gap {
                b.add_edge(
                    (offsets[i] + f as usize) as NodeId,
                    (offsets[i + 1] + t as usize) as NodeId,
                );
            }
        }
        (b.build(), offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId).map(|i| (i, (i + 1) % n as NodeId)))
    }

    #[test]
    fn nonredundant_counts() {
        let g = ring(6);
        let c = Circuit::nonredundant(&g, 4);
        assert_eq!(c.depth(), 4);
        assert_eq!(c.node_count(), 6 * 5);
        // per gap: 6 identity + 12 routing arcs.
        assert_eq!(c.arc_count(), 4 * 18);
        assert!(c.is_efficient(1.0));
        assert_eq!(c.duplicity(2, 3), 1);
    }

    #[test]
    fn nonredundant_is_valid() {
        let g = ring(5);
        let c = Circuit::nonredundant(&g, 3);
        c.validate(&g).unwrap();
    }

    #[test]
    fn validation_catches_missing_inputs() {
        let g = ring(4);
        let mut c = Circuit::nonredundant(&g, 2);
        // Remove all arcs into level 1 node 0.
        c.arcs[0].retain(|&(_, t)| t != 0);
        let err = c.validate(&g).unwrap_err();
        assert!(err.contains("missing input"), "{err}");
    }

    #[test]
    fn redundant_random_is_valid_and_bounded() {
        let g = ring(8);
        let c = Circuit::redundant_random(&g, 5, 3, 42);
        c.validate(&g).unwrap();
        assert!(c.node_count() >= 8 * 6);
        assert!(c.node_count() <= 3 * 8 * 6);
        assert!(c.is_efficient(3.0));
        // Some class should actually be duplicated with max_dup = 3.
        let any_dup = (0..=5u32).any(|l| (0..8u32).any(|v| c.duplicity(l, v) > 1));
        assert!(any_dup);
    }

    #[test]
    fn redundant_is_deterministic_per_seed() {
        let g = ring(6);
        let a = Circuit::redundant_random(&g, 4, 2, 7);
        let b = Circuit::redundant_random(&g, 4, 2, 7);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.arc_count(), b.arc_count());
    }

    #[test]
    fn flatten_to_multigraph() {
        let g = ring(4);
        let c = Circuit::nonredundant(&g, 2);
        let (mg, offsets) = c.as_multigraph();
        assert_eq!(mg.node_count(), 12);
        assert_eq!(offsets, vec![0, 4, 8, 12]);
        // identity edge (0,0)-(0,1): global 0 - 4.
        assert!(mg.has_edge(0, 4));
        // routing edge (0,0)-(1,1): global 0 - 5.
        assert!(mg.has_edge(0, 5));
        assert!(mg.is_connected());
        assert_eq!(mg.simple_edge_count() as usize, c.arc_count());
    }

    #[test]
    fn efficiency_threshold() {
        let g = ring(4);
        let c = Circuit::redundant_random(&g, 3, 8, 1);
        // With duplicities up to 8, c = 1 should typically fail.
        assert!(!c.is_efficient(1.0));
        assert!(c.is_efficient(8.0));
    }
}
