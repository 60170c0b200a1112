//! Lemma 11 made executable: bandwidth survives super-vertex collapse.
//!
//! The lemma: let `C` carry a quasi-symmetric traffic `γ ∈ K_{n,O(1)}`; if
//! `C`'s vertices are collapsed onto `n/k` super-vertices with load `O(k)`,
//! some traffic `ξ ∈ K_{n/k, Θ(k²)}` on the collapsed graph `M` satisfies
//! `β(M, ξ) ≥ Ω(β(C, γ))`. The proof is a counting argument: at most
//! `O(nk)` γ-edges collapse into self-loops, so `Ω(n²)` survive between
//! distinct super-vertices, each super-pair carrying at most `O(k²)` of
//! them; and the surviving γ-paths still witness the congestion.
//!
//! [`collapse_preservation`] executes exactly that: embeds `γ` into `C`,
//! collapses, and measures every quantity the proof counts.

use std::collections::BTreeMap;

use fcn_multigraph::{collapse, embed_shortest_paths, Multigraph, NodeId, Traffic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Measured quantities of one collapse experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lemma11Report {
    /// |C|.
    pub n: usize,
    /// Number of super-vertices.
    pub m: usize,
    /// Max super-vertex load (the `O(k)`).
    pub max_load: u32,
    /// γ-edges before collapse.
    pub gamma_edges: u64,
    /// γ-edges collapsed into self-loops (the proof bounds these by O(nk)).
    pub self_collapsed: u64,
    /// Surviving ξ-edges between distinct super-vertices (claim: Ω(n²)).
    pub xi_edges: u64,
    /// Max ξ multiplicity between one super-pair (claim: O(k²)).
    pub max_pair_multiplicity: u64,
    /// Congestion of the γ embedding in C.
    pub c_congestion: u64,
    /// Per-unit-capacity congestion of the collapsed embedding in M.
    pub m_unit_congestion: u64,
    /// β(C, γ) = E(γ) / congestion_C.
    pub beta_c: f64,
    /// β(M, ξ) = E(ξ) / unit-congestion_M.
    pub beta_m: f64,
}

impl Lemma11Report {
    /// The lemma's conclusion as a measured constant: `β(M,ξ)/β(C,γ)`,
    /// which should be bounded below by a constant.
    pub fn preservation_ratio(&self) -> f64 {
        self.beta_m / self.beta_c
    }

    /// Fraction of γ-edges surviving between distinct supers.
    pub fn survival_fraction(&self) -> f64 {
        self.xi_edges as f64 / self.gamma_edges as f64
    }
}

/// Execute the Lemma 11 experiment: embed `gamma` (a traffic distribution
/// on `c`'s vertices) into `c` along shortest paths, collapse `c` by
/// `assign` onto `num_supers` super-vertices, and measure the preservation
/// quantities.
pub fn collapse_preservation(
    c: &Multigraph,
    gamma: &Traffic,
    assign: &[NodeId],
    num_supers: usize,
    seed: u64,
) -> Lemma11Report {
    assert_eq!(gamma.n(), c.node_count(), "traffic must cover C exactly");
    let gamma_graph = gamma.to_multigraph();
    let mut rng = StdRng::seed_from_u64(seed);
    let phi: Vec<NodeId> = (0..c.node_count() as NodeId).collect();
    // Collapse each γ-edge and its path as it is walked. ξ counts the
    // γ-edges between distinct supers; `m_load` is the load on each M edge,
    // to be divided by its multiplicity (the number of parallel C wires
    // collapsed into it) for the per-unit-capacity congestion on M.
    let mut xi: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    let mut m_load: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    let (mut gamma_edges, mut self_collapsed) = (0u64, 0u64);
    let c_congestion = embed_shortest_paths(&gamma_graph, c, &phi, &mut rng, |e, path| {
        let mult = e.multiplicity as u64;
        gamma_edges += mult;
        let (a, b) = (assign[e.u as usize], assign[e.v as usize]);
        // A γ-edge that collapses to a self-loop needs no M wires.
        if a == b {
            self_collapsed += mult;
            return;
        }
        *xi.entry((a.min(b), a.max(b))).or_insert(0) += mult;
        for w in path.windows(2) {
            let (a, b) = (assign[w[0] as usize], assign[w[1] as usize]);
            if a != b {
                *m_load.entry((a.min(b), a.max(b))).or_insert(0) += mult;
            }
        }
    })
    .congestion;
    let collapsed = collapse(c, assign, num_supers);
    let xi_edges: u64 = xi.values().sum();
    let max_pair_multiplicity = xi.values().copied().max().unwrap_or(0);

    let m_unit_congestion = m_load
        .iter()
        .map(|(&(a, b), &load)| {
            let cap = collapsed.graph.multiplicity(a, b).max(1) as u64;
            load.div_ceil(cap)
        })
        .max()
        .unwrap_or(0);

    Lemma11Report {
        n: c.node_count(),
        m: num_supers,
        max_load: collapsed.max_load(),
        gamma_edges,
        self_collapsed,
        xi_edges,
        max_pair_multiplicity,
        c_congestion,
        m_unit_congestion,
        beta_c: gamma_edges as f64 / c_congestion.max(1) as f64,
        beta_m: xi_edges as f64 / m_unit_congestion.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_multigraph::contiguous_blocks;
    use fcn_topology::Machine;

    fn run(machine: &Machine, m: usize, seed: u64) -> Lemma11Report {
        let n = machine.processors();
        let gamma = Traffic::symmetric(machine.graph().node_count());
        let assign = contiguous_blocks(machine.graph().node_count(), m);
        let _ = n;
        collapse_preservation(machine.graph(), &gamma, &assign, m, seed)
    }

    #[test]
    fn most_gamma_edges_survive() {
        let r = run(&Machine::mesh(2, 8), 8, 1);
        // Self-collapsed edges are O(nk) = O(64·8) vs n² = 4096 γ-pairs.
        assert!(r.survival_fraction() > 0.7, "{}", r.survival_fraction());
        assert_eq!(r.gamma_edges, r.self_collapsed + r.xi_edges);
    }

    #[test]
    fn pair_multiplicity_is_k_squared() {
        let r = run(&Machine::mesh(2, 8), 8, 2);
        let k = r.max_load as u64;
        // Each super-pair carries at most 2·k² γ-edges (multiplicity-2 K_n).
        assert!(
            r.max_pair_multiplicity <= 2 * k * k,
            "mult {} k {k}",
            r.max_pair_multiplicity
        );
        assert!(r.max_pair_multiplicity >= k * k / 2);
    }

    #[test]
    fn bandwidth_preserved_on_ring_collapse() {
        // Collapsing a ring onto a smaller ring: both have β = Θ(1); the
        // ratio must be Ω(1) (in fact ≥ 1: the collapsed instance is
        // easier per unit).
        let r = run(&Machine::ring(32), 8, 3);
        assert!(
            r.preservation_ratio() > 0.5,
            "ratio {}",
            r.preservation_ratio()
        );
    }

    #[test]
    fn bandwidth_preserved_on_mesh_collapse() {
        let r = run(&Machine::mesh(2, 8), 16, 4);
        assert!(
            r.preservation_ratio() > 0.5,
            "ratio {}",
            r.preservation_ratio()
        );
        assert!(r.m_unit_congestion <= r.c_congestion * 2);
    }

    #[test]
    fn loads_are_balanced() {
        let r = run(&Machine::mesh(2, 8), 8, 5);
        assert_eq!(r.max_load, 8);
        assert_eq!(r.m, 8);
        assert_eq!(r.n, 64);
    }

    #[test]
    fn collapse_to_single_super_is_degenerate_but_total() {
        let machine = Machine::ring(8);
        let gamma = Traffic::symmetric(8);
        let assign = contiguous_blocks(8, 1);
        let r = collapse_preservation(machine.graph(), &gamma, &assign, 1, 6);
        assert_eq!(r.xi_edges, 0);
        assert_eq!(r.self_collapsed, r.gamma_edges);
    }
}
