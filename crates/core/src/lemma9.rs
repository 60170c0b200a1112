//! Lemma 9 made constructive: the high-bandwidth traffic pattern hidden in
//! every efficient circuit (the paper's Figure 2).
//!
//! The lemma: for `t = (1+Ω(1))·Λ(G, K_n)`, any efficient homogeneous
//! circuit `Ĝ_t` over `G` embeds a quasi-symmetric traffic graph
//! `γ ∈ K_{Θ(nt),1}` with congestion `O(max(nt², t·C(G,K_n)))`, hence
//! `β(Ĝ_t, γ) ≥ Ω(t·β(G))` — the bandwidth of a `t`-step guest computation
//! is preserved no matter how cleverly the circuit is built.
//!
//! This module *builds the witness* on the canonical circuit and *measures*
//! everything the proof claims:
//!
//! * **S-nodes**: one representative per guest vertex on each of the last
//!   `t - L_min + 1` levels;
//! * **cones**: from each S-node `(u, L)`, one embedding path per
//!   destination `v` with `d(u,v) ≤ cutoff`, terminating at `(v, L-d)`;
//! * **Q-sets**: the identity chain above each cone terminal;
//! * **γ-edges**: one edge from the S-node to every member of the Q-set
//!   ("bundles travel up the cone path, then up the identity edges, picked
//!   off one-by-one").
//!
//! Congestion is accounted per circuit edge without materializing the
//! `Θ(n²t²)` γ-edges individually.

use std::collections::BTreeMap;

use fcn_multigraph::{bfs_parents, path_from_parents, Embedding, Multigraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Parameters of the construction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Lemma9Config {
    /// The `Ω(1)` slack in `t = (1+α)·Λ`. The proof needs `α > 0`.
    pub alpha: f64,
    /// Seed for the K_n embedding's tie-breaking.
    pub seed: u64,
}

impl Default for Lemma9Config {
    fn default() -> Self {
        Lemma9Config {
            alpha: 1.0,
            seed: 0x9e,
        }
    }
}

/// Everything the proof claims, measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lemma9Witness {
    /// Guest size.
    pub n: usize,
    /// Λ(G): the guest diameter (the `K_n`-dilation scale).
    pub lambda: u32,
    /// Circuit depth `t = ceil((1+α)·Λ)`.
    pub t: u32,
    /// Cone length cutoff `≈ (1+α/2)/(1+α) · Λ`.
    pub cutoff: u32,
    /// Number of S-nodes (one per vertex per S-level).
    pub s_nodes: usize,
    /// Total cone paths (Ω(n²) per S-level is the proof's counting claim).
    pub cone_paths: usize,
    /// Distinct circuit nodes used as γ vertices.
    pub gamma_vertices: usize,
    /// Total γ-edges (`Θ(n²t²)` is the claim).
    pub gamma_edges: u64,
    /// Measured congestion of the γ embedding over circuit edges.
    pub congestion: u64,
    /// Measured congestion `C(G, K_n)` of the shortest-path K_n embedding
    /// witness into G.
    pub c_g_kn: u64,
    /// The proof's congestion cap `max(n·t², t·C(G,K_n))`.
    pub congestion_cap: u64,
    /// `β(Ĝ_t, γ) = E(γ)/congestion` (the certified bandwidth of the
    /// circuit pattern).
    pub circuit_bandwidth: f64,
    /// `t · β(G)` with `β(G) = E(K_n-traffic)/C(G,K_n)` — the target the
    /// lemma says the circuit preserves up to a constant.
    pub target_bandwidth: f64,
}

impl Lemma9Witness {
    /// The lemma's conclusion as a measured constant:
    /// `β(Ĝ_t, γ) / (t·β(G))` — should be bounded below by a constant
    /// across sizes.
    pub fn preservation_ratio(&self) -> f64 {
        self.circuit_bandwidth / self.target_bandwidth
    }

    /// The congestion claim as a measured constant:
    /// `congestion / max(nt², t·C(G,K_n))` — should be bounded above.
    pub fn congestion_ratio(&self) -> f64 {
        self.congestion as f64 / self.congestion_cap as f64
    }

    /// γ's membership in `K_{r,1}` up to constants: edge count over `r²/2`.
    pub fn gamma_density(&self) -> f64 {
        let r = self.gamma_vertices as f64;
        self.gamma_edges as f64 / (r * r / 2.0)
    }
}

/// Build the Lemma 9 witness inside an arbitrary *efficient* circuit.
///
/// This is the lemma's true generality: the adversary may run any
/// redundant circuit, and the witness is found by walking the circuit's
/// actual arcs. S-sets follow identity arcs backward from the last level;
/// cone paths follow routing arcs backward along the guest's shortest
/// paths; Q-sets follow identity arcs upward from each terminal. The
/// returned statistics are measured on the concrete circuit.
pub fn build_witness_in_circuit(
    g: &Multigraph,
    circuit: &crate::circuit::Circuit,
    cfg: Lemma9Config,
) -> Lemma9Witness {
    let n = g.node_count();
    assert!(n >= 2 && circuit.guest_n() == n);
    assert!(cfg.alpha > 0.0, "lemma 9 needs alpha > 0");
    let lambda = fcn_multigraph::diameter(g);
    let t = circuit.depth();
    assert!(
        t as f64 >= (1.0 + cfg.alpha) * lambda as f64 - 1e-9,
        "circuit too shallow for alpha = {}: depth {t} < (1+α)·Λ = {}",
        cfg.alpha,
        (1.0 + cfg.alpha) * lambda as f64
    );
    let cutoff = (((1.0 + cfg.alpha / 2.0) / (1.0 + cfg.alpha)) * lambda as f64).ceil() as u32;
    let cutoff = cutoff.clamp(1, lambda);
    let l_min = cutoff;

    // Per level: index of one representative per vertex, and per node its
    // chosen identity-predecessor and per-neighbor routing predecessors.
    // For each level i in [1, t]: pred[i][j] = (arc sources by guest vertex)
    // — we precompute, per node, a map vertex -> source index.
    let mut pred: Vec<Vec<std::collections::BTreeMap<NodeId, u32>>> =
        Vec::with_capacity(t as usize);
    for i in 0..t {
        let nodes_above = circuit.level(i + 1).len();
        let mut maps: Vec<std::collections::BTreeMap<NodeId, u32>> =
            vec![std::collections::BTreeMap::new(); nodes_above];
        let from_level = circuit.level(i);
        for &(f, to) in circuit.arcs_at(i) {
            let fv = from_level[f as usize].vertex;
            maps[to as usize].entry(fv).or_insert(f);
        }
        pred.push(maps);
    }
    // Representative chain: rep[level][vertex] = node index representing
    // that vertex on the S-chain, built by following identity predecessors
    // down from the last level.
    let mut rep: Vec<Vec<u32>> = vec![Vec::new(); t as usize + 1];
    rep[t as usize] = {
        let mut first = vec![u32::MAX; n];
        for (j, node) in circuit.level(t).iter().enumerate() {
            if first[node.vertex as usize] == u32::MAX {
                first[node.vertex as usize] = j as u32;
            }
        }
        first
    };
    for i in (0..t).rev() {
        let mut below = vec![u32::MAX; n];
        #[expect(
            clippy::expect_used,
            reason = "shallow-circuit construction wires an identity input at every level"
        )]
        for v in 0..n {
            let above = rep[i as usize + 1][v];
            if above == u32::MAX {
                continue;
            }
            below[v] = *pred[i as usize][above as usize]
                .get(&(v as NodeId))
                .expect("valid circuit: identity input exists");
        }
        rep[i as usize] = below;
    }

    // Mirrors the canonical construction, but congestion keys are concrete
    // circuit node indices (level, node-index pairs).
    let mut congestion: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
    let mut cone_paths = 0usize;
    let mut gamma_edges = 0u64;
    let mut used_nodes: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let kn = fcn_multigraph::Traffic::symmetric(n).to_multigraph();
    let kn_embedding = Embedding::shortest_paths(&kn, g, (0..n as NodeId).collect(), &mut rng);
    let c_g_kn = kn_embedding.stats().congestion;
    let beta_g = kn.simple_edge_count() as f64 / c_g_kn as f64;

    for u in 0..n as NodeId {
        let (dist, parent) = bfs_parents(g, u);
        for v in 0..n as NodeId {
            if v == u {
                continue;
            }
            let d = dist[v as usize];
            if d > cutoff {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "BFS reached v (dist is finite), so the parent chain is complete"
            )]
            let path = path_from_parents(&parent, u, v).expect("connected");
            for level in l_min..=t {
                let terminal_level = level - d;
                cone_paths += 1;
                let bundle = terminal_level as u64 + 1;
                gamma_edges += bundle;
                used_nodes.insert((level, rep[level as usize][u as usize]));
                // Routing legs: follow the circuit's actual arcs backward
                // along the shortest path, starting from u's representative.
                let mut cur = rep[level as usize][u as usize];
                for (s, w) in path.windows(2).enumerate() {
                    let gap = level - s as u32 - 1;
                    // cur lives at level gap+1; its predecessor representing
                    // w[1] sits at level gap.
                    #[expect(
                        clippy::expect_used,
                        reason = "cone construction added a routing input for every shortest-path arc"
                    )]
                    let nxt = *pred[gap as usize][cur as usize]
                        .get(&w[1])
                        .expect("valid circuit: routing input exists");
                    *congestion.entry((gap, nxt, cur)).or_insert(0) += bundle;
                    cur = nxt;
                }
                // Identity chain of v from the terminal up to level 0.
                let mut q = cur; // v's representative at terminal_level
                used_nodes.insert((terminal_level, q));
                for i in (0..terminal_level).rev() {
                    #[expect(
                        clippy::expect_used,
                        reason = "identity chains run unbroken from the terminal level to level 0"
                    )]
                    let nxt = *pred[i as usize][q as usize]
                        .get(&v)
                        .expect("valid circuit: identity input exists");
                    *congestion.entry((i, nxt, q)).or_insert(0) += i as u64 + 1;
                    q = nxt;
                    used_nodes.insert((i, q));
                }
            }
        }
    }

    let max_congestion = congestion.values().copied().max().unwrap_or(0);
    let congestion_cap = ((n as u64) * (t as u64) * (t as u64)).max((t as u64) * c_g_kn);
    Lemma9Witness {
        n,
        lambda,
        t,
        cutoff,
        s_nodes: n * (t - l_min + 1) as usize,
        cone_paths,
        gamma_vertices: used_nodes.len(),
        gamma_edges,
        congestion: max_congestion,
        c_g_kn,
        congestion_cap,
        circuit_bandwidth: gamma_edges as f64 / max_congestion.max(1) as f64,
        target_bandwidth: t as f64 * beta_g,
    }
}

/// Build the Lemma 9 witness over guest graph `g`.
///
/// Works on the canonical nonredundant circuit (`Circuit::nonredundant`
/// structure is implicit: node `(v, level)`, identity and routing edges).
pub fn build_witness(g: &Multigraph, cfg: Lemma9Config) -> Lemma9Witness {
    let n = g.node_count();
    assert!(n >= 2, "guest too small");
    assert!(cfg.alpha > 0.0, "lemma 9 needs alpha > 0");
    let lambda = fcn_multigraph::diameter(g);
    let t = ((1.0 + cfg.alpha) * lambda as f64).ceil() as u32;
    let cutoff = (((1.0 + cfg.alpha / 2.0) / (1.0 + cfg.alpha)) * lambda as f64).ceil() as u32;
    let cutoff = cutoff.clamp(1, lambda);
    let l_min = cutoff; // S-levels: [l_min, t]; terminals stay >= 0.

    // Measured C(G, K_n): shortest-path embedding of the symmetric traffic
    // multigraph into G.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let kn = fcn_multigraph::Traffic::symmetric(n).to_multigraph();
    let kn_embedding = Embedding::shortest_paths(&kn, g, (0..n as NodeId).collect(), &mut rng);
    let c_g_kn = kn_embedding.stats().congestion;
    let beta_g = kn.simple_edge_count() as f64 / c_g_kn as f64;

    // One BFS tree per vertex (shared by all S-levels for that vertex): the
    // embedding paths that "witness β(G)".
    // Congestion accumulators: key = (gap level, lower vertex, upper vertex)
    // for the circuit edge between (x, gap) and (y, gap+1).
    let mut congestion: BTreeMap<(u32, NodeId, NodeId), u64> = BTreeMap::new();
    let mut cone_paths = 0usize;
    let mut gamma_edges = 0u64;
    let mut used_nodes: std::collections::BTreeSet<(NodeId, u32)> =
        std::collections::BTreeSet::new();

    for u in 0..n as NodeId {
        let (dist, parent) = bfs_parents(g, u);
        for v in 0..n as NodeId {
            if v == u {
                continue;
            }
            let d = dist[v as usize];
            assert!(d != u32::MAX, "guest must be connected");
            if d > cutoff {
                continue; // long embedding path: not a cone path
            }
            // Extract the path once; reuse for every S-level.
            #[expect(
                clippy::expect_used,
                reason = "BFS reached v (dist is finite), so the parent chain is complete"
            )]
            let path = path_from_parents(&parent, u, v).expect("connected");
            for level in l_min..=t {
                let terminal_level = level - d;
                cone_paths += 1;
                // Bundle size: Q-set = (v, terminal_level) .. (v, 0).
                let bundle = terminal_level as u64 + 1;
                gamma_edges += bundle;
                used_nodes.insert((u, level));
                for j in 0..=terminal_level {
                    used_nodes.insert((v, j));
                }
                // Routing legs: hop s goes (path[s], level-s) ->
                // (path[s+1], level-s-1); circuit edge at gap level-s-1.
                for (s, w) in path.windows(2).enumerate() {
                    let gap = level - s as u32 - 1;
                    *congestion.entry((gap, w[1], w[0])).or_insert(0) += bundle;
                }
                // Identity edges: gap i between (v,i) and (v,i+1), for
                // i < terminal_level, carries the γ-edges destined to
                // levels 0..=i: i+1 of them.
                for i in 0..terminal_level {
                    *congestion.entry((i, v, v)).or_insert(0) += i as u64 + 1;
                }
            }
        }
    }

    let max_congestion = congestion.values().copied().max().unwrap_or(0);
    let congestion_cap = ((n as u64) * (t as u64) * (t as u64)).max((t as u64) * c_g_kn);
    Lemma9Witness {
        n,
        lambda,
        t,
        cutoff,
        s_nodes: n * (t - l_min + 1) as usize,
        cone_paths,
        gamma_vertices: used_nodes.len(),
        gamma_edges,
        congestion: max_congestion,
        c_g_kn,
        congestion_cap,
        circuit_bandwidth: gamma_edges as f64 / max_congestion.max(1) as f64,
        target_bandwidth: t as f64 * beta_g,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_topology::Machine;

    fn witness_for(m: &Machine) -> Lemma9Witness {
        build_witness(m.graph(), Lemma9Config::default())
    }

    #[test]
    fn mesh_witness_has_claimed_shape() {
        let m = Machine::mesh(2, 6);
        let w = witness_for(&m);
        assert_eq!(w.n, 36);
        assert_eq!(w.lambda, 10);
        assert_eq!(w.t, 20);
        // γ vertices Θ(nt): within [n, n(t+1)].
        assert!(w.gamma_vertices >= w.n);
        assert!(w.gamma_vertices <= w.n * (w.t as usize + 1));
        // Quasi-symmetric density: Ω(1) relative to (nt)²/2 with a small
        // constant.
        assert!(w.gamma_density() > 0.01, "density {}", w.gamma_density());
        // Ω(n²) cone paths per S-level on average.
        let per_level = w.cone_paths as f64 / (w.t - w.cutoff + 1) as f64;
        assert!(
            per_level >= 0.2 * (w.n * w.n) as f64,
            "cone paths per level {per_level}"
        );
    }

    #[test]
    fn congestion_within_proof_cap() {
        for m in [
            Machine::mesh(2, 5),
            Machine::ring(16),
            Machine::de_bruijn(4),
            Machine::tree(3),
        ] {
            let w = witness_for(&m);
            assert!(
                w.congestion_ratio() <= 8.0,
                "{}: congestion {} cap {}",
                m.name(),
                w.congestion,
                w.congestion_cap
            );
        }
    }

    #[test]
    fn bandwidth_preservation_holds() {
        // β(circuit, γ) ≥ c · t·β(G) with c = Ω(1).
        for m in [
            Machine::mesh(2, 5),
            Machine::de_bruijn(4),
            Machine::ring(12),
        ] {
            let w = witness_for(&m);
            assert!(
                w.preservation_ratio() > 0.05,
                "{}: ratio {}",
                m.name(),
                w.preservation_ratio()
            );
        }
    }

    #[test]
    fn preservation_constant_stable_across_sizes() {
        // The lemma is asymptotic: the ratio must not decay as n grows.
        let r1 = witness_for(&Machine::mesh(2, 4)).preservation_ratio();
        let r2 = witness_for(&Machine::mesh(2, 8)).preservation_ratio();
        assert!(r2 > r1 * 0.4, "preservation decays: {r1} -> {r2}");
    }

    #[test]
    fn s_nodes_and_edges_scale() {
        let w4 = witness_for(&Machine::mesh(2, 4));
        let w8 = witness_for(&Machine::mesh(2, 8));
        // n quadruples, t doubles: s_nodes ~ n·(t·α/2) grows ~8x; γ-edges
        // ~ n²t² grows ~64x. Allow generous bands.
        let s_ratio = w8.s_nodes as f64 / w4.s_nodes as f64;
        assert!(s_ratio > 4.0 && s_ratio < 16.0, "s_ratio {s_ratio}");
        let e_ratio = w8.gamma_edges as f64 / w4.gamma_edges as f64;
        assert!(e_ratio > 24.0 && e_ratio < 150.0, "e_ratio {e_ratio}");
    }

    #[test]
    fn general_witness_matches_canonical_on_nonredundant_circuit() {
        use crate::circuit::Circuit;
        let m = Machine::mesh(2, 4);
        let cfg = Lemma9Config::default();
        let canonical = build_witness(m.graph(), cfg);
        let circuit = Circuit::nonredundant(m.graph(), canonical.t);
        let general = build_witness_in_circuit(m.graph(), &circuit, cfg);
        // Same combinatorics: identical counts; congestion identical because
        // the nonredundant circuit has exactly one representative per class.
        assert_eq!(general.gamma_edges, canonical.gamma_edges);
        assert_eq!(general.cone_paths, canonical.cone_paths);
        assert_eq!(general.s_nodes, canonical.s_nodes);
        assert_eq!(general.congestion, canonical.congestion);
    }

    #[test]
    fn general_witness_survives_redundant_circuits() {
        use crate::circuit::Circuit;
        let m = Machine::mesh(2, 4);
        let cfg = Lemma9Config::default();
        let lambda = fcn_multigraph::diameter(m.graph());
        let t = ((1.0 + cfg.alpha) * lambda as f64).ceil() as u32;
        for seed in [1u64, 2, 3] {
            let circuit = Circuit::redundant_random(m.graph(), t, 3, seed);
            circuit.validate(m.graph()).unwrap();
            let w = build_witness_in_circuit(m.graph(), &circuit, cfg);
            // The lemma's claims hold no matter how the adversary builds
            // the circuit: quasi-symmetric γ, bounded congestion, preserved
            // bandwidth.
            assert!(w.gamma_edges > 0);
            assert!(
                w.congestion_ratio() <= 8.0,
                "seed {seed}: congestion ratio {}",
                w.congestion_ratio()
            );
            assert!(
                w.preservation_ratio() > 0.05,
                "seed {seed}: preservation {}",
                w.preservation_ratio()
            );
        }
    }

    #[test]
    fn redundancy_cannot_hide_the_bandwidth() {
        // Duplicating computation spreads the γ-embedding across more
        // nodes, but the preserved bandwidth stays within a constant of the
        // canonical circuit's — the heart of the Efficient Emulation
        // Theorem's robustness.
        use crate::circuit::Circuit;
        let m = Machine::ring(12);
        let cfg = Lemma9Config::default();
        let canonical = build_witness(m.graph(), cfg);
        let circuit = Circuit::redundant_random(m.graph(), canonical.t, 2, 7);
        let general = build_witness_in_circuit(m.graph(), &circuit, cfg);
        let ratio = general.circuit_bandwidth / canonical.circuit_bandwidth;
        assert!(
            ratio > 0.3,
            "redundant witness bandwidth collapsed: {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "too shallow")]
    fn shallow_circuits_rejected() {
        use crate::circuit::Circuit;
        let m = Machine::mesh(2, 4);
        let circuit = Circuit::nonredundant(m.graph(), 3); // Λ = 6, needs ≥ 12
        let _ = build_witness_in_circuit(m.graph(), &circuit, Lemma9Config::default());
    }

    #[test]
    #[should_panic(expected = "alpha > 0")]
    fn zero_alpha_rejected() {
        let m = Machine::ring(8);
        let _ = build_witness(
            m.graph(),
            Lemma9Config {
                alpha: 0.0,
                seed: 1,
            },
        );
    }
}
