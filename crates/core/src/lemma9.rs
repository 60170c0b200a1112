//! Lemma 9 made constructive: the high-bandwidth traffic pattern hidden in
//! every efficient circuit (the paper's Figure 2).
//!
//! The lemma: for `t = (1+Ω(1))·Λ(G, K_n)`, any efficient homogeneous
//! circuit `Ĝ_t` over `G` embeds a quasi-symmetric traffic graph
//! `γ ∈ K_{Θ(nt),1}` with congestion `O(max(nt², t·C(G,K_n)))`, hence
//! `β(Ĝ_t, γ) ≥ Ω(t·β(G))` — the bandwidth of a `t`-step guest computation
//! is preserved no matter how cleverly the circuit is built.
//!
//! This module *builds the witness* inside a circuit — the canonical
//! nonredundant one, or any redundant one — and *measures* everything the
//! proof claims:
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

use fcn_multigraph::{bfs_parents, path_from_parents, Embedding, Multigraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::circuit::Circuit;

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

/// Depth of the witness circuit for guest diameter `lambda`:
/// `t = ⌈(1+α)·Λ⌉`.
pub fn witness_depth(lambda: u32, alpha: f64) -> u32 {
    ((1.0 + alpha) * lambda as f64).ceil() as u32
}

/// The arcs from one circuit level into the next, grouped by the node they
/// feed: each node's inputs sorted by guest vertex, keeping the first arc
/// per vertex. An arc's position here indexes its γ load.
struct Inputs {
    /// `start[j]..start[j + 1]` is node `j`'s run in `from`.
    start: Vec<u32>,
    /// `(guest vertex, source node on the level below)` per kept arc.
    from: Vec<(NodeId, u32)>,
}

impl Inputs {
    fn new(circuit: &Circuit, i: u32) -> Inputs {
        let below = circuit.level(i);
        let mut arcs: Vec<(u32, NodeId, u32)> = circuit
            .arcs_at(i)
            .iter()
            .map(|&(f, to)| (to, below[f as usize].vertex, f))
            .collect();
        // Stable, so the first arc from each vertex stays first.
        arcs.sort_by_key(|&(to, v, _)| (to, v));
        arcs.dedup_by_key(|&mut (to, v, _)| (to, v));
        let mut start = vec![0u32; circuit.level(i + 1).len() + 1];
        for &(to, _, _) in &arcs {
            start[to as usize + 1] += 1;
        }
        for j in 1..start.len() {
            start[j] += start[j - 1];
        }
        let from = arcs.into_iter().map(|(_, v, f)| (v, f)).collect();
        Inputs { start, from }
    }

    /// The arc into `node` from a representative of `vertex`, if any.
    fn find(&self, node: u32, vertex: NodeId) -> Option<usize> {
        let lo = self.start[node as usize] as usize;
        let run = &self.from[lo..self.start[node as usize + 1] as usize];
        run.binary_search_by_key(&vertex, |&(v, _)| v)
            .ok()
            .map(|k| lo + k)
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
    circuit: &Circuit,
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
    let l_min = cutoff; // S-levels: [l_min, t]; terminals stay >= 0.

    // inputs[i]: the arcs from level i into level i + 1.
    let inputs: Vec<Inputs> = (0..t).map(|i| Inputs::new(circuit, i)).collect();
    // Representative chain: rep[level][vertex] = node index representing
    // that vertex on the S-chain, built by following identity inputs down
    // from the last level.
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
    for i in (0..t as usize).rev() {
        let mut below = vec![u32::MAX; n];
        #[expect(
            clippy::expect_used,
            reason = "shallow-circuit construction wires an identity input at every level"
        )]
        for v in 0..n {
            let above = rep[i + 1][v];
            if above == u32::MAX {
                continue;
            }
            let arc = inputs[i]
                .find(above, v as NodeId)
                .expect("valid circuit: identity input exists");
            below[v] = inputs[i].from[arc].1;
        }
        rep[i] = below;
    }

    // Measured C(G, K_n): shortest-path embedding of the symmetric traffic
    // multigraph into G.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let kn = fcn_multigraph::Traffic::symmetric(n).to_multigraph();
    let kn_embedding = Embedding::shortest_paths(&kn, g, (0..n as NodeId).collect(), &mut rng);
    let c_g_kn = kn_embedding.stats().congestion;
    let beta_g = kn.simple_edge_count() as f64 / c_g_kn as f64;

    // γ load per arc (indexed like `inputs`) and the circuit nodes γ uses.
    let mut load: Vec<Vec<u64>> = inputs.iter().map(|a| vec![0; a.from.len()]).collect();
    let mut used: Vec<Vec<bool>> = (0..=t)
        .map(|i| vec![false; circuit.level(i).len()])
        .collect();
    let mut cone_paths = 0usize;
    let mut gamma_edges = 0u64;

    // One BFS tree per vertex (shared by all S-levels for that vertex): the
    // embedding paths that "witness β(G)".
    for u in 0..n as NodeId {
        let (dist, parent) = bfs_parents(g, u);
        for v in 0..n as NodeId {
            if v == u {
                continue;
            }
            let d = dist[v as usize];
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
                // Routing legs: follow the circuit's actual arcs backward
                // along the shortest path, starting from u's representative;
                // hop s crosses the gap below level - s.
                let mut cur = rep[level as usize][u as usize];
                used[level as usize][cur as usize] = true;
                for (s, w) in path.windows(2).enumerate() {
                    let gap = (level - s as u32 - 1) as usize;
                    #[expect(
                        clippy::expect_used,
                        reason = "cone construction added a routing input for every shortest-path arc"
                    )]
                    let arc = inputs[gap]
                        .find(cur, w[1])
                        .expect("valid circuit: routing input exists");
                    load[gap][arc] += bundle;
                    cur = inputs[gap].from[arc].1;
                }
                // Identity chain of v from the terminal down to level 0: the
                // arc below level i + 1 carries the γ-edges destined to
                // levels 0..=i, i + 1 of them.
                used[terminal_level as usize][cur as usize] = true;
                for i in (0..terminal_level as usize).rev() {
                    #[expect(
                        clippy::expect_used,
                        reason = "identity chains run unbroken from the terminal level to level 0"
                    )]
                    let arc = inputs[i]
                        .find(cur, v)
                        .expect("valid circuit: identity input exists");
                    load[i][arc] += i as u64 + 1;
                    cur = inputs[i].from[arc].1;
                    used[i][cur as usize] = true;
                }
            }
        }
    }

    let max_congestion = load.iter().flatten().copied().max().unwrap_or(0);
    let congestion_cap = ((n as u64) * (t as u64) * (t as u64)).max((t as u64) * c_g_kn);
    Lemma9Witness {
        n,
        lambda,
        t,
        cutoff,
        s_nodes: n * (t - l_min + 1) as usize,
        cone_paths,
        gamma_vertices: used.iter().flatten().filter(|&&u| u).count(),
        gamma_edges,
        congestion: max_congestion,
        c_g_kn,
        congestion_cap,
        circuit_bandwidth: gamma_edges as f64 / max_congestion.max(1) as f64,
        target_bandwidth: t as f64 * beta_g,
    }
}

/// Build the Lemma 9 witness over guest graph `g`, on the canonical
/// nonredundant circuit of depth [`witness_depth`].
pub fn build_witness(g: &Multigraph, cfg: Lemma9Config) -> Lemma9Witness {
    assert!(g.node_count() >= 2, "guest too small");
    assert!(cfg.alpha > 0.0, "lemma 9 needs alpha > 0");
    let t = witness_depth(fcn_multigraph::diameter(g), cfg.alpha);
    build_witness_in_circuit(g, &Circuit::nonredundant(g, t), cfg)
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

    /// The full witness of `fig2 --quick`'s guests, recorded when the
    /// canonical circuit still had a cone walk of its own (field order of
    /// [`Lemma9Witness`]; the two bandwidths as `f64` bits).
    #[test]
    fn fig2_quick_witnesses_match_recorded_values() {
        #[rustfmt::skip]
        let pins: [(Machine, [u64; 11], [u64; 2]); 3] = [
            (Machine::ring(16), [16, 8, 16, 6, 176, 2112, 272, 17952, 546, 66, 4096],
                [0x4040708708708708, 0x404d1745d1745d17]),
            (Machine::mesh(2, 5), [25, 8, 16, 6, 275, 6380, 425, 56144, 1260, 126, 6400],
                [0x4046478478478478, 0x40530c30c30c30c3]),
            (Machine::de_bruijn(4), [16, 4, 8, 3, 96, 1380, 144, 6126, 188, 38, 1024],
                [0x40404ae4c415c988, 0x4049435e50d79436]),
        ];
        for (m, counts, bits) in pins {
            let w = witness_for(&m);
            let got = [
                w.n as u64,
                w.lambda as u64,
                w.t as u64,
                w.cutoff as u64,
                w.s_nodes as u64,
                w.cone_paths as u64,
                w.gamma_vertices as u64,
                w.gamma_edges,
                w.congestion,
                w.c_g_kn,
                w.congestion_cap,
            ];
            assert_eq!(got, counts, "{}", m.name());
            assert_eq!(
                [w.circuit_bandwidth.to_bits(), w.target_bandwidth.to_bits()],
                bits,
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn general_witness_survives_redundant_circuits() {
        let m = Machine::mesh(2, 4);
        let cfg = Lemma9Config::default();
        let t = witness_depth(fcn_multigraph::diameter(m.graph()), cfg.alpha);
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
