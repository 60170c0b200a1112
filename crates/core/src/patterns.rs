//! Algorithm communication patterns — the paper's announced extension.
//!
//! The conclusion sketches how the method extends beyond machine-on-machine
//! emulation: "Algorithms are treated as collections of communication
//! patterns ... Lower bounds are obtained on the bandwidth of these
//! circuits, yielding lower bounds on the bandwidth of any communication
//! pattern induced by any efficient redundant simulation of the algorithm
//! on a host." This module implements the pattern library and the Lemma 8
//! application: the time to execute pattern `C` on host `H` is at least
//! `β-work(C) / β(H)`.
//!
//! Patterns are communication multigraphs with a round count: the classic
//! FFT/butterfly exchange, odd-even transposition sort, nearest-neighbor
//! stencils, all-to-all, tree broadcast, and random permutations.

use fcn_multigraph::{embed_shortest_paths, Cut, Multigraph, MultigraphBuilder, NodeId, Traffic};
use fcn_routing::{RouteCtx, RouterConfig, Strategy};
use fcn_topology::Machine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A named communication pattern over `n` logical processes.
///
/// ```
/// use fcn_core::CommPattern;
///
/// let fft = CommPattern::fft(4);
/// assert_eq!(fft.n, 16);
/// assert_eq!(fft.message_count(), 16 * 4); // n·g messages over g rounds
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommPattern {
    /// Pattern name, e.g. `fft(16)`.
    pub name: String,
    /// Processes communicating.
    pub n: usize,
    /// Communication multigraph: multiplicity = messages over the whole
    /// pattern (all rounds).
    pub graph: Multigraph,
    /// Rounds the algorithm takes on its natural machine.
    pub rounds: u32,
}

impl CommPattern {
    /// Total messages `E(C)`.
    pub fn message_count(&self) -> u64 {
        self.graph.simple_edge_count()
    }

    /// The FFT / butterfly exchange on `2^g` processes: round `ℓ` exchanges
    /// `u ↔ u xor 2^ℓ`. `g` rounds, `n·g/2` unordered pairs.
    pub fn fft(g: u32) -> CommPattern {
        let n = 1usize << g;
        let mut b = MultigraphBuilder::new(n);
        for l in 0..g {
            for u in 0..n {
                let v = u ^ (1 << l);
                if v > u {
                    // Two messages per exchange (both directions).
                    b.add_edge_mult(u as NodeId, v as NodeId, 2);
                }
            }
        }
        CommPattern {
            name: format!("fft(g={g})"),
            n,
            graph: b.build(),
            rounds: g,
        }
    }

    /// Odd-even transposition sort on `n` processes: `n` rounds of
    /// alternating neighbor compare-exchanges.
    pub fn odd_even_sort(n: usize) -> CommPattern {
        assert!(n >= 2);
        let mut b = MultigraphBuilder::new(n);
        for round in 0..n {
            let start = round % 2;
            let mut i = start;
            while i + 1 < n {
                b.add_edge_mult(i as NodeId, (i + 1) as NodeId, 2);
                i += 2;
            }
        }
        CommPattern {
            name: format!("odd_even_sort(n={n})"),
            n,
            graph: b.build(),
            rounds: n as u32,
        }
    }

    /// `steps` iterations of a 5-point stencil on a `side × side` grid.
    pub fn stencil2d(side: usize, steps: u32) -> CommPattern {
        assert!(side >= 2 && steps >= 1);
        let n = side * side;
        let mut b = MultigraphBuilder::new(n);
        for r in 0..side {
            for c in 0..side {
                let id = (r * side + c) as NodeId;
                if c + 1 < side {
                    b.add_edge_mult(id, id + 1, 2 * steps);
                }
                if r + 1 < side {
                    b.add_edge_mult(id, ((r + 1) * side + c) as NodeId, 2 * steps);
                }
            }
        }
        CommPattern {
            name: format!("stencil2d(side={side},steps={steps})"),
            n,
            graph: b.build(),
            rounds: steps,
        }
    }

    /// One all-to-all (personalized) exchange on `n` processes.
    pub fn all_to_all(n: usize) -> CommPattern {
        assert!(n >= 2);
        let mut b = MultigraphBuilder::new(n);
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                b.add_edge_mult(u, v, 2);
            }
        }
        CommPattern {
            name: format!("all_to_all(n={n})"),
            n,
            graph: b.build(),
            rounds: 1,
        }
    }

    /// Binary-tree broadcast from process 0 to all `n` (heap order): `lg n`
    /// rounds, one message per tree edge.
    pub fn broadcast(n: usize) -> CommPattern {
        assert!(n >= 2);
        let mut b = MultigraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge((v - 1) / 2, v);
        }
        CommPattern {
            name: format!("broadcast(n={n})"),
            n,
            graph: b.build(),
            rounds: (n as f64).log2().ceil() as u32,
        }
    }

    /// `rounds` random permutations (each process sends one message per
    /// round).
    pub fn random_permutations(n: usize, rounds: u32, seed: u64) -> CommPattern {
        assert!(n >= 2 && rounds >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = MultigraphBuilder::new(n);
        for _ in 0..rounds {
            let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
            perm.shuffle(&mut rng);
            for (u, &v) in perm.iter().enumerate() {
                if u as NodeId != v {
                    b.add_edge(u as NodeId, v);
                }
            }
        }
        CommPattern {
            name: format!("random_permutations(n={n},rounds={rounds})"),
            n,
            graph: b.build(),
            rounds,
        }
    }
}

/// Lemma 8 applied to a pattern on a host: execution-time bounds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatternExecution {
    /// Pattern name.
    pub pattern: String,
    /// Host machine name.
    pub host: String,
    /// Messages in the pattern.
    pub messages: u64,
    /// Flux lower bound on execution ticks: some cut must pass its share.
    pub ticks_lower: f64,
    /// Measured ticks routing the pattern (1-to-1 block assignment).
    pub ticks_measured: u64,
    /// Congestion of the embedding witness (`O(c + Λ)` routing exists).
    pub witness_congestion: u64,
    /// Dilation of the embedding witness.
    pub witness_dilation: u32,
}

impl PatternExecution {
    /// Slowdown relative to the pattern's native round count.
    pub fn slowdown_vs_rounds(&self, rounds: u32) -> f64 {
        self.ticks_measured as f64 / rounds.max(1) as f64
    }
}

/// Execute (route) `pattern` on `host` with processes block-assigned to
/// host processors, and certify a flux lower bound on any execution.
pub fn execute_pattern(
    pattern: &CommPattern,
    host: &Machine,
    cfg: RouterConfig,
    seed: u64,
) -> PatternExecution {
    let m = host.processors();
    assert!(m >= 1, "host has no processors");
    let assign = fcn_multigraph::contiguous_blocks(pattern.n, m);

    // Demands: one packet per message whose endpoints land on different
    // host processors.
    let mut demands: Vec<(NodeId, NodeId)> = Vec::new();
    for e in pattern.graph.edges() {
        let (a, b) = (assign[e.u as usize], assign[e.v as usize]);
        if a != b {
            for i in 0..e.multiplicity {
                // Alternate directions for the paired messages.
                if i % 2 == 0 {
                    demands.push((a, b));
                } else {
                    demands.push((b, a));
                }
            }
        }
    }

    let collapsed = fcn_multigraph::collapse(&pattern.graph, &assign, m);
    let (ticks_measured, witness) = if demands.is_empty() {
        (0, None)
    } else {
        let out = RouteCtx::new(host).route_demands(&demands, Strategy::ShortestPath, seed, cfg);
        assert!(out.completed, "pattern routing incomplete");
        // Embedding witness for the congestion side.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa11);
        let phi: Vec<NodeId> = (0..m as NodeId).collect();
        let stats = embed_shortest_paths(&collapsed.graph, host.graph(), &phi, &mut rng, |_, _| {});
        (out.ticks, Some(stats))
    };

    // Flux lower bound: for each candidate cut of the host, the collapsed
    // pattern mass crossing it over the doubled cut capacity.
    let mut ticks_lower: f64 = 0.0;
    let mut cuts: Vec<Cut> = host.canonical_cuts().to_vec();
    if m >= 2 {
        cuts.push(Cut::prefix(host.node_count(), m / 2));
    }
    for cut in &cuts {
        // Crossing mass of the collapsed pattern (projected to processors).
        let crossing: u64 = collapsed
            .graph
            .edges()
            .filter(|e| e.u != e.v && cut.side[e.u as usize] != cut.side[e.v as usize])
            .map(|e| e.multiplicity as u64)
            .sum();
        let cap = cut.capacity(host.graph()).max(1);
        ticks_lower = ticks_lower.max(crossing as f64 / (2.0 * cap as f64));
    }

    PatternExecution {
        pattern: pattern.name.clone(),
        host: host.name().to_string(),
        messages: pattern.message_count(),
        ticks_lower,
        ticks_measured,
        witness_congestion: witness.map_or(0, |w| w.congestion),
        witness_dilation: witness.map_or(0, |w| w.dilation),
    }
}

/// The pattern-bandwidth view: treat the pattern's multigraph as traffic
/// and certify `β(H, pattern)` from both sides (Theorem 6 applied to an
/// algorithm's traffic rather than the symmetric distribution).
pub fn pattern_bandwidth(pattern: &CommPattern, host: &Machine, seed: u64) -> (f64, f64) {
    assert!(pattern.n <= host.processors());
    // Lower: embedding witness.
    let mut rng = StdRng::seed_from_u64(seed);
    let phi: Vec<NodeId> = (0..pattern.n as NodeId).collect();
    let stats = embed_shortest_paths(&pattern.graph, host.graph(), &phi, &mut rng, |_, _| {});
    let lower = pattern.message_count() as f64 / stats.congestion.max(1) as f64;
    // Upper: flux against the pattern-as-traffic distribution.
    let pairs: Vec<(NodeId, NodeId)> = pattern
        .graph
        .edges()
        .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
        .collect();
    let traffic = Traffic::from_pairs(host.node_count(), pairs);
    let flux = fcn_bandwidth::flux_upper_bound(host, &traffic, seed, 4, 2);
    (lower, flux.rate_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_pattern_counts() {
        let p = CommPattern::fft(4);
        assert_eq!(p.n, 16);
        assert_eq!(p.rounds, 4);
        // n·g/2 pairs, multiplicity 2 each.
        assert_eq!(p.message_count(), 16 * 4);
        assert_eq!(p.graph.max_degree(), 2 * 4);
    }

    #[test]
    fn odd_even_sort_counts() {
        let p = CommPattern::odd_even_sort(8);
        // Rounds alternate 4 and 3 pairs; 8 rounds -> 4*4 + 4*3 = 28 pairs,
        // x2 messages.
        assert_eq!(p.message_count(), 56);
        assert_eq!(p.rounds, 8);
    }

    #[test]
    fn stencil_counts() {
        let p = CommPattern::stencil2d(4, 3);
        // 2*4*3 = 24 undirected grid edges, 2 messages * 3 steps each.
        assert_eq!(p.message_count(), 24 * 6);
    }

    #[test]
    fn broadcast_is_a_tree() {
        let p = CommPattern::broadcast(15);
        assert_eq!(p.message_count(), 14);
        assert!(p.graph.is_connected());
    }

    #[test]
    fn random_permutations_deterministic() {
        let a = CommPattern::random_permutations(16, 3, 9);
        let b = CommPattern::random_permutations(16, 3, 9);
        assert_eq!(a.graph, b.graph);
        assert!(a.message_count() <= 3 * 16);
        assert!(a.message_count() >= 2 * 16); // few fixed points
    }

    #[test]
    fn fft_on_linear_array_is_slow() {
        // The FFT pattern has bandwidth ~ n·g / lg... executing it on a
        // same-size linear array must take Ω(n) ticks (bisection 1).
        let p = CommPattern::fft(5); // n = 32
        let host = Machine::linear_array(32);
        let ex = execute_pattern(&p, &host, RouterConfig::default(), 3);
        assert!(ex.ticks_lower >= 16.0, "lower {}", ex.ticks_lower);
        assert!(ex.ticks_measured as f64 >= ex.ticks_lower);
    }

    #[test]
    fn fft_on_hypercube_is_fast() {
        // On the weak hypercube the same pattern runs in O(g · n/cap) —
        // much faster than on the array.
        let p = CommPattern::fft(5);
        let cube = Machine::weak_hypercube(5);
        let array = Machine::linear_array(32);
        let ex_cube = execute_pattern(&p, &cube, RouterConfig::default(), 3);
        let ex_array = execute_pattern(&p, &array, RouterConfig::default(), 3);
        assert!(
            (ex_cube.ticks_measured as f64) < 0.5 * ex_array.ticks_measured as f64,
            "cube {} array {}",
            ex_cube.ticks_measured,
            ex_array.ticks_measured
        );
    }

    #[test]
    fn stencil_on_matching_mesh_is_cheap() {
        let p = CommPattern::stencil2d(8, 2);
        let host = Machine::mesh(2, 8);
        let ex = execute_pattern(&p, &host, RouterConfig::default(), 5);
        // Identity placement: each wire carries its own few messages.
        assert!(
            ex.ticks_measured <= 8 * p.rounds as u64 + 16,
            "{}",
            ex.ticks_measured
        );
    }

    #[test]
    fn pattern_bandwidth_sandwich_is_ordered() {
        let p = CommPattern::fft(4);
        let host = Machine::mesh(2, 4);
        let (lower, upper) = pattern_bandwidth(&p, &host, 7);
        assert!(lower > 0.0);
        assert!(lower <= upper * 1.5, "lower {lower} upper {upper}");
    }

    #[test]
    fn smaller_hosts_collapse_messages() {
        let p = CommPattern::all_to_all(16);
        let host = Machine::mesh(2, 2);
        let ex = execute_pattern(&p, &host, RouterConfig::default(), 9);
        assert!(ex.messages >= 16 * 15);
        assert!(ex.ticks_measured > 0);
    }
}
