//! Theorem 6: the graph-theoretic bandwidth equals the operational one.
//!
//! "Let `G` be a network graph of a machine with n processors. The maximum
//! expected message delivery rate under traffic distribution `T` is
//! `Θ(E(T)/C(G,T))`" — the paper's bridge between the operational
//! definition (what the router measures) and the graph-theoretic one
//! (embedding congestion). This module makes both directions executable:
//!
//! * [`embedding_lower_bound`] — a constructed embedding of the traffic
//!   multigraph certifies `β ≥ E(T)/c(witness)` (the universal O(c + Λ)
//!   router of Leighton–Maggs–Rao realizes it up to constants; our
//!   `RandomRank` discipline approximates that scheduler);
//! * [`theorem6_sandwich`] — combines it with the flux upper bound and the
//!   measured rate into a three-sided certificate, and checks the theorem's
//!   claim that all three agree within constants.

use fcn_multigraph::{embed_shortest_paths, NodeId, Traffic};
use fcn_routing::{measure_rate, RouterConfig, Strategy};
use fcn_topology::Machine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::flux::flux_upper_bound;

/// A certified lower bound on β from an explicit embedding witness.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EmbeddingBound {
    /// `E(T)`: total traffic edge mass embedded.
    pub traffic_edges: u64,
    /// Congestion of the witness embedding.
    pub congestion: u64,
    /// Dilation of the witness (enters the O(c + Λ) routing time).
    pub dilation: u32,
    /// `E(T)/c`: no *better* embedding exists than the optimum, so the true
    /// graph-theoretic bandwidth is at least this.
    pub beta_lower: f64,
}

/// Embed the traffic multigraph of `traffic` into `machine` along
/// randomized shortest paths and report the implied bandwidth lower bound.
///
/// Only materializes the traffic multigraph, so use moderate `n` for the
/// symmetric distribution (`Θ(n²)` edges).
///
/// # Panics
/// Panics if the traffic population exceeds the machine.
pub fn embedding_lower_bound(machine: &Machine, traffic: &Traffic, seed: u64) -> EmbeddingBound {
    let t_graph = traffic.to_multigraph();
    let mut rng = StdRng::seed_from_u64(seed);
    let phi: Vec<NodeId> = (0..t_graph.node_count() as NodeId).collect();
    let stats = embed_shortest_paths(&t_graph, machine.graph(), &phi, &mut rng, |_, _| {});
    EmbeddingBound {
        traffic_edges: t_graph.simple_edge_count(),
        congestion: stats.congestion,
        dilation: stats.dilation,
        beta_lower: t_graph.simple_edge_count() as f64 / stats.congestion.max(1) as f64,
    }
}

/// The three-sided Theorem 6 certificate for one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Theorem6Certificate {
    /// Machine instance name.
    pub machine: String,
    /// Processor count.
    pub n: usize,
    /// Embedding-certified lower bound `E(T)/c`.
    pub embedding_lower: f64,
    /// Router-measured rate (achievable, so also a lower bound — and
    /// Theorem 6 says it reaches the graph-theoretic value up to constants).
    pub measured: f64,
    /// Flux-certified upper bound.
    pub flux_upper: f64,
}

impl Theorem6Certificate {
    /// Theorem 6's content at finite size: upper/lower within a constant.
    pub fn sandwich_ratio(&self) -> f64 {
        self.flux_upper / self.embedding_lower.max(f64::MIN_POSITIVE)
    }

    /// Internal consistency: lower ≤ measured·slack and measured ≤ upper.
    pub fn is_consistent(&self, slack: f64) -> bool {
        self.measured <= self.flux_upper * (1.0 + 1e-9)
            && self.embedding_lower <= self.measured * slack
    }
}

/// Compute the full certificate under symmetric traffic.
pub fn theorem6_sandwich(
    machine: &Machine,
    messages_per_proc: usize,
    seed: u64,
) -> Theorem6Certificate {
    let traffic = machine.symmetric_traffic();
    let emb = embedding_lower_bound(machine, &traffic, seed);
    let flux = flux_upper_bound(machine, &traffic, seed, 4, 2);
    let measured = measure_rate(
        machine,
        &traffic,
        messages_per_proc * traffic.n(),
        Strategy::ShortestPath,
        RouterConfig::default(),
        seed,
    );
    assert!(measured.completed, "routing incomplete");
    Theorem6Certificate {
        machine: machine.name().to_string(),
        n: machine.processors(),
        embedding_lower: emb.beta_lower,
        measured: measured.rate,
        flux_upper: flux.rate_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_bound_on_linear_array() {
        let m = Machine::linear_array(32);
        let b = embedding_lower_bound(&m, &m.symmetric_traffic(), 1);
        // K_n into a path: congestion ~ n²/2 at the middle edge; E = n(n-1).
        assert!(b.beta_lower > 0.5 && b.beta_lower < 8.0, "{}", b.beta_lower);
        assert_eq!(b.dilation, 31);
    }

    #[test]
    fn embedding_bound_scales_on_meshes() {
        let b8 = embedding_lower_bound(&Machine::mesh(2, 8), &Traffic::symmetric(64), 2);
        let b16 = embedding_lower_bound(&Machine::mesh(2, 16), &Traffic::symmetric(256), 2);
        let ratio = b16.beta_lower / b8.beta_lower;
        assert!(ratio > 1.5 && ratio < 2.7, "ratio {ratio}");
    }

    #[test]
    fn certificates_are_consistent() {
        for m in [
            Machine::mesh(2, 8),
            Machine::tree(4),
            Machine::de_bruijn(5),
            Machine::xtree(4),
        ] {
            let c = theorem6_sandwich(&m, 8, 5);
            assert!(c.is_consistent(4.0), "{}: {c:?}", m.name());
            // Theorem 6: the sandwich closes within a moderate constant.
            assert!(
                c.sandwich_ratio() < 16.0,
                "{}: sandwich ratio {}",
                m.name(),
                c.sandwich_ratio()
            );
        }
    }

    #[test]
    fn measured_rate_within_constant_of_embedding_bound() {
        // The operational side reaches the graph-theoretic value up to a
        // constant (the O(c + Λ) routing theorem).
        let m = Machine::mesh(2, 8);
        let c = theorem6_sandwich(&m, 8, 7);
        let ratio = c.measured / c.embedding_lower;
        assert!(ratio > 0.25 && ratio < 8.0, "ratio {ratio}");
    }
}
