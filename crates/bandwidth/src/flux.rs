//! Flux (cut) upper bounds on bandwidth — the certified side of `β`.
//!
//! "A simple flux argument gives the lower bound [on routing time] as Ω(c)
//! since at most one message crosses an edge per tick": if a fraction `f` of
//! traffic must cross a cut of capacity `cap`, no router exceeds rate
//! `cap/f`. We take the best (lowest) bound over the machine's canonical
//! cuts and a pool of generated-and-improved cuts.
//!
//! Node send capacities also yield flux bounds: all traffic into/out of a
//! capacitated node set is throttled by the set's total send capacity (this
//! is what certifies β = Θ(1) for the global bus, whose *wire* cuts are
//! wide).

use fcn_multigraph::{best_flux_bound, CutStats, Traffic};
use fcn_topology::Machine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A certified upper bound on delivery rate, with its witness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FluxBound {
    /// The bound: no schedule delivers faster than this (messages/tick).
    pub rate_bound: f64,
    /// Statistics of the witnessing cut (absent for node-capacity bounds).
    pub cut_stats: Option<CutStats>,
    /// Human-readable witness description.
    pub witness: String,
}

/// Best flux upper bound for `machine` under `traffic`.
///
/// Considers: (1) the machine's canonical cuts, (2) generated/improved cuts
/// (`random_seeds`, `improve_sweeps` as in
/// [`fcn_multigraph::best_flux_bound`]), and (3) the node-capacity bound for
/// weak machines. Timed as the `flux` telemetry span.
pub fn flux_upper_bound(
    machine: &Machine,
    traffic: &Traffic,
    seed: u64,
    random_seeds: usize,
    improve_sweeps: usize,
) -> FluxBound {
    let _span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_FLUX);
    let g = machine.graph();
    let mut best: Option<FluxBound> = None;
    let mut consider = |cand: FluxBound| {
        if best.as_ref().is_none_or(|b| cand.rate_bound < b.rate_bound) {
            best = Some(cand);
        }
    };

    // Traffic lives on processors; machine cuts cover all nodes, so lift
    // it to the full vertex set (auxiliary nodes send/receive nothing).
    let padded = traffic.padded(machine.node_count());

    // Canonical cuts.
    for (i, cut) in machine.canonical_cuts().iter().enumerate() {
        if let Some(stats) = cut.stats(g, &padded) {
            consider(FluxBound {
                rate_bound: stats.rate_bound,
                cut_stats: Some(stats),
                witness: format!("canonical cut #{i}"),
            });
        }
    }

    // Generated cuts on the full graph.
    let mut rng = StdRng::seed_from_u64(seed);
    if let Some((stats, _)) = best_flux_bound(g, &padded, &mut rng, random_seeds, improve_sweeps) {
        consider(FluxBound {
            rate_bound: stats.rate_bound,
            cut_stats: Some(stats),
            witness: "generated cut".to_string(),
        });
    }

    // Distance bound (the paper's second constraint, Lemma 10's dual): each
    // delivery consumes at least d(s,t) wire-slots and the machine offers
    // 2·E(G) slots per tick, so rate ≤ 2·E / avg-distance(traffic). This is
    // the bound that caps expanders and shuffle-exchanges at Θ(n/lg n),
    // where no small cut exists. For machines whose *nodes* are capacitated
    // (weak hypercube), the per-tick slot supply is the total send capacity
    // instead of the wire count. All sampled pairs are drawn before the
    // distance kernel runs; it draws no randomness of its own.
    {
        let samples = 2000usize;
        let pairs: Vec<_> = (0..samples).map(|_| traffic.sample(&mut rng)).collect();
        let d_sum = fcn_multigraph::pair_distance_sum(g, &pairs);
        let avg_d = (d_sum as f64 / samples as f64).max(1.0);
        consider(FluxBound {
            rate_bound: 2.0 * g.simple_edge_count() as f64 / avg_d,
            cut_stats: None,
            witness: format!("distance bound (avg d = {avg_d:.2})"),
        });
        if machine.has_node_capacities() {
            let slots: f64 = (0..machine.node_count())
                .map(|u| machine.send_capacity(u as u32) as u64)
                .map(|c| if c == u32::MAX as u64 { 0 } else { c })
                .sum::<u64>() as f64;
            let uncapped =
                (0..machine.node_count()).any(|u| machine.send_capacity(u as u32) == u32::MAX);
            if !uncapped && slots > 0.0 {
                consider(FluxBound {
                    rate_bound: slots / avg_d,
                    cut_stats: None,
                    witness: format!("capacitated distance bound (avg d = {avg_d:.2})"),
                });
            }
        }
    }

    // Node-capacity bound: every delivery consumes at least one send from a
    // finite-capacity node lying on its path. For the machines we model
    // (bus: all paths cross the hub; weak hypercube: sources are
    // capacitated), total capacity of capacitated nodes bounds the rate
    // whenever every message's path must touch one. We apply it only when
    // *all* nodes are capacitated or the capacitated set is a cut between
    // all processor pairs (the bus hub).
    if machine.has_node_capacities() {
        let caps: Vec<u64> = (0..machine.node_count())
            .map(|u| machine.send_capacity(u as u32) as u64)
            .collect();
        let finite: Vec<usize> = caps
            .iter()
            .enumerate()
            .filter(|(_, &c)| c < u32::MAX as u64)
            .map(|(u, _)| u)
            .collect();
        let all_processors_capped = (0..machine.processors()).all(|u| caps[u] < u32::MAX as u64);
        let aux_hub = finite.len() == 1 && finite[0] >= machine.processors();
        if all_processors_capped {
            // Each delivered message consumed >= 1 send at its source.
            let total: u64 = (0..machine.processors()).map(|u| caps[u]).sum();
            consider(FluxBound {
                rate_bound: total as f64,
                cut_stats: None,
                witness: "aggregate node send capacity".to_string(),
            });
        } else if aux_hub {
            let hub_cap = caps[finite[0]];
            consider(FluxBound {
                rate_bound: hub_cap as f64,
                cut_stats: None,
                witness: "bus hub capacity".to_string(),
            });
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "the distance-bound candidate is considered unconditionally above, so `best` is always Some"
    )]
    best.expect("at least one flux bound always exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_topology::Machine;

    fn bound(machine: &Machine) -> FluxBound {
        flux_upper_bound(machine, &machine.symmetric_traffic(), 1, 4, 2)
    }

    #[test]
    fn linear_array_bound_is_constant() {
        for n in [32, 128] {
            let b = bound(&Machine::linear_array(n));
            assert!(b.rate_bound <= 5.0, "n={n}: {}", b.rate_bound);
        }
    }

    #[test]
    fn tree_bound_is_constant() {
        let b = bound(&Machine::tree(6));
        assert!(b.rate_bound <= 6.0, "{}", b.rate_bound);
    }

    #[test]
    fn mesh_bound_scales_like_sqrt_n() {
        let b8 = bound(&Machine::mesh(2, 8)).rate_bound;
        let b16 = bound(&Machine::mesh(2, 16)).rate_bound;
        let ratio = b16 / b8;
        assert!(ratio > 1.5 && ratio < 2.6, "ratio {ratio}");
    }

    #[test]
    fn bus_bound_comes_from_hub_capacity() {
        let b = bound(&Machine::global_bus(32));
        assert_eq!(b.rate_bound, 1.0);
        assert_eq!(b.witness, "bus hub capacity");
    }

    #[test]
    fn weak_hypercube_bound_at_most_n() {
        let b = bound(&Machine::weak_hypercube(5));
        assert!(b.rate_bound <= 32.0 + 1e-9);
    }

    #[test]
    fn butterfly_bound_tracks_rows() {
        // Canonical cut: 2^g capacity, crossing fraction ~1/2 ⇒ bound ~2^{g+1}.
        let b = bound(&Machine::butterfly(4));
        assert!(b.rate_bound <= 4.4 * 16.0, "{}", b.rate_bound);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn distance_bound_rejects_a_disconnected_machine() {
        // `Machine::custom` refuses a disconnected graph only in debug
        // builds, and a deserialized machine skips the constructor. Splice
        // a two-component graph into a path's JSON to get one.
        let path = Machine::linear_array(6);
        let split = fcn_multigraph::Multigraph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let json = serde_json::to_string(&path).unwrap().replacen(
            &serde_json::to_string(path.graph()).unwrap(),
            &serde_json::to_string(&split).unwrap(),
            1,
        );
        let machine: Machine = serde_json::from_str(&json).unwrap();
        assert!(!machine.graph().is_connected());
        let _ = bound(&machine);
    }

    #[test]
    fn flux_upper_bounds_measured_rate() {
        // Soundness: measured rate never exceeds the certified bound.
        use fcn_routing::{measure_rate, RouterConfig, Strategy};
        for m in [Machine::mesh(2, 8), Machine::de_bruijn(4), Machine::tree(4)] {
            let t = m.symmetric_traffic();
            let fb = flux_upper_bound(&m, &t, 3, 4, 2);
            let s = measure_rate(
                &m,
                &t,
                8 * t.n(),
                Strategy::ShortestPath,
                RouterConfig::default(),
                17,
            );
            assert!(s.completed);
            assert!(
                s.rate <= fb.rate_bound * 1.0 + 1e-9,
                "{}: measured {} > bound {}",
                m.name(),
                s.rate,
                fb.rate_bound
            );
        }
    }
}
