//! Cross-crate validation of the proof pipeline: Lemma 9 (cone witness) →
//! Lemma 11 (collapse preservation) → Lemma 8 (flux/time bound), composed
//! the way the Efficient Emulation Theorem composes them.

use fcn_emu::core::{build_witness, collapse_preservation, Circuit, Lemma9Config};
use fcn_emu::multigraph::{contiguous_blocks, Traffic};
use fcn_emu::prelude::*;

#[test]
fn lemma9_constants_stable_across_families() {
    // The preservation and congestion constants must stay in narrow bands
    // across different guest families — the lemma is family-agnostic.
    for machine in [
        Machine::ring(16),
        Machine::mesh(2, 5),
        Machine::tree(3),
        Machine::de_bruijn(4),
        Machine::xtree(3),
    ] {
        let w = build_witness(machine.graph(), Lemma9Config::default());
        assert!(
            w.preservation_ratio() > 0.05,
            "{}: preservation {}",
            machine.name(),
            w.preservation_ratio()
        );
        assert!(
            w.congestion_ratio() < 8.0,
            "{}: congestion ratio {}",
            machine.name(),
            w.congestion_ratio()
        );
        assert!(w.gamma_density() > 0.005, "{}: density", machine.name());
    }
}

#[test]
fn lemma9_alpha_tradeoff() {
    // Larger α ⇒ deeper circuit ⇒ more S-levels and γ-edges.
    let m = Machine::mesh(2, 5);
    let w1 = build_witness(
        m.graph(),
        Lemma9Config {
            alpha: 0.5,
            seed: 1,
        },
    );
    let w2 = build_witness(
        m.graph(),
        Lemma9Config {
            alpha: 2.0,
            seed: 1,
        },
    );
    assert!(w2.t > w1.t);
    assert!(w2.gamma_edges > w1.gamma_edges);
    assert!(w2.s_nodes > w1.s_nodes);
}

#[test]
fn lemma11_composes_with_lemma9_scales() {
    // Collapse a guest graph carrying symmetric traffic onto hosts of
    // several sizes: preservation must hold at every collapse factor.
    let machine = Machine::mesh(2, 8);
    let n = machine.graph().node_count();
    let gamma = Traffic::symmetric(n);
    for m in [4usize, 8, 16, 32] {
        let assign = contiguous_blocks(n, m);
        let r = collapse_preservation(machine.graph(), &gamma, &assign, m, 3);
        assert!(
            r.preservation_ratio() > 0.4,
            "m={m}: ratio {}",
            r.preservation_ratio()
        );
        // K_{n/k, O(k²)} multiplicity cap.
        let k = r.max_load as u64;
        assert!(
            r.max_pair_multiplicity <= 2 * k * k,
            "m={m}: mult {} vs k² {}",
            r.max_pair_multiplicity,
            k * k
        );
    }
}

#[test]
fn circuit_of_every_small_family_validates() {
    for machine in [
        Machine::ring(8),
        Machine::mesh(2, 3),
        Machine::tree(2),
        Machine::de_bruijn(3),
    ] {
        let c = Circuit::nonredundant(machine.graph(), 4);
        c.validate(machine.graph())
            .unwrap_or_else(|e| panic!("{}: {e}", machine.name()));
        assert!(c.is_efficient(1.0));
        let (mg, _) = c.as_multigraph();
        assert!(mg.is_connected());
    }
}

#[test]
fn redundant_circuits_stay_efficient_within_duplicity() {
    let machine = Machine::mesh(2, 4);
    for max_dup in [1u32, 2, 4] {
        let c = Circuit::redundant_random(machine.graph(), 6, max_dup, 11);
        c.validate(machine.graph()).unwrap();
        assert!(
            c.is_efficient(max_dup as f64),
            "dup {max_dup}: {} nodes",
            c.node_count()
        );
    }
}

#[test]
fn flux_time_bound_lemma8_composition() {
    // Lemma 8: executing a pattern C with bandwidth β(C,π) on H takes
    // T ≥ β(C,π)/β(H,π) per unit. Executable version: route the pattern on
    // the host, compare measured ticks with E(C)/flux-bound.
    use fcn_emu::bandwidth::flux_upper_bound;
    use fcn_emu::routing::{measure_rate, RouterConfig, Strategy};

    let host = Machine::mesh(2, 4);
    let traffic = host.symmetric_traffic();
    let messages = 32 * traffic.n();
    let out = measure_rate(
        &host,
        &traffic,
        messages,
        Strategy::ShortestPath,
        RouterConfig::default(),
        13,
    );
    assert!(out.completed);
    let flux = flux_upper_bound(&host, &traffic, 1, 4, 2);
    let min_ticks = messages as f64 / flux.rate_bound;
    assert!(
        out.ticks as f64 >= min_ticks * 0.99,
        "ticks {} below flux floor {min_ticks}",
        out.ticks
    );
}
