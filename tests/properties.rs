//! Property-based tests (proptest) over the core data structures and
//! invariants: exact rational algebra, growth-expression algebra, multigraph
//! accounting, BFS metrics, cuts, embeddings, traffic sampling, and router
//! conservation laws.

use fcn_emu::asymptotics::{invert_monotone, Asym, Rational};
use fcn_emu::multigraph::{
    bfs_distances, bfs_parents, collapse, contiguous_blocks, path_from_parents, Cut, Embedding,
    Multigraph, MultigraphBuilder, NodeId, Traffic,
};
use fcn_emu::routing::{
    route_compiled_pooled, CompiledNet, PacketBatch, PacketPath, PathOracle, QueueDiscipline,
    RouterConfig, Strategy as RouteStrategy,
};
use proptest::prelude::*;

// ---------- generators ----------

/// A random connected graph: a random tree plus extra random edges.
fn connected_graph() -> impl Strategy<Value = Multigraph> {
    (2usize..40, proptest::collection::vec(any::<u32>(), 0..60)).prop_map(|(n, extras)| {
        let mut b = MultigraphBuilder::new(n);
        // Random-ish tree from deterministic mixing of the extras.
        for v in 1..n {
            let parent = if extras.is_empty() {
                v - 1
            } else {
                (extras[v % extras.len()] as usize) % v
            };
            b.add_edge(parent as NodeId, v as NodeId);
        }
        for (i, &e) in extras.iter().enumerate() {
            let u = (e as usize) % n;
            let v = ((e as usize) / n + i) % n;
            if u != v {
                b.add_edge(u as NodeId, v as NodeId);
            }
        }
        b.build()
    })
}

fn rational() -> impl Strategy<Value = Rational> {
    (-40i64..40, 1i64..12).prop_map(|(p, q)| Rational::new(p, q))
}

fn asym() -> impl Strategy<Value = Asym> {
    // Exponents kept small enough that products of two expressions stay
    // finite in f64 at the evaluated sizes (n < 10^6, |pow_n| ≤ 8 each).
    let small = (-48i64..48, 1i64..7).prop_map(|(p, q)| Rational::new(p.clamp(-8 * q, 8 * q), q));
    (small.clone(), small, 1u32..50).prop_map(|(pn, pl, c)| {
        Asym::one()
            .with_pow_n(pn)
            .with_pow_lg(pl)
            .with_coeff(c as f64 / 7.0)
    })
}

// ---------- rational algebra ----------

proptest! {
    #[test]
    fn rational_add_commutes(a in rational(), b in rational()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rational_add_sub_roundtrip(a in rational(), b in rational()) {
        prop_assert_eq!(a + b - b, a);
    }

    #[test]
    fn rational_mul_div_roundtrip(a in rational(), b in rational()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(a * b / b, a);
    }

    #[test]
    fn rational_order_respects_addition(a in rational(), b in rational(), c in rational()) {
        if a < b {
            prop_assert!(a + c < b + c);
        }
    }

    #[test]
    fn rational_to_f64_is_monotone(a in rational(), b in rational()) {
        if a < b {
            prop_assert!(a.to_f64() <= b.to_f64());
        }
    }
}

// ---------- growth expressions ----------

proptest! {
    #[test]
    fn asym_eval_is_multiplicative(a in asym(), b in asym(), n in 4u32..1_000_000) {
        let n = n as f64;
        let lhs = (a * b).eval(n);
        let rhs = a.eval(n) * b.eval(n);
        prop_assert!((lhs - rhs).abs() <= 1e-6 * lhs.abs().max(rhs.abs()).max(1e-300));
    }

    #[test]
    fn asym_recip_inverts_eval(a in asym(), n in 4u32..1_000_000) {
        let n = n as f64;
        let prod = a.eval(n) * a.recip().eval(n);
        prop_assert!((prod - 1.0).abs() < 1e-6, "prod {prod}");
    }

    #[test]
    fn asym_growth_order_matches_eval_at_huge_n(a in asym(), b in asym()) {
        use std::cmp::Ordering;
        // Compare in log space at ln n = 1e7, far beyond any crossover the
        // generator's exponent ranges allow (min pow_n gap 1/144 beats the
        // max lg-exponent gap 80 at ln lg n ≈ 16.5). f64 can't represent
        // such n directly, so evaluate ln f = ln c + a·ln n + b·ln lg n.
        prop_assume!(a.pow_n != b.pow_n);
        let ln_n = 1e7f64;
        let ln_lg = (ln_n / std::f64::consts::LN_2).ln();
        let lnf = |x: &Asym| {
            x.coeff.ln() + x.pow_n.to_f64() * ln_n + x.pow_lg.to_f64() * ln_lg
        };
        match a.cmp_growth(&b) {
            Ordering::Less => prop_assert!(lnf(&a) < lnf(&b)),
            Ordering::Greater => prop_assert!(lnf(&a) > lnf(&b)),
            Ordering::Equal => {}
        }
    }

    #[test]
    fn invert_monotone_finds_roots(exp in 1u32..4, target in 2.0f64..1e6) {
        let f = |x: f64| x.powi(exp as i32);
        let x = invert_monotone(1.0, 1e9, target, f);
        prop_assert!((f(x) - target).abs() / target < 1e-6);
    }
}

// ---------- multigraph accounting ----------

proptest! {
    #[test]
    fn degree_sum_is_twice_edge_mass(g in connected_graph()) {
        let total: u64 = (0..g.node_count() as NodeId).map(|u| g.degree(u)).sum();
        prop_assert_eq!(total, 2 * g.simple_edge_count());
    }

    #[test]
    fn scaling_multiplies_edge_mass(g in connected_graph(), x in 1u32..9) {
        prop_assert_eq!(g.scaled(x).simple_edge_count(), g.simple_edge_count() * x as u64);
    }

    #[test]
    fn collapse_preserves_edge_mass(g in connected_graph(), m in 1usize..10) {
        let n = g.node_count();
        let m = m.min(n);
        let r = collapse(&g, &contiguous_blocks(n, m), m);
        prop_assert_eq!(r.graph.simple_edge_count(), g.simple_edge_count());
        prop_assert_eq!(r.loads.iter().sum::<u32>() as usize, n);
    }

    #[test]
    fn cut_capacity_at_most_edge_mass(g in connected_graph(), k in 1usize..39) {
        let n = g.node_count();
        prop_assume!(k < n);
        let cut = Cut::prefix(n, k);
        prop_assert!(cut.capacity(&g) <= g.simple_edge_count());
    }

    #[test]
    fn crossing_fraction_is_a_probability(g in connected_graph(), k in 1usize..39) {
        let n = g.node_count();
        prop_assume!(k < n && n >= 2);
        let t = Traffic::symmetric(n);
        let cut = Cut::prefix(n, k);
        let f = t.crossing_fraction(&cut.side);
        prop_assert!((0.0..=1.0).contains(&f));
        if let Some(stats) = cut.stats(&g, &t) {
            prop_assert!(stats.rate_bound > 0.0);
        }
    }
}

// ---------- BFS metrics ----------

proptest! {
    #[test]
    fn bfs_satisfies_triangle_inequality(g in connected_graph(), seeds in any::<u32>()) {
        let n = g.node_count() as u32;
        let u = (seeds % n) as NodeId;
        let v = ((seeds / n) % n) as NodeId;
        let du = bfs_distances(&g, u);
        let dv = bfs_distances(&g, v);
        for w in 0..n as usize {
            prop_assert!(du[w] <= du[v as usize] + dv[w]);
        }
    }

    #[test]
    fn bfs_paths_have_bfs_lengths(g in connected_graph(), seed in any::<u32>()) {
        let n = g.node_count() as u32;
        let src = (seed % n) as NodeId;
        let (dist, parent) = bfs_parents(&g, src);
        for dst in 0..n {
            let p = path_from_parents(&parent, src, dst).unwrap();
            prop_assert_eq!(p.len() as u32 - 1, dist[dst as usize]);
            for w in p.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }
}

// ---------- embeddings ----------

proptest! {
    #[test]
    fn shortest_path_embeddings_validate(g in connected_graph(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let n = g.node_count();
        // Guest: a ring on the same vertex count.
        let guest = Multigraph::from_edges(
            n,
            (0..n as NodeId).map(|i| (i, (i + 1) % n as NodeId)),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let emb = Embedding::shortest_paths(&guest, &g, (0..n as NodeId).collect(), &mut rng);
        prop_assert!(emb.validate(&g).is_ok());
        let stats = emb.stats();
        // Dilation bounded by host diameter.
        let max_d = (0..n as NodeId)
            .map(|u| bfs_distances(&g, u).into_iter().max().unwrap())
            .max()
            .unwrap();
        prop_assert!(stats.dilation <= max_d);
    }
}

// ---------- traffic and routing conservation ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn traffic_samples_are_valid(n in 2usize..60, seed in any::<u64>()) {
        use rand::SeedableRng;
        let t = Traffic::symmetric(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let (u, v) = t.sample(&mut rng);
            prop_assert!(u != v);
            prop_assert!((u as usize) < n && (v as usize) < n);
        }
    }

    /// Conservation, plus the congestion/dilation floor: no schedule beats
    /// `max(C, D)`, where C is the most ticks any wire or send budget needs
    /// for its load alone and D the longest route. Scaled multigraphs and
    /// per-node send budgets send runs through the budgeted node loop;
    /// unscaled, unbudgeted priority runs take the wire loop.
    #[test]
    fn router_conserves_packets_and_hops(
        g in connected_graph(),
        seed in any::<u64>(),
        scale in 1u32..4,
        budget in 0u32..4,
        pick in 0usize..3,
    ) {
        use fcn_emu::topology::{Family, Machine, SendCapacity};
        let n = g.node_count();
        // Budget 0 stands for no send budget at all.
        let send = match budget {
            0 => SendCapacity::Unlimited,
            b => SendCapacity::PerNode(vec![b; n]),
        };
        let discipline = [
            QueueDiscipline::Fifo,
            QueueDiscipline::FarthestFirst,
            QueueDiscipline::RandomRank,
        ][pick];
        let machine = Machine::custom(
            Family::Expander,
            "prop".into(),
            g.scaled(scale),
            n,
            send,
            vec![],
        );
        let mut oracle = PathOracle::new(machine.graph(), seed);
        let traffic = Traffic::symmetric(n);
        let demands: Vec<_> = {
            let rng = oracle.rng();
            (0..2 * n).map(|_| traffic.sample(rng)).collect()
        };
        let routes = oracle.routes(&demands, RouteStrategy::ShortestPath);
        let expected_hops: u64 = routes.iter().map(|r| r.hops() as u64).sum();
        let max_hops = routes.iter().map(PacketPath::hops).max().unwrap_or(0) as u64;
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &routes).expect("oracle routes are walks");
        let cfg = RouterConfig { discipline, ..RouterConfig::default() };
        let out = route_compiled_pooled(&net, &batch, cfg);
        prop_assert!(out.completed);
        prop_assert_eq!(out.delivered, 2 * n);
        prop_assert_eq!(out.total_hops, expected_hops);
        // Time at least the longest path, at most total hops (full serialization).
        prop_assert!(out.ticks >= max_hops);
        prop_assert!(out.ticks <= expected_hops.max(1));
        // Congestion: a wire of multiplicity m moves at most m packets a
        // tick, and a node at most its send budget.
        let mut wire_load = vec![0u64; net.wire_count()];
        let mut node_sends = vec![0u64; n];
        for i in 0..batch.len() {
            for &w in batch.wires(i) {
                wire_load[w as usize] += 1;
                node_sends[net.wire_tail(w) as usize] += 1;
            }
        }
        let wire_c = (0..net.wire_count() as u32).map(|w| {
            let cap = machine.graph().multiplicity(net.wire_tail(w), net.wire_head(w));
            wire_load[w as usize].div_ceil(cap as u64)
        });
        let node_c = (0..n as u32).map(|u| {
            node_sends[u as usize].div_ceil(machine.send_capacity(u) as u64)
        });
        let congestion = wire_c.chain(node_c).max().unwrap_or(0);
        prop_assert!(
            out.ticks >= congestion.max(max_hops),
            "ticks {} below max(C = {congestion}, D = {max_hops})",
            out.ticks
        );
    }
}
