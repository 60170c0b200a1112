//! The closed forms that replace materialized data must agree with it bit
//! for bit: prefix-symmetric traffic against its explicit lexicographic pair
//! list, and the pair-distance searches (bit-parallel, grouped BFS and
//! bidirectional) against one full BFS per source.

use fcn_multigraph::{
    best_flux_bound, bfs_distances, improve_cut, pair_distance_sum, Cut, Multigraph,
    MultigraphBuilder, NodeId, Traffic,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random connected multigraph on `n` vertices: a spanning tree, then
/// extra edges that may repeat (multi-edges) or close on themselves
/// (self-loops). Half the graphs are a path with a few chords, whose balls
/// grow slowly as on a mesh; the rest are a random tree with up to `2n`
/// extras, whose balls grow fast as on an expander.
fn connected_multigraph(n: usize, seed: u64) -> Multigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = MultigraphBuilder::new(n);
    let path_like = rng.random_bool(0.5);
    for v in 1..n {
        let parent = if path_like {
            v - 1
        } else {
            rng.random_range(0..v)
        };
        b.add_edge(parent as NodeId, v as NodeId);
    }
    let extras = if path_like {
        n / 32
    } else {
        rng.random_range(0..2 * n)
    };
    for _ in 0..extras {
        let u = rng.random_range(0..n as NodeId);
        let v = if rng.random_bool(0.1) {
            u
        } else {
            rng.random_range(0..n as NodeId)
        };
        b.add_edge_mult(u, v, rng.random_range(1..3u32));
    }
    b.build()
}

/// The explicit pair list `symmetric_on_prefix` used to materialize.
fn lexicographic_prefix(n: usize, m: usize) -> Traffic {
    let mut pairs = Vec::new();
    for u in 0..m as NodeId {
        for v in 0..m as NodeId {
            if u != v {
                pairs.push((u, v));
            }
        }
    }
    Traffic::from_pairs(n, pairs)
}

fn random_side(n: usize, rng: &mut StdRng) -> Vec<bool> {
    let p = rng.random_range(1..10u32) as f64 / 10.0;
    (0..n).map(|_| rng.random_bool(p)).collect()
}

proptest! {
    #[test]
    fn prefix_traffic_matches_its_pair_list(
        n in 2usize..90,
        m_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let m = 2 + (m_pick % (n as u64 - 1)) as usize;
        let closed = Traffic::symmetric_on_prefix(n, m);
        let listed = lexicographic_prefix(n, m);
        prop_assert_eq!(closed.pair_count(), listed.pair_count());

        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for _ in 0..1000 {
            prop_assert_eq!(closed.sample(&mut a), listed.sample(&mut b));
        }

        let g = connected_multigraph(n, seed ^ 0x5eed);
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        for _ in 0..8 {
            let side = random_side(n, &mut rng);
            prop_assert_eq!(
                closed.crossing_fraction(&side).to_bits(),
                listed.crossing_fraction(&side).to_bits()
            );
            let mut cut_closed = Cut { side: side.clone() };
            let mut cut_listed = Cut { side };
            let sweeps = rng.random_range(1..4usize);
            improve_cut(&g, &closed, &mut cut_closed, sweeps);
            improve_cut(&g, &listed, &mut cut_listed, sweeps);
            prop_assert_eq!(&cut_closed, &cut_listed);
            let (sc, sl) = (cut_closed.stats(&g, &closed), cut_listed.stats(&g, &listed));
            prop_assert_eq!(sc, sl);
            if let (Some(sc), Some(sl)) = (sc, sl) {
                prop_assert_eq!(sc.rate_bound.to_bits(), sl.rate_bound.to_bits());
            }
        }

        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let best_closed = best_flux_bound(&g, &closed, &mut a, 3, 2);
        let best_listed = best_flux_bound(&g, &listed, &mut b, 3, 2);
        prop_assert_eq!(&best_closed, &best_listed);
        if let (Some((sc, _)), Some((sl, _))) = (&best_closed, &best_listed) {
            prop_assert_eq!(sc.rate_bound.to_bits(), sl.rate_bound.to_bits());
            prop_assert_eq!(sc.crossing_fraction.to_bits(), sl.crossing_fraction.to_bits());
        }
    }

    #[test]
    fn pair_distance_sum_matches_per_pair_bfs(
        n in 2usize..301,
        seed in any::<u64>(),
        pool in 1usize..301,
        per_source in 1usize..13,
        repeat in 0.0..0.5f64,
        same in 0.0..0.2f64,
    ) {
        let g = connected_multigraph(n, seed);
        let mut rng = StdRng::seed_from_u64(!seed);
        // Up to `pool` distinct sources (more than 64 once both pass 64),
        // `per_source` pairs each on average, some pairs drawn again and
        // some with `s = t`. Path-like graphs and sparse pairs keep the
        // per-source searches (grouped BFS and bidirectional search), and
        // expander-like graphs with four or more pairs per source take the
        // bit-parallel search.
        let sources: Vec<NodeId> = (0..pool.min(n))
            .map(|_| rng.random_range(0..n as NodeId))
            .collect();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..per_source * sources.len() {
            let pair = match pairs.last() {
                Some(&last) if rng.random_bool(repeat) => last,
                _ => {
                    let s = sources[rng.random_range(0..sources.len())];
                    let t = if rng.random_bool(same) {
                        s
                    } else {
                        rng.random_range(0..n as NodeId)
                    };
                    (s, t)
                }
            };
            pairs.push(pair);
        }
        let mut by_source = pairs.clone();
        by_source.sort_unstable();
        let reference: u64 = by_source
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let d = bfs_distances(&g, group[0].0);
                group.iter().map(|&(_, t)| d[t as usize] as u64).sum::<u64>()
            })
            .sum();
        prop_assert_eq!(pair_distance_sum(&g, &pairs), reference);
    }
}

#[test]
fn prefix_traffic_multigraph_is_doubled_prefix_clique() {
    let closed = Traffic::symmetric_on_prefix(9, 5).to_multigraph();
    assert_eq!(closed, lexicographic_prefix(9, 5).to_multigraph());
    assert_eq!(closed.multiplicity(1, 3), 2);
    assert_eq!(closed.multiplicity(4, 5), 0);
}

#[test]
#[should_panic(expected = "disconnected")]
fn pair_distance_sum_rejects_a_lone_disconnected_pair() {
    let g = Multigraph::from_edges(4, [(0, 1), (2, 3)]);
    let _ = pair_distance_sum(&g, &[(0, 3)]);
}

#[test]
#[should_panic(expected = "disconnected")]
fn pair_distance_sum_rejects_a_disconnected_group() {
    // A path 0..=20 plus the edge {21, 22}. The lone pair (0, 20) makes a
    // bidirectional search cost ~21 labels, so source 1's two targets go to
    // one grouped BFS, which cannot reach them.
    let g = Multigraph::from_edges(23, (0..20).map(|v| (v, v + 1)).chain([(21, 22)]));
    let _ = pair_distance_sum(&g, &[(0, 20), (1, 21), (1, 22)]);
}
