//! `embed_shortest_paths` pinned to the statistics recorded when every
//! guest edge's host path was still stored and its loads recounted after
//! the walk: K_n into seven machines (the Theorem 6 and Lemma 9 congestion
//! witness) and K_64 into a 4×4 mesh through a many-to-one φ. Each pin is
//! the `Debug` string, so `avg_dilation` is held to its exact bits.

use fcn_multigraph::{contiguous_blocks, embed_shortest_paths, NodeId, Traffic};
use fcn_topology::Machine;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn stats(m: &Machine, guest_n: usize, phi: &[NodeId]) -> String {
    let kn = Traffic::symmetric(guest_n).to_multigraph();
    let mut rng = StdRng::seed_from_u64(7);
    format!(
        "{:?}",
        embed_shortest_paths(&kn, m.graph(), phi, &mut rng, |_, _| {})
    )
}

#[test]
fn kn_witnesses_match_recorded_stats() {
    let pins = [
        (
            Machine::mesh(2, 8),
            "congestion: 528, dilation: 14, avg_dilation: 5.333333333333333, total_load: 21504",
        ),
        (
            Machine::mesh(2, 16),
            "congestion: 3728, dilation: 30, avg_dilation: 10.666666666666666, total_load: 696320",
        ),
        (
            Machine::de_bruijn(6),
            "congestion: 184, dilation: 6, avg_dilation: 3.453373015873016, total_load: 13924",
        ),
        (
            Machine::tree(5),
            "congestion: 1984, dilation: 10, avg_dilation: 6.58678955453149, total_load: 25728",
        ),
        (
            Machine::butterfly(3),
            "congestion: 112, dilation: 6, avg_dilation: 3.4516129032258065, total_load: 3424",
        ),
        (
            Machine::xtree(4),
            "congestion: 224, dilation: 7, avg_dilation: 3.4, total_load: 3162",
        ),
        (
            Machine::global_bus(16),
            "congestion: 30, dilation: 2, avg_dilation: 2.0, total_load: 480",
        ),
    ];
    for (m, pin) in pins {
        let phi: Vec<NodeId> = (0..m.processors() as NodeId).collect();
        assert_eq!(
            stats(&m, m.processors(), &phi),
            format!("EmbeddingStats {{ {pin} }}"),
            "{}",
            m.name()
        );
    }
}

#[test]
fn many_to_one_witness_matches_recorded_stats() {
    let m = Machine::mesh(2, 4);
    assert_eq!(
        stats(&m, 64, &contiguous_blocks(64, 16)),
        "EmbeddingStats { congestion: 832, dilation: 6, avg_dilation: 2.5396825396825395, total_load: 10240 }"
    );
}
