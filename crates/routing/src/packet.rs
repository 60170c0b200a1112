//! Packet and route types for the synchronous router.

use fcn_multigraph::NodeId;
use serde::{Deserialize, Serialize};

/// A packet with a fully precomputed route (vertex sequence, endpoints
/// included). Routes are computed by the [`crate::oracle::PathOracle`]
/// before simulation starts; the engine only walks them.
///
/// This is the *planner-facing* representation. Before the tick loop runs,
/// paths are compiled into a [`crate::compiled::PacketBatch`] — flat runs
/// of wire ids, one per packet — so the engine never chases `Vec<Vec<_>>`
/// pointers or re-derives wires.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketPath {
    /// Vertex sequence from source to destination. A single-vertex path is a
    /// packet already at its destination (delivered at tick 0).
    pub path: Vec<NodeId>,
}

impl PacketPath {
    /// A packet path over the given node walk.
    ///
    /// # Panics
    /// Panics if `path` is empty.
    pub fn new(path: Vec<NodeId>) -> Self {
        assert!(!path.is_empty(), "packet path cannot be empty");
        PacketPath { path }
    }

    /// Source node (first hop).
    pub fn src(&self) -> NodeId {
        self.path[0]
    }

    /// Destination node (last hop).
    pub fn dst(&self) -> NodeId {
        self.path[self.path.len() - 1]
    }

    /// Number of wire traversals this packet needs.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// How contended wires pick which queued packet to forward next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// First-in-first-out.
    Fifo,
    /// Farthest-remaining-distance first (a classic greedy heuristic).
    FarthestFirst,
    /// Uniform random ranks assigned at injection; lowest rank wins. This is
    /// the scheduling idea behind the Leighton–Maggs–Rao universal O(c + Λ)
    /// routing the paper's Theorem 6 invokes.
    RandomRank,
}

/// Routing strategy used to convert (src, dst) demands into paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// BFS shortest paths with per-source randomized tie-breaking.
    ShortestPath,
    /// Valiant's two-phase routing: shortest path to a uniformly random
    /// intermediate node, then to the destination.
    Valiant,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_accessors() {
        let p = PacketPath::new(vec![3, 1, 4, 1, 5]);
        assert_eq!(p.src(), 3);
        assert_eq!(p.dst(), 5);
        assert_eq!(p.hops(), 4);
    }

    #[test]
    fn trivial_packet() {
        let p = PacketPath::new(vec![7]);
        assert_eq!(p.src(), 7);
        assert_eq!(p.dst(), 7);
        assert_eq!(p.hops(), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_path_rejected() {
        let _ = PacketPath::new(vec![]);
    }
}
