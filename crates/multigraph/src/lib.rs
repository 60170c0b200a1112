#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-multigraph
//!
//! Multigraph substrate for the Kruskal–Rappoport (SPAA'94) reproduction.
//!
//! The paper describes both *network machines* and *communication patterns*
//! as multigraphs: "vertices represent processors, and edges represent
//! communication links \[or\] messages sent between processors". This crate
//! provides that shared representation plus the graph machinery the proofs
//! lean on:
//!
//! * [`graph`] — compact CSR-backed undirected multigraphs with integer edge
//!   multiplicities, including the paper's `E(G)` and `xG` operations;
//! * [`traffic`] — traffic distributions and multigraphs: symmetric,
//!   quasi-symmetric, and the `K_{r,s}` class of "almost complete" graphs
//!   from Lemma 9;
//! * [`cut`] — vertex cuts, cut capacity, and flux upper bounds on delivery
//!   rate, with a Fiduccia–Mattheyses-style local improver;
//! * [`dist`] — BFS, exact/sampled diameter and average distance (the
//!   paper's `λ`-side quantities);
//! * [`embedding`] — explicit embeddings with congestion/dilation accounting
//!   (`C(H,G)`, `Λ(H,G)`, `λ(H,G)` at finite size);
//! * [`collapse`](mod@collapse) — super-vertex collapse with load accounting (Lemma 11).

pub mod collapse;
pub mod cut;
pub mod dist;
pub mod embedding;
pub mod graph;
pub mod io;
pub mod traffic;

pub use collapse::{collapse, contiguous_blocks, random_balanced, round_robin, CollapseResult};
pub use cut::{best_flux_bound, candidate_cuts, improve_cut, Cut, CutStats};
pub use dist::{
    bfs_distances, bfs_parents, bfs_parents_shuffled, diameter, distance_stats, pair_distance_sum,
    path_from_parents, DistanceStats, UNREACHABLE,
};
pub use embedding::{Embedding, EmbeddingStats};
pub use graph::{EdgeRef, Multigraph, MultigraphBuilder, NodeId};
pub use io::{from_edge_list, from_json, to_edge_list, to_json};
pub use traffic::{complete_multigraph, in_k_class, Traffic, TrafficKind};
