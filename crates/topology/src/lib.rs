#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-topology
//!
//! Generators and analytic properties for the fixed-connection network
//! families of Kruskal & Rappoport (SPAA'94), Table 4: linear arrays, rings,
//! the global bus, trees, weak parallel-prefix networks, X-Trees,
//! k-dimensional meshes / tori / X-Grids / meshes-of-trees / multigrids /
//! pyramids, butterflies, cube-connected cycles, shuffle-exchange and de
//! Bruijn graphs, multibutterflies, random-regular expanders, and the weak
//! hypercube.
//!
//! Every family knows its closed-form bandwidth `β(n)` and distance
//! parameter `λ(n)` ([`Family`]); every instance carries its multigraph,
//! processor count, node send capacities (for the "weak" machines and the
//! bus) and canonical flux cuts ([`Machine`]).
//!
//! Node numbering conventions (relied on throughout the workspace):
//! processors come first and are geometrically contiguous — an id-prefix cut
//! at `n/2` is a meaningful half/half split for every family.

pub mod family;
pub mod hierarchical;
pub mod hypercubic;
pub mod labels;
pub mod linear;
pub mod machine;
pub mod mesh;
pub mod random_nets;
pub mod registry;
pub mod trees;

pub use family::Family;
pub use labels::{all_labels, node_label, to_labeled_dot};
pub use machine::{Machine, RoutePolicy, SendCapacity};

/// Minimal machine-shaped interface: anything that can report a family and a
/// processor count. `Machine` is the canonical implementor.
pub trait Topology {
    /// The machine's family.
    fn family(&self) -> Family;
    /// The machine's processor count.
    fn processors(&self) -> usize;
}

impl Topology for Machine {
    fn family(&self) -> Family {
        Machine::family(self)
    }
    fn processors(&self) -> usize {
        Machine::processors(self)
    }
}

impl Machine {
    /// Linear array on `n` processors.
    pub fn linear_array(n: usize) -> Machine {
        linear::linear_array(n)
    }
    /// Ring on `n` processors.
    pub fn ring(n: usize) -> Machine {
        linear::ring(n)
    }
    /// Global bus over `n` processors (hub is an auxiliary vertex).
    pub fn global_bus(n: usize) -> Machine {
        linear::global_bus(n)
    }
    /// Complete binary tree of the given depth.
    pub fn tree(depth: u32) -> Machine {
        trees::tree(depth)
    }
    /// Weak parallel-prefix network of the given depth.
    pub fn weak_ppn(depth: u32) -> Machine {
        trees::weak_ppn(depth)
    }
    /// X-Tree of the given depth.
    pub fn xtree(depth: u32) -> Machine {
        trees::xtree(depth)
    }
    /// k-dimensional mesh with side length `side`.
    pub fn mesh(k: u8, side: usize) -> Machine {
        mesh::mesh(k, side)
    }
    /// k-dimensional torus with side length `side`.
    pub fn torus(k: u8, side: usize) -> Machine {
        mesh::torus(k, side)
    }
    /// k-dimensional X-Grid with side length `side`.
    pub fn xgrid(k: u8, side: usize) -> Machine {
        mesh::xgrid(k, side)
    }
    /// k-dimensional mesh of trees over a `side^k` grid.
    pub fn mesh_of_trees(k: u8, side: usize) -> Machine {
        hierarchical::mesh_of_trees(k, side)
    }
    /// k-dimensional multigrid over a `side^k` base grid.
    pub fn multigrid(k: u8, side: usize) -> Machine {
        hierarchical::multigrid(k, side)
    }
    /// k-dimensional pyramid over a `side^k` base grid.
    pub fn pyramid(k: u8, side: usize) -> Machine {
        hierarchical::pyramid(k, side)
    }
    /// Butterfly of dimension `g`.
    pub fn butterfly(g: u32) -> Machine {
        hypercubic::butterfly(g)
    }
    /// Cube-connected cycles of dimension `g`.
    pub fn ccc(g: u32) -> Machine {
        hypercubic::cube_connected_cycles(g)
    }
    /// Shuffle-exchange of dimension `g`.
    pub fn shuffle_exchange(g: u32) -> Machine {
        hypercubic::shuffle_exchange(g)
    }
    /// Binary de Bruijn graph of dimension `g` (`2^g` processors).
    pub fn de_bruijn(g: u32) -> Machine {
        hypercubic::de_bruijn(g)
    }
    /// Multibutterfly of dimension `g` with splitter degree `d`.
    pub fn multibutterfly(g: u32, d: u32, seed: u64) -> Machine {
        random_nets::multibutterfly(g, d, seed)
    }
    /// Random near-`d`-regular expander on `n` nodes.
    pub fn expander(n: usize, d: u32, seed: u64) -> Machine {
        random_nets::expander(n, d, seed)
    }
    /// Weak hypercube of dimension `g` (unit per-node send capacity).
    pub fn weak_hypercube(g: u32) -> Machine {
        hypercubic::weak_hypercube(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_with_families() {
        assert_eq!(Machine::mesh(2, 4).family(), Family::Mesh(2));
        assert_eq!(Machine::de_bruijn(4).family(), Family::DeBruijn);
        assert_eq!(Machine::global_bus(8).family(), Family::GlobalBus);
    }

    #[test]
    fn every_family_builds_a_connected_machine() {
        for fam in Family::all_with_dims(&[1, 2, 3]) {
            let m = fam.build_near(100, 7);
            assert!(m.graph().is_connected(), "{fam}");
            assert!(m.processors() >= 4, "{fam}");
            for cut in m.canonical_cuts() {
                assert!(cut.is_nontrivial(), "{fam} trivial canonical cut");
            }
        }
    }

    #[test]
    fn analytic_beta_evaluates_positively() {
        for fam in Family::all_with_dims(&[1, 2, 3]) {
            let m = fam.build_near(64, 3);
            assert!(m.beta_at_size() > 0.0, "{fam}");
            assert!(m.lambda_at_size() > 0.0, "{fam}");
        }
    }
}
