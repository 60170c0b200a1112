//! Human-readable node labels per machine family.
//!
//! Generators number nodes for cache- and cut-friendliness; these helpers
//! recover the geometric meaning of an id (mesh coordinates, butterfly
//! (level, row), tree (level, position), ...) for debugging, DOT exports,
//! and error messages.

use fcn_multigraph::NodeId;

use crate::family::Family;
use crate::machine::Machine;
use crate::mesh::coords_of;

/// Human-readable label of node `u` in `machine`, derived from the family's
/// numbering convention. Falls back to the bare id for families whose
/// numbering has no geometric structure (expanders).
pub fn node_label(machine: &Machine, u: NodeId) -> String {
    let n = machine.node_count();
    assert!((u as usize) < n, "node {u} out of range");
    match machine.family() {
        Family::LinearArray | Family::Ring | Family::Expander => format!("{u}"),
        Family::GlobalBus => {
            if (u as usize) < machine.processors() {
                format!("p{u}")
            } else {
                "bus".to_string()
            }
        }
        Family::Tree | Family::XTree | Family::WeakPpn => {
            // Heap numbering (for the PPN, only the up-tree ids are
            // heap-like; down-tree ids are offset copies).
            let t = heap_label(u);
            if machine.family() == Family::WeakPpn {
                // The shared machine may extend past the up tree.
                let up_nodes = (machine.node_count() * 2 + 1).div_ceil(3);
                if (u as usize) >= up_nodes {
                    return format!("down.{}", heap_label(u - up_nodes as NodeId));
                }
            }
            t
        }
        Family::Mesh(k) | Family::Torus(k) | Family::XGrid(k) => {
            let side = (machine.processors() as f64).powf(1.0 / k as f64).round() as usize;
            coord_label(&coords_of(u as usize, k as usize, side))
        }
        Family::MeshOfTrees(k) => {
            let kk = k as usize;
            // leaves: side^k; internal: per dim, per line, side-1 nodes.
            let side = mot_side(machine.node_count(), kk);
            let leaves = side.pow(k as u32);
            if (u as usize) < leaves {
                format!("leaf{}", coord_label(&coords_of(u as usize, kk, side)))
            } else {
                let rest = u as usize - leaves;
                let per_dim = side.pow(k as u32 - 1) * (side - 1);
                let d = rest / per_dim;
                let in_dim = rest % per_dim;
                let line = in_dim / (side - 1);
                let h = in_dim % (side - 1) + 1;
                format!("tree[d{d},line{line},h{h}]")
            }
        }
        Family::Multigrid(k) | Family::Pyramid(k) => {
            let kk = k as usize;
            // Levels of sides side, side/2, ..., 1.
            let mut side = hierarchy_base_side(machine.node_count(), kk);
            let mut off = 0usize;
            let mut level = 0u32;
            loop {
                let count = side.pow(k as u32);
                if (u as usize) < off + count {
                    return format!(
                        "L{level}{}",
                        coord_label(&coords_of(u as usize - off, kk, side.max(1)))
                    );
                }
                off += count;
                if side == 1 {
                    break;
                }
                side /= 2;
                level += 1;
            }
            format!("{u}")
        }
        Family::Butterfly | Family::Multibutterfly => {
            // id = level · rows + row where n = (g+1)·2^g.
            let (g, rows) = butterfly_dims(n);
            let _ = g;
            format!("(L{},r{})", u as usize / rows, u as usize % rows)
        }
        Family::Ccc => {
            // id = pos · 2^g + row where n = g·2^g.
            let (g, rows) = ccc_dims(n);
            let _ = g;
            format!("(c{},r{:b})", u as usize / rows, u as usize % rows)
        }
        Family::ShuffleExchange | Family::DeBruijn | Family::WeakHypercube => {
            let g = n.trailing_zeros(); // n = 2^g exactly
            format!("{u:0width$b}", width = g as usize)
        }
    }
}

/// Label every node (small machines; DOT decoration).
pub fn all_labels(machine: &Machine) -> Vec<String> {
    (0..machine.node_count() as NodeId)
        .map(|u| node_label(machine, u))
        .collect()
}

/// DOT rendering with labels.
pub fn to_labeled_dot(machine: &Machine) -> String {
    use std::fmt::Write as _;
    let mut s = format!("graph {} {{\n", machine.family().id());
    for u in 0..machine.node_count() as NodeId {
        let _ = writeln!(s, "  {u} [label=\"{}\"];", node_label(machine, u));
    }
    for e in machine.graph().edges() {
        if e.multiplicity == 1 {
            let _ = writeln!(s, "  {} -- {};", e.u, e.v);
        } else {
            let _ = writeln!(s, "  {} -- {} [label=\"x{}\"];", e.u, e.v, e.multiplicity);
        }
    }
    s.push('}');
    s
}

fn heap_label(u: NodeId) -> String {
    let level = 32 - (u + 1).leading_zeros() - 1;
    let pos = (u + 1) - (1 << level);
    format!("t{level}.{pos}")
}

fn coord_label(coords: &[usize]) -> String {
    let parts: Vec<String> = coords.iter().map(|c| c.to_string()).collect();
    format!("({})", parts.join(","))
}

fn mot_side(n: usize, k: usize) -> usize {
    // n = side^k + k·side^{k-1}·(side-1); search powers of two.
    let mut side = 2usize;
    loop {
        let total = side.pow(k as u32) + k * side.pow(k as u32 - 1) * (side - 1);
        if total == n {
            return side;
        }
        assert!(total < n, "not a mesh-of-trees node count: {n}");
        side *= 2;
    }
}

fn hierarchy_base_side(n: usize, k: usize) -> usize {
    let mut side = 2usize;
    loop {
        let mut total = 0usize;
        let mut s = side;
        loop {
            total += s.pow(k as u32);
            if s == 1 {
                break;
            }
            s /= 2;
        }
        if total == n {
            return side;
        }
        assert!(total < n, "not a mesh-hierarchy node count: {n}");
        side *= 2;
    }
}

#[expect(
    clippy::panic,
    reason = "documented precondition: label decoding is only called on sizes produced by the builders"
)]
fn butterfly_dims(n: usize) -> (u32, usize) {
    for g in 1..=30u32 {
        let rows = 1usize << g;
        if (g as usize + 1) * rows == n {
            return (g, rows);
        }
    }
    panic!("not a butterfly node count: {n}");
}

#[expect(
    clippy::panic,
    reason = "documented precondition: label decoding is only called on sizes produced by the builders"
)]
fn ccc_dims(n: usize) -> (u32, usize) {
    for g in 2..=30u32 {
        let rows = 1usize << g;
        if g as usize * rows == n {
            return (g, rows);
        }
    }
    panic!("not a CCC node count: {n}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_labels_are_coordinates() {
        let m = Machine::mesh(2, 4);
        assert_eq!(node_label(&m, 0), "(0,0)");
        assert_eq!(node_label(&m, 5), "(1,1)");
        assert_eq!(node_label(&m, 15), "(3,3)");
    }

    #[test]
    fn tree_labels_are_level_position() {
        let m = Machine::tree(3);
        assert_eq!(node_label(&m, 0), "t0.0");
        assert_eq!(node_label(&m, 1), "t1.0");
        assert_eq!(node_label(&m, 2), "t1.1");
        assert_eq!(node_label(&m, 7), "t3.0");
    }

    #[test]
    fn butterfly_labels_are_level_row() {
        let m = Machine::butterfly(3);
        assert_eq!(node_label(&m, 0), "(L0,r0)");
        assert_eq!(node_label(&m, 8), "(L1,r0)");
        assert_eq!(node_label(&m, 11), "(L1,r3)");
    }

    #[test]
    fn binary_labels_for_bit_machines() {
        let m = Machine::de_bruijn(4);
        assert_eq!(node_label(&m, 0), "0000");
        assert_eq!(node_label(&m, 9), "1001");
        let se = Machine::shuffle_exchange(3);
        assert_eq!(node_label(&se, 5), "101");
    }

    #[test]
    fn bus_labels_hub() {
        let m = Machine::global_bus(4);
        assert_eq!(node_label(&m, 0), "p0");
        assert_eq!(node_label(&m, 4), "bus");
    }

    #[test]
    fn hierarchy_labels_carry_levels() {
        let m = Machine::pyramid(2, 4);
        assert_eq!(node_label(&m, 0), "L0(0,0)");
        assert_eq!(node_label(&m, 16), "L1(0,0)");
        assert_eq!(node_label(&m, 20), "L2(0,0)");
    }

    #[test]
    fn mot_labels_distinguish_leaves_and_trees() {
        let m = Machine::mesh_of_trees(2, 4);
        assert_eq!(node_label(&m, 0), "leaf(0,0)");
        assert!(node_label(&m, 16).starts_with("tree[d0,line0,h1"));
        // Dim 1 trees start after dim 0's 4 lines x 3 internal nodes.
        assert!(node_label(&m, 16 + 12).starts_with("tree[d1"));
    }

    #[test]
    fn all_machines_label_every_node() {
        for fam in Family::all_with_dims(&[1, 2, 3]) {
            let m = fam.build_near(80, 2);
            let labels = all_labels(&m);
            assert_eq!(labels.len(), m.node_count(), "{fam}");
            assert!(labels.iter().all(|l| !l.is_empty()), "{fam}");
        }
    }

    #[test]
    fn labeled_dot_contains_labels_and_edges() {
        let m = Machine::mesh(2, 3);
        let dot = to_labeled_dot(&m);
        assert!(dot.contains("label=\"(1,1)\""));
        assert!(dot.contains(" -- "));
    }
}
