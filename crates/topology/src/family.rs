//! The machine families of Table 4, with their analytic `β` and `λ`.
//!
//! A [`Family`] identifies one of the paper's fixed-connection network
//! families and knows its closed-form communication bandwidth `β(n)` and
//! distance parameter `λ(n)` (both as [`Asym`] growth classes in the number
//! of processors `n`). Dimensional families (`Mesh`, `Pyramid`, ...) carry
//! their dimension `k`, which enters the exponents.
//!
//! The paper notes "without proof that most network machines studied in the
//! literature, including the Tree, X-Tree, Mesh, Butterfly, Shuffle
//! Exchange, de Bruijn graph, are bottleneck-free and have λ proportional to
//! diameter"; [`Family::bottleneck_free`] records that claim (audited
//! empirically by `fcn-bandwidth::bottleneck`).

use std::fmt;

use fcn_asymptotics::{Asym, Rational};
use serde::{Deserialize, Serialize};

/// One of the 19 machine families in the reproduction (Table 4 plus the
/// Ring, which the paper subsumes under the linear-array class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// 1-d array; β = Θ(1), λ = Θ(n).
    LinearArray,
    /// 1-d torus; same class as the linear array.
    Ring,
    /// Shared bus: one transmission per tick heard by all; β = Θ(1), λ = Θ(1).
    GlobalBus,
    /// Complete binary tree; β = Θ(1), λ = Θ(lg n).
    Tree,
    /// Weak parallel-prefix network (up/down tree pair); β = Θ(1), λ = Θ(lg n).
    WeakPpn,
    /// Complete binary tree plus same-level sibling links; β = Θ(lg n), λ = Θ(lg n).
    XTree,
    /// k-dimensional mesh; β = Θ(n^{(k-1)/k}), λ = Θ(n^{1/k}).
    Mesh(u8),
    /// k-dimensional torus; same class as the mesh.
    Torus(u8),
    /// k-dimensional mesh with full Moore (diagonal) neighborhoods; mesh class.
    XGrid(u8),
    /// k-dimensional mesh of trees; β = Θ(n^{(k-1)/k}), λ = Θ(lg n).
    MeshOfTrees(u8),
    /// k-dimensional multigrid (mesh hierarchy, one up-link per even node).
    Multigrid(u8),
    /// k-dimensional pyramid (mesh hierarchy, 2^k children per apex node).
    Pyramid(u8),
    /// Butterfly; β = Θ(n/lg n), λ = Θ(lg n).
    Butterfly,
    /// Cube-connected cycles; butterfly class.
    Ccc,
    /// Shuffle-exchange; butterfly class.
    ShuffleExchange,
    /// Binary de Bruijn graph; butterfly class.
    DeBruijn,
    /// Multibutterfly (randomized splitters); butterfly class.
    Multibutterfly,
    /// Random d-regular expander; β = Θ(n/lg n), λ = Θ(lg n).
    Expander,
    /// Weak hypercube: lg n wires per node but only one usable per tick;
    /// butterfly class.
    WeakHypercube,
}

impl Family {
    /// All families at their default dimensions (meshes at k ∈ {1,2,3} are
    /// produced by [`Family::all_with_dims`]).
    pub fn all() -> Vec<Family> {
        use Family::*;
        vec![
            LinearArray,
            Ring,
            GlobalBus,
            Tree,
            WeakPpn,
            XTree,
            Mesh(2),
            Torus(2),
            XGrid(2),
            MeshOfTrees(2),
            Multigrid(2),
            Pyramid(2),
            Butterfly,
            Ccc,
            ShuffleExchange,
            DeBruijn,
            Multibutterfly,
            Expander,
            WeakHypercube,
        ]
    }

    /// The dimensional families instantiated over the given dimensions,
    /// plus all non-dimensional families.
    pub fn all_with_dims(dims: &[u8]) -> Vec<Family> {
        use Family::*;
        let mut out = vec![LinearArray, Ring, GlobalBus, Tree, WeakPpn, XTree];
        for &k in dims {
            out.extend([
                Mesh(k),
                Torus(k),
                XGrid(k),
                MeshOfTrees(k),
                Multigrid(k),
                Pyramid(k),
            ]);
        }
        out.extend([
            Butterfly,
            Ccc,
            ShuffleExchange,
            DeBruijn,
            Multibutterfly,
            Expander,
            WeakHypercube,
        ]);
        out
    }

    /// Dimension parameter for dimensional families.
    pub fn dimension(&self) -> Option<u8> {
        use Family::*;
        match self {
            Mesh(k) | Torus(k) | XGrid(k) | MeshOfTrees(k) | Multigrid(k) | Pyramid(k) => Some(*k),
            _ => None,
        }
    }

    /// Analytic communication bandwidth `β(n)` from Table 4, as a growth
    /// class in the processor count `n`.
    ///
    /// One refinement over the paper's table: for `k = 1` the multigrid and
    /// pyramid hierarchies themselves contribute Θ(lg n) cut capacity (one
    /// express edge per level crosses any half cut), which dominates the
    /// base line's Θ(1) — so `Multigrid(1)`/`Pyramid(1)` are X-Tree class,
    /// `β = Θ(lg n)`, as our router measurements confirm. For `k ≥ 2` the
    /// base mesh's `n^{(k-1)/k}` dominates `lg n` and the paper's entry
    /// stands.
    pub fn beta(&self) -> Asym {
        use Family::*;
        match self {
            LinearArray | Ring | GlobalBus | Tree | WeakPpn => Asym::one(),
            XTree | Multigrid(1) | Pyramid(1) => Asym::lg(),
            Mesh(k) | Torus(k) | XGrid(k) | MeshOfTrees(k) | Multigrid(k) | Pyramid(k) => {
                let k = *k as i64;
                Asym::n_pow(k - 1, k)
            }
            Butterfly | Ccc | ShuffleExchange | DeBruijn | Multibutterfly | Expander
            | WeakHypercube => Asym::n() / Asym::lg(),
        }
    }

    /// Analytic distance parameter `λ(n)` from Table 4 (proportional to the
    /// diameter for these machines); this is also the minimal guest
    /// computation time scale `Λ(G)` in the Efficient Emulation Theorem.
    pub fn lambda(&self) -> Asym {
        use Family::*;
        match self {
            LinearArray | Ring => Asym::n(),
            GlobalBus => Asym::one(),
            Tree | WeakPpn | XTree => Asym::lg(),
            Mesh(k) | Torus(k) | XGrid(k) => Asym::n_pow(1, *k as i64),
            MeshOfTrees(_) | Multigrid(_) | Pyramid(_) => Asym::lg(),
            Butterfly | Ccc | ShuffleExchange | DeBruijn | Multibutterfly | Expander
            | WeakHypercube => Asym::lg(),
        }
    }

    /// Whether the family is fixed-degree (the Efficient Emulation Theorem's
    /// guest premise). The weak hypercube has degree `lg n` but unit node
    /// capacity; the global bus's hub is an auxiliary medium, not a
    /// processor.
    pub fn fixed_degree(&self) -> bool {
        !matches!(self, Family::WeakHypercube | Family::GlobalBus)
    }

    /// The paper's (unproven) claim that the classical machines are
    /// bottleneck-free; audited empirically in `fcn-bandwidth`.
    pub fn bottleneck_free(&self) -> bool {
        true
    }

    /// β as the exponent pair `(e, d, g)` of the *host-side* solve variable:
    /// `β_H(m) = m^e (lg m)^d (lg lg m)^g` with an exact rational `e`.
    pub fn beta_exponents(&self) -> (Rational, Rational, Rational) {
        let b = self.beta();
        (b.pow_n, b.pow_lg, b.pow_lglg)
    }

    /// Short stable identifier, e.g. `mesh2`, `xtree`, `de_bruijn`.
    pub fn id(&self) -> String {
        use Family::*;
        match self {
            LinearArray => "linear_array".into(),
            Ring => "ring".into(),
            GlobalBus => "global_bus".into(),
            Tree => "tree".into(),
            WeakPpn => "weak_ppn".into(),
            XTree => "xtree".into(),
            Mesh(k) => format!("mesh{k}"),
            Torus(k) => format!("torus{k}"),
            XGrid(k) => format!("xgrid{k}"),
            MeshOfTrees(k) => format!("mesh_of_trees{k}"),
            Multigrid(k) => format!("multigrid{k}"),
            Pyramid(k) => format!("pyramid{k}"),
            Butterfly => "butterfly".into(),
            Ccc => "ccc".into(),
            ShuffleExchange => "shuffle_exchange".into(),
            DeBruijn => "de_bruijn".into(),
            Multibutterfly => "multibutterfly".into(),
            Expander => "expander".into(),
            WeakHypercube => "weak_hypercube".into(),
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_matches_table4_classes() {
        assert!(Family::LinearArray.beta().is_constant());
        assert!(Family::Tree.beta().is_constant());
        assert!(Family::XTree.beta().same_class(&Asym::lg()));
        assert!(Family::Mesh(2).beta().same_class(&Asym::n_pow(1, 2)));
        assert!(Family::Mesh(3).beta().same_class(&Asym::n_pow(2, 3)));
        assert!(Family::Pyramid(2).beta().same_class(&Asym::n_pow(1, 2)));
        assert!(Family::DeBruijn
            .beta()
            .same_class(&(Asym::n() / Asym::lg())));
        assert!(Family::WeakHypercube
            .beta()
            .same_class(&(Asym::n() / Asym::lg())));
    }

    #[test]
    fn lambda_matches_table4_classes() {
        assert!(Family::LinearArray.lambda().same_class(&Asym::n()));
        assert!(Family::GlobalBus.lambda().is_constant());
        assert!(Family::Mesh(3).lambda().same_class(&Asym::n_pow(1, 3)));
        assert!(Family::MeshOfTrees(2).lambda().same_class(&Asym::lg()));
        assert!(Family::Butterfly.lambda().same_class(&Asym::lg()));
    }

    #[test]
    fn beta_times_inverse_lambda_sanity() {
        // For mesh-class machines β·λ = Θ(n) (edge capacity over distance).
        for k in 1..=4u8 {
            let prod = Family::Mesh(k).beta() * Family::Mesh(k).lambda();
            assert!(prod.same_class(&Asym::n()), "k = {k}");
        }
        // Butterfly class too: (n/lg n)·lg n = n.
        let prod = Family::Ccc.beta() * Family::Ccc.lambda();
        assert!(prod.same_class(&Asym::n()));
    }

    #[test]
    fn ids_are_unique() {
        let fams = Family::all_with_dims(&[1, 2, 3]);
        let mut ids: Vec<String> = fams.iter().map(|f| f.id()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn dimension_accessor() {
        assert_eq!(Family::Mesh(3).dimension(), Some(3));
        assert_eq!(Family::Butterfly.dimension(), None);
    }

    #[test]
    fn fixed_degree_flags() {
        assert!(Family::Mesh(2).fixed_degree());
        assert!(Family::DeBruijn.fixed_degree());
        assert!(!Family::WeakHypercube.fixed_degree());
        assert!(!Family::GlobalBus.fixed_degree());
    }
}
