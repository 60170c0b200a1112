//! Traffic distributions and traffic multigraphs.
//!
//! The paper (following Kruskal–Snir) defines bandwidth relative to a
//! *traffic distribution* `π`: the relative frequency of source–destination
//! pairs. Three families matter here:
//!
//! * the **symmetric** distribution (all `n(n-1)` ordered pairs equally
//!   likely) — this is the `π` in the headline `β(M)`;
//! * **quasi-symmetric** distributions (`Ω(n²)` pairs equally likely, rest
//!   forbidden) — the premise of bottleneck-freeness and the class the
//!   Lemma 9 witness `γ` lives in;
//! * the **`K_{r,s}`** class of "almost complete" traffic multigraphs
//!   (`Θ(r²s)` edges, ≤ `s` parallel edges per pair) from which `γ` and `ξ`
//!   are drawn.
//!
//! A [`Traffic`] supports the two operations the pipeline needs: sampling
//! message pairs for the router, and computing the fraction of traffic that
//! crosses a vertex cut (for flux bounds) — without ever materializing the
//! `Θ(n²)` pair set for the symmetric and prefix-symmetric cases.

use rand::seq::IndexedRandom;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use crate::graph::{Multigraph, MultigraphBuilder, NodeId};

/// How the pair set of a [`Traffic`] is represented.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficKind {
    /// All ordered pairs `(u, v)`, `u != v`, equally likely.
    Symmetric,
    /// All ordered pairs `(u, v)`, `u != v`, among the first `m` processors,
    /// equally likely; the rest send and receive nothing. A closed form of
    /// the lexicographic pair list `(0,1), (0,2), …, (m-1,m-2)`: sampling and
    /// crossing counts match that list under [`TrafficKind::Pairs`] bit for
    /// bit.
    SymmetricPrefix(usize),
    /// An explicit list of ordered pairs with uniform probability. The pair
    /// list may contain repeats, which act as integer weights.
    Pairs(Vec<(NodeId, NodeId)>),
}

/// A traffic distribution over `n` processors.
///
/// ```
/// use fcn_multigraph::{Cut, Traffic};
///
/// let t = Traffic::symmetric(8);
/// let half = Cut::prefix(8, 4);
/// // 2·4·4 of the 8·7 ordered pairs cross a half/half split.
/// assert!((t.crossing_fraction(&half.side) - 32.0 / 56.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Traffic {
    n: usize,
    kind: TrafficKind,
}

impl Traffic {
    /// The symmetric distribution on `n` processors — the paper's default
    /// `π` under which `β(M)` is defined.
    pub fn symmetric(n: usize) -> Self {
        assert!(n >= 2, "symmetric traffic needs at least two processors");
        Traffic {
            n,
            kind: TrafficKind::Symmetric,
        }
    }

    /// Uniform traffic over an explicit pair list.
    ///
    /// # Panics
    /// Panics on an empty list, a pair out of range, or a self-pair.
    pub fn from_pairs(n: usize, pairs: Vec<(NodeId, NodeId)>) -> Self {
        assert!(!pairs.is_empty(), "traffic needs at least one pair");
        for &(u, v) in &pairs {
            assert!((u as usize) < n && (v as usize) < n, "pair out of range");
            assert!(u != v, "self-pair ({u},{u}) not allowed in traffic");
        }
        Traffic {
            n,
            kind: TrafficKind::Pairs(pairs),
        }
    }

    /// A quasi-symmetric distribution: every ordered pair is kept
    /// independently with probability `keep`, so ~`keep·n²` pairs are
    /// allowed. `keep` must be in `(0, 1]`; `keep = Θ(1)` makes the result
    /// quasi-symmetric in the paper's sense.
    pub fn quasi_symmetric_random(n: usize, keep: f64, rng: &mut impl Rng) -> Self {
        assert!(n >= 2 && keep > 0.0 && keep <= 1.0);
        let mut pairs = Vec::new();
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                if u != v && rng.random::<f64>() < keep {
                    pairs.push((u, v));
                }
            }
        }
        if pairs.is_empty() {
            // Vanishingly unlikely for the sizes we use; keep it total.
            pairs.push((0, 1));
        }
        Traffic::from_pairs(n, pairs)
    }

    /// The adversarial quasi-symmetric distribution that stresses a machine's
    /// bisection: all `(n/2)²·2` ordered pairs between the first and second
    /// halves of the id space. Topology generators number nodes so that this
    /// is a geometrically meaningful half/half split.
    pub fn bipartite_halves(n: usize) -> Self {
        assert!(n >= 2);
        let half = n / 2;
        let mut pairs = Vec::with_capacity(2 * half * (n - half));
        for u in 0..half as NodeId {
            for v in half as NodeId..n as NodeId {
                pairs.push((u, v));
                pairs.push((v, u));
            }
        }
        Traffic::from_pairs(n, pairs)
    }

    /// Quasi-symmetric traffic restricted to a sub-population: symmetric
    /// traffic among the first `m <= n` processors (the "cheating emulation"
    /// case Lemma 12 must handle, where the pattern is much smaller than the
    /// host).
    pub fn symmetric_on_prefix(n: usize, m: usize) -> Self {
        assert!(2 <= m && m <= n);
        Traffic {
            n,
            kind: TrafficKind::SymmetricPrefix(m),
        }
    }

    /// The same distribution over `n >= self.n()` processors: the added ones
    /// send and receive nothing (a machine's auxiliary nodes).
    pub fn padded(&self, n: usize) -> Self {
        assert!(n >= self.n, "padding cannot drop processors");
        let kind = match &self.kind {
            TrafficKind::Symmetric if n > self.n => TrafficKind::SymmetricPrefix(self.n),
            kind => kind.clone(),
        };
        Traffic { n, kind }
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Representation.
    pub fn kind(&self) -> &TrafficKind {
        &self.kind
    }

    /// Number of distinct allowed ordered pairs (with multiplicity for the
    /// explicit representation).
    pub fn pair_count(&self) -> u64 {
        match &self.kind {
            TrafficKind::Symmetric => (self.n as u64) * (self.n as u64 - 1),
            TrafficKind::SymmetricPrefix(m) => (m * (m - 1)) as u64,
            TrafficKind::Pairs(p) => p.len() as u64,
        }
    }

    /// True if the distribution has `Ω(n²)` allowed pairs with the given
    /// constant: `pair_count >= c·n²`.
    pub fn is_quasi_symmetric(&self, c: f64) -> bool {
        self.pair_count() as f64 >= c * (self.n as f64) * (self.n as f64)
    }

    /// Sample one source–destination pair.
    pub fn sample(&self, rng: &mut impl Rng) -> (NodeId, NodeId) {
        match &self.kind {
            TrafficKind::Symmetric => {
                let u = rng.random_range(0..self.n as NodeId);
                let mut v = rng.random_range(0..self.n as NodeId - 1);
                if v >= u {
                    v += 1;
                }
                (u, v)
            }
            TrafficKind::SymmetricPrefix(m) => {
                // Index into the lexicographic pair list, drawn with the
                // same reduction `choose` uses on an explicit list.
                let k = rng.random_range(0..(m * (m - 1)) as u64);
                let (u, r) = (k / (*m as u64 - 1), k % (*m as u64 - 1));
                (u as NodeId, (r + u64::from(r >= u)) as NodeId)
            }
            #[expect(
                clippy::expect_used,
                reason = "the Pairs constructor asserts a nonempty list"
            )]
            TrafficKind::Pairs(p) => *p.choose(rng).expect("nonempty pair list"),
        }
    }

    /// Fraction of traffic whose endpoints straddle the cut `side` (where
    /// `side[u]` is the side of vertex `u`). This is the `f` in the flux
    /// bound `rate ≤ cap/f` and is computed in closed form for the symmetric
    /// case.
    pub fn crossing_fraction(&self, side: &[bool]) -> f64 {
        assert_eq!(side.len(), self.n);
        match &self.kind {
            TrafficKind::Symmetric => {
                let s = side.iter().filter(|&&b| b).count() as f64;
                let t = self.n as f64 - s;
                2.0 * s * t / (self.n as f64 * (self.n as f64 - 1.0))
            }
            TrafficKind::SymmetricPrefix(m) => {
                let s = side[..*m].iter().filter(|&&b| b).count();
                (2 * s * (m - s)) as f64 / (m * (m - 1)) as f64
            }
            TrafficKind::Pairs(p) => {
                let crossing = p
                    .iter()
                    .filter(|&&(u, v)| side[u as usize] != side[v as usize])
                    .count();
                crossing as f64 / p.len() as f64
            }
        }
    }

    /// Materialize the traffic multigraph `T_π` (undirected; the ordered
    /// pairs `(u,v)` and `(v,u)` merge into multiplicity on `{u,v}`).
    ///
    /// For the symmetric case this is `K_n` with multiplicity 2 per pair
    /// (`K_m` on the prefix for prefix-symmetric traffic); only call it for
    /// small `n`.
    pub fn to_multigraph(&self) -> Multigraph {
        let mut b = MultigraphBuilder::new(self.n);
        let clique = match &self.kind {
            TrafficKind::Symmetric => self.n,
            TrafficKind::SymmetricPrefix(m) => *m,
            TrafficKind::Pairs(p) => {
                for &(u, v) in p {
                    b.add_edge(u, v);
                }
                0
            }
        };
        for u in 0..clique as NodeId {
            for v in (u + 1)..clique as NodeId {
                b.add_edge_mult(u, v, 2);
            }
        }
        b.build()
    }
}

/// The complete multigraph `K_{r,s}` of the paper's Definition: `r` vertices
/// and exactly `s` parallel edges between every pair — the canonical member
/// of the `K_{r,s}` class (`Θ(r²s)` simple edges, no pair exceeding `s`).
pub fn complete_multigraph(r: usize, s: u32) -> Multigraph {
    let mut b = MultigraphBuilder::new(r);
    for u in 0..r as NodeId {
        for v in (u + 1)..r as NodeId {
            b.add_edge_mult(u, v, s);
        }
    }
    b.build()
}

/// Check membership in the paper's class `K_{r,s}` up to constants: `g` has
/// `r` vertices, at least `lo_frac` of the maximum possible `r(r-1)s/2`
/// simple edges, and no vertex pair joined by more than `s` edges.
pub fn in_k_class(g: &Multigraph, s: u32, lo_frac: f64) -> bool {
    let r = g.node_count() as f64;
    if g.edges().any(|e| e.multiplicity > s) {
        return false;
    }
    (g.simple_edge_count() as f64) >= lo_frac * r * (r - 1.0) * (s as f64) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn symmetric_counts_and_sampling() {
        let t = Traffic::symmetric(8);
        assert_eq!(t.pair_count(), 56);
        assert!(t.is_quasi_symmetric(0.5));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let (u, v) = t.sample(&mut rng);
            assert_ne!(u, v);
            assert!(u < 8 && v < 8);
        }
    }

    #[test]
    fn symmetric_sampling_is_roughly_uniform() {
        let t = Traffic::symmetric(4);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [[0u32; 4]; 4];
        for _ in 0..24_000 {
            let (u, v) = t.sample(&mut rng);
            counts[u as usize][v as usize] += 1;
        }
        for (u, row) in counts.iter().enumerate() {
            for (v, &count) in row.iter().enumerate() {
                if u != v {
                    // expectation 2000 per ordered pair
                    assert!(
                        (count as i64 - 2000).abs() < 400,
                        "pair ({u},{v}) count {count}"
                    );
                }
            }
        }
    }

    #[test]
    fn crossing_fraction_symmetric_closed_form() {
        let t = Traffic::symmetric(10);
        let mut side = vec![false; 10];
        for s in side.iter_mut().take(5) {
            *s = true;
        }
        // 2*5*5 / (10*9)
        assert!((t.crossing_fraction(&side) - 50.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_fraction_pairs() {
        let t = Traffic::from_pairs(4, vec![(0, 1), (0, 2), (2, 3)]);
        let side = vec![true, true, false, false];
        assert!((t.crossing_fraction(&side) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bipartite_halves_is_quasi_symmetric() {
        let t = Traffic::bipartite_halves(16);
        assert_eq!(t.pair_count(), 2 * 8 * 8);
        assert!(t.is_quasi_symmetric(0.4));
        // All pairs cross the half cut.
        let side: Vec<bool> = (0..16).map(|u| u < 8).collect();
        assert!((t.crossing_fraction(&side) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_symmetric_ignores_suffix() {
        let t = Traffic::symmetric_on_prefix(10, 4);
        assert_eq!(t.pair_count(), 12);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let (u, v) = t.sample(&mut rng);
            assert!(u < 4 && v < 4);
        }
    }

    #[test]
    fn quasi_symmetric_random_density() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = Traffic::quasi_symmetric_random(32, 0.5, &mut rng);
        let expected = (32.0 * 31.0) * 0.5;
        let got = t.pair_count() as f64;
        assert!((got - expected).abs() < expected * 0.25, "got {got}");
        assert!(t.is_quasi_symmetric(0.25));
    }

    #[test]
    fn symmetric_multigraph_is_doubled_kn() {
        let g = Traffic::symmetric(5).to_multigraph();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.simple_edge_count(), 2 * 10);
        assert_eq!(g.multiplicity(0, 4), 2);
    }

    #[test]
    fn complete_multigraph_k_class() {
        let k = complete_multigraph(6, 3);
        assert_eq!(k.simple_edge_count(), 15 * 3);
        assert!(in_k_class(&k, 3, 0.9));
        assert!(!in_k_class(&k, 2, 0.1)); // multiplicity cap violated
        assert!(!in_k_class(&Multigraph::empty(6), 3, 0.1)); // too few edges
    }

    #[test]
    #[should_panic(expected = "self-pair")]
    fn self_pairs_rejected() {
        let _ = Traffic::from_pairs(3, vec![(1, 1)]);
    }
}
