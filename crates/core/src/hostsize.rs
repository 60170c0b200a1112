//! Maximum host sizes for efficient emulation — the machinery behind the
//! paper's Tables 1–3.
//!
//! "The largest host that can efficiently simulate the guest is obtained by
//! setting `S_c = N_G/N_H` and solving for `|H|` as a function of `|G|`"
//! (the Figure 1 crossover): `n/m = β_G(n)/β_H(m)`, i.e.
//! `m/β_H(m) = n/β_G(n)`. Both a symbolic solution (exact growth class) and
//! a numeric solution (concrete crossover at a given `n`) are provided; the
//! numeric one can also run on *measured* bandwidths.

use fcn_asymptotics::{invert_monotone, solve_power_log, Asym, Rational, SolveError};
use fcn_topology::Family;
use serde::{Deserialize, Serialize};

/// Maximum host size as a growth class in the guest size `n`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HostSizeBound {
    /// Bandwidth caps the host at this (sublinear) size class.
    Constrained(Asym),
    /// The bandwidth bound never binds below full size: a host as large as
    /// the guest is admissible (`|H| = Θ(|G|)`), as for butterfly-class
    /// hosts emulating butterfly-class guests.
    FullSize,
}

impl HostSizeBound {
    /// Render like the paper's table cells, e.g. `O(lg^2 n)` or `O(n)`.
    pub fn to_cell(&self) -> String {
        match self {
            HostSizeBound::Constrained(a) => format!("O({})", a.theta_string()),
            HostSizeBound::FullSize => "O(n)".to_string(),
        }
    }

    /// The growth class (Θ(n) for `FullSize`).
    pub fn as_asym(&self) -> Asym {
        match self {
            HostSizeBound::Constrained(a) => *a,
            HostSizeBound::FullSize => Asym::n(),
        }
    }
}

/// Symbolically solve `m/β_H(m) = n/β_G(n)` for `m` as a class in `n`.
///
/// ```
/// use fcn_core::max_host_size;
/// use fcn_topology::Family;
///
/// // The paper's introduction example.
/// let cap = max_host_size(&Family::DeBruijn, &Family::Mesh(2));
/// assert_eq!(cap.to_cell(), "O(lg^2 n)");
/// ```
pub fn max_host_size(guest: &Family, host: &Family) -> HostSizeBound {
    let x = Asym::n() / guest.beta(); // n / β_G(n)
    let (e, d, g) = host.beta_exponents();
    // m / β_H(m) = m^{1-e} (lg m)^{-d} (lg lg m)^{-g}.
    let solved = solve_power_log(Rational::ONE - e, -d, -g, x);
    match solved {
        Ok(m) => {
            if m.cmp_growth(&Asym::n()) == std::cmp::Ordering::Less {
                HostSizeBound::Constrained(m)
            } else {
                HostSizeBound::FullSize
            }
        }
        // Outside the n^a lg^b lglg^c class ⇒ super-polylog solution that
        // outgrows n (e.g. lg m = n^{1/j}): no sublinear cap.
        Err(SolveError::OutsideClass) => HostSizeBound::FullSize,
        #[expect(
            clippy::panic,
            reason = "the β forms passed in are fixed Table-4 classes that never yield a degenerate equation"
        )]
        Err(e) => panic!("degenerate host-size equation: {e:?}"),
    }
}

/// Numerically solve the crossover at a concrete guest size, using the
/// analytic β forms with unit constants. Returns the host size `m*`.
pub fn numeric_host_size(guest: &Family, host: &Family, n: f64) -> f64 {
    let x = n / guest.beta().eval(n);
    let host_beta = host.beta();
    numeric_host_size_from(|m| m / host_beta.eval(m), x, n)
}

/// Numeric crossover with an arbitrary host profile `m ↦ m/β_H(m)` (use a
/// closure over *measured* host bandwidths for the empirical variant).
///
/// The answer is clamped to `n`: if even a full-size host's bandwidth keeps
/// up (`β_H(n) ≥ β_G(n)`, i.e. `profile(n) ≤ x`), the emulation is
/// unconstrained and the maximum host is the guest size itself.
pub fn numeric_host_size_from(host_profile: impl Fn(f64) -> f64, x: f64, n: f64) -> f64 {
    if host_profile(n) <= x {
        return n;
    }
    // m/β_H(m) is nondecreasing for every Table 4 machine; the solution now
    // lies strictly inside [1, n].
    invert_monotone(1.0, n, x, host_profile)
}

/// Empirical crossover: solve the host size from *measured* bandwidths.
///
/// `guest_beta_at_n` is a measured β̂(G) at guest size `n`;
/// `host_samples` are measured `(m, β̂_H(m))` points. The host profile
/// `m/β_H(m)` is interpolated log-log between samples (and extrapolated by
/// the boundary slopes), then inverted. This closes the loop between the
/// measured Table 4 and the derived Tables 1–3.
///
/// # Panics
/// Panics with fewer than 2 host samples or nonpositive measurements.
pub fn empirical_host_size(guest_beta_at_n: f64, n: f64, host_samples: &[(f64, f64)]) -> f64 {
    assert!(host_samples.len() >= 2, "need at least two host samples");
    let mut pts: Vec<(f64, f64)> = host_samples
        .iter()
        .map(|&(m, b)| {
            assert!(m > 1.0 && b > 0.0, "invalid host sample ({m}, {b})");
            (m.ln(), (m / b).ln()) // log profile
        })
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let profile = move |m: f64| -> f64 {
        let x = m.ln();
        // Piecewise-linear in log space with linear extrapolation.
        let (lo, hi) = (pts[0], pts[pts.len() - 1]);
        let y = if x <= lo.0 {
            let (a, b) = (pts[0], pts[1]);
            a.1 + (x - a.0) * (b.1 - a.1) / (b.0 - a.0)
        } else if x >= hi.0 {
            let (a, b) = (pts[pts.len() - 2], pts[pts.len() - 1]);
            b.1 + (x - b.0) * (b.1 - a.1) / (b.0 - a.0)
        } else {
            let i = pts.partition_point(|p| p.0 <= x).min(pts.len() - 1);
            let (a, b) = (pts[i - 1], pts[i]);
            a.1 + (x - a.0) * (b.1 - a.1) / (b.0 - a.0)
        };
        y.exp()
    };
    let x = n / guest_beta_at_n;
    numeric_host_size_from(profile, x, n)
}

/// A (guest, host) cell of Tables 1–3: symbolic bound plus numeric samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostSizeCell {
    /// Guest family name.
    pub guest: String,
    /// Host family name.
    pub host: String,
    /// Symbolic bound rendered like the paper's cell.
    pub bound: String,
    /// The growth class behind it.
    pub bound_class: HostSizeBound,
    /// Numeric crossovers at the sampled guest sizes.
    pub samples: Vec<(u64, f64)>,
}

/// Compute a full table cell with numeric samples at the given guest sizes.
pub fn host_size_cell(guest: &Family, host: &Family, guest_sizes: &[u64]) -> HostSizeCell {
    let bound_class = max_host_size(guest, host);
    let samples = guest_sizes
        .iter()
        .map(|&n| (n, numeric_host_size(guest, host, n as f64)))
        .collect();
    HostSizeCell {
        guest: guest.id(),
        host: host.id(),
        bound: bound_class.to_cell(),
        bound_class,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constrained(guest: &Family, host: &Family) -> Asym {
        match max_host_size(guest, host) {
            HostSizeBound::Constrained(a) => a,
            HostSizeBound::FullSize => panic!("expected constrained"),
        }
    }

    // ---- Table 1: mesh-class guests ----

    #[test]
    fn mesh_guest_on_constant_beta_hosts() {
        // |H| = O(n^{1/j}) for linear array / tree / bus / weak PPN hosts.
        // j = 1 degenerates to full size: a 1-d mesh *is* linear-array class.
        for host in [
            Family::LinearArray,
            Family::Tree,
            Family::GlobalBus,
            Family::WeakPpn,
        ] {
            assert_eq!(
                max_host_size(&Family::Mesh(1), &host),
                HostSizeBound::FullSize,
                "{host}"
            );
            for j in 2..=3u8 {
                let m = constrained(&Family::Mesh(j), &host);
                assert!(m.same_class(&Asym::n_pow(1, j as i64)), "j={j} {host}: {m}");
            }
        }
    }

    #[test]
    fn mesh_guest_on_xtree_gains_lg() {
        let m = constrained(&Family::Mesh(2), &Family::XTree);
        assert!(m.same_class(&(Asym::n_pow(1, 2) * Asym::lg())), "{m}");
    }

    #[test]
    fn mesh_guest_on_lower_dim_mesh_hosts() {
        // |H| = O(n^{k/j}) for Mesh_k / Pyramid_k / Multigrid_k / MoT_k, k<j.
        // Pyramid(1)/Multigrid(1) are X-Tree class (β = Θ(lg m)) and gain a
        // lg factor instead.
        for (j, k) in [(2u8, 1u8), (3, 1), (3, 2)] {
            for host in [Family::Mesh(k), Family::MeshOfTrees(k), Family::XGrid(k)] {
                let m = constrained(&Family::Mesh(j), &host);
                assert!(
                    m.same_class(&Asym::n_pow(k as i64, j as i64)),
                    "j={j} k={k} {host}: {m}"
                );
            }
            for host in [Family::Pyramid(k), Family::Multigrid(k)] {
                let m = constrained(&Family::Mesh(j), &host);
                let expect = if k == 1 {
                    Asym::n_pow(1, j as i64) * Asym::lg()
                } else {
                    Asym::n_pow(k as i64, j as i64)
                };
                assert!(m.same_class(&expect), "j={j} k={k} {host}: {m}");
            }
        }
    }

    #[test]
    fn mesh_guest_on_same_dim_mesh_is_full_size() {
        assert_eq!(
            max_host_size(&Family::Mesh(2), &Family::Mesh(2)),
            HostSizeBound::FullSize
        );
        assert_eq!(
            max_host_size(&Family::Torus(3), &Family::XGrid(3)),
            HostSizeBound::FullSize
        );
    }

    // ---- Table 2: mesh-of-trees / multigrid / pyramid guests ----

    #[test]
    fn hierarchical_guests_match_mesh_guests() {
        // Same β as meshes ⇒ same host caps.
        for guest in [
            Family::MeshOfTrees(2),
            Family::Multigrid(2),
            Family::Pyramid(2),
        ] {
            let m = constrained(&guest, &Family::LinearArray);
            assert!(m.same_class(&Asym::n_pow(1, 2)), "{guest}: {m}");
            let m = constrained(&guest, &Family::XTree);
            assert!(
                m.same_class(&(Asym::n_pow(1, 2) * Asym::lg())),
                "{guest}: {m}"
            );
            let m = constrained(&guest, &Family::Mesh(1));
            assert!(m.same_class(&Asym::n_pow(1, 2)), "{guest}: {m}");
        }
    }

    // ---- Table 3: butterfly-class guests ----

    #[test]
    fn butterfly_class_guest_on_constant_hosts_is_polylog() {
        for guest in [
            Family::Butterfly,
            Family::DeBruijn,
            Family::ShuffleExchange,
            Family::Ccc,
            Family::Multibutterfly,
            Family::Expander,
            Family::WeakHypercube,
        ] {
            let m = constrained(&guest, &Family::LinearArray);
            assert!(m.same_class(&Asym::lg()), "{guest}: {m}");
        }
    }

    #[test]
    fn butterfly_guest_on_xtree_is_lg_lglg() {
        let m = constrained(&Family::Butterfly, &Family::XTree);
        assert!(m.same_class(&(Asym::lg() * Asym::lglg())), "{m}");
    }

    #[test]
    fn de_bruijn_on_mesh_k_is_lg_to_the_k() {
        // The introduction's example: m = O(lg^2 n) for the 2-d mesh.
        for k in 1..=3i64 {
            let m = constrained(&Family::DeBruijn, &Family::Mesh(k as u8));
            assert!(m.same_class(&Asym::lg_pow(k, 1)), "k={k}: {m}");
        }
    }

    #[test]
    fn butterfly_on_butterfly_is_full_size() {
        for host in [Family::Butterfly, Family::DeBruijn, Family::Ccc] {
            assert_eq!(
                max_host_size(&Family::ShuffleExchange, &host),
                HostSizeBound::FullSize
            );
        }
    }

    // ---- numeric agreement ----

    #[test]
    fn numeric_matches_symbolic_for_intro_example() {
        let n = (1u64 << 20) as f64;
        let m = numeric_host_size(&Family::DeBruijn, &Family::Mesh(2), n);
        let sym = Asym::lg_pow(2, 1).eval(n);
        let ratio = m / sym;
        assert!(ratio > 0.3 && ratio < 3.0, "m {m} sym {sym}");
    }

    #[test]
    fn numeric_host_sizes_grow_with_guest() {
        let a = numeric_host_size(&Family::Mesh(2), &Family::LinearArray, 1024.0);
        let b = numeric_host_size(&Family::Mesh(2), &Family::LinearArray, 65536.0);
        assert!(b > a);
        // n^{1/2}: 65536 -> 256-ish.
        assert!((b - 256.0).abs() < 64.0, "b {b}");
    }

    #[test]
    fn empirical_host_size_matches_analytic_on_synthetic_data() {
        // Host = 2-d mesh with β̂ = 1.5·sqrt(m) "measured" samples; guest
        // de Bruijn with β̂(n) = 1.2·n/lg n at n = 2^20. Analytic crossover
        // with these constants: m/β_H(m) = n/β_G(n) ⇒ sqrt(m)/1.5 = lg n/1.2.
        let n = (1u64 << 20) as f64;
        let samples: Vec<(f64, f64)> = [16.0, 64.0, 256.0, 1024.0]
            .iter()
            .map(|&m: &f64| (m, 1.5 * m.sqrt()))
            .collect();
        let guest_beta = 1.2 * n / n.log2();
        let m = empirical_host_size(guest_beta, n, &samples);
        let expected = (1.5 * 20.0 / 1.2_f64).powi(2);
        assert!(
            (m - expected).abs() / expected < 0.05,
            "m {m} expected {expected}"
        );
    }

    #[test]
    fn empirical_host_size_extrapolates_beyond_samples() {
        // Crossover above the largest sample: log-log extrapolation.
        let n = (1u64 << 26) as f64;
        let samples: Vec<(f64, f64)> = [16.0, 64.0, 256.0]
            .iter()
            .map(|&m: &f64| (m, m.sqrt()))
            .collect();
        let guest_beta = n / n.log2(); // lg n = 26 -> m* = 26² = 676 > 256
        let m = empirical_host_size(guest_beta, n, &samples);
        assert!((m - 676.0).abs() / 676.0 < 0.05, "m {m}");
    }

    #[test]
    #[should_panic(expected = "two host samples")]
    fn empirical_needs_samples() {
        let _ = empirical_host_size(10.0, 100.0, &[(4.0, 2.0)]);
    }

    #[test]
    fn cells_carry_samples() {
        let cell = host_size_cell(&Family::Mesh(2), &Family::Tree, &[1024, 4096]);
        assert_eq!(cell.samples.len(), 2);
        assert_eq!(cell.bound, "O(n^(1/2))");
        assert!(cell.samples[1].1 > cell.samples[0].1);
    }
}
