//! Log-log regression: recover Θ-class exponents from measured data.
//!
//! The Table 4 reproduction measures delivery rates `β̂(n)` at a sweep of
//! machine sizes and asks "which `n^a lg^b n` class is this?". We answer by
//! least-squares fitting `lg y = a·lg n + b·lg lg n + c` and then snapping
//! `a` to the nearest small rational (the paper's exponents all have
//! denominator ≤ 6).

use serde::{Deserialize, Serialize};

use crate::expr::Asym;
use crate::rational::Rational;

/// Result of a log-log fit `y ≈ 2^c * n^a * (lg n)^b`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PowerLogFit {
    /// Exponent of `n`.
    pub pow_n: f64,
    /// Exponent of `lg n`.
    pub pow_lg: f64,
    /// Constant coefficient (not `lg`-ed).
    pub coeff: f64,
    /// Root-mean-square residual in `lg y` units.
    pub rms_residual: f64,
}

impl PowerLogFit {
    /// Snap the fitted exponents to the nearest rationals with denominator at
    /// most `max_den`, returning the implied growth class.
    pub fn snap(&self, max_den: i64) -> Asym {
        Asym::one()
            .with_pow_n(snap_rational(self.pow_n, max_den))
            .with_pow_lg(snap_rational(self.pow_lg, max_den))
            .with_coeff(self.coeff.max(f64::MIN_POSITIVE))
    }

    /// Evaluate the fitted model at `n`.
    pub fn eval(&self, n: f64) -> f64 {
        let lg = n.log2().max(1.0);
        self.coeff * n.powf(self.pow_n) * lg.powf(self.pow_lg)
    }
}

/// Nearest rational `p/q` with `1 <= q <= max_den` to `x`.
pub fn snap_rational(x: f64, max_den: i64) -> Rational {
    let mut best = Rational::int(x.round() as i64);
    let mut best_err = (x - best.to_f64()).abs();
    for q in 1..=max_den {
        let p = (x * q as f64).round() as i64;
        let cand = Rational::new(p, q);
        let err = (x - cand.to_f64()).abs();
        if err + 1e-12 < best_err {
            best = cand;
            best_err = err;
        }
    }
    best
}

/// Solve a small dense linear system `a x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` for (numerically) singular systems.
pub fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    assert!(a.len() == n && a.iter().all(|r| r.len() == n));
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            let (pivot_row, target_row) = {
                let (top, bottom) = a.split_at_mut(row);
                (&top[col], &mut bottom[0])
            };
            for (t, p) in target_row[col..n].iter_mut().zip(&pivot_row[col..n]) {
                *t -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in (col + 1)..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

/// Least-squares fit of `lg y = a lg n + b lg lg n + c` over `(n, y)` samples.
///
/// Requires at least 3 samples with distinct `n` spanning enough range for
/// `lg lg n` to vary; with exactly-collinear inputs the `lg lg` column is
/// dropped and a plain power law is fitted instead.
///
/// # Panics
/// Panics if fewer than 2 samples are provided or any sample is nonpositive.
pub fn fit_power_log(samples: &[(f64, f64)]) -> PowerLogFit {
    assert!(samples.len() >= 2, "need at least two samples to fit");
    for &(n, y) in samples {
        assert!(n > 1.0 && y > 0.0, "samples must have n > 1, y > 0");
    }
    // Design matrix columns: [lg n, lg lg n, 1]; response: lg y.
    let rows: Vec<[f64; 3]> = samples
        .iter()
        .map(|&(n, _)| {
            let lg = n.log2();
            [lg, lg.log2().max(0.0), 1.0]
        })
        .collect();
    let ys: Vec<f64> = samples.iter().map(|&(_, y)| y.log2()).collect();

    let fit3 = normal_equations(&rows, &ys, 3);
    let (a, b, c) = match fit3 {
        Some(x) => (x[0], x[1], x[2]),
        None => {
            // Drop the lg lg column (collinear) and fit a pure power law.
            let rows2: Vec<[f64; 3]> = rows.iter().map(|r| [r[0], r[2], 0.0]).collect();
            #[expect(
                clippy::expect_used,
                reason = "two-column system with distinct sample sizes is nonsingular by construction"
            )]
            let x = normal_equations(&rows2, &ys, 2).expect("power-law fit is nonsingular");
            (x[0], 0.0, x[1])
        }
    };

    let mut sq = 0.0;
    for (r, &ly) in rows.iter().zip(&ys) {
        let pred = a * r[0] + b * r[1] + c;
        sq += (pred - ly) * (pred - ly);
    }
    PowerLogFit {
        pow_n: a,
        pow_lg: b,
        coeff: c.exp2(),
        rms_residual: (sq / samples.len() as f64).sqrt(),
    }
}

/// Classify samples into the best-fitting growth class from a discrete
/// candidate set.
///
/// Free regression of `lg y` on `(lg n, lg lg n)` is ill-conditioned over
/// realistic size ranges (the two columns are nearly collinear), so instead
/// of trusting the free exponents we score each *candidate class*
/// `n^a (lg n)^b`: fit only the constant, and measure the RMS residual.
/// Candidates are exactly the classes appearing in Table 4, so this is a
/// discrete hypothesis test, not an estimation problem.
///
/// Returns the winning class (with fitted coefficient) and its residual.
pub fn classify_growth(samples: &[(f64, f64)], candidates: &[Asym]) -> (Asym, f64) {
    assert!(!candidates.is_empty() && samples.len() >= 2);
    let mut best: Option<(Asym, f64)> = None;
    for cand in candidates {
        // lg y - lg cand(n) should be constant; residual = stddev.
        let resids: Vec<f64> = samples
            .iter()
            .map(|&(n, y)| y.log2() - cand.eval(n).log2())
            .collect();
        let mean = resids.iter().sum::<f64>() / resids.len() as f64;
        let var = resids.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / resids.len() as f64;
        let rms = var.sqrt();
        if best.as_ref().is_none_or(|(_, b)| rms < *b) {
            best = Some((cand.with_coeff(mean.exp2().max(f64::MIN_POSITIVE)), rms));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "the assert at function entry guarantees at least one candidate was scored"
    )]
    best.expect("nonempty candidates")
}

/// Classify with an additive offset: score each candidate class under the
/// model `y ≈ c₁·class(n) + c₀` (least squares in `(1, class)`), returning
/// the winner and its *relative* RMS residual.
///
/// Distance data needs this: a tree's average distance is `2·lg n − c`, and
/// the constant offset makes purely multiplicative fitting prefer small
/// power laws over the true `lg n`. The offset model is exact for every
/// Table 4 λ entry. Candidates whose best `c₁` is nonpositive are rejected.
pub fn classify_growth_offset(samples: &[(f64, f64)], candidates: &[Asym]) -> (Asym, f64) {
    assert!(!candidates.is_empty() && samples.len() >= 2);
    if samples.len() < 3 {
        // Two points cannot support a two-parameter model per candidate;
        // fall back to the multiplicative classifier.
        return classify_growth(samples, candidates);
    }
    let mean_y = samples.iter().map(|&(_, y)| y).sum::<f64>() / samples.len() as f64;
    // Θ(1) baseline: the offset alone must be beaten by any growing class.
    let const_rms = {
        let var = samples
            .iter()
            .map(|&(_, y)| (y - mean_y) * (y - mean_y))
            .sum::<f64>()
            / samples.len() as f64;
        var.sqrt() / mean_y.max(f64::MIN_POSITIVE)
    };
    let constant = (
        Asym::one().with_coeff(mean_y.max(f64::MIN_POSITIVE)),
        const_rms,
    );
    // Saturation guard: data whose total relative variation is tiny is a
    // constant, even if a slowly-growing class happens to model its drift
    // (e.g. a flux bound approaching its asymptote, 4(n-1)/n → 4).
    {
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for &(_, y) in samples {
            lo = lo.min(y);
            hi = hi.max(y);
        }
        if hi - lo < 0.05 * mean_y {
            return constant;
        }
    }
    let mut best: Option<(Asym, f64)> = None;
    for cand in candidates {
        let xs: Vec<f64> = samples.iter().map(|&(n, _)| cand.eval(n)).collect();
        let ys: Vec<f64> = samples.iter().map(|&(_, y)| y).collect();
        let k = xs.len() as f64;
        let (sx, sy) = (xs.iter().sum::<f64>(), ys.iter().sum::<f64>());
        let sxx = xs.iter().map(|x| x * x).sum::<f64>();
        let sxy = xs.iter().zip(&ys).map(|(x, y)| x * y).sum::<f64>();
        let denom = k * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            continue; // constant candidate cannot explain varying data
        }
        let c1 = (k * sxy - sx * sy) / denom;
        if c1 <= 0.0 {
            continue;
        }
        let c0 = (sy - c1 * sx) / k;
        let rss: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| {
                let e = y - (c1 * x + c0);
                e * e
            })
            .sum();
        let rel_rms = (rss / k).sqrt() / mean_y.max(f64::MIN_POSITIVE);
        if best.as_ref().is_none_or(|(_, b)| rel_rms < *b) {
            best = Some((cand.with_coeff(c1.max(f64::MIN_POSITIVE)), rel_rms));
        }
    }
    // Occam margin vs the Θ(1) baseline: a growing class must beat the
    // constant fit clearly (25%), so measurement noise on flat data cannot
    // promote Θ(1) to a slowly-growing class.
    match best {
        Some((cand, rms)) if rms < 0.75 * constant.1 => (cand, rms),
        _ => constant,
    }
}

/// The candidate growth classes appearing in the paper's Table 4 β column
/// (plus a few neighbors so misfits are detectable).
pub fn table4_candidates() -> Vec<Asym> {
    let mut out = vec![
        Asym::one(),
        Asym::lg(),
        Asym::lg_pow(2, 1),
        Asym::n() / Asym::lg(),
        Asym::n(),
    ];
    for (p, q) in [(1i64, 4i64), (1, 3), (1, 2), (2, 3), (3, 4)] {
        out.push(Asym::n_pow(p, q));
    }
    out
}

/// Solve the normal equations for the first `k` columns of 3-wide rows.
fn normal_equations(rows: &[[f64; 3]], ys: &[f64], k: usize) -> Option<Vec<f64>> {
    let mut ata = vec![vec![0.0; k]; k];
    let mut atb = vec![0.0; k];
    for (r, &y) in rows.iter().zip(ys) {
        for i in 0..k {
            for (j, cell) in ata[i].iter_mut().enumerate() {
                *cell += r[i] * r[j];
            }
            atb[i] += r[i] * y;
        }
    }
    solve_dense(&mut ata, &mut atb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(f: impl Fn(f64) -> f64, ns: &[f64]) -> Vec<(f64, f64)> {
        ns.iter().map(|&n| (n, f(n))).collect()
    }

    const NS: [f64; 8] = [64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0, 65536.0];

    #[test]
    fn fits_pure_power_law() {
        let data = synth(|n| 2.5 * n.powf(0.5), &NS);
        let fit = fit_power_log(&data);
        assert!((fit.pow_n - 0.5).abs() < 0.02, "pow_n = {}", fit.pow_n);
        assert!(fit.rms_residual < 0.05);
        assert_eq!(fit.snap(6).pow_n, Rational::new(1, 2));
    }

    #[test]
    fn fits_n_over_lg() {
        let data = synth(|n| n / n.log2(), &NS);
        let fit = fit_power_log(&data);
        assert!((fit.pow_n - 1.0).abs() < 0.05, "pow_n = {}", fit.pow_n);
        assert!((fit.pow_lg + 1.0).abs() < 0.35, "pow_lg = {}", fit.pow_lg);
        let snapped = fit.snap(1);
        assert_eq!(snapped.pow_n, Rational::ONE);
        assert_eq!(snapped.pow_lg, Rational::int(-1));
    }

    #[test]
    fn fits_two_thirds_power() {
        let data = synth(|n| 0.7 * n.powf(2.0 / 3.0), &NS);
        let fit = fit_power_log(&data);
        assert_eq!(fit.snap(6).pow_n, Rational::new(2, 3));
    }

    #[test]
    fn snap_rational_prefers_small_denominators() {
        assert_eq!(snap_rational(0.501, 6), Rational::new(1, 2));
        assert_eq!(snap_rational(0.667, 6), Rational::new(2, 3));
        assert_eq!(snap_rational(-0.99, 6), Rational::int(-1));
        assert_eq!(snap_rational(0.0, 6), Rational::ZERO);
    }

    #[test]
    fn eval_reproduces_samples() {
        let data = synth(|n| 4.0 * n.powf(0.75), &NS);
        let fit = fit_power_log(&data);
        for &(n, y) in &data {
            assert!((fit.eval(n) - y).abs() / y < 0.25);
        }
    }

    #[test]
    fn classify_picks_sqrt_for_mesh_like_data() {
        // Noisy c·sqrt(n) data: the free 3-param fit is unstable here, but
        // classification is not.
        let noise = [1.1, 0.92, 1.05, 0.9, 1.15, 0.95, 1.0, 1.08];
        let data: Vec<(f64, f64)> = NS
            .iter()
            .zip(noise)
            .map(|(&n, z)| (n, 3.0 * n.sqrt() * z))
            .collect();
        let (class, rms) = classify_growth(&data, &table4_candidates());
        assert_eq!(class.pow_n, Rational::new(1, 2));
        assert!(class.pow_lg.is_zero());
        assert!(rms < 0.3);
        assert!((class.coeff - 3.0).abs() < 0.6, "coeff {}", class.coeff);
    }

    #[test]
    fn classify_separates_n_over_lg_from_n() {
        let data = synth(|n| 0.5 * n / n.log2(), &NS);
        let (class, _) = classify_growth(&data, &table4_candidates());
        assert_eq!(class.pow_n, Rational::ONE);
        assert_eq!(class.pow_lg, Rational::int(-1));
    }

    #[test]
    fn classify_constant_class() {
        let data = synth(|_| 2.2, &NS);
        let (class, rms) = classify_growth(&data, &table4_candidates());
        assert!(class.is_constant());
        assert!(rms < 1e-9);
    }

    #[test]
    fn dense_solver_3x3() {
        let mut a = vec![
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ];
        let mut b = vec![8.0, -11.0, -3.0];
        let x = solve_dense(&mut a, &mut b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn dense_solver_detects_singular() {
        let mut a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut b = vec![1.0, 2.0];
        assert!(solve_dense(&mut a, &mut b).is_none());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn fit_requires_samples() {
        let _ = fit_power_log(&[(4.0, 2.0)]);
    }
}

#[cfg(test)]
mod offset_tests {
    use super::*;

    const NS: [f64; 6] = [64.0, 128.0, 256.0, 1024.0, 4096.0, 16384.0];

    #[test]
    fn offset_classifier_sees_through_additive_constants() {
        // Tree average distance shape: 2 lg n - 4.
        let data: Vec<(f64, f64)> = NS.iter().map(|&n| (n, 2.0 * n.log2() - 4.0)).collect();
        let (class, rms) = classify_growth_offset(&data, &table4_candidates());
        assert!(class.pow_n.is_zero(), "{class:?}");
        assert_eq!(class.pow_lg, Rational::ONE, "{class:?}");
        assert!(rms < 1e-9);
    }

    #[test]
    fn offset_classifier_mesh_diameter_shape() {
        // 3(side - 1) with n = side^3.
        let data: Vec<(f64, f64)> = NS
            .iter()
            .map(|&n| (n, 3.0 * (n.powf(1.0 / 3.0) - 1.0)))
            .collect();
        let (class, _) = classify_growth_offset(&data, &table4_candidates());
        assert_eq!(class.pow_n, Rational::new(1, 3), "{class:?}");
    }

    #[test]
    fn offset_classifier_constant_data() {
        let data: Vec<(f64, f64)> = NS.iter().map(|&n| (n, 2.0)).collect();
        let (class, rms) = classify_growth_offset(&data, &table4_candidates());
        assert!(class.is_constant(), "{class:?}");
        assert!(rms < 1e-12);
    }
}
