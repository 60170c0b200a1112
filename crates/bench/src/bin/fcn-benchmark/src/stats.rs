//! Order statistics for timings.

/// Percentiles the benchmark considers reporting, lowest first.
const CANDIDATE_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// 1-based nearest rank of percentile `p` among `n` samples: `⌈p·n/100⌉`,
/// with a small allowance so `99.9 · 10000 / 100` rounds to 9990, not 9991.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest candidate percentile with at least ten samples beyond it:
/// a tail percentile with fewer is one or two samples, not a distribution.
pub fn highest_reportable(n: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// Sort ascending (timings are finite).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// spreads read the same here and in any script checking them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(beyond(10, 90.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_reportable(0), None);
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(99), Some(50.0));
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(1000), Some(99.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
