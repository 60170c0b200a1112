//! Fixed-bucket histograms.
//!
//! Every histogram in the workspace shares one static bucket layout —
//! power-of-two edges — so histograms can be merged bucket-by-bucket with
//! plain `u64` additions, which is what makes per-worker shard merging both
//! cheap and **order-independent** (integer addition commutes; there is no
//! floating-point accumulation anywhere in the metric pipeline).
//!
//! Layout: bucket `0` holds the value `0`; bucket `i` (for `1 <= i <= 32`)
//! holds values in `[2^(i-1), 2^i)`; the last bucket holds everything
//! `>= 2^32`. The inclusive upper bound of bucket `i < 33` is therefore
//! `2^i - 1`, and the last bucket renders as `+Inf` in the Prometheus
//! exposition.

/// Number of buckets in every histogram.
pub const HIST_BUCKETS: usize = 34;

/// Bucket index of a recorded value (see the module docs for the layout).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, or `None` for the overflow bucket
/// (rendered as `+Inf`).
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= HIST_BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

/// A plain (non-atomic) histogram: the unit of per-worker sharding and the
/// value type of snapshots.
///
/// `count` is always the sum of `buckets`, and `sum` is the exact sum of
/// recorded values (so mean occupancy etc. can be recovered from a
/// snapshot without the raw series).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHistogram {
    /// Per-bucket observation counts (layout in the module docs).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Merge another histogram into this one (bucket-wise addition — the
    /// associative, commutative shard-merge operation).
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bucket-wise `self - baseline` (saturating), for delta snapshots.
    pub fn saturating_sub(&self, baseline: &LocalHistogram) -> LocalHistogram {
        let mut out = LocalHistogram::new();
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(baseline.buckets[i]);
        }
        out.count = self.count.saturating_sub(baseline.count);
        out.sum = self.sum.wrapping_sub(baseline.sum);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index((1 << 32) - 1), 32);
        assert_eq!(bucket_index(1 << 32), 33);
        assert_eq!(bucket_index(u64::MAX), 33);
    }

    #[test]
    fn upper_bounds_match_indexing() {
        for i in 0..HIST_BUCKETS {
            match bucket_upper_bound(i) {
                Some(ub) => {
                    assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
                    assert_eq!(bucket_index(ub + 1), i + 1);
                }
                None => assert_eq!(i, HIST_BUCKETS - 1),
            }
        }
    }

    #[test]
    fn record_and_merge() {
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        let mut all = LocalHistogram::new();
        for v in [0u64, 1, 5, 9, 1000] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 5, 1 << 40] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        assert_eq!(merged.count, 8);
    }

    #[test]
    fn saturating_sub_is_a_delta() {
        let mut base = LocalHistogram::new();
        base.record(3);
        let mut now = base.clone();
        now.record(100);
        let d = now.saturating_sub(&base);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 100);
        assert_eq!(d.buckets[bucket_index(100)], 1);
    }
}
