//! Property tests for per-worker shard merging.
//!
//! The pool's telemetry contract is: each worker records its jobs' metrics
//! into its own shard, and the caller merges the worker shards in whatever
//! order they finish. Every instrument is a sum, so these properties pin
//! down why that is safe at any `--jobs N`:
//!
//! * merged shards equal the single-threaded shard for the same job set,
//!   whichever worker ran which job and in whichever order the workers'
//!   shards merge (worker-count and schedule independence), and
//! * the merge is associative, so any contiguous grouping of jobs onto
//!   workers gives the same result.

use fcn_telemetry::names::{
    BANDWIDTH_CELL_TICKS, EXEC_JOBS_TOTAL, ROUTER_ABORTS_TOTAL, ROUTER_HOPS_TOTAL,
    ROUTER_QUEUE_OCCUPANCY, SPAN_FLUX,
};
use fcn_telemetry::{LocalHistogram, LocalShard};
use proptest::prelude::*;

/// One synthetic job's worth of metric activity, derived from a `u64` draw.
/// Values are kept small (`u32`-ish) so histogram sums cannot overflow even
/// across hundreds of jobs.
fn apply_job(shard: &mut LocalShard, draw: u64) {
    let v = draw & 0xffff_ffff;
    shard.add(EXEC_JOBS_TOTAL, 1);
    shard.add(ROUTER_HOPS_TOTAL, v % 97);
    shard.record(ROUTER_QUEUE_OCCUPANCY, v % 1024);
    shard.record(BANDWIDTH_CELL_TICKS, v >> 16);
    if v.is_multiple_of(3) {
        shard.inc(ROUTER_ABORTS_TOTAL);
    }
    shard.record_span(SPAN_FLUX, v % 1000);
}

/// Run jobs `lo..hi` into a fresh shard (the "one worker owns this
/// contiguous chunk" model).
fn run_chunk(draws: &[u64], lo: usize, hi: usize) -> LocalShard {
    let mut s = LocalShard::new();
    for &d in &draws[lo..hi] {
        apply_job(&mut s, d);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dealing the job list to any number of workers, one shard each, and
    /// merging the worker shards in any order reproduces the
    /// single-threaded shard exactly — counters, histograms and spans.
    #[test]
    fn merged_worker_shards_equal_single_threaded(
        draws in proptest::collection::vec(proptest::strategy::any::<u64>(), 1..80),
        workers in 1usize..9,
        rotate in 0usize..9,
    ) {
        let single = run_chunk(&draws, 0, draws.len());

        // Deal jobs to workers: worker w runs indices {w, w+workers, ...}
        // into its one shard, as a pool worker keeps its thread shard
        // across its jobs.
        let mut per_worker = vec![LocalShard::new(); workers];
        for (i, &d) in draws.iter().enumerate() {
            apply_job(&mut per_worker[i % workers], d);
        }
        // Workers finish in any order: merge from a rotated start, backwards.
        per_worker.rotate_left(rotate % workers);
        let mut merged = LocalShard::new();
        for s in per_worker.iter().rev() {
            merged.merge(s);
        }
        prop_assert_eq!(&merged, &single);
    }

    /// Contiguous chunking (another valid work division) also matches, and
    /// the merge is associative: ((a+b)+c) == (a+(b+c)).
    #[test]
    fn chunked_merge_is_associative(
        draws in proptest::collection::vec(proptest::strategy::any::<u64>(), 3..60),
        cut_a in 1usize..20,
        cut_b in 1usize..20,
    ) {
        let n = draws.len();
        let i = cut_a % (n - 1) + 1; // 1..n
        let j = i + cut_b % (n - i); // i..n
        let (a, b, c) = (run_chunk(&draws, 0, i), run_chunk(&draws, i, j), run_chunk(&draws, j, n));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        let single = run_chunk(&draws, 0, n);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &single);
    }

    /// Histogram merging alone (the piece the router leans on hardest) is
    /// commutative and matches interleaved recording.
    #[test]
    fn histogram_merge_commutes(
        xs in proptest::collection::vec(proptest::strategy::any::<u64>(), 0..50),
        ys in proptest::collection::vec(proptest::strategy::any::<u64>(), 0..50),
    ) {
        let mut hx = LocalHistogram::new();
        for &v in &xs { hx.record(v); }
        let mut hy = LocalHistogram::new();
        for &v in &ys { hy.record(v); }

        let mut xy = hx.clone();
        xy.merge(&hy);
        let mut yx = hy.clone();
        yx.merge(&hx);
        prop_assert_eq!(&xy, &yx);

        let mut all = LocalHistogram::new();
        for &v in xs.iter().chain(ys.iter()) { all.record(v); }
        prop_assert_eq!(&xy, &all);
    }
}
