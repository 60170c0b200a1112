#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! Deterministic fork-join execution for sweep workloads.
//!
//! The workspace's hot paths — saturation sweeps over `trials ×
//! multipliers` grids, family sweeps over their machines' trial, flux and
//! distance pieces, and bottleneck audits over demand distributions — are
//! embarrassingly parallel, but naive parallelization destroys reproducibility: when jobs
//! share one sequential RNG, the answer depends on which thread draws
//! first.
//!
//! [`Pool`] fixes this with two rules:
//!
//! 1. **Seeds are a pure function of the job index.** [`job_seed`] derives
//!    each job's seed as a SplitMix64 mix of `(base_seed, job_index)`, so a
//!    job's entropy never depends on what other jobs ran before it.
//! 2. **Results are returned in job-index order**, whatever order the
//!    worker threads finished in.
//!
//! Together these make `pool.run(n, |i| f(i, job_seed(seed, i)))`
//! bit-identical for any worker count — `--jobs 8` and `--jobs 1` produce
//! the same bytes — which the `tests/determinism.rs` suite checks end to
//! end.
//!
//! ## Telemetry
//!
//! The pool is also the merge point of the [`fcn_telemetry`] shard design:
//! when the global registry is enabled, each worker takes its thread-local
//! shard once, after its last job, and the worker shards are merged into
//! the calling thread's shard in whatever order the workers finish. Every
//! metric is a `u64` sum, so the merged totals are bit-identical to a
//! `--jobs 1` run whichever worker ran which job. The pool additionally
//! reports its own `exec_*` metrics (runs, jobs, workers, per-worker
//! busy/idle nanos; the nano counters are wall-clock and excluded from
//! determinism comparisons). When the registry is disabled all of this
//! costs one relaxed load per `run` call.
//!
//! ## Locks
//!
//! [`sync::Lock`] is the workspace's one mutex type, used by this pool, the
//! [`Watchdog`], the routing plan cache and every `fcn-serve` service lock.
//! The lock order is flat: no `Lock` is taken while another is held, which
//! debug builds check at every acquisition. The telemetry registry's
//! private mutex is the one leaf below them all.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

pub mod sync;

use sync::Lock;

/// Domain separator for deterministic retry seeds: retry attempt `k` of job
/// `i` re-runs with `job_seed(base ⊕ job_seed(RETRY_STREAM, k), i)`, so the
/// retry schedule is a pure function of `(base seed, job index, attempt)` —
/// reproducible on any worker count, yet decorrelated from the failing draw.
pub const RETRY_STREAM: u64 = 0x7e72_a110_0000_0001;

/// The seed for attempt `attempt` (0 = first try) of job `job_index`.
///
/// Attempt 0 is exactly [`job_seed`]`(base_seed, job_index)`, so a first
/// try draws the seed an un-retried job would.
#[inline]
pub fn retry_seed(base_seed: u64, job_index: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        job_seed(base_seed, job_index)
    } else {
        job_seed(
            base_seed ^ job_seed(RETRY_STREAM, attempt as u64),
            job_index,
        )
    }
}

/// Deterministic exponential backoff with decorrelated jitter, milliseconds.
///
/// The delay before retry `attempt` (1 = first retry; 0 returns 0 — the
/// first *attempt* waits for nothing) of logical request `index` is drawn
/// uniformly from `[base_ms, window]` where `window = min(cap_ms,
/// base_ms << (attempt - 1))` doubles per attempt. The draw comes from
/// [`retry_seed`]`(seed, index, attempt)`, so the whole schedule is a pure
/// function of `(seed, index, attempt)` — byte-identical at any client
/// concurrency — yet decorrelated across requests and attempts (no
/// thundering herd of synchronized retries).
#[inline]
pub fn backoff_ms(seed: u64, index: u64, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    if attempt == 0 {
        return 0;
    }
    let base = base_ms.max(1);
    let cap = cap_ms.max(base);
    let doubling = 1u64 << (attempt - 1).min(32);
    let window = base.saturating_mul(doubling).min(cap);
    let span = window - base; // window ≥ base by construction
    base + retry_seed(seed, index, attempt) % (span + 1)
}

/// SplitMix64 finalizer over a base seed and a job index.
///
/// This is the workspace-wide convention for deriving independent seed
/// streams: the same mixing constants as the SplitMix64 generator, applied
/// to `base ⊕ stream(index)`. Distinct `(base, index)` pairs map to
/// well-separated seeds, and the result does not depend on any other job.
#[inline]
pub fn job_seed(base_seed: u64, job_index: u64) -> u64 {
    let mut z = base_seed.wrapping_add(
        job_index
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Elapsed nanoseconds since `t0`, clamped into `u64`.
#[inline]
fn saturating_nanos(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Number of hardware threads, used when a job count of `0` ("auto") is
/// requested.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The most workers a [`Pool`] runs: every `--jobs` parser refuses a larger
/// value, and [`Pool::new`] caps a library caller's request here, so no
/// request can ask one `Pool::run` for more OS threads than this.
pub const MAX_JOBS: usize = 64;

/// A deterministic fork-join pool.
///
/// The pool is a *policy* object (how many workers to use); it spawns
/// scoped threads per [`Pool::run`] call and joins them before returning,
/// so borrowed data can flow into jobs freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Default for Pool {
    /// A sequential pool. Parallelism is always opt-in (`--jobs N`).
    fn default() -> Self {
        Pool::sequential()
    }
}

impl Pool {
    /// A pool with `jobs` workers; `0` means "one per hardware thread".
    /// Either is capped at [`MAX_JOBS`].
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            available_parallelism()
        } else {
            jobs
        };
        Pool {
            jobs: jobs.min(MAX_JOBS),
        }
    }

    /// A single-worker pool: jobs run on the calling thread, in order.
    pub fn sequential() -> Self {
        Pool { jobs: 1 }
    }

    /// The worker count this pool will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `count` jobs, returning results in job-index order.
    ///
    /// Jobs are handed to workers through an atomic counter, so any worker
    /// may run any job — but because each job sees only its own index (and
    /// seeds derived from it), the output vector is independent of the
    /// assignment. With one worker this degenerates to a plain loop on the
    /// calling thread, with zero thread overhead.
    pub fn run<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(count);
        let tele_on = fcn_telemetry::global().enabled();
        if workers <= 1 {
            if !tele_on {
                return (0..count).map(f).collect();
            }
            // Sequential: jobs record straight into the caller's shard, which
            // is by definition the single-threaded reference the parallel
            // path must reproduce.
            // Wall clock allowed: busy-nanos telemetry, excluded from
            // determinism comparisons.
            #[allow(clippy::disallowed_methods)]
            let start = Instant::now();
            let out: Vec<T> = (0..count).map(f).collect();
            let busy = saturating_nanos(start);
            fcn_telemetry::with_shard(|s| {
                s.inc(fcn_telemetry::names::EXEC_RUNS_TOTAL);
                s.add(fcn_telemetry::names::EXEC_JOBS_TOTAL, count as u64);
                s.inc(fcn_telemetry::names::EXEC_WORKERS_TOTAL);
                s.add(fcn_telemetry::names::EXEC_WORKER_BUSY_NANOS_TOTAL, busy);
            });
            return out;
        }
        let next = AtomicUsize::new(0);
        let slots: Lock<Vec<Option<T>>> = Lock::new((0..count).map(|_| None).collect());
        // The workers' summed busy nanos and merged shards, added to as each
        // worker finishes: every metric is a sum, so the order is free.
        let recorded: Lock<(u64, fcn_telemetry::LocalShard)> = Lock::default();
        // Wall clock allowed: busy/idle-nanos telemetry only.
        #[allow(clippy::disallowed_methods)]
        let run_start = tele_on.then(Instant::now);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut busy = 0u64;
                    loop {
                        // ordering: the only requirement is that each worker
                        // claims a distinct index, which the atomic RMW gives
                        // regardless of ordering; no other memory is
                        // published through this counter.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        #[allow(clippy::disallowed_methods)] // telemetry timing only
                        let job_start = tele_on.then(Instant::now);
                        let value = f(i);
                        if let Some(t0) = job_start {
                            busy += saturating_nanos(t0);
                        }
                        slots.lock()[i] = Some(value);
                    }
                    if tele_on {
                        // A worker thread starts with an empty shard, so
                        // this take is exactly what its jobs recorded.
                        let shard = fcn_telemetry::take_shard();
                        let mut recorded = recorded.lock();
                        recorded.0 += busy;
                        recorded.1.merge(&shard);
                    }
                });
            }
        });
        if tele_on {
            let (busy, shard) = recorded.into_inner();
            fcn_telemetry::with_shard(|s| {
                s.merge(&shard);
                s.inc(fcn_telemetry::names::EXEC_RUNS_TOTAL);
                s.add(fcn_telemetry::names::EXEC_JOBS_TOTAL, count as u64);
                s.add(fcn_telemetry::names::EXEC_WORKERS_TOTAL, workers as u64);
                // Idle is measured against the run's wall span, not each
                // worker's own lifetime: a worker that runs out of jobs
                // exits early, and its wait for the join is idle too.
                let span = run_start.map_or(0, saturating_nanos);
                let idle = (workers as u64).saturating_mul(span).saturating_sub(busy);
                s.add(fcn_telemetry::names::EXEC_WORKER_BUSY_NANOS_TOTAL, busy);
                s.add(fcn_telemetry::names::EXEC_WORKER_IDLE_NANOS_TOTAL, idle);
            });
        }
        slots
            .into_inner()
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                // A missing slot means job `i`'s closure unwound before
                // writing its result; name the culprit instead of the old
                // anonymous double-panic.
                #[expect(
                    clippy::panic,
                    reason = "deliberate panic propagation: re-raises a swallowed job panic with the job named"
                )]
                slot.unwrap_or_else(|| panic!("job {i} panicked and produced no result"))
            })
            .collect()
    }
}

/// A shared cancellation flag: cloned into workers/watchdogs, checked by
/// long loops at a natural granularity (the router checks once per
/// simulated tick via `route_compiled`'s `cancel` argument). Raising it is idempotent and never unsafe —
/// consumers stop at their next check with a typed `Cancelled` outcome.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the flag. All clones observe it.
    pub fn cancel(&self) {
        // ordering: monotone best-effort stop hint — no data is published
        // through the flag, and a tick of staleness only delays the stop.
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has the flag been raised?
    pub fn is_cancelled(&self) -> bool {
        // ordering: see `cancel` — a stale read is benign by design.
        self.0.load(Ordering::Relaxed)
    }

    /// The underlying flag, for consumers that poll a raw
    /// `&AtomicBool` (e.g. `fcn_routing::route_compiled`'s `cancel`).
    pub fn flag(&self) -> &AtomicBool {
        &self.0
    }
}

/// A wall-clock watchdog: arms a timer on a helper thread and raises a
/// [`CancelToken`] if the timer expires before the watchdog is dropped.
///
/// Dropping the watchdog disarms it (condvar wakeup + join — no dangling
/// thread, no spurious late cancellation), so the usual shape is
///
/// ```
/// use fcn_exec::Watchdog;
/// use std::time::Duration;
///
/// let dog = Watchdog::arm(Duration::from_secs(3600));
/// let cancel = dog.token().clone();
/// // ... long sweep passing `cancel.flag()` into route_compiled ...
/// assert!(!dog.fired());
/// drop(dog); // disarms
/// ```
///
/// Firing is inherently wall-clock dependent and therefore *not* part of
/// the determinism envelope; the telemetry counter
/// `exec_watchdog_fired_total` records it as an exceptional event.
#[derive(Debug)]
pub struct Watchdog {
    disarm: Arc<(Lock<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
    token: CancelToken,
}

impl Watchdog {
    /// Arm a watchdog with a fresh token.
    pub fn arm(timeout: Duration) -> Watchdog {
        let token = CancelToken::new();
        let disarm = Arc::new((Lock::new(false), Condvar::new()));
        let pair = Arc::clone(&disarm);
        let fire = token.clone();
        let handle = std::thread::spawn(move || {
            let (lock, cv) = &*pair;
            // Wall clock allowed: the watchdog *is* a wall-clock device;
            // it cancels runaway runs and never feeds simulated state.
            #[allow(clippy::disallowed_methods)]
            let deadline = Instant::now() + timeout;
            let mut disarmed = lock.lock();
            loop {
                if *disarmed {
                    return;
                }
                #[allow(clippy::disallowed_methods)] // watchdog deadline check
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, _) = disarmed.wait_timeout(cv, deadline - now);
                disarmed = g;
            }
            drop(disarmed);
            fire.cancel();
            if fcn_telemetry::global().enabled() {
                fcn_telemetry::with_shard(|s| {
                    s.inc(fcn_telemetry::names::EXEC_WATCHDOG_FIRED_TOTAL)
                });
                fcn_telemetry::flush_thread_shard(fcn_telemetry::global());
            }
        });
        Watchdog {
            disarm,
            handle: Some(handle),
            token,
        }
    }

    /// The token this watchdog will cancel.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Did the watchdog expire (i.e. is its token cancelled)?
    pub fn fired(&self) -> bool {
        self.token.is_cancelled()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        {
            let (lock, cv) = &*self.disarm;
            *lock.lock() = true;
            cv.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_are_index_pure() {
        // Seed for index 5 must not depend on whether 0..4 were computed.
        let direct = job_seed(0xbead, 5);
        let _ = job_seed(0xbead, 0);
        let _ = job_seed(0xbead, 3);
        assert_eq!(job_seed(0xbead, 5), direct);
        // Distinct indices and bases give distinct seeds.
        assert_ne!(job_seed(0xbead, 5), job_seed(0xbead, 6));
        assert_ne!(job_seed(0xbead, 5), job_seed(0xbeae, 5));
    }

    #[test]
    fn results_are_in_index_order() {
        let pool = Pool::new(4);
        let out = pool.run(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let work = |i: usize, seed: u64| {
            // A job whose output depends on both index and seed.
            (i as u64).wrapping_mul(seed) ^ seed.rotate_left(i as u32 % 64)
        };
        let seeded = |i: usize| work(i, job_seed(42, i as u64));
        let seq = Pool::sequential().run(64, seeded);
        for jobs in [2, 3, 8, 16] {
            let par = Pool::new(jobs).run(64, seeded);
            assert_eq!(par, seq, "jobs={jobs} diverged from sequential");
        }
    }

    #[test]
    fn zero_means_auto() {
        assert!(Pool::new(0).jobs() >= 1);
        assert_eq!(Pool::sequential().jobs(), 1);
    }

    #[test]
    fn empty_and_tiny_counts() {
        let pool = Pool::new(8);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 7), vec![7]);
    }

    /// Serializes the tests that switch the global telemetry registry on
    /// and off, so one cannot switch it off under another.
    static TELEMETRY: Lock<()> = Lock::new(());

    #[test]
    fn merged_job_shards_match_sequential() {
        use fcn_telemetry as tele;
        let _serial = TELEMETRY.lock();
        // Table names the pool itself never records; all comparisons are
        // against this thread's own shard.
        let work = |i: usize| {
            tele::with_shard(|s| {
                s.add(tele::names::ROUTER_RUNS_TOTAL, 1);
                s.record(tele::names::ROUTER_QUEUE_OCCUPANCY, (i as u64) % 13);
            });
            i * 3
        };
        tele::global().set_enabled(true);
        let _ = tele::take_shard();
        let seq_out = Pool::sequential().run(40, work);
        let seq = tele::take_shard();
        assert_eq!(seq.counter(tele::names::ROUTER_RUNS_TOTAL), 40);
        for jobs in [2, 4, 8] {
            let par_out = Pool::new(jobs).run(40, work);
            let par = tele::take_shard();
            assert_eq!(par_out, seq_out, "jobs={jobs} results diverged");
            assert_eq!(
                par.counter(tele::names::ROUTER_RUNS_TOTAL),
                seq.counter(tele::names::ROUTER_RUNS_TOTAL),
                "jobs={jobs}"
            );
            assert_eq!(
                par.histogram(tele::names::ROUTER_QUEUE_OCCUPANCY),
                seq.histogram(tele::names::ROUTER_QUEUE_OCCUPANCY),
                "jobs={jobs}"
            );
            assert_eq!(par.counter(fcn_telemetry::names::EXEC_JOBS_TOTAL), 40);
            assert_eq!(
                par.counter(fcn_telemetry::names::EXEC_WORKERS_TOTAL),
                jobs as u64
            );
        }
        tele::global().set_enabled(false);
    }

    #[test]
    // Spins on the wall clock on purpose: the metric under test is wall time.
    #[allow(clippy::disallowed_methods)]
    fn idle_time_counts_the_wait_at_the_join() {
        use fcn_telemetry as tele;
        let _serial = TELEMETRY.lock();
        let spin = |ms: u64| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(ms) {
                std::hint::spin_loop();
            }
            t0.elapsed()
        };
        // One long job and several short ones on two workers: whichever
        // worker does not run the long job finishes early and waits at the
        // join. Every worker's busy time lies inside the run's wall span, so
        // the idle total is at least the largest busy time minus the
        // smallest: the long job minus the short ones, less the pool's few
        // microseconds of bookkeeping per job (allowed for by 1 ms).
        tele::global().set_enabled(true);
        let _ = tele::take_shard();
        let took = Pool::new(2).run(6, |i| spin(if i == 0 { 60 } else { 2 }));
        let shard = tele::take_shard();
        tele::global().set_enabled(false);
        let idle = shard.counter(fcn_telemetry::names::EXEC_WORKER_IDLE_NANOS_TOTAL);
        let shorts: Duration = took[1..].iter().sum();
        let floor = took[0].saturating_sub(shorts + Duration::from_millis(1));
        assert!(
            idle >= floor.as_nanos() as u64,
            "idle {idle} ns below the {floor:?} tail ({took:?})"
        );
    }

    #[test]
    fn pool_caps_its_workers() {
        assert_eq!(Pool::new(MAX_JOBS + 1).jobs(), MAX_JOBS);
        assert_eq!(Pool::new(usize::MAX).jobs(), MAX_JOBS);
        assert_eq!(Pool::new(3).jobs(), 3);
    }

    #[test]
    fn borrows_flow_into_jobs() {
        let data: Vec<u64> = (0..32).collect();
        let pool = Pool::new(4);
        let out = pool.run(data.len(), |i| data[i] * 2);
        assert_eq!(out[31], 62);
    }

    #[test]
    fn retry_seed_attempt_zero_matches_job_seed() {
        for i in 0..16u64 {
            assert_eq!(retry_seed(0xfeed, i, 0), job_seed(0xfeed, i));
            assert_ne!(retry_seed(0xfeed, i, 1), job_seed(0xfeed, i));
            assert_ne!(retry_seed(0xfeed, i, 1), retry_seed(0xfeed, i, 2));
        }
    }

    #[test]
    // Testing the watchdog *is* measuring wall time (one of clippy.toml's
    // sanctioned sites); the deadline guards against a hung test, not output.
    #[allow(clippy::disallowed_methods)]
    fn watchdog_fires_and_cancels_token() {
        let dog = Watchdog::arm(Duration::from_millis(10));
        let token = dog.token().clone();
        let t0 = Instant::now();
        while !token.is_cancelled() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "watchdog never fired"
            );
            std::thread::yield_now();
        }
        assert!(dog.fired());
    }

    #[test]
    fn dropped_watchdog_does_not_fire() {
        let dog = Watchdog::arm(Duration::from_secs(3600));
        let token = dog.token().clone();
        assert!(!dog.fired());
        drop(dog); // must disarm + join promptly, not hang for an hour
        assert!(!token.is_cancelled());
        // The flag view is shared with clones.
        token.cancel();
        assert!(token.flag().load(Ordering::Relaxed));
    }

    #[test]
    // The boundary check measures wall time on purpose (sanctioned site).
    #[allow(clippy::disallowed_methods)]
    fn watchdog_fires_at_the_zero_deadline_boundary() {
        // A zero deadline is the degenerate boundary: already expired when
        // armed. The watchdog must fire promptly, not wait for a first
        // timeout tick or hang.
        let dog = Watchdog::arm(Duration::ZERO);
        let token = dog.token().clone();
        let t0 = Instant::now();
        while !token.is_cancelled() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "zero-deadline watchdog never fired"
            );
            std::thread::yield_now();
        }
        assert!(dog.fired());
    }

    #[test]
    fn backoff_schedule_is_a_pure_function_of_its_inputs() {
        for index in 0..8u64 {
            for attempt in 0..6u32 {
                let a = backoff_ms(0xdead, index, attempt, 10, 400);
                let b = backoff_ms(0xdead, index, attempt, 10, 400);
                assert_eq!(a, b, "index={index} attempt={attempt}");
            }
        }
        // Distinct requests and attempts decorrelate: not every pair may
        // differ (small windows collide), but across a spread of draws the
        // schedule must not be constant.
        let draws: std::collections::BTreeSet<u64> = (0..32u64)
            .map(|i| backoff_ms(0xdead, i, 3, 10, 4000))
            .collect();
        assert!(draws.len() > 16, "jitter collapsed: {draws:?}");
    }

    #[test]
    fn backoff_is_bounded_and_window_doubles() {
        for index in 0..64u64 {
            assert_eq!(backoff_ms(7, index, 0, 10, 400), 0, "attempt 0 waits 0");
            for attempt in 1..10u32 {
                let d = backoff_ms(7, index, attempt, 10, 400);
                let window = (10u64 << (attempt - 1)).min(400);
                assert!(
                    (10..=window).contains(&d),
                    "index={index} attempt={attempt}: {d} outside [10, {window}]"
                );
            }
        }
        // Degenerate configs never panic or exceed their cap.
        assert_eq!(backoff_ms(1, 0, 1, 0, 0), 1, "zero base clamps to 1 ms");
        assert!(backoff_ms(1, 0, 63, u64::MAX / 2, u64::MAX) >= u64::MAX / 2);
        assert_eq!(backoff_ms(1, 0, 40, 100, 100), 100, "cap pins the window");
    }
}
