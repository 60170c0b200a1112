//! A debug-build lockdep: ordered lock-rank assertions on every ranked
//! mutex acquisition.
//!
//! The workspace holds its ~dozen long-lived mutexes in a **total rank
//! order** (the [`ranks`] table). Every lock wrapper in `fcn-serve`,
//! `fcn-exec`, `fcn-routing`, and this crate acquires through
//! [`lock_ranked`], which in debug builds asserts two invariants on a
//! thread-local held-lock stack:
//!
//! 1. **Monotone acquisition** — a thread may only acquire a lock whose
//!    rank is strictly greater than every rank it already holds. Any
//!    execution that would need ranks out of order is exactly an edge of a
//!    potential deadlock cycle, caught on the *first* run that exercises
//!    it, not the unlucky interleaving that wedges.
//! 2. **Lone-lock condvar waits** — [`wait_timeout_ranked`] asserts the
//!    waited mutex is the *only* lock the thread holds. Sleeping on a
//!    condvar while holding a second lock stalls every thread that needs
//!    the held one for the full wait budget.
//!
//! In release builds the tracking compiles away entirely: [`lock_ranked`]
//! degenerates to the workspace's poison-recovering lock idiom and
//! [`LockToken`] is a zero-sized type.
//!
//! The module lives in `fcn-telemetry` only because that crate is the
//! bottom of the workspace dependency stack (the registry's own three maps
//! are ranked too); `fcn-exec` re-exports it as `fcn_exec::lockdep`, the
//! canonical path service code imports. The static half of the contract is
//! `fcn-analyze`'s LOCK-ORDER rule, which parses the [`ranks`] table and
//! checks every `lock_ranked` nesting it can see at analysis time; this
//! shim enforces the same declared order on the executions the analyzer
//! cannot see (trait objects, cross-crate calls) in every debug test run.

use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// A position in the workspace lock order: a rank number (acquisition
/// order: low ranks are outermost) and a stable diagnostic name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    rank: u32,
    name: &'static str,
}

impl LockRank {
    /// Declare a rank. Use only in the [`ranks`] table: the static
    /// LOCK-ORDER rule reads that table as the declared order.
    pub const fn new(rank: u32, name: &'static str) -> LockRank {
        LockRank { rank, name }
    }

    /// The numeric rank (low = acquired first).
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The diagnostic name, `crate.lock` convention.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// The workspace lock-rank table: the single declared acquisition order.
///
/// Seeded from the serve hierarchy (admission → registry → merge →
/// replies), then the per-run caches and pool bookkeeping, with the
/// telemetry registry maps innermost — they are leaf locks every layer
/// above may take while holding its own (`MergeQueue::complete` flushes a
/// shard into the registry under the merge lock).
pub mod ranks {
    use super::LockRank;

    /// `fcn-serve` admission queue state (`Admission::state`). Outermost:
    /// held across FIFO condvar waits, never while holding anything else.
    pub const SERVE_ADMISSION: LockRank = LockRank::new(10, "serve.admission");
    /// `fcn-serve` compiled-plan registry map (`Registry::entries`).
    pub const SERVE_REGISTRY: LockRank = LockRank::new(20, "serve.registry");
    /// `fcn-serve` merge-queue state (`MergeQueue::state`).
    pub const SERVE_MERGE: LockRank = LockRank::new(30, "serve.merge");
    /// `fcn-serve` reply cache (`ReplyCache::state`).
    pub const SERVE_REPLIES: LockRank = LockRank::new(40, "serve.replies");
    /// `fcn-routing` BFS-tree plan cache store (`PlanCache::store`).
    pub const ROUTING_PLAN_CACHE: LockRank = LockRank::new(50, "routing.plan_cache");
    /// `fcn-exec` pool result slots.
    pub const EXEC_SLOTS: LockRank = LockRank::new(60, "exec.pool_slots");
    /// `fcn-exec` pool per-job telemetry shards.
    pub const EXEC_SHARDS: LockRank = LockRank::new(61, "exec.pool_shards");
    /// `fcn-exec` watchdog disarm flag (held across its condvar wait).
    pub const EXEC_WATCHDOG: LockRank = LockRank::new(70, "exec.watchdog");
    /// `fcn-telemetry` registry counter map. Innermost leaves: registry
    /// getters never call out while holding them.
    pub const TEL_COUNTERS: LockRank = LockRank::new(80, "telemetry.counters");
    /// `fcn-telemetry` registry gauge map.
    pub const TEL_GAUGES: LockRank = LockRank::new(81, "telemetry.gauges");
    /// `fcn-telemetry` registry histogram map.
    pub const TEL_HISTOGRAMS: LockRank = LockRank::new(82, "telemetry.histograms");
}

#[cfg(debug_assertions)]
mod held {
    //! The debug-only thread-local held-lock stack.

    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// `(rank, token id)` per held ranked lock, acquisition order.
        static HELD: RefCell<Vec<(LockRank, u64)>> = const { RefCell::new(Vec::new()) };
        /// Monotone token ids so out-of-order guard drops release the
        /// right entry.
        static NEXT_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn acquire(rank: LockRank) -> u64 {
        let id = NEXT_ID.with(|n| {
            let id = n.get();
            n.set(id + 1);
            id
        });
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            for (held, _) in h.iter() {
                assert!(
                    held.rank() < rank.rank(),
                    "lock-order violation: acquiring `{}` (rank {}) while holding \
                     `{}` (rank {}); the declared order in fcn_telemetry::lockdep::ranks \
                     requires strictly increasing ranks",
                    rank.name(),
                    rank.rank(),
                    held.name(),
                    held.rank(),
                );
            }
            h.push((rank, id));
        });
        id
    }

    pub(super) fn release(id: u64) {
        HELD.with(|h| h.borrow_mut().retain(|(_, held_id)| *held_id != id));
    }

    pub(super) fn assert_sole(rank: LockRank) {
        HELD.with(|h| {
            let h = h.borrow();
            assert!(
                h.len() <= 1,
                "condvar wait on `{}` while holding {} other ranked lock(s) \
                 (first extra: `{}`): a wait must hold only the waited mutex",
                rank.name(),
                h.len().saturating_sub(1),
                h.iter()
                    .map(|(r, _)| r.name())
                    .find(|n| *n != rank.name())
                    .unwrap_or("?"),
            );
        });
    }
}

/// The debug-build bookkeeping half of a [`RankedGuard`]; a zero-sized
/// no-op in release builds.
#[derive(Debug)]
pub struct LockToken {
    #[cfg(debug_assertions)]
    id: u64,
}

impl LockToken {
    fn acquire(rank: LockRank) -> LockToken {
        #[cfg(debug_assertions)]
        {
            LockToken {
                id: held::acquire(rank),
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = rank;
            LockToken {}
        }
    }
}

impl Drop for LockToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::release(self.id);
    }
}

/// A [`MutexGuard`] paired with its rank bookkeeping. Dereferences
/// transparently; dropping it releases both the mutex and the rank.
#[derive(Debug)]
pub struct RankedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    rank: LockRank,
    token: LockToken,
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Acquire `m` at `rank`, asserting the declared lock order in debug
/// builds and recovering from poison (the workspace convention: a
/// panicking holder must not cascade into every later taker — per-slot /
/// per-entry data under these locks stays well-formed).
pub fn lock_ranked<'a, T>(m: &'a Mutex<T>, rank: LockRank) -> RankedGuard<'a, T> {
    // Order matters: assert + record *before* blocking on the mutex, so a
    // genuine deadlock still reports the violation on the thread that
    // closed the cycle.
    let token = LockToken::acquire(rank);
    let guard = m.lock().unwrap_or_else(|poison| poison.into_inner());
    RankedGuard { guard, rank, token }
}

/// Condvar wait under a ranked guard: asserts (debug builds) that the
/// waited mutex is the only ranked lock this thread holds, then waits with
/// poison recovery. The rank stays held across the wait — the thread still
/// owns the slot in the lock order when it wakes.
pub fn wait_timeout_ranked<'a, T>(
    cv: &Condvar,
    g: RankedGuard<'a, T>,
    dur: Duration,
) -> (RankedGuard<'a, T>, WaitTimeoutResult) {
    #[cfg(debug_assertions)]
    held::assert_sole(g.rank);
    let RankedGuard { guard, rank, token } = g;
    let (guard, res) = cv
        .wait_timeout(guard, dur)
        .unwrap_or_else(|poison| poison.into_inner());
    (RankedGuard { guard, rank, token }, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn in_order_nesting_is_allowed() {
        let outer = Mutex::new(1u32);
        let inner = Mutex::new(2u32);
        let g1 = lock_ranked(&outer, ranks::SERVE_ADMISSION);
        let g2 = lock_ranked(&inner, ranks::TEL_COUNTERS);
        assert_eq!(*g1 + *g2, 3);
    }

    #[test]
    fn reacquire_after_release_is_allowed() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        drop(lock_ranked(&b, ranks::SERVE_MERGE));
        // b released: taking a lower rank afterwards is fine.
        drop(lock_ranked(&a, ranks::SERVE_ADMISSION));
        drop(lock_ranked(&b, ranks::SERVE_MERGE));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "lockdep asserts only in debug builds")]
    fn out_of_order_nesting_panics() {
        let merge = Mutex::new(1u32);
        let adm = Mutex::new(2u32);
        let result = std::panic::catch_unwind(|| {
            let _g1 = lock_ranked(&merge, ranks::SERVE_MERGE);
            let _g2 = lock_ranked(&adm, ranks::SERVE_ADMISSION);
        });
        let err = result.expect_err("inverted pair must assert");
        let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("lock-order violation"), "{text}");
        assert!(text.contains("serve.admission"), "{text}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "lockdep asserts only in debug builds")]
    fn equal_rank_nesting_panics() {
        let a = Mutex::new(1u32);
        let b = Mutex::new(2u32);
        let result = std::panic::catch_unwind(|| {
            let _g1 = lock_ranked(&a, ranks::TEL_COUNTERS);
            let _g2 = lock_ranked(&b, ranks::TEL_COUNTERS);
        });
        assert!(result.is_err(), "same-rank nesting must assert");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "lockdep asserts only in debug builds")]
    fn condvar_wait_with_second_lock_panics() {
        let outer = Mutex::new(false);
        let inner = Mutex::new(false);
        let cv = Condvar::new();
        let result = std::panic::catch_unwind(|| {
            let _g1 = lock_ranked(&outer, ranks::SERVE_ADMISSION);
            let g2 = lock_ranked(&inner, ranks::EXEC_WATCHDOG);
            let _ = wait_timeout_ranked(&cv, g2, Duration::from_millis(1));
        });
        let err = result.expect_err("wait while holding a second lock must assert");
        let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("condvar wait"), "{text}");
    }

    #[test]
    fn lone_condvar_wait_is_allowed_and_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let g = lock_ranked(&m, ranks::EXEC_WATCHDOG);
        let (g, res) = wait_timeout_ranked(&cv, g, Duration::from_millis(1));
        assert!(res.timed_out());
        assert!(!*g);
    }

    #[test]
    fn out_of_order_drops_release_the_right_entry() {
        let a = Mutex::new(1u32);
        let b = Mutex::new(2u32);
        let g1 = lock_ranked(&a, ranks::SERVE_ADMISSION);
        let g2 = lock_ranked(&b, ranks::SERVE_REGISTRY);
        drop(g1); // outer released first: inner entry must survive intact
        drop(g2);
        // Stack is empty again: an unrelated low-rank acquire succeeds.
        drop(lock_ranked(&a, ranks::SERVE_ADMISSION));
    }

    #[test]
    fn ranks_table_is_strictly_ordered_and_named() {
        let table = [
            ranks::SERVE_ADMISSION,
            ranks::SERVE_REGISTRY,
            ranks::SERVE_MERGE,
            ranks::SERVE_REPLIES,
            ranks::ROUTING_PLAN_CACHE,
            ranks::EXEC_SLOTS,
            ranks::EXEC_SHARDS,
            ranks::EXEC_WATCHDOG,
            ranks::TEL_COUNTERS,
            ranks::TEL_GAUGES,
            ranks::TEL_HISTOGRAMS,
        ];
        for pair in table.windows(2) {
            assert!(
                pair[0].rank() < pair[1].rank(),
                "{} vs {}",
                pair[0].name(),
                pair[1].name()
            );
        }
        for r in &table {
            assert!(
                r.name().contains('.'),
                "{} follows crate.lock naming",
                r.name()
            );
        }
    }
}
