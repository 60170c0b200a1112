//! The workspace's one lock type: a poison-recovering mutex that checks the
//! flat lock order in debug builds.
//!
//! The order is flat: a thread never takes a [`Lock`] while it holds
//! another one. Every service and runtime lock (admission, the serve
//! registry, the reply cache, the plan cache, the pool's result slots and
//! worker shards, and the watchdog) is therefore a leaf, and no interleaving
//! of them can deadlock. The telemetry [`fcn_telemetry::MetricsRegistry`]
//! keeps one private mutex that is a leaf *below* every `Lock`: its
//! critical sections call nothing outside its own file, so recording a
//! metric while a `Lock` is held is allowed.
//!
//! In debug builds a thread-local records where the held lock was taken,
//! and [`Lock::lock`] panics, naming both source locations, when the thread
//! already holds one. The check runs before blocking on the mutex, so a
//! nesting that would deadlock still reports itself. Release builds keep
//! only the poison-recovering lock. `clippy.toml` bans `std::sync::Mutex`
//! everywhere else, so every new mutex goes through this check.

use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::{Condvar, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

#[cfg(debug_assertions)]
thread_local! {
    /// Where this thread took the lock it holds, if it holds one.
    static HELD: std::cell::Cell<Option<&'static Location<'static>>> =
        const { std::cell::Cell::new(None) };
}

/// A mutex that is never taken while another is held (checked in debug
/// builds) and that recovers from poison: a panicking holder must not
/// cascade into every later taker, and every guarded state in the
/// workspace is finished before a panic can leave it.
#[derive(Debug, Default)]
#[allow(
    clippy::disallowed_types,
    reason = "the checked wrapper every other mutex goes through"
)]
pub struct Lock<T> {
    inner: std::sync::Mutex<T>,
}

#[allow(
    clippy::disallowed_types,
    reason = "the checked wrapper every other mutex goes through"
)]
impl<T> Lock<T> {
    /// A lock holding `value`.
    pub const fn new(value: T) -> Lock<T> {
        Lock {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Take the lock. In debug builds, panics if this thread already holds
    /// a `Lock`; the message names both call sites.
    #[track_caller]
    pub fn lock(&self) -> Guard<'_, T> {
        let held = Held::mark(Location::caller());
        Guard {
            guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }

    /// The guarded value, recovering it from a poisoned lock.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A held [`Lock`]. Dereferences to the guarded value; dropping it releases
/// the lock.
#[derive(Debug)]
pub struct Guard<'a, T> {
    guard: MutexGuard<'a, T>,
    held: Held,
}

impl<'a, T> Guard<'a, T> {
    /// Wait on `cv` for at most `dur`, releasing the lock while asleep. The
    /// waited lock is the only one the thread holds, since the order is
    /// flat; it stays marked as held across the wait.
    pub fn wait_timeout(self, cv: &Condvar, dur: Duration) -> (Guard<'a, T>, WaitTimeoutResult) {
        let Guard { guard, held } = self;
        let (guard, res) = cv
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner);
        (Guard { guard, held }, res)
    }
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// This thread's mark of holding a lock (debug builds); cleared on drop.
#[derive(Debug)]
struct Held;

impl Held {
    fn mark(at: &'static Location<'static>) -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            if let Some(outer) = held.get() {
                nested(at, outer);
            }
            held.set(Some(at));
        });
        #[cfg(not(debug_assertions))]
        let _ = at;
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(None));
    }
}

#[cfg(debug_assertions)]
#[expect(
    clippy::panic,
    reason = "a nested lock is a bug in the caller; debug builds stop at it"
)]
fn nested(at: &Location<'_>, outer: &Location<'_>) -> ! {
    panic!(
        "lock-order violation: lock taken at {at} while this thread holds the lock \
         taken at {outer}; a Lock is never taken while another is held"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the order is checked only in debug builds"
    )]
    fn nesting_two_locks_panics_naming_both_sites() {
        let outer = Lock::new(1u32);
        let inner = Lock::new(2u32);
        let result = std::panic::catch_unwind(|| {
            let _a = outer.lock();
            let _b = inner.lock();
        });
        let err = result.expect_err("a nested lock must panic");
        let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("lock-order violation"), "{text}");
        let sites = text.matches(&format!("{}:", file!())).count();
        assert_eq!(sites, 2, "both call sites are named: {text}");
        // The unwind released the outer lock and cleared the mark.
        drop(inner.lock());
    }

    #[test]
    fn sequential_locks_are_allowed() {
        let a = Lock::new(0u32);
        let b = Lock::new(0u32);
        *a.lock() += 1;
        *b.lock() += 1;
        let g = a.lock();
        drop(g);
        *b.lock() += 1;
        assert_eq!((a.into_inner(), b.into_inner()), (1, 2));
    }

    #[test]
    fn metrics_registry_calls_under_a_lock_are_allowed() {
        let state = Lock::new(0u64);
        let reg = fcn_telemetry::MetricsRegistry::new();
        let mut g = state.lock();
        reg.add(fcn_telemetry::names::ROUTER_RUNS_TOTAL, 1);
        *g = reg.snapshot().counters[fcn_telemetry::names::ROUTER_RUNS_TOTAL];
        drop(g);
        assert_eq!(state.into_inner(), 1);
    }

    #[test]
    fn lone_wait_timeout_times_out_and_returns_the_guard() {
        let flag = Lock::new(false);
        let cv = Condvar::new();
        let (g, res) = flag.lock().wait_timeout(&cv, Duration::from_millis(1));
        assert!(res.timed_out());
        assert!(!*g);
        drop(g);
        // The guard's release cleared the mark: the lock is free again.
        assert!(!*flag.lock());
    }

    #[test]
    fn a_poisoned_lock_still_opens() {
        let lock = Lock::new(7u32);
        let _ = std::panic::catch_unwind(|| {
            let _g = lock.lock();
            std::panic::resume_unwind(Box::new("poison"));
        });
        assert_eq!(*lock.lock(), 7);
    }
}
