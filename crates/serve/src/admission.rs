//! Bounded admission: a FIFO queue in front of the in-flight limit, with
//! priority classes and deadline-aware shedding.
//!
//! PR 8's gate was binary — slot free or typed `Overloaded` — which turns a
//! millisecond of burst into hard rejections. This queue makes degradation
//! *graceful and measured* instead:
//!
//! * at most `max_inflight` requests execute concurrently;
//! * up to `max_queued` more wait in strict FIFO order (no barging: a
//!   freed slot always goes to the longest-waiting request);
//! * a queued request waits at most its *wait budget* — the configured
//!   `queue_wait_ms` bounded above by the request's own deadline — so work
//!   that cannot start before its deadline is shed instead of executed
//!   doomed;
//! * everything beyond the queue bound is shed immediately, typed
//!   `Overloaded` with a `retry_after_ms` hint.
//!
//! The state machine (documented in DESIGN.md §3) is: `admit → {run |
//! queued}`, `queued → {run | shed(wait-expired)}`, `full-queue →
//! shed(queue-full)`. [`Class::Interactive`] kinds (`ping`, `metrics`,
//! `health`) never enter the queue at all — a monitoring probe must answer
//! in microseconds even while heavy beta grids saturate every slot.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use fcn_exec::sync::Lock;
use fcn_telemetry::names;

/// Bump a process-global counter when global telemetry is enabled (the
/// admission queue's counters are transport-level and deliberately stay out
/// of the server's request registry; see the server module docs).
fn global_inc(name: &'static str) {
    let g = fcn_telemetry::global();
    if g.enabled() {
        g.add(name, 1);
    }
}

/// Priority class of a request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Microsecond-cheap monitoring kinds: never admitted through the
    /// queue, never counted against `max_inflight`.
    Interactive,
    /// Everything that does real work (`beta`, `audit`, `faults`): admitted
    /// through the bounded queue.
    Heavy,
}

/// The class a request kind belongs to.
pub fn class_of(kind: &str) -> Class {
    match kind {
        "ping" | "metrics" | "health" => Class::Interactive,
        _ => Class::Heavy,
    }
}

/// Why a request was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The wait queue was already at `max_queued`.
    QueueFull,
    /// The request waited its full budget (queue wait bound or its own
    /// deadline, whichever is tighter) without reaching a slot.
    WaitExpired,
}

/// A typed shed decision: the reason plus the occupancy snapshot and the
/// retry hint to frame into `Overloaded{retry_after_ms}`.
#[derive(Debug, Clone, Copy)]
pub struct Shed {
    /// Why the request was shed.
    pub reason: ShedReason,
    /// Requests executing at decision time.
    pub inflight: usize,
    /// Requests queued at decision time.
    pub queued: usize,
    /// Suggested client-side wait before retrying, milliseconds.
    pub retry_after_ms: u64,
}

/// The outcome of one admission attempt.
#[derive(Debug)]
pub enum Admit {
    /// Admitted: run now; dropping the permit frees the slot.
    Granted(Permit),
    /// Shed: reject with `Overloaded{retry_after_ms}`.
    Shed(Shed),
}

/// Monotone occupancy/shed counters, snapshotted by the `health` kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Requests currently executing.
    pub inflight: usize,
    /// Requests currently waiting in the queue.
    pub queued: usize,
    /// Requests that ever waited in the queue.
    pub queued_total: u64,
    /// Requests shed because the queue was full.
    pub shed_queue_full_total: u64,
    /// Requests shed because their wait budget expired.
    pub shed_wait_expired_total: u64,
}

#[derive(Debug, Default)]
struct AdmState {
    inflight: usize,
    /// Tickets of waiting requests, front = longest-waiting.
    queue: VecDeque<u64>,
    next_ticket: u64,
    queued_total: u64,
    shed_queue_full: u64,
    shed_wait_expired: u64,
}

/// The bounded FIFO admission queue shared by all connection threads.
#[derive(Debug)]
pub struct Admission {
    limit: usize,
    max_queued: usize,
    /// The `retry_after_ms` hint framed into shed responses (the configured
    /// queue wait: by then at least one full wait-budget of queued work has
    /// drained or been shed).
    retry_hint_ms: u64,
    state: Lock<AdmState>,
    cv: Condvar,
}

impl Admission {
    /// An admission queue running at most `limit` requests (clamped ≥ 1)
    /// with at most `max_queued` waiting behind them (0 = the PR 8 binary
    /// gate: no queue, immediate shed).
    pub fn new(limit: usize, max_queued: usize, retry_hint_ms: u64) -> Arc<Admission> {
        Arc::new(Admission {
            limit: limit.max(1),
            max_queued,
            retry_hint_ms: retry_hint_ms.max(1),
            state: Lock::new(AdmState::default()),
            cv: Condvar::new(),
        })
    }

    /// The configured concurrency bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The configured queue bound.
    pub fn max_queued(&self) -> usize {
        self.max_queued
    }

    /// Requests currently holding a slot.
    pub fn inflight(&self) -> usize {
        self.state.lock().inflight
    }

    /// Occupancy and shed counters for the `health` kind.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let st = self.state.lock();
        AdmissionSnapshot {
            inflight: st.inflight,
            queued: st.queue.len(),
            queued_total: st.queued_total,
            shed_queue_full_total: st.shed_queue_full,
            shed_wait_expired_total: st.shed_wait_expired,
        }
    }

    /// Admit one heavy request, waiting in FIFO order for up to `wait_ms`
    /// milliseconds for a slot. `wait_ms` is the caller-computed budget:
    /// `min(queue_wait_ms, request deadline)` — a request that cannot start
    /// before its deadline is shed at the deadline, not executed doomed.
    pub fn admit(self: &Arc<Admission>, wait_ms: u64) -> Admit {
        let mut st = self.state.lock();
        if st.inflight < self.limit && st.queue.is_empty() {
            st.inflight += 1;
            return Admit::Granted(Permit {
                admission: Arc::clone(self),
            });
        }
        if st.queue.len() >= self.max_queued || wait_ms == 0 {
            let reason = if st.queue.len() >= self.max_queued {
                st.shed_queue_full += 1;
                global_inc(names::SERVE_SHED_FULL_TOTAL);
                ShedReason::QueueFull
            } else {
                st.shed_wait_expired += 1;
                global_inc(names::SERVE_SHED_DEADLINE_TOTAL);
                ShedReason::WaitExpired
            };
            return self.shed(&st, reason);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        st.queued_total += 1;
        global_inc(names::SERVE_QUEUED_TOTAL);
        // The queue wait is a wall-clock bound by definition (it models the
        // client's patience, not a simulated quantity); the condvar wakes on
        // every slot release and re-checks both FIFO position and budget.
        #[allow(clippy::disallowed_methods)]
        let deadline = Instant::now() + Duration::from_millis(wait_ms);
        loop {
            if st.queue.front() == Some(&ticket) && st.inflight < self.limit {
                st.queue.pop_front();
                st.inflight += 1;
                // Wake the next-in-line waiter so it can advance to front.
                self.cv.notify_all();
                return Admit::Granted(Permit {
                    admission: Arc::clone(self),
                });
            }
            #[allow(clippy::disallowed_methods)]
            let now = Instant::now();
            if now >= deadline {
                st.queue.retain(|t| *t != ticket);
                st.shed_wait_expired += 1;
                global_inc(names::SERVE_SHED_DEADLINE_TOTAL);
                let decision = self.shed(&st, ShedReason::WaitExpired);
                // Our departure may unblock the waiter behind us.
                self.cv.notify_all();
                return decision;
            }
            let (g, _) = st.wait_timeout(&self.cv, deadline - now);
            st = g;
        }
    }

    fn shed(&self, st: &AdmState, reason: ShedReason) -> Admit {
        Admit::Shed(Shed {
            reason,
            inflight: st.inflight,
            queued: st.queue.len(),
            retry_after_ms: self.retry_hint_ms,
        })
    }
}

/// An admitted request's slot; dropping it releases the slot and wakes the
/// queue (panic-safe: an unwinding handler still releases).
#[derive(Debug)]
pub struct Permit {
    admission: Arc<Admission>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut st = self.admission.state.lock();
        st.inflight = st.inflight.saturating_sub(1);
        drop(st);
        self.admission.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn granted(a: Admit) -> Permit {
        match a {
            Admit::Granted(p) => p,
            Admit::Shed(s) => panic!("expected a grant, was shed: {s:?}"),
        }
    }

    fn shed(a: Admit) -> Shed {
        match a {
            Admit::Shed(s) => s,
            Admit::Granted(_) => panic!("expected a shed, was granted"),
        }
    }

    #[test]
    fn admits_up_to_limit_and_sheds_past_the_queue() {
        let adm = Admission::new(2, 0, 40);
        let a = granted(adm.admit(0));
        let b = granted(adm.admit(0));
        assert_eq!(adm.inflight(), 2);
        // No queue configured: the third request sheds immediately, typed.
        let s = shed(adm.admit(1000));
        assert_eq!(s.reason, ShedReason::QueueFull);
        assert_eq!(s.inflight, 2);
        assert_eq!(s.retry_after_ms, 40);
        drop(a);
        let c = granted(adm.admit(0));
        drop((b, c));
        assert_eq!(adm.inflight(), 0);
    }

    #[test]
    fn zero_wait_budget_sheds_instead_of_queueing() {
        let adm = Admission::new(1, 8, 25);
        let _hold = granted(adm.admit(0));
        // Queue has room, but a zero budget (deadline already tighter than
        // any queue wait) must shed immediately as wait-expired.
        let s = shed(adm.admit(0));
        assert_eq!(s.reason, ShedReason::WaitExpired);
        let snap = adm.snapshot();
        assert_eq!(snap.shed_wait_expired_total, 1);
        assert_eq!(snap.queued, 0);
    }

    #[test]
    fn queued_request_runs_when_the_slot_frees() {
        let adm = Admission::new(1, 4, 25);
        let hold = granted(adm.admit(0));
        let got_slot = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let adm2 = Arc::clone(&adm);
            let got = Arc::clone(&got_slot);
            let waiter = scope.spawn(move || {
                // Generous budget: the slot frees long before it expires.
                let p = granted(adm2.admit(10_000));
                got.store(1, Ordering::SeqCst);
                drop(p);
            });
            // Wait until the waiter is actually queued, then release.
            while adm.snapshot().queued == 0 {
                std::hint::spin_loop();
            }
            assert_eq!(got_slot.load(Ordering::SeqCst), 0, "must wait, not run");
            drop(hold);
            waiter.join().unwrap();
        });
        assert_eq!(got_slot.load(Ordering::SeqCst), 1);
        let snap = adm.snapshot();
        assert_eq!(snap.queued_total, 1);
        assert_eq!(snap.inflight, 0);
    }

    #[test]
    fn wait_budget_expiry_sheds_and_unblocks_the_queue() {
        let adm = Admission::new(1, 4, 25);
        let hold = granted(adm.admit(0));
        // A 1 ms budget expires long before the slot frees.
        let s = shed(adm.admit(1));
        assert_eq!(s.reason, ShedReason::WaitExpired);
        let snap = adm.snapshot();
        assert_eq!(snap.queued, 0, "expired waiter must leave the queue");
        assert_eq!(snap.shed_wait_expired_total, 1);
        // The slot still works afterwards.
        drop(hold);
        drop(granted(adm.admit(0)));
    }

    #[test]
    fn fifo_order_is_strict_under_contention() {
        let adm = Admission::new(1, 8, 25);
        let hold = granted(adm.admit(0));
        let order = Arc::new(Lock::new(Vec::new()));
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let adm = Arc::clone(&adm);
                let order = Arc::clone(&order);
                // Stagger arrivals so queue order is deterministic: each
                // waiter enters only after the previous one is queued.
                while adm.snapshot().queued_total < i {
                    std::hint::spin_loop();
                }
                scope.spawn(move || {
                    let p = granted(adm.admit(60_000));
                    order.lock().push(i);
                    drop(p);
                });
            }
            while adm.snapshot().queued < 4 {
                std::hint::spin_loop();
            }
            drop(hold);
        });
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn permit_release_survives_unwinding() {
        let adm = Admission::new(1, 0, 25);
        let adm2 = Arc::clone(&adm);
        let result = std::panic::catch_unwind(move || {
            let _permit = granted(adm2.admit(0));
            panic!("handler blew up");
        });
        assert!(result.is_err());
        assert_eq!(adm.inflight(), 0, "unwound permit must release its slot");
        drop(granted(adm.admit(0)));
    }

    #[test]
    fn zero_limit_is_clamped_to_one() {
        let adm = Admission::new(0, 0, 25);
        assert_eq!(adm.limit(), 1);
        let p = granted(adm.admit(0));
        shed(adm.admit(0));
        drop(p);
        drop(granted(adm.admit(0)));
    }

    #[test]
    fn classes_split_monitoring_from_heavy_kinds() {
        for kind in ["ping", "metrics", "health"] {
            assert_eq!(class_of(kind), Class::Interactive);
        }
        for kind in ["beta", "audit", "faults", "anything-else"] {
            assert_eq!(class_of(kind), Class::Heavy);
        }
    }
}
