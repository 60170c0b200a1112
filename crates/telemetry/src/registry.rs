//! The [`MetricsRegistry`]: an enable switch and one locked [`LocalShard`].
//!
//! Workers record into their thread's shard and the coordinator merges
//! whole shards here ([`MetricsRegistry::merge`]); the few transport-level
//! counters that have no shard of their own call
//! [`MetricsRegistry::add`]. The
//! registry stores metrics the same way a shard does, so there is one
//! store and one rendering ([`MetricsRegistry::snapshot`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{MutexGuard, OnceLock, PoisonError};

use crate::shard::LocalShard;
use crate::snapshot::MetricsSnapshot;

/// The merged metrics of a process or a server, with an enable switch.
///
/// The registry starts **disabled**: hot paths check
/// [`MetricsRegistry::enabled`] once per run and skip all collection work
/// when it is off.
///
/// ```
/// use fcn_telemetry::{names, LocalShard, MetricsRegistry};
///
/// let reg = MetricsRegistry::new();
/// assert!(!reg.enabled());
/// reg.add(names::ROUTER_RUNS_TOTAL, 3);
/// let mut shard = LocalShard::new();
/// shard.record(names::ROUTER_QUEUE_OCCUPANCY, 7);
/// reg.merge(&shard);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters[names::ROUTER_RUNS_TOTAL], 3);
/// assert_eq!(snap.histograms[names::ROUTER_QUEUE_OCCUPANCY].count, 1);
/// ```
#[derive(Debug, Default)]
#[allow(
    clippy::disallowed_types,
    reason = "a leaf lock below every fcn_exec::sync::Lock: its critical sections call nothing outside fcn-telemetry"
)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    /// The merged metrics. Any layer may record a metric while it holds
    /// its own lock, because every critical section on this mutex is one
    /// `LocalShard` method, which calls nothing outside this crate.
    shard: std::sync::Mutex<LocalShard>,
}

impl MetricsRegistry {
    /// A fresh, disabled registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether expensive collection paths should run.
    #[inline]
    pub fn enabled(&self) -> bool {
        // ordering: the switch is a monotone hint read once per run; a
        // stale read only delays collection by one run and never changes
        // simulated output (telemetry_determinism pins this).
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip the collection switch. Enabling or disabling never changes a
    /// simulated bit — pinned by `crates/routing/tests/telemetry_determinism.rs`.
    pub fn set_enabled(&self, on: bool) {
        // ordering: flipped only at run boundaries on the coordinator
        // thread, before workers spawn / after they join — the thread
        // creation edge already publishes the value.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The merged shard, recovered from poison: each edit is a plain map
    /// update, so a panicking holder cannot leave it half-written.
    fn shard(&self) -> MutexGuard<'_, LocalShard> {
        self.shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Merge a whole shard ([`LocalShard::merge`]: counters, histograms
    /// and spans add, so merges may come in any order).
    pub fn merge(&self, other: &LocalShard) {
        self.shard().merge(other);
    }

    /// Add `v` to counter `name`.
    pub fn add(&self, name: &'static str, v: u64) {
        self.shard().add(name, v);
    }

    /// A point-in-time copy of every metric, sorted by name: counters that
    /// are not zero, every histogram, and each span as its
    /// `span_{name}_calls_total` / `span_{name}_nanos_total` counter pair.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shard().snapshot()
    }
}

/// The process-wide registry that instrumented library code reports to.
///
/// It starts disabled; `fcnemu --metrics-out` and the bench bins'
/// `--metrics-out` flag enable it for the duration of a run and write a
/// delta snapshot on exit.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{
        EXEC_RUNS_TOTAL, PLAN_CACHE_HITS_TOTAL, ROUTER_QUEUE_OCCUPANCY, ROUTER_RUNS_TOTAL,
        SPAN_FLUX,
    };

    #[test]
    fn registry_starts_disabled_and_toggles() {
        let reg = MetricsRegistry::new();
        assert!(!reg.enabled());
        reg.set_enabled(true);
        assert!(reg.enabled());
        reg.set_enabled(false);
        assert!(!reg.enabled());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.add(ROUTER_RUNS_TOTAL, 1);
        reg.add(EXEC_RUNS_TOTAL, 4);
        let mut shard = LocalShard::new();
        shard.record(ROUTER_QUEUE_OCCUPANCY, 2);
        reg.merge(&shard);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.counters.keys().cloned().collect();
        assert_eq!(names, [EXEC_RUNS_TOTAL, ROUTER_RUNS_TOTAL]);
        assert_eq!(snap.histograms[ROUTER_QUEUE_OCCUPANCY].count, 1);
    }

    #[test]
    fn merging_two_shards_renders_nonzero_counters_and_span_pairs() {
        let reg = MetricsRegistry::new();
        let mut a = LocalShard::new();
        a.add(ROUTER_RUNS_TOTAL, 2);
        a.add(PLAN_CACHE_HITS_TOTAL, 0);
        a.record(ROUTER_QUEUE_OCCUPANCY, 3);
        a.record_span(SPAN_FLUX, 120);
        let mut b = LocalShard::new();
        b.add(ROUTER_RUNS_TOTAL, 1);
        b.add(PLAN_CACHE_HITS_TOTAL, 0);
        b.record_span(SPAN_FLUX, 0);
        reg.merge(&a);
        reg.merge(&b);
        let snap = reg.snapshot();
        let counters: Vec<_> = snap
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        assert_eq!(
            counters,
            [
                ("router_runs_total", 3),
                ("span_flux_calls_total", 2),
                ("span_flux_nanos_total", 120),
            ],
            "a zero counter is omitted; a span is its two counters"
        );
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[ROUTER_QUEUE_OCCUPANCY].count, 1);
    }
}
