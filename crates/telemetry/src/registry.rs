//! Instrument handles and the [`MetricsRegistry`].
//!
//! Instruments are `Arc`-backed atomics, so a handle can be cloned into any
//! thread (or owned per-instance, like `fcn-routing`'s `PlanCache`
//! counters) while the registry keeps a named view for snapshots. All
//! operations are `Relaxed` atomics: metrics observe the simulation, they
//! never synchronize it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, OnceLock, PoisonError};

use crate::hist::{bucket_index, LocalHistogram, HIST_BUCKETS};
use crate::names::ALL;
use crate::snapshot::MetricsSnapshot;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        // ordering: counters are commutative u64 additions with no
        // cross-metric invariants; Relaxed is sufficient and cheapest.
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: snapshot reads tolerate torn cross-metric views; each
        // individual u64 load is atomic regardless.
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `u64` gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        // ordering: last-write-wins gauge; no other memory is published
        // through this store, so Relaxed cannot be observed inconsistently.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to at least `v`.
    #[inline]
    pub fn raise_to(&self, v: u64) {
        // ordering: fetch_max is idempotent and order-insensitive; Relaxed
        // races only reorder equivalent maxima.
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: observational read; staleness is acceptable by design.
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// An atomic fixed-bucket histogram (layout in [`crate::hist`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        // ordering: bucket/count/sum are independent commutative additions;
        // readers tolerate mid-record skew (count may trail buckets by one),
        // so no release/acquire pairing is needed.
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Merge a whole [`LocalHistogram`] (a worker shard) in one pass.
    pub fn merge_local(&self, local: &LocalHistogram) {
        // ordering: same argument as `record` — all additions commute and
        // no reader requires a consistent cross-field cut.
        for (slot, &n) in self.0.buckets.iter().zip(local.buckets.iter()) {
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(local.count, Ordering::Relaxed);
        self.0.sum.fetch_add(local.sum, Ordering::Relaxed);
    }

    /// A plain copy of the current contents.
    pub fn load(&self) -> LocalHistogram {
        let mut out = LocalHistogram::new();
        // ordering: observational copy; snapshots are taken after the pool
        // has flushed shards, when no writer races remain.
        for (o, b) in out.buckets.iter_mut().zip(self.0.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out.count = self.0.count.load(Ordering::Relaxed);
        out.sum = self.0.sum.load(Ordering::Relaxed);
        out
    }
}

/// A named collection of instruments with an enable switch.
///
/// The registry starts **disabled**: hot paths check
/// [`MetricsRegistry::enabled`] once per run and skip all collection work
/// when it is off.
/// Instrument creation is get-or-create by name, so any number of call
/// sites can share one counter.
///
/// ```
/// use fcn_telemetry::{names, MetricsRegistry};
///
/// let reg = MetricsRegistry::new();
/// assert!(!reg.enabled());
/// reg.counter(names::ROUTER_RUNS_TOTAL).add(3);
/// reg.histogram(names::ROUTER_QUEUE_OCCUPANCY).record(7);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters[names::ROUTER_RUNS_TOTAL], 3);
/// assert_eq!(snap.histograms[names::ROUTER_QUEUE_OCCUPANCY].count, 1);
/// ```
#[derive(Debug, Default)]
#[allow(
    clippy::disallowed_types,
    reason = "a leaf lock below every fcn_exec::sync::Lock: its critical sections call nothing outside registry.rs"
)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    /// The named instruments. Any layer may record a metric while it holds
    /// its own lock, because every critical section on this mutex is a map
    /// lookup or a copy that calls nothing outside this file.
    maps: std::sync::Mutex<Maps>,
}

#[derive(Debug, Default)]
struct Maps {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Every metric name comes from the [`names`](crate::names) table: a table
/// const, or the `span_{name}_calls_total` / `span_{name}_nanos_total`
/// counter pair that a table span flushes into. Checked in debug builds
/// only, so a name typed as a literal fails the first test that records it.
#[inline]
pub(crate) fn assert_name(name: &str) {
    debug_assert!(
        ALL.contains(&name)
            || name
                .strip_prefix("span_")
                .and_then(|r| r
                    .strip_suffix("_calls_total")
                    .or(r.strip_suffix("_nanos_total")))
                .is_some_and(|s| ALL.contains(&s)),
        "metric name {name:?} is not in fcn_telemetry::names::ALL"
    );
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

    /// The instrument maps, recovering them from poison: each edit is a
    /// single map insert, so a panicking holder cannot leave them
    /// half-written.
    fn maps(&self) -> MutexGuard<'_, Maps> {
        self.maps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        assert_name(name);
        self.maps()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        assert_name(name);
        self.maps()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        assert_name(name);
        self.maps()
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// A point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let maps = self.maps();
        let counters = maps
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = maps
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = maps
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.load()))
            .collect();
        drop(maps);
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
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
        EXEC_RUNS_TOTAL, EXEC_WORKERS_LAST, ROUTER_QUEUE_OCCUPANCY, ROUTER_RUNS_TOTAL,
    };

    #[test]
    fn counters_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter(ROUTER_RUNS_TOTAL);
        let b = reg.counter(ROUTER_RUNS_TOTAL);
        a.add(2);
        b.inc();
        assert_eq!(reg.counter(ROUTER_RUNS_TOTAL).get(), 3);
    }

    #[test]
    fn gauges_set_and_raise() {
        let g = Gauge::new();
        g.set(5);
        g.raise_to(3);
        assert_eq!(g.get(), 5);
        g.raise_to(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_atomic_matches_local() {
        let h = Histogram::new();
        let mut l = LocalHistogram::new();
        for v in [0u64, 1, 3, 900, 1 << 35] {
            h.record(v);
            l.record(v);
        }
        assert_eq!(h.load(), l);
        // merge_local doubles everything.
        h.merge_local(&l);
        let doubled = h.load();
        assert_eq!(doubled.count, 2 * l.count);
        assert_eq!(doubled.sum, 2 * l.sum);
    }

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
        reg.counter(ROUTER_RUNS_TOTAL).inc();
        reg.counter(EXEC_RUNS_TOTAL).add(4);
        reg.gauge(EXEC_WORKERS_LAST).set(7);
        reg.histogram(ROUTER_QUEUE_OCCUPANCY).record(2);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.counters.keys().cloned().collect();
        assert_eq!(names, [EXEC_RUNS_TOTAL, ROUTER_RUNS_TOTAL]);
        assert_eq!(snap.gauges[EXEC_WORKERS_LAST], 7);
        assert_eq!(snap.histograms[ROUTER_QUEUE_OCCUPANCY].count, 1);
    }
}
