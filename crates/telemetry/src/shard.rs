//! Thread-local metric shards.
//!
//! Workers never touch the shared [`MetricsRegistry`]
//! from the hot path. Instead, each thread accumulates into a plain
//! [`LocalShard`] (no atomics, no locks) and the *coordinator* — normally
//! `fcn-exec`'s pool — merges the shards, in whatever order they arrive,
//! before merging once into the registry, which is itself a locked
//! `LocalShard`. Every instrument is a sum: every shard operation is a
//! `u64` addition (histogram merging is bucket-wise `u64` addition), so
//! merge commutes and the merged totals are independent of worker count
//! and scheduling: telemetry can be enabled on any `--jobs N` without
//! perturbing either the metrics or the simulation.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::hist::LocalHistogram;
use crate::names::ALL;
use crate::registry::MetricsRegistry;
use crate::snapshot::MetricsSnapshot;

/// Every metric and span name comes from the [`names`](crate::names) table.
/// Checked in debug builds only, so a name typed as a literal fails the
/// first test that records it.
#[inline]
pub(crate) fn assert_name(name: &str) {
    debug_assert!(
        ALL.contains(&name),
        "metric name {name:?} is not in fcn_telemetry::names::ALL"
    );
}

/// Aggregate for one span name: call count plus total elapsed nanos.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub nanos: u64,
}

/// A plain, single-threaded bundle of metrics.
///
/// Keys are `&'static str` because every metric name in the workspace is a
/// const of the [`names`](crate::names) table (each recorder debug-asserts
/// it); this keeps the hot path free of allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalShard {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LocalHistogram>,
    spans: BTreeMap<&'static str, SpanStat>,
}

impl LocalShard {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, v: u64) {
        assert_name(name);
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Add one to counter `name`.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Record one observation into histogram `name`.
    #[inline]
    pub fn record(&mut self, name: &'static str, v: u64) {
        assert_name(name);
        self.histograms.entry(name).or_default().record(v);
    }

    /// Merge a pre-built histogram into histogram `name` (used by the
    /// router, which accumulates its per-run occupancy histogram locally
    /// and hands it over in one call).
    pub fn record_histogram(&mut self, name: &'static str, h: &LocalHistogram) {
        assert_name(name);
        if !h.is_empty() {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Record one completed span.
    #[inline]
    pub fn record_span(&mut self, name: &'static str, nanos: u64) {
        assert_name(name);
        let s = self.spans.entry(name).or_default();
        s.calls += 1;
        s.nanos += nanos;
    }

    /// Merge `other` into `self`: counters, histograms, and spans add, so
    /// the result does not depend on the order of merges.
    pub fn merge(&mut self, other: &LocalShard) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
        for (k, s) in &other.spans {
            let e = self.spans.entry(k).or_default();
            e.calls += s.calls;
            e.nanos += s.nanos;
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// Counter value (0 if absent) — test/inspection helper.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram contents (empty if absent) — test/inspection helper.
    pub fn histogram(&self, name: &str) -> LocalHistogram {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Span aggregate (zeroes if absent) — test/inspection helper.
    pub fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Render as a [`MetricsSnapshot`]: counters that are not zero, every
    /// histogram, and each span as two counters,
    /// `span_{name}_calls_total` and `span_{name}_nanos_total`.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(k, &v)| (k.to_string(), v))
            .collect();
        for (k, s) in &self.spans {
            counters.insert(format!("span_{k}_calls_total"), s.calls);
            counters.insert(format!("span_{k}_nanos_total"), s.nanos);
        }
        MetricsSnapshot {
            counters,
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.to_string(), h.clone()))
                .collect(),
        }
    }
}

thread_local! {
    static SHARD: RefCell<LocalShard> = RefCell::new(LocalShard::new());
}

/// Run `f` with mutable access to this thread's shard.
///
/// Callers are expected to have checked
/// [`global().enabled()`](crate::global) first; the shard itself is always
/// available.
#[inline]
pub fn with_shard<R>(f: impl FnOnce(&mut LocalShard) -> R) -> R {
    SHARD.with(|s| f(&mut s.borrow_mut()))
}

/// Take this thread's shard, leaving an empty one behind.
///
/// Each of `fcn-exec`'s workers calls this once, after its last job, to
/// hand what its jobs recorded to the pool's caller; `fcn-serve` calls it
/// after each request to merge what the request recorded.
pub fn take_shard() -> LocalShard {
    SHARD.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Replace this thread's shard wholesale (counterpart of [`take_shard`]).
pub fn put_shard(shard: LocalShard) {
    SHARD.with(|s| *s.borrow_mut() = shard);
}

/// Drain this thread's shard into `reg` (no-op on an empty shard).
pub fn flush_thread_shard(reg: &MetricsRegistry) {
    let shard = take_shard();
    if !shard.is_empty() {
        reg.merge(&shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{
        ROUTER_HOPS_TOTAL, ROUTER_QUEUE_OCCUPANCY, ROUTER_RUNS_TOTAL, ROUTER_TICKS_TOTAL, SPAN_FLUX,
    };

    #[test]
    fn merge_adds_counters_hists_and_spans() {
        let mut a = LocalShard::new();
        a.add(ROUTER_RUNS_TOTAL, 2);
        a.record(ROUTER_QUEUE_OCCUPANCY, 4);
        a.record_span(SPAN_FLUX, 10);

        let mut b = LocalShard::new();
        b.add(ROUTER_RUNS_TOTAL, 3);
        b.record(ROUTER_QUEUE_OCCUPANCY, 5);
        b.record_span(SPAN_FLUX, 30);

        a.merge(&b);
        assert_eq!(a.counter(ROUTER_RUNS_TOTAL), 5);
        assert_eq!(a.histogram(ROUTER_QUEUE_OCCUPANCY).count, 2);
        assert_eq!(
            a.span(SPAN_FLUX),
            SpanStat {
                calls: 2,
                nanos: 40
            }
        );
    }

    #[test]
    fn merge_is_order_sensitive_only_for_gauges() {
        // With no gauge kind, every merge commutes.
        let mut a = LocalShard::new();
        a.add(ROUTER_TICKS_TOTAL, 1);
        a.record(ROUTER_QUEUE_OCCUPANCY, 7);
        a.record_span(SPAN_FLUX, 3);
        let mut b = LocalShard::new();
        b.add(ROUTER_TICKS_TOTAL, 4);
        b.record(ROUTER_QUEUE_OCCUPANCY, 2);
        b.add(ROUTER_HOPS_TOTAL, 9);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn take_and_put_round_trip() {
        with_shard(|s| s.add(ROUTER_HOPS_TOTAL, 7));
        let shard = take_shard();
        assert_eq!(shard.counter(ROUTER_HOPS_TOTAL), 7);
        with_shard(|s| assert!(s.is_empty()));
        put_shard(shard);
        with_shard(|s| assert_eq!(s.counter(ROUTER_HOPS_TOTAL), 7));
        // clean up for other tests on this thread
        let _ = take_shard();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not in fcn_telemetry::names::ALL")]
    fn a_name_outside_the_table_panics_in_debug_builds() {
        LocalShard::new().add("router_runs", 1);
    }
}
