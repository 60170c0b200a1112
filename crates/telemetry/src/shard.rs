//! Thread-local metric shards.
//!
//! Workers never touch the shared [`MetricsRegistry`]
//! from the hot path. Instead, each thread accumulates into a plain
//! [`LocalShard`] (no atomics, no locks) and the *coordinator* — normally
//! `fcn-exec`'s pool — collects the shards and merges them **in job-index
//! order** before flushing once into the registry. Because every shard
//! operation is a `u64` addition (and histogram merging is bucket-wise `u64`
//! addition), the merged totals are independent of worker count and
//! scheduling: telemetry can be enabled on any `--jobs N` without perturbing
//! either the metrics or the simulation.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::hist::LocalHistogram;
use crate::registry::MetricsRegistry;

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
/// compile-time constant; this keeps the hot path free of allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalShard {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
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
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Add one to counter `name`.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Set gauge `name` (last write wins; in a merge, `other` wins).
    #[inline]
    pub fn set_gauge(&mut self, name: &'static str, v: u64) {
        self.gauges.insert(name, v);
    }

    /// Record one observation into histogram `name`.
    #[inline]
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// Merge a pre-built histogram into histogram `name` (used by the
    /// router, which accumulates its per-run occupancy histogram locally
    /// and hands it over in one call).
    pub fn record_histogram(&mut self, name: &'static str, h: &LocalHistogram) {
        if !h.is_empty() {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Record one completed span.
    #[inline]
    pub fn record_span(&mut self, name: &'static str, nanos: u64) {
        let s = self.spans.entry(name).or_default();
        s.calls += 1;
        s.nanos += nanos;
    }

    /// Merge `other` into `self`: counters, histograms, and spans add;
    /// gauges take `other`'s value (last-write-wins, matching the
    /// index-order merge convention where later jobs are "newer").
    pub fn merge(&mut self, other: &LocalShard) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k, *v);
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
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Counter value (0 if absent) — test/inspection helper.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (None if never set) — test/inspection helper.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Histogram contents (empty if absent) — test/inspection helper.
    pub fn histogram(&self, name: &str) -> LocalHistogram {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Span aggregate (zeroes if absent) — test/inspection helper.
    pub fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Flush everything into `reg`. Spans materialize as two counters,
    /// `span_{name}_calls_total` and `span_{name}_nanos_total`.
    pub fn flush_into(&self, reg: &MetricsRegistry) {
        for (k, v) in &self.counters {
            if *v != 0 {
                reg.counter(k).add(*v);
            }
        }
        for (k, v) in &self.gauges {
            reg.gauge(k).set(*v);
        }
        for (k, h) in &self.histograms {
            reg.histogram(k).merge_local(h);
        }
        for (k, s) in &self.spans {
            reg.counter(&format!("span_{k}_calls_total")).add(s.calls);
            reg.counter(&format!("span_{k}_nanos_total")).add(s.nanos);
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
/// `fcn-exec` calls this after each job closure returns to capture the
/// job's metric delta, and again around sequential fallbacks to keep the
/// caller's own shard untouched.
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
        shard.flush_into(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_hists_spans_and_overwrites_gauges() {
        let mut a = LocalShard::new();
        a.add("c_total", 2);
        a.set_gauge("g", 1);
        a.record("h", 4);
        a.record_span("work", 10);

        let mut b = LocalShard::new();
        b.add("c_total", 3);
        b.set_gauge("g", 9);
        b.record("h", 5);
        b.record_span("work", 30);

        a.merge(&b);
        assert_eq!(a.counter("c_total"), 5);
        assert_eq!(a.gauge("g"), Some(9));
        assert_eq!(a.histogram("h").count, 2);
        assert_eq!(
            a.span("work"),
            SpanStat {
                calls: 2,
                nanos: 40
            }
        );
    }

    #[test]
    fn merge_is_order_sensitive_only_for_gauges() {
        let mut a = LocalShard::new();
        a.add("x_total", 1);
        a.record("h", 7);
        let mut b = LocalShard::new();
        b.add("x_total", 4);
        b.record("h", 2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "no gauges => merge commutes");
    }

    #[test]
    fn take_and_put_round_trip() {
        with_shard(|s| s.add("tp_total", 7));
        let shard = take_shard();
        assert_eq!(shard.counter("tp_total"), 7);
        with_shard(|s| assert!(s.is_empty()));
        put_shard(shard);
        with_shard(|s| assert_eq!(s.counter("tp_total"), 7));
        // clean up for other tests on this thread
        let _ = take_shard();
    }

    #[test]
    fn flush_into_registry_including_spans() {
        let reg = MetricsRegistry::new();
        let mut s = LocalShard::new();
        s.add("f_total", 2);
        s.set_gauge("f_gauge", 5);
        s.record("f_hist", 3);
        s.record_span("step", 120);
        s.flush_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["f_total"], 2);
        assert_eq!(snap.gauges["f_gauge"], 5);
        assert_eq!(snap.histograms["f_hist"].count, 1);
        assert_eq!(snap.counters["span_step_calls_total"], 1);
        assert_eq!(snap.counters["span_step_nanos_total"], 120);
    }
}
