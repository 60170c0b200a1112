//! Scoped span timers.
//!
//! A [`Span`] measures the wall-clock time of a lexical scope and records it
//! into the current thread's shard on drop. When the global registry is
//! disabled, [`Span::enter`] is a single relaxed load plus a `None` — no
//! clock read, no shard access — which is what keeps instrumented call
//! sites free on the disabled path.
//!
//! Span timings are *observability only*: they are wall-clock measurements
//! and therefore not reproducible run-to-run, unlike every counter and
//! histogram in the workspace. They are exported as
//! `span_{name}_calls_total` / `span_{name}_nanos_total` counter pairs,
//! and determinism tests compare snapshots with span metrics excluded.

use std::time::Instant;

use crate::registry::global;
use crate::shard::with_shard;

/// A scoped timer; records into the thread shard when dropped.
///
/// ```
/// {
///     let _span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_FLUX);
///     // ... timed work ...
/// } // recorded here (if telemetry is enabled)
/// ```
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Start a span named `name`. Reads the clock only when the global
    /// registry is enabled; the name is checked against the table either
    /// way (debug builds).
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        crate::shard::assert_name(name);
        // Wall clock allowed: spans exist to measure wall time, and
        // span durations are excluded from determinism comparisons.
        #[allow(clippy::disallowed_methods)]
        let start = if global().enabled() {
            Some(Instant::now())
        } else {
            None
        };
        Span { name, start }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_shard(|s| s.record_span(self.name, nanos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::take_shard;

    #[test]
    fn disabled_span_records_nothing() {
        // The global registry starts disabled in a fresh process, but other
        // tests may have enabled it; only assert on the disabled branch.
        if global().enabled() {
            return;
        }
        let _ = take_shard();
        drop(Span::enter(crate::names::SPAN_FLUX));
        assert!(take_shard().is_empty());
    }
}
