#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-telemetry — deterministic observability for the fcn-emu workspace
//!
//! A zero-overhead-when-disabled metrics subsystem: `u64` counters,
//! fixed-bucket histograms and scoped [`Span`] timers, all recorded into
//! thread-local [`LocalShard`]s that `fcn-exec` merges once per worker,
//! and merged at the end of a run into a [`MetricsRegistry`] — an enable
//! switch plus one locked `LocalShard`. Design invariants:
//!
//! 1. **Disabled means free.** The [`global`] registry starts disabled, and
//!    every instrumented hot path checks [`MetricsRegistry::enabled`] (one
//!    relaxed load) once per run before doing any collection work; the
//!    router's disabled path is one `None` branch per tick.
//! 2. **Telemetry never perturbs the simulation.** Collection only *reads*
//!    simulation state; no simulated bit depends on whether metrics are on.
//!    `crates/routing/tests/telemetry_determinism.rs` asserts byte-identical
//!    outcomes with telemetry on vs off at `--jobs 1` and `--jobs 4`.
//! 3. **Every metric is a sum.** Everything is `u64` addition (histograms
//!    merge bucket-wise), so merging commutes: per-worker shards merged in
//!    any order give the same totals as a single-threaded run —
//!    property-tested in `tests/shard_merge.rs`. There is no last-write-wins
//!    kind. The exceptions are wall-clock measurements (span timings and
//!    busy/idle nanos); [`MetricsSnapshot::without_wall_clock`] strips them
//!    for comparisons.
//! 4. **Snapshots are versioned.** JSONL exports carry
//!    [`SNAPSHOT_SCHEMA`] and validate on read
//!    ([`MetricsSnapshot::from_jsonl`]); a Prometheus text exposition is
//!    available via [`MetricsSnapshot::to_prometheus`] (`fcnemu metrics
//!    --format prom`).
//! 5. **The registry is a leaf lock.** A [`MetricsRegistry`] keeps its
//!    shard behind one private mutex, and each critical section is one
//!    `LocalShard` method that calls nothing outside this crate, so any
//!    layer may record a metric while it holds its own lock. The
//!    workspace's lock type and its flat lock order live one crate up, in
//!    `fcn_exec::sync`.

pub mod hist;
pub mod names;
pub mod registry;
pub mod shard;
pub mod snapshot;
pub mod span;

pub use hist::{bucket_index, bucket_upper_bound, LocalHistogram, HIST_BUCKETS};
pub use registry::{global, MetricsRegistry};
pub use shard::{flush_thread_shard, put_shard, take_shard, with_shard, LocalShard, SpanStat};
pub use snapshot::{MetricsSnapshot, SNAPSHOT_SCHEMA};
pub use span::Span;
