#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-serve
//!
//! The long-lived emulation service behind `fcnemu serve`: a daemon that
//! amortizes process startup, net compilation, and plan-cache warmup across
//! requests instead of paying them per invocation.
//!
//! The crate is deliberately split from `fcn-cli`: this crate owns the
//! *mechanism* (framed protocol, admission control, deadlines, the warm
//! [`Registry`] of compiled nets, per-request telemetry merging) and
//! exposes a [`Handler`] trait for the *policy* — `fcn-cli` implements the
//! trait by dispatching request kinds into its existing subcommand bodies,
//! which is what makes daemon responses byte-identical to inline `fcnemu`
//! output by construction.
//!
//! ## Protocol
//!
//! One TCP connection carries a sequence of length-prefixed JSON frames
//! (big-endian `u32` byte length, then that many bytes of UTF-8 JSON).
//! Requests and responses are tagged [`proto::SERVE_SCHEMA`] (`fcn-serve/1`);
//! every response echoes the request `id` and carries a typed
//! [`proto::ServeError`] on failure — a connection is never dropped without
//! a framed reply to every frame it delivered.
//!
//! ## Invariants
//!
//! * **Admission**: at most `max_inflight` heavy requests execute at once;
//!   up to `max_queued` more wait in strict FIFO order for a bounded
//!   `queue_wait_ms` (never past their own deadline), and everything beyond
//!   that is shed with a framed `Overloaded{retry_after_ms}` before any
//!   work runs ([`Admission`]). `ping`/`metrics`/`health` never queue
//!   behind heavy work.
//! * **Deadlines**: a request's `deadline_ms` arms an [`fcn_exec::Watchdog`]
//!   whose token is threaded into the routing engines; expiry surfaces as a
//!   framed `Cancelled` error with partial accounting, never a hung socket.
//!   An explicit `deadline_ms: 0` is a `BadRequest`.
//! * **Drain**: when the shutdown flag rises (SIGTERM in the CLI), the
//!   listener stops accepting, in-flight requests finish and reply, and
//!   frames that arrive during the drain get a framed `Shutdown` error.
//! * **Telemetry**: each request's metrics are captured in a thread-local
//!   shard and merged into the server's registry as soon as the request has
//!   executed. Every metric is a sum, so a `metrics` request renders the
//!   same bytes regardless of which worker finished first. Connection,
//!   chaos, and replay counters live *outside* the request registry, which
//!   is what keeps the `metrics` render a pure function of the executed
//!   requests even under chaos.
//! * **Chaos**: wire faults are injected only by a seeded [`ChaosPlan`]
//!   (a pure function of seed + rates) wrapped around a [`FramedConn`]'s
//!   reply path, and only *after* the request executed — so a retrying
//!   client recovers byte-identical payloads, with completed-but-lost
//!   replies replayed from the idempotent reply cache instead of
//!   re-running. The decision types are `pub(super)` in `io::chaos`, so
//!   no module outside `io` can construct or apply one.

pub mod admission;
pub mod client;
pub mod io;
pub mod proto;
pub mod registry;
pub mod server;

pub use admission::{
    class_of, Admission, AdmissionSnapshot, Admit, Class, Permit, Shed, ShedReason,
};
pub use client::{Client, ClientError, RetryPolicy};
pub use io::chaos::{ChaosPlan, ChaosRates, ChaosSpec, ChaosStats};
pub use io::FramedConn;
pub use proto::{ErrorKind, Request, Response, ServeError, SERVE_SCHEMA};
pub use registry::{Registry, RegistryEntry};
pub use server::{Handler, HandlerOutcome, Server, ServerConfig};
