#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fcn-routing
//!
//! A synchronous, unit-capacity, store-and-forward packet-routing simulator
//! — the operational realization of the Kruskal–Snir bandwidth definition
//! the paper builds on: route `m` messages drawn from a traffic
//! distribution, measure the completion time `r(m)`, and report the
//! delivery rate `m / r(m)`.
//!
//! * [`oracle`] — converts source/destination demands into explicit routes
//!   (randomized shortest paths or Valiant two-phase), with per-source
//!   seeding that makes every route a pure function of
//!   `(graph, node limit, source, seed)`;
//! * [`cache`] — memoized BFS trees ([`PlanCache`]) serving repeated
//!   batches on the same machine and seed;
//! * [`compiled`] — the compile-once artifacts: [`CompiledNet`] (the
//!   machine's directed-wire CSR, shared across every batch of a sweep) and
//!   [`PacketBatch`] (flat SoA paths with hops pre-resolved to wire ids);
//! * [`engine`] — the tick simulator: one packet per wire per tick, per-node
//!   send budgets for the "weak" machines, pluggable queue disciplines,
//!   pooled [`RouterScratch`] arenas, and one run-a-batch kernel,
//!   [`route_compiled`];
//! * [`events`] — the calendar wheel behind every run's quiescent-span
//!   skip (sparse injection schedules, fault outage windows, drain tails),
//!   bit-identical to simulating every tick;
//! * [`harness`] — batch-rate measurement, built around the compile-once
//!   [`RouteCtx`];
//! * [`steady`] — open-loop (steady-state) throughput ramps.

pub mod cache;
pub mod compiled;
pub mod engine;
pub mod events;
pub mod harness;
pub mod native;
pub mod oracle;
pub mod packet;
pub mod steady;

pub use cache::PlanCache;
pub use compiled::{CompiledNet, InjectionSchedule, PacketBatch, RouteError};
pub use engine::{
    route_batch, route_compiled, route_compiled_pooled, AbortCause, RouterConfig, RouterScratch,
    RoutingOutcome,
};
pub use events::{EventKind, EventWheel};
pub use harness::{measure_rate, measure_rate_ctx, plateau_rate, RateSample, RouteCtx};
pub use native::{
    de_bruijn_path, plan_batch, plan_routes, plan_routes_cached, plan_routes_degraded,
    plan_routes_faulted, shuffle_exchange_path, DegradedPlan,
};
pub use oracle::PathOracle;
pub use packet::{PacketPath, QueueDiscipline, Strategy};
pub use steady::{saturation_throughput, steady_state_rate_ctx, SteadyConfig, SteadyOutcome};
