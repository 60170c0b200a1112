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
//! * [`native`] — machine-aware planning: [`plan_trial`] dispatches on each
//!   machine's native routing policy and plans around faults;
//! * [`compiled`] — the compile-once artifacts: [`CompiledNet`] (the
//!   machine's directed-wire CSR, shared across every batch of a sweep) and
//!   [`PacketBatch`] (each route as a run of wire ids);
//! * [`engine`] — the tick simulator: one packet per wire per tick, per-node
//!   send budgets for the "weak" machines, pluggable queue disciplines,
//!   pooled [`RouterScratch`] arenas, and one run-a-batch kernel,
//!   [`route_compiled`];
//! * [`harness`] — batch-rate measurement, built around the compile-once
//!   [`RouteCtx`], whose [`RouteCtx::route_demands`] plans and routes a
//!   batch of demands in one call;
//! * [`steady`] — open-loop (steady-state) throughput ramps.

pub mod cache;
pub mod compiled;
pub mod engine;
pub mod harness;
pub mod native;
pub mod oracle;
pub mod packet;
pub mod steady;

pub use cache::PlanCache;
pub use compiled::{CompiledNet, PacketBatch, RouteError};
pub use engine::{
    route_compiled, route_compiled_pooled, AbortCause, RouterConfig, RouterScratch, RoutingOutcome,
};
pub use harness::{
    measure_rate, measure_rates_ctx, plateau_rate, CellSample, RateSample, RouteCtx,
};
pub use native::{plan_routes_cached, plan_trial, DegradedPlan, Faults};
pub use oracle::PathOracle;
pub use packet::{PacketPath, QueueDiscipline, Strategy};
pub use steady::{saturation_throughput, steady_state_rate_ctx, SteadyConfig, SteadyOutcome};
