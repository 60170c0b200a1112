#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fcn-bandwidth
//!
//! Communication-bandwidth estimation for fixed-connection machines,
//! realizing both sides of the paper's `β`:
//!
//! * [`operational`] — measured delivery rates via saturation sweeps on the
//!   `fcn-routing` simulator (achievable ⇒ lower estimates), with parallel
//!   independent trials;
//! * [`flux`] — certified cut/node-capacity upper bounds ("at most one
//!   message crosses an edge per tick");
//! * [`sandwich`](mod@sandwich) — measured + certified + analytic rows per machine size,
//!   with log-log exponent fitting across a family sweep (the Table 4
//!   reproduction pipeline);
//! * [`bottleneck`] — the bottleneck-freeness audit behind the Efficient
//!   Emulation Theorem's host premise;
//! * [`degraded`] — β-vs-fault-rate curves: the operational estimator run
//!   against a deterministic fault plane (`fcn-faults`), measuring how
//!   gracefully the delivery rate decays as wires and processors die.

pub mod bottleneck;
pub mod degraded;
pub mod flux;
pub mod operational;
pub mod sandwich;
pub mod theorem6;

pub use bottleneck::{audit_bottleneck_freeness, quick_audit, BottleneckAudit};
pub use degraded::{DegradedPoint, DegradedSweep};
pub use flux::{flux_upper_bound, FluxBound};
pub use operational::{BandwidthEstimate, BandwidthEstimator, EstimateAborted};
pub use sandwich::{sandwich, sweep_family, BandwidthSandwich, FamilySweep};
pub use theorem6::{embedding_lower_bound, theorem6_sandwich, EmbeddingBound, Theorem6Certificate};
