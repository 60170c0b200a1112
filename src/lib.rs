#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-emu — Bandwidth-Based Lower Bounds on Slowdown for Efficient
//! # Emulations of Fixed-Connection Networks
//!
//! A faithful, executable reproduction of Kruskal & Rappoport (SPAA 1994).
//! The paper proves that any *efficient* (work-preserving, redundant-model)
//! emulation of a guest fixed-connection network `G` on a bottleneck-free
//! host `H` incurs slowdown `S ≥ Ω(β(G)/β(H))`, where `β` is communication
//! bandwidth — the expected message delivery rate under symmetric traffic.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`asymptotics`] — exact Θ-algebra, crossover solving, exponent fitting;
//! * [`multigraph`] — multigraphs, traffic, cuts, embeddings, collapse;
//! * [`topology`] — the 19 machine families of Table 4;
//! * [`routing`] — synchronous unit-capacity packet-routing simulator;
//! * [`bandwidth`] — operational β estimation, flux bounds, bottleneck audit;
//! * [`core`] — circuits, Lemmas 9/11, the Efficient Emulation Theorem,
//!   host-size tables (Tables 1–3) and executable emulation strategies;
//! * [`exec`] — deterministic fork-join pool powering the parallel sweeps
//!   (`--jobs N`), with per-job seeds that make results independent of
//!   scheduling order;
//! * [`faults`] — the deterministic fault plane: seeded [`faults::FaultPlan`]s
//!   that kill wires and processors reproducibly, feeding the degraded-β
//!   sweeps and the router's typed abort causes.
//!
//! ## Quickstart
//!
//! ```
//! use fcn_emu::prelude::*;
//!
//! // The paper's introduction example: an n-processor de Bruijn guest on an
//! // m-processor 2-d mesh host can only be efficiently emulated when
//! // m = O(lg^2 n).
//! let guest = Machine::de_bruijn(10);        // n = 1024
//! let host = Machine::mesh(2, 8);            // 8x8 mesh
//! let bound = slowdown_lower_bound(&guest.family(), &host.family());
//! assert_eq!(bound.to_string(), "Θ((n * lg^-1 n) / (m^(1/2)))");
//!
//! // Maximum efficient host size: O(lg^2 n).
//! let cap = max_host_size(&guest.family(), &host.family());
//! assert_eq!(cap.to_cell(), "O(lg^2 n)");
//! ```

pub use fcn_asymptotics as asymptotics;
pub use fcn_bandwidth as bandwidth;
pub use fcn_core as core;
pub use fcn_exec as exec;
pub use fcn_faults as faults;
pub use fcn_multigraph as multigraph;
pub use fcn_routing as routing;
pub use fcn_topology as topology;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use fcn_asymptotics::{Asym, Rational};
    pub use fcn_bandwidth::{BandwidthEstimate, BandwidthEstimator, FluxBound};
    pub use fcn_core::prelude::*;
    pub use fcn_exec::Pool;
    pub use fcn_faults::{FaultPlan, FaultSpec};
    pub use fcn_multigraph::{Multigraph, Traffic};
    pub use fcn_routing::{RouterConfig, RoutingOutcome};
    pub use fcn_topology::{Family, Machine, Topology};
}
