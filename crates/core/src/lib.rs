#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-core
//!
//! The primary contribution of Kruskal & Rappoport (SPAA'94), made
//! executable:
//!
//! * [`theorem`] — the **Efficient Emulation Theorem**
//!   (`S ≥ Ω(β(G)/β(H))`) as a symbolic bound with premise auditing;
//! * [`hostsize`] — maximum host sizes from `n/m = β_G(n)/β_H(m)`
//!   (symbolic growth classes and numeric crossovers);
//! * [`tables`] — regeneration of the paper's Tables 1–3;
//! * [`figures`] — regeneration of Figures 1 (slowdown crossover) and 2
//!   (cone construction statistics);
//! * [`circuit`] — the redundant circuit model (levels, classes, copies,
//!   efficiency and correctness audits);
//! * [`lemma9`] — the constructive cone witness: the quasi-symmetric
//!   traffic `γ ∈ K_{Θ(nt),1}` inside every efficient circuit, with
//!   measured congestion;
//! * [`lemma11`] — bandwidth preservation under super-vertex collapse,
//!   measured;
//! * [`emulate`] — executable emulation strategies (direct embedding and
//!   redundant block-halo) giving measured upper bounds that sandwich the
//!   theorem's lower bound.

pub mod circuit;
pub mod emulate;
pub mod exec;
pub mod figures;
pub mod hostsize;
pub mod lemma11;
pub mod lemma9;
pub mod patterns;
pub mod statements;
pub mod tables;
pub mod theorem;

pub use circuit::{Circuit, CircuitNode};
pub use emulate::{block_mesh_emulation, direct_emulation, EmulationConfig, EmulationReport};
pub use exec::{
    guest_step, initial_states, reference_run, verify_block_emulation, verify_direct_emulation,
    VerificationReport,
};
pub use figures::{fig1_data, fig1_measured, fig2_series, Fig1Data, Fig1Measured, Fig1Point};
pub use hostsize::{
    empirical_host_size, host_size_cell, max_host_size, numeric_host_size, HostSizeBound,
    HostSizeCell,
};
pub use lemma11::{collapse_preservation, Lemma11Report};
pub use lemma9::{
    build_witness, build_witness_in_circuit, witness_depth, Lemma9Config, Lemma9Witness,
};
pub use patterns::{execute_pattern, pattern_bandwidth, CommPattern, PatternExecution};
pub use statements::{theorem2, theorem3, theorem4, theorem5, TheoremStatement};
pub use tables::{
    generate_table, table1_spec, table2_spec, table3_spec, GeneratedTable, TableSpec,
};
pub use theorem::{check_premises, slowdown_lower_bound, PremiseReport, SlowdownBound};

/// Glob-import surface re-exported by the `fcn-emu` facade.
pub mod prelude {
    pub use crate::circuit::Circuit;
    pub use crate::emulate::{
        block_mesh_emulation, direct_emulation, EmulationConfig, EmulationReport,
    };
    pub use crate::figures::{fig1_data, fig1_measured, fig2_series, Fig1Data};
    pub use crate::hostsize::{
        empirical_host_size, max_host_size, numeric_host_size, HostSizeBound,
    };
    pub use crate::lemma11::collapse_preservation;
    pub use crate::lemma9::{build_witness, build_witness_in_circuit, Lemma9Config};
    pub use crate::patterns::{execute_pattern, pattern_bandwidth, CommPattern};
    pub use crate::statements::{theorem2, theorem3, theorem4, theorem5};
    pub use crate::tables::{generate_table, table1_spec, table2_spec, table3_spec};
    pub use crate::theorem::{check_premises, slowdown_lower_bound, SlowdownBound};
}
