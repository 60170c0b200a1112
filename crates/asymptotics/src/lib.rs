#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-asymptotics
//!
//! Exact symbolic algebra over growth expressions `c · n^a · (lg n)^b ·
//! (lg lg n)^d` with rational exponents, plus the numeric tooling needed to
//! connect the symbolic side to measured data:
//!
//! * [`Rational`] — exact exponent arithmetic;
//! * [`Asym`] — the growth-expression class that Tables 1–4 of Kruskal &
//!   Rappoport (SPAA'94) live in, closed under `*`, `/` and rational powers;
//! * [`solve`] — monotone inversion / crossover finding (Figure 1) and the
//!   symbolic `m^e (lg m)^d = X(n)` solver behind the maximum-host-size
//!   tables;
//! * [`fit`] — log-log least squares with exponent snapping, used to classify
//!   measured bandwidths back into Θ-classes.
//!
//! This crate is dependency-free (besides `serde`) and fully deterministic.

pub mod expr;
pub mod fit;
pub mod rational;
pub mod solve;

pub use expr::Asym;
pub use fit::{fit_power_log, snap_rational, PowerLogFit};
pub use rational::Rational;
pub use solve::{crossover, invert_monotone, solve_power_log, SolveError};
