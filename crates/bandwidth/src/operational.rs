//! Operational bandwidth estimation: the measured side of `β`.
//!
//! Fans the full `trials × multipliers` grid out over a deterministic
//! [`fcn_exec::Pool`] and combines the cells into a [`BandwidthEstimate`].
//! The paper's `β` is the `m → ∞` expected rate; at finite size we report
//! the best plateau across trials together with the per-cell samples so
//! downstream fitting can see the spread.
//!
//! ## Determinism
//!
//! Every grid cell derives its seeds purely from its indices: cell
//! `(trial, multiplier i)` draws demands with
//! `job_seed(seed, trial · M + i)` and plans routes with
//! `job_seed(seed ⊕ PLAN_STREAM, trial)`. No cell reads another cell's RNG,
//! so the estimate is bit-identical for any worker count (`jobs = 1` and
//! `jobs = 16` agree exactly — see `tests/determinism.rs`).
//!
//! Sharing one *plan* seed across a trial's multipliers is also what makes
//! the [`PlanCache`] effective: the growing batches of a trial reuse the
//! same BFS trees, so each tree is computed once per (trial, source) and
//! served from memory for the trial's later batches. A trial's trees form
//! one cache generation; when trials × sources outgrow the cache, it
//! evicts the oldest finished trial to make room for the running one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fcn_exec::{job_seed, Pool};
use fcn_multigraph::Traffic;
use fcn_routing::{
    measure_rate_ctx, CompiledNet, PlanCache, RateSample, RouteCtx, RouterConfig, Strategy,
};
use fcn_topology::Machine;
use serde::{Deserialize, Serialize};

/// Domain separator for the plan-seed stream (vs the demand-seed stream).
/// Shared with [`crate::degraded`] so a zero-fault degraded sweep reproduces
/// the estimator's cells bit-for-bit.
pub(crate) const PLAN_STREAM: u64 = 0x9_1a7e_5eed;

/// Configuration for operational bandwidth estimation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthEstimator {
    /// Batch sizes as multiples of the traffic population `n`.
    pub multipliers: Vec<usize>,
    /// Routing strategy.
    pub strategy: Strategy,
    /// Router configuration (discipline, tick budget).
    pub router: RouterConfig,
    /// Independent trials (different seeds).
    pub trials: usize,
    /// Base seed; grid cells derive their seeds from it by index.
    pub seed: u64,
    /// Worker threads for the `trials × multipliers` grid: `1` is
    /// sequential (the default), `0` means one per hardware thread. The
    /// estimate is bit-identical for every value.
    pub jobs: usize,
}

impl Default for BandwidthEstimator {
    fn default() -> Self {
        BandwidthEstimator {
            multipliers: vec![2, 4, 8],
            strategy: Strategy::ShortestPath,
            router: RouterConfig::default(),
            trials: 3,
            seed: 0xbead,
            jobs: 1,
        }
    }
}

/// Partial accounting for a gated estimate that produced no β̂ sample:
/// either the attached cancellation flag fired mid-grid, or no trial
/// completed within the tick budget. Either way the caller learns how much
/// of the grid ran before the abort instead of a panic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateAborted {
    /// Grid cells whose routing completed within the tick budget.
    pub cells_completed: usize,
    /// Total grid cells (`trials × multipliers`).
    pub cells_total: usize,
    /// Ticks simulated across all cells before the abort.
    pub ticks_spent: u64,
    /// `true` when the cancellation flag was observed set; `false` when
    /// the grid simply exhausted its tick budget.
    pub cancelled: bool,
}

impl std::fmt::Display for EstimateAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cancelled {
            write!(
                f,
                "cancelled after {}/{} cells ({} ticks simulated)",
                self.cells_completed, self.cells_total, self.ticks_spent
            )
        } else {
            write!(
                f,
                "no trial completed within the tick budget ({}/{} cells, {} ticks); \
                 raise router.max_ticks",
                self.cells_completed, self.cells_total, self.ticks_spent
            )
        }
    }
}

/// Result of operational estimation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthEstimate {
    /// Best completed plateau rate across trials — the β̂ sample.
    pub rate: f64,
    /// Mean of per-trial plateau rates (spread indicator).
    pub mean_rate: f64,
    /// All samples from all trials (trial-major, multiplier-minor order).
    pub samples: Vec<RateSample>,
    /// Number of trials whose sweeps all completed.
    pub complete_trials: usize,
}

impl BandwidthEstimator {
    /// Estimate the delivery rate of `machine` under `traffic`.
    ///
    /// # Panics
    /// Panics when no trial completes within the tick budget; use
    /// [`BandwidthEstimator::try_estimate_compiled`] to get the typed
    /// [`EstimateAborted`] instead.
    pub fn estimate(&self, machine: &Machine, traffic: &Traffic) -> BandwidthEstimate {
        self.estimate_on(machine, &CompiledNet::shared(machine), traffic)
    }

    /// [`BandwidthEstimator::estimate`] over an already-compiled net, with a
    /// fresh plan cache — for callers that run several estimates on one
    /// machine.
    pub(crate) fn estimate_on(
        &self,
        machine: &Machine,
        net: &Arc<CompiledNet>,
        traffic: &Traffic,
    ) -> BandwidthEstimate {
        match self.try_estimate_compiled(machine, net, traffic, &PlanCache::default(), None) {
            Ok(est) => est,
            // fcn-allow: ERR-UNWRAP ungated path keeps the historical panic contract
            Err(_) => panic!("no trial completed within the tick budget; raise router.max_ticks"),
        }
    }

    /// The estimator's core: run the `trials × multipliers` grid over an
    /// already-compiled net (shared across all cells and, via `Arc`, with
    /// any sibling estimates the caller runs on the same machine) and a
    /// caller-owned [`PlanCache`] (bit-transparent; `fcnemu beta --verbose`
    /// reports its counters), gated on an optional cancellation flag.
    ///
    /// A set flag aborts every in-flight cell with
    /// [`fcn_routing::AbortCause::Cancelled`] and the call returns
    /// [`EstimateAborted`] with partial accounting instead of panicking.
    /// An un-cancelled run that produces at least one plateau is
    /// bit-identical to the ungated path; a run whose grid exhausts its
    /// tick budget also returns `Err` (with `cancelled: false`) so long-
    /// lived callers such as the emulation service never panic.
    pub fn try_estimate_compiled(
        &self,
        machine: &Machine,
        net: &Arc<CompiledNet>,
        traffic: &Traffic,
        cache: &PlanCache,
        cancel: Option<&AtomicBool>,
    ) -> Result<BandwidthEstimate, EstimateAborted> {
        assert!(self.trials >= 1 && !self.multipliers.is_empty());
        let _span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_BANDWIDTH_ESTIMATE);
        let n = traffic.n();
        let m_len = self.multipliers.len();
        let cells = self.trials * m_len;
        let pool = Pool::new(self.jobs);
        let mut ctx = RouteCtx::from_net(machine, net.clone()).with_cache(cache);
        if let Some(c) = cancel {
            ctx = ctx.with_cancel(c);
        }
        let samples: Vec<RateSample> = pool.run(cells, |cell| {
            let trial = cell / m_len;
            let mi = cell % m_len;
            let messages = (self.multipliers[mi] * n).max(1);
            measure_rate_ctx(
                &ctx,
                traffic,
                messages,
                self.strategy,
                self.router,
                job_seed(self.seed, cell as u64),
                job_seed(self.seed ^ PLAN_STREAM, trial as u64),
            )
        });

        let mut plateaus = Vec::new();
        let mut complete_trials = 0;
        for trial in samples.chunks(m_len) {
            if trial.iter().all(|s| s.completed) {
                complete_trials += 1;
            }
            if let Some(p) = fcn_routing::plateau_rate(trial) {
                plateaus.push(p);
            }
        }
        if fcn_telemetry::global().enabled() {
            self.publish(&samples, complete_trials as u64);
        }
        // ordering: the flag is a monotone stop hint set by another thread;
        // Relaxed suffices for the final observation too.
        let cancelled = cancel.is_some_and(|c| c.load(Ordering::Relaxed));
        if cancelled || plateaus.is_empty() {
            return Err(EstimateAborted {
                cells_completed: samples.iter().filter(|s| s.completed).count(),
                cells_total: cells,
                ticks_spent: samples.iter().map(|s| s.ticks).sum(),
                cancelled,
            });
        }
        let rate = plateaus.iter().cloned().fold(0.0, f64::max);
        let mean_rate = plateaus.iter().sum::<f64>() / plateaus.len() as f64;
        Ok(BandwidthEstimate {
            rate,
            mean_rate,
            samples,
            complete_trials,
        })
    }

    /// Push one estimate's metrics into this thread's telemetry shard.
    ///
    /// `bandwidth_saturation_ticks_total` sums the ticks every grid cell
    /// spent reaching saturation (the cost of plateau detection), and the
    /// `bandwidth_cell_ticks` histogram shows their spread — together the
    /// resource-centric view of what a β̂ sample costs.
    fn publish(&self, samples: &[RateSample], complete_trials: u64) {
        let cell_ticks: u64 = samples.iter().map(|s| s.ticks).sum();
        fcn_telemetry::with_shard(|s| {
            s.inc(fcn_telemetry::names::BANDWIDTH_ESTIMATES_TOTAL);
            s.add(
                fcn_telemetry::names::BANDWIDTH_TRIALS_TOTAL,
                self.trials as u64,
            );
            s.add(
                fcn_telemetry::names::BANDWIDTH_COMPLETE_TRIALS_TOTAL,
                complete_trials,
            );
            s.add(
                fcn_telemetry::names::BANDWIDTH_CELLS_TOTAL,
                samples.len() as u64,
            );
            s.add(
                fcn_telemetry::names::BANDWIDTH_SATURATION_TICKS_TOTAL,
                cell_ticks,
            );
            for sample in samples {
                s.record(fcn_telemetry::names::BANDWIDTH_CELL_TICKS, sample.ticks);
            }
        });
    }

    /// Estimate under the machine's own symmetric traffic — `β̂(M)`.
    pub fn estimate_symmetric(&self, machine: &Machine) -> BandwidthEstimate {
        self.estimate(machine, &machine.symmetric_traffic())
    }

    /// This estimator with a different worker count (builder-style).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_topology::Machine;

    fn quick() -> BandwidthEstimator {
        BandwidthEstimator {
            multipliers: vec![2, 4],
            trials: 2,
            ..Default::default()
        }
    }

    #[test]
    fn estimates_are_positive_and_complete() {
        let m = Machine::mesh(2, 8);
        let est = quick().estimate_symmetric(&m);
        assert!(est.rate > 0.0);
        assert!(est.complete_trials == 2);
        assert_eq!(est.samples.len(), 4);
        assert!(est.mean_rate <= est.rate + 1e-12);
    }

    #[test]
    fn mesh_estimate_tracks_sqrt_n() {
        let e8 = quick().estimate_symmetric(&Machine::mesh(2, 8)).rate;
        let e16 = quick().estimate_symmetric(&Machine::mesh(2, 16)).rate;
        let ratio = e16 / e8;
        assert!(ratio > 1.3 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn trials_are_deterministic_for_fixed_seed() {
        let m = Machine::de_bruijn(4);
        let a = quick().estimate_symmetric(&m);
        let b = quick().estimate_symmetric(&m);
        assert_eq!(a.rate, b.rate);
        assert_eq!(a.samples.len(), b.samples.len());
    }

    #[test]
    fn parallel_estimate_matches_sequential() {
        let m = Machine::mesh(2, 8);
        let seq = quick().estimate_symmetric(&m);
        for jobs in [2, 4, 0] {
            let par = quick().with_jobs(jobs).estimate_symmetric(&m);
            assert_eq!(par.rate, seq.rate, "jobs={jobs}");
            assert_eq!(par.samples, seq.samples, "jobs={jobs}");
            assert_eq!(par.complete_trials, seq.complete_trials);
        }
    }

    #[test]
    fn bus_saturates_at_unit_rate() {
        let est = quick().estimate_symmetric(&Machine::global_bus(16));
        assert!(est.rate <= 1.05, "bus rate {}", est.rate);
    }

    #[test]
    fn gated_estimate_matches_ungated_when_never_cancelled() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let est = quick();
        let plain = est.estimate(&m, &t);
        for cancel in [None, Some(AtomicBool::new(false))] {
            let gated = est
                .try_estimate_compiled(
                    &m,
                    &CompiledNet::shared(&m),
                    &t,
                    &PlanCache::default(),
                    cancel.as_ref(),
                )
                .expect("unset flag must not abort");
            assert_eq!(gated.rate, plain.rate);
            assert_eq!(gated.samples, plain.samples);
            assert_eq!(gated.complete_trials, plain.complete_trials);
        }
    }

    #[test]
    fn preset_cancel_flag_aborts_with_partial_accounting() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let flag = AtomicBool::new(true);
        let err = quick()
            .try_estimate_compiled(
                &m,
                &CompiledNet::shared(&m),
                &t,
                &PlanCache::default(),
                Some(&flag),
            )
            .expect_err("a set flag must abort the grid");
        assert!(err.cancelled);
        assert_eq!(err.cells_total, 4);
        assert_eq!(err.cells_completed, 0, "no cell may complete routing");
        assert_eq!(err.ticks_spent, 0, "cells abort before their first tick");
        assert!(
            err.to_string().contains("cancelled after 0/4 cells"),
            "{err}"
        );
    }

    #[test]
    fn cancelled_partial_accounting_never_exceeds_the_clean_run() {
        // Property over seeded cancellation timings: however the abort
        // races the grid, the partial accounting must stay within the
        // clean (uncancelled) run's totals — an abort can only ever do
        // *less* work, and must never invent cells or ticks.
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let est = quick();
        let clean = est
            .try_estimate_compiled(
                &m,
                &CompiledNet::shared(&m),
                &t,
                &PlanCache::default(),
                None,
            )
            .expect("clean run completes");
        let clean_cells = clean.samples.iter().filter(|s| s.completed).count();
        let clean_ticks: u64 = clean.samples.iter().map(|s| s.ticks).sum();
        for seed in 0..24u64 {
            // Seeded delay in spin iterations: seed 0 is the deterministic
            // pre-cancelled boundary, later seeds race mid-grid.
            let spins = if seed == 0 {
                0
            } else {
                fcn_exec::job_seed(0xab07, seed) % 300_000
            };
            let flag = AtomicBool::new(spins == 0);
            let outcome = std::thread::scope(|scope| {
                if spins > 0 {
                    scope.spawn(|| {
                        for _ in 0..spins {
                            std::hint::spin_loop();
                        }
                        // ordering: monotone stop hint; see the estimator.
                        flag.store(true, Ordering::Relaxed);
                    });
                }
                est.try_estimate_compiled(
                    &m,
                    &CompiledNet::shared(&m),
                    &t,
                    &PlanCache::default(),
                    Some(&flag),
                )
            });
            match outcome {
                // Cancelled mid-grid: partials bounded by the clean totals.
                Err(err) => {
                    assert!(err.cancelled, "seed {seed}: only the flag may abort");
                    assert_eq!(err.cells_total, 4, "seed {seed}");
                    assert!(
                        err.cells_completed <= err.cells_total,
                        "seed {seed}: {}/{} cells",
                        err.cells_completed,
                        err.cells_total
                    );
                    assert!(
                        err.cells_completed <= clean_cells,
                        "seed {seed}: more completed cells than the clean run"
                    );
                    assert!(
                        err.ticks_spent <= clean_ticks,
                        "seed {seed}: {} ticks exceeds the clean run's {clean_ticks}",
                        err.ticks_spent
                    );
                }
                // The flag landed after the grid: bit-identical clean run.
                Ok(late) => {
                    assert_eq!(late.rate, clean.rate, "seed {seed}");
                    assert_eq!(late.samples, clean.samples, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn budget_exhaustion_reports_uncancelled_abort() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let mut est = quick();
        est.router.max_ticks = 1; // nothing can finish in one tick
        let err = est
            .try_estimate_compiled(
                &m,
                &CompiledNet::shared(&m),
                &t,
                &PlanCache::default(),
                None,
            )
            .expect_err("no trial can complete");
        assert!(!err.cancelled);
        assert!(err.to_string().contains("raise router.max_ticks"), "{err}");
    }
}
