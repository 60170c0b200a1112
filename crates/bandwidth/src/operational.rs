//! Operational bandwidth estimation: the measured side of `β`.
//!
//! Runs the `trials × multipliers` grid on a deterministic
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
//! `jobs = 16` agree exactly — see `tests/determinism.rs`) and for any
//! schedule. A family sweep (`crate::sandwich`) schedules whole trials on
//! one worker each, and a degraded sweep (`crate::degraded`) runs the
//! estimator's trials on a faulted context; all three derive every cell's
//! seeds from the one `GridCell`, run their trials through the one
//! `run_trials` and reduce with the one `reduce_grid`.
//!
//! ## The trial schedule
//!
//! Sharing one *plan* seed across a trial's multipliers means the trial's
//! growing batches route over the same BFS trees, so each trial is planned
//! as one: its cells' demands are grouped by source and the sources fan out
//! over the pool, each tree computed once and unwound into every route from
//! that source, written straight into the cells' batches as wire ids.
//! Routing has no per-trial barrier: on a parallel pool
//! [`fcn_routing::measure_trials`] routes the cells of consecutive trials
//! in one pool run while their batches stay under
//! [`fcn_routing::IN_FLIGHT_HOPS`] wire ids, largest batch first, so one
//! trial's largest cell overlaps the next trial's and the smaller cells
//! fill in behind them, and the caller's side task (`fcnemu beta`'s flux
//! bound, [`BandwidthEstimator::try_estimate_with`]) takes a worker in the
//! last run. A sequential pool routes trial by trial. An estimate never asks for
//! a tree twice, so one-shot callers attach a zero-capacity [`PlanCache`];
//! a warm cache only earns hits across estimates (a daemon's repeated
//! requests).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fcn_exec::{job_seed, Pool};
use fcn_multigraph::Traffic;
use fcn_routing::{
    measure_trials, CompiledNet, Measured, PlanCache, RateSample, RouteCtx, RouterConfig, Strategy,
    Trial,
};
use fcn_topology::Machine;
use serde::{Deserialize, Serialize};

/// Domain separator for the plan-seed stream (vs the demand-seed stream).
const PLAN_STREAM: u64 = 0x9_1a7e_5eed;

/// What one cell `(trial, multiplier i)` of a `trials × multipliers` grid
/// routes: the only place the grid's seed streams are derived. The
/// estimator, family sweeps and degraded sweeps all reach it through
/// [`BandwidthEstimator::run_trials`], so a zero-fault degraded sweep
/// reproduces the estimator's cells bit-for-bit.
struct GridCell {
    /// Batch size, `multipliers[i] · n` (at least one).
    messages: usize,
    /// `job_seed(seed, cell)`: the cell's own demand stream.
    demand_seed: u64,
    /// `job_seed(seed ⊕ PLAN_STREAM, trial)`: shared by the trial's cells.
    plan_seed: u64,
}

impl GridCell {
    /// Cell `cell` (trial-major) of the grid over `n` processors.
    fn new(seed: u64, multipliers: &[usize], n: usize, cell: usize) -> GridCell {
        let m_len = multipliers.len();
        GridCell {
            messages: (multipliers[cell % m_len] * n).max(1),
            demand_seed: job_seed(seed, cell as u64),
            plan_seed: job_seed(seed ^ PLAN_STREAM, (cell / m_len) as u64),
        }
    }
}

/// The ungated paths' contract: a grid with no completed trial panics.
pub(crate) fn budget_exhausted(
    estimate: Result<BandwidthEstimate, EstimateAborted>,
) -> BandwidthEstimate {
    match estimate {
        Ok(est) => est,
        #[expect(
            clippy::panic,
            reason = "ungated path keeps the historical panic contract"
        )]
        Err(_) => panic!("no trial completed within the tick budget; raise router.max_ticks"),
    }
}

/// Reduce a grid's samples (trial-major, `m_len` cells per trial): the best
/// per-trial plateau and the mean of the plateaus (`None` when no trial has
/// one), and the number of trials whose cells all completed.
pub(crate) fn reduce_grid(samples: &[RateSample], m_len: usize) -> (Option<(f64, f64)>, usize) {
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
    let plateau = (!plateaus.is_empty()).then(|| {
        let rate = plateaus.iter().cloned().fold(0.0, f64::max);
        (rate, plateaus.iter().sum::<f64>() / plateaus.len() as f64)
    });
    (plateau, complete_trials)
}

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
    /// Worker threads for each trial's plan and route phases: `1` is
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
    /// BFS trees this estimate computed: every tree it planned, less those
    /// its plan cache served. Estimates sharing one cache split its misses.
    pub trees_computed: u64,
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

    /// [`BandwidthEstimator::estimate`] over an already-compiled net — for
    /// callers that run several estimates on one machine. An estimate plans
    /// each tree once, so its plan cache stores nothing.
    pub(crate) fn estimate_on(
        &self,
        machine: &Machine,
        net: &Arc<CompiledNet>,
        traffic: &Traffic,
    ) -> BandwidthEstimate {
        budget_exhausted(self.try_estimate_compiled(
            machine,
            net,
            traffic,
            &PlanCache::with_capacity(0),
            None,
        ))
    }

    /// The estimator's core: run the `trials × multipliers` grid over an
    /// already-compiled net (shared across all cells and, via `Arc`, with
    /// any sibling estimates the caller runs on the same machine) and a
    /// caller-owned [`PlanCache`] (bit-transparent; `fcnemu beta --verbose`
    /// reports the trees the estimate computed), gated on an optional
    /// cancellation flag. [`BandwidthEstimator::try_estimate_with`] with no
    /// side task.
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
        self.try_estimate_with(machine, net, traffic, cache, cancel, || ())
            .0
    }

    /// [`BandwidthEstimator::try_estimate_compiled`], running `side` once on
    /// the estimate's own pool, in the grid's last route run, where it takes
    /// a worker that would otherwise wait for the largest cell (see
    /// [`fcn_routing::measure_trials`]). `fcnemu beta` computes its flux
    /// bound this way. `side` runs even when the grid aborts.
    pub fn try_estimate_with<X: Send>(
        &self,
        machine: &Machine,
        net: &Arc<CompiledNet>,
        traffic: &Traffic,
        cache: &PlanCache,
        cancel: Option<&AtomicBool>,
        side: impl Fn() -> X + Sync,
    ) -> (Result<BandwidthEstimate, EstimateAborted>, X) {
        self.cells(); // rejects an empty grid
        let _span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_BANDWIDTH_ESTIMATE);
        let mut ctx = RouteCtx::from_net(machine, net.clone()).with_cache(cache);
        if let Some(c) = cancel {
            ctx = ctx.with_cancel(c);
        }
        let measured = self.run_trials(&ctx, traffic, 0..self.trials, Pool::new(self.jobs), side);
        let samples = measured.cells.into_iter().map(|cell| cell.sample).collect();
        // ordering: the flag is a monotone stop hint set by another thread;
        // Relaxed suffices for the final observation too.
        let cancelled = cancel.is_some_and(|c| c.load(Ordering::Relaxed));
        (
            self.reduce(samples, measured.trees, cancelled),
            measured.side,
        )
    }

    /// Grid size, `trials × multipliers`.
    ///
    /// # Panics
    /// Panics on an empty grid (no trials or no multipliers).
    pub(crate) fn cells(&self) -> usize {
        assert!(self.trials >= 1 && !self.multipliers.is_empty());
        self.trials * self.multipliers.len()
    }

    /// The grid's trials `trials`, each planned as one around the context's
    /// faults (one tree per distinct source, sources fanned out over `pool`)
    /// and routed on `pool` by [`fcn_routing::measure_trials`], with `side`
    /// run once in the last route run. The one trial loop: the estimator
    /// and a degraded sweep run all their trials here on their own pool,
    /// and a family sweep runs each trial alone on a sequential pool.
    pub(crate) fn run_trials<X: Send>(
        &self,
        ctx: &RouteCtx<'_>,
        traffic: &Traffic,
        trials: std::ops::Range<usize>,
        pool: Pool,
        side: impl Fn() -> X + Sync,
    ) -> Measured<X> {
        let m_len = self.multipliers.len();
        let trials: Vec<Trial> = trials
            .map(|trial| {
                let cells: Vec<GridCell> = (trial * m_len..(trial + 1) * m_len)
                    .map(|cell| GridCell::new(self.seed, &self.multipliers, traffic.n(), cell))
                    .collect();
                Trial {
                    batches: cells.iter().map(|c| (c.messages, c.demand_seed)).collect(),
                    plan_seed: cells[0].plan_seed,
                }
            })
            .collect();
        measure_trials(
            ctx,
            traffic,
            &trials,
            self.strategy,
            self.router,
            pool,
            side,
        )
    }

    /// Reduce the whole grid's samples (trial-major) to the estimate (see
    /// [`reduce_grid`]). Publishes the grid's metrics when telemetry is on;
    /// returns [`EstimateAborted`] when `cancelled` or when no trial
    /// produced a plateau.
    pub(crate) fn reduce(
        &self,
        samples: Vec<RateSample>,
        trees_computed: u64,
        cancelled: bool,
    ) -> Result<BandwidthEstimate, EstimateAborted> {
        let (plateau, complete_trials) = reduce_grid(&samples, self.multipliers.len());
        if fcn_telemetry::global().enabled() {
            self.publish(&samples, complete_trials as u64);
        }
        match plateau {
            Some((rate, mean_rate)) if !cancelled => Ok(BandwidthEstimate {
                rate,
                mean_rate,
                samples,
                complete_trials,
                trees_computed,
            }),
            _ => Err(EstimateAborted {
                cells_completed: samples.iter().filter(|s| s.completed).count(),
                cells_total: samples.len(),
                ticks_spent: samples.iter().map(|s| s.ticks).sum(),
                cancelled,
            }),
        }
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

    /// Each trial's cells measured alone on one worker: the reference every
    /// schedule must reproduce.
    fn trials_alone(est: &BandwidthEstimator, ctx: &RouteCtx<'_>, t: &Traffic) -> Vec<RateSample> {
        (0..est.trials)
            .flat_map(|trial| {
                est.run_trials(ctx, t, trial..trial + 1, Pool::sequential(), || ())
                    .cells
            })
            .map(|cell| cell.sample)
            .collect()
    }

    #[test]
    fn every_trial_count_and_worker_count_matches_trials_run_alone() {
        for m in [Machine::mesh(2, 8), Machine::de_bruijn(6)] {
            let t = m.symmetric_traffic();
            let net = CompiledNet::shared(&m);
            for trials in [1, 2, 3, 5] {
                let est = BandwidthEstimator {
                    trials,
                    ..Default::default()
                };
                let alone = trials_alone(&est, &RouteCtx::from_net(&m, net.clone()), &t);
                for jobs in [1, 2, 3] {
                    let got = est
                        .clone()
                        .with_jobs(jobs)
                        .try_estimate_compiled(&m, &net, &t, &PlanCache::with_capacity(0), None)
                        .expect("an intact grid completes");
                    let what = format!("{} trials={trials} jobs={jobs}", m.name());
                    assert_eq!(got.samples, alone, "{what}");
                    let (plateau, complete) = reduce_grid(&alone, est.multipliers.len());
                    let (rate, mean) = plateau.expect("a plateau");
                    assert_eq!(got.rate.to_bits(), rate.to_bits(), "{what}");
                    assert_eq!(got.mean_rate.to_bits(), mean.to_bits(), "{what}");
                    assert_eq!(got.complete_trials, complete, "{what}");
                }
            }
        }
    }

    #[test]
    fn the_side_task_equals_its_value_computed_afterwards() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let net = CompiledNet::shared(&m);
        let cache = PlanCache::with_capacity(0);
        let flux = || crate::flux_upper_bound(&m, &t, 7, 4, 2);
        let after = flux();
        for jobs in [1, 2, 3] {
            let est = quick().with_jobs(jobs);
            let plain = est
                .try_estimate_compiled(&m, &net, &t, &cache, None)
                .expect("completes");
            let (with_side, side) = est.try_estimate_with(&m, &net, &t, &cache, None, flux);
            let with_side = with_side.expect("completes");
            assert_eq!(side.rate_bound.to_bits(), after.rate_bound.to_bits());
            assert_eq!(side.witness, after.witness, "jobs={jobs}");
            assert_eq!(with_side.samples, plain.samples, "jobs={jobs}");
            assert_eq!(with_side.rate.to_bits(), plain.rate.to_bits());
        }
    }

    #[test]
    fn estimates_sharing_a_cache_split_its_misses() {
        // Two estimates of one machine and seed race for the same trees in
        // one storing cache: each counts the trees it computed itself, so
        // their counts sum to the cache's misses, and each count is all its
        // grid would have computed minus the trees the other stored first.
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let net = CompiledNet::shared(&m);
        let cache = PlanCache::default();
        let est = quick().with_jobs(2);
        let (a, b) = std::thread::scope(|scope| {
            let run = || {
                est.try_estimate_compiled(&m, &net, &t, &cache, None)
                    .expect("completes")
            };
            let a = scope.spawn(run);
            let b = scope.spawn(run);
            (a.join().expect("joins"), b.join().expect("joins"))
        });
        assert_eq!(a.trees_computed + b.trees_computed, cache.misses());
        let alone = est
            .try_estimate_compiled(&m, &net, &t, &PlanCache::with_capacity(0), None)
            .expect("completes");
        assert_eq!(
            alone.trees_computed,
            2 * 64,
            "one tree per source per trial"
        );
        assert!(a.trees_computed <= alone.trees_computed);
        assert!(b.trees_computed <= alone.trees_computed);
        assert_eq!(a.samples, alone.samples);
    }

    #[test]
    fn valiant_estimate_matches_at_one_and_two_workers() {
        // Valiant plans cell by cell (its intermediates come from a
        // sequential per-cell RNG); the cells still run on the pool.
        for m in [Machine::mesh(2, 8), Machine::de_bruijn(5)] {
            let est = BandwidthEstimator {
                strategy: Strategy::Valiant,
                ..quick()
            };
            let seq = est.estimate_symmetric(&m);
            let par = est.with_jobs(2).estimate_symmetric(&m);
            assert_eq!(par.rate.to_bits(), seq.rate.to_bits(), "{}", m.name());
            assert_eq!(par.samples, seq.samples, "{}", m.name());
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
