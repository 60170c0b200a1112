//! Degraded-β sweeps: how the operational bandwidth of a machine decays as
//! a deterministic fault plane kills wires and processors.
//!
//! The paper's `β(G, π)` is defined on an intact host. The fault plane
//! (`fcn-faults`) asks the operational question the definition leaves open:
//! how gracefully does the *measured* rate degrade when a seeded fraction of
//! the machine is dead or flapping? [`DegradedSweep`] answers with a
//! β-vs-fault-rate curve: for each fault rate it generates one
//! [`FaultPlan`], builds one routing context over the faulted net (which
//! also builds the surviving graph planners route on), runs the
//! estimator's trials on it, and aggregates the cells (rate, strandings,
//! unreachable demands, replans) into one [`DegradedPoint`].
//!
//! ## The estimator's trial schedule
//!
//! A degraded sweep is the intact estimator on a faulted context: the same
//! `BandwidthEstimator::run_trials` plans each trial as one (one BFS tree
//! per distinct source, sources fanned out over the pool), compiles its
//! cells at once, and routes the cells of consecutive trials together on a
//! parallel pool, largest first, with no barrier between trials (see
//! [`fcn_routing::measure_trials`]); the same `reduce_grid` turns the cells
//! into a plateau. A cell counts as complete when the router *terminates* —
//! everything routable was delivered, even if dead wires stranded some
//! packets — which on an intact host is exactly
//! [`fcn_routing::RoutingOutcome::completed`]. A fault rate of `0.0`
//! therefore reproduces the intact estimator's samples **bit for bit**
//! (pinned by `zero_rate_point_matches_intact_estimator`), and every point
//! is bit-identical for any worker count — the fault plan is a pure
//! function of `(fault_seed, graph)` and each cell derives its randomness
//! purely from its indices. No tree is asked for twice, so the sweep holds
//! no plan cache.

use fcn_exec::Pool;
use fcn_faults::{FaultPlan, FaultSpec};
use fcn_multigraph::Traffic;
use fcn_routing::{CellSample, CompiledNet, RateSample, RouteCtx};
use fcn_topology::Machine;
use serde::{Deserialize, Serialize};

use crate::operational::reduce_grid;
use crate::BandwidthEstimator;

/// Configuration for a degraded-β sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradedSweep {
    /// Fault rates to sweep (each becomes one [`DegradedPoint`]).
    pub fault_rates: Vec<f64>,
    /// Seed of the fault plane (independent of the traffic seed so the same
    /// degraded machine can be measured under many traffics).
    pub fault_seed: u64,
    /// The estimator run at each fault rate: its batch sizes, strategy
    /// (native policies degrade to BFS replanning around dead wires
    /// automatically), router, trials per rate, seed and worker count.
    pub estimator: BandwidthEstimator,
}

impl Default for DegradedSweep {
    fn default() -> Self {
        DegradedSweep {
            fault_rates: vec![0.0, 0.02, 0.05, 0.10],
            fault_seed: 0xfa17,
            estimator: BandwidthEstimator::default(),
        }
    }
}

/// One point of the β-vs-fault-rate curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedPoint {
    /// The fault rate this point was generated at.
    pub fault_rate: f64,
    /// Best plateau rate across trials (`0.0` if no trial terminated within
    /// the tick budget).
    pub rate: f64,
    /// Mean of per-trial plateau rates.
    pub mean_rate: f64,
    /// All cells (trial-major, multiplier-minor).
    pub samples: Vec<CellSample>,
    /// Trials whose cells all terminated within the tick budget.
    pub complete_trials: usize,
    /// Processors killed by the plan.
    pub dead_nodes: usize,
    /// Links killed by the plan (including links incident to dead nodes).
    pub dead_links: usize,
    /// Transient outage windows in the plan.
    pub outages: usize,
    /// Total packets stranded across all cells.
    pub stranded: usize,
    /// Total unreachable demands across all cells.
    pub unreachable: usize,
    /// Total successful BFS replans across all cells.
    pub replans: u64,
    /// Cells that hit the tick budget (or were cancelled) instead of
    /// terminating.
    pub aborted_cells: usize,
}

impl DegradedPoint {
    /// Fraction of issued demands that were delivered, across all cells.
    pub fn delivery_fraction(&self) -> f64 {
        let issued: usize = self.samples.iter().map(|s| s.sample.messages).sum();
        if issued == 0 {
            return 1.0;
        }
        let lost = self.stranded + self.unreachable;
        1.0 - (lost.min(issued) as f64 / issued as f64)
    }
}

impl DegradedSweep {
    /// Sweep `machine` under `traffic` across every configured fault rate.
    pub fn sweep(&self, machine: &Machine, traffic: &Traffic) -> Vec<DegradedPoint> {
        let estimator = &self.estimator;
        assert!(estimator.trials >= 1, "at least one trial");
        assert!(!estimator.multipliers.is_empty(), "at least one multiplier");
        assert!(!self.fault_rates.is_empty(), "at least one fault rate");
        let _span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_DEGRADED_BETA_SWEEP);
        let pool = Pool::new(estimator.jobs);
        let base = CompiledNet::shared(machine);
        self.fault_rates
            .iter()
            .map(|&fault_rate| {
                let spec = FaultSpec::uniform(self.fault_seed, fault_rate);
                let plan = FaultPlan::generate(machine.graph(), &spec);
                let ctx = RouteCtx::from_net(machine, base.clone()).with_faults(&plan);
                let measured =
                    estimator.run_trials(&ctx, traffic, 0..estimator.trials, pool, || ());
                self.aggregate(fault_rate, &plan, measured.cells)
            })
            .collect()
    }

    /// Sweep under the machine's own symmetric traffic.
    pub fn sweep_symmetric(&self, machine: &Machine) -> Vec<DegradedPoint> {
        self.sweep(machine, &machine.symmetric_traffic())
    }

    fn aggregate(
        &self,
        fault_rate: f64,
        plan: &FaultPlan,
        samples: Vec<CellSample>,
    ) -> DegradedPoint {
        let rate_samples: Vec<RateSample> = samples.iter().map(|s| s.sample).collect();
        let (plateau, complete_trials) =
            reduce_grid(&rate_samples, self.estimator.multipliers.len());
        let (rate, mean_rate) = plateau.unwrap_or((0.0, 0.0));
        let (dead_nodes, dead_links, outages) = plan.summary();
        let stranded: usize = samples.iter().map(|s| s.stranded).sum();
        let unreachable: usize = samples.iter().map(|s| s.unreachable).sum();
        let replans: u64 = samples.iter().map(|s| s.replans).sum();
        let aborted_cells = samples.iter().filter(|s| !s.sample.completed).count();
        if fcn_telemetry::global().enabled() {
            let cell_ticks: u64 = samples.iter().map(|s| s.sample.ticks).sum();
            fcn_telemetry::with_shard(|s| {
                s.inc(fcn_telemetry::names::DEGRADED_POINTS_TOTAL);
                s.add(
                    fcn_telemetry::names::DEGRADED_CELLS_TOTAL,
                    samples.len() as u64,
                );
                s.add(
                    fcn_telemetry::names::DEGRADED_STRANDED_TOTAL,
                    stranded as u64,
                );
                s.add(
                    fcn_telemetry::names::DEGRADED_UNREACHABLE_TOTAL,
                    unreachable as u64,
                );
                s.add(fcn_telemetry::names::DEGRADED_REPLANS_TOTAL, replans);
                s.add(
                    fcn_telemetry::names::DEGRADED_ABORTED_CELLS_TOTAL,
                    aborted_cells as u64,
                );
                s.add(fcn_telemetry::names::DEGRADED_CELL_TICKS_TOTAL, cell_ticks);
            });
        }
        DegradedPoint {
            fault_rate,
            rate,
            mean_rate,
            samples,
            complete_trials,
            dead_nodes,
            dead_links,
            outages,
            stranded,
            unreachable,
            replans,
            aborted_cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_routing::AbortCause;
    use fcn_topology::Machine;

    fn quick_sweep(rates: &[f64]) -> DegradedSweep {
        DegradedSweep {
            fault_rates: rates.to_vec(),
            estimator: BandwidthEstimator {
                multipliers: vec![2, 4],
                trials: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn zero_rate_point_matches_intact_estimator() {
        // Transparency pin: fault rate 0.0 reproduces the intact
        // estimator's cells bit for bit.
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let est = BandwidthEstimator {
            multipliers: vec![2, 4],
            trials: 2,
            ..Default::default()
        }
        .estimate(&m, &t);
        let pts = quick_sweep(&[0.0]).sweep(&m, &t);
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.rate, est.rate);
        assert_eq!(p.mean_rate, est.mean_rate);
        assert_eq!(p.complete_trials, est.complete_trials);
        let rate_samples: Vec<RateSample> = p.samples.iter().map(|s| s.sample).collect();
        assert_eq!(rate_samples, est.samples);
        assert_eq!(p.stranded, 0);
        assert_eq!(p.unreachable, 0);
        assert_eq!(p.replans, 0);
        assert_eq!(p.dead_nodes + p.dead_links + p.outages, 0);
    }

    #[test]
    fn faults_degrade_the_measured_rate() {
        let m = Machine::mesh(2, 8);
        let pts = quick_sweep(&[0.0, 0.25]).sweep_symmetric(&m);
        assert_eq!(pts.len(), 2);
        let (intact, faulted) = (&pts[0], &pts[1]);
        assert!(intact.rate > 0.0);
        assert!(
            faulted.dead_links > 0 || faulted.dead_nodes > 0 || faulted.outages > 0,
            "a 25% fault rate must generate some faults"
        );
        assert!(
            faulted.rate <= intact.rate,
            "faults must not raise the rate: {} vs {}",
            faulted.rate,
            intact.rate
        );
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let seq = quick_sweep(&[0.0, 0.2]).sweep(&m, &t);
        for jobs in [2, 4] {
            let mut par = quick_sweep(&[0.0, 0.2]);
            par.estimator.jobs = jobs;
            let par = par.sweep(&m, &t);
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn every_trial_count_and_worker_count_matches_trials_run_alone() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let net = CompiledNet::shared(&m);
        for trials in [1, 2, 3, 5] {
            let mut sweep = DegradedSweep {
                fault_rates: vec![0.0, 0.2],
                estimator: BandwidthEstimator {
                    trials,
                    ..Default::default()
                },
                ..Default::default()
            };
            let estimator = sweep.estimator.clone();
            let alone: Vec<Vec<CellSample>> = sweep
                .fault_rates
                .iter()
                .map(|&rate| {
                    let spec = FaultSpec::uniform(sweep.fault_seed, rate);
                    let plan = FaultPlan::generate(m.graph(), &spec);
                    let ctx = RouteCtx::from_net(&m, net.clone()).with_faults(&plan);
                    (0..trials)
                        .flat_map(|trial| {
                            let pool = Pool::sequential();
                            estimator
                                .run_trials(&ctx, &t, trial..trial + 1, pool, || ())
                                .cells
                        })
                        .collect()
                })
                .collect();
            for jobs in [1, 2, 3] {
                sweep.estimator.jobs = jobs;
                let points = sweep.sweep(&m, &t);
                for (point, alone) in points.iter().zip(&alone) {
                    let what = format!("rate={} trials={trials} jobs={jobs}", point.fault_rate);
                    assert_eq!(&point.samples, alone, "{what}");
                }
            }
        }
    }

    #[test]
    fn sweep_is_deterministic_for_fixed_seeds() {
        let m = Machine::de_bruijn(4);
        let a = quick_sweep(&[0.1]).sweep_symmetric(&m);
        let b = quick_sweep(&[0.1]).sweep_symmetric(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn accounting_is_internally_consistent() {
        let m = Machine::mesh(2, 8);
        let pts = quick_sweep(&[0.2]).sweep_symmetric(&m);
        let p = &pts[0];
        let stranded: usize = p.samples.iter().map(|s| s.stranded).sum();
        let unreachable: usize = p.samples.iter().map(|s| s.unreachable).sum();
        assert_eq!(p.stranded, stranded);
        assert_eq!(p.unreachable, unreachable);
        let frac = p.delivery_fraction();
        assert!((0.0..=1.0).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn butterfly_curve_has_strictly_typed_outcomes() {
        // Every cell ends in a typed abort cause — no silent spinning.
        let m = Machine::butterfly(3);
        let pts = quick_sweep(&[0.0, 0.15]).sweep_symmetric(&m);
        for p in &pts {
            for s in &p.samples {
                match s.abort {
                    AbortCause::Completed => assert_eq!(s.stranded, 0),
                    AbortCause::Stranded => assert!(s.stranded > 0),
                    AbortCause::MaxTicks | AbortCause::Cancelled => {}
                }
            }
        }
    }
}
