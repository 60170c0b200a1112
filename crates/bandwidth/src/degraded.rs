//! Degraded-β sweeps: how the operational bandwidth of a machine decays as
//! a deterministic fault plane kills wires and processors.
//!
//! The paper's `β(G, π)` is defined on an intact host. The fault plane
//! (`fcn-faults`) asks the operational question the definition leaves open:
//! how gracefully does the *measured* rate degrade when a seeded fraction of
//! the machine is dead or flapping? [`DegradedSweep`] answers with a
//! β-vs-fault-rate curve: for each fault rate it generates one
//! [`FaultPlan`], compiles one faulted net, fans the usual
//! `trials × multipliers` grid over a deterministic [`fcn_exec::Pool`], and
//! aggregates the per-cell outcomes (rate, strandings, unreachable demands,
//! replans) into one [`DegradedPoint`].
//!
//! ## Transparency and determinism
//!
//! The sweep shares its seed streams with [`crate::BandwidthEstimator`]:
//! cell `(trial, multiplier i)` draws demands with `job_seed(seed, cell)`
//! and plans with `job_seed(seed ⊕ PLAN_STREAM, trial)`. A fault rate of
//! `0.0` therefore reproduces the intact estimator's samples **bit for
//! bit** (pinned by `zero_rate_point_matches_intact_estimator`), and every
//! point is bit-identical for any worker count — the fault plan is a pure
//! function of `(fault_seed, graph)` and each cell derives its randomness
//! purely from its indices.

use std::sync::Arc;

use fcn_exec::{job_seed, Pool};
use fcn_faults::{FaultPlan, FaultSpec};
use fcn_multigraph::Traffic;
use fcn_routing::{
    plan_routes_degraded, plateau_rate, route_compiled_pooled, AbortCause, CompiledNet,
    PacketBatch, PlanCache, RateSample, RouterConfig, Strategy,
};
use fcn_topology::Machine;
use serde::{Deserialize, Serialize};

use crate::operational::PLAN_STREAM;

/// Configuration for a degraded-β sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradedSweep {
    /// Fault rates to sweep (each becomes one [`DegradedPoint`]).
    pub fault_rates: Vec<f64>,
    /// Seed of the fault plane (independent of the traffic seed so the same
    /// degraded machine can be measured under many traffics).
    pub fault_seed: u64,
    /// Batch sizes as multiples of the traffic population `n`.
    pub multipliers: Vec<usize>,
    /// Routing strategy (native policies degrade to BFS replanning around
    /// dead wires automatically).
    pub strategy: Strategy,
    /// Router configuration (discipline, tick budget).
    pub router: RouterConfig,
    /// Independent trials per fault rate.
    pub trials: usize,
    /// Base seed for demand/plan streams (matches the intact estimator).
    pub seed: u64,
    /// Worker threads; `0` means one per hardware thread. Bit-identical for
    /// every value.
    pub jobs: usize,
}

impl Default for DegradedSweep {
    fn default() -> Self {
        DegradedSweep {
            fault_rates: vec![0.0, 0.02, 0.05, 0.10],
            fault_seed: 0xfa17,
            multipliers: vec![2, 4, 8],
            strategy: Strategy::ShortestPath,
            router: RouterConfig::default(),
            trials: 3,
            seed: 0xbead,
            jobs: 1,
        }
    }
}

/// One grid cell of a degraded sweep: the usual rate sample plus the fault
/// accounting that explains it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradedSample {
    /// The delivery-rate sample. `completed` means the router terminated
    /// with a typed outcome (delivered everything routable) rather than
    /// hitting the tick budget.
    pub sample: RateSample,
    /// Packets stranded at injection (path crossed a permanently dead wire).
    pub stranded: usize,
    /// Demands with no surviving route in the degraded host.
    pub unreachable: usize,
    /// Demands whose native route crossed a fault and were re-routed by BFS
    /// on the degraded graph.
    pub replans: u64,
    /// Why the router run ended.
    pub abort: AbortCause,
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
    pub samples: Vec<DegradedSample>,
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
        assert!(self.trials >= 1, "at least one trial");
        assert!(!self.multipliers.is_empty(), "at least one multiplier");
        assert!(!self.fault_rates.is_empty(), "at least one fault rate");
        let _span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_DEGRADED_BETA_SWEEP);
        let n = traffic.n();
        let m_len = self.multipliers.len();
        let cells = self.trials * m_len;
        let pool = Pool::new(self.jobs);
        let base = CompiledNet::shared(machine);
        let cache = PlanCache::default();
        self.fault_rates
            .iter()
            .map(|&fault_rate| {
                let spec = FaultSpec::uniform(self.fault_seed, fault_rate);
                let plan = FaultPlan::generate(machine.graph(), &spec);
                // The faulted net keeps the intact CSR (dead wires are
                // flagged, not removed), so batches compile against it
                // exactly as against the base net. An empty plan shares the
                // base compilation outright.
                let net: Arc<CompiledNet> = if plan.is_empty() {
                    base.clone()
                } else {
                    Arc::new(base.apply_faults(&plan))
                };
                let samples: Vec<DegradedSample> = pool.run(cells, |cell| {
                    let trial = cell / m_len;
                    let mi = cell % m_len;
                    let messages = (self.multipliers[mi] * n).max(1);
                    self.cell(
                        machine,
                        &net,
                        traffic,
                        &plan,
                        &cache,
                        messages,
                        job_seed(self.seed, cell as u64),
                        job_seed(self.seed ^ PLAN_STREAM, trial as u64),
                    )
                });
                self.aggregate(fault_rate, &plan, samples, m_len)
            })
            .collect()
    }

    /// Sweep under the machine's own symmetric traffic.
    pub fn sweep_symmetric(&self, machine: &Machine) -> Vec<DegradedPoint> {
        self.sweep(machine, &machine.symmetric_traffic())
    }

    /// This sweep with a different worker count (builder-style).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// One grid cell: draw demands, plan around the faults, route on the
    /// faulted net.
    #[allow(clippy::too_many_arguments)]
    fn cell(
        &self,
        machine: &Machine,
        net: &Arc<CompiledNet>,
        traffic: &Traffic,
        plan: &FaultPlan,
        cache: &PlanCache,
        messages: usize,
        demand_seed: u64,
        plan_seed: u64,
    ) -> DegradedSample {
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(demand_seed)
        };
        let demands: Vec<_> = (0..messages).map(|_| traffic.sample(&mut rng)).collect();
        let dp = plan_routes_degraded(
            machine,
            &demands,
            self.strategy,
            plan_seed,
            plan,
            Some(cache),
        );
        let batch = PacketBatch::compile(net, &dp.paths)
            // fcn-allow: ERR-UNWRAP the fault-aware planner only emits paths along surviving wires, so compile cannot reject them
            .unwrap_or_else(|e| panic!("degraded planner produced unroutable path: {e}"));
        let outcome = route_compiled_pooled(net, &batch, self.router);
        // "Completed" here means the router *terminated with a typed
        // outcome* — everything routable was delivered — even if some
        // packets were stranded by dead wires. Only hitting the tick budget
        // (or cancellation) disqualifies a sample from the plateau. On an
        // intact host this coincides exactly with `RoutingOutcome::completed`.
        let terminated = !matches!(outcome.abort, AbortCause::MaxTicks | AbortCause::Cancelled);
        DegradedSample {
            sample: RateSample {
                messages,
                ticks: outcome.ticks,
                rate: outcome.rate(),
                completed: terminated,
            },
            stranded: outcome.stranded,
            unreachable: dp.unreachable.len(),
            replans: dp.replans,
            abort: outcome.abort,
        }
    }

    fn aggregate(
        &self,
        fault_rate: f64,
        plan: &FaultPlan,
        samples: Vec<DegradedSample>,
        m_len: usize,
    ) -> DegradedPoint {
        let mut plateaus = Vec::new();
        let mut complete_trials = 0;
        let rate_samples: Vec<RateSample> = samples.iter().map(|s| s.sample).collect();
        for trial in rate_samples.chunks(m_len) {
            if trial.iter().all(|s| s.completed) {
                complete_trials += 1;
            }
            if let Some(p) = plateau_rate(trial) {
                plateaus.push(p);
            }
        }
        let rate = plateaus.iter().cloned().fold(0.0, f64::max);
        let mean_rate = if plateaus.is_empty() {
            0.0
        } else {
            plateaus.iter().sum::<f64>() / plateaus.len() as f64
        };
        let (dead_nodes, dead_links, outages) = plan.summary();
        let stranded: usize = samples.iter().map(|s| s.stranded).sum();
        let unreachable: usize = samples.iter().map(|s| s.unreachable).sum();
        let replans: u64 = samples.iter().map(|s| s.replans).sum();
        let aborted_cells = samples
            .iter()
            .filter(|s| matches!(s.abort, AbortCause::MaxTicks | AbortCause::Cancelled))
            .count();
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
    use crate::BandwidthEstimator;
    use fcn_topology::Machine;

    fn quick_sweep(rates: &[f64]) -> DegradedSweep {
        DegradedSweep {
            fault_rates: rates.to_vec(),
            multipliers: vec![2, 4],
            trials: 2,
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
            let par = quick_sweep(&[0.0, 0.2]).with_jobs(jobs).sweep(&m, &t);
            assert_eq!(par, seq, "jobs={jobs}");
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
