//! The bandwidth sandwich: measured lower estimate vs certified flux upper
//! bound vs analytic Θ-form.
//!
//! The paper proves its Θ entries with an explicit-embedding lower bound and
//! a flux upper bound; we do the same at finite sizes. A
//! [`BandwidthSandwich`] per (machine, size) is the data row behind the
//! Table 4 reproduction, and [`sweep_family`] collects rows across sizes for
//! exponent fitting.

use std::cmp::Reverse;
use std::sync::{Arc, OnceLock};

use fcn_asymptotics::fit::{classify_growth, classify_growth_offset, table4_candidates};
use fcn_asymptotics::{fit_power_log, Asym, PowerLogFit};
use fcn_exec::{job_seed, Pool};
use fcn_multigraph::{DistanceStats, Traffic};
use fcn_routing::{CompiledNet, Measured, RouteCtx};
use fcn_topology::{Family, Machine};
use serde::{Deserialize, Serialize};

use crate::flux::{flux_upper_bound, FluxBound};
use crate::operational::{budget_exhausted, BandwidthEstimator};

/// Domain separator for a sweep's per-machine row seeds.
const SANDWICH_STREAM: u64 = 0x5eed_5a9d;

/// One machine-size data point of the Table 4 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthSandwich {
    /// Machine instance name, e.g. `mesh2(8x8)`.
    pub machine: String,
    /// Family key, e.g. `mesh2`.
    pub family: String,
    /// Processor count.
    pub n: usize,
    /// Measured delivery rate (achievable ⇒ lower estimate of β).
    pub measured: f64,
    /// Certified flux upper bound.
    pub flux_bound: f64,
    /// Analytic Θ-form evaluated at `n` (unit constant).
    pub analytic: f64,
    /// Diameter (λ-side check).
    pub diameter: u32,
    /// Mean pairwise distance.
    pub avg_distance: f64,
}

/// Measure one machine completely: its estimator trials, flux bound and
/// distance stats, run in sequence on the calling thread (whatever
/// `estimator.jobs` says). [`sweep_family`] runs the same pieces on a pool
/// and produces the same row bit for bit.
pub fn sandwich(machine: &Machine, estimator: &BandwidthEstimator, seed: u64) -> BandwidthSandwich {
    let subject = Subject::new(machine, seed);
    let outs = Piece::all(estimator)
        .map(|piece| subject.run(estimator, piece))
        .collect();
    subject.assemble(estimator, outs)
}

/// One independent piece of a machine's row. None reads another's result,
/// so a sweep may run them on any worker in any order.
#[derive(Debug, Clone, Copy)]
enum Piece {
    /// One estimator trial: its multipliers' cells on one plan seed.
    Trial(usize),
    /// The certified flux upper bound.
    Flux,
    /// Diameter and mean pairwise distance.
    Distance,
}

impl Piece {
    /// A row's pieces in the order [`Subject::assemble`] expects them:
    /// every trial, then the flux bound, then the distance stats.
    fn all(estimator: &BandwidthEstimator) -> impl Iterator<Item = Piece> {
        // `cells` rejects an empty grid before any piece runs.
        (0..estimator.cells() / estimator.multipliers.len())
            .map(Piece::Trial)
            .chain([Piece::Flux, Piece::Distance])
    }
}

/// What a [`Piece`] produced.
enum PieceOut {
    Trial(Measured<()>),
    Flux(FluxBound),
    Distance(DistanceStats),
}

/// A machine with what its pieces share: its traffic, its row seed and its
/// compiled net (compiled by whichever trial runs first).
struct Subject<'m> {
    machine: &'m Machine,
    traffic: Traffic,
    seed: u64,
    net: OnceLock<Arc<CompiledNet>>,
}

impl<'m> Subject<'m> {
    fn new(machine: &'m Machine, seed: u64) -> Self {
        Subject {
            machine,
            traffic: machine.symmetric_traffic(),
            seed,
            net: OnceLock::new(),
        }
    }

    fn run(&self, estimator: &BandwidthEstimator, piece: Piece) -> PieceOut {
        match piece {
            Piece::Trial(trial) => {
                // One worker per trial: the sweep's pool already runs many
                // pieces at once. The trial plans each source's tree once,
                // so it needs no plan cache.
                let net = self
                    .net
                    .get_or_init(|| CompiledNet::shared(self.machine))
                    .clone();
                let ctx = RouteCtx::from_net(self.machine, net);
                let pool = Pool::sequential();
                PieceOut::Trial(estimator.run_trials(
                    &ctx,
                    &self.traffic,
                    trial..trial + 1,
                    pool,
                    || (),
                ))
            }
            Piece::Flux => PieceOut::Flux(flux_upper_bound(
                self.machine,
                &self.traffic,
                self.seed,
                4,
                2,
            )),
            Piece::Distance => {
                let _span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_DISTANCE);
                let mut srng = {
                    use rand::SeedableRng;
                    rand::rngs::StdRng::seed_from_u64(self.seed)
                };
                PieceOut::Distance(fcn_multigraph::distance_stats(
                    self.machine.graph(),
                    2048,
                    16,
                    &mut srng,
                ))
            }
        }
    }

    /// The row from its pieces' outputs, in [`Piece::all`] order.
    fn assemble(&self, estimator: &BandwidthEstimator, outs: Vec<PieceOut>) -> BandwidthSandwich {
        let mut samples = Vec::with_capacity(estimator.cells());
        let (mut trees, mut flux, mut dstats) = (0, None, None);
        for out in outs {
            match out {
                PieceOut::Trial(trial) => {
                    samples.extend(trial.cells.iter().map(|cell| cell.sample));
                    trees += trial.trees;
                }
                PieceOut::Flux(f) => flux = Some(f),
                PieceOut::Distance(d) => dstats = Some(d),
            }
        }
        let est = budget_exhausted(estimator.reduce(samples, trees, false));
        let (Some(flux), Some(dstats)) = (flux, dstats) else {
            unreachable!("every row has one flux and one distance piece")
        };
        BandwidthSandwich {
            machine: self.machine.name().to_string(),
            family: self.machine.family().id(),
            n: self.machine.processors(),
            measured: est.rate,
            flux_bound: flux.rate_bound,
            analytic: self.machine.beta_at_size(),
            diameter: dstats.diameter,
            avg_distance: dstats.avg_distance,
        }
    }
}

/// Sweep a family across target sizes and fit the measured-β exponents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilySweep {
    /// Family key, e.g. `mesh2`.
    pub family: String,
    /// One sandwich row per measured machine size.
    pub rows: Vec<BandwidthSandwich>,
    /// Log-log fit of measured rate vs n (free exponents; informational).
    pub beta_fit: PowerLogFit,
    /// Best-fitting Table 4 class for the measured rates, with its RMS
    /// residual in lg units. This is the robust classification: exponent
    /// decomposition over narrow size ranges is ill-conditioned, so we score
    /// the discrete hypotheses instead.
    pub beta_class: Asym,
    /// RMS residual (lg units) of `beta_class`.
    pub beta_class_residual: f64,
    /// Best-fitting class for the certified flux upper bounds. Flux bounds
    /// are deterministic (cut capacities), so this column is noise-free and
    /// resolves class calls the measured series leaves ambiguous (e.g.
    /// n/lg n vs n^(3/4), which differ by < 13% below n ≈ 4096).
    pub flux_class: Asym,
    /// RMS residual (lg units) of `flux_class`.
    pub flux_class_residual: f64,
    /// Best-fitting class for the measured diameters (the λ side).
    pub lambda_class: Asym,
    /// RMS residual (lg units) of `lambda_class`.
    pub lambda_class_residual: f64,
    /// Log-log fit of measured diameter vs n (free; informational).
    pub lambda_fit: PowerLogFit,
}

/// Run the sweep. `targets` are processor-count targets (the registry picks
/// the closest legal instance; duplicate instances are dropped).
pub fn sweep_family(
    family: Family,
    targets: &[usize],
    estimator: &BandwidthEstimator,
    seed: u64,
) -> FamilySweep {
    // Build first (fast, and dedups sizes deterministically)...
    let mut machines: Vec<(usize, Machine)> = Vec::new();
    for (i, &t) in targets.iter().enumerate() {
        let machine = family.build_near(t, seed.wrapping_add(i as u64));
        if machines
            .iter()
            .any(|(_, m)| m.processors() == machine.processors())
        {
            continue; // duplicate legal size
        }
        machines.push((i, machine));
    }
    // ... then run every machine's pieces as one task list on the pool,
    // largest machine first, so the big machines' trials start at once and
    // the small ones fill in behind them. Every piece's seeds are pure
    // functions of its machine and index, and the rows are sorted by size
    // at the end, so the schedule never moves a bit.
    machines.sort_by_key(|(_, m)| Reverse(m.processors()));
    let subjects: Vec<Subject> = machines
        .iter()
        .map(|(i, m)| Subject::new(m, job_seed(seed ^ SANDWICH_STREAM, *i as u64)))
        .collect();
    let tasks: Vec<(usize, Piece)> = (0..subjects.len())
        .flat_map(|k| Piece::all(estimator).map(move |p| (k, p)))
        .collect();
    let outs = Pool::new(estimator.jobs).run(tasks.len(), |t| {
        let (k, piece) = tasks[t];
        subjects[k].run(estimator, piece)
    });
    let mut per_machine: Vec<Vec<PieceOut>> = subjects.iter().map(|_| Vec::new()).collect();
    for (&(k, _), out) in tasks.iter().zip(outs) {
        per_machine[k].push(out);
    }
    let mut rows: Vec<BandwidthSandwich> = subjects
        .iter()
        .zip(per_machine)
        .map(|(subject, outs)| subject.assemble(estimator, outs))
        .collect();
    rows.sort_by_key(|r| r.n);
    assert!(rows.len() >= 2, "need at least two distinct sizes to fit");
    let beta_samples: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.n as f64, r.measured.max(1e-9)))
        .collect();
    // λ classification uses the mean pairwise distance: it is Θ(diameter)
    // for every Table 4 family but varies smoothly with size, whereas the
    // diameter is a step function whose rounding confuses the classifier
    // over narrow ranges.
    let lambda_samples: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.n as f64, r.avg_distance.max(1.0)))
        .collect();
    let flux_samples: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.n as f64, r.flux_bound.max(1e-9)))
        .collect();
    let candidates = table4_candidates();
    let (beta_class, beta_class_residual) = classify_growth(&beta_samples, &candidates);
    let (flux_class, flux_class_residual) = classify_growth_offset(&flux_samples, &candidates);
    let (lambda_class, lambda_class_residual) =
        classify_growth_offset(&lambda_samples, &candidates);
    FamilySweep {
        family: family.id(),
        beta_fit: fit_power_log(&beta_samples),
        beta_class,
        beta_class_residual,
        flux_class,
        flux_class_residual,
        lambda_class,
        lambda_class_residual,
        lambda_fit: fit_power_log(&lambda_samples),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BandwidthEstimator {
        BandwidthEstimator {
            multipliers: vec![2, 4],
            trials: 2,
            ..Default::default()
        }
    }

    #[test]
    fn sandwich_orders_hold() {
        // measured <= flux bound (soundness of both sides).
        for m in [Machine::mesh(2, 8), Machine::tree(5), Machine::butterfly(3)] {
            let s = sandwich(&m, &quick(), 3);
            assert!(
                s.measured <= s.flux_bound + 1e-9,
                "{}: {} > {}",
                s.machine,
                s.measured,
                s.flux_bound
            );
            assert!(s.diameter > 0);
        }
    }

    #[test]
    fn sandwich_equals_the_sweep_row() {
        // `sandwich` runs a row's pieces in sequence; `sweep_family` runs
        // them interleaved with other machines' pieces on the pool. Same
        // machine and row seed, same row, bit for bit.
        let targets = [64, 256];
        let seed = 0x5a4d;
        for family in [Family::Mesh(2), Family::DeBruijn, Family::MeshOfTrees(1)] {
            for jobs in [1, 2] {
                let est = quick().with_jobs(jobs);
                let sweep = sweep_family(family, &targets, &est, seed);
                for (i, &t) in targets.iter().enumerate() {
                    let m = family.build_near(t, seed.wrapping_add(i as u64));
                    let row = sandwich(&m, &est, job_seed(seed ^ SANDWICH_STREAM, i as u64));
                    let swept = sweep.rows.iter().find(|r| r.n == row.n);
                    assert_eq!(
                        swept.map(|r| format!("{r:?}")),
                        Some(format!("{row:?}")),
                        "{} jobs={jobs}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_classifies_mesh_as_sqrt_n() {
        use fcn_asymptotics::Rational;
        let sweep = sweep_family(Family::Mesh(2), &[64, 144, 256, 576, 1024], &quick(), 9);
        assert!(sweep.rows.len() >= 4);
        // β ~ n^{1/2} and λ ~ n^{1/2} are the winning Table 4 classes.
        assert_eq!(
            sweep.beta_class.pow_n,
            Rational::new(1, 2),
            "{:?}",
            sweep.beta_class
        );
        assert!(sweep.beta_class.pow_lg.is_zero());
        assert_eq!(sweep.lambda_class.pow_n, Rational::new(1, 2));
    }

    #[test]
    fn sweep_dedupes_equal_sizes() {
        let sweep = sweep_family(Family::Tree, &[60, 63, 64, 255], &quick(), 4);
        let mut ns: Vec<usize> = sweep.rows.iter().map(|r| r.n).collect();
        let before = ns.len();
        ns.dedup();
        assert_eq!(ns.len(), before);
    }
}
