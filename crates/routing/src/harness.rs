//! Delivery-rate measurement harness.
//!
//! The paper defines `β(G, π)` as the expected value, as `m → ∞`, of
//! `m / r(m)` where `r(m)` is the time to deliver `m` messages drawn from
//! `π`. [`measure_rate`] produces one `m / r(m)` sample; [`plateau_rate`]
//! takes the largest completed sample of a geometric `m` sweep, approximating
//! the limit.
//!
//! Everything here routes through a compile-once [`RouteCtx`], which has one
//! demand-level call: [`RouteCtx::route_demands`] plans a batch of demands
//! (around the context's faults, through its plan cache) and routes it.
//! [`measure_trials`] does the same for an estimator's trials, planning each
//! trial's cells at once and routing consecutive trials' cells together;
//! [`measure_rates_ctx`] is its one-trial case.
//!
//! ## The trial schedule
//!
//! [`measure_trials`] plans trials in order. A trial's plan phase
//! ([`plan_trial`]) writes its cells' [`PacketBatch`]es directly: its BFS
//! sources, or the demand ranges of its arithmetic cells, fan out over the
//! pool, each job writing wire ids into an arena of its own, and one
//! assembly pass copies every route into its cell's batch in demand order.
//! On a parallel pool, consecutive trials join one route run while its
//! batches hold fewer than [`IN_FLIGHT_HOPS`] wire ids, and the run routes
//! all their cells in one [`Pool::run`], largest batch first: one trial's
//! largest cell overlaps the next trial's, and the smaller cells fill in
//! behind them, where a per-trial barrier would leave a worker idle beside
//! each trial's largest cell. The caller's side task (the CLI's flux bound)
//! joins the last run as one more job. The budget bounds the batches alive
//! at once; a trial above it routes alone. A sequential pool routes each
//! trial alone, in trial order, holding one trial's batches. Every cell's
//! seeds are pure functions of its indices, so the schedule never moves a
//! bit.

use std::cmp::Reverse;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use fcn_exec::Pool;
use fcn_faults::FaultPlan;
use fcn_multigraph::{NodeId, Traffic};
use fcn_topology::Machine;
use serde::{Deserialize, Serialize};

use crate::cache::PlanCache;
use crate::compiled::{CompiledNet, PacketBatch};
use crate::engine::{route_compiled, AbortCause, RouterConfig, RoutingOutcome, POOLED_SCRATCH};
use crate::native::{plan_trial, Faults};
use crate::packet::Strategy;

/// A compile-once routing context: one machine, its [`CompiledNet`], the
/// faults it routes around (none by default), and an optional
/// [`PlanCache`].
///
/// Every β estimate, saturation sweep, and audit routes hundreds of batches
/// on the *same* machine; the context compiles the machine's wire arrays
/// exactly once and shares them (`Arc`) across all batches — and across
/// [`fcn_exec::Pool`] workers, since the net is plain data. The context is
/// `Sync`, so one `&RouteCtx` can be captured by every worker closure of a
/// sweep.
///
/// ```
/// use fcn_routing::{RouteCtx, RouterConfig, Strategy};
/// use fcn_topology::Machine;
///
/// let m = Machine::mesh(2, 4);
/// let ctx = RouteCtx::new(&m);
/// let demands = [(0, 15), (3, 12), (5, 5)];
/// let out = ctx.route_demands(&demands, Strategy::ShortestPath, 1, RouterConfig::default());
/// assert!(out.completed);
/// assert_eq!(out.delivered, 3);
/// ```
#[derive(Clone)]
pub struct RouteCtx<'a> {
    machine: &'a Machine,
    net: Arc<CompiledNet>,
    pub(crate) faults: Option<Faults<'a>>,
    pub(crate) cache: Option<&'a PlanCache>,
    cancel: Option<&'a AtomicBool>,
}

impl<'a> RouteCtx<'a> {
    /// Compile `machine`'s wire arrays and wrap them in a context.
    pub fn new(machine: &'a Machine) -> Self {
        RouteCtx::from_net(machine, CompiledNet::shared(machine))
    }

    /// A context over an already-compiled net (for sharing one compilation
    /// across several contexts, e.g. the audit's per-distribution cells).
    pub fn from_net(machine: &'a Machine, net: Arc<CompiledNet>) -> Self {
        debug_assert_eq!(net.node_count(), machine.graph().node_count());
        RouteCtx {
            machine,
            net,
            faults: None,
            cache: None,
            cancel: None,
        }
    }

    /// Route around `plan`: batches run on the faulted net
    /// ([`CompiledNet::apply_faults`]) and are planned on the surviving
    /// graph, which is built here once for every batch of the context. An
    /// empty plan leaves the context intact.
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Faults::new(self.machine, plan);
        if self.faults.is_some() {
            self.net = Arc::new(self.net.apply_faults(plan));
        }
        self
    }

    /// Attach a [`PlanCache`] serving the BFS trees of route planning.
    pub fn with_cache(mut self, cache: &'a PlanCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach a cancellation flag observed by every batch routed through
    /// this context (typically a [`fcn_exec`] watchdog token). A set flag
    /// aborts the in-flight run with [`crate::AbortCause::Cancelled`] at
    /// its last simulated tick; runs that complete before the flag is
    /// raised are bit-identical to an unwatched context.
    pub fn with_cancel(mut self, cancel: &'a AtomicBool) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The machine being routed on.
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// The shared compiled net.
    pub fn net(&self) -> &Arc<CompiledNet> {
        &self.net
    }

    /// The attached cancellation flag, if any.
    pub fn cancel(&self) -> Option<&AtomicBool> {
        self.cancel
    }

    /// Plan `demands` as one batch and route it: the planner
    /// ([`plan_trial`]) writes the batch around the context's faults and
    /// through its plan cache, then it runs on the calling thread's pooled
    /// scratch under the context's cancellation flag. `plan_seed` drives planning,
    /// `cfg.seed` the router's ranks.
    ///
    /// On a faulted context, demands with no surviving route are left out
    /// of the batch (the planner's telemetry counts them);
    /// [`measure_rates_ctx`] reports them per cell.
    pub fn route_demands(
        &self,
        demands: &[(NodeId, NodeId)],
        strategy: Strategy,
        plan_seed: u64,
        cfg: RouterConfig,
    ) -> RoutingOutcome {
        let plan = plan_trial(self, &[demands], strategy, plan_seed, Pool::sequential());
        self.route_batch(&plan.batches[0].batch, cfg)
    }

    /// Route a compiled batch on the calling thread's pooled scratch,
    /// observing the context's cancellation flag.
    fn route_batch(&self, batch: &PacketBatch, cfg: RouterConfig) -> RoutingOutcome {
        POOLED_SCRATCH
            .with(|s| route_compiled(&self.net, batch, cfg, &mut s.borrow_mut(), self.cancel))
    }

    /// Draw and plan one trial's cells, straight into their batches: the
    /// plan phase of [`measure_trials`], timed as the `estimate_plan` span.
    fn plan_cells(
        &self,
        traffic: &Traffic,
        trial: &Trial,
        strategy: Strategy,
        pool: Pool,
    ) -> (Vec<PlannedCell>, u64) {
        let demands: Vec<Vec<(NodeId, NodeId)>> = trial
            .batches
            .iter()
            .map(|&(messages, demand_seed)| {
                assert!(messages >= 1);
                let mut rng = {
                    use rand::SeedableRng;
                    rand::rngs::StdRng::seed_from_u64(demand_seed)
                };
                (0..messages).map(|_| traffic.sample(&mut rng)).collect()
            })
            .collect();
        let slices: Vec<&[(NodeId, NodeId)]> = demands.iter().map(Vec::as_slice).collect();
        let _span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_ESTIMATE_PLAN);
        let plan = plan_trial(self, &slices, strategy, trial.plan_seed, pool);
        let cells = plan
            .batches
            .into_iter()
            .zip(&trial.batches)
            .map(|(plan, &(messages, _))| PlannedCell {
                messages,
                batch: plan.batch,
                unreachable: plan.unreachable.len(),
                replans: plan.replans,
            })
            .collect();
        (cells, plan.trees)
    }
}

/// One estimator trial: its cells, each `(messages, demand_seed)`, and the
/// plan seed they share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trial {
    /// The trial's cells in order: batch size and demand seed.
    pub batches: Vec<(usize, u64)>,
    /// Drives the route planning of every cell of the trial.
    pub plan_seed: u64,
}

/// What [`measure_trials`] measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured<X> {
    /// Every trial's cells, trial-major, in batch order within a trial.
    pub cells: Vec<CellSample>,
    /// BFS trees the planning computed ([`crate::TrialPlan::trees`]).
    pub trees: u64,
    /// What the side task returned.
    pub side: X,
}

/// A planned cell awaiting its route run.
struct PlannedCell {
    messages: usize,
    batch: PacketBatch,
    unreachable: usize,
    replans: u64,
}

/// A job of a route run: a cell's index and outcome, or the side task's
/// value.
enum Routed<X> {
    Cell(usize, RoutingOutcome),
    Side(X),
}

/// One rate sample at a specific batch size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateSample {
    /// Messages injected.
    pub messages: usize,
    /// Ticks to deliver them all.
    pub ticks: u64,
    /// `messages / ticks`.
    pub rate: f64,
    /// Whether the run terminated within the tick budget: everything
    /// routable was delivered, even if a faulted host stranded some
    /// packets. On an intact host this is [`RoutingOutcome::completed`].
    pub completed: bool,
}

/// One routed batch of a trial: its rate sample and the fault accounting
/// that explains it (all zero on an intact host).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellSample {
    /// The delivery-rate sample.
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

/// Route `messages` random pairs from `traffic` and report the delivery
/// rate. `seed` controls both pair sampling and routing randomness.
///
/// ```
/// use fcn_routing::{measure_rate, RouterConfig, Strategy};
/// use fcn_topology::Machine;
///
/// let m = Machine::mesh(2, 4);
/// let t = m.symmetric_traffic();
/// let s = measure_rate(&m, &t, 64, Strategy::ShortestPath, RouterConfig::default(), 1);
/// assert!(s.completed);
/// assert!(s.rate > 0.0);
/// ```
pub fn measure_rate(
    machine: &Machine,
    traffic: &Traffic,
    messages: usize,
    strategy: Strategy,
    cfg: RouterConfig,
    seed: u64,
) -> RateSample {
    measure_rates_ctx(
        &RouteCtx::new(machine),
        traffic,
        &[(messages, seed ^ 0x7ea55a17)],
        strategy,
        cfg,
        seed,
        Pool::sequential(),
    )[0]
    .sample
}

/// Measure several batches that share `plan_seed` — one estimator trial's
/// cells, each `(messages, demand_seed)` — on a compile-once [`RouteCtx`]:
/// [`measure_trials`] with one trial and no side task.
///
/// `demand_seed` drives a batch's traffic draw and `plan_seed` its route
/// planning. Splitting them lets saturation sweeps vary the batch while
/// *reusing* one plan seed per trial, so every cell of the trial shares the
/// same BFS trees. Samples come back in batch order, each bit-identical to
/// measuring that batch alone, for every worker count, with or without a
/// cache.
pub fn measure_rates_ctx(
    ctx: &RouteCtx<'_>,
    traffic: &Traffic,
    batches: &[(usize, u64)],
    strategy: Strategy,
    cfg: RouterConfig,
    plan_seed: u64,
    pool: Pool,
) -> Vec<CellSample> {
    let trial = Trial {
        batches: batches.to_vec(),
        plan_seed,
    };
    measure_trials(ctx, traffic, &[trial], strategy, cfg, pool, || ()).cells
}

/// The wire ids (4 bytes each, so 16 MiB) below which a parallel
/// [`measure_trials`] plans one more trial into a route run. A trial that
/// reaches it alone routes alone: a trial's batches are its whole plan, and
/// its planner arenas stay resident in the allocator's heap beside them,
/// so a second such trial in flight raises peak memory by nearly half
/// (`fcnemu beta mesh2 16384 --seed 1`, 19.6 M wire ids a trial: 169–175 MB
/// one trial at a time, 245–250 MB two).
pub const IN_FLIGHT_HOPS: u64 = 1 << 22;

/// Measure an estimator's trials on a compile-once [`RouteCtx`], and run
/// `side` once on the same pool (see the module's *trial schedule*).
///
/// Each trial draws its cells' demands, then [`plan_trial`] writes all
/// their batches at once around the context's faults and through its cache
/// (one BFS tree per distinct source across the cells, sources or demand
/// ranges fanned out over `pool`). A route run
/// takes consecutive trials while their batches hold fewer than
/// [`IN_FLIGHT_HOPS`] wire ids (one trial on a sequential pool) and routes
/// their cells largest batch first. `side` joins the last route run as one
/// more job: second in line on a parallel pool, where it starts beside the
/// largest cell, and last on a sequential one, so a sequential run still
/// routes every cell before it. Samples come back trial-major in batch
/// order, each bit-identical to measuring its trial alone, for every
/// worker count and trial count, with or without a cache. Each trial's
/// plan phase is timed as an `estimate_plan` telemetry span and each route
/// run as an `estimate_route` span.
pub fn measure_trials<X: Send>(
    ctx: &RouteCtx<'_>,
    traffic: &Traffic,
    trials: &[Trial],
    strategy: Strategy,
    cfg: RouterConfig,
    pool: Pool,
    side: impl Fn() -> X + Sync,
) -> Measured<X> {
    let budget = if pool.jobs() > 1 { IN_FLIGHT_HOPS } else { 0 };
    measure_trials_within(ctx, traffic, trials, strategy, cfg, pool, side, budget)
}

/// [`measure_trials`] with its in-flight budget, in wire ids, spelled out.
#[allow(clippy::too_many_arguments)]
fn measure_trials_within<X: Send>(
    ctx: &RouteCtx<'_>,
    traffic: &Traffic,
    trials: &[Trial],
    strategy: Strategy,
    cfg: RouterConfig,
    pool: Pool,
    side: impl Fn() -> X + Sync,
    in_flight_hops: u64,
) -> Measured<X> {
    assert!(
        traffic.n() <= ctx.machine.processors(),
        "traffic addresses more processors than the machine has"
    );
    assert!(!trials.is_empty(), "at least one trial");
    let mut cells = Vec::with_capacity(trials.iter().map(|t| t.batches.len()).sum());
    let mut trees = 0;
    let mut side_value = None;
    let mut next = 0;
    while next < trials.len() {
        // Plan this route run's trials: the next one, then more while the
        // planned batches stay under budget.
        let mut planned: Vec<PlannedCell> = Vec::new();
        let mut hops = 0;
        while next < trials.len() && (planned.is_empty() || hops < in_flight_hops) {
            let (trial_cells, computed) = ctx.plan_cells(traffic, &trials[next], strategy, pool);
            hops += trial_cells
                .iter()
                .map(|c| c.batch.total_hops())
                .sum::<u64>();
            planned.extend(trial_cells);
            trees += computed;
            next += 1;
        }
        // Jobs: cell indices largest batch first (ties in trial order), and
        // `None` for the side task in the last run.
        let mut jobs: Vec<Option<usize>> = (0..planned.len()).map(Some).collect();
        jobs.sort_by_key(|&c| c.map(|c| Reverse(planned[c].messages)));
        if next == trials.len() {
            let at = if pool.jobs() > 1 { 1 } else { jobs.len() };
            jobs.insert(at.min(jobs.len()), None);
        }
        let route_span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_ESTIMATE_ROUTE);
        let done = pool.run(jobs.len(), |k| match jobs[k] {
            Some(c) => Routed::Cell(c, ctx.route_batch(&planned[c].batch, cfg)),
            None => Routed::Side(side()),
        });
        drop(route_span);
        let mut outcomes = Vec::with_capacity(planned.len());
        for routed in done {
            match routed {
                Routed::Cell(c, outcome) => outcomes.push((c, outcome)),
                Routed::Side(value) => side_value = Some(value),
            }
        }
        outcomes.sort_by_key(|&(c, _)| c);
        for (cell, (_, outcome)) in planned.into_iter().zip(outcomes) {
            cells.push(CellSample {
                sample: RateSample {
                    messages: cell.messages,
                    ticks: outcome.ticks,
                    rate: outcome.rate(),
                    completed: !matches!(
                        outcome.abort,
                        AbortCause::MaxTicks | AbortCause::Cancelled
                    ),
                },
                stranded: outcome.stranded,
                unreachable: cell.unreachable,
                replans: cell.replans,
                abort: outcome.abort,
            });
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "the last route run holds the side job exactly once"
    )]
    let side = side_value.expect("the last route run ran the side task");
    Measured { cells, trees, side }
}

/// The plateau estimate from a sweep: the maximum completed rate.
pub fn plateau_rate(samples: &[RateSample]) -> Option<f64> {
    samples
        .iter()
        .filter(|s| s.completed)
        .map(|s| s.rate)
        .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::QueueDiscipline;
    use fcn_topology::Machine;

    fn cfg() -> RouterConfig {
        RouterConfig {
            discipline: QueueDiscipline::RandomRank,
            seed: 3,
            max_ticks: 1_000_000,
        }
    }

    #[test]
    fn linear_array_rate_is_constant() {
        // β(linear array) = Θ(1): the measured rate must not grow with n.
        let mut rates = Vec::new();
        for n in [32, 64, 128] {
            let m = Machine::linear_array(n);
            let t = m.symmetric_traffic();
            let s = measure_rate(&m, &t, 8 * n, Strategy::ShortestPath, cfg(), 11);
            assert!(s.completed);
            rates.push(s.rate);
        }
        let (lo, hi) = (
            rates.iter().cloned().fold(f64::MAX, f64::min),
            rates.iter().cloned().fold(0.0, f64::max),
        );
        assert!(hi / lo < 2.0, "rates {rates:?} not flat");
    }

    #[test]
    fn mesh_rate_grows_like_sqrt_n() {
        let r8 = {
            let m = Machine::mesh(2, 8);
            measure_rate(
                &m,
                &m.symmetric_traffic(),
                8 * 64,
                Strategy::ShortestPath,
                cfg(),
                5,
            )
        };
        let r16 = {
            let m = Machine::mesh(2, 16);
            measure_rate(
                &m,
                &m.symmetric_traffic(),
                8 * 256,
                Strategy::ShortestPath,
                cfg(),
                5,
            )
        };
        assert!(r8.completed && r16.completed);
        let ratio = r16.rate / r8.rate;
        // β ~ sqrt(n): quadrupling n should double the rate, within noise.
        assert!(ratio > 1.4 && ratio < 2.8, "ratio {ratio}");
    }

    #[test]
    fn bus_rate_is_about_one() {
        let m = Machine::global_bus(32);
        let s = measure_rate(
            &m,
            &m.symmetric_traffic(),
            256,
            Strategy::ShortestPath,
            cfg(),
            2,
        );
        assert!(s.completed);
        assert!(s.rate <= 1.2, "bus rate {}", s.rate);
        assert!(s.rate > 0.5, "bus rate {}", s.rate);
    }

    /// Trials of `multipliers` cells on `n` processors, seeded like an
    /// estimator grid's.
    fn grid(trials: usize, multipliers: &[usize], n: usize) -> Vec<Trial> {
        (0..trials)
            .map(|t| Trial {
                batches: multipliers
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k * n, fcn_exec::job_seed(5, (t * 8 + i) as u64)))
                    .collect(),
                plan_seed: fcn_exec::job_seed(6, t as u64),
            })
            .collect()
    }

    #[test]
    fn every_route_run_window_matches_trials_measured_alone() {
        // The in-flight budget decides which trials share a route run:
        // none (each trial alone), about one trial's batches (runs of two,
        // and an odd last trial alone) or everything in one run. Every
        // window, on every worker count, must give each trial's cells the
        // bits of measuring that trial alone on one worker.
        for m in [Machine::mesh(2, 6), Machine::de_bruijn(5)] {
            let t = m.symmetric_traffic();
            let ctx = RouteCtx::new(&m);
            let trials = grid(5, &[1, 4, 2], t.n());
            let alone: Vec<CellSample> = trials
                .iter()
                .flat_map(|trial| {
                    let (batches, seed) = (&trial.batches, trial.plan_seed);
                    let pool = Pool::sequential();
                    measure_rates_ctx(&ctx, &t, batches, Strategy::ShortestPath, cfg(), seed, pool)
                })
                .collect();
            let trial_hops: u64 = {
                let (cells, _) =
                    ctx.plan_cells(&t, &trials[0], Strategy::ShortestPath, Pool::sequential());
                cells.iter().map(|c| c.batch.total_hops()).sum()
            };
            for count in [1, 2, 3, 5] {
                for jobs in [1, 2, 3] {
                    for budget in [0, trial_hops + 1, u64::MAX] {
                        let got = measure_trials_within(
                            &ctx,
                            &t,
                            &trials[..count],
                            Strategy::ShortestPath,
                            cfg(),
                            Pool::new(jobs),
                            || count * 10 + jobs,
                            budget,
                        );
                        let what =
                            format!("{} trials={count} jobs={jobs} budget={budget}", m.name());
                        assert_eq!(got.cells, alone[..count * 3], "{what}");
                        assert_eq!(got.side, count * 10 + jobs, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn rates_increase_with_batch_size() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let ctx = RouteCtx::new(&m);
        let samples: Vec<RateSample> = [1usize, 4, 16]
            .iter()
            .enumerate()
            .map(|(i, &mult)| {
                let s = 9 + i as u64;
                let batch = [(mult * 64, s ^ 1)];
                let pool = Pool::sequential();
                measure_rates_ctx(&ctx, &t, &batch, Strategy::ShortestPath, cfg(), s, pool)[0]
                    .sample
            })
            .collect();
        assert!(samples.iter().all(|s| s.completed));
        assert!(samples[2].rate >= samples[0].rate * 0.9);
        assert!(plateau_rate(&samples).unwrap() >= samples[2].rate * 0.999);
    }

    #[test]
    fn plateau_is_the_largest_completed_rate() {
        let sample = |rate: f64, completed: bool| RateSample {
            messages: 64,
            ticks: 1,
            rate,
            completed,
        };
        assert_eq!(plateau_rate(&[]), None);
        assert_eq!(plateau_rate(&[sample(9.0, false)]), None);
        let samples = [sample(3.0, true), sample(9.0, false), sample(5.0, true)];
        assert_eq!(plateau_rate(&samples), Some(5.0));
    }

    #[test]
    fn valiant_completes_on_de_bruijn() {
        let m = Machine::de_bruijn(5);
        let t = m.symmetric_traffic();
        let s = measure_rate(&m, &t, 4 * 32, Strategy::Valiant, cfg(), 21);
        assert!(s.completed);
        assert!(s.rate > 1.0);
    }

    #[test]
    fn route_demands_matches_the_reference() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let never = AtomicBool::new(false);
        let cache = PlanCache::default();
        let plain = RouteCtx::new(&m);
        let watched = RouteCtx::new(&m).with_cancel(&never).with_cache(&cache);
        for seed in 0..3u64 {
            let mut rng = {
                use rand::SeedableRng;
                rand::rngs::StdRng::seed_from_u64(seed ^ 1)
            };
            let demands: Vec<_> = (0..96).map(|_| t.sample(&mut rng)).collect();
            let strategy = Strategy::ShortestPath;
            let paths = crate::native::plan_routes_cached(&m, &demands, strategy, seed, None);
            let spec = crate::engine::reference::route_batch(&m, paths, cfg());
            let spec = spec.expect("a small batch fits u32 packet ids");
            for ctx in [&plain, &watched] {
                let out = ctx.route_demands(&demands, strategy, seed, cfg());
                assert_eq!(out, spec, "seed {seed}");
            }
        }
    }

    #[test]
    fn malformed_route_panics_with_typed_message() {
        let net = CompiledNet::compile(&Machine::linear_array(4));
        let panic = std::panic::catch_unwind(|| {
            crate::compiled::Runs::default().push_walk(&net, 0, &[0, 3]);
        })
        .expect_err("a walk off the host graph must panic");
        let msg = panic.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("no wire 0 -> 3"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "more processors")]
    fn traffic_must_fit_machine() {
        let m = Machine::linear_array(4);
        let t = Traffic::symmetric(8);
        let _ = measure_rate(&m, &t, 8, Strategy::ShortestPath, cfg(), 0);
    }
}
