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
//! [`measure_rates_ctx`] does the same for one estimator trial's cells,
//! planning them all at once. Both hand the planned routes to one private
//! compile-and-route step.

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
use crate::packet::{PacketPath, Strategy};

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
pub struct RouteCtx<'a> {
    machine: &'a Machine,
    net: Arc<CompiledNet>,
    faults: Option<Faults<'a>>,
    cache: Option<&'a PlanCache>,
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

    /// Plan `demands` as one batch and route it: the planner runs
    /// ([`plan_trial`]) around the context's faults and through its plan
    /// cache, then the routes run on the calling thread's pooled scratch
    /// under the context's cancellation flag. `plan_seed` drives planning,
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
        let plan = plan_trial(
            self.machine,
            &[demands],
            strategy,
            plan_seed,
            self.faults.as_ref(),
            self.cache,
            Pool::sequential(),
        )
        .swap_remove(0);
        self.route_planned(&plan.paths, cfg)
    }

    /// Compile planner output and route it on the calling thread's pooled
    /// scratch, observing the context's cancellation flag.
    ///
    /// # Panics
    /// Panics if some path is not a walk of the host graph — a planner bug,
    /// since planners only emit walks; compile untrusted paths with
    /// [`PacketBatch::compile`] to get the typed error instead.
    fn route_planned(&self, paths: &[PacketPath], cfg: RouterConfig) -> RoutingOutcome {
        #[expect(
            clippy::panic,
            reason = "documented panic: planners emit walks; `PacketBatch::compile` covers untrusted paths"
        )]
        let batch = PacketBatch::compile(&self.net, paths)
            .unwrap_or_else(|e| panic!("planner produced unroutable path: {e}"));
        POOLED_SCRATCH
            .with(|s| route_compiled(&self.net, &batch, cfg, &mut s.borrow_mut(), self.cancel))
    }
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
/// cells, each `(messages, demand_seed)` — on a compile-once [`RouteCtx`].
///
/// `demand_seed` drives a batch's traffic draw and `plan_seed` its route
/// planning. Splitting them lets saturation sweeps vary the batch while
/// *reusing* one plan seed per trial, so every cell of the trial shares the
/// same BFS trees. Every batch draws its demands, then [`plan_trial`] plans
/// them all at once around the context's faults and through its cache (one
/// BFS tree per distinct source across the batches, sources fanned out over
/// `pool`), then the batches route on `pool`, largest first, so the longest
/// run starts at once. Samples come back in batch order, each bit-identical
/// to measuring that batch alone, for every worker count, with or without
/// a cache. The two phases are timed as the `estimate_plan` and
/// `estimate_route` telemetry spans.
pub fn measure_rates_ctx(
    ctx: &RouteCtx<'_>,
    traffic: &Traffic,
    batches: &[(usize, u64)],
    strategy: Strategy,
    cfg: RouterConfig,
    plan_seed: u64,
    pool: Pool,
) -> Vec<CellSample> {
    assert!(
        traffic.n() <= ctx.machine.processors(),
        "traffic addresses more processors than the machine has"
    );
    let demands: Vec<Vec<(NodeId, NodeId)>> = batches
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
    let plan_span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_ESTIMATE_PLAN);
    let plans = plan_trial(
        ctx.machine,
        &slices,
        strategy,
        plan_seed,
        ctx.faults.as_ref(),
        ctx.cache,
        pool,
    );
    drop(plan_span);
    let mut order: Vec<usize> = (0..batches.len()).collect();
    order.sort_by_key(|&b| Reverse(batches[b].0));
    let route_span = fcn_telemetry::Span::enter(fcn_telemetry::names::SPAN_ESTIMATE_ROUTE);
    let outcomes = pool.run(order.len(), |k| {
        ctx.route_planned(&plans[order[k]].paths, cfg)
    });
    drop(route_span);
    let mut samples: Vec<(usize, CellSample)> = order
        .into_iter()
        .zip(outcomes)
        .map(|(b, outcome)| {
            let sample = CellSample {
                sample: RateSample {
                    messages: batches[b].0,
                    ticks: outcome.ticks,
                    rate: outcome.rate(),
                    completed: !matches!(
                        outcome.abort,
                        AbortCause::MaxTicks | AbortCause::Cancelled
                    ),
                },
                stranded: outcome.stranded,
                unreachable: plans[b].unreachable.len(),
                replans: plans[b].replans,
                abort: outcome.abort,
            };
            (b, sample)
        })
        .collect();
    samples.sort_by_key(|&(b, _)| b);
    samples.into_iter().map(|(_, sample)| sample).collect()
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
        let m = Machine::linear_array(4);
        let panic = std::panic::catch_unwind(|| {
            RouteCtx::new(&m).route_planned(&[PacketPath::new(vec![0, 3])], cfg())
        })
        .expect_err("a path off the host graph must panic");
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
