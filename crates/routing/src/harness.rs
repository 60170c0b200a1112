//! Delivery-rate measurement harness.
//!
//! The paper defines `β(G, π)` as the expected value, as `m → ∞`, of
//! `m / r(m)` where `r(m)` is the time to deliver `m` messages drawn from
//! `π`. [`measure_rate`] produces one `m / r(m)` sample; [`plateau_rate`]
//! takes the largest completed sample of a geometric `m` sweep, approximating
//! the limit.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use fcn_multigraph::Traffic;
use fcn_topology::Machine;
use serde::{Deserialize, Serialize};

use crate::cache::PlanCache;
use crate::compiled::{CompiledNet, PacketBatch};
use crate::engine::{route_compiled, RouterConfig, RoutingOutcome, POOLED_SCRATCH};
use crate::packet::{PacketPath, Strategy};

/// A compile-once routing context: one machine, its [`CompiledNet`], and an
/// optional [`PlanCache`].
///
/// Every β estimate, saturation sweep, and audit routes hundreds of batches
/// on the *same* machine; the context compiles the machine's wire arrays
/// exactly once and shares them (`Arc`) across all batches — and across
/// [`fcn_exec::Pool`] workers, since the net is plain data. The context is
/// `Sync`, so one `&RouteCtx` can be captured by every worker closure of a
/// sweep.
///
/// ```
/// use fcn_routing::{measure_rate_ctx, RouteCtx, RouterConfig, Strategy};
/// use fcn_topology::Machine;
///
/// let m = Machine::mesh(2, 4);
/// let ctx = RouteCtx::new(&m);
/// let t = m.symmetric_traffic();
/// let s = measure_rate_ctx(&ctx, &t, 32, Strategy::ShortestPath, RouterConfig::default(), 1, 2);
/// assert!(s.completed);
/// ```
pub struct RouteCtx<'a> {
    machine: &'a Machine,
    net: Arc<CompiledNet>,
    cache: Option<&'a PlanCache>,
    cancel: Option<&'a AtomicBool>,
}

impl<'a> RouteCtx<'a> {
    /// Compile `machine`'s wire arrays and wrap them in a context.
    pub fn new(machine: &'a Machine) -> Self {
        RouteCtx {
            machine,
            net: CompiledNet::shared(machine),
            cache: None,
            cancel: None,
        }
    }

    /// A context over an already-compiled net (for sharing one compilation
    /// across several contexts, e.g. the audit's per-distribution cells).
    pub fn from_net(machine: &'a Machine, net: Arc<CompiledNet>) -> Self {
        debug_assert_eq!(net.node_count(), machine.graph().node_count());
        RouteCtx {
            machine,
            net,
            cache: None,
            cancel: None,
        }
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

    /// The attached plan cache, if any.
    pub fn cache(&self) -> Option<&PlanCache> {
        self.cache
    }

    /// The attached cancellation flag, if any.
    pub fn cancel(&self) -> Option<&AtomicBool> {
        self.cancel
    }

    /// Compile and route planner-produced paths on this context's machine,
    /// reusing the calling thread's pooled scratch and observing the
    /// context's cancellation flag.
    ///
    /// # Panics
    /// Panics if some path is not a walk of the host graph — impossible for
    /// planner output; compile untrusted paths with
    /// [`PacketBatch::compile`] to get the typed error instead.
    pub fn route_paths(&self, paths: &[PacketPath], cfg: RouterConfig) -> RoutingOutcome {
        let batch = PacketBatch::compile(&self.net, paths)
            // fcn-allow: ERR-UNWRAP documented panicking wrapper over planner output; `PacketBatch::compile` covers untrusted paths
            .unwrap_or_else(|e| panic!("planner produced unroutable path: {e}"));
        POOLED_SCRATCH.with(|s| {
            route_compiled(
                &self.net,
                &batch,
                None,
                cfg,
                &mut s.borrow_mut(),
                self.cancel,
            )
        })
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
    /// Whether routing completed within the tick budget.
    pub completed: bool,
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
    measure_rate_ctx(
        &RouteCtx::new(machine),
        traffic,
        messages,
        strategy,
        cfg,
        seed ^ 0x7ea55a17,
        seed,
    )
}

/// [`measure_rate`] over a compile-once [`RouteCtx`], with split seeds:
/// sample demands, plan routes (through the context's cache, if any),
/// compile the batch to wire ids, and run it on the shared net with pooled
/// scratch.
///
/// `demand_seed` drives the traffic draw, `plan_seed` drives route
/// planning. Splitting them lets saturation sweeps vary the batch
/// (different demand seeds per cell) while *reusing* one plan seed per
/// trial, so every cell of the trial shares the same BFS trees — which the
/// context's [`PlanCache`] then serves instead of recomputing. Results are
/// bit-identical with or without the cache.
#[allow(clippy::too_many_arguments)]
pub fn measure_rate_ctx(
    ctx: &RouteCtx<'_>,
    traffic: &Traffic,
    messages: usize,
    strategy: Strategy,
    cfg: RouterConfig,
    demand_seed: u64,
    plan_seed: u64,
) -> RateSample {
    assert!(messages >= 1);
    assert!(
        traffic.n() <= ctx.machine.processors(),
        "traffic addresses more processors than the machine has"
    );
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(demand_seed)
    };
    let demands: Vec<_> = (0..messages).map(|_| traffic.sample(&mut rng)).collect();
    let routes =
        crate::native::plan_routes_cached(ctx.machine, &demands, strategy, plan_seed, ctx.cache);
    let outcome = ctx.route_paths(&routes, cfg);
    RateSample {
        messages,
        ticks: outcome.ticks,
        rate: outcome.rate(),
        completed: outcome.completed,
    }
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
                measure_rate_ctx(&ctx, &t, mult * 64, Strategy::ShortestPath, cfg(), s ^ 1, s)
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
    fn route_paths_matches_the_skip_free_reference() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let never = AtomicBool::new(false);
        let plain = RouteCtx::new(&m);
        let watched = RouteCtx::new(&m).with_cancel(&never);
        let mut scratch = crate::engine::RouterScratch::new();
        for seed in 0..3u64 {
            let mut rng = {
                use rand::SeedableRng;
                rand::rngs::StdRng::seed_from_u64(seed ^ 1)
            };
            let demands: Vec<_> = (0..96).map(|_| t.sample(&mut rng)).collect();
            let paths = crate::native::plan_routes(&m, &demands, Strategy::ShortestPath, seed);
            let batch = PacketBatch::compile(plain.net(), &paths).unwrap();
            let spec = crate::engine::reference::route_every_tick(
                plain.net(),
                &batch,
                None,
                cfg(),
                &mut scratch,
                None,
            );
            assert_eq!(plain.route_paths(&paths, cfg()), spec, "seed {seed}");
            assert_eq!(watched.route_paths(&paths, cfg()), spec, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "more processors")]
    fn traffic_must_fit_machine() {
        let m = Machine::linear_array(4);
        let t = Traffic::symmetric(8);
        let _ = measure_rate(&m, &t, 8, Strategy::ShortestPath, cfg(), 0);
    }
}
