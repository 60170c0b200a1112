//! Steady-state (open-loop) throughput measurement.
//!
//! Batch routing measures `m / r(m)` for one finite batch; the paper's `β`
//! is the limit as `m → ∞`. The steady-state mode approaches that limit
//! differently: inject new packets continuously at a target rate, let the
//! system warm up, and measure the sustained delivery rate over a
//! measurement window. Ramping the injection rate until the backlog
//! diverges brackets the saturation throughput — the classical
//! load–throughput methodology for interconnection networks (and the
//! operational reading of Kruskal–Snir bandwidth).

use fcn_multigraph::{NodeId, Traffic};
use fcn_topology::Machine;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::engine::RouterConfig;
use crate::harness::RouteCtx;
use crate::packet::Strategy;

/// Configuration of one steady-state run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SteadyConfig {
    /// Ticks of warm-up before measurement starts.
    pub warmup_ticks: u64,
    /// Ticks measured.
    pub measure_ticks: u64,
    /// Router configuration.
    pub router: RouterConfig,
    /// Path-planning strategy.
    pub strategy: Strategy,
    /// Base seed for traffic sampling and planning.
    pub seed: u64,
}

impl Default for SteadyConfig {
    fn default() -> Self {
        SteadyConfig {
            warmup_ticks: 256,
            measure_ticks: 1024,
            router: RouterConfig::default(),
            strategy: Strategy::ShortestPath,
            seed: 0x57ea,
        }
    }
}

/// Outcome of one steady-state run at a fixed injection rate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SteadyOutcome {
    /// Packets injected per tick (target).
    pub injection_rate: f64,
    /// Delivered per tick during the measurement window.
    pub delivery_rate: f64,
    /// Backlog (in-flight packets) at the end relative to the start of the
    /// window; a stable system keeps this near zero.
    pub backlog_growth: i64,
    /// Whether delivery kept up with injection (within 5%).
    pub stable: bool,
}

/// Simulate continuous injection at `rate` packets/tick on `ctx`'s machine.
///
/// Implementation: time is sliced into epochs of `epoch` ticks; the packets
/// injected during an epoch are routed as a batch whose completion time is
/// compared to the epoch length. This epoch approximation measures
/// sustained throughput without per-tick event bookkeeping and is accurate
/// once epochs are much longer than the transit time.
///
/// Each epoch's demands are planned and routed by
/// [`RouteCtx::route_demands`], so the context's faults and plan cache
/// apply. Takes an already-compiled [`RouteCtx`], so ramps
/// ([`saturation_throughput`]) compile the wire graph once instead of once
/// per probed rate.
pub fn steady_state_rate_ctx(
    ctx: &RouteCtx<'_>,
    traffic: &Traffic,
    rate: f64,
    cfg: SteadyConfig,
) -> SteadyOutcome {
    assert!(rate > 0.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let epoch = cfg.measure_ticks.max(64);
    // Warmup epoch (discard), then measured epoch.
    let mut delivered_in_window = 0u64;
    let mut window_ticks = 0u64;
    let mut backlog: i64 = 0;
    for (phase, ticks) in [(0u8, cfg.warmup_ticks.max(1)), (1u8, epoch)] {
        let to_inject = (rate * ticks as f64).round() as usize;
        let demands: Vec<(NodeId, NodeId)> =
            (0..to_inject).map(|_| traffic.sample(&mut rng)).collect();
        if demands.is_empty() {
            continue;
        }
        let plan_seed = rng.random::<u64>();
        let out = ctx.route_demands(&demands, cfg.strategy, plan_seed, cfg.router);
        if phase == 1 {
            // If the batch needed longer than the epoch, the surplus is
            // backlog the system could not absorb.
            delivered_in_window = out.delivered as u64;
            window_ticks = ticks.max(out.ticks);
            backlog = out.ticks as i64 - ticks as i64;
        }
    }
    let delivery_rate = delivered_in_window as f64 / window_ticks.max(1) as f64;
    SteadyOutcome {
        injection_rate: rate,
        delivery_rate,
        backlog_growth: backlog.max(0),
        stable: delivery_rate >= rate * 0.95,
    }
}

/// Ramp the injection rate geometrically and report the highest *stable*
/// delivery rate — the saturation throughput estimate.
pub fn saturation_throughput(
    machine: &Machine,
    traffic: &Traffic,
    cfg: SteadyConfig,
) -> (f64, Vec<SteadyOutcome>) {
    // Start well below any machine's β and double until unstable. The ramp
    // probes up to ~25 rates; one compiled net serves them all.
    let ctx = RouteCtx::new(machine);
    let mut rate = 0.25;
    let mut outcomes = Vec::new();
    let mut best_stable: f64 = 0.0;
    for _ in 0..24 {
        let out = steady_state_rate_ctx(&ctx, traffic, rate, cfg);
        let stable = out.stable;
        let delivery = out.delivery_rate;
        outcomes.push(out);
        if stable {
            best_stable = best_stable.max(delivery);
            rate *= 2.0;
        } else {
            // Refine once between the last stable and the unstable rate.
            let refined = steady_state_rate_ctx(&ctx, traffic, rate * 0.75, cfg);
            if refined.stable {
                best_stable = best_stable.max(refined.delivery_rate);
            }
            outcomes.push(refined);
            break;
        }
    }
    (best_stable, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_topology::Machine;

    fn cfg() -> SteadyConfig {
        SteadyConfig {
            warmup_ticks: 64,
            measure_ticks: 256,
            ..Default::default()
        }
    }

    #[test]
    fn low_rate_is_stable() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let out = steady_state_rate_ctx(&RouteCtx::new(&m), &t, 1.0, cfg());
        assert!(out.stable, "{out:?}");
        assert!((out.delivery_rate - 1.0).abs() < 0.2);
    }

    #[test]
    fn absurd_rate_is_unstable() {
        let m = Machine::linear_array(32);
        let t = m.symmetric_traffic();
        let out = steady_state_rate_ctx(&RouteCtx::new(&m), &t, 100.0, cfg());
        assert!(!out.stable, "{out:?}");
        assert!(out.backlog_growth > 0);
    }

    #[test]
    fn saturation_matches_batch_estimate_on_mesh() {
        let m = Machine::mesh(2, 8);
        let t = m.symmetric_traffic();
        let (sat, outcomes) = saturation_throughput(&m, &t, cfg());
        assert!(!outcomes.is_empty());
        // Batch estimate for mesh2(8) is ~10-16; steady-state should land
        // in the same ballpark.
        assert!(sat > 4.0 && sat < 40.0, "saturation {sat}");
    }

    #[test]
    fn saturation_scales_with_machine() {
        let t8 = Machine::mesh(2, 8);
        let t16 = Machine::mesh(2, 16);
        let (s8, _) = saturation_throughput(&t8, &t8.symmetric_traffic(), cfg());
        let (s16, _) = saturation_throughput(&t16, &t16.symmetric_traffic(), cfg());
        assert!(s16 > s8, "{s16} vs {s8}");
    }

    #[test]
    fn bus_saturates_at_one() {
        let m = Machine::global_bus(16);
        let (sat, _) = saturation_throughput(&m, &m.symmetric_traffic(), cfg());
        assert!(sat <= 1.3, "bus saturation {sat}");
        assert!(sat >= 0.5, "bus saturation {sat}");
    }
}
