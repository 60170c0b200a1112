//! Executable emulation strategies — measured *upper* bounds that sandwich
//! the theorem's lower bound.
//!
//! Two strategies are provided:
//!
//! * [`direct_emulation`] — the classic embedding emulation: guest
//!   processors are block-assigned to host processors; each guest step
//!   delivers one message per guest wire between images (routed on the
//!   host) and then performs the assigned guest operations serially.
//! * [`block_mesh_emulation`] — a *redundant* emulation for mesh guests in
//!   the spirit of the redundant model [Koch et al. 7]: each host processor
//!   owns a cube of guest cells plus a halo of width `w`; it simulates `w`
//!   guest steps per phase locally (recomputing halo cells redundantly) and
//!   exchanges halos only once per phase — amortizing host distance/latency
//!   across `w` steps at the price of a bounded work-inefficiency factor.
//!   This is exactly the trade the paper's lower bound must survive, and
//!   the reason it must assume the general redundant model.

use fcn_multigraph::{contiguous_blocks, NodeId};
use fcn_routing::{RouteCtx, RouterConfig, Strategy};
use fcn_topology::Machine;
use serde::{Deserialize, Serialize};

/// Configuration shared by the emulation strategies.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EmulationConfig {
    /// Router configuration for sampled guest steps.
    pub router: RouterConfig,
    /// Path-planning strategy.
    pub strategy: Strategy,
    /// Base seed for planning and routing randomness.
    pub seed: u64,
    /// How many distinct guest steps to route as samples (the per-step
    /// demand set is identical up to routing randomness; sampling more
    /// steps tightens the estimate).
    pub sample_steps: u32,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            router: RouterConfig::default(),
            strategy: Strategy::ShortestPath,
            seed: 0xe30,
            sample_steps: 3,
        }
    }
}

/// Measured outcome of emulating `guest_steps` guest steps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmulationReport {
    /// Guest machine name.
    pub guest: String,
    /// Host machine name.
    pub host: String,
    /// Guest processor count `n`.
    pub guest_n: usize,
    /// Host processor count `m`.
    pub host_m: usize,
    /// Guest steps emulated.
    pub guest_steps: u64,
    /// Host ticks spent computing guest operations (serially per host
    /// processor; one guest operation = one tick).
    pub compute_ticks: u64,
    /// Host ticks spent routing messages.
    pub route_ticks: u64,
    /// Max guest processors assigned to one host processor.
    pub max_load: u32,
    /// For redundant strategies: host operations performed per useful guest
    /// operation (the paper's inefficiency `I`; 1.0 = work-preserving).
    pub work_ratio: f64,
}

impl EmulationReport {
    /// Total host time.
    pub fn host_ticks(&self) -> u64 {
        self.compute_ticks + self.route_ticks
    }

    /// Measured slowdown `S = T_H / T_G`.
    pub fn slowdown(&self) -> f64 {
        self.host_ticks() as f64 / self.guest_steps.max(1) as f64
    }

    /// Measured communication-induced slowdown only.
    pub fn communication_slowdown(&self) -> f64 {
        self.route_ticks as f64 / self.guest_steps.max(1) as f64
    }
}

/// Direct (embedding) emulation of `guest` on `host` for `guest_steps`
/// steps. Guest processors are assigned to host processors in contiguous
/// blocks; every guest step routes one message per guest wire (both
/// directions) whose endpoints map to different host processors.
pub fn direct_emulation(
    guest: &Machine,
    host: &Machine,
    guest_steps: u64,
    cfg: &EmulationConfig,
) -> EmulationReport {
    let n = guest.processors();
    let m = host.processors();
    assert!(m >= 1 && n >= m, "direct emulation expects |H| <= |G|");
    let assign = contiguous_blocks(n, m);
    let max_load = {
        let mut loads = vec![0u32; m];
        for &s in &assign {
            loads[s as usize] += 1;
        }
        loads.iter().copied().max().unwrap_or(0)
    };

    // Demands of one guest step: each guest edge {u,v} sends u->v and v->u.
    let mut demands: Vec<(NodeId, NodeId)> = Vec::new();
    for e in guest.graph().edges() {
        if e.u as usize >= n || e.v as usize >= n {
            continue; // auxiliary guest nodes don't compute
        }
        let (a, b) = (assign[e.u as usize], assign[e.v as usize]);
        if a != b {
            for _ in 0..e.multiplicity {
                demands.push((a, b));
                demands.push((b, a));
            }
        }
    }

    // Route a few sample steps and average (one host compilation serves all
    // samples).
    let ctx = RouteCtx::new(host);
    let samples = cfg.sample_steps.max(1);
    let mut route_total = 0u64;
    for s in 0..samples {
        let seed = cfg.seed.wrapping_add(s as u64 * 7919);
        let ticks = if demands.is_empty() {
            0
        } else {
            let out = ctx.route_demands(&demands, cfg.strategy, seed, cfg.router);
            assert!(out.completed, "routing did not complete; raise max_ticks");
            out.ticks
        };
        route_total += ticks;
    }
    let route_per_step = route_total as f64 / samples as f64;

    EmulationReport {
        guest: guest.name().to_string(),
        host: host.name().to_string(),
        guest_n: n,
        host_m: m,
        guest_steps,
        compute_ticks: max_load as u64 * guest_steps,
        route_ticks: (route_per_step * guest_steps as f64).round() as u64,
        max_load,
        work_ratio: (max_load as u64 * m as u64) as f64 / n as f64,
    }
}

/// Redundant block emulation of a k-dimensional mesh guest.
///
/// The guest is `mesh(k, guest_side)`; the host has `m = h^k` processors
/// for some integer `h` dividing `guest_side`. Each host processor owns a
/// `b^k` cube (`b = guest_side/h`) plus a halo of width `halo_w`; one
/// *phase* simulates `halo_w` guest steps locally (the halo shrinks one
/// layer per step, so interior results stay exact) and then refreshes halos
/// with one bulk exchange of `halo_w · b^{k-1}` messages per adjacent cube
/// pair.
pub fn block_mesh_emulation(
    k: u8,
    guest_side: usize,
    host: &Machine,
    halo_w: u32,
    guest_steps: u64,
    cfg: &EmulationConfig,
) -> EmulationReport {
    assert!(k >= 1 && halo_w >= 1);
    let kk = k as usize;
    let m = host.processors();
    let h = (m as f64).powf(1.0 / k as f64).round() as usize;
    assert_eq!(h.pow(k as u32), m, "host size must be a k-th power");
    assert!(
        guest_side.is_multiple_of(h),
        "guest side {guest_side} must be divisible by grid {h}"
    );
    let b = guest_side / h;
    assert!(
        (halo_w as usize) <= b,
        "halo width must not exceed the block side"
    );
    let n = guest_side.pow(k as u32);

    // Messages of one phase: for each pair of cube-adjacent host processors,
    // halo_w·b^{k-1} packets each way.
    let face = halo_w as usize * b.pow(k as u32 - 1);
    let mut demands: Vec<(NodeId, NodeId)> = Vec::new();
    for cube in 0..m {
        let coords = fcn_topology::mesh::coords_of(cube, kk, h);
        for d in 0..kk {
            if coords[d] + 1 < h {
                let mut c2 = coords.clone();
                c2[d] += 1;
                let other = fcn_topology::mesh::id_of(&c2, h);
                for _ in 0..face {
                    demands.push((cube as NodeId, other as NodeId));
                    demands.push((other as NodeId, cube as NodeId));
                }
            }
        }
    }

    let ctx = RouteCtx::new(host);
    let samples = cfg.sample_steps.max(1);
    let mut route_total = 0u64;
    for s in 0..samples {
        let seed = cfg.seed.wrapping_add(s as u64 * 104_729);
        let ticks = if demands.is_empty() {
            0
        } else {
            let out = ctx.route_demands(&demands, cfg.strategy, seed, cfg.router);
            assert!(out.completed, "phase routing did not complete");
            out.ticks
        };
        route_total += ticks;
    }
    let route_per_phase = route_total as f64 / samples as f64;

    // Compute per phase: step i (0-based) updates the cells whose results
    // are still needed: (b + 2(halo_w - i))^k, summed over the w steps.
    let compute_per_phase: u64 = (0..halo_w)
        .map(|i| ((b + 2 * (halo_w - i) as usize) as u64).pow(k as u32))
        .sum();
    let phases = guest_steps.div_ceil(halo_w as u64);
    let useful_per_phase = (halo_w as u64) * (b as u64).pow(k as u32);

    EmulationReport {
        guest: format!("mesh{k}(side={guest_side})"),
        host: host.name().to_string(),
        guest_n: n,
        host_m: m,
        guest_steps,
        compute_ticks: phases * compute_per_phase,
        route_ticks: (route_per_phase * phases as f64).round() as u64,
        max_load: (b as u32).pow(k as u32),
        work_ratio: compute_per_phase as f64 / useful_per_phase as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem::slowdown_lower_bound;
    use fcn_topology::Family;

    fn cfg() -> EmulationConfig {
        EmulationConfig {
            sample_steps: 2,
            ..Default::default()
        }
    }

    #[test]
    fn identity_emulation_has_unit_load_and_no_comm_free_lunch() {
        // mesh on itself: load 1, slowdown O(1 + route of one wire set).
        let g = Machine::mesh(2, 4);
        let h = Machine::mesh(2, 4);
        let r = direct_emulation(&g, &h, 10, &cfg());
        assert_eq!(r.max_load, 1);
        assert!((r.work_ratio - 1.0).abs() < 1e-12);
        // Each step routes each wire's two messages: constant ticks.
        assert!(r.slowdown() <= 8.0, "slowdown {}", r.slowdown());
    }

    #[test]
    fn measured_slowdown_respects_the_lower_bound() {
        // de Bruijn guest on small mesh host: measured S must exceed the
        // theorem's bound (modulo tiny constants).
        let g = Machine::de_bruijn(6); // n = 64
        let h = Machine::mesh(2, 3); // m = 9
        let r = direct_emulation(&g, &h, 12, &cfg());
        let bound = slowdown_lower_bound(&Family::DeBruijn, &Family::Mesh(2));
        let predicted = bound.eval(64.0, 9.0);
        assert!(
            r.slowdown() >= 0.5 * predicted,
            "measured {} vs bound {predicted}",
            r.slowdown()
        );
    }

    #[test]
    fn bigger_hosts_route_faster_until_bandwidth_binds() {
        let g = Machine::de_bruijn(7); // n = 128
        let small = Machine::mesh(2, 2);
        let large = Machine::mesh(2, 6);
        let rs = direct_emulation(&g, &small, 6, &cfg());
        let rl = direct_emulation(&g, &large, 6, &cfg());
        assert!(rl.communication_slowdown() < rs.communication_slowdown());
        assert!(rl.max_load < rs.max_load);
    }

    #[test]
    fn block_emulation_amortizes_distance() {
        // Mesh guest on a tree host (distance Θ(lg m)): block phases with
        // w > 1 must beat per-step exchanges in communication per step.
        let host = Machine::mesh(2, 4); // placeholder to size the guest
        let _ = host;
        let tree_host = Machine::custom(
            Family::Tree,
            "tree16".into(),
            Machine::tree(4).graph().clone(),
            16,
            fcn_topology::SendCapacity::Unlimited,
            vec![],
        );
        let r1 = block_mesh_emulation(2, 32, &tree_host, 1, 8, &cfg());
        let r4 = block_mesh_emulation(2, 32, &tree_host, 4, 8, &cfg());
        assert!(
            r4.communication_slowdown() < r1.communication_slowdown() * 1.05,
            "w=4 {} vs w=1 {}",
            r4.communication_slowdown(),
            r1.communication_slowdown()
        );
        // Redundancy costs bounded extra work.
        assert!(r4.work_ratio > 1.0);
        assert!(r4.work_ratio < 4.0, "work ratio {}", r4.work_ratio);
        assert!((r1.work_ratio - ((8f64 + 2.0) / 8.0).powi(2)).abs() < 0.2);
    }

    #[test]
    fn block_emulation_on_mesh_host_is_efficient() {
        let host = Machine::mesh(2, 4);
        let r = block_mesh_emulation(2, 16, &host, 2, 8, &cfg());
        assert_eq!(r.guest_n, 256);
        assert_eq!(r.host_m, 16);
        assert_eq!(r.max_load, 16);
        // Load-induced slowdown n/m = 16 dominates; total within a small
        // constant of it.
        assert!(r.slowdown() >= 16.0);
        assert!(r.slowdown() <= 16.0 * 6.0, "slowdown {}", r.slowdown());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn block_emulation_checks_geometry() {
        let host = Machine::mesh(2, 3);
        let _ = block_mesh_emulation(2, 16, &host, 1, 4, &cfg());
    }
}
