#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-faults — the deterministic fault plane
//!
//! The paper's bandwidth `β` is defined operationally as the delivery rate
//! of an *intact* machine. This crate makes "β under degradation" a
//! first-class measurable quantity: a [`FaultPlan`] kills wires and nodes
//! permanently or takes link capacity offline over tick windows, and the
//! router / planner stack (`fcn-routing`, `fcn-bandwidth`) consumes the
//! plan to produce degraded-β curves.
//!
//! ## Determinism contract
//!
//! A plan is a **pure function of `(plan seed, graph fingerprint, spec
//! knobs)`**. Every per-entity decision (does node `u` die? does link
//! `(u,v)` die, and when does its outage window open?) is derived by
//! hashing the entity's id with [`fcn_exec::job_seed`] — never by drawing
//! from a sequential RNG — so:
//!
//! * the same `(seed, graph)` always yields the same plan, on any machine,
//!   at any worker count;
//! * raising a fail rate only *adds* faults: every entity dead at rate `p`
//!   is still dead at rate `p' > p` (threshold hashing), which makes
//!   β-vs-fault-rate curves monotone in the injected fault set;
//! * two graphs with different fingerprints get statistically independent
//!   plans from the same seed.
//!
//! [`FaultPlan::none`] is the *transparency pin*: an empty plan must be
//! byte-invisible to every consumer (`CompiledNet::apply_faults` with
//! `none()` routes bit-identically to the unfaulted net; the chaos suite
//! enforces this).
//!
//! ## Model
//!
//! * **Dead link** — both directed wires of an undirected link vanish
//!   permanently. Packets whose precompiled path crosses a dead wire are
//!   *stranded* (typed outcome, never a silent `max_ticks` spin); planners
//!   replan around dead wires via BFS on [`FaultPlan::degrade_graph`].
//! * **Dead node** — every incident link dies and the node's send budget
//!   drops to zero.
//! * **Outage** — a transient window `[start, end)` of ticks during which
//!   the link's capacity is reduced (possibly to zero). Outages delay but
//!   never strand: windows are finite, so the router always terminates
//!   with a typed outcome.

use std::collections::BTreeSet;

use fcn_exec::job_seed;
use fcn_multigraph::{Multigraph, MultigraphBuilder, NodeId};
use serde::{Deserialize, Serialize};

/// Domain separators so node, link, and window decisions draw from
/// independent hash streams.
const NODE_STREAM: u64 = 0xfa17_0000_0000_0001;
const LINK_STREAM: u64 = 0xfa17_0000_0000_0002;
const OUTAGE_STREAM: u64 = 0xfa17_0000_0000_0003;
const WINDOW_STREAM: u64 = 0xfa17_0000_0000_0004;

/// Map a 64-bit hash to a uniform fraction in `[0, 1)`.
#[inline]
fn unit_fraction(h: u64) -> f64 {
    // 53 mantissa bits — the standard uniform-double construction.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Canonical 64-bit key of an unordered node pair (`u <= v`).
#[inline]
fn link_key(u: NodeId, v: NodeId) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Knobs describing *how much* to degrade a machine. Resolved into a
/// concrete [`FaultPlan`] against a specific graph by [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Base seed of the plan's hash streams.
    pub seed: u64,
    /// Probability that an undirected link dies permanently.
    pub link_fail_rate: f64,
    /// Probability that a node dies permanently (killing its links).
    pub node_fail_rate: f64,
    /// Probability that a surviving link suffers one transient outage.
    pub outage_rate: f64,
    /// Outage windows start uniformly in `[0, outage_horizon)` ticks.
    pub outage_horizon: u64,
    /// Outage windows last `1..=outage_max_len` ticks.
    pub outage_max_len: u64,
    /// Link capacity *during* an outage window (usually 0).
    pub outage_capacity: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0xfa17,
            link_fail_rate: 0.0,
            node_fail_rate: 0.0,
            outage_rate: 0.0,
            outage_horizon: 256,
            outage_max_len: 64,
            outage_capacity: 0,
        }
    }
}

impl FaultSpec {
    /// The conventional single-knob spec used by degraded-β sweeps: links
    /// die at `rate`, nodes at `rate / 4`, and surviving links suffer
    /// zero-capacity outages at `rate`.
    pub fn uniform(seed: u64, rate: f64) -> FaultSpec {
        FaultSpec {
            seed,
            link_fail_rate: rate,
            node_fail_rate: rate / 4.0,
            outage_rate: rate,
            ..FaultSpec::default()
        }
    }

    /// True when no knob can produce a fault.
    pub fn is_trivial(&self) -> bool {
        self.link_fail_rate <= 0.0 && self.node_fail_rate <= 0.0 && self.outage_rate <= 0.0
    }
}

/// One transient capacity outage on an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkOutage {
    /// Link endpoint (`u <= v`).
    pub u: NodeId,
    /// Link endpoint.
    pub v: NodeId,
    /// First tick of the window.
    pub start: u64,
    /// First tick *after* the window.
    pub end: u64,
    /// Capacity of each direction of the link during the window.
    pub capacity: u32,
}

/// A concrete, resolved fault plan for one graph.
///
/// Construct with [`FaultPlan::generate`] (seeded, deterministic) or
/// [`FaultPlan::none`] (the transparency pin). All lists are sorted, so
/// plans compare and hash stably.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Permanently dead nodes, ascending.
    dead_nodes: Vec<NodeId>,
    /// Permanently dead undirected links (`u <= v`), ascending. Includes
    /// the links implied by dead nodes.
    dead_links: Vec<(NodeId, NodeId)>,
    /// Transient outages on surviving links, ascending by link.
    outages: Vec<LinkOutage>,
}

impl FaultPlan {
    /// The empty plan: no faults, applies to any graph, and must be
    /// byte-invisible to every consumer.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Resolve `spec` against `graph` — a pure function of
    /// `(spec, graph.fingerprint())`.
    pub fn generate(graph: &Multigraph, spec: &FaultSpec) -> FaultPlan {
        if spec.is_trivial() {
            return FaultPlan::none();
        }
        let fp = graph.fingerprint();
        let n = graph.node_count() as NodeId;
        let mut dead_nodes = Vec::new();
        for u in 0..n {
            let h = job_seed(spec.seed ^ NODE_STREAM ^ fp, u as u64);
            if unit_fraction(h) < spec.node_fail_rate {
                dead_nodes.push(u);
            }
        }
        let dead_set: BTreeSet<NodeId> = dead_nodes.iter().copied().collect();
        let mut dead_links = Vec::new();
        let mut outages = Vec::new();
        for e in graph.edges() {
            if e.u == e.v {
                continue; // self-loops carry no traffic in the wire model
            }
            let key = link_key(e.u, e.v);
            let link_dead = unit_fraction(job_seed(spec.seed ^ LINK_STREAM ^ fp, key))
                < spec.link_fail_rate
                || dead_set.contains(&e.u)
                || dead_set.contains(&e.v);
            if link_dead {
                dead_links.push((e.u, e.v));
                continue;
            }
            if unit_fraction(job_seed(spec.seed ^ OUTAGE_STREAM ^ fp, key)) < spec.outage_rate {
                let w = job_seed(spec.seed ^ WINDOW_STREAM ^ fp, key);
                let horizon = spec.outage_horizon.max(1);
                let max_len = spec.outage_max_len.max(1);
                let start = (w >> 32) % horizon;
                let len = 1 + (w & 0xffff_ffff) % max_len;
                outages.push(LinkOutage {
                    u: e.u,
                    v: e.v,
                    start,
                    end: start + len,
                    capacity: spec.outage_capacity.min(e.multiplicity.saturating_sub(1)),
                });
            }
        }
        // `edges()` yields ascending (u, v); keep the invariant explicit.
        debug_assert!(dead_links.windows(2).all(|w| w[0] < w[1]));
        FaultPlan {
            dead_nodes,
            dead_links,
            outages,
        }
    }

    /// Assemble a plan from explicit parts — the hand-built counterpart of
    /// [`FaultPlan::generate`] for tests, ablations, and property-based
    /// outage schedules. Inputs are normalized to the plan invariants:
    /// nodes sorted and deduplicated, links canonicalized (`u <= v`),
    /// sorted and deduplicated, outages canonicalized and sorted by link
    /// then window, and empty (`start >= end`) windows dropped. Unlike
    /// [`FaultPlan::generate`] there is no graph in scope, so callers who kill a node must list its incident links in
    /// `dead_links` themselves to uphold the plan invariant.
    pub fn assemble(
        dead_nodes: Vec<NodeId>,
        dead_links: Vec<(NodeId, NodeId)>,
        outages: Vec<LinkOutage>,
    ) -> FaultPlan {
        let mut dead_nodes = dead_nodes;
        dead_nodes.sort_unstable();
        dead_nodes.dedup();
        let mut links: Vec<(NodeId, NodeId)> = dead_links
            .into_iter()
            .map(|(u, v)| if u <= v { (u, v) } else { (v, u) })
            .collect();
        links.sort_unstable();
        links.dedup();
        let mut outs: Vec<LinkOutage> = outages
            .into_iter()
            .filter(|o| o.start < o.end)
            .map(|o| {
                let (u, v) = if o.u <= o.v { (o.u, o.v) } else { (o.v, o.u) };
                LinkOutage { u, v, ..o }
            })
            .collect();
        outs.sort_unstable_by_key(|o| (o.u, o.v, o.start, o.end, o.capacity));
        FaultPlan {
            dead_nodes,
            dead_links: links,
            outages: outs,
        }
    }

    /// True when the plan injects nothing (the transparency case).
    pub fn is_empty(&self) -> bool {
        self.dead_nodes.is_empty() && self.dead_links.is_empty() && self.outages.is_empty()
    }

    /// Permanently dead nodes, ascending.
    pub fn dead_nodes(&self) -> &[NodeId] {
        &self.dead_nodes
    }

    /// Permanently dead undirected links (`u <= v`), ascending.
    pub fn dead_links(&self) -> &[(NodeId, NodeId)] {
        &self.dead_links
    }

    /// Transient link outages (on links that are *not* dead).
    pub fn outages(&self) -> &[LinkOutage] {
        &self.outages
    }

    /// Is node `u` permanently dead?
    pub fn node_dead(&self, u: NodeId) -> bool {
        self.dead_nodes.binary_search(&u).is_ok()
    }

    /// Is the undirected link `u — v` permanently dead?
    pub fn link_dead(&self, u: NodeId, v: NodeId) -> bool {
        let pair = if u <= v { (u, v) } else { (v, u) };
        self.dead_links.binary_search(&pair).is_ok()
    }

    /// The surviving graph: `graph` minus dead links and minus every link
    /// incident to a dead node (dead nodes stay as isolated vertices so
    /// node ids are stable). Planners BFS on this to route around faults.
    pub fn degrade_graph(&self, graph: &Multigraph) -> Multigraph {
        if self.is_empty() {
            return graph.clone();
        }
        let mut b = MultigraphBuilder::new(graph.node_count());
        for e in graph.edges() {
            if e.u == e.v || self.link_dead(e.u, e.v) {
                continue;
            }
            b.add_edge_mult(e.u, e.v, e.multiplicity);
        }
        b.build()
    }

    /// Does `path` (a vertex walk) cross any permanently dead link or
    /// touch a dead node? Such a packet can never be delivered.
    pub fn path_blocked(&self, path: &[NodeId]) -> bool {
        if self.is_empty() {
            return false;
        }
        if path.iter().any(|&u| self.node_dead(u)) {
            return true;
        }
        path.windows(2).any(|w| self.link_dead(w[0], w[1]))
    }

    /// Summary counts `(dead nodes, dead links, outages)` for reports.
    pub fn summary(&self) -> (usize, usize, usize) {
        (
            self.dead_nodes.len(),
            self.dead_links.len(),
            self.outages.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(side: NodeId) -> Multigraph {
        let mut b = MultigraphBuilder::new((side * side) as usize);
        for r in 0..side {
            for c in 0..side {
                let id = r * side + c;
                if c + 1 < side {
                    b.add_edge(id, id + 1);
                }
                if r + 1 < side {
                    b.add_edge(id, id + side);
                }
            }
        }
        b.build()
    }

    #[test]
    fn none_is_empty_and_blocks_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.path_blocked(&[0, 1, 2]));
        assert!(!plan.link_dead(0, 1));
        assert!(!plan.node_dead(7));
        assert_eq!(plan.summary(), (0, 0, 0));
        let g = mesh(4);
        assert_eq!(plan.degrade_graph(&g), g);
    }

    #[test]
    fn trivial_spec_generates_none() {
        let g = mesh(4);
        let spec = FaultSpec::uniform(9, 0.0);
        assert!(spec.is_trivial());
        assert_eq!(FaultPlan::generate(&g, &spec), FaultPlan::none());
    }

    #[test]
    fn generation_is_a_pure_function_of_seed_and_graph() {
        let g = mesh(8);
        let spec = FaultSpec::uniform(42, 0.1);
        let a = FaultPlan::generate(&g, &spec);
        let b = FaultPlan::generate(&g, &spec);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Different seed: different plan (overwhelmingly likely at n=64).
        let c = FaultPlan::generate(&g, &FaultSpec::uniform(43, 0.1));
        assert_ne!(a, c);
        // Different graph, same seed: plans are keyed by fingerprint.
        let d = FaultPlan::generate(&mesh(6), &spec);
        assert_ne!(a.dead_links(), d.dead_links());
    }

    #[test]
    fn raising_the_rate_only_adds_faults() {
        // Threshold hashing: every link dead at p stays dead at p' > p.
        let g = mesh(8);
        let lo = FaultPlan::generate(&g, &FaultSpec::uniform(7, 0.05));
        let hi = FaultPlan::generate(&g, &FaultSpec::uniform(7, 0.25));
        for l in lo.dead_links() {
            assert!(
                hi.dead_links().contains(l),
                "{l:?} recovered at higher rate"
            );
        }
        for u in lo.dead_nodes() {
            assert!(hi.dead_nodes().contains(u));
        }
        assert!(hi.dead_links().len() >= lo.dead_links().len());
    }

    #[test]
    fn dead_nodes_kill_their_links() {
        let g = mesh(6);
        let spec = FaultSpec {
            node_fail_rate: 0.2,
            ..FaultSpec::uniform(3, 0.0)
        };
        let plan = FaultPlan::generate(&g, &spec);
        assert!(!plan.dead_nodes().is_empty(), "no node died at 20% on n=36");
        for &u in plan.dead_nodes() {
            for (v, _) in g.neighbors(u) {
                assert!(plan.link_dead(u, v), "live link at dead node {u}");
            }
            assert!(plan.path_blocked(&[u]));
        }
    }

    #[test]
    fn degraded_graph_drops_exactly_the_dead_links() {
        let g = mesh(8);
        let plan = FaultPlan::generate(&g, &FaultSpec::uniform(11, 0.15));
        let degraded = plan.degrade_graph(&g);
        assert_eq!(degraded.node_count(), g.node_count());
        for e in g.edges() {
            let expect = !plan.link_dead(e.u, e.v);
            assert_eq!(degraded.has_edge(e.u, e.v), expect, "{e:?}");
        }
        assert!(degraded.simple_edge_count() < g.simple_edge_count());
    }

    #[test]
    fn outages_are_finite_and_on_live_links() {
        let g = mesh(8);
        let spec = FaultSpec {
            outage_rate: 0.5,
            ..FaultSpec::uniform(5, 0.1)
        };
        let plan = FaultPlan::generate(&g, &spec);
        assert!(!plan.outages().is_empty());
        for o in plan.outages() {
            assert!(o.start < o.end, "{o:?}");
            assert!(o.end <= spec.outage_horizon + spec.outage_max_len);
            assert!(!plan.link_dead(o.u, o.v), "outage on dead link {o:?}");
            assert_eq!(o.capacity, 0, "unit links degrade to zero capacity");
        }
    }

    #[test]
    fn path_blocked_detects_interior_dead_links() {
        let g = mesh(4);
        let plan = FaultPlan::generate(
            &g,
            &FaultSpec {
                link_fail_rate: 0.3,
                ..FaultSpec::uniform(1, 0.0)
            },
        );
        let &(u, v) = plan
            .dead_links()
            .first()
            .expect("30% of 24 links: at least one dead");
        assert!(plan.path_blocked(&[u, v]));
        assert!(plan.path_blocked(&[v, u]));
        assert!(!plan.path_blocked(&[u]) || plan.node_dead(u));
    }
}
