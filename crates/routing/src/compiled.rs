//! Compile-once / run-many router artifacts.
//!
//! The synchronous router used to rebuild its directed-wire arrays and
//! re-derive every packet's next-hop wire (a per-hop binary search) on
//! *every* [`crate::engine::route_batch`] call — hundreds of times per
//! estimator grid point. This module splits that work into three reusable
//! artifacts:
//!
//! * [`CompiledNet`] — the machine's directed-wire CSR plus resolved
//!   per-node send capacities, compiled **once per machine** and shared
//!   (`Arc`) across every batch of a sweep;
//! * [`PacketBatch`] — a structure-of-arrays arena holding all paths of a
//!   batch flattened into one `path_nodes` vector, with each hop
//!   **pre-compiled to its wire id** so the tick loop never searches the
//!   adjacency again (the check degrades to a debug assertion);
//! * [`RouteError`] — the typed error produced when a path is not a walk of
//!   the host graph (replacing the engine's old `panic!` lookup failure).
//!
//! Compilation is pure bookkeeping: it draws no randomness and therefore
//! cannot perturb the engine's RNG stream. `route_compiled` is
//! bit-identical to the legacy per-call rebuild (pinned by
//! `tests/compiled_router.rs`).

use std::fmt;
use std::sync::Arc;

use fcn_faults::FaultPlan;
use fcn_multigraph::NodeId;
use fcn_topology::Machine;

use crate::packet::PacketPath;

/// A path that is not a walk of the compiled host graph.
///
/// Paths produced by [`crate::oracle::PathOracle`] and
/// [`crate::native::plan_routes`] are walks by construction, so this error
/// only surfaces for hand-built [`PacketPath`]s (ablations, tests, external
/// inputs) — which is why [`PacketBatch::compile`] returns it while the
/// planner-facing entry points panic instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// A path mentions a vertex the host does not have.
    NodeOutOfRange {
        /// Offending vertex id.
        node: NodeId,
        /// Host vertex count.
        nodes: usize,
        /// Index of the packet whose path is malformed.
        packet: usize,
    },
    /// Two consecutive path vertices are not joined by a wire (this includes
    /// self-hops `u -> u`: self-loops carry no traffic in the wire model).
    NoWire {
        /// Hop tail.
        from: NodeId,
        /// Hop head.
        to: NodeId,
        /// Index of the packet whose path is malformed.
        packet: usize,
    },
    /// No surviving route exists between a demand's endpoints once a
    /// [`fcn_faults::FaultPlan`]'s dead wires and nodes are removed — the
    /// fault-aware planner's typed "this demand is stranded" outcome
    /// (produced by [`crate::native::plan_routes_faulted`], never by an
    /// intact machine).
    Unreachable {
        /// Demand source.
        src: NodeId,
        /// Demand destination.
        dst: NodeId,
        /// Index of the demand that cannot be satisfied.
        packet: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RouteError::NodeOutOfRange {
                node,
                nodes,
                packet,
            } => write!(
                f,
                "packet {packet}: vertex {node} outside host (|V| = {nodes})"
            ),
            RouteError::NoWire { from, to, packet } => {
                write!(f, "packet {packet}: no wire {from} -> {to}")
            }
            RouteError::Unreachable { src, dst, packet } => {
                write!(
                    f,
                    "packet {packet}: {src} -> {dst} unreachable in the degraded host"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The machine's wire-level connectivity, compiled once and reused.
///
/// Wires are directed edges: an undirected link of multiplicity `m` is two
/// opposite wires of capacity `m` each. Wire ids are CSR positions —
/// `wire_offsets[u]..wire_offsets[u+1]` are node `u`'s out-wires, heads
/// ascending — so next-hop lookup during *batch compilation* is one binary
/// search over a short ascending slice, and the tick loop needs no lookup
/// at all. Self-loops are skipped (they move no packets).
///
/// ```
/// use fcn_routing::CompiledNet;
/// use fcn_topology::Machine;
///
/// let m = Machine::mesh(2, 4);
/// let net = CompiledNet::compile(&m);
/// assert_eq!(net.node_count(), 16);
/// assert!(net.wire_between(0, 1).is_some());
/// assert!(net.wire_between(0, 15).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNet {
    /// Vertex count.
    n: usize,
    /// `wire_offsets[u]..wire_offsets[u+1]` indexes `wire_to`/`wire_cap`.
    wire_offsets: Vec<u32>,
    /// Head vertex of each wire, ascending within a node's range.
    wire_to: Vec<NodeId>,
    /// Tail vertex of each wire (the node it departs from), so the tick
    /// loop can recover a packet's location from its wire id alone.
    wire_from: Vec<NodeId>,
    /// Per-tick capacity of each wire (the link multiplicity).
    wire_cap: Vec<u32>,
    /// Resolved per-node send budget (`u32::MAX` when unlimited).
    send_cap: Vec<u32>,
    /// True when every wire has capacity 1 and every node's send budget is
    /// unlimited — the common case (meshes, trees, hypercubic machines),
    /// which the engine serves with a budget-free fast path.
    unit: bool,
    /// Fault overlay compiled by [`CompiledNet::apply_faults`]. `None` for
    /// intact machines *and* for `apply_faults(&FaultPlan::none())` — the
    /// transparency pin: an empty plan leaves the net `==` the original.
    faults: Option<Box<FaultOverlay>>,
}

/// Per-wire fault state resolved against a [`CompiledNet`]'s wire ids.
///
/// Kept out-of-line (boxed, optional) so intact machines pay one pointer of
/// storage and one `None` branch on the engine's *budgeted* send path only
/// (the unit fast path never sees an overlay: faulted nets clear `unit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultOverlay {
    /// Permanently dead directed wires (both directions of a dead link).
    wire_dead: Vec<bool>,
    /// CSR of transient outage windows per wire: wire `w`'s windows are
    /// `win_offsets[w]..win_offsets[w+1]`.
    win_offsets: Vec<u32>,
    /// Window opening ticks (a wire's capacity drops from `start`...).
    win_start: Vec<u64>,
    /// Window closing ticks (...until just before `end`).
    win_end: Vec<u64>,
    /// Capacity during the window.
    win_cap: Vec<u32>,
    /// True when at least one wire is permanently dead (enables the
    /// engine's injection-time stranding scan).
    any_dead: bool,
    /// First tick by which every window has closed — beyond this the net
    /// behaves like its permanent part, which bounds router termination.
    last_window_end: u64,
    /// Dead directed wires (telemetry/reporting).
    dead_wires: u32,
    /// Dead nodes (telemetry/reporting).
    dead_nodes: u32,
}

impl CompiledNet {
    /// Compile `machine`'s wire arrays. Pure bookkeeping; no randomness.
    pub fn compile(machine: &Machine) -> CompiledNet {
        let g = machine.graph();
        let n = g.node_count();
        let mut wire_offsets = Vec::with_capacity(n + 1);
        let mut wire_to: Vec<NodeId> = Vec::new();
        let mut wire_from: Vec<NodeId> = Vec::new();
        let mut wire_cap: Vec<u32> = Vec::new();
        let mut send_cap = Vec::with_capacity(n);
        wire_offsets.push(0u32);
        for u in 0..n as NodeId {
            for (v, m) in g.neighbors(u) {
                if v != u {
                    wire_to.push(v);
                    wire_from.push(u);
                    wire_cap.push(m);
                }
            }
            wire_offsets.push(wire_to.len() as u32);
            send_cap.push(machine.send_capacity(u));
        }
        let unit = wire_cap.iter().all(|&c| c == 1) && send_cap.iter().all(|&b| b == u32::MAX);
        CompiledNet {
            n,
            wire_offsets,
            wire_to,
            wire_from,
            wire_cap,
            send_cap,
            unit,
            faults: None,
        }
    }

    /// Compile a [`FaultPlan`] into a faulted copy of this net.
    ///
    /// The wire CSR is **unchanged** — dead wires stay in the arrays,
    /// flagged in the overlay — so a [`PacketBatch`] compiled against the
    /// intact net remains valid against the faulted one (and vice versa).
    /// Dead nodes additionally get a zero send budget. The transparency
    /// pin: applying [`FaultPlan::none`] (or any empty plan) returns a net
    /// `==` to `self`, so empty plans are byte-invisible to the engine.
    pub fn apply_faults(&self, plan: &FaultPlan) -> CompiledNet {
        if plan.is_empty() {
            return self.clone();
        }
        let wires = self.wire_count();
        let mut wire_dead = vec![false; wires];
        let mut dead_wires = 0u32;
        for (w, dead) in wire_dead.iter_mut().enumerate() {
            if plan.link_dead(self.wire_from[w], self.wire_to[w]) {
                *dead = true;
                dead_wires += 1;
            }
        }
        // Resolve outages to directed wires, then CSR them by wire id.
        let mut events: Vec<(u32, u64, u64, u32)> = Vec::new();
        for o in plan.outages() {
            for (a, b) in [(o.u, o.v), (o.v, o.u)] {
                if let Some(w) = self.wire_between(a, b) {
                    events.push((w, o.start, o.end, o.capacity));
                }
            }
        }
        events.sort_unstable();
        let mut win_offsets = Vec::with_capacity(wires + 1);
        let mut win_start = Vec::with_capacity(events.len());
        let mut win_end = Vec::with_capacity(events.len());
        let mut win_cap = Vec::with_capacity(events.len());
        win_offsets.push(0u32);
        let mut cursor = 0usize;
        for w in 0..wires as u32 {
            while cursor < events.len() && events[cursor].0 == w {
                let (_, s, e, c) = events[cursor];
                win_start.push(s);
                win_end.push(e);
                win_cap.push(c);
                cursor += 1;
            }
            win_offsets.push(win_start.len() as u32);
        }
        let mut send_cap = self.send_cap.clone();
        let mut dead_nodes = 0u32;
        for &u in plan.dead_nodes() {
            if (u as usize) < send_cap.len() {
                send_cap[u as usize] = 0;
                dead_nodes += 1;
            }
        }
        if fcn_telemetry::global().enabled() {
            let windows = win_start.len() as u64;
            fcn_telemetry::with_shard(|s| {
                s.inc(fcn_telemetry::names::FAULT_PLANS_APPLIED_TOTAL);
                s.add(
                    fcn_telemetry::names::FAULT_DEAD_WIRES_TOTAL,
                    dead_wires as u64,
                );
                s.add(
                    fcn_telemetry::names::FAULT_DEAD_NODES_TOTAL,
                    dead_nodes as u64,
                );
                s.add(fcn_telemetry::names::FAULT_OUTAGE_WINDOWS_TOTAL, windows);
            });
        }
        let overlay = FaultOverlay {
            any_dead: dead_wires > 0,
            last_window_end: plan.last_outage_end(),
            wire_dead,
            win_offsets,
            win_start,
            win_end,
            win_cap,
            dead_wires,
            dead_nodes,
        };
        CompiledNet {
            send_cap,
            // Faulted nets always take the budgeted send path: transient
            // windows and zero send budgets need per-tick capacity checks.
            unit: false,
            faults: Some(Box::new(overlay)),
            ..self.clone()
        }
    }

    /// True when this net carries a fault overlay (non-empty plan applied).
    #[inline]
    pub fn is_faulted(&self) -> bool {
        self.faults.is_some()
    }

    /// True when at least one wire is permanently dead — the engine's cue
    /// to scan paths for stranded packets at injection time.
    #[inline]
    pub(crate) fn has_dead_wires(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.any_dead)
    }

    /// Is wire `w` permanently dead under the applied fault plan?
    #[inline]
    pub fn wire_dead(&self, w: u32) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.wire_dead[w as usize])
    }

    /// Per-tick capacity of wire `w` at tick `tick`, after fault gating:
    /// 0 for dead wires, the window capacity inside an outage window, and
    /// the static link multiplicity otherwise.
    #[inline]
    pub(crate) fn effective_wire_capacity(&self, w: u32, tick: u64) -> u32 {
        let base = self.wire_cap[w as usize];
        match &self.faults {
            None => base,
            Some(f) => {
                if f.wire_dead[w as usize] {
                    return 0;
                }
                let lo = f.win_offsets[w as usize] as usize;
                let hi = f.win_offsets[w as usize + 1] as usize;
                let mut cap = base;
                for i in lo..hi {
                    if f.win_start[i] <= tick && tick < f.win_end[i] {
                        cap = cap.min(f.win_cap[i]);
                    }
                }
                cap
            }
        }
    }

    /// Smallest outage-window boundary (a `start` or an `end`) of wire `w`
    /// that is strictly greater than `tick` — the next tick at which the
    /// wire's effective capacity *may* change. `None` when the capacity is
    /// constant from `tick` on: intact nets, permanently dead wires (stuck
    /// at 0), and wires whose windows have all closed. This is what lets
    /// the router's skip hook bound how far it may jump ahead: between
    /// consecutive boundaries `effective_wire_capacity` is constant.
    pub(crate) fn next_capacity_boundary(&self, w: u32, tick: u64) -> Option<u64> {
        let f = self.faults.as_ref()?;
        if f.wire_dead[w as usize] {
            return None;
        }
        let lo = f.win_offsets[w as usize] as usize;
        let hi = f.win_offsets[w as usize + 1] as usize;
        let mut next: Option<u64> = None;
        for i in lo..hi {
            for b in [f.win_start[i], f.win_end[i]] {
                if b > tick && next.is_none_or(|n| b < n) {
                    next = Some(b);
                }
            }
        }
        next
    }

    /// Every transient outage window as a `(start, end)` span, in wire-id
    /// order (a window on an undirected link appears once per direction).
    /// Empty for intact nets. The router's skip hook sorts these by `start`
    /// once per run to count windows that a skip jumped over entirely.
    pub(crate) fn outage_spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (starts, ends): (&[u64], &[u64]) = match &self.faults {
            None => (&[], &[]),
            Some(f) => (&f.win_start, &f.win_end),
        };
        starts.iter().copied().zip(ends.iter().copied())
    }

    /// `(dead nodes, dead directed wires, outage windows)` of the applied
    /// fault plan — all zeros for intact nets.
    pub fn fault_summary(&self) -> (u32, u32, usize) {
        match &self.faults {
            None => (0, 0, 0),
            Some(f) => (f.dead_nodes, f.dead_wires, f.win_start.len()),
        }
    }

    /// First tick by which every transient outage window has closed.
    pub fn last_fault_window_end(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.last_window_end)
    }

    /// [`CompiledNet::compile`] wrapped for sharing across sweep batches
    /// (and across [`fcn_exec::Pool`] workers — the net is plain data).
    pub fn shared(machine: &Machine) -> Arc<CompiledNet> {
        Arc::new(CompiledNet::compile(machine))
    }

    /// Vertex count.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Directed wire count.
    #[inline]
    pub fn wire_count(&self) -> usize {
        self.wire_to.len()
    }

    /// Node `u`'s out-wire range.
    #[inline]
    pub(crate) fn wire_range(&self, u: NodeId) -> (usize, usize) {
        (
            self.wire_offsets[u as usize] as usize,
            self.wire_offsets[u as usize + 1] as usize,
        )
    }

    /// Head vertex of wire `w`.
    #[inline]
    pub fn wire_head(&self, w: u32) -> NodeId {
        self.wire_to[w as usize]
    }

    /// Tail vertex of wire `w` (the node it departs from).
    #[inline]
    pub fn wire_tail(&self, w: u32) -> NodeId {
        self.wire_from[w as usize]
    }

    /// True when every wire has capacity 1 and every send budget is
    /// unlimited (enables the engine's budget-free send phase).
    #[inline]
    pub(crate) fn unit_capacity(&self) -> bool {
        self.unit
    }

    /// Per-tick capacity of wire `w`.
    #[inline]
    pub(crate) fn wire_capacity(&self, w: u32) -> u32 {
        self.wire_cap[w as usize]
    }

    /// Per-tick send budget of node `u`.
    #[inline]
    pub(crate) fn send_budget(&self, u: NodeId) -> u32 {
        self.send_cap[u as usize]
    }

    /// The wire `u -> v`, if the machine has one.
    #[inline]
    pub fn wire_between(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u as usize >= self.n {
            return None;
        }
        let (lo, hi) = self.wire_range(u);
        self.wire_to[lo..hi]
            .binary_search(&v)
            .ok()
            .map(|i| (lo + i) as u32)
    }
}

/// A batch of packets in structure-of-arrays form, pre-compiled against a
/// [`CompiledNet`].
///
/// All vertex sequences are flattened into `path_nodes` (packet `i` owns
/// `path_offsets[i]..path_offsets[i+1]`), and every hop is resolved to its
/// wire id at build time (`wire_ids`; packet `i`'s hops start at
/// `path_offsets[i] - i` because a `k`-vertex path has `k - 1` hops). The
/// tick loop therefore reads two flat arrays instead of chasing one heap
/// allocation per packet, and performs **zero** adjacency searches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketBatch {
    /// `path_offsets[i]..path_offsets[i+1]` indexes `path_nodes`.
    path_offsets: Vec<u32>,
    /// Concatenated vertex sequences.
    path_nodes: Vec<NodeId>,
    /// Concatenated per-hop wire ids (`hops(i)` entries per packet, starting
    /// at `path_offsets[i] - i`).
    wire_ids: Vec<u32>,
}

impl PacketBatch {
    /// Compile `paths` against `net`, resolving every hop to a wire id.
    ///
    /// Fails with a [`RouteError`] when some path is not a walk of the host
    /// graph; planner-produced paths are walks by construction.
    pub fn compile(net: &CompiledNet, paths: &[PacketPath]) -> Result<PacketBatch, RouteError> {
        let total_nodes: usize = paths.iter().map(|p| p.path.len()).sum();
        let mut batch = PacketBatch {
            path_offsets: Vec::with_capacity(paths.len() + 1),
            path_nodes: Vec::with_capacity(total_nodes),
            wire_ids: Vec::with_capacity(total_nodes.saturating_sub(paths.len())),
        };
        batch.path_offsets.push(0);
        for (packet, p) in paths.iter().enumerate() {
            batch.push_path(net, &p.path, packet)?;
        }
        Ok(batch)
    }

    /// Append one vertex sequence, compiling its hops. Exposed so planners
    /// can stream paths into an arena without an intermediate `Vec`.
    pub(crate) fn push_path(
        &mut self,
        net: &CompiledNet,
        path: &[NodeId],
        packet: usize,
    ) -> Result<(), RouteError> {
        debug_assert!(!path.is_empty(), "packet path cannot be empty");
        for win in path.windows(2) {
            let (u, v) = (win[0], win[1]);
            if u as usize >= net.node_count() || v as usize >= net.node_count() {
                let node = if u as usize >= net.node_count() { u } else { v };
                return Err(RouteError::NodeOutOfRange {
                    node,
                    nodes: net.node_count(),
                    packet,
                });
            }
            let w = net.wire_between(u, v).ok_or(RouteError::NoWire {
                from: u,
                to: v,
                packet,
            })?;
            self.wire_ids.push(w);
        }
        if path.len() == 1 && path[0] as usize >= net.node_count() {
            return Err(RouteError::NodeOutOfRange {
                node: path[0],
                nodes: net.node_count(),
                packet,
            });
        }
        self.path_nodes.extend_from_slice(path);
        self.path_offsets.push(self.path_nodes.len() as u32);
        Ok(())
    }

    /// Number of packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.path_offsets.len() - 1
    }

    /// True when the batch holds no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire traversals packet `i` needs.
    #[inline]
    pub fn hops(&self, i: usize) -> u32 {
        self.path_offsets[i + 1] - self.path_offsets[i] - 1
    }

    /// Start of packet `i`'s vertex range in the flat node arena.
    #[inline]
    pub(crate) fn node_base(&self, i: usize) -> u32 {
        self.path_offsets[i]
    }

    /// Start of packet `i`'s hop range in the flat wire arena.
    #[inline]
    pub(crate) fn wire_base(&self, i: usize) -> u32 {
        self.path_offsets[i] - i as u32
    }

    /// Vertex at position `pos` of packet `i`'s path.
    #[inline]
    pub(crate) fn node_at(&self, base: u32, pos: u32) -> NodeId {
        self.path_nodes[(base + pos) as usize]
    }

    /// Wire of hop `pos` of a packet with hop base `base`.
    #[inline]
    pub(crate) fn wire_at(&self, base: u32, pos: u32) -> u32 {
        self.wire_ids[(base + pos) as usize]
    }

    /// Wire id at flat arena index `idx` (the engine's per-packet cursor).
    #[inline]
    pub(crate) fn wire_flat(&self, idx: usize) -> u32 {
        self.wire_ids[idx]
    }

    /// Packet `i`'s vertex sequence.
    pub fn path(&self, i: usize) -> &[NodeId] {
        &self.path_nodes[self.path_offsets[i] as usize..self.path_offsets[i + 1] as usize]
    }

    /// Packet `i`'s compiled wire-id sequence.
    pub fn wires(&self, i: usize) -> &[u32] {
        let base = self.wire_base(i) as usize;
        &self.wire_ids[base..base + self.hops(i) as usize]
    }

    /// Total wire traversals across the batch.
    pub fn total_hops(&self) -> u64 {
        self.wire_ids.len() as u64
    }

    /// Reconstruct packet `i`'s vertex sequence from its *wire ids* alone
    /// (source vertex + wire heads). Compilation is lossless, so this
    /// round-trips the input path — pinned property-style by
    /// `tests/compiled_router.rs`.
    pub fn decode_path(&self, net: &CompiledNet, i: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.hops(i) as usize + 1);
        out.push(self.path(i)[0]);
        for &w in self.wires(i) {
            out.push(net.wire_head(w));
        }
        out
    }
}

/// Per-packet injection ticks for staggered (non-batch) workloads.
///
/// The paper's batch semantics inject every packet at tick 0; sparse and
/// bursty scenarios instead release packets over time. A schedule assigns
/// each packet of a [`PacketBatch`] an injection tick: the packet enters
/// its first wire queue at the *end* of that tick (tick-0 packets are
/// injected before the loop, exactly the batch semantics), so its first
/// possible crossing is the following tick, and a 0-hop packet delivers at
/// its injection tick. `route_compiled` takes an optional schedule and
/// skips the idle gaps between injections; `InjectionSchedule::uniform(n,
/// 0)` is bit-identical to passing no schedule at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionSchedule {
    /// Injection tick per packet id.
    inject_at: Vec<u64>,
    /// Packet ids sorted by `(inject_at, pid)` — the engine's injection
    /// order (pid order within a tick, matching tick-0 injection order).
    order: Vec<u32>,
}

impl InjectionSchedule {
    /// Schedule packet `i` at `inject_at[i]`.
    pub fn new(inject_at: Vec<u64>) -> InjectionSchedule {
        let mut order: Vec<u32> = (0..inject_at.len() as u32).collect();
        order.sort_by_key(|&pid| (inject_at[pid as usize], pid));
        InjectionSchedule { inject_at, order }
    }

    /// Every one of `n` packets at the same `tick` (`tick = 0` reproduces
    /// the batch semantics bit-for-bit).
    pub fn uniform(n: usize, tick: u64) -> InjectionSchedule {
        InjectionSchedule::new(vec![tick; n])
    }

    /// Packet count covered by the schedule (must equal the batch's).
    #[inline]
    pub fn len(&self) -> usize {
        self.inject_at.len()
    }

    /// True when the schedule covers no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inject_at.is_empty()
    }

    /// Injection tick of packet `pid`.
    #[inline]
    pub fn tick_of(&self, pid: usize) -> u64 {
        self.inject_at[pid]
    }

    /// Packet ids in injection order (`(tick, pid)` ascending).
    #[inline]
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Latest injection tick (0 when empty).
    pub fn max_tick(&self) -> u64 {
        self.inject_at.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketPath;
    use fcn_topology::Machine;

    #[test]
    fn schedule_orders_by_tick_then_pid() {
        let s = InjectionSchedule::new(vec![5, 0, 5, 2, 0]);
        assert_eq!(s.order(), &[1, 4, 3, 0, 2]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.max_tick(), 5);
        assert_eq!(s.tick_of(3), 2);
        let u = InjectionSchedule::uniform(3, 0);
        assert_eq!(u.order(), &[0, 1, 2]);
        assert_eq!(u.max_tick(), 0);
        assert!(InjectionSchedule::uniform(0, 9).is_empty());
    }

    #[test]
    fn next_capacity_boundary_walks_window_edges() {
        use fcn_faults::{FaultPlan, LinkOutage};
        let m = Machine::linear_array(3);
        let net = CompiledNet::compile(&m);
        assert_eq!(net.next_capacity_boundary(0, 0), None);
        let win = |start, end| LinkOutage {
            u: 0,
            v: 1,
            start,
            end,
            capacity: 0,
        };
        let plan = FaultPlan::assemble(vec![], vec![], vec![win(10, 20), win(40, 45)]);
        let faulted = net.apply_faults(&plan);
        let w = faulted.wire_between(0, 1).unwrap();
        assert_eq!(faulted.next_capacity_boundary(w, 0), Some(10));
        assert_eq!(faulted.next_capacity_boundary(w, 10), Some(20));
        assert_eq!(faulted.next_capacity_boundary(w, 20), Some(40));
        assert_eq!(faulted.next_capacity_boundary(w, 44), Some(45));
        assert_eq!(faulted.next_capacity_boundary(w, 45), None);
        // Unaffected wires have constant capacity.
        let other = faulted.wire_between(1, 2).unwrap();
        assert_eq!(faulted.next_capacity_boundary(other, 0), None);
        // Both directions of the link carry the window.
        assert_eq!(faulted.outage_spans().count(), 4);
        assert!(faulted.outage_spans().all(|(s, e)| s < e));
    }

    #[test]
    fn compiled_net_matches_graph_adjacency() {
        let m = Machine::mesh(2, 4);
        let net = CompiledNet::compile(&m);
        assert_eq!(net.node_count(), 16);
        for u in 0..16 as NodeId {
            for v in 0..16 as NodeId {
                let wire = net.wire_between(u, v);
                let edge = u != v && m.graph().has_edge(u, v);
                assert_eq!(wire.is_some(), edge, "{u}->{v}");
                if let Some(w) = wire {
                    assert_eq!(net.wire_head(w), v);
                    assert_eq!(net.wire_capacity(w), m.graph().multiplicity(u, v));
                }
            }
        }
    }

    #[test]
    fn multiplicity_becomes_wire_capacity() {
        use fcn_multigraph::Cut;
        use fcn_topology::{Family, SendCapacity};
        let g = fcn_multigraph::Multigraph::from_edges(2, [(0, 1)]).scaled(3);
        let m = Machine::custom(
            Family::LinearArray,
            "triple".into(),
            g,
            2,
            SendCapacity::Unlimited,
            vec![Cut::prefix(2, 1)],
        );
        let net = CompiledNet::compile(&m);
        let w = net.wire_between(0, 1).unwrap();
        assert_eq!(net.wire_capacity(w), 3);
        assert_eq!(net.wire_count(), 2);
    }

    #[test]
    fn send_budgets_are_resolved() {
        let bus = Machine::global_bus(4);
        let net = CompiledNet::compile(&bus);
        let hub = 4 as NodeId;
        assert_eq!(net.send_budget(hub), 1);
        let mesh = CompiledNet::compile(&Machine::mesh(2, 2));
        assert_eq!(net.node_count(), 5);
        assert_eq!(mesh.send_budget(0), u32::MAX);
    }

    #[test]
    fn batch_flattens_and_compiles_wires() {
        let m = Machine::linear_array(5);
        let net = CompiledNet::compile(&m);
        let paths = vec![
            PacketPath::new(vec![0, 1, 2, 3]),
            PacketPath::new(vec![2]),
            PacketPath::new(vec![4, 3]),
        ];
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!((batch.hops(0), batch.hops(1), batch.hops(2)), (3, 0, 1));
        assert_eq!(batch.total_hops(), 4);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(batch.path(i), &p.path[..]);
            assert_eq!(batch.decode_path(&net, i), p.path);
            assert_eq!(batch.wires(i).len(), p.hops());
        }
    }

    #[test]
    fn non_adjacent_hop_is_a_typed_error() {
        let m = Machine::linear_array(4);
        let net = CompiledNet::compile(&m);
        let err = PacketBatch::compile(&net, &[PacketPath::new(vec![0, 2])]).unwrap_err();
        assert_eq!(
            err,
            RouteError::NoWire {
                from: 0,
                to: 2,
                packet: 0
            }
        );
        assert!(err.to_string().contains("no wire 0 -> 2"));
    }

    #[test]
    fn self_hop_is_a_typed_error() {
        let m = Machine::linear_array(3);
        let net = CompiledNet::compile(&m);
        let err = PacketBatch::compile(&net, &[PacketPath::new(vec![1, 1])]).unwrap_err();
        assert!(matches!(err, RouteError::NoWire { from: 1, to: 1, .. }));
    }

    #[test]
    fn out_of_range_vertex_is_a_typed_error() {
        let m = Machine::linear_array(3);
        let net = CompiledNet::compile(&m);
        let err = PacketBatch::compile(&net, &[PacketPath::new(vec![1, 7])]).unwrap_err();
        assert!(matches!(err, RouteError::NodeOutOfRange { node: 7, .. }));
        let err = PacketBatch::compile(&net, &[PacketPath::new(vec![9])]).unwrap_err();
        assert!(matches!(err, RouteError::NodeOutOfRange { node: 9, .. }));
    }
}
