//! Compile-once / run-many router artifacts.
//!
//! The reference router ([`crate::engine::reference::route_batch`])
//! rebuilds its directed-wire arrays and re-derives every packet's next-hop
//! wire (a per-hop binary search) on every call. This module splits that
//! work into reusable artifacts:
//!
//! * [`CompiledNet`] — the machine's directed-wire CSR plus resolved
//!   per-node send capacities, compiled **once per machine** and shared
//!   (`Arc`) across every batch of a sweep;
//! * [`PacketBatch`] — a batch's routes as flat runs of **wire ids**, each
//!   hop resolved once, so the tick loop never searches the adjacency. The
//!   wire ids are the batch's only copy of its routes:
//!   [`PacketBatch::decode_path`] recovers any packet's vertices from them;
//! * [`RouteError`] — the typed error produced when a path is not a walk of
//!   the host graph.
//!
//! Planners write wire ids, not vertex paths. Each planner job walks a
//! route into a reused vertex buffer and appends its hops, resolved by
//! [`CompiledNet::wire_between`], to the job's own arena (`Runs`); a
//! trial's arenas are indexed by demand (`Routes`) and copied into each
//! cell's batch in demand order. [`PacketBatch::compile`] writes
//! hand-built [`PacketPath`]s into a batch, checking every hop.
//!
//! Compilation is pure bookkeeping: it draws no randomness and therefore
//! cannot perturb the engine's RNG stream. `route_compiled` is
//! bit-identical to the reference engine (pinned by
//! `tests/compiled_router.rs`).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use fcn_faults::FaultPlan;
use fcn_multigraph::{Multigraph, NodeId};
use fcn_topology::Machine;

use crate::packet::PacketPath;

/// A path that is not a walk of the compiled host graph.
///
/// Routes written by [`crate::oracle::PathOracle`] and
/// [`crate::native::plan_trial`] are walks by construction, so this error
/// only surfaces for hand-built [`PacketPath`]s (ablations, tests, external
/// inputs) — which is why [`PacketBatch::compile`] returns it while the
/// planners panic instead.
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
    /// A path with no vertex at all (`PacketPath::path` is a public
    /// field, so `PacketPath::new`'s check can be bypassed).
    EmptyPath {
        /// Index of the packet whose path is empty.
        packet: usize,
    },
    /// An arena grew past what its `u32` offsets can index: a net with
    /// more directed wires or outage windows, or a batch with more packets
    /// or hops, than `u32::MAX`.
    OffsetOverflow {
        /// Arena length that did not fit.
        len: usize,
    },
}

/// `len` as a `u32` arena offset, or [`RouteError::OffsetOverflow`] — the
/// one conversion every CSR offset goes through, so no offset wraps.
pub(crate) fn offset(len: usize) -> Result<u32, RouteError> {
    u32::try_from(len).map_err(|_| RouteError::OffsetOverflow { len })
}

/// Check that `packets` packets fit the router's `u32` packet ids: its
/// queues store `pid as u32` (packed as `key << 32 | pid` under priority
/// disciplines), so a batch holds at most `u32::MAX` packets.
pub(crate) fn packet_ids(packets: usize) -> Result<u32, RouteError> {
    offset(packets)
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
            RouteError::EmptyPath { packet } => write!(f, "packet {packet}: empty path"),
            RouteError::OffsetOverflow { len } => {
                write!(f, "arena of {len} entries overflows its u32 offsets")
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
}

impl CompiledNet {
    /// Compile `machine`'s wire arrays. Pure bookkeeping; no randomness.
    ///
    /// # Panics
    /// Panics with [`RouteError::OffsetOverflow`] when the machine has more
    /// than `u32::MAX` directed wires.
    pub fn compile(machine: &Machine) -> CompiledNet {
        let n = machine.graph().node_count() as NodeId;
        let send_cap = (0..n).map(|u| machine.send_capacity(u)).collect();
        CompiledNet::with_send_caps(machine.graph(), send_cap, machine.name())
    }

    /// The wires of a bare graph, every send budget unlimited: what a
    /// [`crate::oracle::PathOracle`] writes its routes against.
    pub(crate) fn of_graph(g: &Multigraph) -> CompiledNet {
        CompiledNet::with_send_caps(g, vec![u32::MAX; g.node_count()], "graph")
    }

    fn with_send_caps(g: &Multigraph, send_cap: Vec<u32>, name: &str) -> CompiledNet {
        let n = g.node_count();
        let mut wire_offsets = Vec::with_capacity(n + 1);
        let mut wire_to: Vec<NodeId> = Vec::new();
        let mut wire_from: Vec<NodeId> = Vec::new();
        let mut wire_cap: Vec<u32> = Vec::new();
        wire_offsets.push(0u32);
        #[expect(clippy::panic, reason = "documented panic: wire ids are u32 by design")]
        for u in 0..n as NodeId {
            for (v, m) in g.neighbors(u) {
                if v != u {
                    wire_to.push(v);
                    wire_from.push(u);
                    wire_cap.push(m);
                }
            }
            wire_offsets.push(offset(wire_to.len()).unwrap_or_else(|e| panic!("{name}: {e}")));
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
    ///
    /// # Panics
    /// Panics with [`RouteError::OffsetOverflow`] when the plan's outages
    /// resolve to more than `u32::MAX` windows.
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
        #[expect(
            clippy::panic,
            reason = "documented panic: window offsets are u32 by design"
        )]
        for w in 0..wires as u32 {
            while cursor < events.len() && events[cursor].0 == w {
                let (_, s, e, c) = events[cursor];
                win_start.push(s);
                win_end.push(e);
                win_cap.push(c);
                cursor += 1;
            }
            win_offsets
                .push(offset(win_start.len()).unwrap_or_else(|e| panic!("fault overlay: {e}")));
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
            wire_dead,
            win_offsets,
            win_start,
            win_end,
            win_cap,
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

    /// The vertices of a route leaving `src` over `wires`: `src`, then
    /// every wire's head.
    pub(crate) fn walk_of(&self, src: NodeId, wires: &[u32]) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(wires.len() + 1);
        out.push(src);
        out.extend(wires.iter().map(|&w| self.wire_head(w)));
        out
    }
}

/// A batch of packets pre-compiled against a [`CompiledNet`]: every route
/// is a run of wire ids.
///
/// Packet `i`'s hops are `wire_ids[hop_offsets[i]..hop_offsets[i+1]]`. The
/// tick loop reads these two flat arrays and performs **zero** adjacency
/// searches. A packet's vertices are the tail of its first wire followed by
/// the head of every wire ([`PacketBatch::decode_path`]); only packets that
/// are already at their destination keep their one vertex apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketBatch {
    /// `hop_offsets[i]..hop_offsets[i+1]` indexes `wire_ids`.
    hop_offsets: Vec<u32>,
    /// Concatenated per-hop wire ids.
    wire_ids: Vec<u32>,
    /// `(packet, vertex)` of every zero-hop packet, ascending by packet.
    resting: Vec<(u32, NodeId)>,
}

impl PacketBatch {
    /// Compile `paths` against `net`, resolving every hop to a wire id.
    ///
    /// Fails with a [`RouteError`] when some path is not a walk of the host
    /// graph (planner-produced paths are walks by construction), and with
    /// [`RouteError::OffsetOverflow`] when the batch holds more than
    /// `u32::MAX` packets or hops.
    pub fn compile(net: &CompiledNet, paths: &[PacketPath]) -> Result<PacketBatch, RouteError> {
        packet_ids(paths.len())?;
        let total_hops: usize = paths.iter().map(|p| p.path.len().saturating_sub(1)).sum();
        let mut batch = PacketBatch::with_capacity(paths.len(), total_hops);
        let n = net.node_count();
        for (packet, p) in paths.iter().enumerate() {
            let out_of_range = |node: NodeId| RouteError::NodeOutOfRange {
                node,
                nodes: n,
                packet,
            };
            if p.path.is_empty() {
                return Err(RouteError::EmptyPath { packet });
            }
            if let [only] = p.path[..] {
                if only as usize >= n {
                    return Err(out_of_range(only));
                }
                batch.resting.push((packet as u32, only));
            }
            for win in p.path.windows(2) {
                let (u, v) = (win[0], win[1]);
                if u as usize >= n || v as usize >= n {
                    return Err(out_of_range(if u as usize >= n { u } else { v }));
                }
                let w = net.wire_between(u, v).ok_or(RouteError::NoWire {
                    from: u,
                    to: v,
                    packet,
                })?;
                batch.wire_ids.push(w);
            }
            batch.hop_offsets.push(offset(batch.wire_ids.len())?);
        }
        Ok(batch)
    }

    /// An empty batch with room for `packets` packets and `hops` wire ids.
    fn with_capacity(packets: usize, hops: usize) -> PacketBatch {
        let mut hop_offsets = Vec::with_capacity(packets + 1);
        hop_offsets.push(0);
        PacketBatch {
            hop_offsets,
            wire_ids: Vec::with_capacity(hops),
            resting: Vec::new(),
        }
    }

    /// Number of packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.hop_offsets.len() - 1
    }

    /// True when the batch holds no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire traversals packet `i` needs.
    #[inline]
    pub fn hops(&self, i: usize) -> u32 {
        self.hop_offsets[i + 1] - self.hop_offsets[i]
    }

    /// Start of packet `i`'s hop range in the flat wire arena.
    #[inline]
    pub(crate) fn wire_base(&self, i: usize) -> u32 {
        self.hop_offsets[i]
    }

    /// Wire id at flat arena index `idx` (the engine's per-packet cursor).
    #[inline]
    pub(crate) fn wire_flat(&self, idx: usize) -> u32 {
        self.wire_ids[idx]
    }

    /// Packet `i`'s compiled wire-id sequence.
    pub fn wires(&self, i: usize) -> &[u32] {
        &self.wire_ids[self.hop_offsets[i] as usize..self.hop_offsets[i + 1] as usize]
    }

    /// Total wire traversals across the batch.
    pub fn total_hops(&self) -> u64 {
        self.wire_ids.len() as u64
    }

    /// Packet `i`'s vertex sequence, decoded from its wire ids (source
    /// vertex + wire heads). Compilation is lossless, so this round-trips
    /// the input path — pinned property-style by `tests/compiled_router.rs`.
    pub fn decode_path(&self, net: &CompiledNet, i: usize) -> Vec<NodeId> {
        let wires = self.wires(i);
        let src = match wires.first() {
            Some(&first) => net.wire_tail(first),
            None => self.resting[self.resting.partition_point(|&(p, _)| (p as usize) < i)].1,
        };
        net.walk_of(src, wires)
    }
}

/// Routes written by one planner job, in the order it planned them: the
/// job's wire ids in one arena, and per route the index of the demand it
/// serves with its range in the arena (`None`: the demand got no route).
#[derive(Debug, Default)]
pub(crate) struct Runs {
    wires: Vec<u32>,
    routes: Vec<(usize, Option<(u32, u32)>)>,
}

impl Runs {
    /// Room for `routes` routes of `wires` wire ids in all.
    pub(crate) fn with_capacity(routes: usize, wires: usize) -> Runs {
        Runs {
            wires: Vec::with_capacity(wires),
            routes: Vec::with_capacity(routes),
        }
    }

    /// Write the vertex walk `walk` (at least its source) as the route of
    /// demand `demand`, each hop resolved by [`CompiledNet::wire_between`].
    ///
    /// # Panics
    /// When two consecutive vertices share no wire, or the arena outgrows
    /// its `u32` offsets: planners emit walks of the net they write against,
    /// so either is a planner bug.
    pub(crate) fn push_walk(&mut self, net: &CompiledNet, demand: usize, walk: &[NodeId]) {
        let start = self.wires.len();
        for hop in walk.windows(2) {
            let wire = net.wire_between(hop[0], hop[1]);
            #[expect(
                clippy::panic,
                reason = "documented panic: planners emit walks; `PacketBatch::compile` covers untrusted paths"
            )]
            let wire = wire.unwrap_or_else(|| {
                let (from, to) = (hop[0], hop[1]);
                let e = RouteError::NoWire {
                    from,
                    to,
                    packet: demand,
                };
                panic!("planner produced unroutable path: {e}")
            });
            self.wires.push(wire);
        }
        self.close(demand, start);
    }

    /// Write the concatenation of `legs` as the route of demand `demand`.
    pub(crate) fn push_joined(&mut self, demand: usize, legs: [&[u32]; 2]) {
        let start = self.wires.len();
        for leg in legs {
            self.wires.extend_from_slice(leg);
        }
        self.close(demand, start);
    }

    /// Record that demand `demand` has no route.
    pub(crate) fn push_none(&mut self, demand: usize) {
        self.routes.push((demand, None));
    }

    /// Record that demand `demand`'s route is `wires[start..]`.
    fn close(&mut self, demand: usize, start: usize) {
        #[expect(
            clippy::panic,
            reason = "documented panic: a trial's wire ids are u32 by design"
        )]
        let end = offset(self.wires.len()).unwrap_or_else(|e| panic!("planner arena: {e}"));
        // `start <= end`, so it fits `u32` too.
        self.routes.push((demand, Some((start as u32, end))));
    }
}

/// The routes of a list of demands, as planner jobs wrote them: the jobs'
/// arenas, and per demand the arena and range that hold its route.
#[derive(Debug)]
pub(crate) struct Routes {
    arenas: Vec<Vec<u32>>,
    at: Vec<Option<(u32, u32, u32)>>,
}

impl Routes {
    /// Index the routes `jobs` wrote for `demands` demands; a demand no job
    /// wrote has no route.
    pub(crate) fn new(jobs: Vec<Runs>, demands: usize) -> Routes {
        let mut routes = Routes {
            arenas: Vec::with_capacity(jobs.len()),
            at: vec![None; demands],
        };
        for job in jobs {
            routes.add(job, |i| i);
        }
        routes
    }

    /// Take in the routes of one more job, whose route `i` serves demand
    /// `demand(i)`, replacing what those demands had.
    pub(crate) fn add(&mut self, job: Runs, demand: impl Fn(usize) -> usize) {
        let arena = self.arenas.len() as u32;
        for (i, range) in job.routes {
            self.at[demand(i)] = range.map(|(start, end)| (arena, start, end));
        }
        self.arenas.push(job.wires);
    }

    /// Demand `i`'s route, or `None` when it has none.
    pub(crate) fn route(&self, i: usize) -> Option<&[u32]> {
        let (arena, start, end) = self.at[i]?;
        Some(&self.arenas[arena as usize][start as usize..end as usize])
    }

    /// Drop demand `i`'s route.
    pub(crate) fn clear(&mut self, i: usize) {
        self.at[i] = None;
    }

    /// The batch of demands `cell`, in demand order, demand `i`'s route
    /// leaving `src(i)`. A demand with no route is left out and handed to
    /// `missing`. Routes that lie back to back in one arena — a demand range
    /// planned by one job — are copied with one call. Fails with
    /// [`RouteError::OffsetOverflow`] when the batch outgrows its `u32`
    /// packet ids or hop offsets.
    pub(crate) fn batch(
        &self,
        cell: Range<usize>,
        src: impl Fn(usize) -> NodeId,
        mut missing: impl FnMut(usize),
    ) -> Result<PacketBatch, RouteError> {
        let routed = self.at[cell.clone()].iter().flatten();
        let hops = routed.map(|&(_, start, end)| (end - start) as usize).sum();
        let mut batch = PacketBatch::with_capacity(cell.len(), hops);
        // Wire ids placed so far; the last `end - start` of them are
        // `arenas[arena][start..end]`, not yet copied.
        let mut placed = 0;
        let (mut arena, mut start, mut end) = (0, 0, 0);
        for i in cell {
            let Some((a, s, e)) = self.at[i] else {
                missing(i);
                continue;
            };
            let packet = packet_ids(batch.len())?;
            if s == e {
                batch.resting.push((packet, src(i)));
            }
            if (a, s) != (arena, end) {
                self.copy(&mut batch, arena, start..end);
                (arena, start) = (a, s);
            }
            end = e;
            placed += (e - s) as usize;
            batch.hop_offsets.push(offset(placed)?);
        }
        self.copy(&mut batch, arena, start..end);
        Ok(batch)
    }

    /// Append `arenas[arena][range]` to `batch`'s wire ids.
    fn copy(&self, batch: &mut PacketBatch, arena: u32, range: Range<u32>) {
        if !range.is_empty() {
            let range = range.start as usize..range.end as usize;
            batch
                .wire_ids
                .extend_from_slice(&self.arenas[arena as usize][range]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketPath;
    use fcn_topology::Machine;

    #[test]
    fn offsets_are_checked_at_the_u32_boundary() {
        assert_eq!(offset(0), Ok(0));
        assert_eq!(offset(u32::MAX as usize), Ok(u32::MAX));
        let over = u32::MAX as usize + 1;
        let err = offset(over).expect_err("u32::MAX + 1 must not wrap to 0");
        assert_eq!(err, RouteError::OffsetOverflow { len: over });
        assert_eq!(
            err.to_string(),
            "arena of 4294967296 entries overflows its u32 offsets"
        );
    }

    #[test]
    fn packet_ids_are_checked_at_the_u32_boundary() {
        assert_eq!(packet_ids(u32::MAX as usize), Ok(u32::MAX));
        let over = u32::MAX as usize + 1;
        assert_eq!(
            packet_ids(over),
            Err(RouteError::OffsetOverflow { len: over }),
            "a batch of u32::MAX + 1 packets must be refused, not wrap pid 0"
        );
        let net = CompiledNet::compile(&Machine::mesh(2, 2));
        let batch = PacketBatch::compile(&net, &[PacketPath::new(vec![0, 1])]);
        assert_eq!(batch.map(|b| b.len()), Ok(1));
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

    #[test]
    fn empty_path_is_a_typed_error() {
        // A zero-hop packet's vertex is what `decode_path` returns, so a
        // path with no vertex must not compile.
        let net = CompiledNet::compile(&Machine::linear_array(3));
        let paths = [PacketPath::new(vec![1]), PacketPath { path: vec![] }];
        let err = PacketBatch::compile(&net, &paths).unwrap_err();
        assert_eq!(err, RouteError::EmptyPath { packet: 1 });
        assert_eq!(err.to_string(), "packet 1: empty path");
    }
}
