//! The synchronous store-and-forward router.
//!
//! Model (exactly the paper's): time proceeds in unit ticks; each *wire*
//! (directed edge; an undirected link of multiplicity `m` is two opposite
//! wires of capacity `m`) moves at most `m` packets per tick; packets queue
//! at wires; a packet forwarded at tick `t` becomes available at the next
//! vertex at tick `t+1`. "Weak" machines additionally cap the total packets
//! a *node* may transmit per tick ([`fcn_topology::SendCapacity::PerNode`]),
//! which is how the global bus (hub capacity 1) and the weak hypercube (one
//! wire per node per tick) are expressed.
//!
//! The queue discipline resolves contention; `RandomRank` mirrors the
//! random-priority scheduling of the universal O(congestion + dilation)
//! routing result the paper's Theorem 6 invokes.
//!
//! ## Compile / run split
//!
//! The one run-a-batch kernel is [`route_compiled`]: it runs a pre-compiled
//! [`PacketBatch`] over a shared [`CompiledNet`] using a caller-owned
//! [`RouterScratch`], so a sweep performs O(1) allocations per batch and
//! the tick loop touches only flat arrays (no per-hop adjacency search —
//! hops were resolved to wire ids at batch-compile time).
//! [`route_compiled_pooled`] runs it on the calling thread's scratch.
//! Demands are planned and routed in one call by
//! [`crate::RouteCtx::route_demands`]. [`reference`](mod@reference)
//! retains the original single-function simulator as the executable
//! specification the compiled path is pinned against
//! (`tests/compiled_router.rs`).
//!
//! Determinism: for a given `(batch, RouterConfig)` the compiled and
//! reference engines draw the same `StdRng` stream (one `u32` rank per
//! packet, in packet order) and pop queues in the same order, so every
//! outcome field — ticks, delivered, max queue, hop count — is
//! bit-identical.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

use fcn_multigraph::NodeId;
use fcn_telemetry::LocalHistogram;
use fcn_topology::Machine;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::compiled::{packet_ids, CompiledNet, PacketBatch, RouteError};
use crate::packet::{PacketPath, QueueDiscipline};

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Contention-resolution discipline for wire queues.
    pub discipline: QueueDiscipline,
    /// Seed for random ranks.
    pub seed: u64,
    /// Safety valve: abort after this many ticks.
    pub max_ticks: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            discipline: QueueDiscipline::RandomRank,
            seed: 0x5eed,
            max_ticks: 4_000_000,
        }
    }
}

/// Why a routing run ended — every run terminates with exactly one of
/// these (the router never silently spins: permanently-blocked packets are
/// stranded at injection, transient outage windows are finite, and
/// `max_ticks`/cancellation are hard stops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortCause {
    /// Every packet was delivered.
    Completed,
    /// The `max_ticks` safety valve fired with routable packets in flight.
    MaxTicks,
    /// Every *routable* packet was delivered, but some packets' paths
    /// crossed permanently dead wires and could never be injected.
    Stranded,
    /// A caller-supplied cancellation flag (watchdog, Ctrl-C) was raised.
    Cancelled,
}

impl std::fmt::Display for AbortCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AbortCause::Completed => "completed",
            AbortCause::MaxTicks => "max-ticks",
            AbortCause::Stranded => "stranded",
            AbortCause::Cancelled => "cancelled",
        })
    }
}

/// Result of routing one batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutingOutcome {
    /// Ticks until the last delivery (0 if every packet was trivial).
    pub ticks: u64,
    /// Packets delivered.
    pub delivered: usize,
    /// Packets injected.
    pub total: usize,
    /// False iff `max_ticks` was hit first.
    pub completed: bool,
    /// Peak queue length observed on any single wire.
    pub max_queue: usize,
    /// Total wire traversals performed.
    pub total_hops: u64,
    /// Packets never injected because their path crosses a permanently
    /// dead wire (always 0 on intact machines).
    pub stranded: usize,
    /// Why the run ended.
    pub abort: AbortCause,
}

impl RoutingOutcome {
    /// Average delivery rate `m / r(m)` — the operational bandwidth sample.
    pub fn rate(&self) -> f64 {
        self.delivered as f64 / self.ticks.max(1) as f64
    }
}

/// Reusable per-worker simulation arenas.
///
/// Holds the per-wire queues (both the FIFO and the priority pools, so one
/// scratch serves every [`QueueDiscipline`]), the per-node activity arrays,
/// and the per-packet position/rank columns. Everything is length-adjusted
/// and cleared at the start of a run, so a scratch can be reused across
/// batches, machines, and disciplines; after warm-up a sweep allocates
/// nothing per batch. [`route_compiled_pooled`] keeps one scratch per
/// thread, which is how [`fcn_exec::Pool`] workers reuse arenas across the
/// cells they execute.
#[derive(Debug, Default)]
pub struct RouterScratch {
    /// FIFO wire queues (one per wire; used by `QueueDiscipline::Fifo`).
    fifo: Vec<VecDeque<u32>>,
    /// Priority wire queues. Entries pack `(key, pid)` into one `u64`
    /// (`key << 32 | pid`), whose ordering coincides with the lexicographic
    /// `(key, pid)` order of the reference engine's tuple heap. Stored
    /// *unsorted*; pop scans for the minimum — wire queues average a couple
    /// of entries, where one vectorizable scan beats heap sifting and the
    /// pop order is the same min-of-set either way.
    prio: Vec<Vec<u64>>,
    /// Nodes with at least one queued packet, in first-activation order.
    active_nodes: Vec<NodeId>,
    /// Queued packets per node (across all of its out-wires).
    node_queued: Vec<u32>,
    /// Membership flags for `active_nodes`.
    node_listed: Vec<bool>,
    /// Rotating start wire per node (fairness under tight budgets), kept
    /// reduced modulo the node's degree.
    rotate: Vec<u32>,
    /// Packets that crossed a wire this tick.
    arrivals: Vec<u32>,
    /// Per-packet hops left to the destination (replaces the reference
    /// engine's `pos`: `remaining = hops - pos`).
    remaining: Vec<u32>,
    /// Per-packet flat index of the *next* wire id in the batch arena, so
    /// an arrival reads exactly one `wire_ids` slot and one wire-tail slot
    /// — no path-offset or vertex-array lookups in the tick loop.
    cursor: Vec<u32>,
    /// Per-packet random rank (`RandomRank` key).
    rank: Vec<u32>,
    /// Runs served by this scratch (telemetry: pool-reuse accounting; the
    /// first run of a scratch counts as a creation, later runs as reuse).
    runs: u64,
}

impl RouterScratch {
    /// A fresh, empty scratch. Arenas grow on first use and are retained.
    pub fn new() -> Self {
        RouterScratch::default()
    }

    /// Size the node/packet arenas for a run and reset their contents.
    fn prepare(&mut self, nodes: usize, packets: usize) {
        self.active_nodes.clear();
        self.arrivals.clear();
        self.node_queued.clear();
        self.node_queued.resize(nodes, 0);
        self.node_listed.clear();
        self.node_listed.resize(nodes, false);
        self.rotate.clear();
        self.rotate.resize(nodes, 0);
        self.remaining.clear();
        self.remaining.resize(packets, 0);
        self.cursor.clear();
        self.cursor.resize(packets, 0);
        self.rank.clear();
        self.rank.reserve(packets);
        self.runs += 1;
    }
}

/// Per-run telemetry accumulators, allocated only when the global registry
/// is enabled. Everything in here is a pure *observation* of simulation
/// state — the tick loop never reads it back, so telemetry cannot change a
/// routed bit.
#[derive(Debug, Default)]
struct RunTele {
    /// Per-tick queued-packet count (queue occupancy at tick start).
    occupancy: LocalHistogram,
    /// Packet-ticks spent waiting: packets that sat in a wire queue over a
    /// tick without crossing (occupancy minus that tick's crossings).
    stalled: u64,
    /// Wire-visits whose capacity was reduced by a fault (dead wire or an
    /// open outage window) during the send phase.
    faults_gated: u64,
}

/// Uniform view over the per-wire queue pool of one discipline, so the tick
/// loop monomorphizes per discipline instead of branching on an enum at
/// every queue operation.
trait WireQueues {
    /// Enqueue `pid` with `key` on wire `w` and return the queue's new
    /// length (so max-queue tracking costs no second indexed access).
    fn push(&mut self, w: usize, key: u32, pid: u32) -> usize;
    fn pop(&mut self, w: usize) -> Option<u32>;
    fn is_empty(&self, w: usize) -> bool;
}

struct FifoQueues<'a>(&'a mut [VecDeque<u32>]);

impl WireQueues for FifoQueues<'_> {
    #[inline]
    fn push(&mut self, w: usize, _key: u32, pid: u32) -> usize {
        let q = &mut self.0[w];
        q.push_back(pid);
        q.len()
    }
    #[inline]
    fn pop(&mut self, w: usize) -> Option<u32> {
        self.0[w].pop_front()
    }
    #[inline]
    fn is_empty(&self, w: usize) -> bool {
        self.0[w].is_empty()
    }
}

/// Unsorted priority pool: pop extracts the minimum packed `(key, pid)` by
/// linear scan + `swap_remove`. Packed values are distinct (the pid half is
/// unique), so the minimum — and therefore the pop sequence — is exactly
/// the reference engine's heap order, independent of internal layout.
struct PrioQueues<'a>(&'a mut [Vec<u64>]);

impl WireQueues for PrioQueues<'_> {
    #[inline]
    fn push(&mut self, w: usize, key: u32, pid: u32) -> usize {
        let q = &mut self.0[w];
        q.push(((key as u64) << 32) | pid as u64);
        q.len()
    }
    #[inline]
    fn pop(&mut self, w: usize) -> Option<u32> {
        let q = &mut self.0[w];
        if q.is_empty() {
            return None;
        }
        let mut best = 0usize;
        let mut min = q[0];
        for (i, &v) in q.iter().enumerate().skip(1) {
            if v < min {
                min = v;
                best = i;
            }
        }
        q.swap_remove(best);
        Some(min as u32)
    }
    #[inline]
    fn is_empty(&self, w: usize) -> bool {
        self.0[w].is_empty()
    }
}

/// Route a pre-compiled batch over a compiled net, reusing `scratch`.
///
/// This is the one run-a-batch kernel: zero allocations after scratch
/// warm-up and no adjacency lookups in the tick loop (hops are pre-resolved
/// wire ids; consistency degrades to debug assertions). Every packet is
/// injected at tick 0 — the paper's batch semantics — and every tick is
/// simulated. Outcomes are bit-identical to [`reference::route_batch`] for
/// every `(batch, config)` on intact machines.
///
/// `cancel` is polled once per tick (one relaxed load). A raised flag stops
/// the run at the last simulated tick with [`AbortCause::Cancelled`] — the
/// graceful-stop hook used by `fcn_exec::Watchdog`. A flag that is never
/// raised is byte-identical to `None`.
pub fn route_compiled(
    net: &CompiledNet,
    batch: &PacketBatch,
    cfg: RouterConfig,
    scratch: &mut RouterScratch,
    cancel: Option<&AtomicBool>,
) -> RoutingOutcome {
    scratch.prepare(net.node_count(), batch.len());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..batch.len() {
        scratch.rank.push(rng.random::<u32>());
    }
    // One enabled-check per *run* decides whether per-tick accumulators
    // exist at all; the disabled path costs a `None` branch per tick.
    let mut tele = if fcn_telemetry::global().enabled() {
        Some(RunTele::default())
    } else {
        None
    };
    // Monomorphize the tick loop on the capacity regime and discipline.
    let unit = net.unit_capacity();
    macro_rules! run {
        ($queues:expr, $disc:ident) => {
            if unit {
                run_ticks::<_, true, $disc>(
                    net,
                    batch,
                    cfg,
                    $queues,
                    scratch,
                    tele.as_mut(),
                    cancel,
                )
            } else {
                run_ticks::<_, false, $disc>(
                    net,
                    batch,
                    cfg,
                    $queues,
                    scratch,
                    tele.as_mut(),
                    cancel,
                )
            }
        };
    }
    let out = match cfg.discipline {
        QueueDiscipline::Fifo => {
            let mut pool = std::mem::take(&mut scratch.fifo);
            grow_and_clear(&mut pool, net.wire_count(), VecDeque::new);
            let out = run!(&mut FifoQueues(&mut pool), DISC_FIFO);
            scratch.fifo = pool;
            out
        }
        discipline => {
            let mut pool = std::mem::take(&mut scratch.prio);
            grow_and_clear(&mut pool, net.wire_count(), Vec::new);
            let queues = &mut PrioQueues(&mut pool);
            let out = if discipline == QueueDiscipline::FarthestFirst {
                run!(queues, DISC_FARTHEST)
            } else {
                run!(queues, DISC_RANDOM)
            };
            scratch.prio = pool;
            out
        }
    };
    if let Some(t) = tele {
        publish_run(&out, &t, scratch.runs);
    }
    out
}

/// Push one run's router metrics into this thread's telemetry shard.
/// Called only when the registry is enabled at run start. `scratch_runs`
/// (the run's own included) feeds the scratch-pool reuse counters.
fn publish_run(out: &RoutingOutcome, tele: &RunTele, scratch_runs: u64) {
    fcn_telemetry::with_shard(|s| {
        s.inc(fcn_telemetry::names::ROUTER_RUNS_TOTAL);
        s.add(fcn_telemetry::names::ROUTER_TICKS_TOTAL, out.ticks);
        s.add(
            fcn_telemetry::names::ROUTER_DELIVERED_TOTAL,
            out.delivered as u64,
        );
        s.add(fcn_telemetry::names::ROUTER_PACKETS_TOTAL, out.total as u64);
        s.add(fcn_telemetry::names::ROUTER_HOPS_TOTAL, out.total_hops);
        s.add(
            fcn_telemetry::names::ROUTER_STALLED_PACKET_TICKS_TOTAL,
            tele.stalled,
        );
        if !out.completed {
            s.inc(fcn_telemetry::names::ROUTER_ABORTS_TOTAL);
        }
        // Per-cause abort accounting (`fcnemu beta --verbose` surfaces
        // these so max_ticks aborts never fold silently into a rate).
        match out.abort {
            AbortCause::Completed => {}
            AbortCause::MaxTicks => s.inc(fcn_telemetry::names::ROUTER_ABORT_MAX_TICKS_TOTAL),
            AbortCause::Stranded => s.inc(fcn_telemetry::names::ROUTER_ABORT_STRANDED_TOTAL),
            AbortCause::Cancelled => s.inc(fcn_telemetry::names::ROUTER_ABORT_CANCELLED_TOTAL),
        }
        if out.stranded > 0 {
            s.add(
                fcn_telemetry::names::ROUTER_STRANDED_PACKETS_TOTAL,
                out.stranded as u64,
            );
        }
        if tele.faults_gated > 0 {
            s.add(
                fcn_telemetry::names::ROUTER_FAULTS_GATED_TOTAL,
                tele.faults_gated,
            );
        }
        s.record(
            fcn_telemetry::names::ROUTER_RUN_MAX_QUEUE,
            out.max_queue as u64,
        );
        s.record_histogram(
            fcn_telemetry::names::ROUTER_QUEUE_OCCUPANCY,
            &tele.occupancy,
        );
        // Scratch-pool reuse: a scratch's first run is a creation, every
        // later run is an arena reuse (zero allocations after warm-up).
        if scratch_runs == 1 {
            s.inc(fcn_telemetry::names::ROUTER_SCRATCH_CREATED_TOTAL);
        } else {
            s.inc(fcn_telemetry::names::ROUTER_SCRATCH_REUSED_TOTAL);
        }
    });
}

/// `const`-generic encodings of [`QueueDiscipline`] so the tick loop's
/// priority-key computation compiles to straight-line code per discipline.
const DISC_FIFO: u8 = 0;
const DISC_FARTHEST: u8 = 1;
const DISC_RANDOM: u8 = 2;

/// Resize a queue pool to `wires` entries and empty every queue (capacity is
/// retained, so steady-state batches allocate nothing). Queues are already
/// empty unless the previous run aborted on `max_ticks`.
fn grow_and_clear<Q: Clearable>(pool: &mut Vec<Q>, wires: usize, fresh: impl Fn() -> Q) {
    if pool.len() < wires {
        pool.resize_with(wires, fresh);
    }
    for q in pool.iter_mut().take(wires) {
        q.clear_queue();
    }
}

trait Clearable {
    fn clear_queue(&mut self);
}

impl Clearable for VecDeque<u32> {
    fn clear_queue(&mut self) {
        self.clear();
    }
}

impl Clearable for Vec<u64> {
    fn clear_queue(&mut self) {
        self.clear();
    }
}

/// Queue key of a packet with `remaining` hops to travel. Smaller keys pop
/// first; FarthestFirst inverts remaining hops so farther packets win.
/// `remaining` counts the push's own wire — identical to the reference's
/// `hops - pos` at both injection (`pos = 0`) and arrival time.
#[inline]
fn key_of<const DISC: u8>(remaining: u32, rank: u32) -> u32 {
    match DISC {
        DISC_FIFO => 0,
        DISC_FARTHEST => u32::MAX - remaining,
        _ => rank,
    }
}

/// The tick loop, monomorphized per queue pool (`Q`), capacity regime
/// (`UNIT`: every wire capacity 1 and every send budget unlimited — the
/// budget bookkeeping compiles away entirely), and discipline (`DISC`: the
/// priority-key computation is a compile-time choice, not a per-push match).
///
/// Mirrors [`reference::route_batch`] phase for phase: injection, then
/// (send, compaction, arrival) per tick, with identical iteration orders —
/// which is what makes the outcomes bit-identical. Packet progress is
/// tracked as `(remaining, cursor)` columns instead of the reference's
/// vertex position: an arrival touches one `wire_ids` slot and one
/// wire-tail slot instead of re-deriving its location from the path arrays.
fn run_ticks<Q: WireQueues, const UNIT: bool, const DISC: u8>(
    net: &CompiledNet,
    batch: &PacketBatch,
    cfg: RouterConfig,
    queues: &mut Q,
    scr: &mut RouterScratch,
    mut tele: Option<&mut RunTele>,
    cancel: Option<&AtomicBool>,
) -> RoutingOutcome {
    let total = batch.len();

    let mut delivered = 0usize;
    let mut total_hops = 0u64;
    let mut max_queue = 0usize;

    // Injection: every packet enqueues on its first wire at tick 0. Queue
    // lengths only grow here, so tracking the max per push matches the
    // reference engine's post-injection scan.
    //
    // Fault gating: a packet whose precompiled path crosses a permanently
    // dead wire can never be delivered — it is *stranded* here (typed
    // outcome) rather than left to spin the loop to `max_ticks`. The scan
    // only runs when the net actually has dead wires, so intact machines
    // take the exact pre-fault-plane injection path.
    let mut stranded = 0usize;
    let strand_scan = net.has_dead_wires();
    for pid in 0..total {
        let hops = batch.hops(pid);
        if hops == 0 {
            delivered += 1;
            continue;
        }
        if strand_scan && batch.wires(pid).iter().any(|&w| net.wire_dead(w)) {
            stranded += 1;
            continue;
        }
        let wb = batch.wire_base(pid);
        let w = batch.wire_flat(wb as usize) as usize;
        let src = net.wire_tail(w as u32);
        scr.remaining[pid] = hops;
        scr.cursor[pid] = wb + 1;
        let key = key_of::<DISC>(hops, scr.rank[pid]);
        // `PacketBatch::compile` refuses batches past `u32::MAX` packets.
        max_queue = max_queue.max(queues.push(w, key, pid as u32));
        scr.node_queued[src as usize] += 1;
        if !scr.node_listed[src as usize] {
            scr.node_listed[src as usize] = true;
            scr.active_nodes.push(src);
        }
    }

    let routable = total - stranded;
    let mut ticks = 0u64;
    let mut cancelled = false;
    let mut gated = 0u64;
    while delivered < routable && ticks < cfg.max_ticks {
        // Graceful-stop hook: one relaxed load per tick when a watchdog or
        // signal handler armed a flag; `None` compiles to nothing observable.
        // ordering: the flag is a monotone stop hint carrying no data; a
        // stale read merely runs one more tick before stopping.
        if let Some(c) = cancel {
            if c.load(Ordering::Relaxed) {
                cancelled = true;
                break;
            }
        }
        ticks += 1;
        scr.arrivals.clear();
        // Send phase: each active node pushes packets subject to per-wire
        // and per-node budgets, starting at a rotating wire offset for
        // fairness under tight budgets. Once a node's queued count hits
        // zero the remaining wires are provably empty, so breaking early
        // pops the exact same packets the reference's full scan would.
        //
        // Compaction is fused into the same pass: a node's post-send queued
        // count is final until the arrival phase runs, so keeping/unlisting
        // it right here reads exactly the value the reference's separate
        // `retain` sweep would, in the same list order.
        let mut active = std::mem::take(&mut scr.active_nodes);
        let mut kept = 0usize;
        for idx in 0..active.len() {
            let u = active[idx];
            let (lo, hi) = net.wire_range(u);
            let deg = hi - lo;
            let mut queued = scr.node_queued[u as usize];
            if deg == 0 || queued == 0 {
                scr.node_listed[u as usize] = false;
                continue;
            }
            // `rotate[u]` is kept reduced mod `deg`, so the wrap-around walk
            // needs no modulo arithmetic in the inner loop.
            let mut wi = scr.rotate[u as usize] as usize;
            debug_assert!(wi < deg);
            if UNIT {
                // Unit capacities, unlimited budget: every nonempty wire
                // forwards exactly one packet.
                for _ in 0..deg {
                    let w = lo + wi;
                    wi += 1;
                    if wi == deg {
                        wi = 0;
                    }
                    if let Some(pid) = queues.pop(w) {
                        scr.arrivals.push(pid);
                        queued -= 1;
                        if queued == 0 {
                            break;
                        }
                    }
                }
            } else {
                let mut budget = net.send_budget(u) as u64;
                for _ in 0..deg {
                    if budget == 0 {
                        break;
                    }
                    let w = lo + wi;
                    wi += 1;
                    if wi == deg {
                        wi = 0;
                    }
                    if queues.is_empty(w) {
                        continue;
                    }
                    // Transient-fault gating: inside an outage window the
                    // wire's capacity is reduced (usually to zero — queued
                    // packets wait the window out). For intact nets this is
                    // the static multiplicity, bit-for-bit.
                    let cap_now = net.effective_wire_capacity(w as u32, ticks - 1);
                    if cap_now < net.wire_capacity(w as u32) {
                        gated += 1;
                    }
                    if cap_now == 0 {
                        continue;
                    }
                    let cap = (cap_now as u64).min(budget);
                    let mut sent = 0u64;
                    while sent < cap {
                        match queues.pop(w) {
                            Some(pid) => {
                                scr.arrivals.push(pid);
                                sent += 1;
                            }
                            None => break,
                        }
                    }
                    budget -= sent;
                    queued -= sent as u32;
                    if queued == 0 {
                        break;
                    }
                }
            }
            scr.node_queued[u as usize] = queued;
            let next = scr.rotate[u as usize] + 1;
            scr.rotate[u as usize] = if next as usize == deg { 0 } else { next };
            // Drop nodes emptied by the send phase (before arrivals re-add).
            if queued > 0 {
                active[kept] = u;
                kept += 1;
            } else {
                scr.node_listed[u as usize] = false;
            }
        }
        active.truncate(kept);
        scr.active_nodes = active;
        // Telemetry observation point (enabled runs only): every
        // undelivered, non-trivial packet sat in exactly one wire queue at
        // tick start, so occupancy is `total - delivered` in O(1); the ones
        // that did not make it into `arrivals` stalled for this tick.
        if let Some(t) = tele.as_deref_mut() {
            let queued_start = (total - delivered) as u64;
            t.occupancy.record(queued_start);
            t.stalled += queued_start - scr.arrivals.len() as u64;
        }
        // Arrival phase: advance packets, deliver or re-enqueue. `arrivals`
        // is moved out of the scratch for the duration so the loop iterates
        // it directly (no per-element index check against the scratch
        // borrow) and moved back for the next tick.
        let arrivals = std::mem::take(&mut scr.arrivals);
        total_hops += arrivals.len() as u64;
        for &pid in &arrivals {
            let pid = pid as usize;
            let rem = scr.remaining[pid] - 1;
            scr.remaining[pid] = rem;
            if rem == 0 {
                delivered += 1;
                continue;
            }
            let cur = scr.cursor[pid] as usize;
            let w = batch.wire_flat(cur) as usize;
            scr.cursor[pid] = (cur + 1) as u32;
            let from = net.wire_tail(w as u32);
            let key = key_of::<DISC>(rem, scr.rank[pid]);
            max_queue = max_queue.max(queues.push(w, key, pid as u32));
            scr.node_queued[from as usize] += 1;
            if !scr.node_listed[from as usize] {
                scr.node_listed[from as usize] = true;
                scr.active_nodes.push(from);
            }
        }
        scr.arrivals = arrivals;
    }

    if let Some(t) = tele {
        t.faults_gated += gated;
    }
    let abort = if cancelled {
        AbortCause::Cancelled
    } else if delivered < routable {
        AbortCause::MaxTicks
    } else if stranded > 0 {
        AbortCause::Stranded
    } else {
        AbortCause::Completed
    };
    RoutingOutcome {
        ticks,
        delivered,
        total,
        completed: abort == AbortCause::Completed,
        max_queue,
        total_hops,
        stranded,
        abort,
    }
}

thread_local! {
    /// One scratch per thread: pool workers of a sweep reuse arenas across
    /// every batch they run.
    pub(crate) static POOLED_SCRATCH: RefCell<RouterScratch> = RefCell::new(RouterScratch::new());
}

/// [`route_compiled`] with batch semantics, no cancellation flag, and this
/// thread's pooled [`RouterScratch`].
pub fn route_compiled_pooled(
    net: &CompiledNet,
    batch: &PacketBatch,
    cfg: RouterConfig,
) -> RoutingOutcome {
    POOLED_SCRATCH.with(|s| route_compiled(net, batch, cfg, &mut s.borrow_mut(), None))
}

/// The executable specification [`route_compiled`] is pinned against.
///
/// [`reference::route_batch`] is the original single-function simulator,
/// retained verbatim as the spec of the wire model under batch semantics.
/// `tests/compiled_router.rs` pins [`route_compiled`] against it across
/// machine families and queue disciplines. It predates the fault plane, so
/// faulted runs are pinned to hand-computed outcomes instead.
///
/// Not a hot path — new code should use [`route_compiled`].
pub mod reference {
    use super::*;

    /// Per-wire queue under a discipline. Priority queues pop the smallest
    /// key.
    enum WireQueue {
        Fifo(VecDeque<u32>),
        Prio(BinaryHeap<Reverse<(u32, u32)>>),
    }

    impl WireQueue {
        fn new(discipline: QueueDiscipline) -> Self {
            match discipline {
                QueueDiscipline::Fifo => WireQueue::Fifo(VecDeque::new()),
                _ => WireQueue::Prio(BinaryHeap::new()),
            }
        }

        fn push(&mut self, key: u32, pid: u32) {
            match self {
                WireQueue::Fifo(q) => q.push_back(pid),
                WireQueue::Prio(q) => q.push(Reverse((key, pid))),
            }
        }

        fn pop(&mut self) -> Option<u32> {
            match self {
                WireQueue::Fifo(q) => q.pop_front(),
                WireQueue::Prio(q) => q.pop().map(|Reverse((_, pid))| pid),
            }
        }

        fn len(&self) -> usize {
            match self {
                WireQueue::Fifo(q) => q.len(),
                WireQueue::Prio(q) => q.len(),
            }
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    struct PacketState {
        path: PacketPath,
        /// Index of the vertex the packet currently sits at.
        pos: u32,
        /// Random rank (used by `RandomRank`).
        rank: u32,
    }

    /// Route a batch by rebuilding all routing state from scratch — the
    /// pre-compilation behavior, bit-for-bit.
    ///
    /// Fails with [`RouteError::OffsetOverflow`] when the batch holds more
    /// than `u32::MAX` packets, checked before any packet is read.
    ///
    /// # Panics
    /// Panics if some path is not a walk of the host graph; compile the
    /// batch with [`PacketBatch::compile`] to get the typed error.
    pub fn route_batch(
        machine: &Machine,
        packets: impl IntoIterator<Item = PacketPath, IntoIter: ExactSizeIterator>,
        cfg: RouterConfig,
    ) -> Result<RoutingOutcome, RouteError> {
        let packets = packets.into_iter();
        packet_ids(packets.len())?;
        let g = machine.graph();
        let n = g.node_count();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Directed wire arrays. Neighbor lists are ascending (CSR built
        // from an ordered map), so next-hop lookup is a binary search.
        let mut wire_offsets = Vec::with_capacity(n + 1);
        let mut wire_to: Vec<NodeId> = Vec::new();
        let mut wire_cap: Vec<u32> = Vec::new();
        wire_offsets.push(0usize);
        for u in 0..n as NodeId {
            for (v, m) in g.neighbors(u) {
                if v != u {
                    wire_to.push(v);
                    wire_cap.push(m);
                }
            }
            wire_offsets.push(wire_to.len());
        }
        let wire_of = |u: NodeId, v: NodeId| -> usize {
            let lo = wire_offsets[u as usize];
            let hi = wire_offsets[u as usize + 1];
            lo + wire_to[lo..hi]
                .binary_search(&v)
                // fcn-allow: ERR-UNWRAP documented panic: the spec takes walks of the host graph
                .unwrap_or_else(|_| panic!("no wire {u} -> {v}"))
        };
        let mut queues: Vec<WireQueue> = (0..wire_to.len())
            .map(|_| WireQueue::new(cfg.discipline))
            .collect();
        // Activity is tracked per *node* (a node is active while any of its
        // out-wires has queued packets), so the send phase iterates active
        // nodes and their short wire ranges — no per-tick sorting.
        let mut active_nodes: Vec<NodeId> = Vec::new();
        let mut node_queued = vec![0u32; n]; // queued packets across the node's wires
        let mut node_listed = vec![false; n];
        let mut rotate = vec![0u32; n];

        let total = packets.len();
        let mut states: Vec<PacketState> = packets
            .map(|p| PacketState {
                path: p,
                pos: 0,
                rank: rng.random::<u32>(),
            })
            .collect();

        let key_of = |st: &PacketState, discipline: QueueDiscipline| -> u32 {
            match discipline {
                QueueDiscipline::Fifo => 0,
                // Smaller key pops first; invert remaining hops so farther
                // packets win.
                QueueDiscipline::FarthestFirst => u32::MAX - (st.path.hops() as u32 - st.pos),
                QueueDiscipline::RandomRank => st.rank,
            }
        };

        let mut delivered = 0usize;
        let mut total_hops = 0u64;
        let mut max_queue = 0usize;

        // Injection.
        for (pid, st) in states.iter().enumerate() {
            if st.path.hops() == 0 {
                delivered += 1;
                continue;
            }
            let src = st.path.path[0];
            let w = wire_of(src, st.path.path[1]);
            let key = key_of(st, cfg.discipline);
            // `packet_ids` bounded the batch to `u32::MAX` packets above.
            queues[w].push(key, pid as u32);
            node_queued[src as usize] += 1;
            if !node_listed[src as usize] {
                node_listed[src as usize] = true;
                active_nodes.push(src);
            }
        }
        for q in &queues {
            max_queue = max_queue.max(q.len());
        }

        let mut ticks = 0u64;
        let mut arrivals: Vec<u32> = Vec::new();
        while delivered < total && ticks < cfg.max_ticks {
            ticks += 1;
            arrivals.clear();
            // Send phase: each active node pushes packets subject to
            // per-wire and per-node budgets, starting at a rotating wire
            // offset for fairness under tight budgets.
            for &u in &active_nodes {
                let lo = wire_offsets[u as usize];
                let hi = wire_offsets[u as usize + 1];
                let deg = hi - lo;
                if deg == 0 || node_queued[u as usize] == 0 {
                    continue;
                }
                let mut budget = machine.send_capacity(u) as u64;
                let start = (rotate[u as usize] as usize) % deg;
                for idx in 0..deg {
                    if budget == 0 {
                        break;
                    }
                    let w = lo + (start + idx) % deg;
                    if queues[w].is_empty() {
                        continue;
                    }
                    let cap = (wire_cap[w] as u64).min(budget);
                    let mut sent = 0u64;
                    while sent < cap {
                        match queues[w].pop() {
                            Some(pid) => {
                                arrivals.push(pid);
                                sent += 1;
                            }
                            None => break,
                        }
                    }
                    budget -= sent;
                    node_queued[u as usize] -= sent as u32;
                }
                rotate[u as usize] = rotate[u as usize].wrapping_add(1);
            }
            // Drop nodes emptied by the send phase (before arrivals re-add).
            active_nodes.retain(|&u| {
                let keep = node_queued[u as usize] > 0;
                if !keep {
                    node_listed[u as usize] = false;
                }
                keep
            });
            // Arrival phase: advance packets, deliver or re-enqueue.
            for &pid in &arrivals {
                let st = &mut states[pid as usize];
                st.pos += 1;
                total_hops += 1;
                if st.pos as usize == st.path.hops() {
                    delivered += 1;
                    continue;
                }
                let from = st.path.path[st.pos as usize];
                let to = st.path.path[st.pos as usize + 1];
                let w = wire_of(from, to);
                let key = key_of(st, cfg.discipline);
                queues[w].push(key, pid);
                max_queue = max_queue.max(queues[w].len());
                node_queued[from as usize] += 1;
                if !node_listed[from as usize] {
                    node_listed[from as usize] = true;
                    active_nodes.push(from);
                }
            }
        }

        Ok(RoutingOutcome {
            ticks,
            delivered,
            total,
            completed: delivered == total,
            max_queue,
            total_hops,
            // The reference engine predates the fault plane and only ever
            // routes intact machines: nothing strands, and the two exit
            // conditions map onto the first two abort causes.
            stranded: 0,
            abort: if delivered == total {
                AbortCause::Completed
            } else {
                AbortCause::MaxTicks
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_topology::Machine;

    fn cfg(d: QueueDiscipline) -> RouterConfig {
        RouterConfig {
            discipline: d,
            seed: 7,
            max_ticks: 100_000,
        }
    }

    /// Compile `packets` on `m` and run them on this thread's scratch.
    fn route(m: &Machine, packets: Vec<PacketPath>, cfg: RouterConfig) -> RoutingOutcome {
        let net = CompiledNet::compile(m);
        let batch = PacketBatch::compile(&net, &packets).expect("test paths are walks");
        route_compiled_pooled(&net, &batch, cfg)
    }

    #[test]
    fn single_packet_takes_path_length_ticks() {
        let m = Machine::linear_array(10);
        let p = PacketPath::new((0..10).collect());
        let out = route(&m, vec![p], cfg(QueueDiscipline::Fifo));
        assert!(out.completed);
        assert_eq!(out.ticks, 9);
        assert_eq!(out.total_hops, 9);
        assert!((out.rate() - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_packets_deliver_at_tick_zero() {
        let m = Machine::linear_array(4);
        let out = route(
            &m,
            vec![PacketPath::new(vec![2]), PacketPath::new(vec![0])],
            cfg(QueueDiscipline::Fifo),
        );
        assert!(out.completed);
        assert_eq!(out.ticks, 0);
        assert_eq!(out.delivered, 2);
    }

    #[test]
    fn contention_serializes_on_one_wire() {
        // k packets all crossing the same single wire take k ticks for the
        // final crossing: flux in action.
        let m = Machine::linear_array(2);
        let packets: Vec<_> = (0..8).map(|_| PacketPath::new(vec![0, 1])).collect();
        let out = route(&m, packets, cfg(QueueDiscipline::Fifo));
        assert!(out.completed);
        assert_eq!(out.ticks, 8);
        assert_eq!(out.max_queue, 8);
    }

    #[test]
    fn opposite_wires_are_independent() {
        let m = Machine::linear_array(2);
        let mut packets: Vec<_> = (0..4).map(|_| PacketPath::new(vec![0, 1])).collect();
        packets.extend((0..4).map(|_| PacketPath::new(vec![1, 0])));
        let out = route(&m, packets, cfg(QueueDiscipline::Fifo));
        assert_eq!(out.ticks, 4);
    }

    #[test]
    fn node_capacity_throttles_the_bus() {
        // 6 packets from distinct sources via the hub: hub forwards 1/tick,
        // so the last arrives around tick 7 (1 tick in + 6 hub slots).
        let m = Machine::global_bus(6);
        let hub = 6 as NodeId;
        let packets: Vec<_> = (0..6u32)
            .map(|i| PacketPath::new(vec![i, hub, (i + 1) % 6]))
            .collect();
        let out = route(&m, packets, cfg(QueueDiscipline::RandomRank));
        assert!(out.completed);
        assert!(out.ticks >= 7, "bus finished too fast: {}", out.ticks);
        assert!(out.ticks <= 8, "bus too slow: {}", out.ticks);
    }

    #[test]
    fn unit_node_capacity_on_weak_hypercube() {
        // Node 0 fans out 4 packets on 4 distinct wires; weak capacity 1
        // serializes them.
        let m = Machine::weak_hypercube(2);
        let packets: Vec<_> = vec![
            PacketPath::new(vec![0, 1]),
            PacketPath::new(vec![0, 2]),
            PacketPath::new(vec![0, 1, 3]),
            PacketPath::new(vec![0, 2, 3]),
        ];
        let out = route(&m, packets, cfg(QueueDiscipline::Fifo));
        assert!(out.completed);
        assert!(out.ticks >= 4, "weak cap violated: {}", out.ticks);
    }

    #[test]
    fn multiplicity_gives_parallel_capacity() {
        // Double every edge of a 2-path: two packets cross per tick.
        use fcn_multigraph::Cut;
        use fcn_topology::{Family, SendCapacity};
        let g = fcn_multigraph::Multigraph::from_edges(2, [(0, 1)]).scaled(2);
        let m = fcn_topology::Machine::custom(
            Family::LinearArray,
            "double_edge".into(),
            g,
            2,
            SendCapacity::Unlimited,
            vec![Cut::prefix(2, 1)],
        );
        let packets: Vec<_> = (0..8).map(|_| PacketPath::new(vec![0, 1])).collect();
        let out = route(&m, packets, cfg(QueueDiscipline::Fifo));
        assert_eq!(out.ticks, 4);
    }

    #[test]
    fn all_disciplines_complete_random_traffic() {
        let m = Machine::mesh(2, 4);
        for d in [
            QueueDiscipline::Fifo,
            QueueDiscipline::FarthestFirst,
            QueueDiscipline::RandomRank,
        ] {
            let mut oracle = crate::oracle::PathOracle::new(m.graph(), 5);
            let demands: Vec<_> = (0..16u32).map(|i| (i, 15 - i)).collect();
            let routes = oracle.routes(&demands, crate::packet::Strategy::ShortestPath);
            let out = route(&m, routes, cfg(d));
            assert!(out.completed, "{d:?} did not complete");
            assert_eq!(out.delivered, 16);
        }
    }

    #[test]
    fn max_ticks_aborts() {
        let m = Machine::linear_array(2);
        let packets: Vec<_> = (0..100).map(|_| PacketPath::new(vec![0, 1])).collect();
        let mut c = cfg(QueueDiscipline::Fifo);
        c.max_ticks = 10;
        let out = route(&m, packets, c);
        assert!(!out.completed);
        assert_eq!(out.delivered, 10);
    }

    #[test]
    fn reference_refuses_more_packets_than_u32_ids() {
        // The count is checked before a packet is read, so the oversized
        // batch is never materialized.
        let m = Machine::linear_array(2);
        let over = u32::MAX as usize + 1;
        let packets = std::iter::repeat_n(PacketPath::new(vec![0, 1]), over);
        assert_eq!(
            reference::route_batch(&m, packets, cfg(QueueDiscipline::Fifo)),
            Err(RouteError::OffsetOverflow { len: over })
        );
        let packets = std::iter::repeat_n(PacketPath::new(vec![0, 1]), 3);
        let out = reference::route_batch(&m, packets, cfg(QueueDiscipline::Fifo));
        assert_eq!(out.map(|o| o.ticks), Ok(3));
    }

    #[test]
    fn scratch_is_reusable_across_machines_and_disciplines() {
        // One scratch, three machines of different sizes, all disciplines:
        // results must match fresh-scratch runs (arena residue must not
        // leak between runs, including after a max_ticks abort).
        let mut scratch = RouterScratch::new();
        let machines = [
            Machine::mesh(2, 4),
            Machine::linear_array(2),
            Machine::de_bruijn(4),
        ];
        for m in &machines {
            for d in [
                QueueDiscipline::Fifo,
                QueueDiscipline::FarthestFirst,
                QueueDiscipline::RandomRank,
            ] {
                let mut oracle = crate::oracle::PathOracle::new(m.graph(), 5);
                let n = m.processors() as u32;
                let demands: Vec<_> = (0..n).map(|i| (i, n - 1 - i)).collect();
                let routes = oracle.routes(&demands, crate::packet::Strategy::ShortestPath);
                let net = CompiledNet::compile(m);
                let batch = PacketBatch::compile(&net, &routes).unwrap();
                // Abort run first to leave residue in the queues...
                let mut short = cfg(d);
                short.max_ticks = 1;
                let _ = route_compiled(&net, &batch, short, &mut scratch, None);
                // ...then the real run must still be clean.
                let pooled = route_compiled(&net, &batch, cfg(d), &mut scratch, None);
                let fresh = route_compiled(&net, &batch, cfg(d), &mut RouterScratch::new(), None);
                assert_eq!(pooled, fresh, "{} {d:?}", m.name());
            }
        }
    }
}
