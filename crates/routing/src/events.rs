//! The event-driven router backend: skip quiescent ticks.
//!
//! The synchronous tick loop pays for every tick even when nothing can
//! move — long drain tails, sparse injection schedules, fault outage
//! windows. This backend runs the **same** tick loop over the same
//! [`CompiledNet`]/[`PacketBatch`] arenas, but when a simulated tick turns
//! out to be *quiescent* (no packet crossed a wire and no packet was
//! injected) it consults an [`EventWheel`] of next-actionable ticks —
//! pending injections, fault-capacity boundaries on wires that hold
//! packets — and jumps straight to the earliest one, folding the skipped
//! span's side effects (rotate advance, occupancy/stall/gating telemetry)
//! in closed form. Cost therefore scales with *events* (injections,
//! crossings, window edges), not `ticks × wires`.
//!
//! ## Determinism contract
//!
//! [`route_events`] does not re-implement the wire model: every simulated
//! tick executes [`crate::engine`]'s `run_ticks` verbatim (the event hook
//! is a parameter of that loop), and a span is skipped only when the state
//! provably replays itself — so the [`RoutingOutcome`] is **bit-identical**
//! to [`crate::route_compiled`] / `engine::reference` across families,
//! disciplines, abort paths, and fault overlays (pinned by
//! `tests/event_router.rs`). Cancellation flags are polled at every
//! simulated tick *and* re-polled immediately before each fast-forward
//! commits, so a flag raised mid-run aborts with
//! [`crate::AbortCause::Cancelled`] before the skipped span is accounted —
//! a cancelled outcome never reports ticks beyond its last simulated tick
//! (a flag raised before the run starts behaves identically to the tick
//! backend's, and `event_pin_cancelled_before_skip` pins the
//! frozen-net case where the next jump would have burned the whole
//! budget).
//!
//! Why a quiescent state replays: packets move only when a send succeeds;
//! a tick with zero sends leaves every queue, rotate offset, and budget
//! untouched *except* that rotate offsets of listed nodes advance by one
//! (folded as `+k mod deg` over the span). The send phase's inputs change
//! only via injections (scheduled — in the wheel) or effective wire
//! capacity (piecewise-constant between fault-window boundaries — wake
//! ticks pushed for every queued wire before the skip decision). Jumping
//! to the earliest wake therefore commutes with single-stepping.

use std::cell::RefCell;
use std::sync::atomic::AtomicBool;

use crate::compiled::{CompiledNet, InjectionSchedule, PacketBatch};
use crate::engine::{dispatch_run, RouterConfig, RouterScratch, RoutingOutcome};

/// Wheel levels: level `l` covers ticks `[64^l, 64^(l+1))` (level 0 is
/// exact, one tick per slot), so six levels span `64^6 = 2^36` ticks —
/// far beyond any `max_ticks` in practice; later ticks go to an overflow
/// list.
const LEVELS: usize = 6;
/// Slots per level.
const SLOTS: usize = 64;

/// What a wheel entry wakes the simulation for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A schedule entry comes due: the tick must be simulated so its
    /// injection step runs.
    Inject,
    /// A fault-capacity boundary (outage window opening or closing) on a
    /// wire that held packets when the skip was computed: the wire may
    /// become sendable (or stop being sendable) at this tick.
    WindowWakeup,
}

/// A hierarchical calendar wheel of future wake ticks.
///
/// Entries are bucketed by tick magnitude: level `l` slot `s` holds ticks
/// whose base-64 digit `l` is `s` and whose higher digits are zero —
/// level 0 is one-tick-per-slot exact, level 1 slots cover 64 ticks, and
/// so on. Slot ranges are disjoint and ascending across levels, so the
/// earliest pending wake is found by scanning occupied-slot bitmasks
/// level by level and taking the minimum of the first live slot — no
/// per-tick cascading, which matters because the router *jumps* over
/// spans instead of advancing one tick at a time. Everything is plain
/// `Vec` state: deterministic, clearable, reusable across runs.
///
/// The hot path never touches the wheel — it is consulted only when a
/// simulated tick was quiescent, and pushed to only at run start
/// (injection ticks) and at skip decisions (window wakeups).
#[derive(Debug)]
pub struct EventWheel {
    /// `LEVELS × SLOTS` buckets, flattened (`level * SLOTS + slot`).
    slots: Vec<Vec<(u64, EventKind)>>,
    /// Occupied-slot bitmask per level.
    occ: [u64; LEVELS],
    /// Entries at ticks `>= 64^LEVELS` (never hit in practice).
    overflow: Vec<(u64, EventKind)>,
    /// Live entries.
    len: usize,
    /// Peak of `len` since the last [`EventWheel::clear`] (telemetry:
    /// `router_wheel_max_depth`).
    max_depth: usize,
}

impl Default for EventWheel {
    fn default() -> Self {
        EventWheel::new()
    }
}

impl EventWheel {
    /// An empty wheel.
    pub fn new() -> EventWheel {
        EventWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: Vec::new(),
            len: 0,
            max_depth: 0,
        }
    }

    /// Drop every entry and reset the depth watermark (bucket capacity is
    /// retained, so a pooled wheel allocates nothing after warm-up).
    pub fn clear(&mut self) {
        for l in 0..LEVELS {
            let mut occ = self.occ[l];
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                self.slots[l * SLOTS + s].clear();
            }
            self.occ[l] = 0;
        }
        self.overflow.clear();
        self.len = 0;
        self.max_depth = 0;
    }

    /// Bucket of `tick`, or `None` for the overflow list.
    #[inline]
    fn place(tick: u64) -> Option<(usize, usize)> {
        if tick < SLOTS as u64 {
            return Some((0, tick as usize));
        }
        let level = (63 - tick.leading_zeros() as usize) / 6;
        if level >= LEVELS {
            return None;
        }
        Some((level, (tick >> (6 * level)) as usize & (SLOTS - 1)))
    }

    /// Schedule a wake at `tick`.
    pub fn push(&mut self, tick: u64, kind: EventKind) {
        match EventWheel::place(tick) {
            Some((l, s)) => {
                self.slots[l * SLOTS + s].push((tick, kind));
                self.occ[l] |= 1u64 << s;
            }
            None => self.overflow.push((tick, kind)),
        }
        self.len += 1;
        self.max_depth = self.max_depth.max(self.len);
    }

    /// Drop every entry at ticks `<= now` (they are in the past) and
    /// return the earliest remaining wake tick, if any. The returned entry
    /// stays in the wheel — it will be discarded as stale by the call
    /// after its tick has been simulated.
    pub fn next_after(&mut self, now: u64) -> Option<u64> {
        for l in 0..LEVELS {
            let mut occ = self.occ[l];
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let slot = &mut self.slots[l * SLOTS + s];
                let before = slot.len();
                slot.retain(|&(t, _)| t > now);
                self.len -= before - slot.len();
                if slot.is_empty() {
                    self.occ[l] &= !(1u64 << s);
                    continue;
                }
                // Slot ranges ascend within and across levels, so the
                // first surviving slot holds the global minimum.
                if let Some(m) = slot.iter().map(|&(t, _)| t).min() {
                    return Some(m);
                }
            }
        }
        let before = self.overflow.len();
        self.overflow.retain(|&(t, _)| t > now);
        self.len -= before - self.overflow.len();
        self.overflow.iter().map(|&(t, _)| t).min()
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no wake is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Peak entry count since the last clear.
    #[inline]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

/// Per-run event-backend state threaded into the engine's tick loop. The
/// tick backend passes no `EventCtl`; its presence is the *only* behavioral
/// difference between the backends.
pub(crate) struct EventCtl<'a> {
    /// Pending wake ticks (injections at run start, window wakeups pushed
    /// at skip decisions).
    pub(crate) wheel: &'a mut EventWheel,
    /// Outage windows `(start, end)` sorted ascending, for the
    /// skipped-entirely counter.
    spans: &'a [(u64, u64)],
    /// Monotone cursor into `spans` (everything before it was simulated
    /// into, counted, or lies in the past).
    span_ptr: usize,
    /// Ticks skipped instead of simulated.
    pub(crate) skipped: u64,
    /// Outage windows (per directed wire, matching `fault_summary`) whose
    /// entire open span fell inside skipped ticks — no simulated tick ever
    /// queried capacity during the window.
    pub(crate) windows_skipped: u64,
}

impl EventCtl<'_> {
    /// Account a jump from simulated tick `from` to next simulated tick
    /// `next_sim` (skipping `from + 1 ..= next_sim - 1`): the skipped-tick
    /// counter, plus every outage window whose capacity queries (`start <=
    /// q < end` for queried ticks `q`) all fell inside the jump — ticks
    /// `from ..= next_sim - 2` are the queries the skipped ticks would
    /// have made (tick `x` queries capacity at `x - 1`).
    pub(crate) fn note_skip(&mut self, from: u64, next_sim: u64) {
        self.skipped += next_sim - 1 - from;
        while self.span_ptr < self.spans.len() && self.spans[self.span_ptr].0 < from {
            self.span_ptr += 1;
        }
        let mut p = self.span_ptr;
        while p < self.spans.len() && self.spans[p].0 + 1 < next_sim {
            if self.spans[p].1 < next_sim {
                self.windows_skipped += 1;
            }
            p += 1;
        }
        // Spans passed over but not counted were (or will be) touched by
        // the simulated tick at `next_sim`; never revisit them.
        self.span_ptr = p;
    }
}

thread_local! {
    /// Pooled wheel + sorted-span arena, reused across event runs on this
    /// thread (the companion of the engine's pooled [`RouterScratch`]).
    static EVENT_STATE: RefCell<(EventWheel, Vec<(u64, u64)>)> =
        RefCell::new((EventWheel::new(), Vec::new()));
}

/// Route a pre-compiled batch with the event-driven backend.
///
/// Bit-identical outcomes to [`crate::route_compiled`] for every
/// `(net, batch, cfg)`; faster whenever the run contains idle spans (the
/// batch semantics inject everything at tick 0, so intact batch runs have
/// none — the wins come from fault outage windows, and from
/// [`route_events_at`]'s sparse injection schedules).
pub fn route_events(
    net: &CompiledNet,
    batch: &PacketBatch,
    cfg: RouterConfig,
    scratch: &mut RouterScratch,
) -> RoutingOutcome {
    route_events_inner(net, batch, None, cfg, scratch, None)
}

/// [`route_events`] with a cancellation flag, polled at simulated ticks
/// (see the module docs for the mid-skip caveat).
pub fn route_events_gated(
    net: &CompiledNet,
    batch: &PacketBatch,
    cfg: RouterConfig,
    scratch: &mut RouterScratch,
    cancel: Option<&AtomicBool>,
) -> RoutingOutcome {
    route_events_inner(net, batch, None, cfg, scratch, cancel)
}

/// [`route_events`] under an [`InjectionSchedule`] — bit-identical to
/// [`crate::engine::route_compiled_at`] for every schedule, and the case
/// the backend exists for: idle gaps between scheduled injections are
/// skipped, not simulated.
pub fn route_events_at(
    net: &CompiledNet,
    batch: &PacketBatch,
    schedule: &InjectionSchedule,
    cfg: RouterConfig,
    scratch: &mut RouterScratch,
    cancel: Option<&AtomicBool>,
) -> RoutingOutcome {
    route_events_inner(net, batch, Some(schedule), cfg, scratch, cancel)
}

/// [`route_events`] using this thread's pooled [`RouterScratch`] — the
/// event-backend twin of [`crate::route_compiled_pooled`].
pub fn route_events_pooled(
    net: &CompiledNet,
    batch: &PacketBatch,
    cfg: RouterConfig,
) -> RoutingOutcome {
    crate::engine::POOLED_SCRATCH.with(|s| route_events(net, batch, cfg, &mut s.borrow_mut()))
}

/// Shared body: seed the wheel (one `Inject` wake per distinct future
/// injection tick; window spans sorted for the skipped counter), run the
/// engine's tick loop with the event hook armed, then publish the
/// event-backend metrics.
fn route_events_inner(
    net: &CompiledNet,
    batch: &PacketBatch,
    sched: Option<&InjectionSchedule>,
    cfg: RouterConfig,
    scratch: &mut RouterScratch,
    cancel: Option<&AtomicBool>,
) -> RoutingOutcome {
    EVENT_STATE.with(|st| {
        let (wheel, spans) = &mut *st.borrow_mut();
        wheel.clear();
        spans.clear();
        if net.is_faulted() {
            spans.extend(net.outage_spans());
            spans.sort_unstable();
        }
        if let Some(s) = sched {
            // `order()` ascends by tick, so deduplication is one compare.
            let mut last = 0u64;
            for &pid in s.order() {
                let t = s.tick_of(pid as usize);
                if t > last {
                    wheel.push(t, EventKind::Inject);
                    last = t;
                }
            }
        }
        let mut ctl = EventCtl {
            wheel,
            spans,
            span_ptr: 0,
            skipped: 0,
            windows_skipped: 0,
        };
        let out = dispatch_run(net, batch, sched, cfg, scratch, cancel, Some(&mut ctl));
        let (skipped, windows_skipped) = (ctl.skipped, ctl.windows_skipped);
        let max_depth = ctl.wheel.max_depth() as u64;
        if fcn_telemetry::global().enabled() {
            fcn_telemetry::with_shard(|sh| {
                sh.inc(fcn_telemetry::names::ROUTER_EVENTS_TOTAL);
                sh.add(fcn_telemetry::names::ROUTER_TICKS_SKIPPED_TOTAL, skipped);
                sh.record(fcn_telemetry::names::ROUTER_WHEEL_MAX_DEPTH, max_depth);
                if windows_skipped > 0 {
                    sh.add(
                        fcn_telemetry::names::ROUTER_OUTAGE_WINDOWS_SKIPPED_TOTAL,
                        windows_skipped,
                    );
                }
            });
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_orders_and_drops_stale() {
        let mut w = EventWheel::new();
        assert_eq!(w.next_after(0), None);
        for t in [5u64, 100, 63, 64, 4095, 4096, 1 << 40] {
            w.push(t, EventKind::Inject);
        }
        assert_eq!(w.len(), 7);
        assert_eq!(w.max_depth(), 7);
        assert_eq!(w.next_after(0), Some(5));
        assert_eq!(w.next_after(5), Some(63));
        assert_eq!(w.next_after(63), Some(64));
        assert_eq!(w.next_after(64), Some(100));
        assert_eq!(w.next_after(100), Some(4095));
        assert_eq!(w.next_after(4100), Some(1 << 40));
        assert_eq!(w.len(), 1);
        assert_eq!(w.max_depth(), 7, "watermark survives drains");
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.max_depth(), 0);
        assert_eq!(w.next_after(0), None);
    }

    #[test]
    fn wheel_handles_duplicate_ticks() {
        let mut w = EventWheel::new();
        w.push(70, EventKind::Inject);
        w.push(70, EventKind::WindowWakeup);
        w.push(70, EventKind::Inject);
        assert_eq!(w.next_after(69), Some(70));
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_after(70), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn note_skip_counts_fully_jumped_windows() {
        let spans = vec![(5u64, 10u64), (12, 40), (50, 60), (90, 95)];
        let mut wheel = EventWheel::new();
        let mut ctl = EventCtl {
            wheel: &mut wheel,
            spans: &spans,
            span_ptr: 0,
            skipped: 0,
            windows_skipped: 0,
        };
        // Jump 4 -> 45: windows (5,10) and (12,40) fall wholly inside the
        // skipped capacity queries 4..=43; (50,60) is still ahead.
        ctl.note_skip(4, 45);
        assert_eq!(ctl.skipped, 40);
        assert_eq!(ctl.windows_skipped, 2);
        // Jump 55 -> 70: (50,60) was entered before the jump (query 54
        // was simulated), so it is NOT skipped entirely.
        ctl.note_skip(55, 70);
        assert_eq!(ctl.windows_skipped, 2);
        // Jump 80 -> 100 swallows (90,95).
        ctl.note_skip(80, 100);
        assert_eq!(ctl.windows_skipped, 3);
    }
}
