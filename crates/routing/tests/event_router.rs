//! The quiescent-span skip's contract: every run of
//! [`fcn_routing::route_compiled`] (skip hook armed) has the same bits as
//! `engine::reference::route_every_tick` (the same kernel simulating every
//! tick), which is itself pinned to the retained reference simulator.
//!
//! Three layers of evidence:
//!
//! * **Differential pins** — `route_compiled` produces the *identical*
//!   [`fcn_routing::RoutingOutcome`] as `reference::route_every_tick` AND
//!   `engine::reference::route_batch` across the determinism families ×
//!   all three disciplines, through every abort path (MaxTicks via a
//!   starved budget *and* via a permanently gated wire the wheel
//!   fast-forwards over, Stranded via fault overlays, Cancelled via a
//!   pre-set flag), on the weak machines whose send budgets gate the
//!   budgeted send arm, and under sparse
//!   [`fcn_routing::InjectionSchedule`]s — the workload the skip exists
//!   for.
//! * **Arbitrary-schedule proptests** — *any* sparse injection schedule and
//!   *any* assembled outage schedule on any small net leaves the outcome
//!   bit-identical between the skip-free loop and `route_compiled`.
//! * **Drain-tail regression** — on a saturated mesh with one straggler
//!   `route_compiled` must actually *skip* ticks (a positive
//!   `router_ticks_skipped_total`) while its outcome and delivered-packet
//!   telemetry stay equal to the skip-free loop's.

use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

use fcn_faults::{FaultPlan, FaultSpec, LinkOutage};
use fcn_routing::engine::reference;
use fcn_routing::engine::reference::route_every_tick;
use fcn_routing::{
    plan_routes, route_compiled, route_compiled_pooled, CompiledNet, InjectionSchedule,
    PacketBatch, QueueDiscipline, RouterConfig, RouterScratch, Strategy,
};
use fcn_topology::{Family, Machine};
use proptest::prelude::*;

/// The determinism-suite families.
const FAMILIES: [Family; 4] = [
    Family::Mesh(2),
    Family::Tree,
    Family::DeBruijn,
    Family::XTree,
];

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::FarthestFirst,
    QueueDiscipline::RandomRank,
];

/// Serializes global-registry toggling within this test binary.
static TELEMETRY_GATE: Mutex<()> = Mutex::new(());

fn symmetric_batch(
    machine: &Machine,
    mult: usize,
    demand_seed: u64,
    plan_seed: u64,
) -> Vec<fcn_routing::PacketPath> {
    let traffic = machine.symmetric_traffic();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(demand_seed);
    let demands: Vec<_> = (0..mult * traffic.n())
        .map(|_| traffic.sample(&mut rng))
        .collect();
    plan_routes(machine, &demands, Strategy::ShortestPath, plan_seed)
}

/// A deterministic sparse schedule: packet `i` comes due at
/// `(i * stride) % span`, so injections are scattered with long idle gaps
/// and out-of-pid order (exercising the tick-then-pid stable sort).
fn sparse_schedule(n: usize, stride: u64, span: u64) -> InjectionSchedule {
    InjectionSchedule::new((0..n as u64).map(|i| (i * stride) % span).collect())
}

/// The headline pin: families × disciplines × tick budgets, skip-armed run
/// vs skip-free loop vs reference — batch semantics (everything at tick 0).
#[test]
fn event_pin_families_disciplines_and_aborts() {
    for (fi, family) in FAMILIES.iter().enumerate() {
        let machine = family.build_near(64, 0x11);
        let paths = symmetric_batch(&machine, 4, 41 + fi as u64, 17 + fi as u64);
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let mut scratch = RouterScratch::new();
        let mut escratch = RouterScratch::new();
        for discipline in DISCIPLINES {
            for max_ticks in [u64::MAX, 8] {
                let cfg = RouterConfig {
                    discipline,
                    seed: 99,
                    max_ticks,
                };
                let reference = reference::route_batch(&machine, paths.clone(), cfg);
                let compiled = route_every_tick(&net, &batch, None, cfg, &mut scratch, None);
                assert_eq!(reference, compiled, "compiled drifted from reference");
                let events = route_compiled(&net, &batch, None, cfg, &mut escratch, None);
                assert_eq!(
                    events,
                    compiled,
                    "{} / {discipline:?} / max_ticks {max_ticks}",
                    machine.name()
                );
                if max_ticks == 8 {
                    assert!(!events.completed, "starved budget must abort");
                }
            }
        }
    }
}

/// Sparse schedules: families × disciplines, scattered injection ticks with
/// idle gaps the skip jumps — `route_compiled` vs
/// `route_every_tick`, plus the degenerate uniform-0 schedule vs the batch
/// path.
#[test]
fn event_pin_sparse_schedules() {
    for (fi, family) in FAMILIES.iter().enumerate() {
        let machine = family.build_near(64, 0x11);
        let paths = symmetric_batch(&machine, 2, 59 + fi as u64, 31 + fi as u64);
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let sched = sparse_schedule(batch.len(), 197, 4096);
        let uniform = InjectionSchedule::uniform(batch.len(), 0);
        let mut scratch = RouterScratch::new();
        let mut escratch = RouterScratch::new();
        for discipline in DISCIPLINES {
            let cfg = RouterConfig {
                discipline,
                seed: 13,
                ..Default::default()
            };
            let tick = route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, None);
            let events = route_compiled(&net, &batch, Some(&sched), cfg, &mut escratch, None);
            assert_eq!(events, tick, "{} / {discipline:?}", machine.name());
            assert!(tick.completed);
            assert!(
                tick.ticks >= sched.max_tick(),
                "last injection bounds the run"
            );
            // Uniform tick-0 schedule ≡ batch semantics, skip armed or not.
            let batch_sem = route_every_tick(&net, &batch, None, cfg, &mut scratch, None);
            assert_eq!(
                route_every_tick(&net, &batch, Some(&uniform), cfg, &mut scratch, None),
                batch_sem
            );
            assert_eq!(
                route_compiled(&net, &batch, Some(&uniform), cfg, &mut escratch, None),
                batch_sem
            );
        }
    }
}

/// Fault overlays: dead wires strand packets at injection, outage windows
/// gate the budgeted send arm mid-run — the skip-armed run must reproduce
/// both (Stranded abort cause included), batch and scheduled semantics.
#[test]
fn event_pin_fault_overlays() {
    for (fi, family) in FAMILIES.iter().enumerate() {
        let machine = family.build_near(64, 0x11);
        let paths = symmetric_batch(&machine, 3, 83 + fi as u64, 29 + fi as u64);
        let base = CompiledNet::compile(&machine);
        let spec = FaultSpec::uniform(0xfa17 + fi as u64, 0.15);
        let plan = FaultPlan::generate(machine.graph(), &spec);
        let net = base.apply_faults(&plan);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let sched = sparse_schedule(batch.len(), 113, 2048);
        let mut scratch = RouterScratch::new();
        let mut escratch = RouterScratch::new();
        for discipline in DISCIPLINES {
            let cfg = RouterConfig {
                discipline,
                seed: 7,
                ..Default::default()
            };
            let compiled = route_every_tick(&net, &batch, None, cfg, &mut scratch, None);
            let events = route_compiled(&net, &batch, None, cfg, &mut escratch, None);
            assert_eq!(
                events,
                compiled,
                "{} faulted / {discipline:?}",
                machine.name()
            );
            let tick_at = route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, None);
            let events_at = route_compiled(&net, &batch, Some(&sched), cfg, &mut escratch, None);
            assert_eq!(
                events_at,
                tick_at,
                "{} faulted+scheduled / {discipline:?}",
                machine.name()
            );
        }
    }
}

/// A wire gated shut far beyond the budget freezes the net: the skip-free
/// loop burns `max_ticks` one by one, `route_compiled` burns them in one
/// wheel jump — same MaxTicks abort, same tick count, same bits.
#[test]
fn event_pin_frozen_net_fast_forwards_to_max_ticks() {
    let machine = Machine::linear_array(4);
    // One packet 0 → 3; the middle link is gated to capacity 0 from tick 1
    // to far past any budget, so after its first hop the packet waits
    // forever.
    let paths = plan_routes(&machine, &[(0, 3)], Strategy::ShortestPath, 5);
    let outage = |u: u32, v: u32| LinkOutage {
        u,
        v,
        start: 1,
        end: 1 << 40,
        capacity: 0,
    };
    let plan = FaultPlan::assemble(vec![], vec![], vec![outage(1, 2)]);
    let net = CompiledNet::compile(&machine).apply_faults(&plan);
    let batch = PacketBatch::compile(&net, &paths).unwrap();
    let mut scratch = RouterScratch::new();
    let mut escratch = RouterScratch::new();
    for discipline in DISCIPLINES {
        let cfg = RouterConfig {
            discipline,
            seed: 3,
            max_ticks: 50_000,
        };
        let tick = route_every_tick(&net, &batch, None, cfg, &mut scratch, None);
        let events = route_compiled(&net, &batch, None, cfg, &mut escratch, None);
        assert_eq!(events, tick, "{discipline:?}");
        assert_eq!(tick.abort, fcn_routing::AbortCause::MaxTicks);
        assert_eq!(tick.ticks, 50_000, "budget burned to the tick");
    }
}

/// A pre-set cancellation flag aborts tick 1 on every path with identical
/// outcomes — the documented cancel-at-simulated-ticks semantics coincide
/// with the skip-free loop's whenever the flag predates the run.
#[test]
fn event_pin_cancelled_abort() {
    let machine = Family::Mesh(2).build_near(64, 0x11);
    let paths = symmetric_batch(&machine, 4, 5, 13);
    let net = CompiledNet::compile(&machine);
    let batch = PacketBatch::compile(&net, &paths).unwrap();
    let cancel = AtomicBool::new(true);
    let mut scratch = RouterScratch::new();
    let mut escratch = RouterScratch::new();
    for discipline in DISCIPLINES {
        let cfg = RouterConfig {
            discipline,
            seed: 3,
            ..Default::default()
        };
        let compiled = route_every_tick(&net, &batch, None, cfg, &mut scratch, Some(&cancel));
        assert_eq!(compiled.abort, fcn_routing::AbortCause::Cancelled);
        let events = route_compiled(&net, &batch, None, cfg, &mut escratch, Some(&cancel));
        assert_eq!(events, compiled, "{discipline:?}");
    }
}

/// Cancellation must win against a wheel fast-forward: on a frozen net
/// (every injection due beyond the budget) the skip-armed run's next jump
/// would burn the whole 10⁶-tick budget in one skip — a raised cancel flag
/// has to abort with `Cancelled` at the last simulated tick instead of
/// committing the skip and reporting `MaxTicks` with the budget burned.
/// The uncancelled counterfactual pins that the skip is real.
#[test]
fn event_pin_cancelled_before_skip() {
    let machine = Family::Mesh(2).build_near(64, 0x11);
    let paths = symmetric_batch(&machine, 2, 5, 13);
    let net = CompiledNet::compile(&machine);
    let batch = PacketBatch::compile(&net, &paths).unwrap();
    // Every packet comes due at tick 2·10⁶, past the 10⁶ budget: nothing
    // ever moves, so the first tick is quiescent and the only wheel entry
    // lies beyond max_ticks — the frozen-net jump burns the whole budget.
    let sched = InjectionSchedule::new(vec![2_000_000; batch.len()]);
    let cfg = RouterConfig {
        max_ticks: 1_000_000,
        ..Default::default()
    };
    let mut scratch = RouterScratch::new();
    let mut escratch = RouterScratch::new();
    // Counterfactual (no cancel): one fast-forward to the budget cap.
    let free = route_compiled(&net, &batch, Some(&sched), cfg, &mut escratch, None);
    assert_eq!(free.abort, fcn_routing::AbortCause::MaxTicks);
    assert_eq!(free.ticks, 1_000_000, "budget burned in one skip");
    assert_eq!(
        free,
        route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, None)
    );
    // Cancelled: the flag is observed before any span is skipped — the
    // outcome must not report a single tick beyond the last simulated one.
    let cancel = AtomicBool::new(true);
    let cancelled = route_compiled(
        &net,
        &batch,
        Some(&sched),
        cfg,
        &mut escratch,
        Some(&cancel),
    );
    assert_eq!(cancelled.abort, fcn_routing::AbortCause::Cancelled);
    assert_eq!(cancelled.ticks, 0, "no skipped span may be accounted");
    assert_eq!(
        cancelled,
        route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, Some(&cancel))
    );
}

/// Weak machines: per-node send budgets (bus hub, weak hypercube) drive the
/// budgeted send arm, the subtle half of the wire model.
#[test]
fn event_pin_weak_machine_send_budgets() {
    for machine in [Machine::global_bus(16), Machine::weak_hypercube(4)] {
        let paths = symmetric_batch(&machine, 3, 7, 23);
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let sched = sparse_schedule(batch.len(), 61, 512);
        let mut scratch = RouterScratch::new();
        let mut escratch = RouterScratch::new();
        let cfg = RouterConfig::default();
        let compiled = route_every_tick(&net, &batch, None, cfg, &mut scratch, None);
        assert_eq!(
            reference::route_batch(&machine, paths.clone(), cfg),
            compiled
        );
        assert_eq!(
            route_compiled(&net, &batch, None, cfg, &mut escratch, None),
            compiled,
            "{}",
            machine.name()
        );
        assert_eq!(
            route_compiled(&net, &batch, Some(&sched), cfg, &mut escratch, None),
            route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, None),
            "{} scheduled",
            machine.name()
        );
    }
}

/// `route_compiled_pooled` is the harness dispatch point: same bits as an
/// explicit-scratch run, and reusable across batches.
#[test]
fn event_pooled_dispatch_is_transparent() {
    let machine = Family::DeBruijn.build_near(64, 0x11);
    let paths = symmetric_batch(&machine, 2, 3, 9);
    let net = CompiledNet::compile(&machine);
    let batch = PacketBatch::compile(&net, &paths).unwrap();
    let cfg = RouterConfig::default();
    let mut scratch = RouterScratch::new();
    let baseline = route_compiled(&net, &batch, None, cfg, &mut scratch, None);
    for _ in 0..2 {
        assert_eq!(route_compiled_pooled(&net, &batch, cfg), baseline);
    }
}

/// The drain-tail regression: a saturated mesh with one straggler
/// scheduled long after the bulk drains. `route_compiled` must (a) return
/// the identical outcome, (b) publish the same delivered-packet telemetry,
/// and (c) have actually skipped the idle gap
/// (`router_ticks_skipped_total > 0`, one `router_wheel_max_depth`
/// observation for its one run).
#[test]
fn drain_tail_skips_ticks_with_equal_outcome_and_telemetry() {
    let _gate = TELEMETRY_GATE.lock().unwrap();
    let machine = Machine::mesh(2, 16);
    let paths = symmetric_batch(&machine, 4, 21, 77);
    let net = CompiledNet::compile(&machine);
    let batch = PacketBatch::compile(&net, &paths).unwrap();
    // Bulk at tick 0, one straggler far past the drain of a mesh2(16)
    // batch (which completes within a few hundred ticks).
    let mut at = vec![0u64; batch.len()];
    at[0] = 50_000;
    let sched = InjectionSchedule::new(at);
    let cfg = RouterConfig::default();
    let mut scratch = RouterScratch::new();
    let mut escratch = RouterScratch::new();

    let reg = fcn_telemetry::global();
    let _ = fcn_telemetry::take_shard();
    reg.set_enabled(true);
    let tick = route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, None);
    reg.set_enabled(false);
    let tick_shard = fcn_telemetry::take_shard();

    reg.set_enabled(true);
    let events = route_compiled(&net, &batch, Some(&sched), cfg, &mut escratch, None);
    reg.set_enabled(false);
    let events_shard = fcn_telemetry::take_shard();

    assert_eq!(events, tick, "drain-tail outcome diverged");
    assert!(events.completed);
    assert!(events.ticks >= 50_000, "straggler bounds the run");
    assert_eq!(
        events_shard.counter(fcn_telemetry::names::ROUTER_DELIVERED_TOTAL),
        tick_shard.counter(fcn_telemetry::names::ROUTER_DELIVERED_TOTAL),
        "delivered telemetry diverged"
    );
    assert_eq!(
        events_shard.counter(fcn_telemetry::names::ROUTER_TICKS_TOTAL),
        tick_shard.counter(fcn_telemetry::names::ROUTER_TICKS_TOTAL),
        "simulated-tick telemetry is outcome ticks, skip armed or not"
    );
    // The skip-free loop never skips; the armed run must have skipped almost
    // the whole idle gap.
    assert_eq!(
        tick_shard.counter(fcn_telemetry::names::ROUTER_TICKS_SKIPPED_TOTAL),
        0
    );
    let skipped = events_shard.counter(fcn_telemetry::names::ROUTER_TICKS_SKIPPED_TOTAL);
    assert!(skipped > 40_000, "only {skipped} ticks skipped");
    // One run, armed once: the wheel-depth histogram observes the
    // skip-armed run and never the skip-free loop.
    assert_eq!(
        events_shard.counter(fcn_telemetry::names::ROUTER_RUNS_TOTAL),
        1
    );
    assert_eq!(
        events_shard
            .histogram(fcn_telemetry::names::ROUTER_WHEEL_MAX_DEPTH)
            .count,
        1
    );
    assert_eq!(
        tick_shard
            .histogram(fcn_telemetry::names::ROUTER_WHEEL_MAX_DEPTH)
            .count,
        0
    );
    // The occupancy histogram observes every tick — simulated or skipped —
    // skip armed or not.
    assert_eq!(
        events_shard
            .histogram(fcn_telemetry::names::ROUTER_QUEUE_OCCUPANCY)
            .count,
        events.ticks
    );
    assert_eq!(
        tick_shard
            .histogram(fcn_telemetry::names::ROUTER_QUEUE_OCCUPANCY)
            .count,
        tick.ticks
    );
}

/// Outage windows that open and close entirely inside a skipped gap are
/// counted as skipped (the `fcnemu faults --verbose` counter), and the
/// outcome still matches the skip-free loop, which dutifully simulates them.
#[test]
fn fully_idle_outage_windows_are_counted_skipped() {
    let _gate = TELEMETRY_GATE.lock().unwrap();
    let machine = Machine::linear_array(6);
    let paths = plan_routes(&machine, &[(0, 2), (5, 3)], Strategy::ShortestPath, 9);
    // Windows on links the packets never occupy at window time: both
    // packets drain within ~3 ticks of injection, the windows sit at
    // 1000–1100, and the straggler comes due at 9000.
    let win = |u: u32, v: u32| LinkOutage {
        u,
        v,
        start: 1000,
        end: 1100,
        capacity: 0,
    };
    let plan = FaultPlan::assemble(vec![], vec![], vec![win(2, 3), win(3, 4)]);
    let net = CompiledNet::compile(&machine).apply_faults(&plan);
    let batch = PacketBatch::compile(&net, &paths).unwrap();
    let sched = InjectionSchedule::new(vec![0, 9000]);
    let cfg = RouterConfig::default();
    let mut scratch = RouterScratch::new();
    let mut escratch = RouterScratch::new();

    let reg = fcn_telemetry::global();
    let _ = fcn_telemetry::take_shard();
    reg.set_enabled(true);
    let events = route_compiled(&net, &batch, Some(&sched), cfg, &mut escratch, None);
    reg.set_enabled(false);
    let shard = fcn_telemetry::take_shard();

    let tick = route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, None);
    assert_eq!(events, tick);
    assert!(events.completed);
    // Each undirected outage window covers two directed wires.
    assert_eq!(
        shard.counter(fcn_telemetry::names::ROUTER_OUTAGE_WINDOWS_SKIPPED_TOTAL),
        4,
        "both windows (× two directed wires) lay inside the skipped gap"
    );
}

fn machine_for(pick: usize, size: usize) -> Machine {
    match pick {
        0..=3 => FAMILIES[pick].build_near(size, 0x11),
        4 => Machine::global_bus(size.clamp(4, 24)),
        _ => Machine::weak_hypercube(3 + (size % 3) as u32),
    }
}

/// The machine's undirected links (u < v), for outage placement.
fn links_of(machine: &Machine) -> Vec<(u32, u32)> {
    let g = machine.graph();
    let mut links = Vec::new();
    for u in 0..g.node_count() as u32 {
        for (v, _) in g.neighbors(u) {
            if u < v {
                links.push((u, v));
            }
        }
    }
    links
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary sparse batches with arbitrary injection schedules never
    /// diverge between the skip-free loop and the skip-armed run: any machine, any
    /// demands, any scatter of injection ticks, all three disciplines,
    /// generous and starved budgets.
    #[test]
    fn arbitrary_schedules_preserve_outcomes(
        pick in 0usize..6,
        size in 12usize..64,
        seed in proptest::strategy::any::<u64>(),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>(), 0u64..600),
            1..40,
        ),
        starved in proptest::strategy::any::<bool>(),
    ) {
        let machine = machine_for(pick, size);
        let n = machine.processors() as u64;
        let demands: Vec<_> = raw.iter().map(|&(s, d, _)| ((s % n) as u32, (d % n) as u32)).collect();
        let paths = plan_routes(&machine, &demands, Strategy::ShortestPath, seed);
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let sched = InjectionSchedule::new(raw.iter().map(|&(_, _, t)| t).collect());
        let mut scratch = RouterScratch::new();
        let mut escratch = RouterScratch::new();
        for discipline in DISCIPLINES {
            let cfg = RouterConfig {
                discipline,
                seed,
                max_ticks: if starved { 4 } else { u64::MAX },
            };
            let tick = route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, None);
            let events = route_compiled(&net, &batch, Some(&sched), cfg, &mut escratch, None);
            prop_assert!(
                events == tick,
                "{:?}: {:?} != {:?}",
                discipline,
                events,
                tick
            );
        }
    }

    /// Arbitrary outage schedules on arbitrary small nets: window gating,
    /// wheel wakeups, and the skipped-window counter compose without
    /// changing a bit — batch and scheduled semantics both.
    #[test]
    fn arbitrary_outages_preserve_outcomes(
        pick in 0usize..4,
        size in 16usize..64,
        seed in proptest::strategy::any::<u64>(),
        outage_picks in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), 0u64..400, 1u64..200),
            1..8,
        ),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>(), 0u64..500),
            1..32,
        ),
    ) {
        let machine = machine_for(pick, size);
        let n = machine.processors() as u64;
        let demands: Vec<_> = raw.iter().map(|&(s, d, _)| ((s % n) as u32, (d % n) as u32)).collect();
        let paths = plan_routes(&machine, &demands, Strategy::ShortestPath, seed);
        let links = links_of(&machine);
        let outages: Vec<_> = outage_picks
            .iter()
            .map(|&(l, start, len)| {
                let (u, v) = links[(l % links.len() as u64) as usize];
                LinkOutage { u, v, start, end: start + len, capacity: 0 }
            })
            .collect();
        let fplan = FaultPlan::assemble(vec![], vec![], outages);
        let net = CompiledNet::compile(&machine).apply_faults(&fplan);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let sched = InjectionSchedule::new(raw.iter().map(|&(_, _, t)| t).collect());
        let mut scratch = RouterScratch::new();
        let mut escratch = RouterScratch::new();
        let cfg = RouterConfig { discipline: QueueDiscipline::Fifo, seed, ..Default::default() };
        let batch_tick = route_every_tick(&net, &batch, None, cfg, &mut scratch, None);
        let batch_events = route_compiled(&net, &batch, None, cfg, &mut escratch, None);
        prop_assert!(batch_events == batch_tick, "batch: {:?} != {:?}", batch_events, batch_tick);
        let tick = route_every_tick(&net, &batch, Some(&sched), cfg, &mut scratch, None);
        let events = route_compiled(&net, &batch, Some(&sched), cfg, &mut escratch, None);
        prop_assert!(events == tick, "scheduled: {:?} != {:?}", events, tick);
    }
}

/// Boundary ticks for the wheel proptests: every base-64 level edge
/// (`64^k ± 2` straddles the slot-shift rollover between wheel levels),
/// the `64^6` overflow threshold, and large u64 values up to the top of
/// the range — the places where `EventWheel::place`'s leading-zeros
/// arithmetic changes regime.
fn boundary_tick(pick: usize, off: u64) -> u64 {
    const BASES: [u64; 11] = [
        0,
        64,           // level 0 → 1
        64 * 64,      // level 1 → 2
        64 * 64 * 64, // level 2 → 3
        1 << 24,      // 64^4: level 3 → 4
        1 << 30,      // 64^5: level 4 → 5
        1 << 36,      // 64^6: wheel → overflow list
        1 << 48,
        1 << 63,
        u64::MAX - 4,
        12_345, // one interior non-boundary control point
    ];
    BASES[pick % BASES.len()]
        .saturating_sub(2)
        .saturating_add(off)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `EventWheel::next_after` against a naive multiset reference, with
    /// every entry and every query tick clustered on level-rollover
    /// boundaries (`64^k ± 2`), the overflow threshold, and large u64
    /// values: each query must drop exactly the entries at ticks `<= now`,
    /// return the minimum surviving tick, and keep `len()` in lockstep.
    #[test]
    fn wheel_next_after_matches_reference_at_rollovers(
        entries in proptest::collection::vec((0usize..32, 0u64..5), 1..48),
        queries in proptest::collection::vec((0usize..32, 0u64..5), 1..12),
    ) {
        let mut wheel = fcn_routing::EventWheel::new();
        let mut model: Vec<u64> = Vec::new();
        for &(pick, off) in &entries {
            let t = boundary_tick(pick, off);
            wheel.push(t, fcn_routing::EventKind::Inject);
            model.push(t);
        }
        prop_assert_eq!(wheel.len(), model.len());
        for &(pick, off) in &queries {
            let now = boundary_tick(pick, off);
            let got = wheel.next_after(now);
            model.retain(|&t| t > now);
            let want = model.iter().copied().min();
            prop_assert!(got == want, "now = {}: got {:?}, want {:?}", now, got, want);
            prop_assert!(
                wheel.len() == model.len(),
                "now = {}: len {} != {}",
                now,
                wheel.len(),
                model.len()
            );
        }
    }
}

/// Regression pin for the seeded-wakeup path: a seeded scatter of wake
/// ticks (the shape `route_compiled` pushes for injections and fault-window
/// wakeups) must be visited by the `now = next_after(now)` walk in exactly
/// sorted-distinct order, across level rollovers and into the overflow
/// list, leaving the wheel empty once the walk passes the last wake.
#[test]
fn wheel_seeded_wakeup_walk_visits_sorted_distinct_ticks() {
    use rand::RngExt as _;
    use rand::SeedableRng as _;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_bee5);
    let mut wheel = fcn_routing::EventWheel::new();
    let mut ticks: Vec<u64> = Vec::new();
    for i in 0..400u64 {
        // Mix magnitudes so every level (and the overflow list) is hit:
        // shift a seeded 36-bit draw down by a per-entry level choice.
        let raw: u64 = rng.random();
        let t = (raw & ((1 << 36) - 1)) >> (6 * (i % 7));
        let kind = if i % 3 == 0 {
            fcn_routing::EventKind::WindowWakeup
        } else {
            fcn_routing::EventKind::Inject
        };
        wheel.push(t, kind);
        ticks.push(t);
    }
    ticks.sort_unstable();
    ticks.dedup();
    let mut walk = Vec::new();
    // Start below every entry: tick 0 entries are dropped by `next_after(0)`
    // (they are "in the past" of now = 0), matching the engine, which only
    // consults the wheel after simulating tick `now`.
    let mut now = 0u64;
    while let Some(next) = wheel.next_after(now) {
        walk.push(next);
        now = next;
    }
    let expect: Vec<u64> = ticks.into_iter().filter(|&t| t > 0).collect();
    assert_eq!(walk, expect, "seeded wakeup walk must be sorted-distinct");
    // The terminating `next_after` (the one that returned `None`) treated
    // the last wake as stale and dropped it: the wheel ends empty.
    assert_eq!(
        wheel.len(),
        0,
        "walking past the last wake empties the wheel"
    );
    assert_eq!(wheel.next_after(0), None);
}
