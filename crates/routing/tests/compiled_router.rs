//! The compiled router's contract: same bits as the reference simulator.
//!
//! Two layers of evidence:
//!
//! * **Round-trip properties** — flattening planner paths into a
//!   [`PacketBatch`] and decoding them back through the [`CompiledNet`]
//!   reproduces the exact vertex sequences, across every route policy the
//!   planners implement (BFS, restricted BFS, bit-correction, level walks)
//!   and both strategies.
//! * **Equivalence pins** — [`fcn_routing::route_compiled`] produces the
//!   *identical* [`RoutingOutcome`] (ticks, delivered, max queue, rate) as
//!   the retained pre-compilation simulator
//!   `fcn_routing::engine::reference::route_batch` across the determinism
//!   families × all three queue disciplines, including tick-budget aborts.
//! * **Hand-computed pins** — the reference simulator predates the fault
//!   plane and cancellation, so outage windows, dead wires, the frozen-net
//!   `MaxTicks` abort and a pre-set cancel flag are pinned to outcomes
//!   worked out by hand on tiny machines.
//!
//! Together these justify calling the rewrite a pure performance change:
//! every number the paper tables ingest is unchanged.

use std::sync::atomic::AtomicBool;

use fcn_faults::{FaultPlan, LinkOutage};
use fcn_routing::engine::reference;
use fcn_routing::{
    plan_routes_cached, route_compiled, AbortCause, CompiledNet, PacketBatch, PacketPath,
    QueueDiscipline, RouteError, RouterConfig, RouterScratch, RoutingOutcome, Strategy,
};
use fcn_topology::{Family, Machine};
use proptest::prelude::*;

/// The determinism-suite families: qualitatively different route policies
/// (BFS mesh, root-heavy tree, arithmetic de Bruijn, level-walk X-tree).
const FAMILIES: [Family; 4] = [
    Family::Mesh(2),
    Family::Tree,
    Family::DeBruijn,
    Family::XTree,
];

fn machine_for(pick: usize, size: usize) -> Machine {
    FAMILIES[pick % FAMILIES.len()].build_near(size, 0x11)
}

fn demands_on(machine: &Machine, raw: &[(u64, u64)]) -> Vec<(u32, u32)> {
    let n = machine.processors() as u64;
    raw.iter()
        .map(|&(s, d)| ((s % n) as u32, (d % n) as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packet_batch_round_trips_planner_paths(
        pick in 0usize..4,
        size in 16usize..96,
        seed in proptest::strategy::any::<u64>(),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..40,
        ),
    ) {
        let machine = machine_for(pick, size);
        let demands = demands_on(&machine, &raw);
        let net = CompiledNet::compile(&machine);
        for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
            let paths = plan_routes_cached(&machine, &demands, strategy, seed, None);
            let batch = PacketBatch::compile(&net, &paths)
                .expect("planner paths are graph walks");
            prop_assert_eq!(batch.len(), paths.len());
            let mut hop_sum = 0usize;
            for (i, p) in paths.iter().enumerate() {
                prop_assert_eq!(batch.hops(i) as usize, p.hops());
                prop_assert_eq!(&batch.decode_path(&net, i), &p.path);
                // Every pre-resolved wire id must be exactly the wire the
                // tick loop would otherwise re-derive for that hop.
                for (h, &w) in batch.wires(i).iter().enumerate() {
                    prop_assert_eq!(net.wire_head(w), p.path[h + 1]);
                    prop_assert_eq!(net.wire_between(p.path[h], p.path[h + 1]), Some(w));
                }
                hop_sum += p.hops();
            }
            prop_assert_eq!(batch.total_hops() as usize, hop_sum);
        }
    }

    #[test]
    fn compiled_router_matches_reference(
        pick in 0usize..4,
        size in 16usize..80,
        seed in proptest::strategy::any::<u64>(),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..48,
        ),
    ) {
        let machine = machine_for(pick, size);
        let demands = demands_on(&machine, &raw);
        let paths = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, seed, None);
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let mut scratch = RouterScratch::new();
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::FarthestFirst,
            QueueDiscipline::RandomRank,
        ] {
            let cfg = RouterConfig { discipline, seed, ..Default::default() };
            let old = reference::route_batch(&machine, paths.clone(), cfg).expect("batch fits u32 ids");
            let new = route_compiled(&net, &batch, cfg, &mut scratch, None);
            prop_assert_eq!(old, new);
        }
    }
}

/// Deterministic pin at saturation scale: every family × discipline, batch
/// of 4n symmetric packets, plus a deliberately starved tick budget so the
/// abort path is covered too.
#[test]
fn equivalence_pin_families_times_disciplines() {
    for (fi, family) in FAMILIES.iter().enumerate() {
        let machine = family.build_near(64, 0x11);
        let traffic = machine.symmetric_traffic();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41 + fi as u64);
        let demands: Vec<_> = (0..4 * traffic.n())
            .map(|_| traffic.sample(&mut rng))
            .collect();
        let paths = plan_routes_cached(
            &machine,
            &demands,
            Strategy::ShortestPath,
            17 + fi as u64,
            None,
        );
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let mut scratch = RouterScratch::new();
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::FarthestFirst,
            QueueDiscipline::RandomRank,
        ] {
            for max_ticks in [u64::MAX, 8] {
                let cfg = RouterConfig {
                    discipline,
                    seed: 99,
                    max_ticks,
                };
                let old = reference::route_batch(&machine, paths.clone(), cfg)
                    .expect("batch fits u32 ids");
                let new = route_compiled(&net, &batch, cfg, &mut scratch, None);
                assert_eq!(
                    old,
                    new,
                    "{} / {discipline:?} / max_ticks {max_ticks}",
                    machine.name()
                );
                if max_ticks == 8 {
                    assert!(!new.completed, "starved budget must abort");
                }
            }
        }
    }
}

#[test]
fn weak_machines_pin_send_budgets() {
    // Per-node send caps (bus hub, weak hypercube) are the subtle half of
    // the wire model; pin them separately.
    for machine in [Machine::global_bus(16), Machine::weak_hypercube(4)] {
        let traffic = machine.symmetric_traffic();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let demands: Vec<_> = (0..3 * traffic.n())
            .map(|_| traffic.sample(&mut rng))
            .collect();
        let paths = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, 23, None);
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        let mut scratch = RouterScratch::new();
        let cfg = RouterConfig::default();
        let old = reference::route_batch(&machine, paths.clone(), cfg).expect("batch fits u32 ids");
        let new = route_compiled(&net, &batch, cfg, &mut scratch, None);
        assert_eq!(old, new, "{}", machine.name());
    }
}

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::FarthestFirst,
    QueueDiscipline::RandomRank,
];

/// `linear_array(4)` with the link 1 — 2 at capacity 0 over ticks
/// `start..end`, and the one-packet batch 0 → 1 → 2 → 3.
fn gated_line(start: u64, end: u64) -> (CompiledNet, PacketBatch) {
    let machine = Machine::linear_array(4);
    let outage = LinkOutage {
        u: 1,
        v: 2,
        start,
        end,
        capacity: 0,
    };
    let plan = FaultPlan::assemble(vec![], vec![], vec![outage]);
    let net = CompiledNet::compile(&machine).apply_faults(&plan);
    let batch = PacketBatch::compile(&net, &[PacketPath::new(vec![0, 1, 2, 3])]).unwrap();
    (net, batch)
}

/// Tick `t` sends with the capacity in force at `t - 1`. The packet crosses
/// 0 → 1 at tick 1 and then waits on wire 1 → 2 while the window is open
/// (queries 1..=9, ticks 2..=10). It crosses 1 → 2 at tick 11 and 2 → 3 at
/// tick 12.
#[test]
fn outage_window_delays_delivery_to_the_exact_tick() {
    let (net, batch) = gated_line(1, 10);
    let mut scratch = RouterScratch::new();
    for discipline in DISCIPLINES {
        let cfg = RouterConfig {
            discipline,
            ..Default::default()
        };
        let out = route_compiled(&net, &batch, cfg, &mut scratch, None);
        assert_eq!(
            out,
            RoutingOutcome {
                ticks: 12,
                delivered: 1,
                total: 1,
                completed: true,
                max_queue: 1,
                total_hops: 3,
                stranded: 0,
                abort: AbortCause::Completed,
            },
            "{discipline:?}"
        );
    }
    // A window that closes before the packet reaches the link costs nothing.
    let (net, batch) = gated_line(0, 1);
    let out = route_compiled(&net, &batch, RouterConfig::default(), &mut scratch, None);
    assert_eq!((out.ticks, out.abort), (3, AbortCause::Completed));
}

/// A window far past the budget freezes the packet on wire 1 → 2: the run
/// spends every tick of `max_ticks` and aborts with exactly one hop made.
#[test]
fn frozen_net_aborts_at_exactly_max_ticks() {
    let (net, batch) = gated_line(1, 1 << 40);
    let mut scratch = RouterScratch::new();
    for discipline in DISCIPLINES {
        let cfg = RouterConfig {
            discipline,
            seed: 3,
            max_ticks: 50_000,
        };
        let out = route_compiled(&net, &batch, cfg, &mut scratch, None);
        assert_eq!(out.abort, AbortCause::MaxTicks, "{discipline:?}");
        assert_eq!(out.ticks, 50_000, "budget spent to the tick");
        assert_eq!((out.delivered, out.total_hops), (0, 1));
        assert!(!out.completed);
    }
}

/// A flag raised before the run stops it before tick 1: only the 0-hop
/// packets (delivered at injection) count, and no wire is crossed.
#[test]
fn preset_cancel_flag_stops_at_tick_zero() {
    let machine = Machine::linear_array(4);
    let net = CompiledNet::compile(&machine);
    let paths = [
        PacketPath::new(vec![0, 1, 2, 3]),
        PacketPath::new(vec![2]),
        PacketPath::new(vec![3, 2]),
    ];
    let batch = PacketBatch::compile(&net, &paths).unwrap();
    let cancel = AtomicBool::new(true);
    let mut scratch = RouterScratch::new();
    for discipline in DISCIPLINES {
        let cfg = RouterConfig {
            discipline,
            ..Default::default()
        };
        let out = route_compiled(&net, &batch, cfg, &mut scratch, Some(&cancel));
        assert_eq!(
            out,
            RoutingOutcome {
                ticks: 0,
                delivered: 1,
                total: 3,
                completed: false,
                max_queue: 1,
                total_hops: 0,
                stranded: 0,
                abort: AbortCause::Cancelled,
            },
            "{discipline:?}"
        );
    }
}

/// With link 1 — 2 dead, the two packets whose paths cross it are stranded
/// at injection; the two 1-hop packets deliver at tick 1 and the 0-hop one
/// at tick 0.
#[test]
fn dead_wire_paths_are_stranded_with_exact_counts() {
    let machine = Machine::linear_array(4);
    let plan = FaultPlan::assemble(vec![], vec![(1, 2)], vec![]);
    let net = CompiledNet::compile(&machine).apply_faults(&plan);
    let paths = [
        PacketPath::new(vec![0, 1, 2, 3]),
        PacketPath::new(vec![0, 1]),
        PacketPath::new(vec![3, 2]),
        PacketPath::new(vec![2, 1]),
        PacketPath::new(vec![2]),
    ];
    let batch = PacketBatch::compile(&net, &paths).unwrap();
    let mut scratch = RouterScratch::new();
    for discipline in DISCIPLINES {
        let cfg = RouterConfig {
            discipline,
            ..Default::default()
        };
        let out = route_compiled(&net, &batch, cfg, &mut scratch, None);
        assert_eq!(
            out,
            RoutingOutcome {
                ticks: 1,
                delivered: 3,
                total: 5,
                completed: false,
                max_queue: 1,
                total_hops: 2,
                stranded: 2,
                abort: AbortCause::Stranded,
            },
            "{discipline:?}"
        );
    }
}

#[test]
fn compile_rejects_malformed_paths_with_typed_errors() {
    let machine = Machine::mesh(2, 4); // 4x4 grid, node 0 and 5 not adjacent
    let net = CompiledNet::compile(&machine);
    let teleport = vec![PacketPath::new(vec![0, 5])];
    match PacketBatch::compile(&net, &teleport) {
        Err(RouteError::NoWire {
            from: 0,
            to: 5,
            packet: 0,
        }) => {}
        other => panic!("expected NoWire, got {other:?}"),
    }
    let out_of_range = vec![PacketPath::new(vec![2, 999])];
    match PacketBatch::compile(&net, &out_of_range) {
        Err(RouteError::NodeOutOfRange { node: 999, .. }) => {}
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
    // The error carries the *packet index*, so planner bugs in big batches
    // are attributable.
    let ok_then_bad = vec![PacketPath::new(vec![0, 1]), PacketPath::new(vec![0, 5])];
    match PacketBatch::compile(&net, &ok_then_bad) {
        Err(RouteError::NoWire { packet: 1, .. }) => {}
        other => panic!("expected NoWire at packet 1, got {other:?}"),
    }
}
