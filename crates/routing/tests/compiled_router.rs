//! The compiled router's contract: same bits as the reference simulator.
//!
//! Four layers of evidence:
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
//! * **Heavy-contention pin** — 2n and 8n symmetric packets on every
//!   family at n ≈ 128 drive both tick loops (the wire loop for priority
//!   disciplines on unit-capacity nets, the node loop for the rest)
//!   through completed runs, mid-run aborts and a preset cancel flag, with
//!   one scratch shared across loops; every run also respects its batch's
//!   congestion/dilation floor `max(C, D)`.
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

/// True when `machine` compiles to a unit-capacity net: every wire of
/// capacity 1 and no send budget. Priority runs on such a net take the
/// wire loop; every other run takes the node loop.
fn is_unit(machine: &Machine) -> bool {
    !machine.has_node_capacities()
        && machine
            .graph()
            .edges()
            .all(|e| e.u == e.v || e.multiplicity == 1)
}

/// `max(C, D)` for `batch`: C is the largest ⌈load / capacity⌉ over wires
/// and over send-budgeted nodes, D the longest route. No schedule
/// delivers the batch in fewer ticks.
fn congestion_dilation_floor(machine: &Machine, net: &CompiledNet, batch: &PacketBatch) -> u64 {
    let mut wire_load = vec![0u64; net.wire_count()];
    let mut node_sends = vec![0u64; net.node_count()];
    let mut dilation = 0u64;
    for i in 0..batch.len() {
        dilation = dilation.max(batch.hops(i) as u64);
        for &w in batch.wires(i) {
            wire_load[w as usize] += 1;
            node_sends[net.wire_tail(w) as usize] += 1;
        }
    }
    let wires = (0..net.wire_count() as u32).map(|w| {
        let cap = machine
            .graph()
            .multiplicity(net.wire_tail(w), net.wire_head(w));
        wire_load[w as usize].div_ceil(cap as u64)
    });
    let nodes = (0..net.node_count() as u32)
        .map(|u| node_sends[u as usize].div_ceil(machine.send_capacity(u) as u64));
    wires.chain(nodes).max().unwrap_or(0).max(dilation)
}

/// The abort-and-reuse schedule one scratch runs per batch: `(discipline,
/// abort mid-run)`. Each abort is followed at once by a run on the other
/// loop (on unit nets), so arena residue from an aborted node-loop run
/// must not leak into the wire loop, nor the other way round.
const SCHEDULE: [(QueueDiscipline, bool); 6] = [
    (QueueDiscipline::Fifo, true),
    (QueueDiscipline::FarthestFirst, false),
    (QueueDiscipline::FarthestFirst, true),
    (QueueDiscipline::Fifo, false),
    (QueueDiscipline::RandomRank, true),
    (QueueDiscipline::RandomRank, false),
];

/// Heavy-contention pin: 2n and 8n symmetric packets on every family at
/// n ≈ 64–256, under every discipline, each run to completion and aborted
/// on `max_ticks` halfway, through one scratch shared by every run. Both
/// loops must meet the reference field for field, no run may beat the
/// batch's congestion/dilation floor, and a preset cancel flag must stop
/// either loop right after injection.
#[test]
fn heavy_contention_pin_every_family_both_loops() {
    use rand::SeedableRng;
    let mut scratch = RouterScratch::new();
    let mut unit_machines = 0;
    let mut other_machines = 0;
    let raised = AtomicBool::new(true);
    for (fi, family) in Family::all_with_dims(&[1, 2, 3]).iter().enumerate() {
        let machine = family.build_near(128, 0x11);
        if is_unit(&machine) {
            unit_machines += 1;
        } else {
            other_machines += 1;
        }
        let net = CompiledNet::compile(&machine);
        let traffic = machine.symmetric_traffic();
        for load in [2, 8] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x4ea7 + fi as u64);
            let demands: Vec<_> = (0..load * traffic.n())
                .map(|_| traffic.sample(&mut rng))
                .collect();
            let paths = plan_routes_cached(
                &machine,
                &demands,
                Strategy::ShortestPath,
                5 + load as u64,
                None,
            );
            let batch = PacketBatch::compile(&net, &paths).unwrap();
            let floor = congestion_dilation_floor(&machine, &net, &batch);
            let label = |d: QueueDiscipline| format!("{} / {load}n / {d:?}", machine.name());
            for (discipline, abort) in SCHEDULE {
                let full = RouterConfig {
                    discipline,
                    seed: 0xc0de + fi as u64,
                    max_ticks: u64::MAX,
                };
                let expected = reference::route_batch(&machine, paths.clone(), full).unwrap();
                assert!(expected.completed, "{}", label(discipline));
                assert!(
                    expected.ticks >= floor,
                    "{}: {} ticks beat max(C, D) = {floor}",
                    label(discipline),
                    expected.ticks
                );
                let cfg = if abort {
                    RouterConfig {
                        max_ticks: expected.ticks / 2,
                        ..full
                    }
                } else {
                    full
                };
                let expected = if abort {
                    let cut = reference::route_batch(&machine, paths.clone(), cfg).unwrap();
                    assert_eq!(cut.abort, AbortCause::MaxTicks, "{}", label(discipline));
                    cut
                } else {
                    expected
                };
                let got = route_compiled(&net, &batch, cfg, &mut scratch, None);
                assert_eq!(got, expected, "{} / abort {abort}", label(discipline));
            }
            // A preset flag stops before tick 1: the outcome is the
            // reference's zero-tick budget, with the cause renamed.
            for discipline in DISCIPLINES {
                let cfg = RouterConfig {
                    discipline,
                    seed: 3,
                    max_ticks: 0,
                };
                let zero = reference::route_batch(&machine, paths.clone(), cfg).unwrap();
                let cfg = RouterConfig {
                    max_ticks: u64::MAX,
                    ..cfg
                };
                let got = route_compiled(&net, &batch, cfg, &mut scratch, Some(&raised));
                assert_eq!(
                    got,
                    RoutingOutcome {
                        abort: AbortCause::Cancelled,
                        ..zero
                    },
                    "{} / cancelled",
                    label(discipline)
                );
            }
        }
    }
    assert!(unit_machines >= 8, "{unit_machines} unit-capacity machines");
    assert!(
        other_machines >= 3,
        "{other_machines} budgeted or wide machines"
    );
}

#[test]
fn weak_machines_pin_send_budgets() {
    // Per-node send caps (bus hub, weak hypercube) gate each tick's sends
    // by a budget rather than by wire capacity alone: the subtle half of
    // the wire model, pinned separately under every discipline with one
    // scratch reused across machines, disciplines and runs.
    let mut scratch = RouterScratch::new();
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
        for discipline in DISCIPLINES {
            let cfg = RouterConfig {
                discipline,
                ..RouterConfig::default()
            };
            let expected =
                reference::route_batch(&machine, paths.clone(), cfg).expect("batch fits u32 ids");
            assert!(expected.completed, "{} / {discipline:?}", machine.name());
            for run in 0..2 {
                assert_eq!(
                    route_compiled(&net, &batch, cfg, &mut scratch, None),
                    expected,
                    "{} / {discipline:?} / run {run}",
                    machine.name()
                );
            }
        }
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

/// The vertex-path planning pipeline the wire writer replaced, kept as the
/// writer's spec: each route is a `Vec` of vertices, and a cell's batch is
/// `PacketBatch::compile` of its routes.
mod vertex_planner {
    use std::collections::BTreeMap;

    use fcn_exec::job_seed;
    use fcn_faults::FaultPlan;
    use fcn_multigraph::{bfs_parents_shuffled, path_from_parents, Multigraph, NodeId};
    use fcn_routing::{PacketPath, Strategy};
    use fcn_topology::{Machine, RoutePolicy};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The oracle's BFS seed stream (`oracle.rs`).
    const BFS_STREAM: u64 = 0xb5f5_0000_0000_0001;

    type Route = Option<Vec<NodeId>>;

    /// One cell's plan: routes of the routable demands, the unreachable
    /// demands' indices, and the repairs that found a route.
    pub struct Cell {
        pub paths: Vec<PacketPath>,
        pub unreachable: Vec<usize>,
        pub replans: u64,
    }

    /// BFS shortest paths, one whole tree per distinct source.
    fn legs(
        g: &Multigraph,
        limit: usize,
        seed: u64,
        demands: &[(NodeId, NodeId)],
    ) -> (Vec<Route>, u64) {
        let mut trees: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        let routes = demands
            .iter()
            .map(|&(s, d)| {
                let parent = trees.entry(s).or_insert_with(|| {
                    let mut rng = StdRng::seed_from_u64(job_seed(seed ^ BFS_STREAM, s as u64));
                    bfs_parents_shuffled(g, s, limit, None, &mut rng).0
                });
                if s == d {
                    Some(vec![s])
                } else {
                    path_from_parents(parent, s, d)
                }
            })
            .collect();
        (routes, trees.len() as u64)
    }

    fn valiant(
        g: &Multigraph,
        limit: usize,
        seed: u64,
        demands: &[(NodeId, NodeId)],
    ) -> (Vec<Route>, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = g.node_count().min(limit) as NodeId;
        let mid: Vec<NodeId> = demands.iter().map(|_| rng.random_range(0..n)).collect();
        let first: Vec<_> = demands
            .iter()
            .zip(&mid)
            .map(|(&(s, _), &w)| (s, w))
            .collect();
        let second: Vec<_> = demands
            .iter()
            .zip(&mid)
            .map(|(&(_, d), &w)| (w, d))
            .collect();
        let (a, ta) = legs(g, limit, seed, &first);
        let (b, tb) = legs(g, limit, seed, &second);
        let joined = a
            .into_iter()
            .zip(b)
            .map(|(a, b)| {
                let (mut a, b) = (a?, b?);
                a.extend_from_slice(&b[1..]);
                Some(a)
            })
            .collect();
        (joined, ta + tb)
    }

    /// Shift-in walk `u -> v`, both directions built, the reversed one kept
    /// only when strictly shorter.
    fn de_bruijn(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
        let mask = (1u64 << g) - 1;
        let shift_of = |a: NodeId, b: NodeId| {
            let (a, b) = (a as u64, b as u64);
            (a << 1) & mask == b || ((a << 1) | 1) & mask == b
        };
        if u == v {
            return vec![u];
        }
        if shift_of(u, v) || shift_of(v, u) {
            return vec![u, v];
        }
        let walk = |a: NodeId, b: NodeId| {
            let mut path = vec![a];
            let mut cur = a as u64;
            for i in (0..g).rev() {
                if cur == b as u64 {
                    break;
                }
                let next = ((cur << 1) | ((b as u64 >> i) & 1)) & mask;
                if next != cur {
                    path.push(next as NodeId);
                    cur = next;
                }
            }
            path
        };
        let (fwd, mut rev) = (walk(u, v), walk(v, u));
        if rev.len() < fwd.len() {
            rev.reverse();
            rev
        } else {
            fwd
        }
    }

    fn shuffle_exchange(u: NodeId, v: NodeId, g: u32) -> Vec<NodeId> {
        let mask = (1u64 << g) - 1;
        let rot = |x: u64| ((x << 1) | (x >> (g - 1))) & mask;
        if u == v {
            return vec![u];
        }
        if (u ^ v) == 1 || rot(u as u64) == v as u64 || rot(v as u64) == u as u64 {
            return vec![u, v];
        }
        let (mut cur, mut path) = (u as u64, vec![u]);
        for j in 0..g {
            let pos = if j == 0 { 0 } else { g - j };
            if cur & 1 != (v as u64 >> pos) & 1 {
                cur ^= 1;
                path.push(cur as NodeId);
            }
            if rot(cur) != cur {
                cur = rot(cur);
                path.push(cur as NodeId);
            }
        }
        path
    }

    fn xtree(u: NodeId, v: NodeId, rng: &mut StdRng) -> Vec<NodeId> {
        if u == v {
            return vec![u];
        }
        let level = |x: NodeId| 31 - (x + 1).leading_zeros();
        let up = |x: NodeId| (x - 1) / 2;
        let (lu, lv) = (level(u), level(v));
        if (lu == lv + 1 && up(u) == v)
            || (lv == lu + 1 && up(v) == u)
            || (lu == lv && u.abs_diff(v) == 1)
        {
            return vec![u, v];
        }
        let ancestor = |mut x: NodeId, mut lx: u32, at: u32| {
            while lx > at {
                (x, lx) = (up(x), lx - 1);
            }
            x
        };
        let common = lu.min(lv);
        let (mut a, mut b, mut lca) = (ancestor(u, lu, common), ancestor(v, lv, common), common);
        while a != b {
            (a, b, lca) = (up(a), up(b), lca - 1);
        }
        let cross = if common <= lca {
            lca
        } else {
            rng.random_range(lca..=common)
        };
        let mut path = vec![u];
        let (mut x, mut lx) = (u, lu);
        while lx > cross {
            (x, lx) = (up(x), lx - 1);
            path.push(x);
        }
        let target = ancestor(v, lv, cross);
        while x != target {
            x = if x < target { x + 1 } else { x - 1 };
            path.push(x);
        }
        let mut down = Vec::new();
        let (mut y, mut ly) = (v, lv);
        while ly > cross {
            down.push(y);
            (y, ly) = (up(y), ly - 1);
        }
        path.extend(down.iter().rev());
        path
    }

    /// Plan `batches` like `fcn_routing::plan_trial`, route by route.
    pub fn plan(
        machine: &Machine,
        faults: &FaultPlan,
        batches: &[Vec<(NodeId, NodeId)>],
        strategy: Strategy,
        seed: u64,
    ) -> (Vec<Cell>, u64) {
        let policy = machine.route_policy();
        let degraded = faults.degrade_graph(machine.graph());
        let limit = match policy {
            RoutePolicy::RestrictToPrefix(p) => p,
            _ => usize::MAX,
        };
        let bfs = strategy == Strategy::ShortestPath
            && matches!(
                policy,
                RoutePolicy::ShortestPath | RoutePolicy::RestrictToPrefix(_)
            );
        let mut trees = 0;
        let mut candidates: Vec<Vec<Route>> = if bfs {
            let (mut all, t) = legs(&degraded, limit, seed, &batches.concat());
            trees += t;
            batches
                .iter()
                .map(|b| all.drain(..b.len()).collect())
                .collect()
        } else {
            batches
                .iter()
                .map(|b| match (strategy, policy) {
                    (Strategy::Valiant, _) => {
                        let (routes, t) = valiant(&degraded, limit, seed, b);
                        trees += t;
                        routes
                    }
                    (_, RoutePolicy::DeBruijnBits { g }) => {
                        b.iter().map(|&(u, v)| Some(de_bruijn(u, v, g))).collect()
                    }
                    (_, RoutePolicy::ShuffleExchangeBits { g }) => b
                        .iter()
                        .map(|&(u, v)| Some(shuffle_exchange(u, v, g)))
                        .collect(),
                    (_, RoutePolicy::XTreeLevels { .. }) => {
                        let mut rng = StdRng::seed_from_u64(seed);
                        b.iter()
                            .map(|&(u, v)| Some(xtree(u, v, &mut rng)))
                            .collect()
                    }
                    _ => unreachable!("BFS policies plan above"),
                })
                .collect()
        };
        let mut replans = vec![0; batches.len()];
        if !faults.is_empty() {
            let mut repairs = Vec::new();
            for (b, routes) in candidates.iter_mut().enumerate() {
                for (i, route) in routes.iter_mut().enumerate() {
                    let (s, d) = batches[b][i];
                    let dead_end = faults.node_dead(s) || faults.node_dead(d);
                    if dead_end || route.as_ref().is_none_or(|p| faults.path_blocked(p)) {
                        *route = None;
                        if !dead_end && !bfs {
                            repairs.push((b, i));
                        }
                    }
                }
            }
            let demands: Vec<_> = repairs.iter().map(|&(b, i)| batches[b][i]).collect();
            let (repaired, t) = legs(&degraded, limit, seed, &demands);
            if !repairs.is_empty() {
                trees += t;
            }
            for (&(b, i), route) in repairs.iter().zip(repaired) {
                replans[b] += u64::from(route.is_some());
                candidates[b][i] = route;
            }
        }
        let cells = candidates
            .into_iter()
            .zip(replans)
            .map(|(routes, replans)| {
                let mut cell = Cell {
                    paths: Vec::new(),
                    unreachable: Vec::new(),
                    replans,
                };
                for (i, route) in routes.into_iter().enumerate() {
                    match route {
                        Some(p) => cell.paths.push(PacketPath::new(p)),
                        None => cell.unreachable.push(i),
                    }
                }
                cell
            })
            .collect();
        (cells, trees)
    }
}

/// The planners write every cell's wire ids directly; each planned cell
/// must equal `PacketBatch::compile` of the vertex paths the old pipeline
/// planned — every family at n ≈ 64–256, both strategies, intact and under
/// a seeded fault plan, on one to three workers, with no cache and with a
/// storing one — and so must its unreachable demands, its repairs and the
/// trial's tree count.
#[test]
fn planned_cells_equal_the_vertex_path_pipeline() {
    use fcn_exec::Pool;
    use fcn_faults::FaultSpec;
    use fcn_routing::{plan_trial, PlanCache, RouteCtx};
    use rand::SeedableRng;
    let (mut replans, mut unreachable, mut resting) = (0, 0, 0);
    for (fi, family) in Family::all_with_dims(&[1, 2, 3]).iter().enumerate() {
        let machine = family.build_near(64 + 48 * (fi % 5), 0x11);
        let traffic = machine.symmetric_traffic();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xd1ff + fi as u64);
        let batches: Vec<Vec<(u32, u32)>> = [1, 2]
            .iter()
            .map(|&k| {
                let mut cell: Vec<_> = (0..k * traffic.n())
                    .map(|_| traffic.sample(&mut rng))
                    .collect();
                cell.extend((0..3).map(|i| (i * 5, i * 5)));
                cell
            })
            .collect();
        let slices: Vec<&[(u32, u32)]> = batches.iter().map(Vec::as_slice).collect();
        let faulted = FaultPlan::generate(machine.graph(), &FaultSpec::uniform(fi as u64, 0.08));
        for faults in [FaultPlan::none(), faulted] {
            // The faulted net and surviving graph, built once per plan.
            let base = RouteCtx::new(&machine).with_faults(&faults);
            for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
                let seed = 0x5eed ^ fi as u64;
                let (cells, trees) =
                    vertex_planner::plan(&machine, &faults, &batches, strategy, seed);
                let compiled: Vec<PacketBatch> = cells
                    .iter()
                    .map(|want| PacketBatch::compile(base.net(), &want.paths))
                    .collect::<Result<_, _>>()
                    .expect("old planner paths are walks");
                // The six (jobs, cache) cases are independent: run them at
                // once, each on its own thread.
                let (machine, faults, base) = (&machine, &faults, &base);
                let (slices, cells, compiled) = (&slices, &cells, &compiled);
                std::thread::scope(|scope| {
                    for jobs in [1, 2, 3] {
                        for stores in [false, true] {
                            scope.spawn(move || {
                                let cache = stores.then(PlanCache::default);
                                let ctx = match &cache {
                                    Some(c) => base.clone().with_cache(c),
                                    None => base.clone(),
                                };
                                let what = format!(
                                    "{} {strategy:?} faults={} jobs={jobs} cache={stores}",
                                    machine.name(),
                                    faults.summary().1,
                                );
                                let plan =
                                    plan_trial(&ctx, slices, strategy, seed, Pool::new(jobs));
                                let want_trees = cache.as_ref().map_or(trees, PlanCache::misses);
                                assert_eq!(plan.trees, want_trees, "{what}");
                                for ((got, want), compiled) in
                                    plan.batches.iter().zip(cells).zip(compiled)
                                {
                                    assert_eq!(&got.batch, compiled, "{what}");
                                    assert_eq!(got.unreachable, want.unreachable, "{what}");
                                    assert_eq!(got.replans, want.replans, "{what}");
                                }
                            });
                        }
                    }
                });
                for cell in cells {
                    replans += cell.replans;
                    unreachable += cell.unreachable.len();
                    resting += cell.paths.iter().filter(|p| p.hops() == 0).count();
                }
            }
        }
    }
    assert!(
        replans > 0 && unreachable > 0 && resting > 0,
        "{replans} {unreachable} {resting}"
    );
}
