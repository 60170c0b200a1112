//! Telemetry transparency pins (observability must be a read-only lens).
//!
//! The `fcn-telemetry` registry is global and *off* by default; turning it
//! on must not change a single simulated bit. These tests run the same
//! routing workloads with collection disabled and enabled and compare the
//! full serialized records byte for byte — [`RoutingOutcome`]s from the
//! compiled router (including the abort path) and [`RateSample`]s from the
//! measurement harness, across machine families and queue disciplines.
//!
//! Tests in this file toggle the process-global registry, so they serialize
//! behind a mutex; each drains the thread shard afterwards to keep the
//! global state as it found it.

use fcn_routing::{
    measure_rate, plan_routes_cached, route_compiled, CompiledNet, PacketBatch, PacketPath,
    QueueDiscipline, RouterConfig, RouterScratch, RoutingOutcome, Strategy,
};
use fcn_telemetry::LocalShard;
use fcn_topology::{Family, Machine, SendCapacity};

/// Serializes registry toggling across the tests in this file. It is held
/// across whole test bodies, which take the routing crate's own locks, so
/// it is a plain mutex outside the flat lock order.
#[allow(
    clippy::disallowed_types,
    reason = "a test gate held across test bodies that take fcn_exec::sync::Lock"
)]
static TELEMETRY_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` twice — collection disabled, then enabled — and return both
/// results. Restores the disabled state and drains this thread's shard.
fn with_and_without_telemetry<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _gate = TELEMETRY_GATE.lock().unwrap();
    let reg = fcn_telemetry::global();
    reg.set_enabled(false);
    let off = f();
    reg.set_enabled(true);
    let on = f();
    reg.set_enabled(false);
    let _ = fcn_telemetry::take_shard();
    (off, on)
}

fn record<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("record serializes")
}

fn machines() -> Vec<Machine> {
    vec![
        Machine::mesh(2, 8),
        Machine::de_bruijn(6),
        Machine::xtree(5),
    ]
}

fn route_once(machine: &Machine, discipline: QueueDiscipline, max_ticks: u64) -> RoutingOutcome {
    use rand::SeedableRng as _;
    let traffic = machine.symmetric_traffic();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7e1e);
    let demands: Vec<_> = (0..4 * traffic.n())
        .map(|_| traffic.sample(&mut rng))
        .collect();
    let routes = plan_routes_cached(machine, &demands, Strategy::ShortestPath, 42, None);
    let net = CompiledNet::compile(machine);
    let batch = PacketBatch::compile(&net, &routes).expect("planner paths are walks");
    let cfg = RouterConfig {
        discipline,
        max_ticks,
        ..RouterConfig::default()
    };
    let mut scratch = RouterScratch::new();
    // Route twice through the same scratch so a reused scratch is
    // exercised too.
    let first = route_compiled(&net, &batch, cfg, &mut scratch, None);
    let second = route_compiled(&net, &batch, cfg, &mut scratch, None);
    assert_eq!(
        record(&first),
        record(&second),
        "scratch reuse changed bits"
    );
    first
}

#[test]
fn routing_outcomes_are_byte_identical_with_telemetry_on_and_off() {
    for machine in machines() {
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::FarthestFirst,
            QueueDiscipline::RandomRank,
        ] {
            let (off, on) =
                with_and_without_telemetry(|| route_once(&machine, discipline, 4_000_000));
            assert!(off.completed);
            assert_eq!(
                record(&off),
                record(&on),
                "{}: outcome differs under telemetry ({discipline:?})",
                machine.name()
            );
        }
    }
}

#[test]
fn aborted_runs_are_byte_identical_with_telemetry_on_and_off() {
    // A tick budget low enough that the run aborts: the abort path (and its
    // `router_aborts_total` instrumentation) must be transparent too.
    let machine = Machine::mesh(2, 8);
    let (off, on) = with_and_without_telemetry(|| route_once(&machine, QueueDiscipline::Fifo, 3));
    assert!(!off.completed, "budget of 3 ticks should abort");
    assert_eq!(
        record(&off),
        record(&on),
        "abort path differs under telemetry"
    );
}

#[test]
fn rate_samples_are_byte_identical_with_telemetry_on_and_off() {
    for machine in machines() {
        let traffic = machine.symmetric_traffic();
        let (off, on) = with_and_without_telemetry(|| {
            measure_rate(
                &machine,
                &traffic,
                4 * traffic.n(),
                Strategy::ShortestPath,
                RouterConfig::default(),
                0xbead,
            )
        });
        assert!(off.completed);
        assert_eq!(
            record(&off),
            record(&on),
            "{}: rate sample differs under telemetry",
            machine.name()
        );
    }
}

#[test]
fn enabled_run_actually_collects() {
    // Transparency is vacuous if the enabled arm never records anything:
    // pin that the enabled run populates the thread shard with the router's
    // headline counters, consistent with the outcome it returned.
    let _gate = TELEMETRY_GATE.lock().unwrap();
    let reg = fcn_telemetry::global();
    let _ = fcn_telemetry::take_shard();
    reg.set_enabled(true);
    let machine = Machine::mesh(2, 8);
    let out = route_once(&machine, QueueDiscipline::RandomRank, 4_000_000);
    reg.set_enabled(false);
    let shard = fcn_telemetry::take_shard();
    // route_once routes the batch twice through one scratch.
    assert_eq!(shard.counter("router_runs_total"), 2);
    assert_eq!(shard.counter("router_ticks_total"), 2 * out.ticks);
    assert_eq!(
        shard.counter("router_delivered_total"),
        2 * out.delivered as u64
    );
    let occ = shard.histogram("router_queue_occupancy");
    assert_eq!(occ.count, 2 * out.ticks, "one occupancy sample per tick");
}

/// Route `machine`'s 8n-packet `RandomRank` batch twice through one fresh
/// scratch with collection on, and return the outcome with everything the
/// two runs recorded.
fn collect_runs(machine: &Machine, paths: &[PacketPath]) -> (String, LocalShard) {
    let net = CompiledNet::compile(machine);
    let batch = PacketBatch::compile(&net, paths).expect("planner paths are walks");
    let cfg = RouterConfig::default();
    let mut scratch = RouterScratch::new();
    let _ = fcn_telemetry::take_shard();
    fcn_telemetry::global().set_enabled(true);
    let first = route_compiled(&net, &batch, cfg, &mut scratch, None);
    let second = route_compiled(&net, &batch, cfg, &mut scratch, None);
    fcn_telemetry::global().set_enabled(false);
    assert_eq!(first, second, "scratch reuse changed bits");
    (record(&first), fcn_telemetry::take_shard())
}

#[test]
fn wire_loop_records_what_the_node_loop_records() {
    // `RandomRank` on the unit-capacity mesh takes the wire loop. Its twin
    // has a send budget of `u32::MAX - 1` per node: never binding, so the
    // same packets move every tick, but a budget sends the run through the
    // node loop. Outcomes and every recorded metric must agree.
    use rand::SeedableRng as _;
    let machine = Machine::mesh(2, 8);
    let n = machine.processors();
    let twin = Machine::custom(
        Family::Mesh(2),
        "budgeted_mesh".into(),
        machine.graph().clone(),
        n,
        SendCapacity::PerNode(vec![u32::MAX - 1; n]),
        vec![],
    );
    let traffic = machine.symmetric_traffic();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9ea7);
    let demands: Vec<_> = (0..8 * n).map(|_| traffic.sample(&mut rng)).collect();
    let paths = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, 42, None);

    let (off, on) = with_and_without_telemetry(|| {
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).expect("planner paths are walks");
        route_compiled(
            &net,
            &batch,
            RouterConfig::default(),
            &mut RouterScratch::new(),
            None,
        )
    });
    assert!(
        off.completed && off.max_queue > 4,
        "batch must queue: {off:?}"
    );
    assert_eq!(record(&off), record(&on), "outcome differs under telemetry");

    let _gate = TELEMETRY_GATE.lock().unwrap();
    let (wire_out, wire) = collect_runs(&machine, &paths);
    let (node_out, node) = collect_runs(&twin, &paths);
    assert_eq!(wire_out, record(&off));
    assert_eq!(wire_out, node_out, "the loops route different outcomes");
    let stalled = "router_stalled_packet_ticks_total";
    assert_eq!(wire.counter(stalled), node.counter(stalled), "{stalled}");
    assert!(wire.counter("router_stalled_packet_ticks_total") > 0);
    assert_eq!(
        wire.histogram("router_queue_occupancy"),
        node.histogram("router_queue_occupancy")
    );
    assert_eq!(wire, node, "some other router metric differs");
}

#[test]
fn stranded_packets_are_not_counted_as_queued() {
    // With link 1 — 2 dead, two of the five packets are stranded at
    // injection and one has zero hops. The other two sit in a queue at the
    // start of tick 1 and both cross in it: occupancy 2, no stall.
    let _gate = TELEMETRY_GATE.lock().unwrap();
    let machine = Machine::linear_array(4);
    let plan = fcn_faults::FaultPlan::assemble(vec![], vec![(1, 2)], vec![]);
    let net = CompiledNet::compile(&machine).apply_faults(&plan);
    let paths = [
        PacketPath::new(vec![0, 1, 2, 3]),
        PacketPath::new(vec![0, 1]),
        PacketPath::new(vec![3, 2]),
        PacketPath::new(vec![2, 1]),
        PacketPath::new(vec![2]),
    ];
    let batch = PacketBatch::compile(&net, &paths).expect("paths are walks");
    let _ = fcn_telemetry::take_shard();
    fcn_telemetry::global().set_enabled(true);
    let out = route_compiled(
        &net,
        &batch,
        RouterConfig::default(),
        &mut RouterScratch::new(),
        None,
    );
    fcn_telemetry::global().set_enabled(false);
    let shard = fcn_telemetry::take_shard();
    assert_eq!((out.ticks, out.stranded, out.delivered), (1, 2, 3));
    let occupancy = shard.histogram("router_queue_occupancy");
    assert_eq!((occupancy.count, occupancy.sum), (1, 2));
    assert_eq!(shard.counter("router_stalled_packet_ticks_total"), 0);
}
