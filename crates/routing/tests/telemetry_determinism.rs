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

use std::sync::Mutex;

use fcn_routing::{
    measure_rate, plan_routes_cached, route_compiled, CompiledNet, PacketBatch, QueueDiscipline,
    RouterConfig, RouterScratch, RoutingOutcome, Strategy,
};
use fcn_topology::Machine;

/// Serializes registry toggling across the tests in this file.
static TELEMETRY_GATE: Mutex<()> = Mutex::new(());

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
    // Route twice through the same scratch so both the scratch-created and
    // scratch-reused instrumentation branches are exercised.
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
    assert_eq!(shard.counter("router_scratch_created_total"), 1);
    assert_eq!(shard.counter("router_scratch_reused_total"), 1);
    let occ = shard.histogram("router_queue_occupancy");
    assert_eq!(occ.count, 2 * out.ticks, "one occupancy sample per tick");
}
