//! `perfbench` — the repo's performance trajectory, in one tier-1-friendly
//! binary.
//!
//! Times the hot paths that dominate every table regeneration — the tick
//! simulator (both the retained pre-compilation reference and the
//! compile-once/run-many pipeline), the operational estimator grid, and the
//! route planner — and records `{bench, machine, n, median_ms, rate}` rows
//! so speedups and regressions are visible across PRs (schema in
//! EXPERIMENTS.md).
//!
//! * default: saturation scale (mesh2(64), 8n packets), writes
//!   `BENCH_router.json` at the repo root — the committed trajectory;
//! * `--quick`: CI smoke scale, writes `target/BENCH_router.quick.json`
//!   so a smoke run never clobbers the committed numbers.

use std::time::Instant;

use fcn_bandwidth::BandwidthEstimator;
use fcn_bench::{banner, fmt, RunOpts, Scale, PERFBENCH_SCHEMA};
use fcn_routing::engine::reference;
use fcn_routing::{
    plan_routes, route_compiled, route_compiled_at, route_events, route_events_at, CompiledNet,
    InjectionSchedule, PacketBatch, RouterConfig, RouterScratch, Strategy,
};
use fcn_topology::Machine;
use serde::Serialize;

/// One recorded measurement (see EXPERIMENTS.md for the schema).
#[derive(Debug, Serialize)]
struct Row {
    /// Row-format version ([`PERFBENCH_SCHEMA`]); the binary refuses to
    /// merge with a file whose rows carry a different (or no) tag.
    schema: String,
    /// Benchmark id (`route_reference`, `route_compiled`,
    /// `route_events_{saturated,sparse,drain}`, `estimator_grid`, `planner`,
    /// `telemetry_overhead`).
    bench: String,
    /// Machine the benchmark ran on.
    machine: String,
    /// Processor count of that machine.
    n: usize,
    /// Hardware threads of the measuring host — throughput rows are only
    /// comparable across runners with this pinned next to them.
    cores: usize,
    /// Median wall time of the repetitions, in milliseconds.
    median_ms: f64,
    /// Bench-specific throughput; `unit` names what it measures.
    rate: f64,
    /// Unit of `rate`: `packets/tick` (delivery rate — router benches and
    /// the estimator's β̂), `packets/ms` (planner), `ratio`
    /// (`telemetry_overhead`: disabled-telemetry over no-telemetry-baseline
    /// time; `< 1.01` is the "<1 % off overhead" budget), or `x-vs-tick`
    /// (`route_events_*`: tick-backend wall time over event-backend wall
    /// time on the identical workload).
    unit: String,
}

/// Hardware threads of this host, for the `cores` column.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

impl Row {
    fn new(bench: &str, machine: &Machine, median_ms: f64, rate: f64, unit: &str) -> Row {
        Row {
            schema: PERFBENCH_SCHEMA.to_string(),
            bench: bench.to_string(),
            machine: machine.name().to_string(),
            n: machine.processors(),
            cores: host_cores(),
            median_ms,
            rate,
            unit: unit.to_string(),
        }
    }
}

/// Median of `reps` wall-clock samples of `f`, plus `f`'s last return value.
fn timed(reps: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut rate = 0.0;
    for _ in 0..reps {
        #[allow(clippy::disallowed_methods)] // bench binary: timing is the product
        let t = Instant::now();
        rate = f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], rate)
}

fn main() {
    let opts = RunOpts::from_args();
    let _tele = fcn_bench::telemetry(&opts);
    let quick = opts.scale == Scale::Quick;
    let (side, reps) = if quick { (16, 3) } else { (64, 5) };
    let machine = Machine::mesh(2, side);
    let n = machine.processors();
    let traffic = machine.symmetric_traffic();

    banner(&format!(
        "perfbench: {} (n = {n}), {reps} reps{}",
        machine.name(),
        if quick { ", quick" } else { "" }
    ));

    // Saturation-scale batch shared by both router benches (8n packets, the
    // largest multiplier of the default estimator sweep).
    use rand::SeedableRng as _;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbe7c);
    let demands: Vec<_> = (0..8 * traffic.n())
        .map(|_| traffic.sample(&mut rng))
        .collect();
    let routes = plan_routes(&machine, &demands, Strategy::ShortestPath, 42);
    let cfg = RouterConfig::default();
    let mut rows = Vec::new();

    // Before: the retained pre-compilation simulator, rebuilding every wire
    // array and re-deriving every hop per call (the clone it needs to
    // consume its input happens outside the timer).
    let (ref_ms, ref_rate) = timed(reps, || {
        let out = reference::route_batch(&machine, routes.clone(), cfg);
        assert!(out.completed);
        out.rate()
    });
    println!(
        "route_reference : {:>9} ms   rate {}",
        fmt(ref_ms),
        fmt(ref_rate)
    );
    rows.push(Row::new(
        "route_reference",
        &machine,
        ref_ms,
        ref_rate,
        "packets/tick",
    ));

    // After: compile once, route many — the path every sweep now takes.
    let net = CompiledNet::compile(&machine);
    let batch = PacketBatch::compile(&net, &routes).expect("planner paths are walks");
    let mut scratch = RouterScratch::new();
    let (cmp_ms, cmp_rate) = timed(reps, || {
        let out = route_compiled(&net, &batch, cfg, &mut scratch);
        assert!(out.completed);
        out.rate()
    });
    println!(
        "route_compiled  : {:>9} ms   rate {}",
        fmt(cmp_ms),
        fmt(cmp_rate)
    );
    rows.push(Row::new(
        "route_compiled",
        &machine,
        cmp_ms,
        cmp_rate,
        "packets/tick",
    ));
    assert_eq!(
        ref_rate, cmp_rate,
        "the rewrite must not change a single bit"
    );
    println!(
        "speedup         : {:.2}x (reference / compiled)",
        ref_ms / cmp_ms
    );

    // Event backend, three regimes. Each row's `rate` is the tick backend's
    // wall time over the event backend's on the identical workload
    // (`x-vs-tick`), with bit-identity asserted first — so the committed
    // numbers say where skip-ahead pays (sparse schedules, drain tails) and
    // what it costs where it can't (saturation: every tick has an arrival,
    // so the wheel is pure bookkeeping and the ratio should sit near 1).
    //
    // saturated: the headline 8n batch, all packets at tick 0.
    let (ev_sat_ms, _) = timed(reps, || {
        let out = route_events(&net, &batch, cfg, &mut scratch);
        assert_eq!(
            out.rate(),
            cmp_rate,
            "event backend must not change a single bit"
        );
        out.rate()
    });
    println!(
        "route_events_saturated: {:>3} ms   {:.2}x vs tick",
        fmt(ev_sat_ms),
        cmp_ms / ev_sat_ms
    );
    rows.push(Row::new(
        "route_events_saturated",
        &machine,
        ev_sat_ms,
        cmp_ms / ev_sat_ms,
        "x-vs-tick",
    ));

    // sparse: short local paths (distance-2 demands) injected one packet
    // every `stride` ticks — the tick loop grinds through the idle spans,
    // the event backend jumps them. Injection rate is far below 5 % of a
    // single wire's capacity, the regime the backend is for.
    let sparse_packets = if quick { 64 } else { 256 };
    let stride: u64 = 400;
    let sparse_demands: Vec<_> = (0..sparse_packets)
        .map(|p| {
            let src = ((p * 97) % n) as u32;
            let (hop, _) = machine
                .graph()
                .neighbors(src)
                .next()
                .expect("mesh nodes have neighbors");
            let dst = machine
                .graph()
                .neighbors(hop)
                .map(|(w, _)| w)
                .find(|&w| w != src)
                .expect("mesh nodes have a second hop");
            (src, dst)
        })
        .collect();
    let sparse_routes = plan_routes(&machine, &sparse_demands, Strategy::ShortestPath, 42);
    let sparse_batch = PacketBatch::compile(&net, &sparse_routes).expect("planner paths are walks");
    let sparse_sched =
        InjectionSchedule::new((0..sparse_packets as u64).map(|i| i * stride).collect());
    let tick_out = route_compiled_at(&net, &sparse_batch, &sparse_sched, cfg, &mut scratch, None);
    let ev_out = route_events_at(&net, &sparse_batch, &sparse_sched, cfg, &mut scratch, None);
    assert_eq!(
        tick_out, ev_out,
        "event backend must not change a single bit"
    );
    let (sp_tick_ms, _) = timed(reps, || {
        route_compiled_at(&net, &sparse_batch, &sparse_sched, cfg, &mut scratch, None).ticks as f64
    });
    let (sp_ev_ms, _) = timed(reps, || {
        route_events_at(&net, &sparse_batch, &sparse_sched, cfg, &mut scratch, None).ticks as f64
    });
    let sp_speedup = sp_tick_ms / sp_ev_ms;
    println!(
        "route_events_sparse   : {:>3} ms   {:.2}x vs tick ({} pkts / {} ticks)",
        fmt(sp_ev_ms),
        sp_speedup,
        sparse_packets,
        tick_out.ticks
    );
    if !quick {
        // The committed trajectory must show the backend earning its keep:
        // the ISSUE's acceptance bar is 3x on this exact workload.
        assert!(
            sp_speedup >= 3.0,
            "sparse event-backend speedup {sp_speedup:.2}x below the 3x acceptance bar"
        );
    }
    rows.push(Row::new(
        "route_events_sparse",
        &machine,
        sp_ev_ms,
        sp_speedup,
        "x-vs-tick",
    ));

    // drain: a saturated burst at tick 0 plus one straggler far out — the
    // tail between the burst draining and the straggler arriving is all
    // idle, and only the event backend skips it. The straggler sits deep
    // enough that the tail dominates the burst's wall time (an idle tick
    // costs ~10 ns; anything much closer than 10^6 ticks drowns in the
    // burst phase's noise).
    let drain_at: u64 = 2_000_000;
    let mut drain_demands: Vec<_> = demands.iter().take(2 * n).copied().collect();
    drain_demands.push(sparse_demands[0]);
    let drain_routes = plan_routes(&machine, &drain_demands, Strategy::ShortestPath, 42);
    let drain_batch = PacketBatch::compile(&net, &drain_routes).expect("planner paths are walks");
    let mut drain_ticks = vec![0u64; drain_demands.len() - 1];
    drain_ticks.push(drain_at);
    let drain_sched = InjectionSchedule::new(drain_ticks);
    let tick_out = route_compiled_at(&net, &drain_batch, &drain_sched, cfg, &mut scratch, None);
    let ev_out = route_events_at(&net, &drain_batch, &drain_sched, cfg, &mut scratch, None);
    assert_eq!(
        tick_out, ev_out,
        "event backend must not change a single bit"
    );
    let (dr_tick_ms, _) = timed(reps, || {
        route_compiled_at(&net, &drain_batch, &drain_sched, cfg, &mut scratch, None).ticks as f64
    });
    let (dr_ev_ms, _) = timed(reps, || {
        route_events_at(&net, &drain_batch, &drain_sched, cfg, &mut scratch, None).ticks as f64
    });
    println!(
        "route_events_drain    : {:>3} ms   {:.2}x vs tick (straggler at {})",
        fmt(dr_ev_ms),
        dr_tick_ms / dr_ev_ms,
        drain_at
    );
    rows.push(Row::new(
        "route_events_drain",
        &machine,
        dr_ev_ms,
        dr_tick_ms / dr_ev_ms,
        "x-vs-tick",
    ));

    // The estimator's full trials × multipliers grid — the workload the
    // tables actually pay for.
    let est = BandwidthEstimator {
        multipliers: if quick { vec![2, 4] } else { vec![2, 4, 8] },
        trials: 2,
        seed: 0xbead,
        ..Default::default()
    };
    let (est_ms, est_rate) = timed(reps.min(3), || est.estimate(&machine, &traffic).rate);
    println!(
        "estimator_grid  : {:>9} ms   β̂   {}",
        fmt(est_ms),
        fmt(est_rate)
    );
    rows.push(Row::new(
        "estimator_grid",
        &machine,
        est_ms,
        est_rate,
        "packets/tick",
    ));

    // Planner throughput (BFS shortest paths), packets per millisecond.
    let (plan_ms, planned) = timed(reps, || {
        plan_routes(&machine, &demands, Strategy::ShortestPath, 42).len() as f64
    });
    println!(
        "planner         : {:>9} ms   {} packets/ms",
        fmt(plan_ms),
        fmt(planned / plan_ms)
    );
    rows.push(Row::new(
        "planner",
        &machine,
        plan_ms,
        planned / plan_ms,
        "packets/ms",
    ));

    // Telemetry overhead: the committed proof that the fcn-telemetry
    // instrumentation's *disabled* path (the state every simulation-facing
    // caller sees by default) costs < 1 % on the compiled router. Both
    // arms run the identical disabled code, *interleaved* rep by rep so
    // clock drift and thermal state hit them equally — the ratio isolates
    // the off path's cost against the headline `route_compiled` timing
    // instead of measuring how much the machine warmed up in between. The
    // enabled arm rides along, interleaved too, for information.
    let reg = fcn_telemetry::global();
    let was_enabled = reg.enabled();
    let overhead_reps = if quick { 3 } else { 11 };
    let mut base_ts = Vec::with_capacity(overhead_reps);
    let mut off_ts = Vec::with_capacity(overhead_reps);
    let mut on_ts = Vec::with_capacity(overhead_reps);
    for rep in 0..overhead_reps {
        let mut arm = |samples: &mut Vec<f64>| {
            #[allow(clippy::disallowed_methods)] // bench binary: timing is the product
            let t = Instant::now();
            let out = route_compiled(&net, &batch, cfg, &mut scratch);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                out.rate(),
                cmp_rate,
                "telemetry must not change a single bit"
            );
        };
        // ABBA ordering: alternate which disabled arm goes first, so a
        // monotone within-rep drift (turbo decay, cache warming) biases
        // both arms equally instead of always penalizing the second slot.
        reg.set_enabled(false);
        if rep % 2 == 0 {
            arm(&mut base_ts);
            arm(&mut off_ts);
        } else {
            arm(&mut off_ts);
            arm(&mut base_ts);
        }
        reg.set_enabled(true);
        arm(&mut on_ts);
    }
    reg.set_enabled(was_enabled);
    if !was_enabled {
        // Drop the shard the enabled arm accumulated so a later
        // `--metrics-out` snapshot only reports intended collection.
        let _ = fcn_telemetry::take_shard();
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (base_ms, off_ms, on_ms) = (median(base_ts), median(off_ts), median(on_ts));
    let overhead = off_ms / base_ms;
    println!(
        "telemetry_off   : {:>9} ms   {:.4}x vs interleaved baseline (budget < 1.01)",
        fmt(off_ms),
        overhead
    );
    println!(
        "telemetry_on    : {:>9} ms   {:.4}x vs interleaved baseline (info only)",
        fmt(on_ms),
        on_ms / base_ms
    );
    rows.push(Row::new(
        "telemetry_overhead",
        &machine,
        off_ms,
        overhead,
        "ratio",
    ));

    let path = if quick {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("target"));
        std::fs::create_dir_all(&dir).expect("create target dir");
        dir.join("BENCH_router.quick.json")
    } else {
        std::path::PathBuf::from("BENCH_router.json")
    };
    // Validate whatever is already on disk before merging: rows written
    // under a different (or pre-versioned) schema would silently mix
    // incompatible measurements, so a mismatch is a hard error.
    let existing = match std::fs::read_to_string(&path) {
        Ok(body) => match fcn_bench::validate_bench_rows(&body) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("error: existing {} is not mergeable: {e}", path.display());
                std::process::exit(2);
            }
        },
        Err(_) => Vec::new(),
    };
    let fresh: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            let line = serde_json::to_string(r).expect("row serializes");
            (r.bench.clone(), line)
        })
        .collect();
    let body = fcn_bench::merge_bench_rows(&existing, &fresh);
    std::fs::write(&path, body).expect("write bench rows");
    println!("\nwrote {} rows to {}", rows.len(), path.display());
}
