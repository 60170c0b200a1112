//! `perfbench` — does each always-on router mechanism pay for itself?
//!
//! End-to-end speed of what users run is `fcn-benchmark`'s job. This binary
//! keeps only the rows that gate a mechanism with no switch, each timed
//! against the code it would be without that mechanism:
//!
//! * `route_skip_{saturated,sparse,drain}` — `route_compiled`, whose every
//!   run skips quiescent ticks, against the skip-free reference loop;
//! * `telemetry_overhead` — the router with the telemetry registry disabled
//!   against the same router interleaved with it.
//!
//! Rows are `{bench, machine, n, cores, median_ms, min_ms, max_ms, rate,
//! unit}` (schema in EXPERIMENTS.md):
//!
//! * default: mesh2(64), writes `BENCH_router.json` at the repo root — the
//!   committed trajectory;
//! * `--quick`: CI smoke scale, writes `target/BENCH_router.quick.json`
//!   so a smoke run never clobbers the committed numbers.

use std::time::Instant;

use fcn_bench::{banner, fmt, RunOpts, Scale, PERFBENCH_SCHEMA};
use fcn_routing::engine::reference::route_every_tick;
use fcn_routing::{
    plan_routes, route_compiled, CompiledNet, InjectionSchedule, PacketBatch, RouterConfig,
    RouterScratch, Strategy,
};
use fcn_topology::Machine;
use serde::Serialize;

/// One recorded measurement (see EXPERIMENTS.md for the schema).
#[derive(Debug, Serialize)]
struct Row {
    /// Row-format version ([`PERFBENCH_SCHEMA`]); the binary refuses to
    /// merge with a file whose rows carry a different (or no) tag.
    schema: String,
    /// Benchmark id (`route_skip_{saturated,sparse,drain}`,
    /// `telemetry_overhead`).
    bench: String,
    /// Machine the benchmark ran on.
    machine: String,
    /// Processor count of that machine.
    n: usize,
    /// Hardware threads of the measuring host — timings are only
    /// comparable across runners with this pinned next to them.
    cores: usize,
    /// Median wall time of the repetitions, in milliseconds.
    median_ms: f64,
    /// Fastest repetition, in milliseconds.
    min_ms: f64,
    /// Slowest repetition, in milliseconds.
    max_ms: f64,
    /// Bench-specific figure; `unit` names what it measures.
    rate: f64,
    /// Unit of `rate`: `x-vs-tick` (`route_skip_*`: median wall time of
    /// the skip-free reference loop over `route_compiled`'s, on the
    /// identical workload) or `ratio` (`telemetry_overhead`:
    /// disabled-telemetry over interleaved-baseline time; `< 1.01` is the
    /// "<1 % off overhead" budget).
    unit: String,
}

/// Spread of repeated wall-clock samples, in milliseconds.
struct Times {
    median: f64,
    min: f64,
    max: f64,
}

impl Times {
    fn of(mut samples: Vec<f64>) -> Times {
        assert!(!samples.is_empty());
        samples.sort_by(f64::total_cmp);
        Times {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

/// Hardware threads of this host, for the `cores` column.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

impl Row {
    fn new(bench: &str, machine: &Machine, t: &Times, rate: f64, unit: &str) -> Row {
        Row {
            schema: PERFBENCH_SCHEMA.to_string(),
            bench: bench.to_string(),
            machine: machine.name().to_string(),
            n: machine.processors(),
            cores: host_cores(),
            median_ms: t.median,
            min_ms: t.min,
            max_ms: t.max,
            rate,
            unit: unit.to_string(),
        }
    }
}

/// Wall time of one call to `f` in milliseconds, and what it returned.
fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    #[allow(clippy::disallowed_methods)] // bench binary: timing is the product
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

fn main() {
    let opts = RunOpts::from_args();
    let _tele = fcn_bench::telemetry(&opts);
    let quick = opts.scale == Scale::Quick;
    let (side, reps) = if quick { (16, 3) } else { (64, 11) };
    let machine = Machine::mesh(2, side);
    let n = machine.processors();
    let traffic = machine.symmetric_traffic();

    banner(&format!(
        "perfbench: {} (n = {n}), {reps} reps{}",
        machine.name(),
        if quick { ", quick" } else { "" }
    ));

    // Saturation-scale batch (8n packets, the largest multiplier of the
    // default estimator sweep), shared by the saturated, drain and
    // telemetry rows.
    use rand::SeedableRng as _;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbe7c);
    let demands: Vec<_> = (0..8 * traffic.n())
        .map(|_| traffic.sample(&mut rng))
        .collect();
    let routes = plan_routes(&machine, &demands, Strategy::ShortestPath, 42);
    let cfg = RouterConfig::default();
    let net = CompiledNet::compile(&machine);
    let batch = PacketBatch::compile(&net, &routes).expect("planner paths are walks");
    let mut scratch = RouterScratch::new();
    let mut rows = Vec::new();

    // One `route_skip_*` row: assert that `route_compiled` (skip armed) and
    // the skip-free `route_every_tick` give the identical outcome on the
    // workload, then time both, interleaved rep by rep so clock drift hits
    // them equally. Records the skip-armed spread; `rate` is the ratio of
    // the two medians.
    let mut skip_row = |bench: &str, batch: &PacketBatch, sched: Option<&InjectionSchedule>| {
        let mut route = |skip: bool| {
            let run = if skip {
                route_compiled
            } else {
                route_every_tick
            };
            time_ms(|| run(&net, batch, sched, cfg, &mut scratch, None))
        };
        let (_, loop_out) = route(false);
        let (_, skip_out) = route(true);
        assert!(loop_out.completed, "{bench}: workload must complete");
        assert_eq!(loop_out, skip_out, "the skip must not change a single bit");
        let (mut loop_ts, mut skip_ts) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            loop_ts.push(route(false).0);
            skip_ts.push(route(true).0);
        }
        let (tick, skip) = (Times::of(loop_ts), Times::of(skip_ts));
        let speedup = tick.median / skip.median;
        println!(
            "{bench:<22}: {:>9} ms [{} .. {}]   {speedup:.2}x vs tick ({} ticks)",
            fmt(skip.median),
            fmt(skip.min),
            fmt(skip.max),
            skip_out.ticks
        );
        Row::new(bench, &machine, &skip, speedup, "x-vs-tick")
    };

    // Quiescent-tick skipping, three regimes — where skip-ahead pays
    // (sparse schedules, drain tails) and what it costs where it can't.
    //
    // saturated: the 8n batch, all packets at tick 0. Every tick has an
    // arrival, so the wheel is pure bookkeeping and the ratio should sit
    // near 1 — the evidence that the skip needs no switch.
    rows.push(skip_row("route_skip_saturated", &batch, None));

    // sparse: short local paths (distance-2 demands) injected one packet
    // every `stride` ticks — the skip-free loop grinds through the idle
    // spans, `route_compiled` jumps them. Injection rate is far below 5 %
    // of a single wire's capacity, the regime the skip is for.
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
    let sparse = skip_row("route_skip_sparse", &sparse_batch, Some(&sparse_sched));
    if !quick {
        // The committed trajectory must show the skip earning its keep:
        // 3x is the acceptance bar on this exact workload.
        assert!(
            sparse.rate >= 3.0,
            "sparse skip speedup {:.2}x below the 3x acceptance bar",
            sparse.rate
        );
    }
    rows.push(sparse);

    // drain: a saturated burst at tick 0 plus one straggler far out — the
    // tail between the burst draining and the straggler arriving is all
    // idle, and only `route_compiled` skips it. The straggler sits deep
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
    rows.push(skip_row(
        "route_skip_drain",
        &drain_batch,
        Some(&drain_sched),
    ));

    // Telemetry overhead: the committed proof that the fcn-telemetry
    // instrumentation's *disabled* path (the state every simulation-facing
    // caller sees by default) costs < 1 % on the compiled router. Both
    // arms run the identical disabled code on the saturated batch,
    // *interleaved* rep by rep so clock drift and thermal state hit them
    // equally — the ratio isolates the off path's cost instead of
    // measuring how much the machine warmed up in between. The enabled arm
    // rides along, interleaved too, for information.
    let expected = route_compiled(&net, &batch, None, cfg, &mut scratch, None);
    let reg = fcn_telemetry::global();
    let was_enabled = reg.enabled();
    let mut base_ts = Vec::with_capacity(reps);
    let mut off_ts = Vec::with_capacity(reps);
    let mut on_ts = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut arm = |samples: &mut Vec<f64>| {
            let (ms, out) = time_ms(|| route_compiled(&net, &batch, None, cfg, &mut scratch, None));
            samples.push(ms);
            assert_eq!(out, expected, "telemetry must not change a single bit");
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
    let (base, off, on) = (Times::of(base_ts), Times::of(off_ts), Times::of(on_ts));
    let overhead = off.median / base.median;
    println!(
        "telemetry_off         : {:>9} ms [{} .. {}]   {overhead:.4}x vs interleaved baseline (budget < 1.01)",
        fmt(off.median),
        fmt(off.min),
        fmt(off.max),
    );
    println!(
        "telemetry_on          : {:>9} ms   {:.4}x vs interleaved baseline (info only)",
        fmt(on.median),
        on.median / base.median
    );
    rows.push(Row::new(
        "telemetry_overhead",
        &machine,
        &off,
        overhead,
        "ratio",
    ));

    println!();
    fcn_bench::commit_bench_rows(
        "BENCH_router",
        quick,
        &rows,
        |r| &r.bench,
        fcn_bench::validate_bench_rows,
    );
}
