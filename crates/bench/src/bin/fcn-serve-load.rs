//! `fcn-serve-load` — closed-loop load generator for the emulation service:
//! the throughput-vs-concurrency trajectory behind `BENCH_serve.json`.
//!
//! Boots an **in-process** daemon ([`fcn_serve::Server`] wrapping the exact
//! production [`fcn_cli::service::CliHandler`], talking real TCP on an
//! ephemeral loopback port) and drives it with closed-loop clients: each
//! client owns one connection and sends its next request only after the
//! previous reply lands, so offered load scales with the client count, not
//! with a timer. The request mix is seeded (~90 % `ping`, ~10 % small warm
//! `beta`), making the *sequence* of requests reproducible even though the
//! measured latencies are wall clock (timing is the product here — the
//! bench crate is the sanctioned DET-TIME exemption).
//!
//! Rows ([`fcn_bench::SERVE_SCHEMA`]):
//!
//! * `closed-loop@c{1,2,4,8}` — throughput plus a latency histogram
//!   (mean/p50/p90/p99/max) at each concurrency level;
//! * `cold-vs-warm` — first `beta` on a never-seen family (pays the
//!   compile) against the immediate repeat served from the warm registry;
//! * `chaos@<rate>` — goodput of a retrying client against a daemon whose
//!   reply path injects seeded wire chaos at `<rate>` per fault category
//!   (`chaos@0` is the clean baseline on the same code path);
//! * `offered@<mult>x` — goodput and shed fraction of heavy closed-loop
//!   clients offering `<mult>×` the admission capacity of a deliberately
//!   tiny daemon, with the latency histogram reporting a concurrent
//!   interactive `ping` probe (the p99 the acceptance bar bounds).
//!
//! Output discipline mirrors `faults`: default writes the committed
//! `BENCH_serve.json` at the repo root through schema-validated row
//! merging; `--quick` (CI smoke, ~800 requests) shadows to
//! `target/BENCH_serve.quick.json`; `--full` scales to 2×10⁵ requests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fcn_bench::{banner, fmt, write_records, RunOpts, Scale, SERVE_SCHEMA};
use fcn_cli::service::CliHandler;
use fcn_serve::{ChaosRates, ChaosSpec, Client, ErrorKind, RetryPolicy, Server, ServerConfig};
use rand::{RngExt, SeedableRng};
use serde::Serialize;

/// One recorded point of the service trajectory (see EXPERIMENTS.md).
/// Fields that do not apply to a row kind are written as zeros so every
/// row carries the full schema.
#[derive(Debug, Serialize)]
struct Row {
    /// Row-format version ([`SERVE_SCHEMA`]).
    schema: String,
    /// Row key: `closed-loop@c<clients>` or `cold-vs-warm`.
    bench: String,
    /// Request mix of the row: `mix` (ping/beta blend) or `beta`.
    kind: String,
    /// Concurrent closed-loop clients.
    clients: usize,
    /// Requests completed in the measurement window.
    requests: usize,
    /// Replies that were not a success (typed error or nonzero exit).
    errors: usize,
    /// Wall-clock window for the whole level, microseconds.
    elapsed_us: u64,
    /// Completed requests per second over the window.
    throughput_rps: f64,
    /// Mean per-request latency, microseconds.
    mean_us: f64,
    /// Latency histogram: median.
    p50_us: u64,
    /// Latency histogram: 90th percentile.
    p90_us: u64,
    /// Latency histogram: 99th percentile.
    p99_us: u64,
    /// Latency histogram: worst observed.
    max_us: u64,
    /// Cold-row only: first request on a never-compiled family.
    cold_us: u64,
    /// Cold-row only: the immediate repeat against the warm registry.
    warm_us: u64,
    /// Cold-row only: `cold_us / warm_us`.
    warm_speedup: f64,
    /// Chaos-row only: per-category injection rate of the daemon's seeded
    /// wire-chaos plan (0 everywhere else).
    chaos_rate: f64,
    /// Offered-row only: offered load as a multiple of admission capacity
    /// (0 everywhere else).
    offered_load: f64,
    /// Offered-row only: fraction of heavy attempts shed with a typed
    /// `Overloaded` (0 everywhere else).
    shed_fraction: f64,
}

impl Row {
    fn blank(bench: String, kind: &str) -> Row {
        Row {
            schema: SERVE_SCHEMA.to_string(),
            bench,
            kind: kind.to_string(),
            clients: 0,
            requests: 0,
            errors: 0,
            elapsed_us: 0,
            throughput_rps: 0.0,
            mean_us: 0.0,
            p50_us: 0,
            p90_us: 0,
            p99_us: 0,
            max_us: 0,
            cold_us: 0,
            warm_us: 0,
            warm_speedup: 0.0,
            chaos_rate: 0.0,
            offered_load: 0.0,
            shed_fraction: 0.0,
        }
    }
}

#[allow(clippy::disallowed_methods)] // bench binary: timing is the product
fn now() -> Instant {
    Instant::now()
}

/// `sorted[..]` percentile by nearest-rank on a pre-sorted slice.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// The shared ping-dominant request mix: `requests` sends over an
/// already-connected client; returns (latencies_us, errors).
fn drive_mix(client: &mut Client, seed: u64, requests: usize) -> (Vec<u64>, usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut lat = Vec::with_capacity(requests);
    let mut errors = 0usize;
    for _ in 0..requests {
        // ~90 % pings keep the framing/admission path hot; ~10 % betas make
        // the daemon do real (warm-registry) estimator work.
        let beta = rng.random_bool(0.10);
        let n = if rng.random_bool(0.5) { "16" } else { "36" };
        let t = now();
        let resp = if beta {
            client.call("beta", &["mesh2", n, "--trials", "1"])
        } else {
            client.call("ping", &[])
        };
        lat.push(t.elapsed().as_micros() as u64);
        match resp {
            Ok(r) if r.ok => {}
            _ => errors += 1,
        }
    }
    (lat, errors)
}

/// One closed-loop client: private connection, private seeded mix.
fn client_loop(addr: &str, seed: u64, requests: usize) -> (Vec<u64>, usize) {
    let mut client = Client::connect(addr).expect("connect load client");
    drive_mix(&mut client, seed, requests)
}

/// Run one concurrency level; all clients start together and the window is
/// timed around the whole scope.
fn run_level(addr: &str, clients: usize, per_level: usize) -> Row {
    let per_client = per_level / clients;
    let merged: Mutex<(Vec<u64>, usize)> = Mutex::new((Vec::new(), 0));
    let t = now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let merged = &merged;
            let seed = mix_seed(clients as u64, c as u64);
            scope.spawn(move || {
                let (lat, errors) = client_loop(addr, seed, per_client);
                let mut m = merged.lock().expect("latency merge lock");
                m.0.extend_from_slice(&lat);
                m.1 += errors;
            });
        }
    });
    let elapsed_us = t.elapsed().as_micros() as u64;
    let (mut lat, errors) = merged.into_inner().expect("latency merge lock");
    lat.sort_unstable();
    let requests = lat.len();
    let mut row = Row::blank(format!("closed-loop@c{clients}"), "mix");
    row.clients = clients;
    row.requests = requests;
    row.errors = errors;
    row.elapsed_us = elapsed_us;
    row.throughput_rps = requests as f64 / (elapsed_us as f64 / 1e6);
    row.mean_us = lat.iter().sum::<u64>() as f64 / requests.max(1) as f64;
    row.p50_us = percentile(&lat, 50);
    row.p90_us = percentile(&lat, 90);
    row.p99_us = percentile(&lat, 99);
    row.max_us = lat.last().copied().unwrap_or(0);
    row
}

/// Per-(level, client) seed: reproducible mix, distinct per thread.
fn mix_seed(level: u64, client: u64) -> u64 {
    0x5eed_0ff0 ^ (level << 16) ^ client
}

/// Goodput of one retrying client against a daemon injecting wire chaos at
/// `rate` per fault category. Each rate boots its own daemon so the seeded
/// plan starts from connection 0 and the row is self-contained; `rate == 0`
/// runs the identical client/daemon pair with no plan attached — the clean
/// baseline the chaos rows are read against.
fn chaos_level(rate: f64, per: usize) -> Row {
    let chaos = (rate > 0.0).then(|| {
        let mut spec = ChaosSpec::new(0x00c4_a05e_ed02, ChaosRates::uniform(rate));
        // Short stalls: the row measures retry/replay overhead, not sleep.
        spec.max_stall_ms = 2;
        spec
    });
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        chaos,
        poll_interval_ms: 5,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::bind(config, CliHandler::new()).expect("bind chaos daemon"));
    let addr = server
        .local_addr()
        .expect("chaos daemon address")
        .to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let runner = {
        let server = Arc::clone(&server);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || server.run(&shutdown))
    };

    // The retrying client is the product under test here: reconnect + seeded
    // backoff on torn replies, idempotent replay for completed-but-lost ones.
    // A generous budget covers deterministic failure streaks at high rates.
    let policy = RetryPolicy::fast(50, 0xbacc_0ff5 ^ rate.to_bits());
    let mut client = Client::connect_retrying(&addr, policy).expect("connect retrying client");
    let t = now();
    let (mut lat, errors) = drive_mix(&mut client, 0x00c4_a05e ^ rate.to_bits(), per);
    let elapsed_us = t.elapsed().as_micros() as u64;
    drop(client);

    // ordering: Release pairs with the accept loop's Acquire-side poll.
    shutdown.store(true, Ordering::Release);
    runner.join().expect("chaos runner").expect("chaos drain");

    lat.sort_unstable();
    let ok = lat.len() - errors;
    let mut row = Row::blank(format!("chaos@{rate}"), "mix");
    row.clients = 1;
    row.requests = lat.len();
    row.errors = errors;
    row.elapsed_us = elapsed_us;
    // Goodput: only successfully recovered replies count.
    row.throughput_rps = ok as f64 / (elapsed_us as f64 / 1e6);
    row.mean_us = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    row.p50_us = percentile(&lat, 50);
    row.p90_us = percentile(&lat, 90);
    row.p99_us = percentile(&lat, 99);
    row.max_us = lat.last().copied().unwrap_or(0);
    row.chaos_rate = rate;
    row
}

/// Heavy closed-loop clients offering `mult ×` the capacity of a tiny
/// daemon (`max_inflight` slots, a one-deep queue, a 1 ms wait budget), with
/// a concurrent interactive `ping` probe. Goodput is completed heavy work;
/// the histogram fields report the probe's latency — the "interactive kinds
/// stay responsive at 4× saturation" number.
fn offered_level(addr: &str, max_inflight: usize, mult: usize, per_client: usize) -> Row {
    let clients = max_inflight * mult;
    let merged: Mutex<(usize, usize, usize)> = Mutex::new((0, 0, 0)); // (ok, shed, errors)
    let probe_lat: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let stop_probe = AtomicBool::new(false);
    let t = now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let merged = &merged;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect heavy client");
                let (mut ok, mut shed, mut errors) = (0usize, 0usize, 0usize);
                for _ in 0..per_client {
                    match client.call("beta", &["mesh2", "64", "--trials", "1"]) {
                        Ok(r) if r.ok => ok += 1,
                        Ok(r)
                            if r.error.as_ref().map(|e| e.kind) == Some(ErrorKind::Overloaded) =>
                        {
                            shed += 1
                        }
                        _ => errors += 1,
                    }
                }
                let mut m = merged.lock().expect("offered merge lock");
                m.0 += ok;
                m.1 += shed;
                m.2 += errors;
            });
        }
        // One interactive probe pings for the whole window: admission must
        // never queue or shed it no matter how saturated the heavy lanes are.
        let probe_lat = &probe_lat;
        let stop_probe = &stop_probe;
        scope.spawn(move || {
            let mut probe = Client::connect(addr).expect("connect ping probe");
            let mut lat = Vec::new();
            // ordering: Relaxed — a plain stop flag; no data rides on it.
            while !stop_probe.load(Ordering::Relaxed) {
                let t = now();
                let resp = probe.call("ping", &[]).expect("probe ping");
                assert!(resp.ok, "interactive ping failed under load: {resp:?}");
                lat.push(t.elapsed().as_micros() as u64);
            }
            *probe_lat.lock().expect("probe latency lock") = lat;
        });
        // Scoped spawn order makes the probe last; stop it once every heavy
        // client has finished. The heavy threads are joined by scope exit,
        // so flag-then-exit is race-free: set the flag from a watcher.
        let watcher_merged = &merged;
        let watcher_stop = stop_probe;
        scope.spawn(move || {
            let total = clients * per_client;
            loop {
                let m = watcher_merged.lock().expect("offered merge lock");
                if m.0 + m.1 + m.2 >= total {
                    break;
                }
                drop(m);
                std::thread::yield_now();
            }
            // ordering: Relaxed — see the probe's load above.
            watcher_stop.store(true, Ordering::Relaxed);
        });
    });
    let elapsed_us = t.elapsed().as_micros() as u64;
    let (ok, shed, errors) = merged.into_inner().expect("offered merge lock");
    let mut lat = probe_lat.into_inner().expect("probe latency lock");
    lat.sort_unstable();
    let attempts = ok + shed + errors;
    let mut row = Row::blank(format!("offered@{mult}x"), "beta");
    row.clients = clients;
    row.requests = attempts;
    row.errors = errors;
    row.elapsed_us = elapsed_us;
    row.throughput_rps = ok as f64 / (elapsed_us as f64 / 1e6);
    row.mean_us = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    row.p50_us = percentile(&lat, 50);
    row.p90_us = percentile(&lat, 90);
    row.p99_us = percentile(&lat, 99);
    row.max_us = lat.last().copied().unwrap_or(0);
    row.offered_load = mult as f64;
    row.shed_fraction = shed as f64 / attempts.max(1) as f64;
    row
}

fn main() {
    let opts = RunOpts::from_args();
    let _tele = fcn_bench::telemetry(&opts);
    let quick = opts.scale == Scale::Quick;
    // Requests per concurrency level; levels are fixed so the committed
    // trajectory always has the same row keys.
    let per_level = match opts.scale {
        Scale::Quick => 200,
        Scale::Default => 5_000,
        Scale::Full => 50_000,
    };
    let levels = [1usize, 2, 4, 8];

    // The production daemon serves with telemetry enabled (metrics requests
    // need counters to render); the load run mirrors that so the measured
    // cost includes the instrumentation the real service pays.
    fcn_telemetry::global().set_enabled(true);

    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        // Above the deepest level (8 closed-loop clients) so admission
        // never rejects: this section measures service time, not shedding
        // (the offered@ rows do that against their own tiny daemon).
        max_inflight: 16,
        poll_interval_ms: 5,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::bind(config, CliHandler::new()).expect("bind in-process daemon"));
    let addr = server
        .local_addr()
        .expect("resolve in-process daemon address")
        .to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let runner = {
        let server = Arc::clone(&server);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || server.run(&shutdown))
    };

    banner("fcn-serve closed-loop trajectory (in-process daemon, real TCP)");
    println!(
        "daemon at {addr}; {} requests/level over levels {levels:?}\n",
        per_level
    );
    println!(
        "{:>8} {:>9} {:>7} {:>12} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "clients", "requests", "errors", "thrpt r/s", "mean µs", "p50", "p90", "p99", "max"
    );
    let mut rows: Vec<Row> = Vec::new();
    for &clients in &levels {
        let row = run_level(&addr, clients, per_level);
        println!(
            "{:>8} {:>9} {:>7} {:>12} {:>10} {:>9} {:>9} {:>9} {:>9}",
            row.clients,
            row.requests,
            row.errors,
            fmt(row.throughput_rps),
            fmt(row.mean_us),
            row.p50_us,
            row.p90_us,
            row.p99_us,
            row.max_us
        );
        rows.push(row);
    }

    // Cold vs warm: a family no load level touches (mesh2 n=1024), so the
    // first request pays the registry compile and the repeat does not.
    banner("cold vs warm registry (beta mesh2 1024)");
    let mut probe = Client::connect(&addr).expect("connect cold/warm probe");
    let cold_args = ["mesh2", "1024", "--trials", "1"];
    let t = now();
    let cold_resp = probe.call("beta", &cold_args).expect("cold beta reply");
    let cold_us = t.elapsed().as_micros() as u64;
    let t = now();
    let warm_resp = probe.call("beta", &cold_args).expect("warm beta reply");
    let warm_us = t.elapsed().as_micros() as u64;
    assert!(
        cold_resp.ok && warm_resp.ok,
        "cold/warm probes must succeed"
    );
    assert_eq!(
        cold_resp.output, warm_resp.output,
        "warm registry must not change the answer"
    );
    let mut cw = Row::blank("cold-vs-warm".to_string(), "beta");
    cw.clients = 1;
    cw.requests = 2;
    cw.cold_us = cold_us;
    cw.warm_us = warm_us;
    cw.warm_speedup = cold_us as f64 / warm_us.max(1) as f64;
    println!(
        "cold {} µs  warm {} µs  speedup {}×",
        cold_us,
        warm_us,
        fmt(cw.warm_speedup)
    );
    rows.push(cw);

    // ordering: Release pairs with the accept loop's Acquire-side poll of
    // the shutdown flag; everything the clients did happens-before drain.
    shutdown.store(true, Ordering::Release);
    runner
        .join()
        .expect("daemon runner thread")
        .expect("daemon drained cleanly");

    // Goodput vs chaos rate: what resilience costs. Each rate gets its own
    // chaos-wrapped daemon and one retrying client; errors here would mean
    // a retry budget exhausted, which the committed trajectory should never
    // show at these rates.
    banner("goodput vs wire-chaos rate (retrying client)");
    let per_chaos = match opts.scale {
        Scale::Quick => 60,
        Scale::Default => 600,
        Scale::Full => 3_000,
    };
    println!(
        "{:>10} {:>9} {:>7} {:>12} {:>10} {:>9} {:>9}",
        "rate", "requests", "errors", "goodput r/s", "mean µs", "p99", "max"
    );
    for rate in [0.0, 0.05, 0.15] {
        let row = chaos_level(rate, per_chaos);
        println!(
            "{:>10} {:>9} {:>7} {:>12} {:>10} {:>9} {:>9}",
            row.chaos_rate,
            row.requests,
            row.errors,
            fmt(row.throughput_rps),
            fmt(row.mean_us),
            row.p99_us,
            row.max_us
        );
        rows.push(row);
    }

    // Goodput vs offered load: a tiny daemon (2 slots, 1-deep queue, 1 ms
    // wait budget) driven past saturation. The shed fraction should climb
    // with the multiplier while the interactive probe's p99 stays flat.
    banner("goodput vs offered load (tiny daemon, interactive probe)");
    let tiny = ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_inflight: 2,
        max_queued: 1,
        queue_wait_ms: 1,
        poll_interval_ms: 5,
        ..ServerConfig::default()
    };
    let tiny_inflight = tiny.max_inflight;
    let tiny_server = Arc::new(Server::bind(tiny, CliHandler::new()).expect("bind tiny daemon"));
    let tiny_addr = tiny_server
        .local_addr()
        .expect("tiny daemon address")
        .to_string();
    let tiny_shutdown = Arc::new(AtomicBool::new(false));
    let tiny_runner = {
        let server = Arc::clone(&tiny_server);
        let shutdown = Arc::clone(&tiny_shutdown);
        std::thread::spawn(move || server.run(&shutdown))
    };
    // Pre-warm the heavy family so no offered level pays the compile.
    let mut warmup = Client::connect(&tiny_addr).expect("connect warmup");
    assert!(
        warmup
            .call("beta", &["mesh2", "64", "--trials", "1"])
            .expect("warmup beta")
            .ok
    );
    drop(warmup);
    let per_offered = match opts.scale {
        Scale::Quick => 20,
        Scale::Default => 150,
        Scale::Full => 600,
    };
    println!(
        "{:>8} {:>9} {:>9} {:>12} {:>10} {:>9}",
        "offered", "attempts", "shed", "goodput r/s", "shed frac", "ping p99"
    );
    for mult in [1usize, 2, 4] {
        let row = offered_level(&tiny_addr, tiny_inflight, mult, per_offered);
        println!(
            "{:>7}x {:>9} {:>9} {:>12} {:>10} {:>9}",
            mult,
            row.requests,
            (row.shed_fraction * row.requests as f64).round() as u64,
            fmt(row.throughput_rps),
            fmt(row.shed_fraction),
            row.p99_us
        );
        rows.push(row);
    }
    // ordering: Release pairs with the accept loop's Acquire-side poll.
    tiny_shutdown.store(true, Ordering::Release);
    tiny_runner
        .join()
        .expect("tiny daemon runner")
        .expect("tiny daemon drained cleanly");

    let path = write_records("serve", &rows).expect("write serve records");
    println!("\nrecords: {}", path.display());

    // The committed trajectory (or its quick shadow), merged under the same
    // schema-validated discipline as BENCH_faults.json.
    fcn_bench::commit_bench_rows(
        "BENCH_serve",
        quick,
        &rows,
        |r| &r.bench,
        fcn_bench::validate_serve_rows,
    );
}
