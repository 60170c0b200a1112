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
//! measured latencies are wall clock (timing is the product here, so the
//! clock reads carry `#[allow(clippy::disallowed_methods)]`).
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

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fcn_bench::{fmt, write_records, Failure, Report, RunOpts, Scale, SERVE_SCHEMA};
use fcn_cli::service::CliHandler;
use fcn_exec::sync::Lock;
use fcn_serve::{ChaosRates, ChaosSpec, Client, ErrorKind, RetryPolicy, Server, ServerConfig};
use rand::{RngExt, SeedableRng};
use serde::Serialize;

/// One recorded point of the service trajectory (see EXPERIMENTS.md).
/// Fields that do not apply to a row kind are written as zeros so every
/// row carries the full schema.
#[derive(Debug, Default, Serialize)]
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
            ..Row::default()
        }
    }

    /// Fill the latency histogram from `lat` (microseconds, any order).
    fn latencies(&mut self, mut lat: Vec<u64>) {
        lat.sort_unstable();
        self.mean_us = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
        self.p50_us = percentile(&lat, 50);
        self.p90_us = percentile(&lat, 90);
        self.p99_us = percentile(&lat, 99);
        self.max_us = lat.last().copied().unwrap_or(0);
    }
}

/// An in-process daemon wrapping the production handler, serving on the
/// loopback port its config names.
struct Daemon {
    addr: String,
    shutdown: Arc<AtomicBool>,
    runner: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(config: ServerConfig) -> Daemon {
        let server = Server::bind(config, CliHandler::new()).expect("bind daemon");
        let addr = server.local_addr().expect("daemon address").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let runner = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || server.run(&shutdown))
        };
        Daemon {
            addr,
            shutdown,
            runner,
        }
    }

    /// Drain the daemon and join its accept loop.
    fn stop(self) {
        // ordering: Release pairs with the accept loop's Acquire-side poll of
        // the shutdown flag; everything the clients did happens-before drain.
        self.shutdown.store(true, Ordering::Release);
        let drained = self.runner.join().expect("daemon runner thread");
        drained.expect("daemon drained cleanly");
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

/// Run one concurrency level; all clients start together and the window is
/// timed around the whole scope.
fn run_level(addr: &str, clients: usize, per_level: usize) -> Row {
    let per_client = per_level / clients;
    let merged: Lock<(Vec<u64>, usize)> = Lock::new((Vec::new(), 0));
    let t = now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let merged = &merged;
            // Per-(level, client) seed: reproducible mix, distinct per thread.
            let seed = 0x5eed_0ff0 ^ ((clients as u64) << 16) ^ c as u64;
            scope.spawn(move || {
                // One closed-loop client: private connection, private mix.
                let mut client = Client::connect(addr).expect("connect load client");
                let (lat, errors) = drive_mix(&mut client, seed, per_client);
                let mut m = merged.lock();
                m.0.extend_from_slice(&lat);
                m.1 += errors;
            });
        }
    });
    let elapsed_us = t.elapsed().as_micros() as u64;
    let (lat, errors) = merged.into_inner();
    let requests = lat.len();
    let mut row = Row::blank(format!("closed-loop@c{clients}"), "mix");
    row.clients = clients;
    row.requests = requests;
    row.errors = errors;
    row.elapsed_us = elapsed_us;
    row.throughput_rps = requests as f64 / (elapsed_us as f64 / 1e6);
    row.latencies(lat);
    row
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
    let daemon = Daemon::start(config);

    // The retrying client is the product under test here: reconnect + seeded
    // backoff on torn replies, idempotent replay for completed-but-lost ones.
    // A generous budget covers deterministic failure streaks at high rates.
    let policy = RetryPolicy::fast(50, 0xbacc_0ff5 ^ rate.to_bits());
    let mut client =
        Client::connect_retrying(&daemon.addr, policy).expect("connect retrying client");
    let t = now();
    let (lat, errors) = drive_mix(&mut client, 0x00c4_a05e ^ rate.to_bits(), per);
    let elapsed_us = t.elapsed().as_micros() as u64;
    drop(client);
    daemon.stop();

    let ok = lat.len() - errors;
    let mut row = Row::blank(format!("chaos@{rate}"), "mix");
    row.clients = 1;
    row.requests = lat.len();
    row.errors = errors;
    row.elapsed_us = elapsed_us;
    // Goodput: only successfully recovered replies count.
    row.throughput_rps = ok as f64 / (elapsed_us as f64 / 1e6);
    row.latencies(lat);
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
    let merged: Lock<(usize, usize, usize)> = Lock::new((0, 0, 0)); // (ok, shed, errors)
    let probe_lat: Lock<Vec<u64>> = Lock::new(Vec::new());
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
                let mut m = merged.lock();
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
            *probe_lat.lock() = lat;
        });
        // Scoped spawn order makes the probe last; stop it once every heavy
        // client has finished. The heavy threads are joined by scope exit,
        // so flag-then-exit is race-free: set the flag from a watcher.
        let watcher_merged = &merged;
        let watcher_stop = stop_probe;
        scope.spawn(move || {
            let total = clients * per_client;
            loop {
                let m = watcher_merged.lock();
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
    let (ok, shed, errors) = merged.into_inner();
    let lat = probe_lat.into_inner();
    let attempts = ok + shed + errors;
    let mut row = Row::blank(format!("offered@{mult}x"), "beta");
    row.clients = clients;
    row.requests = attempts;
    row.errors = errors;
    row.elapsed_us = elapsed_us;
    row.throughput_rps = ok as f64 / (elapsed_us as f64 / 1e6);
    row.latencies(lat);
    row.offered_load = mult as f64;
    row.shed_fraction = shed as f64 / attempts.max(1) as f64;
    row
}

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let quick = opts.scale == Scale::Quick;
    // Requests per concurrency level; levels are fixed so the committed
    // trajectory always has the same row keys.
    let per_level = opts.scale.pick(200, 5_000, 50_000);
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
    let daemon = Daemon::start(config);
    let addr = daemon.addr.clone();

    out.banner("fcn-serve closed-loop trajectory (in-process daemon, real TCP)")?;
    writeln!(
        out,
        "daemon at {addr}; {} requests/level over levels {levels:?}\n",
        per_level
    )?;
    writeln!(
        out,
        "{:>8} {:>9} {:>7} {:>12} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "clients", "requests", "errors", "thrpt r/s", "mean µs", "p50", "p90", "p99", "max"
    )?;
    let mut rows: Vec<Row> = Vec::new();
    for &clients in &levels {
        let row = run_level(&addr, clients, per_level);
        writeln!(
            out,
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
        )?;
        rows.push(row);
    }

    // Cold vs warm: a family no load level touches (mesh2 n=1024), so the
    // first request pays the registry compile and the repeat does not.
    out.banner("cold vs warm registry (beta mesh2 1024)")?;
    let mut probe = Client::connect(&addr).expect("connect cold/warm probe");
    let cold_args = ["mesh2", "1024", "--trials", "1"];
    let t = now();
    let cold_resp = probe.call("beta", &cold_args).expect("cold beta reply");
    let cold_us = t.elapsed().as_micros() as u64;
    let t = now();
    let warm_resp = probe.call("beta", &cold_args).expect("warm beta reply");
    let warm_us = t.elapsed().as_micros() as u64;
    if !(cold_resp.ok && warm_resp.ok) {
        return Err(Failure::Check("cold/warm probes must succeed".into()));
    }
    if cold_resp.output != warm_resp.output {
        return Err(Failure::Check("warm registry changed the answer".into()));
    }
    let mut cw = Row::blank("cold-vs-warm".to_string(), "beta");
    cw.clients = 1;
    cw.requests = 2;
    cw.cold_us = cold_us;
    cw.warm_us = warm_us;
    cw.warm_speedup = cold_us as f64 / warm_us.max(1) as f64;
    writeln!(
        out,
        "cold {} µs  warm {} µs  speedup {}×",
        cold_us,
        warm_us,
        fmt(cw.warm_speedup)
    )?;
    rows.push(cw);

    daemon.stop();

    // Goodput vs chaos rate: what resilience costs. Each rate gets its own
    // chaos-wrapped daemon and one retrying client; errors here would mean
    // a retry budget exhausted, which the committed trajectory should never
    // show at these rates.
    out.banner("goodput vs wire-chaos rate (retrying client)")?;
    let per_chaos = opts.scale.pick(60, 600, 3_000);
    writeln!(
        out,
        "{:>10} {:>9} {:>7} {:>12} {:>10} {:>9} {:>9}",
        "rate", "requests", "errors", "goodput r/s", "mean µs", "p99", "max"
    )?;
    for rate in [0.0, 0.05, 0.15] {
        let row = chaos_level(rate, per_chaos);
        writeln!(
            out,
            "{:>10} {:>9} {:>7} {:>12} {:>10} {:>9} {:>9}",
            row.chaos_rate,
            row.requests,
            row.errors,
            fmt(row.throughput_rps),
            fmt(row.mean_us),
            row.p99_us,
            row.max_us
        )?;
        rows.push(row);
    }

    // Goodput vs offered load: a tiny daemon (2 slots, 1-deep queue, 1 ms
    // wait budget) driven past saturation. The shed fraction should climb
    // with the multiplier while the interactive probe's p99 stays flat.
    out.banner("goodput vs offered load (tiny daemon, interactive probe)")?;
    let tiny = ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_inflight: 2,
        max_queued: 1,
        queue_wait_ms: 1,
        poll_interval_ms: 5,
        ..ServerConfig::default()
    };
    let tiny_inflight = tiny.max_inflight;
    let tiny = Daemon::start(tiny);
    let tiny_addr = tiny.addr.clone();
    // Pre-warm the heavy family so no offered level pays the compile.
    let mut warmup = Client::connect(&tiny_addr).expect("connect warmup");
    assert!(
        warmup
            .call("beta", &["mesh2", "64", "--trials", "1"])
            .expect("warmup beta")
            .ok
    );
    drop(warmup);
    let per_offered = opts.scale.pick(20, 150, 600);
    writeln!(
        out,
        "{:>8} {:>9} {:>9} {:>12} {:>10} {:>9}",
        "offered", "attempts", "shed", "goodput r/s", "shed frac", "ping p99"
    )?;
    for mult in [1usize, 2, 4] {
        let row = offered_level(&tiny_addr, tiny_inflight, mult, per_offered);
        writeln!(
            out,
            "{:>7}x {:>9} {:>9} {:>12} {:>10} {:>9}",
            mult,
            row.requests,
            (row.shed_fraction * row.requests as f64).round() as u64,
            fmt(row.throughput_rps),
            fmt(row.shed_fraction),
            row.p99_us
        )?;
        rows.push(row);
    }
    tiny.stop();

    write_records(out, "serve", &rows)?;

    // The committed trajectory (or its quick shadow), merged under the same
    // schema-validated discipline as BENCH_faults.json.
    fcn_bench::commit_bench_rows(
        out,
        "BENCH_serve",
        quick,
        &rows,
        |r| &r.bench,
        fcn_bench::validate_serve_rows,
    )
}
