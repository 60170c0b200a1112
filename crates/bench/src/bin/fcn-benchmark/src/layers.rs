//! Every call the benchmark makes into the program, in one file, so a change
//! that renames an entry point has one place to adapt.
//!
//! Two kinds of calls live here. The *untraced* paths are the code users
//! run: `fcnemu beta` through `fcn_cli::run`, `sweep_family` as
//! `table4 --quick` calls it, and a `fcn_serve::Server` with the production
//! `CliHandler`. The *replicas* rebuild the same computation from the
//! public layer entry points (`build_near` → `CompiledNet::shared` →
//! `Traffic::sample` → `plan_routes_cached` → `PacketBatch::compile` →
//! `route_compiled_pooled` → `plateau_rate`, plus `flux_upper_bound`), each
//! call inside a span, and must reproduce the untraced results bit for bit.
//! The only program instruments read are counters it already keeps:
//! `PlanCache` hits/misses/evictions, router outcomes, and the daemon's
//! `serve_registry_*` and admission totals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use fcn_asymptotics::fit::{classify_growth, classify_growth_offset, table4_candidates};
use fcn_asymptotics::fit_power_log;
use fcn_bandwidth::{
    flux_upper_bound, sweep_family, BandwidthEstimator, BandwidthSandwich, FamilySweep,
};
use fcn_bench::Scale;
use fcn_cli::service::CliHandler;
use fcn_exec::{job_seed, Pool};
use fcn_multigraph::Traffic;
use fcn_routing::{
    plan_routes_cached, plateau_rate, route_compiled_pooled, CompiledNet, PacketBatch, PlanCache,
    RateSample,
};
use fcn_serve::{Client, Handler, HandlerOutcome, Request, Response, Server, ServerConfig};
use fcn_topology::{Family, Machine};
use rand::SeedableRng;

use crate::trace::{now, Tracer};

/// The estimator's plan-seed domain separator (`operational.rs`).
const PLAN_STREAM: u64 = 0x9_1a7e_5eed;
/// `sweep_family`'s per-size seed domain separator (`sandwich.rs`).
const SANDWICH_STREAM: u64 = 0x5eed_5a9d;
/// `flux_upper_bound`'s random cut seeds and improvement sweeps, as the
/// CLI and `sandwich` call it.
const FLUX_CUTS: (usize, usize) = (4, 2);
/// `distance_stats`' exact threshold and sample count, as `sandwich` calls it.
const DISTANCE_PROBES: (usize, usize) = (2048, 16);

// ---------------------------------------------------------------- CLI --

/// `fcnemu <argv…>` in-process: exit code and captured stdout.
pub fn cli(argv: &[String]) -> (i32, String) {
    let mut out = Vec::new();
    let code = fcn_cli::run(argv, &mut out);
    (code, String::from_utf8_lossy(&out).into_owned())
}

fn family(id: &str) -> Result<Family, String> {
    Family::all_with_dims(&[1, 2, 3])
        .into_iter()
        .find(|f| f.id() == id)
        .ok_or_else(|| format!("unknown family {id:?}"))
}

/// The estimator `fcnemu beta --seed S` runs with default flags.
fn cli_estimator(seed: u64) -> BandwidthEstimator {
    BandwidthEstimator {
        trials: 3,
        seed,
        ..Default::default()
    }
}

/// The machine `fcnemu beta <family> <size> --seed S` builds, its name and
/// flux bound: the oracle the printed β̂ is checked against.
pub fn flux_oracle(id: &str, size: usize, seed: u64) -> Result<(String, f64), String> {
    let m = family(id)?.build_near(size, seed);
    let flux = flux_upper_bound(&m, &m.symmetric_traffic(), seed, FLUX_CUTS.0, FLUX_CUTS.1);
    Ok((m.name().to_string(), flux.rate_bound))
}

// ----------------------------------------------------- β estimates --

/// One β̂ estimate with its flux bound.
#[derive(Debug, Clone)]
pub struct Estimate {
    pub machine: String,
    pub rate: f64,
    pub flux: f64,
    /// Every number of the estimate in `Debug` form, which renders each
    /// `f64` in shortest round-trip form: equal keys mean equal bits.
    pub key: String,
}

impl Estimate {
    fn new(
        machine: &Machine,
        (rate, mean_rate, complete_trials): (f64, f64, usize),
        samples: &[RateSample],
        flux: f64,
    ) -> Estimate {
        Estimate {
            machine: machine.name().to_string(),
            rate,
            flux,
            key: format!("{:?}", (rate, mean_rate, complete_trials, samples, flux)),
        }
    }
}

/// Work counts of a replica, read from the program's own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub plan_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_entries: u64,
    pub ticks: u64,
    pub packets: u64,
    pub hops: u64,
    pub cells: u64,
    pub cells_complete: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.plan_calls += o.plan_calls;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_evictions += o.cache_evictions;
        self.cache_entries += o.cache_entries;
        self.ticks += o.ticks;
        self.packets += o.packets;
        self.hops += o.hops;
        self.cells += o.cells;
        self.cells_complete += o.cells_complete;
    }

    fn read_cache(&mut self, cache: &PlanCache) {
        self.cache_hits += cache.hits();
        self.cache_misses += cache.misses();
        self.cache_evictions += cache.evictions();
        self.cache_entries += cache.entries() as u64;
    }
}

/// The body of `fcnemu beta` without its report: what the replica must
/// reproduce.
pub fn beta_library(id: &str, size: usize, seed: u64) -> Result<Estimate, String> {
    let m = family(id)?.build_near(size, seed);
    let t = m.symmetric_traffic();
    let est = cli_estimator(seed);
    let b = est
        .try_estimate_compiled(
            &m,
            &CompiledNet::shared(&m),
            &t,
            &PlanCache::default(),
            None,
        )
        .map_err(|e| e.to_string())?;
    let flux = flux_upper_bound(&m, &t, seed, FLUX_CUTS.0, FLUX_CUTS.1);
    Ok(Estimate::new(
        &m,
        (b.rate, b.mean_rate, b.complete_trials),
        &b.samples,
        flux.rate_bound,
    ))
}

/// The estimator's `trials × multipliers` cell loop, one span per layer
/// call (`try_estimate_compiled` with one worker and one shard).
fn cells(
    m: &Machine,
    net: &CompiledNet,
    t: &Traffic,
    est: &BandwidthEstimator,
    cache: &PlanCache,
    tracer: &Tracer,
    parent: usize,
) -> Result<(Vec<RateSample>, Counters), String> {
    let n = t.n();
    let m_len = est.multipliers.len();
    let mut samples = Vec::with_capacity(est.trials * m_len);
    let mut c = Counters::default();
    for cell in 0..est.trials * m_len {
        let trial = cell / m_len;
        let messages = (est.multipliers[cell % m_len] * n).max(1);
        let req = cell as u64;
        let demands = tracer.time("multigraph.demand", Some(parent), req, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(job_seed(est.seed, req));
            (0..messages)
                .map(|_| t.sample(&mut rng))
                .collect::<Vec<_>>()
        });
        let plan_seed = job_seed(est.seed ^ PLAN_STREAM, trial as u64);
        let routes = tracer.time("routing.plan", Some(parent), req, || {
            plan_routes_cached(m, &demands, est.strategy, plan_seed, Some(cache))
        });
        let batch = tracer
            .time("routing.batch_compile", Some(parent), req, || {
                PacketBatch::compile(net, &routes)
            })
            .map_err(|e| format!("planner produced an unroutable path: {e}"))?;
        let out = tracer.time("routing.route", Some(parent), req, || {
            route_compiled_pooled(net, &batch, est.router)
        });
        c.plan_calls += 1;
        c.ticks += out.ticks;
        c.packets += out.total as u64;
        c.hops += out.total_hops;
        c.cells += 1;
        c.cells_complete += u64::from(out.completed);
        samples.push(RateSample {
            messages,
            ticks: out.ticks,
            rate: out.rate(),
            completed: out.completed,
        });
    }
    c.read_cache(cache);
    Ok((samples, c))
}

/// The estimator's reduction: best plateau across trials, their mean, and
/// the trials whose cells all completed.
fn reduce(samples: &[RateSample], m_len: usize) -> Result<(f64, f64, usize), String> {
    let mut plateaus = Vec::new();
    let mut complete = 0;
    for trial in samples.chunks(m_len) {
        if trial.iter().all(|s| s.completed) {
            complete += 1;
        }
        if let Some(p) = plateau_rate(trial) {
            plateaus.push(p);
        }
    }
    if plateaus.is_empty() {
        return Err("no trial completed within the tick budget".into());
    }
    let rate = plateaus.iter().cloned().fold(0.0, f64::max);
    let mean = plateaus.iter().sum::<f64>() / plateaus.len() as f64;
    Ok((rate, mean, complete))
}

/// Replica of [`beta_library`] with a `machine` span over its layer spans.
pub fn beta_replica(
    id: &str,
    size: usize,
    seed: u64,
    tracer: &Tracer,
    parent: usize,
    req: u64,
) -> Result<(Estimate, Counters), String> {
    let span = tracer.open("machine", Some(parent), req);
    let fam = family(id)?;
    let m = tracer.time("topology.build", Some(span), req, || {
        fam.build_near(size, seed)
    });
    let net = tracer.time("routing.compile_net", Some(span), req, || {
        CompiledNet::shared(&m)
    });
    let t = tracer.time("multigraph.demand", Some(span), req, || {
        m.symmetric_traffic()
    });
    let est = cli_estimator(seed);
    let cache = PlanCache::default();
    let (samples, counters) = cells(&m, &net, &t, &est, &cache, tracer, span)?;
    let reduced = tracer.time("bandwidth.reduce", Some(span), req, || {
        reduce(&samples, est.multipliers.len())
    })?;
    let flux = tracer.time("bandwidth.flux", Some(span), req, || {
        flux_upper_bound(&m, &t, seed, FLUX_CUTS.0, FLUX_CUTS.1)
    });
    tracer.close(span);
    Ok((
        Estimate::new(&m, reduced, &samples, flux.rate_bound),
        counters,
    ))
}

// ------------------------------------------------------------ Table 4 --

/// The `table4 --quick` configuration at one seed.
pub struct Table4 {
    families: Vec<Family>,
    targets: Vec<usize>,
    estimator: BandwidthEstimator,
    seed: u64,
}

/// Worker threads of the Table 4 pool (the measuring host has two cores).
pub const TABLE4_JOBS: usize = 2;

impl Table4 {
    /// Every Table 4 family at `Scale::Quick`; `smoke` keeps three families
    /// at n ≤ 256.
    pub fn new(smoke: bool, seed: u64) -> Table4 {
        let scale = Scale::Quick;
        let (families, targets) = if smoke {
            (
                vec![Family::Mesh(2), Family::Tree, Family::DeBruijn],
                vec![64, 256],
            )
        } else {
            (Family::all_with_dims(&[1, 2, 3]), scale.sweep_targets())
        };
        Table4 {
            families,
            targets,
            estimator: BandwidthEstimator {
                multipliers: scale.multipliers(),
                trials: scale.trials(),
                jobs: TABLE4_JOBS,
                seed,
                ..Default::default()
            },
            seed,
        }
    }

    pub fn families(&self) -> usize {
        self.families.len()
    }

    /// `sweep_family`'s first step: build each family's distinct sizes.
    fn machines(&self, family: Family) -> Vec<(usize, Machine)> {
        let mut machines: Vec<(usize, Machine)> = Vec::new();
        for (i, &t) in self.targets.iter().enumerate() {
            let m = family.build_near(t, self.seed.wrapping_add(i as u64));
            if !machines
                .iter()
                .any(|(_, o)| o.processors() == m.processors())
            {
                machines.push((i, m));
            }
        }
        machines
    }

    /// Build every machine of the sweep; returns how many.
    pub fn build_all(&self) -> usize {
        self.families.iter().map(|&f| self.machines(f).len()).sum()
    }

    /// The untraced body of `table4 --quick` for family `k`.
    pub fn sweep(&self, k: usize) -> Sweep {
        Sweep::of(&sweep_family(
            self.families[k],
            &self.targets,
            &self.estimator,
            self.seed,
        ))
    }

    /// The untraced body of `table4 --quick`.
    pub fn library(&self) -> Vec<Sweep> {
        (0..self.families.len()).map(|k| self.sweep(k)).collect()
    }

    /// Replica of [`Table4::library`]: a `family` span per family over a
    /// `topology.build` span, an `exec.fanout` span around the pool (its
    /// self time is thread start-up and join) holding one `machine` span
    /// per size, and an `asymptotics.fit` span.
    pub fn replica(&self, tracer: &Tracer, root: usize) -> Result<Table4Replica, String> {
        let pool = Pool::new(self.estimator.jobs);
        let inner = self.estimator.clone().with_jobs(1);
        let mut sweeps = Vec::new();
        let mut counters = Counters::default();
        let mut machine_s = Vec::new();
        for (fi, &family) in self.families.iter().enumerate() {
            let req = fi as u64;
            let fspan = tracer.open("family", Some(root), req);
            let machines =
                tracer.time("topology.build", Some(fspan), req, || self.machines(family));
            let fanout = tracer.open("exec.fanout", Some(fspan), req);
            let measured = pool.run(machines.len(), |k| {
                let (i, m) = &machines[k];
                let seed = job_seed(self.seed ^ SANDWICH_STREAM, *i as u64);
                let t0 = now();
                let span = tracer.open("machine", Some(fanout), req);
                let row = sandwich_replica(m, &inner, seed, tracer, span, req);
                tracer.close(span);
                row.map(|(row, c)| (row, c, t0.elapsed().as_secs_f64()))
            });
            tracer.close(fanout);
            let mut rows = Vec::new();
            let mut times = Vec::new();
            for r in measured {
                let (row, c, secs) = r?;
                rows.push(row);
                counters.add(&c);
                times.push(secs);
            }
            let sweep = tracer.time("asymptotics.fit", Some(fspan), req, || {
                fit_sweep(family, rows)
            });
            tracer.close(fspan);
            sweeps.push(Sweep::of(&sweep));
            machine_s.push(times);
        }
        Ok(Table4Replica {
            sweeps,
            counters,
            machine_s,
        })
    }
}

/// What a traced Table 4 pass produced.
pub struct Table4Replica {
    pub sweeps: Vec<Sweep>,
    pub counters: Counters,
    /// Per family, each machine's wall time on its pool worker, in seconds.
    pub machine_s: Vec<Vec<f64>>,
}

/// `sandwich` rebuilt from layer calls.
fn sandwich_replica(
    m: &Machine,
    est: &BandwidthEstimator,
    seed: u64,
    tracer: &Tracer,
    span: usize,
    req: u64,
) -> Result<(BandwidthSandwich, Counters), String> {
    let t = tracer.time("multigraph.demand", Some(span), req, || {
        m.symmetric_traffic()
    });
    let net = tracer.time("routing.compile_net", Some(span), req, || {
        CompiledNet::shared(m)
    });
    let cache = PlanCache::default();
    let (samples, counters) = cells(m, &net, &t, est, &cache, tracer, span)?;
    let (rate, _, _) = tracer.time("bandwidth.reduce", Some(span), req, || {
        reduce(&samples, est.multipliers.len())
    })?;
    let flux = tracer.time("bandwidth.flux", Some(span), req, || {
        flux_upper_bound(m, &t, seed, FLUX_CUTS.0, FLUX_CUTS.1)
    });
    let d = tracer.time("multigraph.distance", Some(span), req, || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        fcn_multigraph::distance_stats(m.graph(), DISTANCE_PROBES.0, DISTANCE_PROBES.1, &mut rng)
    });
    let row = BandwidthSandwich {
        machine: m.name().to_string(),
        family: m.family().id(),
        n: m.processors(),
        measured: rate,
        flux_bound: flux.rate_bound,
        analytic: m.beta_at_size(),
        diameter: d.diameter,
        avg_distance: d.avg_distance,
    };
    Ok((row, counters))
}

/// `sweep_family`'s tail: sort by size and classify the three series.
fn fit_sweep(family: Family, mut rows: Vec<BandwidthSandwich>) -> FamilySweep {
    rows.sort_by_key(|r| r.n);
    let series = |f: &dyn Fn(&BandwidthSandwich) -> f64| -> Vec<(f64, f64)> {
        rows.iter().map(|r| (r.n as f64, f(r))).collect()
    };
    let beta = series(&|r| r.measured.max(1e-9));
    let lambda = series(&|r| r.avg_distance.max(1.0));
    let flux = series(&|r| r.flux_bound.max(1e-9));
    let candidates = table4_candidates();
    let (beta_class, beta_class_residual) = classify_growth(&beta, &candidates);
    let (flux_class, flux_class_residual) = classify_growth_offset(&flux, &candidates);
    let (lambda_class, lambda_class_residual) = classify_growth_offset(&lambda, &candidates);
    FamilySweep {
        family: family.id(),
        beta_fit: fit_power_log(&beta),
        beta_class,
        beta_class_residual,
        flux_class,
        flux_class_residual,
        lambda_class,
        lambda_class_residual,
        lambda_fit: fit_power_log(&lambda),
        rows,
    }
}

/// What the benchmark reads from one `FamilySweep`.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub family: String,
    pub beta_class: String,
    pub lambda_class: String,
    pub flux_class: String,
    /// `(machine, measured β̂, flux bound)` per size.
    pub rows: Vec<(String, f64, f64)>,
    /// The whole sweep in `Debug` form: equal keys mean equal bits.
    pub key: String,
}

impl Sweep {
    fn of(s: &FamilySweep) -> Sweep {
        Sweep {
            family: s.family.clone(),
            beta_class: s.beta_class.theta_string(),
            lambda_class: s.lambda_class.theta_string(),
            flux_class: s.flux_class.theta_string(),
            rows: s
                .rows
                .iter()
                .map(|r| (r.machine.clone(), r.measured, r.flux_bound))
                .collect(),
            key: format!("{s:?}"),
        }
    }
}

// -------------------------------------------------------------- serve --

/// The daemon's routing and bandwidth counters are gated on the global
/// registry; `fcnemu serve` always enables it, and so does the benchmark.
pub fn enable_service_telemetry() {
    fcn_telemetry::global().set_enabled(true);
}

/// The production request handler.
pub fn plain_handler() -> CliHandler {
    CliHandler::new()
}

/// Handler-side timestamps of a traced phase: `(connection thread, entry,
/// exit)` per handled request.
#[derive(Debug, Default)]
pub struct HandlerLog {
    on: AtomicBool,
    calls: Mutex<Vec<(ThreadId, Instant, Instant)>>,
}

impl HandlerLog {
    pub fn set_recording(&self, on: bool) {
        // ordering: a phase switch flipped between phases while no request
        // is in flight; Relaxed suffices.
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn take(&self) -> Vec<(ThreadId, Instant, Instant)> {
        std::mem::take(&mut *self.calls.lock().expect("handler log lock"))
    }
}

/// The benchmark-owned handler: `CliHandler` timed at entry and exit.
pub struct TimedHandler {
    inner: CliHandler,
    log: Arc<HandlerLog>,
}

pub fn timed_handler(log: Arc<HandlerLog>) -> TimedHandler {
    TimedHandler {
        inner: CliHandler::new(),
        log,
    }
}

impl Handler for TimedHandler {
    fn handle(&self, kind: &str, args: &[String], cancel: &AtomicBool) -> HandlerOutcome {
        let entry = now();
        let out = self.inner.handle(kind, args, cancel);
        let exit = now();
        // ordering: see HandlerLog::set_recording.
        if self.log.on.load(Ordering::Relaxed) {
            let me = std::thread::current().id();
            self.log
                .calls
                .lock()
                .expect("handler log lock")
                .push((me, entry, exit));
        }
        out
    }
}

/// A handler a daemon thread can own: the plain or the timed one.
pub trait ServedHandler: Handler + Send + 'static {}
impl<H: Handler + Send + 'static> ServedHandler for H {}

/// An in-process daemon on an ephemeral loopback port with the production
/// configuration, served from its own thread.
pub struct Daemon<H: ServedHandler> {
    server: Arc<Server<H>>,
    shutdown: Arc<AtomicBool>,
    runner: JoinHandle<std::io::Result<()>>,
    pub addr: String,
}

pub fn start_daemon<H: ServedHandler>(handler: H) -> Result<Daemon<H>, String> {
    let server =
        Server::bind(ServerConfig::default(), handler).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let server = Arc::new(server);
    let shutdown = Arc::new(AtomicBool::new(false));
    let runner = {
        let (server, shutdown) = (Arc::clone(&server), Arc::clone(&shutdown));
        std::thread::spawn(move || server.run(&shutdown))
    };
    Ok(Daemon {
        server,
        shutdown,
        runner,
        addr,
    })
}

impl<H: ServedHandler> Daemon<H> {
    /// `serve_registry_{hits,misses}_total` so far.
    pub fn registry(&self) -> (u64, u64) {
        let snap = self.server.metrics().snapshot();
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (
            get(fcn_telemetry::names::SERVE_REGISTRY_HITS_TOTAL),
            get(fcn_telemetry::names::SERVE_REGISTRY_MISSES_TOTAL),
        )
    }

    /// Drain and join the daemon (close client connections first).
    pub fn stop(self) -> Result<(), String> {
        // ordering: Release pairs with the accept loop's poll of the flag.
        self.shutdown.store(true, Ordering::Release);
        match self.runner.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// One client connection.
pub struct Conn(Client);

/// A reply as the benchmark checks it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub ok: bool,
    pub output: String,
    resp: Response,
}

pub fn connect(addr: &str) -> Result<Conn, String> {
    Client::connect(addr).map(Conn).map_err(|e| e.to_string())
}

impl Conn {
    pub fn call(&mut self, kind: &str, args: &[&str]) -> Result<Reply, String> {
        let resp = self.0.call(kind, args).map_err(|e| e.to_string())?;
        Ok(Reply {
            ok: resp.ok && resp.exit_code == 0,
            output: resp.output.clone(),
            resp,
        })
    }

    /// Admission totals from a `health` request: `(queued, shed)`.
    pub fn admission(&mut self) -> Result<(u64, u64), String> {
        let reply = self.call("health", &[])?;
        let field = |name: &str| -> u64 {
            reply
                .output
                .lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.trim() == name)
                .and_then(|(_, v)| v.trim().parse().ok())
                .unwrap_or(0)
        };
        Ok((
            field("queued_total"),
            field("shed_queue_full_total") + field("shed_wait_expired_total"),
        ))
    }
}

/// Time to encode and decode one recorded request/reply frame pair.
pub fn codec_time(id: u64, kind: &str, args: &[&str], reply: &Reply) -> Result<Duration, String> {
    let req = Request::new(id, kind, args);
    let t0 = now();
    let req_back = Request::decode(&req.encode())?;
    let resp_back = Response::decode(&reply.resp.encode())?;
    let took = t0.elapsed();
    if req_back.kind != kind || resp_back.output != reply.output {
        return Err("codec round trip changed a frame".into());
    }
    Ok(took)
}
