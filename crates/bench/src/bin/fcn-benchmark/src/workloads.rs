//! The four workloads. Each run sets up (several times; `setup_s` is the
//! median), measures for the requested seconds, checks its outputs, and
//! reports either the end-to-end metrics (untraced) or the per-layer split
//! of a traced replica (traced). Program calls go through `layers.rs`; why
//! each workload exists is in README.md.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{RngExt, SeedableRng};

use crate::layers::{self, Counters, Reply};
use crate::reference::{self, Observed};
use crate::results::{Outcome, END_TO_END, PER_LAYER};
use crate::speed::Normalizer;
use crate::stats::{highest_reportable, median, percentile, sorted};
use crate::trace::{self, now, Span, Tracer};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["beta-bfs", "beta-native", "table4-quick", "serve-beta"];

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 9;
/// A traced run whose structural spans (time inside no layer call) exceed
/// this share of the summed span time fails its check.
const RECONCILE: f64 = 0.10;
/// Layer spans and the metric each one's summed self time feeds.
const LAYER_SPANS: [(&str, &str); 11] = [
    ("topology.build", "topology.build_s"),
    ("routing.compile_net", "routing.compile_net_s"),
    ("multigraph.demand", "multigraph.demand_s"),
    ("routing.plan", "routing.plan_s"),
    ("routing.batch_compile", "routing.batch_compile_s"),
    ("routing.route", "routing.route_s"),
    ("bandwidth.reduce", "bandwidth.reduce_s"),
    ("bandwidth.flux", "bandwidth.flux_s"),
    ("multigraph.distance", "multigraph.distance_s"),
    ("asymptotics.fit", "asymptotics.fit_s"),
    ("exec.fanout", "exec.fanout_s"),
];
/// Slack on `β̂ ≤ flux bound` for Table 4's machines only. β̂ is the best
/// plateau over a few finite-batch trials, so on a small machine it can
/// exceed the bound on the expected rate by sampling noise. Over seeds
/// 1–200 and 601–620, `table4-quick` read at most 9.4% above it
/// (mesh_of_trees1(side=128) at seed 86; no other seed above 6.7%), so the
/// slack is half as much again. The β and serve workloads get no slack.
const SWEEP_FLUX_SLACK: f64 = 0.15;

fn within_flux(beta: f64, flux: f64) -> bool {
    beta <= flux + 1e-9
}

/// Spans that only group layer calls; their self time is unattributed.
const STRUCTURAL: [&str; 4] = ["iteration", "family", "machine", "request"];

/// Open-loop arrival rate of `serve-beta`: each connection gets a request
/// every 13.3 ms and a warm β at n = 256 takes about 5 ms, so each is busy
/// about 40% of the time.
const SERVE_RATE: f64 = 150.0;
/// Sender threads, each owning one connection (the host has two cores).
const SENDERS: usize = 2;
/// Length of one open-loop phase; the yardstick is read between phases.
/// The host's speed moves within a second: on ten alternating pairs of
/// runs, half-second phases left a latency spread of 0.056 where
/// one-second phases left 0.068.
const SERVE_PHASE_S: f64 = 0.5;
/// Length of the closed-loop capacity probe that ends each phase.
const PROBE_S: f64 = 0.125;
/// Requests in the probe's seeded mix, which the senders cycle through.
const PROBE_MIX: usize = 40;
/// Domain separator of the probe mix's seed.
const PROBE_STREAM: u64 = 0xc1_05ed;
/// Share of `ping` in the served mix; the rest is warm β.
const PING_SHARE: f64 = 0.10;
/// The served β requests, fixed arguments.
const SERVE_BETAS: [&str; 3] = ["mesh2", "butterfly", "de_bruijn"];
const SERVE_BETA_ARGS: [&str; 3] = ["256", "--trials", "1"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small sizes and short phases (the smoke run).
    pub quick: bool,
    /// Write observed outputs here instead of checking the reference.
    pub observed_out: Option<PathBuf>,
}

type Values = BTreeMap<&'static str, f64>;

/// Run one workload.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    match (o.workload.as_str(), o.trace) {
        ("beta-bfs" | "beta-native", false) => beta_untraced(o),
        ("beta-bfs" | "beta-native", true) => beta_traced(o),
        ("table4-quick", false) => table4_untraced(o),
        ("table4-quick", true) => table4_traced(o),
        ("serve-beta", false) => serve_untraced(o),
        ("serve-beta", true) => serve_traced(o),
        (w, _) => Err(format!(
            "unknown workload {w:?} (expected one of {NAMES:?})"
        )),
    }
}

/// Failed output checks; any makes the run incorrect.
#[derive(Debug, Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.0.push(msg);
        }
    }

    fn ok(&self) -> bool {
        self.0.is_empty()
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB, read after the
/// first untraced iteration. A diagnostic, not a gate: with two pool
/// workers, `table4-quick` read 41–53 MB over ten runs, and a steady 33 MB
/// with `MALLOC_ARENA_MAX=1`, so the spread is allocator arenas, not work.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// `(machine, β̂, flux bound)` as printed by `fcnemu beta`, numbers as text.
fn parse_report(out: &str) -> Option<(String, String, String)> {
    let value = |key: &str| {
        out.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, rest)| rest.trim().to_string())
    };
    let machine = value("machine")?.split(" (n =").next()?.to_string();
    let first = |s: String| s.split_whitespace().next().map(str::to_string);
    Some((
        machine,
        first(value("measured β̂")?)?,
        first(value("flux bound")?)?,
    ))
}

fn number(text: &str) -> Result<f64, String> {
    text.parse()
        .map_err(|_| format!("unparsable number {text:?}"))
}

/// Compare with the committed reference at the reference seed, or write
/// the observations for `--update-reference`.
fn finish_reference(o: &Opts, observed: &Observed, checks: &mut Checks) -> Result<(), String> {
    if let Some(path) = &o.observed_out {
        return std::fs::write(path, observed.to_json())
            .map_err(|e| format!("{}: {e}", path.display()));
    }
    if o.seed == reference::REFERENCE_SEED && !o.quick {
        match reference::committed().and_then(|r| reference::check(observed, &r)) {
            Ok(dev) => eprintln!("beta_ref_err {dev:.3e} (max relative deviation)"),
            Err(e) => checks.expect(false, || e),
        }
    }
    Ok(())
}

fn write_trace(o: &Opts, spans: &[Span], checks: &mut Checks) -> Result<(), String> {
    let text = trace::to_jsonl(&o.workload, o.seed, spans);
    checks.expect(trace::validate_trace(&text).is_ok(), || {
        "span file fails its validator".into()
    });
    let dir = crate::target_dir().join("fcn-benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}.jsonl", o.workload));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {}", path.display());
    Ok(())
}

/// Whether to start another iteration: runs stop at the iteration boundary
/// nearest the requested duration (always after at least one).
fn another(start: Instant, times: &[f64], seconds: f64) -> bool {
    times.is_empty() || secs(start) + median(times) / 2.0 < seconds
}

/// Run `setup` [`SETUPS`] times, each followed by an untimed `teardown`
/// that leaves no program thread running while the yardstick is read;
/// returns the last teardown's result and each set-up's time at the
/// reference speed.
fn timed_setups<T, U>(
    norm: &mut Normalizer,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<U, String>,
) -> Result<(U, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t = now();
        let made = setup()?;
        let dt = secs(t);
        last = Some(teardown(made)?);
        times.push(dt * norm.after());
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

fn keep<T>(made: T) -> Result<T, String> {
    Ok(made)
}

/// Iteration times of one run, raw and at the reference speed.
struct Iterations {
    raw: Vec<f64>,
    norm: Vec<f64>,
}

/// Run iterations until the requested duration. `op(i, norm)` runs
/// iteration `i` and returns its raw and reference-speed seconds.
fn timed_iterations(
    o: &Opts,
    norm: &mut Normalizer,
    mut op: impl FnMut(usize, &mut Normalizer) -> Result<(f64, f64), String>,
) -> Result<Iterations, String> {
    let mut it = Iterations {
        raw: Vec::new(),
        norm: Vec::new(),
    };
    let start = now();
    while another(start, &it.raw, o.seconds) {
        let (raw, scaled) = op(it.raw.len(), norm)?;
        it.raw.push(raw);
        it.norm.push(scaled);
    }
    Ok(it)
}

/// Time `work`, then read the yardstick: raw and reference-speed seconds.
fn timed<T>(norm: &mut Normalizer, work: impl FnOnce() -> T) -> (T, f64, f64) {
    let t = now();
    let out = work();
    let dt = secs(t);
    (out, dt, dt * norm.after())
}

/// `setup_s`, the median iteration time and the capacity of an iteration
/// workload, all at the reference speed. Iterations run back to back, so
/// the capacity is iterations per second of iteration time: the inverse of
/// the mean where `op_p50_ms` is the median, so a slow outlier iteration
/// that the median hides still shows in it.
fn iteration_values(setup: &[f64], it: &Iterations, norm: &Normalizer) -> Values {
    let mut v = Values::new();
    v.insert("setup_s", median(setup));
    v.insert("op_p50_ms", median(&it.norm) * 1e3);
    v.insert(
        "capacity_per_s",
        it.norm.len() as f64 / it.norm.iter().sum::<f64>(),
    );
    eprintln!(
        "{} iterations, median {:.3} s raw, {:.3} s at reference speed (yardstick {:.1} ms)",
        it.raw.len(),
        median(&it.raw),
        median(&it.norm),
        norm.median_ms()
    );
    v
}

/// State the sample count behind the percentiles, and the highest
/// percentile with ten samples beyond it.
fn report_samples(n: usize, what: &str) {
    match highest_reportable(n) {
        Some(p) => eprintln!("{n} {what}; p{p} is the highest percentile with 10 beyond it"),
        None => eprintln!("{n} {what}; too few for a tail percentile with 10 beyond it"),
    }
}

/// Spans `[lo, hi)` of a trace as a trace of their own.
fn subtrace(spans: &[Span], lo: usize, hi: usize) -> Vec<Span> {
    spans[lo..hi]
        .iter()
        .map(|s| Span {
            parent: s.parent.map(|p| p - lo),
            ..s.clone()
        })
        .collect()
}

/// Time inside no layer call, checked against [`RECONCILE`].
fn unattributed(spans: &[Span], checks: &mut Checks) -> f64 {
    let by_name = trace::self_seconds_by_name(spans);
    let total: f64 = by_name.values().sum();
    let loose: f64 = STRUCTURAL.iter().filter_map(|n| by_name.get(n)).sum();
    checks.expect(loose <= RECONCILE * total, || {
        format!("trace does not reconcile: {loose:.4} s of {total:.4} s outside layer spans")
    });
    loose
}

/// Per-layer values of one traced iteration rooted at `spans[0]`.
fn layer_values(spans: &[Span], c: &Counters, untraced_s: f64, checks: &mut Checks) -> Values {
    let by_name = trace::self_seconds_by_name(spans);
    let mut v = Values::new();
    for (span, metric) in LAYER_SPANS {
        v.insert(metric, by_name.get(span).copied().unwrap_or(0.0));
    }
    let iter_s = spans[0].dur_ns() as f64 / 1e9;
    v.insert("trace.iter_s", iter_s);
    v.insert("trace.overhead_ratio", iter_s / untraced_s);
    v.insert("trace.unattributed_s", unattributed(spans, checks));
    let lookups = c.cache_hits + c.cache_misses;
    v.insert("routing.plan_calls", c.plan_calls as f64);
    v.insert("routing.plan_cache_hits", c.cache_hits as f64);
    v.insert("routing.plan_cache_misses", c.cache_misses as f64);
    v.insert("routing.plan_cache_evictions", c.cache_evictions as f64);
    v.insert("routing.plan_cache_entries", c.cache_entries as f64);
    v.insert(
        "routing.plan_cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            c.cache_hits as f64 / lookups as f64
        },
    );
    v.insert("routing.ticks", c.ticks as f64);
    v.insert("routing.packets", c.packets as f64);
    v.insert("routing.hops", c.hops as f64);
    let route_s = v["routing.route_s"];
    v.insert(
        "routing.hops_per_s",
        if route_s > 0.0 {
            c.hops as f64 / route_s
        } else {
            0.0
        },
    );
    v.insert(
        "bandwidth.cell_complete_ratio",
        c.cells_complete as f64 / c.cells.max(1) as f64,
    );
    v
}

/// Per-metric median over traced iterations.
fn median_values(iters: &[Values]) -> Values {
    let mut out = Values::new();
    for &k in iters[0].keys() {
        let xs: Vec<f64> = iters.iter().map(|v| v[k]).collect();
        out.insert(k, median(&xs));
    }
    out
}

fn share(v: &Values, metric: &str) -> String {
    format!("{:.1}%", 100.0 * v[metric] / v["trace.iter_s"])
}

// --------------------------------------------------------------- β --

fn beta_machines(o: &Opts) -> Vec<(&'static str, usize)> {
    let n = |full: usize| if o.quick { 256 } else { full };
    if o.workload == "beta-bfs" {
        vec![("mesh2", n(2304)), ("butterfly", n(2304))]
    } else {
        vec![("de_bruijn", n(4096)), ("shuffle_exchange", n(4096))]
    }
}

/// `fcnemu beta <id> <n> --seed S`, default flags otherwise.
fn beta_argv(id: &str, n: usize, seed: u64) -> Vec<String> {
    argv(&["beta", id, &n.to_string(), "--seed", &seed.to_string()])
}

fn beta_untraced(o: &Opts) -> Result<Outcome, String> {
    let machines = beta_machines(o);
    let mut checks = Checks::default();
    let mut norm = Normalizer::start();
    // Set-up: the flux bound each printed β̂ is checked against.
    let (oracles, setup) = timed_setups(
        &mut norm,
        || {
            machines
                .iter()
                .map(|&(id, n)| layers::flux_oracle(id, n, o.seed))
                .collect::<Result<Vec<_>, _>>()
        },
        keep,
    )?;
    let (mut first, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let it = timed_iterations(o, &mut norm, |i, norm| {
        let (outs, raw, scaled) = timed(norm, || {
            machines
                .iter()
                .map(|&(id, n)| layers::cli(&beta_argv(id, n, o.seed)))
                .collect::<Vec<_>>()
        });
        let outs: Vec<String> = outs
            .into_iter()
            .map(|(code, out)| {
                attempted += 1;
                failed += u64::from(code != 0);
                out
            })
            .collect();
        if i == 0 {
            first = outs;
        } else {
            checks.expect(outs == first, || "reports differ between iterations".into());
        }
        Ok((raw, scaled))
    })?;
    let mut observed = Observed::default();
    for (out, (name, flux)) in first.iter().zip(&oracles) {
        let Some((machine, beta, printed_flux)) = parse_report(out) else {
            checks.expect(false, || format!("unparsable report:\n{out}"));
            continue;
        };
        let expected_flux = format!("{flux:.3}");
        checks.expect(machine == *name && printed_flux == expected_flux, || {
            format!("{machine}: printed flux {printed_flux}, oracle {name} {expected_flux}")
        });
        // Both numbers are printed to three decimals, and rounding keeps
        // their order, so the printed pair must obey the bound too.
        let (beta, printed_flux) = (number(&beta)?, number(&printed_flux)?);
        checks.expect(within_flux(beta, printed_flux), || {
            format!("{machine}: β̂ {beta} exceeds its flux bound {printed_flux}")
        });
        observed.betas.push((o.workload.clone(), machine, beta));
    }
    finish_reference(o, &observed, &mut checks)?;
    let v = iteration_values(&setup, &it, &norm);
    Ok(Outcome::from_values(
        checks.ok(),
        attempted,
        failed,
        &END_TO_END,
        &v,
    ))
}

fn beta_traced(o: &Opts) -> Result<Outcome, String> {
    let machines = beta_machines(o);
    let mut checks = Checks::default();
    // What `fcnemu beta` prints: the library path below must be the
    // computation the untraced runs time.
    let printed = machines
        .iter()
        .map(|&(id, n)| {
            let (_, out) = layers::cli(&beta_argv(id, n, o.seed));
            parse_report(&out).ok_or_else(|| format!("unparsable report:\n{out}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tracer = Tracer::new();
    let mut norm = Normalizer::start();
    let mut rss = 0.0;
    let mut runs: Vec<(usize, f64, Counters)> = Vec::new();
    let mut pairs = Vec::new();
    let start = now();
    while another(start, &pairs, o.seconds) {
        let t = now();
        let library = machines
            .iter()
            .map(|&(id, n)| layers::beta_library(id, n, o.seed))
            .collect::<Result<Vec<_>, _>>()?;
        let untraced_s = secs(t);
        if runs.is_empty() {
            rss = peak_rss_mb()?;
            for (lib, (machine, beta, flux)) in library.iter().zip(&printed) {
                let (rate, bound) = (format!("{:.3}", lib.rate), format!("{:.3}", lib.flux));
                checks.expect(
                    lib.machine == *machine && rate == *beta && bound == *flux,
                    || {
                        format!(
                            "{machine}: fcnemu beta prints β̂ {beta}, flux {flux}; \
                             the library path gives {}: {rate}, {bound}",
                            lib.machine
                        )
                    },
                );
            }
        }
        let root = tracer.open("iteration", None, runs.len() as u64);
        let mut counters = Counters::default();
        for (k, (&(id, n), lib)) in machines.iter().zip(&library).enumerate() {
            let (rep, c) = layers::beta_replica(id, n, o.seed, &tracer, root, k as u64)?;
            counters.add(&c);
            checks.expect(rep.key == lib.key, || {
                format!(
                    "{}: traced replica differs from the untraced estimate",
                    rep.machine
                )
            });
            checks.expect(within_flux(rep.rate, rep.flux), || {
                format!(
                    "{}: β̂ {} exceeds its flux bound {}",
                    rep.machine, rep.rate, rep.flux
                )
            });
        }
        tracer.close(root);
        runs.push((root, untraced_s, counters));
        pairs.push(secs(t));
        norm.after();
    }
    let spans = tracer.into_spans();
    let per_iter: Vec<Values> = runs
        .iter()
        .enumerate()
        .map(|(i, (root, untraced_s, c))| {
            let hi = runs.get(i + 1).map_or(spans.len(), |r| r.0);
            layer_values(&subtrace(&spans, *root, hi), c, *untraced_s, &mut checks)
        })
        .collect();
    let mut v = median_values(&per_iter);
    v.insert("speed.yardstick_ms", norm.median_ms());
    v.insert("mem.peak_rss_mb", rss);
    eprintln!(
        "traced split: plan {}, route {}, flux {}, batch compile {}",
        share(&v, "routing.plan_s"),
        share(&v, "routing.route_s"),
        share(&v, "bandwidth.flux_s"),
        share(&v, "routing.batch_compile_s")
    );
    write_trace(o, &spans, &mut checks)?;
    let attempted = (runs.len() * machines.len()) as u64;
    Ok(Outcome::from_values(
        checks.ok(),
        attempted,
        0,
        &PER_LAYER,
        &v,
    ))
}

// ------------------------------------------------------------ Table 4 --

fn check_sweeps(o: &Opts, sweeps: &[layers::Sweep], checks: &mut Checks) -> Observed {
    let mut observed = Observed::default();
    let mut worst = (0.0f64, "");
    for s in sweeps {
        for (machine, measured, flux) in &s.rows {
            if measured / flux > worst.0 {
                worst = (measured / flux, machine);
            }
            checks.expect(*measured <= flux * (1.0 + SWEEP_FLUX_SLACK), || {
                format!(
                    "{machine}: β̂ {measured} exceeds its flux bound {flux} by more than the slack"
                )
            });
            observed
                .betas
                .push((o.workload.clone(), machine.clone(), *measured));
        }
        observed.classes.push((
            s.family.clone(),
            s.beta_class.clone(),
            s.lambda_class.clone(),
            s.flux_class.clone(),
        ));
    }
    eprintln!(
        "largest β̂ / flux bound of the sweep: {:.4} ({})",
        worst.0, worst.1
    );
    observed
}

fn table4_untraced(o: &Opts) -> Result<Outcome, String> {
    let cfg = layers::Table4::new(o.quick, o.seed);
    let mut checks = Checks::default();
    // One pass over all families outlasts the host's speed swings, so the
    // yardstick is read after every family.
    let mut norm = Normalizer::start_frequent();
    // Set-up: build every machine of the sweep.
    let (built, setup) = timed_setups(&mut norm, || Ok(cfg.build_all()), keep)?;
    checks.expect(built >= 2 * cfg.families(), || {
        format!("only {built} machines")
    });
    let mut first: Vec<layers::Sweep> = Vec::new();
    let it = timed_iterations(o, &mut norm, |i, norm| {
        let (mut sweeps, mut raw, mut scaled) = (Vec::new(), 0.0, 0.0);
        for k in 0..cfg.families() {
            let (sweep, r, s) = timed(norm, || cfg.sweep(k));
            sweeps.push(sweep);
            raw += r;
            scaled += s;
        }
        if i == 0 {
            first = sweeps;
        } else {
            let same = sweeps.iter().zip(&first).all(|(a, b)| a.key == b.key);
            checks.expect(same, || "sweeps differ between iterations".into());
        }
        Ok((raw, scaled))
    })?;
    let observed = check_sweeps(o, &first, &mut checks);
    finish_reference(o, &observed, &mut checks)?;
    let v = iteration_values(&setup, &it, &norm);
    let attempted = (it.raw.len() * cfg.families()) as u64;
    Ok(Outcome::from_values(
        checks.ok(),
        attempted,
        0,
        &END_TO_END,
        &v,
    ))
}

fn table4_traced(o: &Opts) -> Result<Outcome, String> {
    let cfg = layers::Table4::new(o.quick, o.seed);
    let mut checks = Checks::default();
    let tracer = Tracer::new();
    let mut norm = Normalizer::start();
    let mut rss = 0.0;
    let mut runs = Vec::new();
    let mut pairs = Vec::new();
    let start = now();
    while another(start, &pairs, o.seconds) {
        let t = now();
        let library = cfg.library();
        let untraced_s = secs(t);
        if runs.is_empty() {
            rss = peak_rss_mb()?;
        }
        let root = tracer.open("iteration", None, runs.len() as u64);
        let replica = cfg.replica(&tracer, root)?;
        tracer.close(root);
        for (rep, lib) in replica.sweeps.iter().zip(&library) {
            checks.expect(rep.key == lib.key, || {
                format!(
                    "{}: traced FamilySweep differs from sweep_family",
                    rep.family
                )
            });
        }
        check_sweeps(o, &replica.sweeps, &mut checks);
        runs.push((root, untraced_s, replica));
        pairs.push(secs(t));
        norm.after();
    }
    let spans = tracer.into_spans();
    let per_iter: Vec<Values> = runs
        .iter()
        .enumerate()
        .map(|(i, (root, untraced_s, replica))| {
            let hi = runs.get(i + 1).map_or(spans.len(), |r| r.0);
            let sub = subtrace(&spans, *root, hi);
            let mut v = layer_values(&sub, &replica.counters, *untraced_s, &mut checks);
            let machine_s = &replica.machine_s;
            let busy: f64 = machine_s.iter().flatten().sum();
            let jobs = layers::TABLE4_JOBS as f64;
            v.insert("exec.parallel_efficiency", busy / (jobs * untraced_s));
            let critical = machine_s
                .iter()
                .map(|f| f.iter().cloned().fold(0.0, f64::max))
                .sum();
            v.insert("exec.critical_path_s", critical);
            v
        })
        .collect();
    let mut v = median_values(&per_iter);
    v.insert("speed.yardstick_ms", norm.median_ms());
    v.insert("mem.peak_rss_mb", rss);
    eprintln!(
        "traced split: route {}, plan {}, flux {}, distance {}, parallel efficiency {:.2}",
        share(&v, "routing.route_s"),
        share(&v, "routing.plan_s"),
        share(&v, "bandwidth.flux_s"),
        share(&v, "multigraph.distance_s"),
        v["exec.parallel_efficiency"]
    );
    write_trace(o, &spans, &mut checks)?;
    let attempted = (runs.len() * cfg.families()) as u64;
    Ok(Outcome::from_values(
        checks.ok(),
        attempted,
        0,
        &PER_LAYER,
        &v,
    ))
}

// -------------------------------------------------------------- serve --

/// One request of the served mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Ping,
    /// Index into [`SERVE_BETAS`].
    Beta(usize),
}

impl Req {
    fn kind_args(self) -> (&'static str, Vec<&'static str>) {
        match self {
            Req::Ping => ("ping", Vec::new()),
            Req::Beta(b) => {
                let mut args = vec![SERVE_BETAS[b]];
                args.extend(SERVE_BETA_ARGS);
                ("beta", args)
            }
        }
    }
}

/// The seeded request mix: a fixed composition ([`PING_SHARE`] pings, the
/// rest split evenly over [`SERVE_BETAS`]) in seeded order. The seed moves
/// the order, not the counts: the median of a mix of kinds with different
/// costs would otherwise move with the draw. Request `k` of a phase is due
/// `k / rate` seconds after the phase starts and goes out on connection
/// `k % SENDERS`.
fn schedule(seed: u64, count: usize) -> Vec<Req> {
    let pings = (count as f64 * PING_SHARE).round() as usize;
    let mut reqs: Vec<Req> = (0..count)
        .map(|i| match i.checked_sub(pings) {
            None => Req::Ping,
            Some(b) => Req::Beta(b % SERVE_BETAS.len()),
        })
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e77_e10a);
    for i in (1..count).rev() {
        reqs.swap(i, rng.random_range(0..i + 1));
    }
    reqs
}

fn due_offset(k: usize) -> Duration {
    Duration::from_secs_f64(k as f64 / SERVE_RATE)
}

/// One sent request.
struct Sent {
    k: usize,
    req: Req,
    due: Instant,
    send: Instant,
    recv: Instant,
    reply: Option<Reply>,
}

impl Sent {
    fn e2e_ms(&self) -> f64 {
        (self.recv - self.due).as_secs_f64() * 1e3
    }
}

/// How the senders pace their requests.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Each request once, request `k` due `k / SERVE_RATE` after the start.
    Open,
    /// Back to back, cycling through the requests, until this long after
    /// the start; each request is due when it is sent.
    Closed(Duration),
}

/// Drive one phase. Sender `i` owns requests `i`, `i + SENDERS`, … and
/// sleeps until each is due, then sends it and waits for the reply on its
/// own connection. An open-loop sender behind schedule sends at once, so a
/// stall shows up in the latency of the requests queued behind it.
fn drive(conns: &mut [layers::Conn], reqs: &[Req], pace: Pace) -> (Instant, Vec<Sent>) {
    // A short lead so both senders start from the same due time.
    let t0 = now() + Duration::from_millis(20);
    let senders = conns.len();
    let mut sent: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for k in (i..).step_by(senders) {
                        let due = match pace {
                            Pace::Open if k < reqs.len() => t0 + due_offset(k),
                            Pace::Closed(length) if now() < t0 + length => now().max(t0),
                            _ => break,
                        };
                        trace::sleep_until(due);
                        let req = reqs[k % reqs.len()];
                        let (kind, args) = req.kind_args();
                        let send = now();
                        let reply = conn.call(kind, &args).ok();
                        out.push(Sent {
                            k,
                            req,
                            due,
                            send,
                            recv: now(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    sent.sort_by_key(|s| s.k);
    (t0, sent)
}

/// Inline `fcnemu` output for each distinct served β request, each
/// checked against its printed flux bound.
fn expected_replies(checks: &mut Checks) -> Result<Vec<String>, String> {
    let mut replies = Vec::new();
    for b in 0..SERVE_BETAS.len() {
        let (kind, args) = Req::Beta(b).kind_args();
        let mut full = vec![kind];
        full.extend(args);
        let out = match layers::cli(&argv(&full)) {
            (0, out) => out,
            (code, out) => return Err(format!("inline {full:?} exited {code}: {out}")),
        };
        let (machine, beta, flux) =
            parse_report(&out).ok_or_else(|| format!("unparsable report:\n{out}"))?;
        let (beta, flux) = (number(&beta)?, number(&flux)?);
        checks.expect(within_flux(beta, flux), || {
            format!("{machine}: β̂ {beta} exceeds its flux bound {flux}")
        });
        replies.push(out);
    }
    Ok(replies)
}

/// Check every reply against the inline output; returns the failed count.
fn check_replies(sent: &[Sent], expected: &[String], checks: &mut Checks) -> u64 {
    let mut failed = 0;
    for s in sent {
        let want = match s.req {
            Req::Ping => "pong\n",
            Req::Beta(b) => expected[b].as_str(),
        };
        match &s.reply {
            Some(r) if r.ok => checks.expect(r.output == want, || {
                format!("request {}: reply differs from inline fcnemu output", s.k)
            }),
            _ => {
                failed += 1;
                checks.expect(false, || format!("request {} failed", s.k));
            }
        }
    }
    failed
}

/// Bind a daemon, connect both senders, and warm the registry: connection
/// 0 sends each served β once, then connection 1 sends the first.
fn serve_setup<H: layers::ServedHandler>(
    handler: H,
) -> Result<(layers::Daemon<H>, Vec<layers::Conn>), String> {
    let daemon = layers::start_daemon(handler)?;
    let mut conns = Vec::new();
    for c in 0..SENDERS {
        let mut conn = layers::connect(&daemon.addr)?;
        let warm = if c == 0 { SERVE_BETAS.len() } else { 1 };
        for b in 0..warm {
            let (kind, args) = Req::Beta(b).kind_args();
            let reply = conn.call(kind, &args)?;
            if !reply.ok {
                return Err(format!("warm-up {kind} {args:?} failed: {}", reply.output));
            }
        }
        conns.push(conn);
    }
    Ok((daemon, conns))
}

/// Successful replies per second, from the phase's start to its last reply.
fn completed_per_s(t0: Instant, sent: &[Sent]) -> f64 {
    let ok = sent
        .iter()
        .filter(|s| s.reply.as_ref().is_some_and(|r| r.ok))
        .count();
    let end = sent.iter().map(|s| s.recv).max().unwrap_or(t0);
    ok as f64 / (end - t0).as_secs_f64()
}

/// Close the senders' connections, then drain and join the daemon.
fn stop<H: layers::ServedHandler>(
    (daemon, conns): (layers::Daemon<H>, Vec<layers::Conn>),
) -> Result<(), String> {
    drop(conns);
    daemon.stop()
}

/// `--seconds` of load in short phases. Each phase binds a fresh warmed
/// daemon, runs [`SERVE_PHASE_S`] of open-loop load and a [`PROBE_S`]
/// closed-loop capacity probe, and stops the daemon; the yardstick is read
/// only then, so no program thread runs during a reading. Each phase's
/// latencies and capacity are scaled by the readings around it.
fn serve_untraced(o: &Opts) -> Result<Outcome, String> {
    layers::enable_service_telemetry();
    let total_s = if o.quick { 5.0 } else { o.seconds };
    let phases = (total_s / (SERVE_PHASE_S + PROBE_S)).round().max(1.0) as usize;
    let per_phase = (SERVE_RATE * SERVE_PHASE_S).round() as usize;
    let reqs = schedule(o.seed, phases * per_phase);
    let probe_mix = schedule(o.seed ^ PROBE_STREAM, PROBE_MIX);
    let probe = Pace::Closed(Duration::from_secs_f64(PROBE_S));
    let mut checks = Checks::default();
    let mut norm = Normalizer::start();
    // Set-up: the inline replies every served reply must match, and a
    // bound, connected, warmed daemon.
    let (expected, setup) = timed_setups(
        &mut norm,
        || {
            let expected = expected_replies(&mut checks)?;
            Ok((expected, serve_setup(layers::plain_handler())?))
        },
        |(expected, served)| stop(served).map(|()| expected),
    )?;
    // The probe keeps both connections' daemon threads busy, so it is
    // scaled by two-core readings.
    let mut two_cores = Normalizer::start_two_cores();
    let (mut raw, mut scaled, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for chunk in reqs.chunks(per_phase) {
        let mut served = serve_setup(layers::plain_handler())?;
        let (_, sent) = drive(&mut served.1, chunk, Pace::Open);
        let (t0, probed) = drive(&mut served.1, &probe_mix, probe);
        stop(served)?;
        let factor = norm.after();
        let e2e: Vec<f64> = sent.iter().map(Sent::e2e_ms).collect();
        scaled.extend(e2e.iter().map(|ms| ms * factor));
        raw.extend(e2e);
        capacity.push(completed_per_s(t0, &probed) / two_cores.after());
        attempted += (sent.len() + probed.len()) as u64;
        failed += check_replies(&sent, &expected, &mut checks);
        failed += check_replies(&probed, &expected, &mut checks);
    }
    let mut observed = Observed::default();
    for out in &expected {
        if let Some((machine, beta, _)) = parse_report(out) {
            observed
                .betas
                .push((o.workload.clone(), machine, number(&beta)?));
        }
    }
    finish_reference(o, &observed, &mut checks)?;
    let mut v = Values::new();
    v.insert("setup_s", median(&setup));
    v.insert("op_p50_ms", p(&scaled, 50.0));
    v.insert("capacity_per_s", median(&capacity));
    report_samples(raw.len(), "open-loop requests");
    eprintln!(
        "{} requests at {SERVE_RATE} req/s in {phases} phases: p50 {:.2} ms raw, {:.2} ms at \
         reference speed; raw p90 {:.2} ms; closed-loop capacity {:.1} req/s at reference \
         speed (yardstick {:.1} ms, two-core {:.1} ms)",
        raw.len(),
        p(&raw, 50.0),
        v["op_p50_ms"],
        p(&raw, 90.0),
        v["capacity_per_s"],
        norm.median_ms(),
        two_cores.median_ms()
    );
    Ok(Outcome::from_values(
        checks.ok(),
        attempted,
        failed,
        &END_TO_END,
        &v,
    ))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn p(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), pct)
    }
}

/// Untraced phase, then a traced phase with handler entry and exit
/// recorded. Each β request becomes a `request` span (send → reply) over
/// `serve.pre_exec` (send → handler entry: encode, write, decode,
/// admission), `serve.exec` (the handler) and `serve.post_exec` (handler
/// exit → reply read).
fn serve_traced(o: &Opts) -> Result<Outcome, String> {
    layers::enable_service_telemetry();
    let phase_s = if o.quick { 1.0 } else { o.seconds / 2.0 };
    let per_phase = (SERVE_RATE * phase_s).round().max(1.0) as usize;
    let reqs = schedule(o.seed, 2 * per_phase);
    // Read before the daemon binds and after it stops: no daemon thread
    // runs during a reading.
    let mut norm = Normalizer::start();
    let mut checks = Checks::default();
    let expected = expected_replies(&mut checks)?;
    let log = Arc::new(layers::HandlerLog::default());
    log.set_recording(true);
    let (daemon, mut conns) = serve_setup(layers::timed_handler(Arc::clone(&log)))?;
    log.set_recording(false);
    // Warm-up order pins each connection to its daemon thread.
    let warm = log.take();
    if warm.len() != SERVE_BETAS.len() + 1 {
        return Err(format!("{} handler calls during warm-up", warm.len()));
    }
    let threads = [warm[0].0, warm[SERVE_BETAS.len()].0];

    let (_, sent_a) = drive(&mut conns, &reqs[..per_phase], Pace::Open);
    let rss = peak_rss_mb()?;
    let p50_a = p(&sent_a.iter().map(Sent::e2e_ms).collect::<Vec<_>>(), 50.0);
    let registry_before = daemon.registry();
    let admission_before = conns[0].admission()?;
    let tracer = Tracer::new();
    log.set_recording(true);
    let (t0, sent) = drive(&mut conns, &reqs[per_phase..], Pace::Open);
    log.set_recording(false);
    let calls = log.take();
    let registry_after = daemon.registry();
    let admission_after = conns[0].admission()?;
    stop((daemon, conns))?;
    norm.after();

    let mut failed = check_replies(&sent_a, &expected, &mut checks);
    failed += check_replies(&sent, &expected, &mut checks);
    let (mut pre, mut exec, mut post) = (Vec::new(), Vec::new(), Vec::new());
    for (c, thread) in threads.iter().enumerate() {
        let client: Vec<&Sent> = sent
            .iter()
            .filter(|s| s.k % SENDERS == c && s.req != Req::Ping)
            .collect();
        let handled: Vec<_> = calls.iter().filter(|(t, _, _)| t == thread).collect();
        checks.expect(client.len() == handled.len(), || {
            format!(
                "connection {c}: {} β requests, {} handler calls",
                client.len(),
                handled.len()
            )
        });
        for (s, &&(_, entry, exit)) in client.iter().zip(&handled) {
            checks.expect(s.send <= entry && exit <= s.recv, || {
                format!("request {}: handler call outside its round trip", s.k)
            });
            let k = s.k as u64;
            let root = tracer.span("request", None, k, s.send, s.recv);
            tracer.span("serve.pre_exec", Some(root), k, s.send, entry);
            tracer.span("serve.exec", Some(root), k, entry, exit);
            tracer.span("serve.post_exec", Some(root), k, exit, s.recv);
            pre.push(ms(entry - s.send));
            exec.push(ms(exit - entry));
            post.push(ms(s.recv - exit));
        }
    }
    let spans = tracer.into_spans();
    let mut codec = Duration::ZERO;
    for s in &sent {
        if let Some(reply) = &s.reply {
            let (kind, args) = s.req.kind_args();
            codec += layers::codec_time(s.k as u64, kind, &args, reply)?;
        }
    }
    let e2e: Vec<f64> = sent.iter().map(Sent::e2e_ms).collect();
    let late: Vec<f64> = sent.iter().map(|s| ms(s.send - s.due)).collect();
    let misses = registry_after.1 - registry_before.1;
    checks.expect(misses == 0, || {
        format!("{misses} registry misses after set-up")
    });

    let mut v = Values::new();
    v.insert("serve.pre_exec_ms_p50", p(&pre, 50.0));
    v.insert("serve.exec_ms_p50", p(&exec, 50.0));
    v.insert("serve.exec_ms_p99", p(&exec, 99.0));
    v.insert("serve.post_exec_ms_p50", p(&post, 50.0));
    v.insert(
        "serve.codec_us",
        codec.as_secs_f64() * 1e6 / sent.len().max(1) as f64,
    );
    v.insert(
        "serve.registry_hits",
        (registry_after.0 - registry_before.0) as f64,
    );
    v.insert("serve.registry_misses", misses as f64);
    v.insert(
        "serve.queued",
        (admission_after.0 - admission_before.0) as f64,
    );
    v.insert(
        "serve.shed",
        (admission_after.1 - admission_before.1) as f64,
    );
    v.insert("serve.generator_late_ms_p90", p(&late, 90.0));
    v.insert("serve.e2e_ms_p90", p(&e2e, 90.0));
    v.insert("serve.e2e_ms_p99", p(&e2e, 99.0));
    v.insert("serve.requests", sent.len() as f64);
    v.insert("speed.yardstick_ms", norm.median_ms());
    v.insert("mem.peak_rss_mb", rss);
    let end = sent.iter().map(|s| s.recv).max().unwrap_or(t0);
    v.insert("trace.iter_s", (end - t0).as_secs_f64());
    v.insert("trace.overhead_ratio", p(&e2e, 50.0) / p50_a);
    v.insert("trace.unattributed_s", unattributed(&spans, &mut checks));
    eprintln!(
        "traced split of a β request (p50): pre-exec {:.3} ms, exec {:.3} ms, post-exec {:.3} ms",
        v["serve.pre_exec_ms_p50"], v["serve.exec_ms_p50"], v["serve.post_exec_ms_p50"]
    );
    write_trace(o, &spans, &mut checks)?;
    let attempted = (sent_a.len() + sent.len()) as u64;
    Ok(Outcome::from_values(
        checks.ok(),
        attempted,
        failed,
        &PER_LAYER,
        &v,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_seeded_and_evenly_paced() {
        let a = schedule(7, 3000);
        assert_eq!(a, schedule(7, 3000), "same seed, same inputs");
        assert_ne!(a, schedule(8, 3000));
        let count = |r: Req| a.iter().filter(|x| **x == r).count();
        assert_eq!(count(Req::Ping), 300);
        for b in 0..SERVE_BETAS.len() {
            assert_eq!(count(Req::Beta(b)), 900);
        }
        assert_ne!(a[..300], vec![Req::Ping; 300][..], "shuffled");
        assert_eq!(due_offset(0), Duration::ZERO);
        assert_eq!(due_offset(150), Duration::from_secs(1));
        let gap = due_offset(2) - due_offset(1);
        assert!((gap.as_secs_f64() - 1.0 / SERVE_RATE).abs() < 1e-9);
        // Each sender owns every SENDERS-th request, so per connection the
        // gap between due times is SENDERS / rate.
        let own: Vec<usize> = (1..10).step_by(SENDERS).collect();
        assert_eq!(own, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn report_parser_reads_the_beta_report() {
        let out = "machine       : mesh2(side=64) (n = 4096)\n\
                   measured β̂    : 111.078 (mean 109.266)\n\
                   flux bound    : 255.938 [canonical cut #0]\n";
        let (m, b, f) = parse_report(out).expect("parses");
        assert_eq!(
            (m.as_str(), b.as_str(), f.as_str()),
            ("mesh2(side=64)", "111.078", "255.938")
        );
        assert!(parse_report("error: unknown family").is_none());
    }

    #[test]
    fn run_emits_every_catalog_metric() {
        let o = Opts {
            workload: "beta-native".into(),
            seed: 3,
            seconds: 0.0,
            trace: true,
            quick: true,
            observed_out: None,
        };
        let out = run(&o).expect("quick traced run");
        assert!(out.correct);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert_eq!(out.metric("routing.plan_cache_hits"), Some(0.0));
        assert!(out.metric("routing.route_s").is_some_and(|s| s > 0.0));
        // End-to-end metrics are never 0.
        let out = run(&Opts { trace: false, ..o }).expect("quick untraced run");
        assert!(out.correct);
        for ((name, value, unit), (want, want_unit)) in out.metrics.iter().zip(END_TO_END) {
            assert_eq!((name.as_str(), unit.as_str()), (want, want_unit));
            assert!(*value > 0.0, "{name} = {value}");
        }
    }
}
