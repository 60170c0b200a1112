//! `fcnemu` subcommand implementations.

use std::io::Write;

use fcn_bandwidth::{
    audit_bottleneck_freeness, flux_upper_bound, theorem6_sandwich, BandwidthEstimator,
    DegradedSweep,
};
use fcn_core::{
    build_witness, direct_emulation, fig1_data, generate_table, max_host_size, numeric_host_size,
    slowdown_lower_bound, table1_spec, table2_spec, table3_spec, witness_depth, EmulationConfig,
    Lemma9Config,
};
use fcn_routing::{saturation_throughput, RouterConfig, SteadyConfig};
use fcn_topology::{Family, Machine};

use crate::args::{Args, ParseError};

type Out<'a> = &'a mut dyn Write;

/// A typed command failure, mapped to the process exit code: `Run` is a
/// domain error (exit 1 — unknown family, failed verification), `Io` is an
/// I/O or schema error (exit 2 — unreadable snapshot, invalid metrics
/// file), the same convention as the BENCH binaries' validation.
#[derive(Debug)]
pub enum CmdError {
    /// Domain failure; exit code 1.
    Run(String),
    /// A request the program refuses before any work, such as a `--jobs`
    /// count above [`fcn_exec::MAX_JOBS`]; exit code 2, and a `BadRequest`
    /// when served.
    Usage(String),
    /// I/O or schema failure; exit code 2.
    Io(String),
    /// A deadline cancelled the run mid-flight; the message carries partial
    /// accounting of the work completed. Only service-mode runs (which
    /// thread a cancel flag into the router grid) can produce this; exit
    /// code 1 like other domain-level aborts.
    Cancelled(String),
}

impl CmdError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CmdError::Run(_) | CmdError::Cancelled(_) => 1,
            CmdError::Io(_) | CmdError::Usage(_) => 2,
        }
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Run(m) | CmdError::Io(m) | CmdError::Usage(m) | CmdError::Cancelled(m) => {
                write!(f, "{m}")
            }
        }
    }
}

impl From<String> for CmdError {
    fn from(m: String) -> Self {
        CmdError::Run(m)
    }
}

/// A bad argument is a domain error (exit 1), inline and served alike.
impl From<ParseError> for CmdError {
    fn from(e: ParseError) -> Self {
        CmdError::Run(e.0)
    }
}

impl From<&str> for CmdError {
    fn from(m: &str) -> Self {
        CmdError::Run(m.to_string())
    }
}

pub(crate) type CmdResult = Result<(), CmdError>;

/// `--jobs`, `default` when absent: a malformed value is a domain error
/// like any other flag's, and a count above [`fcn_exec::MAX_JOBS`] a
/// [`CmdError::Usage`] refused before any work starts.
fn jobs(args: &Args, default: usize) -> Result<usize, CmdError> {
    crate::args::check_jobs(args.flag("jobs", default)?).map_err(|e| CmdError::Usage(e.0))
}

/// Positional `i` as a machine size: malformed is a domain error, and a
/// size above [`crate::args::MAX_SIZE`] a [`CmdError::Usage`] refused
/// before the machine is built.
fn size(args: &Args, i: usize, what: &str) -> Result<usize, CmdError> {
    let size = args.count(i, what)?;
    crate::args::at_most(&format!("<{what}>"), size, crate::args::MAX_SIZE)
        .map_err(|e| CmdError::Usage(e.0))
}

/// `--trials` (default 3), refused above [`crate::args::MAX_TRIALS`] like
/// [`jobs`].
fn trials(args: &Args) -> Result<usize, CmdError> {
    crate::args::at_most("--trials", args.flag("trials", 3)?, crate::args::MAX_TRIALS)
        .map_err(|e| CmdError::Usage(e.0))
}

/// `--max-ticks` (default 0, the router's own budget), refused above
/// [`crate::args::MAX_TICKS`] like [`trials`].
fn max_ticks(args: &Args) -> Result<u64, CmdError> {
    crate::args::at_most(
        "--max-ticks",
        args.flag("max-ticks", 0)?,
        crate::args::MAX_TICKS,
    )
    .map(|ticks| ticks as u64)
    .map_err(|e| CmdError::Usage(e.0))
}

/// Usage text.
pub fn usage() -> String {
    "fcnemu — fixed-connection network emulation-bounds toolkit

USAGE:
  fcnemu machines
  fcnemu build   <family> <size> [--seed N] [--format summary|dot|edges|json]
  fcnemu beta    <family> <size> [--trials N] [--steady] [--seed N] [--jobs N] [--max-ticks N] [--verbose]
  fcnemu faults  <family> <size> [--rates R1,R2,..] [--trials N] [--seed N] [--fault-seed N] [--jobs N] [--quick] [--verbose]
  fcnemu bound   <guest-family> <host-family> [--n N] [--m M]
  fcnemu emulate <guest-family> <n> <host-family> <m> [--steps N]
  fcnemu audit   <family> <size> [--seed N] [--jobs N]  (n <= 8192, n(n-1)·ecc(0) <= 2^34)
  fcnemu witness <family> <size> [--alpha X (0 < X <= 16)]  (circuit n·(t+1) <= 32768)
  fcnemu verify  <family> <size> [--hosts M] [--steps N]
  fcnemu table   <1|2|3> [--size N]
  fcnemu fig1    <guest-family> <host-family> [--n N]
  fcnemu metrics <snapshot.jsonl> [--format table|prom|jsonl]
  fcnemu serve   [--addr H:P] [--max-inflight N] [--max-queued N] [--queue-wait-ms N] [--deadline-ms N] [--poll-ms N] [--chaos-seed N] [--chaos-rates R|Rr,Rs,Rt,Rc] [--chaos-stall-ms N]
  fcnemu request <addr> <kind> [--deadline-ms N] [--retries N] [--retry-seed N] [-- <forwarded args>]
  fcnemu help

`beta --jobs` and `faults --jobs` default to 0 (one worker per hardware
thread; a served request defaults to 1); `audit --jobs` defaults to 1.
--jobs accepts at most 64 workers. Output is byte-identical for every
--jobs value. A machine size (<size>, <n>, <m>) may be at most 65536,
--trials at most 1024 and --max-ticks at most 4294967295 (0, the default,
keeps the router's budget).

Every subcommand also accepts --metrics-out <path>: run with telemetry
enabled and write a versioned JSONL metrics snapshot to <path> (the
report itself is byte-identical with or without the flag). Any other
flag not on a subcommand's usage line is an error.

Families: linear_array ring global_bus tree weak_ppn xtree mesh{1,2,3}
torus{1,2,3} xgrid{1,2,3} mesh_of_trees{1,2,3} multigrid{1,2,3}
pyramid{1,2,3} butterfly ccc shuffle_exchange de_bruijn multibutterfly
expander weak_hypercube"
        .to_string()
}

fn family(id: &str) -> Result<Family, String> {
    Family::all_with_dims(&[1, 2, 3])
        .into_iter()
        .find(|f| f.id() == id)
        .ok_or_else(|| format!("unknown family {id:?} (try `fcnemu machines`)"))
}

fn build(id: &str, size: usize, seed: u64) -> Result<Machine, String> {
    Ok(family(id)?.build_near(size, seed))
}

/// The flags `command`'s usage line names, or `None` for a command without
/// a usage line (unknown commands and the `--help`/`-h` aliases).
fn usage_flags(command: &str) -> Option<Vec<String>> {
    let usage = usage();
    let line = usage.lines().find(|l| {
        l.trim_start()
            .strip_prefix("fcnemu ")
            .and_then(|rest| rest.split_whitespace().next())
            == Some(command)
    })?;
    Some(
        line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|tok| tok.strip_prefix("--"))
            .filter(|name| !name.is_empty())
            .map(String::from)
            .collect(),
    )
}

/// Reject any flag that `args.command`'s usage line does not name
/// (`--metrics-out` is accepted everywhere).
pub(crate) fn check_flags(args: &Args) -> Result<(), ParseError> {
    let Some(allowed) = usage_flags(&args.command) else {
        return Ok(());
    };
    let allowed: Vec<&str> = allowed
        .iter()
        .map(String::as_str)
        .chain(["metrics-out"])
        .collect();
    let context = format!("`fcnemu {}` (see `fcnemu help`)", args.command);
    args.only_flags(&allowed, &context)
}

/// Dispatch a parsed command.
pub fn dispatch(args: &Args, out: Out) -> CmdResult {
    check_flags(args)?;
    match args.command.as_str() {
        "machines" => cmd_machines(out),
        "build" => cmd_build(args, out),
        "beta" => beta_with(args, out, None, None),
        "faults" => faults_with(args, out, false),
        "bound" => cmd_bound(args, out),
        "emulate" => cmd_emulate(args, out),
        "audit" => cmd_audit(args, out),
        "witness" => cmd_witness(args, out),
        "verify" => cmd_verify(args, out),
        "table" => cmd_table(args, out),
        "fig1" => cmd_fig1(args, out),
        "metrics" => cmd_metrics(args, out),
        "serve" => crate::service::cmd_serve(args, out),
        "request" => crate::service::cmd_request(args, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage()).into()),
    }
}

fn cmd_machines(out: Out) -> CmdResult {
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>10} {:>14}",
        "family", "β(n)", "λ(n)", "fixed degree"
    );
    for f in Family::all_with_dims(&[1, 2, 3]) {
        let _ = writeln!(
            out,
            "{:<18} {:>14} {:>10} {:>14}",
            f.id(),
            f.beta().theta_string(),
            f.lambda().theta_string(),
            f.fixed_degree()
        );
    }
    Ok(())
}

fn cmd_build(args: &Args, out: Out) -> CmdResult {
    let id = args.pos(0, "family")?.to_string();
    let size = size(args, 1, "size")?;
    let seed = args.flag("seed", 0u64)?;
    let format = args.value("format")?.unwrap_or("summary");
    let m = build(&id, size, seed)?;
    match format {
        "summary" => {
            let _ = writeln!(out, "machine   : {}", m.name());
            let _ = writeln!(out, "processors: {}", m.processors());
            let _ = writeln!(out, "nodes     : {}", m.node_count());
            let _ = writeln!(out, "edges E(G): {}", m.graph().simple_edge_count());
            let _ = writeln!(out, "max degree: {}", m.graph().max_degree());
            let _ = writeln!(out, "β (Θ)     : {}", m.beta_analytic().theta_string());
            let _ = writeln!(out, "λ (Θ)     : {}", m.lambda_analytic().theta_string());
            let _ = writeln!(out, "routing   : {:?}", m.route_policy());
        }
        "dot" => {
            let _ = writeln!(out, "{}", fcn_topology::to_labeled_dot(&m));
        }
        "edges" => {
            let _ = write!(out, "{}", fcn_multigraph::to_edge_list(m.graph()));
        }
        "json" => {
            let _ = writeln!(out, "{}", fcn_multigraph::to_json(m.graph()));
        }
        other => return Err(format!("unknown format {other:?}").into()),
    }
    Ok(())
}

/// The `beta` body, parameterized for service mode. Inline `fcnemu beta`
/// is `beta_with(args, out, None, None)`, and its plan cache stores no tree
/// (an estimate never asks for one twice); the daemon passes its warm
/// [`fcn_serve::Registry`] (compiled net + plan cache reused across
/// requests — both bit-transparent to the estimate) and the request's
/// deadline flag. Non-verbose output is byte-identical across all four
/// combinations, which is the differential harness's pin.
pub(crate) fn beta_with(
    args: &Args,
    out: Out,
    warm: Option<&fcn_serve::Registry>,
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> CmdResult {
    let id = args.pos(0, "family")?.to_string();
    let size = size(args, 1, "size")?;
    let trials = trials(args)?;
    let seed = args.flag("seed", 0xbeadu64)?;
    // Worker threads for each trial's plan and route phases; 0 = one per
    // hardware thread (the inline default). A served request defaults to
    // one worker: the daemon's concurrency comes from its connections. The
    // estimate is bit-identical for every value.
    let jobs = jobs(args, if warm.is_some() { 1 } else { 0 })?;
    // Router tick budget; 0 keeps the default. Cells that exhaust it are
    // reported (under --verbose) instead of silently depressing the plateau.
    let max_ticks = max_ticks(args)?;
    let steady = args.switch("steady")?;
    let verbose = args.switch("verbose")?;
    if trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    let m = build(&id, size, seed)?;
    let t = m.symmetric_traffic();
    let mut router = RouterConfig::default();
    if max_ticks > 0 {
        router.max_ticks = max_ticks;
    }
    let est = BandwidthEstimator {
        trials,
        seed,
        jobs,
        router,
        ..Default::default()
    };
    // In service mode the net and plan cache come warm out of the
    // daemon's registry; inline, the zero-capacity cache stores nothing
    // and only counts the trees the estimate computes.
    let (net, cache) = match warm {
        Some(registry) => {
            let (entry, _hit) = registry.get_or_compile(&m);
            (entry.net, entry.cache)
        }
        None => (
            fcn_routing::CompiledNet::shared(&m),
            std::sync::Arc::new(fcn_routing::PlanCache::with_capacity(0)),
        ),
    };
    // The daemon's cache outlives this request, so only the change since
    // here is this request's to publish.
    let before = cache.counts();
    // The flux bound runs on the estimate's own pool, as one more job of its
    // last route run.
    let (estimate, flux) = est.try_estimate_with(&m, &net, &t, &cache, cancel, || {
        flux_upper_bound(&m, &t, seed, 4, 2)
    });
    let b = estimate.map_err(|aborted| {
        if aborted.cancelled {
            CmdError::Cancelled(aborted.to_string())
        } else {
            CmdError::Run(aborted.to_string())
        }
    })?;
    let _ = writeln!(out, "machine       : {} (n = {})", m.name(), m.processors());
    let _ = writeln!(
        out,
        "measured β̂    : {:.3} (mean {:.3})",
        b.rate, b.mean_rate
    );
    let _ = writeln!(
        out,
        "flux bound    : {:.3} [{}]",
        flux.rate_bound, flux.witness
    );
    let _ = writeln!(
        out,
        "analytic Θ    : {} -> {:.3} at this size",
        m.beta_analytic().theta_string(),
        m.beta_at_size()
    );
    if steady {
        let (sat, _) = saturation_throughput(&m, &t, SteadyConfig::default());
        let _ = writeln!(out, "steady-state  : {sat:.3}");
    }
    // Surface the cache counters to `--metrics-out` snapshots (no-op
    // when telemetry is disabled).
    cache.publish(before);
    if verbose {
        let _ = writeln!(out, "trees computed: {}", b.trees_computed);
        let _ = writeln!(
            out,
            "trials        : {}/{} complete ({} samples)",
            b.complete_trials,
            trials,
            b.samples.len()
        );
        // Typed-abort accounting: cells that hit the tick budget are a
        // measurement hazard (they depress the plateau), so surface them
        // loudly. Printed only when non-zero, keeping the byte pin on
        // fault-free runs.
        let aborted = b.samples.iter().filter(|s| !s.completed).count();
        if aborted > 0 {
            let _ = writeln!(
                out,
                "WARNING       : {aborted}/{} cells hit the tick budget \
                 (max-ticks {}); raise --max-ticks",
                b.samples.len(),
                router.max_ticks
            );
        }
    }
    Ok(())
}

/// `fcnemu faults`: the β-vs-fault-rate curve for one machine — the intact
/// estimator re-run against a deterministic fault plane at each rate. A
/// `served` request defaults to one worker, as a served `beta` does.
pub(crate) fn faults_with(args: &Args, out: Out, served: bool) -> CmdResult {
    let id = args.pos(0, "family")?.to_string();
    let size = size(args, 1, "size")?;
    let trials = trials(args)?;
    let seed = args.flag("seed", 0xbeadu64)?;
    let fault_seed = args.flag("fault-seed", 0xfa17u64)?;
    let jobs = jobs(args, if served { 1 } else { 0 })?;
    let quick = args.switch("quick")?;
    let verbose = args.switch("verbose")?;
    let rates_flag = args.value("rates")?;
    if trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    let fault_rates: Vec<f64> = match rates_flag {
        Some(s) => s
            .split(',')
            .map(|r| {
                r.trim()
                    .parse::<f64>()
                    .map_err(|_| CmdError::Run(format!("--rates: {r:?} is not a number")))
            })
            .collect::<Result<_, _>>()?,
        None if quick => vec![0.0, 0.05, 0.10],
        None => vec![0.0, 0.02, 0.05, 0.10, 0.20],
    };
    if fault_rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
        return Err(format!("--rates: rates must lie in [0, 1], got {fault_rates:?}").into());
    }
    let m = build(&id, size, seed)?;
    let sweep = DegradedSweep {
        fault_rates,
        fault_seed,
        estimator: BandwidthEstimator {
            multipliers: if quick { vec![2, 4] } else { vec![2, 4, 8] },
            trials: if quick { trials.min(2) } else { trials },
            seed,
            jobs,
            ..Default::default()
        },
    };
    let points = sweep.sweep_symmetric(&m);
    let _ = writeln!(out, "machine    : {} (n = {})", m.name(), m.processors());
    let _ = writeln!(
        out,
        "fault seed : {:#x} ({} trials x {} batch sizes per rate)",
        fault_seed,
        sweep.estimator.trials,
        sweep.estimator.multipliers.len()
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>7} {:>8} {:>7} {:>7} {:>6}",
        "rate",
        "β̂",
        "mean",
        "deliver",
        "dead-n",
        "dead-l",
        "outages",
        "strand",
        "unreach",
        "replan",
        "abort"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:>6.3} {:>8.3} {:>8.3} {:>7.1}% {:>6} {:>6} {:>7} {:>8} {:>7} {:>7} {:>6}",
            p.fault_rate,
            p.rate,
            p.mean_rate,
            100.0 * p.delivery_fraction(),
            p.dead_nodes,
            p.dead_links,
            p.outages,
            p.stranded,
            p.unreachable,
            p.replans,
            p.aborted_cells
        );
    }
    if verbose {
        for p in &points {
            for (i, s) in p.samples.iter().enumerate() {
                if !s.sample.completed {
                    let _ = writeln!(
                        out,
                        "WARNING: rate {:.3} cell {i} aborted ({}) after {} ticks",
                        p.fault_rate, s.abort, s.sample.ticks
                    );
                }
            }
        }
    }
    Ok(())
}

fn cmd_bound(args: &Args, out: Out) -> CmdResult {
    let gid = args.pos(0, "guest-family")?.to_string();
    let hid = args.pos(1, "host-family")?.to_string();
    let n = args.flag_min("n", 1u64 << 20, 1)? as f64;
    let m = args.flag("m", 0u64)?;
    let guest = family(&gid)?;
    let host = family(&hid)?;
    let bound = slowdown_lower_bound(&guest, &host);
    let _ = writeln!(out, "Efficient Emulation Theorem: S ≥ {bound}");
    let cap = max_host_size(&guest, &host);
    let _ = writeln!(out, "maximum efficient host size: |H| = {}", cap.to_cell());
    let m_star = numeric_host_size(&guest, &host, n);
    let _ = writeln!(out, "numeric crossover at n = {n}: m* ≈ {m_star:.1}");
    if m > 0 {
        let _ = writeln!(
            out,
            "at (n, m) = ({n}, {m}): load ≥ {:.2}, communication ≥ {:.2}, total ≥ {:.2}",
            bound.load(n, m as f64),
            bound.communication(n, m as f64),
            bound.eval(n, m as f64)
        );
    }
    Ok(())
}

fn cmd_emulate(args: &Args, out: Out) -> CmdResult {
    let gid = args.pos(0, "guest-family")?.to_string();
    let n = size(args, 1, "n")?;
    let hid = args.pos(2, "host-family")?.to_string();
    let m = size(args, 3, "m")?;
    let steps = args.flag("steps", 8u64)?;
    let guest = build(&gid, n, 0xa)?;
    let host = build(&hid, m, 0xb)?;
    if guest.processors() < host.processors() {
        return Err("guest must be at least as large as host".into());
    }
    let report = direct_emulation(&guest, &host, steps, &EmulationConfig::default());
    let bound = slowdown_lower_bound(&guest.family(), &host.family());
    let predicted = bound.eval(guest.processors() as f64, host.processors() as f64);
    let _ = writeln!(
        out,
        "emulating {} (n = {}) on {} (m = {}) for {} steps",
        guest.name(),
        guest.processors(),
        host.name(),
        host.processors(),
        steps
    );
    let _ = writeln!(out, "max load          : {}", report.max_load);
    let _ = writeln!(
        out,
        "compute / step    : {:.1}",
        report.compute_ticks as f64 / steps as f64
    );
    let _ = writeln!(
        out,
        "communication/step: {:.1}",
        report.communication_slowdown()
    );
    let _ = writeln!(out, "measured slowdown : {:.1}", report.slowdown());
    let _ = writeln!(out, "theorem bound     : {predicted:.1}");
    Ok(())
}

fn cmd_audit(args: &Args, out: Out) -> CmdResult {
    let id = args.pos(0, "family")?.to_string();
    let size = size(args, 1, "size")?;
    let seed = args.flag("seed", 7u64)?;
    let jobs = jobs(args, 1)?;
    let m = build(&id, size, seed)?;
    audit_fits(&m)?;
    // Same cheap estimator as `quick_audit`, with the worker count
    // threaded through: the audit cells run in parallel, the output is
    // bit-identical for every `--jobs` value.
    let est = BandwidthEstimator {
        multipliers: vec![2, 4],
        trials: 2,
        seed,
        jobs,
        ..Default::default()
    };
    let audit = audit_bottleneck_freeness(&m, &est, seed);
    let _ = writeln!(out, "machine        : {}", m.name());
    let _ = writeln!(out, "symmetric rate : {:.3}", audit.symmetric_rate);
    for (label, rate) in &audit.quasi_rates {
        let _ = writeln!(out, "  {label:<26}: {rate:.3}");
    }
    let _ = writeln!(
        out,
        "worst ratio    : {:.3} -> {}",
        audit.worst_ratio,
        if audit.is_bottleneck_free(4.0) {
            "bottleneck-free (c <= 4)"
        } else {
            "SUSPECT"
        }
    );
    // Theorem 6 certificate as a bonus consistency check.
    let cert = theorem6_sandwich(&m, 4, seed);
    let _ = writeln!(
        out,
        "β sandwich     : embedding ≥ {:.2} | measured {:.2} | flux ≤ {:.2}",
        cert.embedding_lower, cert.measured, cert.flux_upper
    );
    Ok(())
}

/// The most processors `fcnemu audit` certifies. Its Theorem 6 witness
/// embeds K_n, whose multigraph takes about 22 bytes a pair while it is
/// built: on a 2-vCPU host, n = 8192 peaked at 1.4 GB.
pub const MAX_AUDIT_PROCESSORS: usize = 8192;

/// The largest n(n−1)·ecc(0) `fcnemu audit` accepts: a bound on the
/// Σ d(u,v) hops its K_n witness walks, since d(u,v) ≤ 2·ecc(0). On a
/// 2-vCPU host, linear_array 2580 (at the bound) took 20 s, mesh2 8100 33 s.
pub const MAX_AUDIT_HOPS: u64 = 1 << 34;

/// Vertex 0's eccentricity: one BFS, and a lower bound on the diameter.
fn ecc0(g: &fcn_multigraph::Multigraph) -> u32 {
    let dist = fcn_multigraph::bfs_distances(g, 0);
    dist.into_iter().max().unwrap_or(0)
}

/// Refuse, before any estimate, an audit above [`MAX_AUDIT_PROCESSORS`]
/// or [`MAX_AUDIT_HOPS`].
fn audit_fits(m: &Machine) -> Result<(), CmdError> {
    let n = m.processors();
    if n > MAX_AUDIT_PROCESSORS {
        return Err(CmdError::Usage(format!(
            "audit needs at most {MAX_AUDIT_PROCESSORS} processors, not {n}"
        )));
    }
    let ecc = ecc0(m.graph());
    let hops = (n * n.saturating_sub(1)) as u64 * ecc as u64;
    if hops > MAX_AUDIT_HOPS {
        return Err(CmdError::Usage(format!(
            "audit work n(n-1)·ecc(0) must be at most 2^34, not {hops} (n = {n}, ecc(0) = {ecc})"
        )));
    }
    Ok(())
}

/// The largest circuit `fcnemu witness` builds, in nodes n·(t+1): the
/// construction's cost grows like its square. On a 2-vCPU host,
/// linear_array 128 (32 640 nodes) took 43 s and mesh2 1024 (128 000) ran
/// past a minute.
pub const MAX_WITNESS_NODES: usize = 1 << 15;

/// Refuse, before any cone is built, a witness whose circuit would exceed
/// [`MAX_WITNESS_NODES`]. Λ is at least vertex 0's eccentricity, so one BFS
/// refuses a long guest without the all-pairs diameter; since t ≥ 1, a
/// guest above half the bound is refused without even that BFS.
fn witness_fits(g: &fcn_multigraph::Multigraph, alpha: f64) -> Result<(), CmdError> {
    let n = g.node_count();
    let nodes = |lambda: u32| n * (witness_depth(lambda, alpha) as usize + 1);
    let refuse = |nodes: String| {
        Err(CmdError::Usage(format!(
            "witness circuit n·(t+1) must be at most {MAX_WITNESS_NODES}, not {nodes} (n = {n})"
        )))
    };
    if n > MAX_WITNESS_NODES / 2 {
        return refuse(format!("more than {}", 2 * n));
    }
    let ecc = ecc0(g);
    if nodes(ecc) > MAX_WITNESS_NODES {
        return refuse(format!("at least {}", nodes(ecc)));
    }
    match nodes(fcn_multigraph::diameter(g)) {
        exact if exact > MAX_WITNESS_NODES => refuse(exact.to_string()),
        _ => Ok(()),
    }
}

fn cmd_witness(args: &Args, out: Out) -> CmdResult {
    let id = args.pos(0, "family")?.to_string();
    let size = size(args, 1, "size")?;
    let alpha = args.flag("alpha", 1.0f64)?;
    // The witness circuit has ⌈(1+α)·Λ⌉ levels, so α bounds its size.
    if !(alpha > 0.0 && alpha <= 16.0) {
        return Err(format!("--alpha must be in (0, 16], not {alpha}").into());
    }
    let m = build(&id, size, 3)?;
    witness_fits(m.graph(), alpha)?;
    let w = build_witness(m.graph(), Lemma9Config { alpha, seed: 0x9e });
    let _ = writeln!(out, "guest           : {} (n = {})", m.name(), w.n);
    let _ = writeln!(
        out,
        "Λ / t / cutoff  : {} / {} / {}",
        w.lambda, w.t, w.cutoff
    );
    let _ = writeln!(out, "S-nodes         : {}", w.s_nodes);
    let _ = writeln!(out, "cone paths      : {}", w.cone_paths);
    let _ = writeln!(
        out,
        "γ vertices/edges: {} / {}",
        w.gamma_vertices, w.gamma_edges
    );
    let _ = writeln!(
        out,
        "congestion      : {} (cap {}, ratio {:.3})",
        w.congestion,
        w.congestion_cap,
        w.congestion_ratio()
    );
    let _ = writeln!(
        out,
        "preservation    : {:.3} (β(circuit,γ) / t·β(G))",
        w.preservation_ratio()
    );
    Ok(())
}

fn cmd_verify(args: &Args, out: Out) -> CmdResult {
    let id = args.pos(0, "family")?.to_string();
    let size = size(args, 1, "size")?;
    let hosts = args.flag_min("hosts", 4usize, 1)?;
    // At most `MAX_STEPS`, so the cast to `u32` is exact.
    let steps = crate::args::at_most("--steps", args.flag("steps", 5)?, crate::args::MAX_STEPS)
        .map_err(|e| CmdError::Usage(e.0))? as u32;
    let m = build(&id, size, 3)?;
    let r = fcn_core::verify_direct_emulation(m.graph(), hosts.min(m.processors()), steps, 0xf);
    let _ = writeln!(
        out,
        "direct emulation of {} on {} hosts for {} steps:",
        m.name(),
        r.hosts,
        r.steps
    );
    let _ = writeln!(out, "  values communicated : {}", r.values_communicated);
    let _ = writeln!(
        out,
        "  operations          : {} (work x{:.2})",
        r.operations,
        r.work_ratio()
    );
    let _ = writeln!(
        out,
        "  semantics           : {}",
        if r.matches_reference {
            "EXACT (matches reference run bit-for-bit)"
        } else {
            "DIVERGED"
        }
    );
    if !r.matches_reference {
        return Err("verification failed".into());
    }
    Ok(())
}

fn cmd_table(args: &Args, out: Out) -> CmdResult {
    let which = args.pos(0, "table number")?.to_string();
    let size = args.flag_min("size", 1u64 << 16, 1)?;
    let spec = match which.as_str() {
        "1" => table1_spec(&[1, 2, 3]),
        "2" => table2_spec(&[1, 2, 3]),
        "3" => table3_spec(&[1, 2, 3]),
        other => return Err(format!("unknown table {other:?} (expected 1, 2 or 3)").into()),
    };
    let table = generate_table(spec, &[size]);
    let _ = write!(out, "{}", table.render());
    Ok(())
}

fn cmd_fig1(args: &Args, out: Out) -> CmdResult {
    let gid = args.pos(0, "guest-family")?.to_string();
    let hid = args.pos(1, "host-family")?.to_string();
    let n = args.flag_min("n", 1u64 << 20, 4)? as f64;
    let guest = family(&gid)?;
    let host = family(&hid)?;
    let d = fig1_data(&guest, &host, n, 20);
    let _ = writeln!(
        out,
        "guest {gid}, host family {hid}, n = {n}: crossover m* = {:.1}, \
         min slowdown = {:.1}",
        d.crossover_m, d.crossover_slowdown
    );
    let _ = writeln!(out, "{:>12} {:>14} {:>14}", "m", "load n/m", "comm bound");
    for p in &d.points {
        let _ = writeln!(
            out,
            "{:>12.1} {:>14.2} {:>14.2}",
            p.m, p.load_bound, p.comm_bound
        );
    }
    Ok(())
}

/// Render a previously written `--metrics-out` snapshot.
///
/// The snapshot is validated against the `fcn-telemetry/2` schema on read;
/// `--format prom` emits the Prometheus text exposition, `--format jsonl`
/// re-emits the canonical JSONL, and the default `table` is a human
/// summary (histograms show count / sum / mean).
fn cmd_metrics(args: &Args, out: Out) -> CmdResult {
    let path = args.pos(0, "snapshot.jsonl")?.to_string();
    let format = args.value("format")?.unwrap_or("table");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CmdError::Io(format!("cannot read {path:?}: {e}")))?;
    let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&text)
        .map_err(|e| CmdError::Io(format!("invalid metrics snapshot {path:?}: {e}")))?;
    match format {
        "prom" => {
            let _ = write!(out, "{}", snap.to_prometheus());
        }
        "jsonl" => {
            let _ = write!(out, "{}", snap.to_jsonl());
        }
        "table" => {
            let _ = writeln!(out, "{:<40} {:>16}", "counter", "value");
            for (k, v) in &snap.counters {
                let _ = writeln!(out, "{k:<40} {v:>16}");
            }
            if !snap.histograms.is_empty() {
                let _ = writeln!(
                    out,
                    "{:<40} {:>12} {:>16} {:>10}",
                    "histogram", "count", "sum", "mean"
                );
                for (k, h) in &snap.histograms {
                    let mean = h.sum as f64 / h.count.max(1) as f64;
                    let _ = writeln!(out, "{k:<40} {:>12} {:>16} {mean:>10.2}", h.count, h.sum);
                }
            }
        }
        other => return Err(format!("unknown format {other:?} (table, prom or jsonl)").into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn run_s(cmd: &str) -> (i32, String) {
        let argv: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        let mut buf = Vec::new();
        let code = run(&argv, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn machines_lists_all_families() {
        let (code, out) = run_s("machines");
        assert_eq!(code, 0);
        assert!(out.contains("de_bruijn"));
        assert!(out.contains("pyramid3"));
        assert!(out.lines().count() >= 30);
    }

    #[test]
    fn build_summary_and_formats() {
        let (code, out) = run_s("build mesh2 64");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("processors: 64"));
        let (code, dot) = run_s("build tree 15 --format dot");
        assert_eq!(code, 0);
        assert!(dot.contains("graph tree"));
        let (code, edges) = run_s("build ring 8 --format edges");
        assert_eq!(code, 0);
        assert!(edges.starts_with("# nodes 8"));
        let (code, json) = run_s("build ring 8 --format json");
        assert_eq!(code, 0);
        assert!(json.trim_start().starts_with('{'));
    }

    #[test]
    fn bound_prints_the_intro_example() {
        let (code, out) = run_s("bound de_bruijn mesh2 --n 1048576 --m 64");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("O(lg^2 n)"), "{out}");
        assert!(out.contains("m* ≈ 400"), "{out}");
    }

    #[test]
    fn beta_measures() {
        let (code, out) = run_s("beta mesh2 64 --trials 2");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("measured β̂"));
        assert!(out.contains("flux bound"));
    }

    #[test]
    fn beta_verbose_reports_cache_stats() {
        let (code, plain) = run_s("beta mesh2 64 --trials 2");
        assert_eq!(code, 0, "{plain}");
        let (code, verbose) = run_s("beta mesh2 64 --trials 2 --verbose");
        assert_eq!(code, 0, "{verbose}");
        assert!(verbose.contains("trials"), "{verbose}");
        // --verbose only appends; the measurement lines are unchanged.
        assert!(verbose.starts_with(&plain), "verbose must extend plain");
        // Each trial plans every source's tree once: one tree per (trial,
        // source), none computed twice within the estimate.
        assert!(verbose.contains("trees computed: 128\n"), "{verbose}");
    }

    /// The processor count `beta` prints on its `machine` line.
    fn printed_n(out: &str) -> usize {
        let tail = out.split("(n = ").nth(1).expect("machine line");
        tail[..tail.find(')').unwrap()].parse().unwrap()
    }

    #[test]
    fn beta_output_is_jobs_invariant() {
        // xtree routes by level with a per-cell sequential RNG; the others
        // plan BFS trees (mesh2, butterfly) or bit corrections (de_bruijn).
        for machine in ["mesh2 64", "butterfly 64", "de_bruijn 64", "xtree 63"] {
            let (code, seq) = run_s(&format!("beta {machine} --trials 2 --jobs 1"));
            assert_eq!(code, 0, "{seq}");
            for jobs in [2, 3, 0] {
                let (code, par) = run_s(&format!("beta {machine} --trials 2 --jobs {jobs}"));
                assert_eq!(code, 0, "{par}");
                assert_eq!(seq, par, "{machine}: --jobs {jobs} changed the output");
            }
        }
    }

    #[test]
    fn beta_plans_each_tree_once_at_any_worker_count() {
        for machine in ["mesh2 256", "butterfly 256"] {
            for jobs in [1, 2, 3] {
                let (code, out) = run_s(&format!("beta {machine} --verbose --jobs {jobs}"));
                assert_eq!(code, 0, "{out}");
                // Three trials, and 14n demands per trial reach every source.
                let trees = 3 * printed_n(&out);
                assert!(
                    out.contains(&format!("trees computed: {trees}\n")),
                    "{machine} --jobs {jobs}: {out}"
                );
            }
        }
    }

    #[test]
    fn jobs_above_the_bound_are_a_usage_error() {
        for cmd in ["beta mesh2 16", "faults mesh2 16 --quick", "audit tree 15"] {
            let (code, out) = run_s(&format!("{cmd} --jobs 65"));
            assert_eq!(code, 2, "{cmd}: {out}");
            assert!(
                out.contains("--jobs must be at most 64, not 65"),
                "{cmd}: {out}"
            );
        }
        // A malformed value stays a domain error, like any flag's.
        let (code, out) = run_s("beta mesh2 16 --jobs x");
        assert_eq!(code, 1, "{out}");
    }

    #[test]
    fn sizes_and_trials_above_the_bound_are_a_usage_error() {
        for (cmd, message) in [
            ("beta mesh2 4000000000", "<size> must be at most 65536"),
            ("build ring 5000000000", "<size> must be at most 65536"),
            ("faults mesh2 65537 --quick", "<size> must be at most 65536"),
            ("emulate mesh2 16 tree 70000", "<m> must be at most 65536"),
            (
                "beta mesh2 16 --trials 4000000000",
                "--trials must be at most 1024",
            ),
            (
                "faults mesh2 16 --trials 1025",
                "--trials must be at most 1024",
            ),
        ] {
            let (code, out) = run_s(cmd);
            assert_eq!(code, 2, "{cmd}: {out}");
            assert!(out.contains(message), "{cmd}: {out}");
        }
        // A malformed size stays a domain error.
        let (code, out) = run_s("beta mesh2 many");
        assert_eq!(code, 1, "{out}");
    }

    #[test]
    fn max_ticks_above_the_bound_are_a_usage_error() {
        for ticks in ["4294967296", "18446744073709551615"] {
            let cmd = format!("beta mesh2 16 --max-ticks {ticks}");
            let (code, out) = run_s(&cmd);
            assert_eq!(code, 2, "{cmd}: {out}");
            assert!(
                out.contains(&format!(
                    "--max-ticks must be at most 4294967295, not {ticks}"
                )),
                "{cmd}: {out}"
            );
        }
        // A malformed value stays a domain error.
        let (code, out) = run_s("beta mesh2 16 --max-ticks -1");
        assert_eq!(code, 1, "{out}");
    }

    #[test]
    fn verify_steps_above_the_bound_are_a_usage_error() {
        for steps in ["65537", "4000000000", "5000000000"] {
            let cmd = format!("verify mesh2 16 --steps {steps}");
            let (code, out) = run_s(&cmd);
            assert_eq!(code, 2, "{cmd}: {out}");
            assert!(
                out.contains(&format!("--steps must be at most 65536, not {steps}")),
                "{cmd}: {out}"
            );
        }
        // A malformed value stays a domain error.
        let (code, out) = run_s("verify mesh2 16 --steps x");
        assert_eq!(code, 1, "{out}");
        // `emulate --steps` is a closed form: a huge count finishes at once.
        let (code, out) = run_s("emulate mesh2 16 tree 16 --steps 4000000000");
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn beta_prints_the_flux_bound_computed_on_its_own() {
        // The flux bound runs as a job of the estimate's last route run;
        // it must print what computing it after the estimate prints.
        let m = super::build("mesh2", 64, 5).unwrap();
        let flux = super::flux_upper_bound(&m, &m.symmetric_traffic(), 5, 4, 2);
        let line = format!(
            "flux bound    : {:.3} [{}]\n",
            flux.rate_bound, flux.witness
        );
        for jobs in [1, 2, 3] {
            for trials in [1, 2] {
                let (code, out) = run_s(&format!(
                    "beta mesh2 64 --seed 5 --trials {trials} --jobs {jobs}"
                ));
                assert_eq!(code, 0, "{out}");
                assert!(out.contains(&line), "jobs={jobs} trials={trials}: {out}");
            }
        }
    }

    #[test]
    fn audit_output_is_jobs_invariant() {
        let (code, seq) = run_s("audit tree 31 --jobs 1");
        assert_eq!(code, 0, "{seq}");
        let (code, par) = run_s("audit tree 31 --jobs 4");
        assert_eq!(code, 0, "{par}");
        assert_eq!(seq, par, "--jobs must not change the output");
    }

    #[test]
    fn beta_rejects_unknown_flags() {
        // The benchmark's argv shapes still parse.
        let (code, out) = run_s("beta mesh2 16 --seed 3 --trials 1");
        assert_eq!(code, 0, "{out}");
        // A misspelled flag no longer runs the defaults silently.
        let (code, out) = run_s("beta mesh2 16 --trails 1");
        assert_eq!(code, 1, "{out}");
        assert!(
            out.contains("unknown flag --trails for `fcnemu beta`"),
            "{out}"
        );
    }

    #[test]
    fn backend_flag_is_rejected_by_every_subcommand() {
        // The retired router-backend switch fails loudly everywhere.
        for cmd in [
            "machines", "build", "beta", "faults", "bound", "emulate", "audit", "witness",
            "verify", "table", "fig1", "metrics", "serve", "request", "help",
        ] {
            let (code, out) = run_s(&format!("{cmd} --backend events"));
            assert_eq!(code, 1, "{cmd}: {out}");
            let want = format!("unknown flag --backend for `fcnemu {cmd}`");
            assert!(out.contains(&want), "{cmd}: {out}");
        }
        // The accepted set is read off the usage line.
        assert_eq!(
            super::usage_flags("beta").unwrap(),
            ["trials", "steady", "seed", "jobs", "max-ticks", "verbose"]
        );
        assert_eq!(super::usage_flags("frobnicate"), None);
    }

    #[test]
    fn backend_flag_rejects_bad_values() {
        // Any value, valid once or not, now fails on the flag itself.
        for value in ["warp", "tick", "events"] {
            let (code, out) = run_s(&format!("beta mesh2 64 --backend {value}"));
            assert_eq!(code, 1, "{value}: {out}");
            assert!(
                out.contains("unknown flag --backend for `fcnemu beta`"),
                "{value}: {out}"
            );
            assert!(!out.contains("expected tick or events"), "{out}");
        }
    }

    #[test]
    fn audit_output_is_backend_invariant() {
        // There is one router run, so no flag can change the report: the
        // retired switch is refused whatever its value, and the report
        // without it is reproducible byte for byte.
        let (code, tick) = run_s("audit tree 31 --backend tick");
        assert_eq!(code, 1, "{tick}");
        let (code, events) = run_s("audit tree 31 --backend events");
        assert_eq!(code, 1, "{events}");
        assert_eq!(tick, events, "the refusal must not depend on the value");
        assert!(
            tick.contains("unknown flag --backend for `fcnemu audit`"),
            "{tick}"
        );
        let (code, first) = run_s("audit tree 31");
        assert_eq!(code, 0, "{first}");
        let (code, second) = run_s("audit tree 31");
        assert_eq!(code, 0, "{second}");
        assert_eq!(first, second, "audit output must be reproducible");
    }

    #[test]
    fn beta_zero_trials_is_an_error_not_a_panic() {
        let (code, out) = run_s("beta mesh2 16 --trials 0");
        assert_eq!(code, 1, "{out}");
        assert_eq!(out, "error: --trials must be at least 1\n");
    }

    #[test]
    fn faults_zero_trials_is_an_error_not_a_panic() {
        let (code, out) = run_s("faults mesh2 16 --trials 0 --quick");
        assert_eq!(code, 1, "{out}");
        assert_eq!(out, "error: --trials must be at least 1\n");
    }

    #[test]
    fn out_of_range_values_are_errors_not_panics() {
        for (cmd, flag) in [
            ("witness ring 8 --alpha 0", "--alpha"),
            ("witness ring 8 --alpha NaN", "--alpha"),
            ("witness ring 8 --alpha 1e3", "--alpha"),
            ("fig1 de_bruijn mesh2 --n 3", "--n"),
            ("bound de_bruijn mesh2 --n 0", "--n"),
            ("verify ring 8 --hosts 0", "--hosts"),
            ("table 1 --size 0", "--size"),
        ] {
            let (code, out) = run_s(cmd);
            assert_eq!(code, 1, "{cmd}: {out}");
            assert!(
                out.contains(&format!("error: {flag} must be")),
                "{cmd}: {out}"
            );
        }
    }

    #[test]
    fn emulate_reports_slowdown() {
        let (code, out) = run_s("emulate de_bruijn 64 mesh2 9 --steps 4");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("measured slowdown"));
        assert!(out.contains("theorem bound"));
    }

    #[test]
    fn witness_circuits_above_the_bound_are_a_usage_error() {
        // linear_array 16385 and mesh2 65536 are refused on n alone, ring
        // 256 (256·257) on vertex 0's eccentricity, and tree 1023 (Λ = 18,
        // twice the root's eccentricity) on its exact diameter.
        for (cmd, nodes) in [
            ("witness linear_array 16385", "more than 32770"),
            ("witness mesh2 65536", "more than 131072"),
            ("witness ring 256", "at least 65792"),
            ("witness linear_array 128 --alpha 2", "at least 48896"),
            ("witness tree 1023", "37851"),
        ] {
            let (code, out) = run_s(cmd);
            assert_eq!(code, 2, "{cmd}: {out}");
            assert!(
                out.contains(&format!("must be at most 32768, not {nodes}")),
                "{cmd}: {out}"
            );
        }
        // linear_array 128 at the default α is 128·255 = 32 640 nodes: it
        // fits (built here only up to the check).
        let g = fcn_topology::Machine::linear_array(128);
        assert!(super::witness_fits(g.graph(), 1.0).is_ok());
    }

    #[test]
    fn audits_above_the_bound_are_a_usage_error() {
        // mesh2 65536 is refused on its processor count, linear_array 4096
        // (4096·4095·4095 hops) on vertex 0's eccentricity.
        for (cmd, message) in [
            ("audit mesh2 65536", "at most 8192 processors, not 65536"),
            (
                "audit linear_array 4096",
                "at most 2^34, not 68685926400 (n = 4096, ecc(0) = 4095)",
            ),
        ] {
            let (code, out) = run_s(cmd);
            assert_eq!(code, 2, "{cmd}: {out}");
            assert!(out.contains(message), "{cmd}: {out}");
        }
        // mesh2 256 fits (checked here only up to the bound).
        assert!(super::audit_fits(&fcn_topology::Machine::mesh(2, 16)).is_ok());
    }

    #[test]
    fn witness_reports_lemma9() {
        let (code, out) = run_s("witness mesh2 25");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("preservation"));
    }

    #[test]
    fn table_renders() {
        let (code, out) = run_s("table 3");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("de_bruijn"));
        assert!(out.contains("O(lg^2 n)") || out.contains("O(lg n)"));
    }

    #[test]
    fn errors_are_reported() {
        let (code, out) = run_s("beta nosuch 64");
        assert_eq!(code, 1);
        assert!(out.contains("unknown family"));
        let (code, out) = run_s("frobnicate");
        assert_eq!(code, 1);
        assert!(out.contains("unknown command"));
        let (code, _) = run_s("build mesh2");
        assert_eq!(code, 1);
    }

    #[test]
    fn verify_reports_exact_semantics() {
        let (code, out) = run_s("verify de_bruijn 32 --hosts 4 --steps 4");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("EXACT"));
    }

    #[test]
    fn help_exits_zero() {
        let (code, out) = run_s("help");
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    /// Serializes the tests that enable the global telemetry registry, so
    /// their delta snapshots don't absorb each other's metrics. It is held
    /// across whole commands, which take the library's own locks, so it is
    /// a plain mutex outside the flat lock order.
    #[allow(
        clippy::disallowed_types,
        reason = "a test gate held across commands that take fcn_exec::sync::Lock"
    )]
    static METRICS_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn metrics_out_writes_valid_snapshot_and_keeps_stdout_stable() {
        let _gate = METRICS_GATE.lock().unwrap();
        let dir = std::env::temp_dir().join("fcnemu_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("beta.jsonl");
        let path_s = path.to_str().unwrap();

        let (code, plain) = run_s("beta mesh2 64 --trials 2 --jobs 2");
        assert_eq!(code, 0, "{plain}");
        let (code, with_metrics) = run_s(&format!(
            "beta mesh2 64 --trials 2 --jobs 2 --metrics-out {path_s}"
        ));
        assert_eq!(code, 0, "{with_metrics}");
        // Telemetry must not change a byte of the report.
        assert_eq!(plain, with_metrics, "--metrics-out changed stdout");

        // The snapshot parses, validates against the schema, and contains
        // the expected instrument families.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with("{\"schema\":\"fcn-telemetry/2\""),
            "{text}"
        );
        let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&text).expect("snapshot validates");
        assert!(snap.counters.contains_key("router_runs_total"), "{text}");
        assert!(snap.counters.contains_key("router_ticks_total"));
        assert!(snap.counters.contains_key("plan_cache_misses_total"));
        assert!(snap.counters.contains_key("bandwidth_trials_total"));
        assert!(snap.counters.contains_key("exec_jobs_total"));
        assert!(snap
            .counters
            .contains_key("span_bandwidth_estimate_calls_total"));
        // Each trial's plan phase is timed apart; on two workers the two
        // small trials route in one run.
        for (span, calls) in [("estimate_plan", 2), ("estimate_route", 1)] {
            assert_eq!(
                snap.counters[&format!("span_{span}_calls_total")],
                calls,
                "{text}"
            );
            assert!(snap
                .counters
                .contains_key(&format!("span_{span}_nanos_total")));
        }
        assert!(snap.histograms.contains_key("router_queue_occupancy"));
        // A one-shot estimate's cache has no room: every tree it computes
        // is refused, and none is stored.
        assert_eq!(
            snap.counters["plan_cache_refusals_total"],
            snap.counters["plan_cache_misses_total"]
        );
        assert!(!snap.counters.contains_key("plan_cache_stored_total"));
        // Router accounting is self-consistent.
        assert!(snap.counters["router_delivered_total"] <= snap.counters["router_packets_total"]);
        let occ = &snap.histograms["router_queue_occupancy"];
        assert_eq!(occ.count, snap.counters["router_ticks_total"]);
    }

    #[test]
    fn metrics_subcommand_renders_prom_and_table() {
        let _gate = METRICS_GATE.lock().unwrap();
        let dir = std::env::temp_dir().join("fcnemu_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        let path_s = path.to_str().unwrap();

        let (code, out) = run_s(&format!("audit tree 31 --metrics-out {path_s}"));
        assert_eq!(code, 0, "{out}");

        let (code, prom) = run_s(&format!("metrics {path_s} --format prom"));
        assert_eq!(code, 0, "{prom}");
        assert!(prom.contains("# TYPE router_ticks_total counter"), "{prom}");
        assert!(
            prom.contains("router_queue_occupancy_bucket{le=\"+Inf\"}"),
            "{prom}"
        );
        assert!(prom.contains("router_queue_occupancy_count"), "{prom}");

        let (code, table) = run_s(&format!("metrics {path_s}"));
        assert_eq!(code, 0, "{table}");
        assert!(table.contains("router_runs_total"), "{table}");

        // Round trip: `--format jsonl` re-emits the canonical bytes.
        let (code, jsonl) = run_s(&format!("metrics {path_s} --format jsonl"));
        assert_eq!(code, 0);
        assert_eq!(jsonl, std::fs::read_to_string(&path).unwrap());
    }

    #[test]
    fn metrics_subcommand_rejects_invalid_snapshots() {
        let dir = std::env::temp_dir().join("fcnemu_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(
            &bad,
            "{\"schema\":\"fcn-telemetry/9\",\"kind\":\"header\",\"counters\":0,\"histograms\":0}\n",
        )
        .unwrap();
        let (code, out) = run_s(&format!("metrics {} --format prom", bad.to_str().unwrap()));
        assert_eq!(code, 2, "schema errors are I/O-class failures: {out}");
        assert!(out.contains("schema"), "{out}");
        let (code, out) = run_s("metrics /no/such/file.jsonl");
        assert_eq!(code, 2, "unreadable snapshots exit 2: {out}");
        assert!(out.contains("cannot read"), "{out}");
    }

    #[test]
    fn metrics_out_write_failure_exits_two() {
        let _gate = METRICS_GATE.lock().unwrap();
        let (code, out) = run_s("machines --metrics-out /no/such/dir/metrics.jsonl");
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("cannot write metrics"), "{out}");
    }

    #[test]
    fn faults_renders_a_curve_and_is_jobs_invariant() {
        // mesh2 plans BFS trees on the surviving graph; de_bruijn routes by
        // bit correction and repairs blocked routes by BFS.
        for machine in ["mesh2 64", "de_bruijn 64"] {
            let (code, seq) = run_s(&format!("faults {machine} --quick --jobs 1"));
            assert_eq!(code, 0, "{seq}");
            assert!(seq.contains("fault seed"), "{seq}");
            assert!(seq.contains(" 0.000"), "{seq}");
            assert!(seq.contains(" 0.100"), "{seq}");
            for jobs in [2, 3, 0] {
                let (code, par) = run_s(&format!("faults {machine} --quick --jobs {jobs}"));
                assert_eq!(code, 0, "{par}");
                assert_eq!(
                    seq, par,
                    "{machine}: --jobs {jobs} changed the faults output"
                );
            }
        }
    }

    #[test]
    fn faults_output_is_backend_invariant() {
        // As for audit: the retired switch is refused whatever its value,
        // and the faults table without it is reproducible byte for byte.
        let (code, tick) = run_s("faults mesh2 64 --quick --backend tick");
        assert_eq!(code, 1, "{tick}");
        let (code, events) = run_s("faults mesh2 64 --quick --backend events");
        assert_eq!(code, 1, "{events}");
        assert_eq!(tick, events, "the refusal must not depend on the value");
        assert!(
            tick.contains("unknown flag --backend for `fcnemu faults`"),
            "{tick}"
        );
        let (code, first) = run_s("faults mesh2 64 --quick");
        assert_eq!(code, 0, "{first}");
        let (code, second) = run_s("faults mesh2 64 --quick");
        assert_eq!(code, 0, "{second}");
        assert_eq!(first, second, "faults output must be reproducible");
    }

    #[test]
    fn faults_verbose_events_reports_skipped_windows() {
        let (code, plain) = run_s("faults mesh2 64 --quick");
        assert_eq!(code, 0, "{plain}");
        let (code, verbose) = run_s("faults mesh2 64 --quick --verbose");
        assert_eq!(code, 0, "{verbose}");
        // `--verbose` only appends aborted-cell warnings; the curve itself
        // is byte-identical.
        for line in plain.lines() {
            assert!(verbose.contains(line), "verbose lost line {line:?}");
        }
    }

    #[test]
    fn faults_zero_rate_row_matches_intact_beta() {
        // The rate-0 row of the curve is the intact estimator bit-for-bit:
        // its β̂ must equal what `beta` prints for the same seed/trials.
        let (code, beta) = run_s("beta mesh2 64 --trials 2");
        assert_eq!(code, 0, "{beta}");
        let measured = beta
            .lines()
            .find(|l| l.starts_with("measured"))
            .unwrap()
            .split_whitespace()
            .nth(3)
            .unwrap()
            .to_string();
        let (code, faults) = run_s("faults mesh2 64 --rates 0.0 --trials 2");
        assert_eq!(code, 0, "{faults}");
        assert!(
            faults.contains(&measured),
            "intact row must show β̂ {measured}: {faults}"
        );
    }

    #[test]
    fn faults_rejects_bad_rates() {
        let (code, out) = run_s("faults mesh2 64 --rates nope");
        assert_eq!(code, 1);
        assert!(out.contains("not a number"), "{out}");
        let (code, out) = run_s("faults mesh2 64 --rates 1.5");
        assert_eq!(code, 1);
        assert!(out.contains("must lie in"), "{out}");
    }

    #[test]
    fn beta_accepts_max_ticks() {
        let (code, plain) = run_s("beta mesh2 64 --trials 2");
        assert_eq!(code, 0, "{plain}");
        let (code, budget) = run_s("beta mesh2 64 --trials 2 --max-ticks 1000000");
        assert_eq!(code, 0, "{budget}");
        // A generous explicit budget changes nothing, nor does the largest
        // one, nor 0, which keeps the default.
        assert_eq!(plain, budget);
        for ticks in ["4294967295", "0"] {
            let (code, out) = run_s(&format!("beta mesh2 64 --trials 2 --max-ticks {ticks}"));
            assert_eq!(code, 0, "{out}");
            assert_eq!(plain, out, "--max-ticks {ticks}");
        }
    }
}
