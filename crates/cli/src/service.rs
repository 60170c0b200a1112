//! Service mode: `fcnemu serve` and `fcnemu request`.
//!
//! The daemon side plugs the existing subcommand bodies into
//! [`fcn_serve::Server`] via [`CliHandler`], which is what makes a served
//! response byte-identical to the inline invocation: `audit` requests
//! literally run [`crate::run`] into a buffer, `beta` runs the same body
//! through `commands::beta_with` with the daemon's warm registry and the
//! request's deadline flag threaded in, and `faults` runs
//! `commands::faults_with` with the served worker default.

use std::io::Write;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use fcn_serve::{
    ChaosRates, ChaosSpec, Client, Handler, HandlerOutcome, Registry, Request, RetryPolicy, Server,
    ServerConfig,
};

use crate::args::Args;
use crate::commands::{self, CmdError, CmdResult};

/// Executes daemon request kinds by dispatching into the inline subcommand
/// bodies, sharing one warm [`Registry`] across all requests. Public so
/// load generators (`fcn-serve-load`) can run an in-process daemon with
/// the exact production handler.
pub struct CliHandler {
    registry: Arc<Registry>,
}

impl Default for CliHandler {
    fn default() -> CliHandler {
        CliHandler::new()
    }
}

impl CliHandler {
    /// A handler with a fresh (cold) registry.
    pub fn new() -> CliHandler {
        CliHandler {
            registry: Arc::new(Registry::new()),
        }
    }

    /// Run one subcommand `body` the way [`crate::run`] dispatches it: the
    /// error-path bytes mirror it exactly.
    fn handle_body(
        argv: &[String],
        body: impl FnOnce(&Args, &mut Vec<u8>) -> CmdResult,
    ) -> HandlerOutcome {
        let mut buf = Vec::new();
        let args = match Args::parse(argv) {
            Ok(args) => args,
            Err(e) => {
                let exit_code = crate::usage_error(&mut buf, &e);
                return HandlerOutcome::Done {
                    exit_code,
                    output: buf,
                };
            }
        };
        let checked = commands::check_flags(&args).map_err(CmdError::from);
        match checked.and_then(|()| body(&args, &mut buf)) {
            Ok(()) => HandlerOutcome::Done {
                exit_code: 0,
                output: buf,
            },
            Err(CmdError::Cancelled(partial)) => HandlerOutcome::Cancelled { partial },
            Err(e) => {
                let _ = writeln!(buf, "error: {e}");
                HandlerOutcome::Done {
                    exit_code: e.exit_code(),
                    output: buf,
                }
            }
        }
    }
}

impl Handler for CliHandler {
    fn handle(&self, kind: &str, req_args: &[String], cancel: &AtomicBool) -> HandlerOutcome {
        // `--metrics-out` would write a file on the daemon's host and toggle
        // the process-global registry that every other request records
        // into; a served request reads its counters through `metrics`.
        let mut argv = vec![kind.to_string()];
        argv.extend(req_args.iter().cloned());
        if Args::parse(&argv).is_ok_and(|a| a.flags.contains_key("metrics-out")) {
            return HandlerOutcome::Failed {
                kind: fcn_serve::ErrorKind::BadRequest,
                message: "--metrics-out is not accepted by a served request \
                          (use a `metrics` request instead)"
                    .into(),
            };
        }
        match kind {
            // `beta` goes through [`commands::beta_with`] so the warm
            // registry and the cancel flag reach the estimator.
            "beta" => Self::handle_body(&argv, |args, buf| {
                commands::beta_with(args, buf, Some(&self.registry), Some(cancel))
            }),
            "faults" => Self::handle_body(&argv, |args, buf| commands::faults_with(args, buf, true)),
            // `audit` has no warm-state or cancellation hooks yet, so the
            // whole inline entry point runs into the reply buffer —
            // byte-identity (including error text and exit codes) is then
            // true by construction, not by imitation.
            "audit" => {
                let mut buf = Vec::new();
                let exit_code = crate::run(&argv, &mut buf);
                HandlerOutcome::Done {
                    exit_code,
                    output: buf,
                }
            }
            other => HandlerOutcome::Failed {
                kind: fcn_serve::ErrorKind::BadRequest,
                message: format!(
                    "unsupported request kind {other:?} (expected beta, audit, faults, metrics, health, or ping)"
                ),
            },
        }
    }
}

/// `fcnemu serve`: bind, announce the resolved address, then serve until
/// SIGTERM/SIGINT triggers a graceful drain.
pub(crate) fn cmd_serve(args: &Args, out: &mut dyn Write) -> CmdResult {
    let addr = args.value("addr")?.unwrap_or("127.0.0.1:0");
    let max_inflight = args.flag("max-inflight", 8usize)?;
    let max_queued = args.flag("max-queued", 16usize)?;
    let queue_wait_ms = args.flag("queue-wait-ms", 250u64)?;
    let default_deadline_ms = args.flag("deadline-ms", 0u64)?;
    let poll_interval_ms = args.flag("poll-ms", 20u64)?;
    let chaos_seed = args.flag("chaos-seed", 0u64)?;
    let chaos_stall_ms = args.flag("chaos-stall-ms", 5u64)?;
    let chaos_rates = args.value("chaos-rates")?;
    // Wire chaos is opt-in: injection happens only when a rates flag
    // names a nonzero rate, and then only through the seeded plan.
    let chaos = match chaos_rates {
        Some(spec) => {
            let rates = ChaosRates::parse(spec).map_err(CmdError::Run)?;
            (!rates.is_zero()).then(|| {
                let mut spec = ChaosSpec::new(chaos_seed, rates);
                spec.max_stall_ms = chaos_stall_ms;
                spec
            })
        }
        None => None,
    };
    // The routing/bandwidth instrumentation gates on the global
    // registry; the daemon always serves with it enabled so `metrics`
    // requests have per-request counters to render.
    fcn_telemetry::global().set_enabled(true);
    let config = ServerConfig {
        addr: addr.to_string(),
        max_inflight,
        max_queued,
        queue_wait_ms,
        default_deadline_ms,
        poll_interval_ms,
        chaos,
    };
    let server = Server::bind(config, CliHandler::new())
        .map_err(|e| CmdError::Io(format!("cannot bind {addr:?}: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CmdError::Io(format!("cannot resolve bound address: {e}")))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    for sig in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
        signal_hook::flag::register(sig, Arc::clone(&shutdown))
            .map_err(|e| CmdError::Io(format!("cannot register signal handler: {e}")))?;
    }
    // Announced (and flushed) before serving so scripts can scrape the
    // resolved ephemeral port.
    let _ = writeln!(out, "listening on {local}");
    let _ = out.flush();
    server
        .run(&shutdown)
        .map_err(|e| CmdError::Io(format!("serve loop failed: {e}")))?;
    let _ = writeln!(out, "drained cleanly; goodbye");
    Ok(())
}

/// `fcnemu request`: one framed request to a running daemon, printing the
/// response output verbatim. Arguments after `--` are forwarded unparsed.
pub(crate) fn cmd_request(args: &Args, out: &mut dyn Write) -> CmdResult {
    let addr = args.pos(0, "addr")?.to_string();
    let kind = args.pos(1, "kind")?.to_string();
    let deadline_ms = args.flag("deadline-ms", 0u64)?;
    let retries = args.flag("retries", 1u32)?;
    let retry_seed = args.flag("retry-seed", 0u64)?;
    // --retries > 1 opts into the resilient client: reconnect + seeded
    // backoff on transport failures and Overloaded sheds, with
    // idempotency keys so completed-but-lost replies replay exactly.
    let mut client = if retries > 1 {
        Client::connect_retrying(&addr, RetryPolicy::fast(retries, retry_seed))
    } else {
        Client::connect(&addr)
    }
    .map_err(|e| CmdError::Io(format!("cannot connect to {addr:?}: {e}")))?;
    let mut req = Request::new(0, &kind, &[]);
    req.args = args.rest.clone();
    req.deadline_ms = (deadline_ms > 0).then_some(deadline_ms);
    let resp = client
        .request(req)
        .map_err(|e| CmdError::Io(e.to_string()))?;
    let _ = write!(out, "{}", resp.output);
    match resp.error {
        None if resp.exit_code == 0 => Ok(()),
        // The remote body already printed its own `error:` line (it is
        // byte-identical to the inline run); surface only the code.
        None => Err(CmdError::Run(format!(
            "remote command exited {}",
            resp.exit_code
        ))),
        Some(err) => match err.kind {
            fcn_serve::ErrorKind::Cancelled => Err(CmdError::Cancelled(err.message)),
            kind => Err(CmdError::Run(format!("{kind:?}: {}", err.message))),
        },
    }
}
