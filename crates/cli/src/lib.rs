#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fcn-cli
//!
//! Library backing the `fcnemu` command-line tool: a tiny hand-rolled
//! argument parser (no external dependency needed for a fixed flag
//! grammar) and the subcommand implementations, kept in the library so
//! they are unit-testable. The `fcn-bench` binaries parse their arguments
//! with the same [`Args`] and write `--metrics-out` snapshots through the
//! same [`with_metrics_out`].

pub mod args;
pub mod commands;
pub mod service;

pub use args::{Args, ParseError};
pub use commands::CmdError;

/// Entry point shared by `main` and tests: parse and dispatch, returning
/// the process exit code and writing the report to `out`.
///
/// Every subcommand accepts `--metrics-out <path>` ([`with_metrics_out`]).
/// The report written to `out` stays byte-identical with or without the
/// flag — telemetry never changes a simulated bit; the only extra output
/// is a notice on stderr.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return usage_error(out, &e),
    };
    // Typed failures map to exit codes: domain errors (unknown family,
    // failed verification) exit 1, I/O and schema errors exit 2 — the same
    // convention the BENCH binaries use for snapshot validation.
    let metrics_out = match args.value("metrics-out") {
        Ok(path) => path,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 1;
        }
    };
    let (code, written) = with_metrics_out(metrics_out, || match commands::dispatch(&args, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            e.exit_code()
        }
    });
    if let Err(e) = written {
        let _ = writeln!(out, "error: {e}");
        return 2;
    }
    code
}

/// Report an argv that does not parse (no command at all) with the usage
/// text; exit code 2.
pub(crate) fn usage_error(out: &mut dyn std::io::Write, e: &ParseError) -> i32 {
    let _ = writeln!(out, "error: {e}\n");
    let _ = writeln!(out, "{}", commands::usage());
    2
}

/// Run `body`; when `path` is given, enable the global [`fcn_telemetry`]
/// registry around it and write a versioned JSONL *delta* snapshot (only
/// what this run contributed) to `path` afterwards. Returns the body's
/// value and the snapshot write's outcome: an error message means the
/// caller exits 2, like every other metrics I/O error.
pub fn with_metrics_out<T>(
    path: Option<&str>,
    body: impl FnOnce() -> T,
) -> (T, Result<(), String>) {
    let Some(path) = path else {
        return (body(), Ok(()));
    };
    // Baseline *before* enabling, so concurrent in-process runs (tests) and
    // repeated runs against the long-lived global registry report only
    // their own contribution.
    let reg = fcn_telemetry::global();
    let baseline = reg.snapshot();
    reg.set_enabled(true);
    let value = body();
    fcn_telemetry::flush_thread_shard(reg);
    reg.set_enabled(false);
    let delta = reg.snapshot().delta_since(&baseline);
    let written = match std::fs::write(path, delta.to_jsonl()) {
        Ok(()) => {
            eprintln!("metrics snapshot written to {path}");
            Ok(())
        }
        Err(e) => Err(format!("cannot write metrics to {path:?}: {e}")),
    };
    (value, written)
}
