#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fcn-cli
//!
//! Library backing the `fcnemu` command-line tool: a tiny hand-rolled
//! argument parser (no external dependency needed for a fixed flag
//! grammar) and the subcommand implementations, kept in the library so
//! they are unit-testable.

pub mod args;
pub mod commands;
pub mod service;

pub use args::{Args, ParseError};
pub use commands::CmdError;

/// Entry point shared by `main` and tests: parse and dispatch, returning
/// the process exit code and writing the report to `out`.
///
/// Every subcommand accepts `--metrics-out <path>`: the global
/// [`fcn_telemetry`] registry is enabled for the duration of the run and a
/// versioned JSONL *delta* snapshot (only what this run contributed) is
/// written to `path` on success. The report written to `out` stays
/// byte-identical with or without the flag — telemetry never changes a
/// simulated bit; the only extra output is a notice on stderr.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            let _ = writeln!(out, "error: {e}\n");
            let _ = writeln!(out, "{}", commands::usage());
            return 2;
        }
    };
    // Baseline *before* enabling, so concurrent in-process runs (tests) and
    // repeated runs against the long-lived global registry report only
    // their own contribution.
    let metrics_out = args.flags.get("metrics-out").cloned();
    let baseline = metrics_out.as_ref().map(|_| {
        let reg = fcn_telemetry::global();
        let base = reg.snapshot();
        reg.set_enabled(true);
        base
    });
    // Typed failures map to exit codes: domain errors (unknown family,
    // failed verification) exit 1, I/O and schema errors exit 2 — the same
    // convention the BENCH binaries use for snapshot validation.
    let code = match commands::dispatch(&args, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            e.exit_code()
        }
    };
    if let (Some(path), Some(base)) = (metrics_out, baseline) {
        let reg = fcn_telemetry::global();
        fcn_telemetry::flush_thread_shard(reg);
        reg.set_enabled(false);
        let delta = reg.snapshot().delta_since(&base);
        match std::fs::write(&path, delta.to_jsonl()) {
            Ok(()) => eprintln!("metrics snapshot written to {path}"),
            Err(e) => {
                // I/O failure writing the snapshot: exit 2, like every
                // other metrics I/O error.
                let _ = writeln!(out, "error: cannot write metrics to {path:?}: {e}");
                return 2;
            }
        }
    }
    code
}
