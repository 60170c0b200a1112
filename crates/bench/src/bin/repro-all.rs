//! Run every table/figure/ablation regeneration in sequence, resiliently.
//!
//! `cargo run --release -p fcn-bench --bin repro-all [-- --quick|--full]
//! [--jobs N] [--metrics-out PATH] [--timeout SECS] [--keep-going]
//! [--resume]` executes the sibling binaries as subprocesses so each writes
//! its own stdout report and `target/repro/*.jsonl` records.
//!
//! Driver flags (consumed here, never forwarded to children):
//!
//! * `--timeout SECS` — wall-clock budget per child; a child that exceeds
//!   it is killed and recorded as a failure (`timeout`);
//! * `--keep-going` — keep running the remaining binaries after a failure
//!   (the default stops at the first one so the checkpoint stays sharp);
//! * `--resume` — skip the binaries already recorded as completed in
//!   `target/repro/manifest.json` from a previous run with identical
//!   forwarded arguments.
//!
//! The shared options (`--quick|--full --jobs N --metrics-out PATH`) are
//! forwarded to every binary; `--jobs` (default 0, one worker per hardware
//! thread) only changes the wall clock, never the records. A forwarded
//! `--metrics-out PATH` is rewritten to `PATH.<bin>` per child so each
//! binary's telemetry snapshot lands in its own file instead of the last
//! child clobbering the rest; the driver writes its own to `PATH`. The
//! arguments parse with the children's parser before any manifest is
//! written or child started, so a typo exits 2 without running anything.
//!
//! The checkpoint manifest is rewritten after every completed child, so a
//! mid-run kill (Ctrl-C, OOM, timeout of the driver itself) loses at most
//! the child that was running. Exit codes: 0 all completed, 1 some child
//! failed, 2 driver usage or I/O error.

use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use fcn_bench::{Failure, RunOpts};
use fcn_cli::Args;
use serde::{Deserialize, Serialize};

/// Manifest format version; a mismatch (or different forwarded arguments)
/// invalidates the checkpoint rather than resuming a different experiment.
const MANIFEST_SCHEMA: &str = "fcn-repro-manifest/1";

/// The checkpoint written to `target/repro/manifest.json` after each child.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    schema: String,
    /// Arguments forwarded to the children (a resume with different
    /// arguments must start fresh — the records would not be comparable).
    args: Vec<String>,
    /// Binaries that have already completed successfully, in run order.
    completed: Vec<String>,
}

/// How one child run ended.
enum ChildOutcome {
    Completed,
    Failed(Option<i32>),
    TimedOut,
}

/// Launch one child and wait for it, enforcing the optional wall-clock
/// budget by polling (`try_wait`) so the driver can kill a stuck child.
fn run_child(
    path: &std::path::Path,
    args: &[String],
    timeout: Option<Duration>,
) -> std::io::Result<ChildOutcome> {
    let context = |what: &str, e: std::io::Error| {
        std::io::Error::new(
            e.kind(),
            format!("failed to {what} {}: {e}", path.display()),
        )
    };
    let mut child = Command::new(path)
        .args(args)
        .spawn()
        .map_err(|e| context("launch", e))?;
    let ended = |status: std::process::ExitStatus| {
        if status.success() {
            ChildOutcome::Completed
        } else {
            ChildOutcome::Failed(status.code())
        }
    };
    let Some(budget) = timeout else {
        return Ok(ended(child.wait().map_err(|e| context("wait for", e))?));
    };
    // Wall clock allowed: child-process budget enforcement in the
    // orchestrator binary; no simulated quantity depends on it.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    loop {
        match child.try_wait().map_err(|e| context("poll", e))? {
            Some(status) => return Ok(ended(status)),
            None if start.elapsed() >= budget => {
                // Budget exhausted: kill and reap, then report the timeout.
                let _ = child.kill();
                let _ = child.wait();
                return Ok(ChildOutcome::TimedOut);
            }
            // Poll interval for child reaping; orchestration only.
            #[allow(clippy::disallowed_methods)]
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn write_manifest(path: &std::path::Path, manifest: &Manifest) -> std::io::Result<()> {
    let body = serde_json::to_string(manifest).map_err(std::io::Error::other)?;
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, body)
    };
    write()
        .map_err(|e| std::io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))
}

/// Load the resumable checkpoint, if it matches this run's arguments.
fn resumable_completed(
    out: &mut dyn Write,
    path: &std::path::Path,
    forwarded: &[String],
) -> std::io::Result<Vec<String>> {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(_) => {
            eprintln!(
                "--resume: no checkpoint at {}; starting fresh",
                path.display()
            );
            return Ok(Vec::new());
        }
    };
    match serde_json::from_str::<Manifest>(&body) {
        Ok(m) if m.schema == MANIFEST_SCHEMA && m.args == forwarded => {
            writeln!(
                out,
                "resuming: {} binaries already completed ({})",
                m.completed.len(),
                m.completed.join(", ")
            )?;
            return Ok(m.completed);
        }
        Ok(m) if m.schema != MANIFEST_SCHEMA => eprintln!(
            "--resume: checkpoint schema {:?} does not match {MANIFEST_SCHEMA:?}; \
             starting fresh",
            m.schema
        ),
        Ok(_) => {
            eprintln!("--resume: checkpoint was written with different arguments; starting fresh")
        }
        Err(e) => eprintln!(
            "--resume: cannot parse checkpoint {}: {e}; starting fresh",
            path.display()
        ),
    }
    Ok(Vec::new())
}

fn main() -> ExitCode {
    fcn_bench::main(&["timeout", "keep-going", "resume"], drive)
}

fn drive(args: &Args, opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let timeout = match args.flags.get("timeout") {
        Some(_) => Some(Duration::from_secs(args.flag("timeout", 0)?)),
        None => None,
    };
    let keep_going = args.flag("keep-going", false)?;
    let forwarded = opts.to_argv();
    let bins = [
        "table4",
        "table1",
        "table2",
        "table3",
        "fig1",
        "fig2",
        "ablation_routing",
        "ablation_bottleneck",
        "ablation_redundancy",
        "ablation_steady",
        "patterns",
        "faults",
    ];
    let me = std::env::current_exe()?;
    let dir = me.parent().ok_or_else(|| {
        std::io::Error::other(format!(
            "current exe {} has no parent directory",
            me.display()
        ))
    })?;

    let manifest_path = fcn_bench::repro_dir().join("manifest.json");
    let completed = if args.flag("resume", false)? {
        resumable_completed(out, &manifest_path, &forwarded)?
    } else {
        Vec::new()
    };
    let mut manifest = Manifest {
        schema: MANIFEST_SCHEMA.to_string(),
        args: forwarded,
        completed,
    };
    write_manifest(&manifest_path, &manifest)?;

    let mut failures: Vec<String> = Vec::new();
    for bin in bins {
        if manifest.completed.iter().any(|b| b == bin) {
            writeln!(
                out,
                "\n################ {bin} (checkpointed, skipping) ################"
            )?;
            continue;
        }
        writeln!(out, "\n################ {bin} ################")?;
        out.flush()?;
        let child = RunOpts {
            metrics_out: opts
                .metrics_out
                .as_ref()
                .map(|path| format!("{path}.{bin}")),
            ..opts.clone()
        };
        match run_child(&dir.join(bin), &child.to_argv(), timeout)? {
            ChildOutcome::Completed => {
                manifest.completed.push(bin.to_string());
                write_manifest(&manifest_path, &manifest)?;
                continue;
            }
            ChildOutcome::Failed(code) => {
                eprintln!("{bin}: exited with status {code:?}");
                failures.push(bin.to_string());
            }
            ChildOutcome::TimedOut => {
                let secs = timeout.map(|t| t.as_secs()).unwrap_or(0);
                eprintln!("{bin}: killed after exceeding --timeout {secs}s");
                failures.push(format!("{bin} (timeout)"));
            }
        }
        if !keep_going {
            break;
        }
    }
    if failures.is_empty() {
        writeln!(
            out,
            "\nall reproductions completed; records under target/repro/"
        )?;
        Ok(())
    } else {
        Err(Failure::Check(format!(
            "FAILED: {failures:?}\ncheckpoint: {} (rerun with --resume to continue \
             from the last completed binary)",
            manifest_path.display()
        )))
    }
}
