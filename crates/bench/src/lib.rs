#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-bench
//!
//! Shared infrastructure for the table/figure regeneration binaries and the
//! BENCH trajectory binaries (`faults`, `fcn-serve-load`).
//!
//! Each regeneration binary (`table1`..`table4`, `fig1`, `fig2`,
//! `ablation_*`, `patterns`, `faults`, `repro-all`) prints a human-readable
//! report to stdout and appends machine-readable JSON-lines records under
//! `target/repro/`, so EXPERIMENTS.md's paper-vs-measured claims stay
//! checkable.
//!
//! Every binary's `main` is one call to [`main`] (`repro_main!(report)`
//! writes it), which parses with `fcnemu`'s parser ([`fcn_cli::Args`]), writes
//! `--metrics-out` with `fcnemu`'s routine ([`fcn_cli::with_metrics_out`])
//! and maps [`Failure`]s to exit codes. A bad argument exits 2 naming it
//! before anything is measured; a closed stdout (`table1 | head`) ends the
//! run quietly with status 0.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fcn_cli::{Args, ParseError};
use serde::Serialize;

pub mod validate;

pub use validate::{
    merge_bench_rows, validate_rows, validate_serve_rows, FAULTS_SCHEMA, SERVE_SCHEMA,
};

/// Scale of a reproduction run, from the command line (`--quick` /
/// `--full`; default is a balanced middle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest grids (CI-friendly; `--quick`).
    Quick,
    /// Balanced middle (no flag).
    Default,
    /// Paper-scale grids (`--full`).
    Full,
}

/// The flags every repro binary accepts.
const RUN_FLAGS: [&str; 4] = ["quick", "full", "jobs", "metrics-out"];

/// Parsed command-line options shared by all regeneration binaries:
/// `[--quick|--full] [--jobs N] [--metrics-out PATH]`.
///
/// `jobs` is the worker-thread count for the measurement grids; `0` (the
/// default) means one worker per hardware thread, `1` is sequential, and a
/// count above [`fcn_exec::MAX_JOBS`] is refused. Every
/// grid cell derives its seeds from its index ([`fcn_exec::job_seed`]), so
/// the output is bit-identical for every `jobs` value — the flag only
/// changes the wall clock. `metrics_out` enables the global
/// [`fcn_telemetry`] registry for the run and writes a JSONL snapshot on
/// exit; it never changes a record either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOpts {
    /// Grid scale selected by `--quick`/`--full`.
    pub scale: Scale,
    /// Worker threads (`--jobs N`; 0 = auto, 1 = sequential).
    pub jobs: usize,
    /// `--metrics-out PATH`: enable telemetry and write a snapshot there.
    pub metrics_out: Option<String>,
}

impl RunOpts {
    /// Read the shared options from `args`, which may also carry the flags
    /// named in `extra`. Anything else is an error naming the argument: an
    /// unknown flag, a positional, a value that does not parse, or
    /// `--quick` together with `--full`.
    pub fn from_args(args: &Args, extra: &[&str]) -> Result<RunOpts, ParseError> {
        let allowed: Vec<&str> = RUN_FLAGS.iter().chain(extra).copied().collect();
        let context = format!("`{}` (it accepts --{})", args.command, allowed.join(" --"));
        args.only_flags(&allowed, &context)?;
        if let Some(stray) = args.positionals.first().or(args.rest.first()) {
            return Err(ParseError(format!(
                "unexpected argument {stray:?} for {context}"
            )));
        }
        let scale = match (args.switch("quick")?, args.switch("full")?) {
            (true, true) => return Err(ParseError("--full conflicts with --quick".into())),
            (true, false) => Scale::Quick,
            (false, true) => Scale::Full,
            (false, false) => Scale::Default,
        };
        Ok(RunOpts {
            scale,
            jobs: fcn_cli::args::check_jobs(args.flag("jobs", 0)?)?,
            metrics_out: args.value("metrics-out")?.map(String::from),
        })
    }

    /// The estimator of this run's sweeps: the scale's multipliers and
    /// trials on `jobs` workers.
    pub fn estimator(&self) -> fcn_bandwidth::BandwidthEstimator {
        fcn_bandwidth::BandwidthEstimator {
            multipliers: self.scale.multipliers(),
            trials: self.scale.trials(),
            jobs: self.jobs,
            ..Default::default()
        }
    }

    /// The arguments that parse back to these options: what `repro-all`
    /// forwards to each child.
    pub fn to_argv(&self) -> Vec<String> {
        let mut argv = Vec::new();
        match self.scale {
            Scale::Quick => argv.push("--quick".to_string()),
            Scale::Full => argv.push("--full".to_string()),
            Scale::Default => {}
        }
        if self.jobs != 0 {
            argv.push(format!("--jobs={}", self.jobs));
        }
        if let Some(path) = &self.metrics_out {
            argv.push(format!("--metrics-out={path}"));
        }
        argv
    }
}

/// Why a repro binary's body stopped before the end of its report.
#[derive(Debug)]
pub enum Failure {
    /// An argument only the body reads (`repro-all --timeout`) is bad;
    /// exit 2.
    Usage(ParseError),
    /// A check on the measured results failed; exit 1.
    Check(String),
    /// Writing the report, the records or a BENCH file failed; exit 2. A
    /// closed stdout is not a failure: the run ends quietly with status 0.
    Io(io::Error),
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Io(e)
    }
}

impl From<ParseError> for Failure {
    fn from(e: ParseError) -> Failure {
        Failure::Usage(e)
    }
}

/// Define a repro binary's `main`: [`main`] running `report`, which takes
/// the shared options and the report writer.
#[macro_export]
macro_rules! repro_main {
    ($report:expr) => {
        fn main() -> ::std::process::ExitCode {
            $crate::main(&[], |_, opts, out| ($report)(opts, out))
        }
    };
}

/// The whole `main` of a repro binary (see the crate docs): [`run`] over
/// the process's arguments and stdout. `extra` names flags beyond the
/// shared ones, which `body` reads from the parsed [`Args`].
pub fn main(
    extra: &[&str],
    body: impl FnOnce(&Args, &RunOpts, &mut dyn Write) -> Result<(), Failure>,
) -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    ExitCode::from(run(&argv, extra, &mut io::stdout().lock(), body))
}

/// Parse `argv` (program name first), run `body` under `--metrics-out`,
/// and map the outcome to an exit code; every message goes to stderr.
pub fn run(
    argv: &[String],
    extra: &[&str],
    out: &mut dyn Write,
    body: impl FnOnce(&Args, &RunOpts, &mut dyn Write) -> Result<(), Failure>,
) -> u8 {
    let parsed = Args::parse(argv).and_then(|mut args| {
        if let Some(name) = Path::new(&args.command).file_name() {
            args.command = name.to_string_lossy().into_owned();
        }
        let opts = RunOpts::from_args(&args, extra)?;
        Ok((args, opts))
    });
    let (args, opts) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let (result, written) = fcn_cli::with_metrics_out(opts.metrics_out.as_deref(), || {
        body(&args, &opts, out).and_then(|()| out.flush().map_err(Failure::Io))
    });
    let (code, message) = match result {
        Ok(()) => (0, None),
        Err(Failure::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe => (0, None),
        Err(Failure::Check(e)) => (1, Some(e)),
        Err(Failure::Usage(e)) => (2, Some(e.0)),
        Err(Failure::Io(e)) => (2, Some(e.to_string())),
    };
    for e in message.iter().chain(written.as_ref().err()) {
        eprintln!("error: {e}");
    }
    if written.is_ok() {
        code
    } else {
        2
    }
}

impl Scale {
    /// The value for this scale out of one per scale.
    pub fn pick<T>(self, quick: T, default: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }

    /// Machine-size targets for bandwidth sweeps. The span matters more
    /// than the count: `lg n` and `n^{1/4}` only separate over a wide range.
    pub fn sweep_targets(&self) -> Vec<usize> {
        let all = [64, 128, 256, 512, 1024, 2048, 4096, 8192];
        self.pick(vec![64, 256, 1024], all[..6].to_vec(), all.to_vec())
    }

    /// Guest sizes for the host-size tables' numeric columns.
    pub fn table_guest_sizes(&self) -> Vec<u64> {
        let all = [1 << 12, 1 << 16, 1 << 20, 1 << 24];
        all[..self.pick(2, 3, 4)].to_vec()
    }

    /// Independent trials for operational estimates.
    pub fn trials(&self) -> usize {
        self.pick(2, 3, 4)
    }

    /// Saturation multipliers.
    pub fn multipliers(&self) -> Vec<usize> {
        [2, 4, 8, 16][..self.pick(2, 3, 4)].to_vec()
    }
}

/// `target/` of the workspace; `CARGO_TARGET_DIR` respected when set.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Where JSON-lines records land.
pub fn repro_dir() -> PathBuf {
    target_dir().join("repro")
}

/// Validate the rows already at `path` (a missing file counts as empty),
/// merge `fresh` `(bench, line)` pairs over them, validate the merged body
/// too (so an emitter bug fails here, not at the next merge) and write it.
fn merge_bench_file(
    path: &Path,
    fresh: &[(String, String)],
    validate: impl Fn(&str) -> Result<Vec<(String, String)>, String>,
) -> Result<(), String> {
    let existing = match fs::read_to_string(path) {
        Ok(body) => validate(&body)
            .map_err(|e| format!("existing {} is not mergeable: {e}", path.display()))?,
        Err(_) => Vec::new(),
    };
    let body = merge_bench_rows(&existing, fresh);
    validate(&body).map_err(|e| format!("fresh rows for {} are invalid: {e}", path.display()))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A BENCH binary's last step: serialize `rows` (keyed by `bench`) and
/// merge them into the committed `<stem>.json` at the repo root, or for a
/// `--quick` smoke run into its shadow `<target>/<stem>.quick.json`, so a
/// smoke run never clobbers the committed numbers. Rows already in the file
/// must pass `validate` first: rows written under another schema would
/// silently mix incompatible measurements; the merged rows must pass it
/// too. Fresh rows replace same-`bench` rows in place
/// ([`merge_bench_rows`]). Any failure is an error (the binary exits 2)
/// and leaves the file untouched.
pub fn commit_bench_rows<R: Serialize>(
    out: &mut dyn Write,
    stem: &str,
    quick: bool,
    rows: &[R],
    bench: impl Fn(&R) -> &str,
    validate: impl Fn(&str) -> Result<Vec<(String, String)>, String>,
) -> Result<(), Failure> {
    let path = if quick {
        target_dir().join(format!("{stem}.quick.json"))
    } else {
        PathBuf::from(format!("{stem}.json"))
    };
    let fresh: Result<Vec<(String, String)>, String> = rows
        .iter()
        .map(|r| {
            let line = serde_json::to_string(r).map_err(|e| format!("row serializes: {e}"))?;
            Ok((bench(r).to_string(), line))
        })
        .collect();
    fresh
        .and_then(|fresh| merge_bench_file(&path, &fresh, validate))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(writeln!(
        out,
        "wrote {} rows to {}",
        rows.len(),
        path.display()
    )?)
}

/// Write serialized records to `target/repro/<name>.jsonl` (created fresh
/// on each run) and print where they went.
pub fn write_records<T: Serialize>(
    out: &mut dyn Write,
    name: &str,
    records: &[T],
) -> Result<(), Failure> {
    let path = repro_dir().join(format!("{name}.jsonl"));
    let mut body = String::new();
    for r in records {
        body += &serde_json::to_string(r).map_err(io::Error::other)?;
        body.push('\n');
    }
    fs::create_dir_all(repro_dir())
        .and_then(|()| fs::write(&path, body))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    Ok(writeln!(out, "\nrecords: {}", path.display())?)
}

/// Report helpers on any writer.
pub trait Report: Write {
    /// Print a section header.
    fn banner(&mut self, title: &str) -> io::Result<()> {
        writeln!(self, "\n=== {title} ===")
    }
}

impl<W: Write + ?Sized> Report for W {}

/// Format a floating value compactly for report tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters_per_scale() {
        use Scale::*;
        assert_eq!(Quick.sweep_targets(), [64, 256, 1024]);
        assert_eq!(Default.sweep_targets(), [64, 128, 256, 512, 1024, 2048]);
        assert_eq!(
            Full.sweep_targets(),
            [64, 128, 256, 512, 1024, 2048, 4096, 8192]
        );
        assert_eq!(Quick.table_guest_sizes(), [1 << 12, 1 << 16]);
        assert_eq!(Default.table_guest_sizes(), [1 << 12, 1 << 16, 1 << 20]);
        assert_eq!(
            Full.table_guest_sizes(),
            [1 << 12, 1 << 16, 1 << 20, 1 << 24]
        );
        assert_eq!([Quick.trials(), Default.trials(), Full.trials()], [2, 3, 4]);
        assert_eq!(Quick.multipliers(), [2, 4]);
        assert_eq!(Default.multipliers(), [2, 4, 8]);
        assert_eq!(Full.multipliers(), [2, 4, 8, 16]);
    }

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(Scale::Quick.sweep_targets().len() < Scale::Full.sweep_targets().len());
        assert!(Scale::Quick.trials() <= Scale::Full.trials());
    }

    /// Parse `line` as a repro binary's arguments.
    fn parse(line: &str, extra: &[&str]) -> Result<RunOpts, ParseError> {
        let argv: Vec<String> = std::iter::once("table1")
            .chain(line.split_whitespace())
            .map(String::from)
            .collect();
        RunOpts::from_args(&Args::parse(&argv)?, extra)
    }

    #[test]
    fn run_opts_parse() {
        let opts = |scale, jobs| RunOpts {
            scale,
            jobs,
            metrics_out: None,
        };
        assert_eq!(parse("--full --jobs 4", &[]), Ok(opts(Scale::Full, 4)));
        assert_eq!(parse("--jobs=0 --quick", &[]), Ok(opts(Scale::Quick, 0)));
        // No flag: the default scale on one worker per hardware thread.
        assert_eq!(parse("", &[]), Ok(opts(Scale::Default, 0)));
        let o = parse("--metrics-out=m.jsonl", &[]).unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("m.jsonl"));
        let o = parse("--metrics-out m2.jsonl --full", &[]).unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("m2.jsonl"));
        assert_eq!(o.scale, Scale::Full);
        // Every option survives the argument list `repro-all` forwards.
        for line in ["", "--quick --jobs 3", "--full --metrics-out=--m.jsonl"] {
            let o = parse(line, &[]).unwrap();
            assert_eq!(parse(&o.to_argv().join(" "), &[]), Ok(o), "{line:?}");
        }
    }

    #[test]
    fn run_opts_reject_what_they_do_not_name() {
        for (line, named) in [
            ("--quikc", "--quikc"),
            ("--jobs x", "--jobs"),
            ("--jobs 65", "--jobs must be at most 64, not 65"),
            ("stray", "stray"),
            ("--quick --full", "--full"),
            ("--quick yes", "--quick"),
            ("-- stray", "stray"),
            ("--timeout 5", "--timeout"),
        ] {
            let err = parse(line, &[]).unwrap_err();
            assert!(err.0.contains(named), "{line:?}: {err}");
        }
        assert!(parse("--timeout 5 --resume", &["timeout", "resume"]).is_ok());
    }

    /// A writer whose every write fails with `kind`.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn run_line(line: &str, out: &mut dyn Write, result: Result<(), Failure>) -> u8 {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&argv, &[], out, |_, _, out| {
            writeln!(out, "report")?;
            result
        })
    }

    #[test]
    fn runner_maps_failures_to_exit_codes() {
        let mut buf = Vec::new();
        assert_eq!(run_line("bin/table1", &mut buf, Ok(())), 0);
        assert_eq!(buf, b"report\n");
        let check = || Err(Failure::Check("below the floor".into()));
        assert_eq!(run_line("table1", &mut Vec::new(), check()), 1);
        // A closed pipe ends the run quietly; any other write error is an
        // I/O failure.
        let mut closed = Failing(io::ErrorKind::BrokenPipe);
        assert_eq!(run_line("table1", &mut closed, Ok(())), 0);
        let mut full = Failing(io::ErrorKind::StorageFull);
        assert_eq!(run_line("table1", &mut full, Ok(())), 2);
        // A bad argument exits 2 before the body runs.
        let mut buf = Vec::new();
        assert_eq!(run_line("table1 --quikc", &mut buf, Ok(())), 2);
        assert!(buf.is_empty(), "the body ran");
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(2.46813), "2.468");
        assert!(fmt(123456.0).contains('e'));
        assert!(fmt(0.0001).contains('e'));
    }

    #[test]
    fn merge_bench_file_refuses_a_mismatched_schema() {
        let dir = repro_dir().join("merge_bench_file_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let stale = "{\"schema\":\"fcn-faults-curve/0\",\"bench\":\"a\"}\n";
        fs::write(&path, stale).unwrap();
        let fresh = [("a".to_string(), "{}".to_string())];
        let faults = |b: &str| validate_rows(b, FAULTS_SCHEMA);
        let err = merge_bench_file(&path, &fresh, faults).unwrap_err();
        assert!(err.contains("not mergeable"), "{err}");
        assert!(err.contains("fcn-faults-curve/0"), "{err}");
        assert_eq!(fs::read_to_string(&path).unwrap(), stale, "file untouched");
        // A missing file merges as empty; fresh rows must validate too.
        fs::remove_file(&path).unwrap();
        let err = merge_bench_file(&path, &fresh, faults).unwrap_err();
        assert!(err.contains("fresh rows"), "{err}");
        assert!(!path.exists(), "nothing written");
        let line = format!("{{\"schema\":\"{FAULTS_SCHEMA}\",\"bench\":\"a\"}}");
        let fresh = [("a".to_string(), line.clone())];
        merge_bench_file(&path, &fresh, faults).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), format!("{line}\n"));
    }

    #[test]
    fn write_records_roundtrip() {
        #[derive(serde::Serialize)]
        struct R {
            x: u32,
        }
        let mut out = Vec::new();
        write_records(&mut out, "test_records", &[R { x: 1 }, R { x: 2 }]).unwrap();
        let path = repro_dir().join("test_records.jsonl");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("\nrecords: {}\n", path.display())
        );
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.contains("{\"x\":1}"));
    }
}
