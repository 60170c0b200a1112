#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fcn-bench
//!
//! Shared infrastructure for the table/figure regeneration binaries and the
//! BENCH trajectory binaries (`faults`, `fcn-serve-load`).
//!
//! Each regeneration binary (`table1`..`table4`, `fig1`, `fig2`,
//! `ablation_*`, `repro-all`) prints a human-readable report to stdout and
//! appends machine-readable JSON-lines records under `target/repro/`, so
//! EXPERIMENTS.md's paper-vs-measured claims stay checkable.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

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

/// Parsed command-line options shared by all regeneration binaries:
/// `[--quick|--full] [--jobs N] [--metrics-out PATH]`.
///
/// `jobs` is the worker-thread count for the measurement grids; `1` is
/// sequential, `0` means one worker per hardware thread. Every grid cell
/// derives its seeds from its index ([`fcn_exec::job_seed`]), so the output
/// is bit-identical for every `jobs` value — the flag only changes the wall
/// clock. `metrics_out` enables the global [`fcn_telemetry`] registry for
/// the run and writes a JSONL snapshot on exit (see [`telemetry`]); it
/// never changes a record either.
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
    /// Parse from `std::env::args()`. Accepts `--jobs N` / `--jobs=N` and
    /// `--metrics-out PATH` / `--metrics-out=PATH`.
    pub fn from_args() -> RunOpts {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit argument stream (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> RunOpts {
        let mut opts = RunOpts {
            scale: Scale::Default,
            jobs: 1,
            metrics_out: None,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => opts.scale = Scale::Quick,
                "--full" => opts.scale = Scale::Full,
                "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(jobs) => opts.jobs = jobs,
                    None => eprintln!("--jobs expects a number; keeping jobs={}", opts.jobs),
                },
                "--metrics-out" => match it.next() {
                    Some(path) => opts.metrics_out = Some(path),
                    None => eprintln!("--metrics-out expects a path; telemetry stays off"),
                },
                other => {
                    if let Some(v) = other.strip_prefix("--jobs=") {
                        match v.parse() {
                            Ok(jobs) => opts.jobs = jobs,
                            Err(_) => {
                                eprintln!("--jobs expects a number; keeping jobs={}", opts.jobs)
                            }
                        }
                    } else if let Some(v) = other.strip_prefix("--metrics-out=") {
                        opts.metrics_out = Some(v.to_string());
                    } else {
                        eprintln!("ignoring unknown argument {other:?}");
                    }
                }
            }
        }
        opts
    }
}

/// Scope guard for a bench binary's `--metrics-out` run: enables the global
/// registry at creation and writes the delta snapshot when dropped.
#[derive(Debug)]
pub struct TelemetryGuard {
    path: String,
    baseline: fcn_telemetry::MetricsSnapshot,
}

/// Start telemetry for this run if `--metrics-out` was given. Bind the
/// result for the whole `main` body:
///
/// ```ignore
/// let opts = RunOpts::from_args();
/// let _tele = fcn_bench::telemetry(&opts);
/// ```
pub fn telemetry(opts: &RunOpts) -> Option<TelemetryGuard> {
    let path = opts.metrics_out.clone()?;
    let reg = fcn_telemetry::global();
    let baseline = reg.snapshot();
    reg.set_enabled(true);
    Some(TelemetryGuard { path, baseline })
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        let reg = fcn_telemetry::global();
        fcn_telemetry::flush_thread_shard(reg);
        reg.set_enabled(false);
        let delta = reg.snapshot().delta_since(&self.baseline);
        match fs::write(&self.path, delta.to_jsonl()) {
            Ok(()) => eprintln!("metrics snapshot written to {}", self.path),
            Err(e) => eprintln!("cannot write metrics to {:?}: {e}", self.path),
        }
    }
}

impl Scale {
    /// Parse from `std::env::args()` (understands and ignores `--jobs`, so
    /// `repro-all` can forward one argument list to every binary).
    pub fn from_args() -> Scale {
        RunOpts::from_args().scale
    }

    /// Machine-size targets for bandwidth sweeps. The span matters more
    /// than the count: `lg n` and `n^{1/4}` only separate over a wide range.
    pub fn sweep_targets(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 256, 1024],
            Scale::Default => vec![64, 128, 256, 512, 1024, 2048],
            Scale::Full => vec![64, 128, 256, 512, 1024, 2048, 4096, 8192],
        }
    }

    /// Guest sizes for the host-size tables' numeric columns.
    pub fn table_guest_sizes(&self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![1 << 12, 1 << 16],
            Scale::Default => vec![1 << 12, 1 << 16, 1 << 20],
            Scale::Full => vec![1 << 12, 1 << 16, 1 << 20, 1 << 24],
        }
    }

    /// Independent trials for operational estimates.
    pub fn trials(&self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Default => 3,
            Scale::Full => 4,
        }
    }

    /// Saturation multipliers.
    pub fn multipliers(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![2, 4],
            Scale::Default => vec![2, 4, 8],
            Scale::Full => vec![2, 4, 8, 16],
        }
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
/// ([`merge_bench_rows`]). Any failure prints the error and exits 2,
/// leaving the file untouched.
pub fn commit_bench_rows<R: Serialize>(
    stem: &str,
    quick: bool,
    rows: &[R],
    bench: impl Fn(&R) -> &str,
    validate: impl Fn(&str) -> Result<Vec<(String, String)>, String>,
) {
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
    if let Err(e) = fresh.and_then(|fresh| merge_bench_file(&path, &fresh, validate)) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    println!("wrote {} rows to {}", rows.len(), path.display());
}

/// Append serialized records to `target/repro/<name>.jsonl` (created fresh
/// on each run).
pub fn write_records<T: Serialize>(name: &str, records: &[T]) -> std::io::Result<PathBuf> {
    let dir = repro_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let mut f = fs::File::create(&path)?;
    for r in records {
        let line = serde_json::to_string(r)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        writeln!(f, "{line}")?;
    }
    Ok(path)
}

/// Print a section header.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

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
    fn scale_parameters_are_ordered() {
        assert!(Scale::Quick.sweep_targets().len() < Scale::Full.sweep_targets().len());
        assert!(Scale::Quick.trials() <= Scale::Full.trials());
    }

    #[test]
    fn run_opts_parse() {
        let o = RunOpts::parse_from(["--full", "--jobs", "4"].into_iter().map(String::from));
        assert_eq!(
            o,
            RunOpts {
                scale: Scale::Full,
                jobs: 4,
                metrics_out: None,
            }
        );
        let o = RunOpts::parse_from(["--jobs=0", "--quick"].into_iter().map(String::from));
        assert_eq!(
            o,
            RunOpts {
                scale: Scale::Quick,
                jobs: 0,
                metrics_out: None,
            }
        );
        let o = RunOpts::parse_from(std::iter::empty());
        assert_eq!(
            o,
            RunOpts {
                scale: Scale::Default,
                jobs: 1,
                metrics_out: None,
            }
        );
        let o = RunOpts::parse_from(["--metrics-out=m.jsonl"].into_iter().map(String::from));
        assert_eq!(o.metrics_out.as_deref(), Some("m.jsonl"));
        let o = RunOpts::parse_from(
            ["--metrics-out", "m2.jsonl", "--full"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(o.metrics_out.as_deref(), Some("m2.jsonl"));
        assert_eq!(o.scale, Scale::Full);
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
        let p = write_records("test_records", &[R { x: 1 }, R { x: 2 }]).unwrap();
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.contains("{\"x\":1}"));
    }
}
