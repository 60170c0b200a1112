//! `fcn-benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! fcn-benchmark run [--seed S] [--seconds T] [--quick] [--out FILE] [--update-reference]
//! fcn-benchmark compare <set-A.jsonl> <set-B.jsonl>
//! fcn-benchmark --workload W --seed S --seconds T --trace 0|1 [--quick]
//! ```
//!
//! `run` starts one child process per (workload, trace mode), prints every
//! metric with its unit, appends the `fcn-benchmark/1` records to a result
//! set, and exits 1 if any output check failed. The last form is one
//! child: it runs one workload and prints its result object as the last
//! line of stdout. See README.md in this directory.

mod compare;
mod layers;
mod reference;
mod results;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, Stdio};

use results::{parse_result_line, Record};
use workloads::{Opts, NAMES};

const USAGE: &str = "usage:
  fcn-benchmark run [--seed S] [--seconds T] [--quick] [--out FILE] [--update-reference]
  fcn-benchmark compare <set-A.jsonl> <set-B.jsonl>
  fcn-benchmark --workload W --seed S --seconds T --trace 0|1 [--quick]";

/// Where spans, result sets and observation files go: `$CARGO_TARGET_DIR`
/// when set, else `target/`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// `--name value` flags plus bare switches.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {name}: {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_all(&Flags(args[1..].to_vec())),
        Some("compare") if args.len() == 3 => match compare::compare(&args[1], &args[2]) {
            Ok(true) => Ok(0),
            Ok(false) => Ok(1),
            Err(e) => Err(e),
        },
        Some(_) if args.iter().any(|a| a == "--workload") => run_one(&Flags(args)),
        _ => Err(USAGE.to_string()),
    };
    match code {
        Ok(c) => std::process::exit(c),
        Err(e) => {
            eprintln!("fcn-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// One workload run: print the result object last; exit 1 on a failed check.
fn run_one(f: &Flags) -> Result<i32, String> {
    let trace = match f.value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace expects 0 or 1, got {v:?}")),
    };
    let opts = Opts {
        workload: f.value("--workload").unwrap_or_default().to_string(),
        seed: f.parsed("--seed", 1u64)?,
        seconds: f.parsed("--seconds", results::spec().run_seconds as f64)?,
        trace,
        quick: f.has("--quick"),
        observed_out: f.value("--observed-out").map(PathBuf::from),
    };
    eprintln!(
        "fcn-benchmark: {} seed {} for {} s ({}), {} cores",
        opts.workload,
        opts.seed,
        opts.seconds,
        if trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match workloads::run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.to_line());
            Ok(if outcome.correct { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("fcn-benchmark: {} failed: {e}", opts.workload);
            Ok(1)
        }
    }
}

/// Every workload, untraced then traced, each in its own child process.
fn run_all(f: &Flags) -> Result<i32, String> {
    let seed: u64 = f.parsed("--seed", 1)?;
    let quick = f.has("--quick");
    let seconds: f64 = f.parsed(
        "--seconds",
        if quick {
            0.5
        } else {
            results::spec().run_seconds as f64
        },
    )?;
    let update = f.has("--update-reference");
    if update && (seed != reference::REFERENCE_SEED || quick) {
        return Err(format!(
            "--update-reference records seed {} at full size",
            reference::REFERENCE_SEED
        ));
    }
    let dir = target_dir().join("fcn-benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = f
        .value("--out")
        .map_or_else(|| dir.join("results.jsonl"), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut lines = String::new();
    let mut observed = reference::Observed::default();
    for w in NAMES {
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if quick {
                cmd.arg("--quick");
            }
            let observed_path = dir.join(format!("observed-{w}.json"));
            if update && !trace {
                cmd.arg("--observed-out").arg(&observed_path);
            }
            let child = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let outcome = stdout.lines().last().map(parse_result_line);
            let Some(Ok(outcome)) = outcome else {
                println!(
                    "{w} (trace {}): no result ({})",
                    u8::from(trace),
                    child.status
                );
                all_ok = false;
                continue;
            };
            all_ok &= child.status.success() && outcome.correct;
            print_outcome(w, trace, &outcome);
            let record = Record {
                workload: w.to_string(),
                seed,
                trace,
                outcome,
            };
            lines.push_str(&record.to_line());
            lines.push('\n');
            if update && !trace {
                let text = std::fs::read_to_string(&observed_path).map_err(|e| e.to_string())?;
                observed.merge(reference::Observed::parse(&text)?);
            }
        }
    }
    append(&out, &lines)?;
    println!("\nrecords appended to {}", out.display());
    if update {
        std::fs::write(reference::PATH, observed.to_json())
            .map_err(|e| format!("{}: {e}", reference::PATH))?;
        println!("reference written to {}", reference::PATH);
    }
    Ok(if all_ok { 0 } else { 1 })
}

fn append(path: &PathBuf, lines: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    file.write_all(lines.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn print_outcome(workload: &str, trace: bool, o: &results::Outcome) {
    println!(
        "\n== {workload} ({}) correct={} attempted={} failed={}",
        if trace {
            "traced, per layer"
        } else {
            "end to end"
        },
        o.correct,
        o.attempted,
        o.failed
    );
    for (name, value, unit) in &o.metrics {
        println!("  {name:<32} {value:>14.6} {unit}");
    }
}
