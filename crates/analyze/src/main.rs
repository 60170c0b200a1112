//! `fcn-analyze` — run the workspace invariant checker.
//!
//! ```text
//! fcn-analyze [--rule ID]... [--format text|json] [--baseline PATH]
//!             [--no-baseline] [--write-baseline] [--root DIR] [--list]
//!             [paths…]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 I/O or usage error (matching the
//! workspace's `CmdError::Run`/`CmdError::Io` convention).

use std::path::PathBuf;
use std::process::ExitCode;

use fcn_analyze::{analyze_workspace, report, rules, walk};

struct Opts {
    rules: Vec<String>,
    format: String,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    write_baseline: bool,
    root: Option<PathBuf>,
    list: bool,
    paths: Vec<String>,
}

fn usage() -> &'static str {
    "usage: fcn-analyze [--rule ID]... [--format text|json] [--baseline PATH]\n\
     \x20                  [--no-baseline] [--write-baseline] [--root DIR]\n\
     \x20                  [--list] [paths...]\n\
     \n\
     Checks the workspace against the determinism/error-typing/schema rules\n\
     that the compiler and clippy cannot hold (see --list).\n\
     Suppress one finding with `// fcn-allow: RULE-ID reason` on or above the\n\
     offending line.\n\
     Exit codes: 0 clean, 1 findings, 2 I/O or usage error."
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        rules: Vec::new(),
        format: "text".to_string(),
        baseline: None,
        no_baseline: false,
        write_baseline: false,
        root: None,
        list: false,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rule" => {
                let id = it.next().ok_or("--rule needs a rule id")?.clone();
                if !rules::known_rule(&id) {
                    return Err(format!(
                        "unknown rule `{id}` (try --list for the rule table)"
                    ));
                }
                o.rules.push(id);
            }
            "--format" => {
                let f = it.next().ok_or("--format needs text|json")?.clone();
                if f != "text" && f != "json" {
                    return Err(format!("unknown format `{f}` (want text|json)"));
                }
                o.format = f;
            }
            "--baseline" => {
                o.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
            }
            "--no-baseline" => o.no_baseline = true,
            "--write-baseline" => o.write_baseline = true,
            "--root" => {
                o.root = Some(PathBuf::from(it.next().ok_or("--root needs a dir")?));
            }
            "--list" => o.list = true,
            "--help" | "-h" => return Err("help".to_string()),
            p if p.starts_with('-') => return Err(format!("unknown flag `{p}`")),
            p => o.paths.push(p.to_string()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) if e == "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("fcn-analyze: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list {
        // Sorted by id: the table is pinned by a CLI test, and sorted output
        // stays stable as rules are appended to the declaration table.
        let mut table: Vec<(&str, &str)> = rules::RULES.to_vec();
        table.sort_by_key(|(id, _)| *id);
        for (id, why) in table {
            println!("{id:<20} {why}");
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| walk::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("fcn-analyze: could not find a workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };

    // Baseline: explicit path, else `<root>/fcn-analyze.baseline` if present.
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("fcn-analyze.baseline"));
    let baseline: Vec<String> = if opts.no_baseline {
        Vec::new()
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => report::parse_baseline(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                eprintln!("fcn-analyze: reading {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        }
    };

    let analysis = match analyze_workspace(&root, &opts.paths, &opts.rules, &baseline) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fcn-analyze: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if opts.write_baseline {
        let body = report::render_baseline(&analysis.findings);
        if let Err(e) = std::fs::write(&baseline_path, body) {
            eprintln!("fcn-analyze: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "fcn-analyze: wrote {} ({} entries)",
            baseline_path.display(),
            analysis.totals.findings
        );
        return ExitCode::SUCCESS;
    }

    match opts.format.as_str() {
        "json" => {
            let text = report::render_json(&analysis.findings, analysis.totals);
            // The emitter validates its own output before printing — the
            // same discipline the BENCH writers follow.
            if let Err(e) = report::validate_report(&text) {
                eprintln!("fcn-analyze: internal error: emitted invalid report: {e}");
                return ExitCode::from(2);
            }
            print!("{text}");
        }
        _ => {
            for f in &analysis.findings {
                println!("{}", f.render());
            }
            eprintln!(
                "fcn-analyze: {} finding(s), {} suppressed, {} baselined, {} files",
                analysis.totals.findings,
                analysis.totals.suppressed,
                analysis.totals.baselined,
                analysis.totals.files
            );
        }
    }

    if analysis.totals.findings > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
