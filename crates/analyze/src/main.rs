//! `fcn-analyze` — run the workspace invariant checker.
//!
//! ```text
//! fcn-analyze [--rule ID]... [--root DIR] [--list] [paths…]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 I/O or usage error (matching the
//! workspace's `CmdError::Run`/`CmdError::Io` convention).

use std::path::PathBuf;
use std::process::ExitCode;

use fcn_analyze::{analyze_workspace, rules, walk};

struct Opts {
    rules: Vec<String>,
    root: Option<PathBuf>,
    list: bool,
    paths: Vec<String>,
}

fn usage() -> &'static str {
    "usage: fcn-analyze [--rule ID]... [--root DIR] [--list] [paths...]\n\
     \n\
     Checks the workspace against the schema, telemetry, atomics, lock-order\n\
     and service-I/O rules that the compiler and clippy cannot hold (see --list).\n\
     Suppress one finding with `// fcn-allow: RULE-ID reason` on or above the\n\
     offending line.\n\
     Exit codes: 0 clean, 1 findings, 2 I/O or usage error."
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        rules: Vec::new(),
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

    let analysis = match analyze_workspace(&root, &opts.paths, &opts.rules) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fcn-analyze: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for f in &analysis.findings {
        println!("{}", f.render());
    }
    eprintln!(
        "fcn-analyze: {} finding(s), {} suppressed, {} files",
        analysis.totals.findings, analysis.totals.suppressed, analysis.totals.files
    );

    if analysis.totals.findings > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
