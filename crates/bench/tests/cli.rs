//! The command-line contract every fcn-bench binary keeps, checked on the
//! real processes: a bad argument exits 2 naming it before anything is
//! measured, a failed `--metrics-out` write exits 2, and a closed stdout
//! ends the run quietly instead of panicking.

use std::ops::Deref;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Every binary of the crate, by its `CARGO_BIN_EXE_*` path.
const BINS: [(&str, &str); 14] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("table4", env!("CARGO_BIN_EXE_table4")),
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    (
        "ablation_bottleneck",
        env!("CARGO_BIN_EXE_ablation_bottleneck"),
    ),
    (
        "ablation_redundancy",
        env!("CARGO_BIN_EXE_ablation_redundancy"),
    ),
    ("ablation_routing", env!("CARGO_BIN_EXE_ablation_routing")),
    ("ablation_steady", env!("CARGO_BIN_EXE_ablation_steady")),
    ("patterns", env!("CARGO_BIN_EXE_patterns")),
    ("faults", env!("CARGO_BIN_EXE_faults")),
    ("fcn-serve-load", env!("CARGO_BIN_EXE_fcn-serve-load")),
    ("repro-all", env!("CARGO_BIN_EXE_repro-all")),
];

fn exe(name: &str) -> &'static str {
    BINS.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, path)| *path)
        .unwrap_or_else(|| panic!("no binary {name}"))
}

/// A test's own target directory, removed when the test ends.
struct Scratch(PathBuf);

impl Deref for Scratch {
    type Target = PathBuf;

    fn deref(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh target directory of the test's own, so records and manifests
/// never land in the workspace's `target/`.
fn scratch(test: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("fcn-bench-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

/// Run `name` with `target` as its target directory and working directory.
fn run(name: &str, args: &[&str], target: &PathBuf) -> Output {
    Command::new(exe(name))
        .args(args)
        .env("CARGO_TARGET_DIR", target)
        .current_dir(target)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

/// Exit 2, nothing on stdout, and a message on stderr naming `named`.
fn assert_refused(name: &str, args: &[&str], named: &str, target: &PathBuf) {
    let out = run(name, args, target);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} ran: {out:?}");
    assert!(stderr.contains(named), "{name} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
}

#[test]
fn an_unknown_flag_exits_two_for_every_binary() {
    let target = scratch("unknown-flag");
    for (name, _) in BINS {
        assert_refused(name, &["--quick", "--quikc"], "--quikc", &target);
    }
    assert!(
        !target.join("repro").exists(),
        "a refused run wrote records"
    );
}

#[test]
fn bad_arguments_exit_two_naming_the_argument() {
    let target = scratch("bad-arguments");
    assert_refused("table1", &["--jobs", "x"], "--jobs", &target);
    assert_refused("fig2", &["stray"], "stray", &target);
    assert_refused("faults", &["--quick", "--full"], "--full", &target);
    assert_refused("fcn-serve-load", &["--bogus"], "--bogus", &target);
    assert_refused(
        "repro-all",
        &["--quick", "--timeout", "x"],
        "--timeout",
        &target,
    );
}

#[test]
fn a_value_flag_without_its_value_exits_two_naming_it() {
    let target = scratch("bare-value-flag");
    for (name, _) in BINS {
        assert_refused(
            name,
            &["--quick", "--metrics-out"],
            "--metrics-out",
            &target,
        );
    }
    assert_refused("table1", &["--jobs", "--quick"], "--jobs", &target);
    assert_refused("repro-all", &["--timeout"], "--timeout", &target);
    assert!(
        !target.join("true").exists(),
        "a bare --metrics-out wrote a file named `true`"
    );
}

#[test]
fn repro_all_refuses_a_typo_before_starting_a_child() {
    let target = scratch("repro-all");
    let manifest = target.join("repro").join("manifest.json");
    std::fs::create_dir_all(manifest.parent().unwrap()).unwrap();
    let sentinel = "{\"schema\":\"sentinel\"}";
    std::fs::write(&manifest, sentinel).unwrap();
    assert_refused("repro-all", &["--quick", "--quikc"], "--quikc", &target);
    assert_eq!(
        std::fs::read_to_string(&manifest).unwrap(),
        sentinel,
        "the manifest was rewritten"
    );
    let entries = std::fs::read_dir(manifest.parent().unwrap())
        .unwrap()
        .count();
    assert_eq!(entries, 1, "a child wrote records");
}

#[test]
fn metrics_out_write_failure_exits_two() {
    let target = scratch("metrics-out");
    let out = run(
        "table1",
        &["--quick", "--metrics-out", "/no/such/dir/metrics.jsonl"],
        &target,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot write metrics"), "{stderr}");
    // The report and the records were written before the snapshot.
    assert!(!out.stdout.is_empty());
    assert!(target.join("repro").join("table1.jsonl").exists());
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let target = scratch("closed-stdout");
    for name in ["table1", "table4"] {
        let mut child = Command::new(exe(name))
            .arg("--quick")
            .env("CARGO_TARGET_DIR", target.as_path())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Close the read end before the first report line is written.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        assert!(stderr.is_empty(), "{name}: {stderr}");
    }
}
