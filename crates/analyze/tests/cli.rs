//! End-to-end CLI contract tests for the `fcn-analyze` binary.
//!
//! Everything here runs the real binary (`CARGO_BIN_EXE_fcn-analyze`)
//! against throwaway scratch workspaces, pinning the parts of the tool
//! that CI and editor integrations script against: the 0/1/2 exit-code
//! contract, `--rule` filtering, the sorted `--list` table, and a failing
//! fixture for every rule.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_fcn-analyze")
}

/// A throwaway workspace under the OS temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root =
            std::env::temp_dir().join(format!("fcn-analyze-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch root");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        Scratch { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let p = self.root.join(rel);
        std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdirs");
        std::fs::write(p, text).expect("write scratch file");
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(bin())
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("spawn fcn-analyze")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

// ----------------------------------------------------------- exit contract

#[test]
fn clean_tree_exits_zero() {
    let s = Scratch::new("clean");
    s.write(
        "crates/routing/src/ok.rs",
        "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n",
    );
    let out = s.run(&[]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout(&out), "", "clean run prints no findings");
}

#[test]
fn findings_exit_one() {
    let s = Scratch::new("findings");
    s.write(
        "crates/routing/src/bad.rs",
        "pub fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n",
    );
    let out = s.run(&[]);
    assert_eq!(code(&out), 1);
    assert!(stdout(&out).contains("[ATOMIC-DOC]"));
    assert!(stdout(&out).contains("crates/routing/src/bad.rs:1"));
}

#[test]
fn usage_errors_exit_two() {
    let s = Scratch::new("usage");
    assert_eq!(code(&s.run(&["--definitely-not-a-flag"])), 2);
    assert_eq!(code(&s.run(&["--rule", "NO-SUCH-RULE"])), 2);
    // The binary takes only --rule, --root, --list and paths.
    for args in [
        &["--format", "json"][..],
        &["--baseline", "b"],
        &["--no-baseline"],
        &["--write-baseline"],
    ] {
        assert_eq!(code(&s.run(args)), 2, "{args:?} must be refused");
    }
}

// ----------------------------------------------------------- rule filtering

#[test]
fn rule_filter_limits_findings_and_exit() {
    let s = Scratch::new("filter");
    s.write(
        "crates/routing/src/bad.rs",
        "pub fn g(t: &Telemetry) { t.inc(\"router.batches\", 1); }\npub fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n",
    );
    let all = s.run(&[]);
    assert_eq!(code(&all), 1);
    assert!(stdout(&all).contains("[TEL-NAME]"));
    assert!(stdout(&all).contains("[ATOMIC-DOC]"));

    let only_tel = s.run(&["--rule", "TEL-NAME"]);
    assert_eq!(code(&only_tel), 1);
    assert!(stdout(&only_tel).contains("[TEL-NAME]"));
    assert!(!stdout(&only_tel).contains("[ATOMIC-DOC]"));

    // Filtering to a rule this tree never violates is a clean run.
    let only_deadline = s.run(&["--rule", "SERVE-DEADLINE"]);
    assert_eq!(code(&only_deadline), 0);
    assert_eq!(stdout(&only_deadline), "");
}

// ----------------------------------------------------------------- --list

#[test]
fn list_is_sorted_and_pins_the_rule_table() {
    let out = Command::new(bin()).arg("--list").output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf8");
    let ids: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().next().expect("rule id column"))
        .collect();
    let expected = vec![
        "ATOMIC-DOC",
        "BLOCKING-IN-HANDLER",
        "SCHEMA-DRIFT",
        "SCHEMA-TAG",
        "SERVE-DEADLINE",
        "TEL-DEAD",
        "TEL-NAME",
    ];
    assert_eq!(ids, expected, "--list must stay sorted and complete");
    for line in text.lines() {
        assert!(
            line.split_whitespace().count() > 1,
            "every rule carries a one-line summary: {line:?}"
        );
    }
}

// ------------------------------------------------------------ every rule

/// One seeded violation per rule: the files of a scratch tree on which
/// `--rule ID` must exit 1 and print `[ID]`.
const SEEDED: &[(&str, &[(&str, &str)])] = &[
    (
        "ATOMIC-DOC",
        &[(
            "crates/core/src/bad.rs",
            "pub fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n",
        )],
    ),
    (
        "BLOCKING-IN-HANDLER",
        &[(
            "crates/serve/src/server.rs",
            "fn handle_frame(p: &str) { let t = fs::read_to_string(p); }\n",
        )],
    ),
    (
        "SCHEMA-DRIFT",
        &[
            (
                "crates/x/src/lib.rs",
                "pub const S: &str = \"fcn-demo/2\";\nfn validate_s() {}\n",
            ),
            (
                "crates/y/src/lib.rs",
                "fn emit() { let t = \"fcn-demo/1\"; }\nfn from_t() {}\n",
            ),
        ],
    ),
    (
        "SCHEMA-TAG",
        &[(
            "crates/core/src/bad.rs",
            "pub fn emit(v: &u32) -> String { serde_json::to_string(v).unwrap_or_default() }\n",
        )],
    ),
    (
        "SERVE-DEADLINE",
        &[(
            "crates/serve/src/bad.rs",
            "pub fn f(s: &mut TcpStream, buf: &mut [u8]) { s.read(buf).ok(); }\n",
        )],
    ),
    (
        "TEL-DEAD",
        &[(
            "crates/telemetry/src/names.rs",
            "pub const DEAD: &str = \"dead_total\";\n",
        )],
    ),
    (
        "TEL-NAME",
        &[(
            "crates/core/src/bad.rs",
            "pub fn f(t: &Telemetry) { t.inc(\"router.batches\", 1); }\n",
        )],
    ),
];

#[test]
fn every_rule_fails_on_its_seeded_fixture() {
    let mut seeded: Vec<&str> = SEEDED.iter().map(|(id, _)| *id).collect();
    let mut declared: Vec<&str> = fcn_analyze::rules::RULES
        .iter()
        .map(|(id, _)| *id)
        .collect();
    seeded.sort();
    declared.sort();
    assert_eq!(
        seeded, declared,
        "every rule needs exactly one seeded fixture"
    );

    for (id, files) in SEEDED {
        let s = Scratch::new(&id.to_lowercase());
        for (path, text) in *files {
            s.write(path, text);
        }
        let out = s.run(&["--rule", id]);
        assert_eq!(code(&out), 1, "{id}: stdout {}", stdout(&out));
        assert!(stdout(&out).contains(&format!("[{id}]")), "{id}");
    }
}
