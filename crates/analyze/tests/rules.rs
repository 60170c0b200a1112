//! Per-rule fixture tests for fcn-analyze.
//!
//! Every rule gets three fixtures — firing, clean, and suppressed — driven
//! through [`fcn_analyze::analyze_sources`], the same entry point the CLI
//! walker funnels into, so what these tests prove is exactly what
//! `fcn-analyze` enforces on the real tree. The self-hosting tests run the
//! analyzer over the committed workspace and assert zero findings (the
//! tree must stay clean under its own checker), and check that the lib
//! roots and `clippy.toml` still hold what the analyzer leaves to clippy.

use fcn_analyze::{analyze_sources, Analysis};

/// Run the analyzer over in-memory fixtures with no rule filter.
fn run(sources: &[(&str, &str)]) -> Analysis {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
        .collect();
    analyze_sources(&owned, &[])
}

/// Rule ids of all findings, in report order.
fn rule_ids(a: &Analysis) -> Vec<&'static str> {
    a.findings.iter().map(|f| f.rule).collect()
}

/// Assert the analysis holds exactly one finding, for `rule`, on `line`.
fn assert_single(a: &Analysis, rule: &str, line: usize) {
    assert_eq!(
        a.findings.len(),
        1,
        "expected exactly one {rule} finding, got: {:?}",
        a.findings
    );
    assert_eq!(a.findings[0].rule, rule);
    assert_eq!(a.findings[0].line, line, "finding: {:?}", a.findings[0]);
}

/// Assert a fixture produced no findings at all.
fn assert_clean(a: &Analysis) {
    assert!(
        a.findings.is_empty(),
        "expected a clean run, got: {:?}",
        a.findings
    );
}

/// Assert the fixture's only finding was masked by an `fcn-allow`.
fn assert_suppressed(a: &Analysis) {
    assert!(
        a.findings.is_empty(),
        "suppression failed to mask: {:?}",
        a.findings
    );
    assert_eq!(a.totals.suppressed, 1, "totals: {:?}", a.totals);
}

// -------------------------------------------------------------- SCHEMA-TAG

#[test]
fn schema_tag_fires_for_untagged_emitter() {
    let a = run(&[(
        "crates/core/src/fx.rs",
        "pub fn emit(v: &u32) -> String { serde_json::to_string(v).unwrap_or_default() }\n",
    )]);
    assert_single(&a, "SCHEMA-TAG", 1);
}

#[test]
fn schema_tag_clean_when_tag_and_validator_present() {
    let a = run(&[(
        "crates/core/src/fx.rs",
        r#"pub const FX_SCHEMA: &str = "fcn-fixture/1";

pub fn emit(v: &u32) -> String { serde_json::to_string(v).unwrap_or_default() }

pub fn from_json(s: &str) -> bool { s.contains(FX_SCHEMA) }
"#,
    )]);
    assert_clean(&a);
}

#[test]
fn schema_tag_workspace_half_fires_on_duplicates_and_missing_validators() {
    // The same tag as a literal in two files: the non-canonical copy drifts.
    let dup = run(&[
        (
            "crates/core/src/a.rs",
            "pub fn from_json(s: &str) -> bool { s.contains(\"fcn-dup/1\") }\n",
        ),
        (
            "crates/core/src/b.rs",
            "pub fn from_json(s: &str) -> bool { s.contains(\"fcn-dup/1\") }\n",
        ),
    ]);
    assert_eq!(
        rule_ids(&dup),
        vec!["SCHEMA-TAG"],
        "findings: {:?}",
        dup.findings
    );
    assert_eq!(dup.findings[0].path, "crates/core/src/b.rs");
    // A tag defined with no from_*/validate/parse fn in its file.
    let lonely = run(&[(
        "crates/core/src/fx.rs",
        "pub const FX_SCHEMA: &str = \"fcn-lonely/1\";\n",
    )]);
    assert_eq!(rule_ids(&lonely), vec!["SCHEMA-TAG"]);
    assert!(lonely.findings[0].message.contains("no matching validator"));
}

#[test]
fn schema_tag_suppressed_with_reason() {
    let a = run(&[(
        "crates/core/src/fx.rs",
        "pub fn emit(v: &u32) -> String { serde_json::to_string(v).unwrap_or_default() } // fcn-allow: SCHEMA-TAG scratch debug dump, never persisted\n",
    )]);
    assert_suppressed(&a);
}

// ---------------------------------------------------------------- TEL-NAME

#[test]
fn tel_name_fires_for_string_literal_metric_names() {
    let a = run(&[(
        "crates/routing/src/fx.rs",
        "pub fn f(t: &Telemetry) { t.inc(\"router.batches\", 1); }\n",
    )]);
    assert_single(&a, "TEL-NAME", 1);
}

#[test]
fn tel_name_clean_when_names_come_from_the_const_table() {
    let a = run(&[(
        "crates/routing/src/fx.rs",
        "pub fn f(t: &Telemetry) { t.inc(names::ROUTER_BATCHES, 1); }\n",
    )]);
    assert_clean(&a);
}

#[test]
fn tel_name_workspace_half_flags_duplicate_table_values() {
    // The second file keeps both consts live so TEL-DEAD stays quiet and
    // only the duplicate-value finding surfaces.
    let a = run(&[
        (
            "crates/telemetry/src/names.rs",
            r#"pub const A: &str = "dup.metric";
pub const B: &str = "dup.metric";
"#,
        ),
        (
            "crates/routing/src/fx.rs",
            "pub fn f(t: &Telemetry) { t.inc(names::A, 1); t.inc(names::B, 1); }\n",
        ),
    ]);
    assert_eq!(rule_ids(&a), vec!["TEL-NAME"], "findings: {:?}", a.findings);
    assert_eq!(a.findings[0].line, 2);
    assert!(a.findings[0].message.contains("duplicate metric name"));
}

#[test]
fn tel_name_suppressed_with_reason() {
    let a = run(&[(
        "crates/routing/src/fx.rs",
        "pub fn f(t: &Telemetry) { t.inc(\"router.batches\", 1); } // fcn-allow: TEL-NAME fixture for the names migration test\n",
    )]);
    assert_suppressed(&a);
}

// -------------------------------------------------------------- ATOMIC-DOC

#[test]
fn atomic_doc_fires_without_a_justification() {
    let a = run(&[(
        "crates/core/src/fx.rs",
        "pub fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n",
    )]);
    assert_single(&a, "ATOMIC-DOC", 1);
}

#[test]
fn atomic_doc_comment_covers_its_whole_paragraph_but_not_past_a_blank() {
    // One justification heads a contiguous block of related atomics.
    let a = run(&[(
        "crates/core/src/fx.rs",
        r#"pub fn f(a: &AtomicUsize) {
    // ordering: relaxed — commutative counters, joined before any read
    a.fetch_add(1, Ordering::Relaxed);
    a.fetch_add(2, Ordering::Relaxed);
}
"#,
    )]);
    assert_clean(&a);
    // A fully blank line ends the covered paragraph.
    let b = run(&[(
        "crates/core/src/fx.rs",
        r#"pub fn f(a: &AtomicUsize) {
    // ordering: relaxed — commutative counter
    a.fetch_add(1, Ordering::Relaxed);

    a.fetch_add(2, Ordering::Relaxed);
}
"#,
    )]);
    assert_single(&b, "ATOMIC-DOC", 5);
}

#[test]
fn atomic_doc_suppressed_with_reason() {
    let a = run(&[(
        "crates/core/src/fx.rs",
        "pub fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); } // fcn-allow: ATOMIC-DOC fixture, no real concurrency\n",
    )]);
    assert_suppressed(&a);
}

// --------------------------------------------------------- SERVE-DEADLINE

#[test]
fn serve_deadline_fires_on_raw_socket_calls_outside_the_io_layer() {
    let a = run(&[(
        "crates/serve/src/fx.rs",
        "pub fn f(s: &mut TcpStream, buf: &mut [u8]) { s.read(buf).ok(); }\n",
    )]);
    assert_single(&a, "SERVE-DEADLINE", 1);
    let b = run(&[(
        "crates/serve/src/fx.rs",
        "pub fn g(s: &mut TcpStream) { s.write_all(b\"x\").ok(); }\n",
    )]);
    assert_single(&b, "SERVE-DEADLINE", 1);
}

#[test]
fn serve_deadline_clean_in_io_rs_framed_wrappers_and_other_crates() {
    // The framed layer itself is the allowlisted home of raw calls.
    let a = run(&[(
        "crates/serve/src/io.rs",
        "pub fn f(s: &mut TcpStream, buf: &mut [u8]) { s.read(buf).ok(); }\n",
    )]);
    assert_clean(&a);
    // FramedConn method names do not trip the raw-call patterns.
    let b = run(&[(
        "crates/serve/src/fx.rs",
        "pub fn f(c: &mut FramedConn) { c.read_frame(None).ok(); c.write_frame(b\"x\").ok(); }\n",
    )]);
    assert_clean(&b);
    // Raw reads outside fcn-serve are some other crate's business.
    let c = run(&[(
        "crates/cli/src/fx.rs",
        "pub fn f(s: &mut TcpStream, buf: &mut [u8]) { s.read(buf).ok(); }\n",
    )]);
    assert_clean(&c);
}

#[test]
fn serve_deadline_suppressed_with_reason() {
    let a = run(&[(
        "crates/serve/src/fx.rs",
        "pub fn f(s: &mut TcpStream) { s.flush().ok(); } // fcn-allow: SERVE-DEADLINE fixture, flush cannot block here\n",
    )]);
    assert_suppressed(&a);
}

// ------------------------------------------------------------ self-hosting

/// The committed workspace must be clean under its own analyzer: zero
/// findings. This is the in-tree twin of the CI `analysis` job.
#[test]
fn workspace_self_run_has_zero_non_baseline_findings() {
    let root = workspace_root();
    let a = fcn_analyze::analyze_workspace(&root, &[], &[]).expect("workspace readable");
    assert!(
        a.findings.is_empty(),
        "fcn-analyze found new violations:\n{}",
        a.findings
            .iter()
            .map(fcn_analyze::report::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        a.totals.files > 30,
        "walker saw too few files: {:?}",
        a.totals
    );
}

/// Wall-clock reads, sleeps, hash-ordered collections, random hash state
/// and unchecked mutexes have no analyzer rule: `clippy.toml` is their only
/// enforcement, so it must keep banning them (CI seeds a violation and
/// requires `cargo clippy` to fail).
#[test]
fn clippy_toml_bans_wall_clock_and_hash_order() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml readable");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::sleep",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::collections::hash_map::RandomState",
        "std::sync::Mutex",
    ] {
        assert!(
            text.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer bans {path}"
        );
    }
}

/// Library code must not panic: every workspace lib root denies clippy's
/// panic-family lints, and `clippy.toml` lets tests unwrap, expect and
/// panic. A new crate whose `lib.rs` lacks the deny line would silently
/// fall outside the check, so this test lists every lib root itself.
#[test]
fn every_lib_root_denies_the_panic_family_lints() {
    let root = workspace_root();
    let mut lib_roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        if lib.is_file() {
            lib_roots.push(lib);
        }
    }
    assert!(lib_roots.len() > 10, "too few lib roots: {lib_roots:?}");
    let want = "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,clippy::todo,clippy::unimplemented)]";
    for lib in &lib_roots {
        let text = std::fs::read_to_string(lib).expect("lib root readable");
        let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(
            flat.contains(want),
            "{} does not deny the panic-family clippy lints",
            lib.display()
        );
    }
    let clippy = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml readable");
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(
            clippy
                .lines()
                .any(|l| l.replace(' ', "") == format!("{key}=true")),
            "clippy.toml no longer sets {key} = true"
        );
    }
}

fn workspace_root() -> std::path::PathBuf {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    fcn_analyze::walk::find_workspace_root(here).expect("inside the fcn workspace")
}
