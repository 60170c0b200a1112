//! The committed BENCH trajectory files at the repo root must pass the
//! validators their binaries merge through, so a hand edit or a stale
//! schema fails `cargo test` instead of the next regeneration run. The CI
//! workflows may name only the schema tags the code stamps today.

use std::path::PathBuf;

use fcn_bench::{validate_rows, validate_serve_rows, FAULTS_SCHEMA};

/// Every versioned `fcn-*/N` schema tag the workspace stamps and validates.
const SCHEMAS: [&str; 5] = [
    fcn_telemetry::SNAPSHOT_SCHEMA,
    fcn_serve::proto::SERVE_SCHEMA,
    fcn_multigraph::io::JSON_SCHEMA,
    FAULTS_SCHEMA,
    fcn_bench::SERVE_SCHEMA,
];

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn bench_faults_validates() {
    let rows = validate_rows(&committed("BENCH_faults.json"), FAULTS_SCHEMA).unwrap();
    assert!(!rows.is_empty());
}

#[test]
fn bench_serve_validates() {
    // The validator checks the fcn-serve-curve/2 tag and the v2
    // chaos_rate / offered_load / shed_fraction columns on every row.
    let rows = validate_serve_rows(&committed("BENCH_serve.json")).unwrap();
    let benches: Vec<&str> = rows.iter().map(|(b, _)| b.as_str()).collect();
    for row in ["cold-vs-warm", "chaos@0.15", "offered@4x"] {
        assert!(benches.contains(&row), "BENCH_serve.json lost {row}");
    }
}

/// Every `fcn-*/N` schema tag in `text`, in order.
fn schema_tags(text: &str) -> Vec<&str> {
    let mut tags = Vec::new();
    for (at, _) in text.match_indices("fcn-") {
        let rest = &text[at..];
        let base = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
            .unwrap_or(rest.len());
        let version = rest[base..].strip_prefix('/').unwrap_or("");
        let digits = version.find(|c: char| !c.is_ascii_digit());
        let digits = digits.unwrap_or(version.len());
        if base > 4 && digits > 0 {
            tags.push(&rest[..base + 1 + digits]);
        }
    }
    tags
}

#[test]
fn ci_names_only_current_schema_tags() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows");
    let mut tags = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        tags.extend(schema_tags(&text).into_iter().map(String::from));
    }
    assert!(!tags.is_empty(), "no schema tag in the CI workflows");
    let stale: Vec<&String> = tags
        .iter()
        .filter(|t| !SCHEMAS.contains(&t.as_str()))
        .collect();
    assert!(stale.is_empty(), "CI names stale schema tags {stale:?}");
}

#[test]
fn schema_tag_scan_finds_versioned_tags() {
    let ci = "# rows match fcn-serve-curve/1; fcn-faults-curve/12 too\nrun: fcn-/1 fcn-x";
    let tags = schema_tags(ci);
    assert_eq!(tags, ["fcn-serve-curve/1", "fcn-faults-curve/12"]);
    assert!(!SCHEMAS.contains(&tags[0]));
}
