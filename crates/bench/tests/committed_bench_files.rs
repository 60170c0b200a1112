//! The committed BENCH trajectory files at the repo root must pass the
//! validators their binaries merge through, so a hand edit or a stale
//! schema fails `cargo test` instead of the next regeneration run.

use std::path::PathBuf;

use fcn_bench::{validate_rows, validate_serve_rows, FAULTS_SCHEMA};

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
