//! The committed BENCH trajectory files at the repo root must pass the
//! validators their binaries merge through, so a hand edit or a stale
//! schema fails `cargo test` instead of the next regeneration run.

use std::path::PathBuf;

use fcn_bench::{validate_bench_rows, validate_rows, validate_serve_rows, FAULTS_SCHEMA};

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn bench_router_holds_exactly_the_gating_rows() {
    // The validator requires a non-empty `unit` and min_ms ≤ median_ms ≤
    // max_ms on every row.
    let rows = validate_bench_rows(&committed("BENCH_router.json")).unwrap();
    let benches: Vec<&str> = rows.iter().map(|(b, _)| b.as_str()).collect();
    assert_eq!(
        benches,
        [
            "route_skip_saturated",
            "route_skip_sparse",
            "route_skip_drain",
            "telemetry_overhead"
        ]
    );
    // perfbench's acceptance bar for the skip at default scale.
    let v: serde::Value = serde_json::from_str(&rows[1].1).unwrap();
    let rate = serde::value_field(&v, "rate");
    assert!(
        matches!(rate, Ok(serde::Value::Float(r)) if *r >= 3.0),
        "{}",
        rows[1].1
    );
}

#[test]
fn bench_faults_validates() {
    let rows = validate_rows(&committed("BENCH_faults.json"), FAULTS_SCHEMA).unwrap();
    assert!(!rows.is_empty());
}

#[test]
fn bench_serve_validates() {
    let rows = validate_serve_rows(&committed("BENCH_serve.json")).unwrap();
    assert!(!rows.is_empty());
}
