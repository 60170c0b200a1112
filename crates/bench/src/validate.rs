//! Shared JSONL validation and merge discipline for every committed BENCH
//! trajectory file.
//!
//! Three binaries commit line-oriented JSON benchmark files at the repo root
//! — `perfbench` (`BENCH_router.json`), `faults` (`BENCH_faults.json`), and
//! `fcn-serve-load` (`BENCH_serve.json`) — and all of them share one rule:
//! an existing file is validated *before* any fresh rows are merged into it,
//! a bad line is reported with its 1-based line number and a recovery hint,
//! and the binary exits with code 2 rather than clobbering the committed
//! history. This module is the single home of that discipline; the binaries
//! only differ in the schema tag they expect.

/// Schema tag stamped on every `perfbench` row (the `schema` field of each
/// JSON line in `BENCH_router.json`).
///
/// History: `fcn-perfbench/1` rows had no `schema` field at all, which let a
/// binary silently mix rows measured under different field semantics into one
/// file. Version 2 stamps every row and [`validate_bench_rows`] refuses to
/// merge with a file whose rows carry a missing or different tag. Version 3
/// adds the `unit` field (what the `rate` column measures — enforced by
/// [`validate_bench_rows`], so a row can never be misread across benches
/// whose `rate` semantics differ) and the `cores` field (hardware threads of
/// the measuring host, so throughput rows are comparable across runners).
/// Version 4 keeps only the rows that gate an always-on mechanism
/// (`route_skip_{saturated,sparse,drain}`, `telemetry_overhead`) and adds
/// the `min_ms`/`max_ms` spread of the repetitions, enforced by
/// [`validate_bench_rows`] as `min_ms ≤ median_ms ≤ max_ms`.
pub const PERFBENCH_SCHEMA: &str = "fcn-perfbench/4";

/// Schema tag stamped on every `faults` degraded-β row (the committed
/// `BENCH_faults.json` curve).
pub const FAULTS_SCHEMA: &str = "fcn-faults-curve/1";

/// Schema tag stamped on every `fcn-serve-load` row (the committed
/// `BENCH_serve.json` throughput/latency trajectory, including the
/// cold-vs-warm comparison row).
///
/// History: `fcn-serve-curve/1` rows measured only the clean closed-loop
/// curve. Version 2 adds three resilience columns to every row —
/// `chaos_rate` (the uniform wire-fault rate the daemon injected, 0 for
/// clean rows), `offered_load` (offered-to-capacity ratio of the open-loop
/// shed rows, 0 for closed-loop rows), and `shed_fraction` (requests shed
/// typed `Overloaded` as a fraction of requests offered) — enforced by
/// [`validate_serve_rows`].
pub const SERVE_SCHEMA: &str = "fcn-serve-curve/2";

/// Parse and validate an existing `BENCH_serve.json` body before merging
/// new rows into it: the generic [`validate_rows`] checks plus the `/2`
/// resilience columns (`chaos_rate`, `offered_load`, `shed_fraction`),
/// each required and numeric, reported with the offending row's bench id.
pub fn validate_serve_rows(body: &str) -> Result<Vec<(String, String)>, String> {
    let rows = validate_rows(body, SERVE_SCHEMA)?;
    for (bench, line) in &rows {
        let v: serde::Value = serde_json::from_str(line)
            .map_err(|e| format!("serve row {bench:?}: not valid JSON: {e}"))?;
        for field in ["chaos_rate", "offered_load", "shed_fraction"] {
            match serde::value_field(&v, field) {
                Ok(serde::Value::Int(_) | serde::Value::UInt(_) | serde::Value::Float(_)) => {}
                _ => {
                    return Err(format!(
                        "serve row {bench:?}: missing or non-numeric `{field}` field \
                         (required by {SERVE_SCHEMA}); delete the file and re-run \
                         fcn-serve-load to regenerate"
                    ))
                }
            }
        }
    }
    Ok(rows)
}

/// Parse and validate an existing `BENCH_router.json` body before merging
/// new rows into it.
///
/// Every non-empty line must be a JSON object whose `schema` field equals
/// [`PERFBENCH_SCHEMA`], whose `bench` field is a string (the row key),
/// whose `unit` field is a non-empty string naming what the `rate` column
/// measures, and whose `min_ms`, `median_ms` and `max_ms` fields are
/// numbers in that order. Returns `(bench_id, raw_line)` pairs in file
/// order, or a message naming the offending row and how to recover.
pub fn validate_bench_rows(body: &str) -> Result<Vec<(String, String)>, String> {
    let rows = validate_rows(body, PERFBENCH_SCHEMA)?;
    let regenerate = "delete the file and re-run the binary at full scale to regenerate";
    for (bench, line) in &rows {
        let v: serde::Value = serde_json::from_str(line)
            .map_err(|e| format!("bench row {bench:?}: not valid JSON: {e}"))?;
        match serde::value_field(&v, "unit") {
            Ok(serde::Value::String(u)) if !u.is_empty() => {}
            _ => {
                return Err(format!(
                    "bench row {bench:?}: missing or empty `unit` field (required by \
                     {PERFBENCH_SCHEMA}); {regenerate}"
                ))
            }
        }
        let ms = |field: &str| match serde::value_field(&v, field) {
            Ok(serde::Value::Float(x)) => Ok(*x),
            Ok(serde::Value::UInt(x)) => Ok(*x as f64),
            _ => Err(format!(
                "bench row {bench:?}: missing or non-numeric `{field}` field (required by \
                 {PERFBENCH_SCHEMA}); {regenerate}"
            )),
        };
        let (min, median, max) = (ms("min_ms")?, ms("median_ms")?, ms("max_ms")?);
        if !(min <= median && median <= max) {
            return Err(format!(
                "bench row {bench:?}: spread out of order (min_ms {min} ≤ median_ms \
                 {median} ≤ max_ms {max} does not hold); {regenerate}"
            ));
        }
    }
    Ok(rows)
}

/// [`validate_bench_rows`] generalized over the expected schema tag, so the
/// `faults` curve and `serve` trajectory files share the same line-numbered
/// validation discipline as the perfbench trajectory.
pub fn validate_rows(body: &str, expected_schema: &str) -> Result<Vec<(String, String)>, String> {
    let mut rows = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v: serde::Value = serde_json::from_str(line)
            .map_err(|e| format!("bench rows line {lineno}: not valid JSON: {e}"))?;
        let schema = match serde::value_field(&v, "schema") {
            Ok(serde::Value::String(s)) => s.clone(),
            Ok(other) => {
                return Err(format!(
                    "bench rows line {lineno}: `schema` must be a string, found {other:?}"
                ))
            }
            Err(_) => {
                return Err(format!(
                    "bench rows line {lineno}: missing `schema` field (pre-{expected_schema} \
                     row); delete the file and re-run the binary at full scale to regenerate"
                ))
            }
        };
        if schema != expected_schema {
            return Err(format!(
                "bench rows line {lineno}: schema {schema:?} does not match this binary's \
                 {expected_schema:?}; delete the file and re-run the binary to regenerate"
            ));
        }
        let bench = match serde::value_field(&v, "bench") {
            Ok(serde::Value::String(s)) => s.clone(),
            _ => {
                return Err(format!(
                    "bench rows line {lineno}: missing or non-string `bench` field"
                ))
            }
        };
        rows.push((bench, line.to_string()));
    }
    Ok(rows)
}

/// Merge freshly measured rows over a validated existing file: a new row
/// replaces the old row with the same bench id (keeping the old position);
/// benches not re-measured this run survive; brand-new benches append in
/// measurement order. Returns the JSONL body to write.
pub fn merge_bench_rows(existing: &[(String, String)], fresh: &[(String, String)]) -> String {
    let mut out: Vec<(String, String)> = Vec::new();
    for (bench, line) in existing {
        let replacement = fresh.iter().find(|(b, _)| b == bench);
        let line = replacement.map(|(_, l)| l).unwrap_or(line);
        out.push((bench.clone(), line.clone()));
    }
    for (bench, line) in fresh {
        if !out.iter().any(|(b, _)| b == bench) {
            out.push((bench.clone(), line.clone()));
        }
    }
    let mut body = String::new();
    for (_, line) in &out {
        body.push_str(line);
        body.push('\n');
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A current-schema perfbench row with the given spread.
    fn bench_row(bench: &str, min: f64, median: f64, max: f64) -> String {
        format!(
            "{{\"schema\":\"{PERFBENCH_SCHEMA}\",\"bench\":\"{bench}\",\"median_ms\":{median:?},\
             \"min_ms\":{min:?},\"max_ms\":{max:?},\"unit\":\"ratio\"}}"
        )
    }

    #[test]
    fn validate_accepts_current_schema_rows() {
        let body = format!(
            "{}\n\n{}\n",
            bench_row("a", 0.5, 1.0, 1.5),
            bench_row("b", 2.0, 2.0, 2.0)
        );
        let rows = validate_bench_rows(&body).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "a");
        assert_eq!(rows[1].0, "b");
    }

    #[test]
    fn validate_requires_an_ordered_spread() {
        let err = validate_bench_rows(&bench_row("a", 1.5, 1.0, 2.0)).unwrap_err();
        assert!(err.contains("spread out of order"), "{err}");
        assert!(err.contains("\"a\""), "{err}");
        let err = validate_bench_rows(&bench_row("a", 0.5, 3.0, 2.0)).unwrap_err();
        assert!(err.contains("spread out of order"), "{err}");
        // A /3-era row without spread fields is refused by name.
        let body = format!(
            "{{\"schema\":\"{PERFBENCH_SCHEMA}\",\"bench\":\"a\",\"median_ms\":1.0,\
             \"unit\":\"ratio\"}}\n"
        );
        let err = validate_bench_rows(&body).unwrap_err();
        assert!(err.contains("`min_ms`"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_or_empty_unit() {
        let body = format!("{{\"schema\":\"{PERFBENCH_SCHEMA}\",\"bench\":\"a\"}}\n");
        let err = validate_bench_rows(&body).unwrap_err();
        assert!(err.contains("`unit`"), "{err}");
        assert!(err.contains("\"a\""), "{err}");
        let body = format!("{{\"schema\":\"{PERFBENCH_SCHEMA}\",\"bench\":\"a\",\"unit\":\"\"}}\n");
        let err = validate_bench_rows(&body).unwrap_err();
        assert!(err.contains("`unit`"), "{err}");
        // The faults-curve path stays unit-free: validate_rows is the
        // generic layer and must not inherit the perfbench-only check.
        let body = format!("{{\"schema\":\"{FAULTS_SCHEMA}\",\"bench\":\"mesh2@0.05\"}}\n");
        assert_eq!(validate_rows(&body, FAULTS_SCHEMA).unwrap().len(), 1);
    }

    #[test]
    fn validate_rejects_missing_schema_with_line_number() {
        // The pre-v2 committed format: rows without a schema field.
        let body = "{\"bench\":\"route_reference\",\"median_ms\":155.4}\n";
        let err = validate_bench_rows(body).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("missing `schema`"), "{err}");
        assert!(err.contains("re-run the binary"), "{err}");
    }

    #[test]
    fn validate_rows_is_schema_parameterized() {
        let body = format!("{{\"schema\":\"{FAULTS_SCHEMA}\",\"bench\":\"mesh2@0.05\"}}\n");
        assert_eq!(validate_rows(&body, FAULTS_SCHEMA).unwrap().len(), 1);
        let err = validate_rows(&body, PERFBENCH_SCHEMA).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains(FAULTS_SCHEMA), "{err}");
        // The serve trajectory reuses the same generic layer.
        let body = format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"bench\":\"mix@10000\"}}\n");
        assert_eq!(validate_rows(&body, SERVE_SCHEMA).unwrap().len(), 1);
        let err = validate_rows(&body, FAULTS_SCHEMA).unwrap_err();
        assert!(err.contains(SERVE_SCHEMA), "{err}");
    }

    #[test]
    fn validate_serve_rows_requires_the_v2_resilience_columns() {
        let good = format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"bench\":\"mix@c4\",\"chaos_rate\":0.0,\
             \"offered_load\":0,\"shed_fraction\":0.25}}\n"
        );
        assert_eq!(validate_serve_rows(&good).unwrap().len(), 1);
        // A /1-era row (no resilience columns) is rejected by name.
        let stale = format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"bench\":\"mix@c4\"}}\n");
        let err = validate_serve_rows(&stale).unwrap_err();
        assert!(err.contains("`chaos_rate`"), "{err}");
        assert!(err.contains("mix@c4"), "{err}");
        assert!(err.contains("fcn-serve-load"), "{err}");
        // Non-numeric columns are rejected too.
        let bad = format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"bench\":\"x\",\"chaos_rate\":0,\
             \"offered_load\":\"4x\",\"shed_fraction\":0}}\n"
        );
        let err = validate_serve_rows(&bad).unwrap_err();
        assert!(err.contains("`offered_load`"), "{err}");
        // And the old schema tag itself fails the generic layer with a line
        // number (regeneration hint included).
        let v1 = "{\"schema\":\"fcn-serve-curve/1\",\"bench\":\"mix@c4\"}\n";
        let err = validate_serve_rows(v1).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("fcn-serve-curve/1"), "{err}");
    }

    #[test]
    fn validate_rejects_mismatched_schema_and_garbage() {
        let body = format!(
            "{{\"schema\":\"{PERFBENCH_SCHEMA}\",\"bench\":\"a\"}}\n\
             {{\"schema\":\"fcn-perfbench/1\",\"bench\":\"b\"}}\n"
        );
        let err = validate_bench_rows(&body).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("fcn-perfbench/1"), "{err}");
        let err = validate_bench_rows("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let body = format!("{{\"schema\":\"{PERFBENCH_SCHEMA}\",\"nobench\":1}}\n");
        let err = validate_bench_rows(&body).unwrap_err();
        assert!(err.contains("`bench`"), "{err}");
    }

    #[test]
    fn merge_replaces_in_place_and_appends_new() {
        let existing = vec![
            ("a".to_string(), "old-a".to_string()),
            ("b".to_string(), "old-b".to_string()),
        ];
        let fresh = vec![
            ("b".to_string(), "new-b".to_string()),
            ("c".to_string(), "new-c".to_string()),
        ];
        let body = merge_bench_rows(&existing, &fresh);
        assert_eq!(body, "old-a\nnew-b\nnew-c\n");
        // Empty existing file: fresh rows in measurement order.
        assert_eq!(merge_bench_rows(&[], &fresh), "new-b\nnew-c\n");
    }
}
