//! Shared JSONL validation and merge discipline for every committed BENCH
//! trajectory file.
//!
//! Two binaries commit line-oriented JSON benchmark files at the repo root —
//! `faults` (`BENCH_faults.json`) and `fcn-serve-load` (`BENCH_serve.json`)
//! — and both share one rule: an existing file is validated *before* any
//! fresh rows are merged into it, a bad line is reported with its 1-based
//! line number and a recovery hint, and the binary exits with code 2 rather
//! than clobbering the committed history. This module is the single home of that discipline; the binaries
//! only differ in the schema tag they expect.

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

/// Parse and validate an existing BENCH body before merging new rows into
/// it: every non-empty line must be a JSON object whose `schema` field
/// equals `expected_schema` and whose `bench` field is a string (the row
/// key). Returns `(bench_id, raw_line)` pairs in file order, or a message
/// naming the offending line and how to recover.
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

    #[test]
    fn validate_accepts_current_schema_rows() {
        let row = |bench: &str| format!("{{\"schema\":\"{FAULTS_SCHEMA}\",\"bench\":\"{bench}\"}}");
        let body = format!("{}\n\n{}\n", row("a"), row("b"));
        let rows = validate_rows(&body, FAULTS_SCHEMA).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "a");
        assert_eq!(rows[1].0, "b");
    }

    #[test]
    fn validate_rejects_missing_schema_with_line_number() {
        // The pre-v2 committed format: rows without a schema field.
        let body = "{\"bench\":\"mesh2@0.05\",\"rate\":1.5}\n";
        let err = validate_rows(body, FAULTS_SCHEMA).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("missing `schema`"), "{err}");
        assert!(err.contains("re-run the binary"), "{err}");
    }

    #[test]
    fn validate_rows_is_schema_parameterized() {
        let body = format!("{{\"schema\":\"{FAULTS_SCHEMA}\",\"bench\":\"mesh2@0.05\"}}\n");
        assert_eq!(validate_rows(&body, FAULTS_SCHEMA).unwrap().len(), 1);
        let err = validate_rows(&body, SERVE_SCHEMA).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains(FAULTS_SCHEMA), "{err}");
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
            "{{\"schema\":\"{FAULTS_SCHEMA}\",\"bench\":\"a\"}}\n\
             {{\"schema\":\"fcn-faults-curve/0\",\"bench\":\"b\"}}\n"
        );
        let err = validate_rows(&body, FAULTS_SCHEMA).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("fcn-faults-curve/0"), "{err}");
        let err = validate_rows("not json\n", FAULTS_SCHEMA).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let body = format!("{{\"schema\":\"{FAULTS_SCHEMA}\",\"nobench\":1}}\n");
        let err = validate_rows(&body, FAULTS_SCHEMA).unwrap_err();
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
