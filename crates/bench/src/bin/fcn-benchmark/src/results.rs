//! The metric catalog, the result line every workload run prints, and the
//! `fcn-benchmark/1` result record that `run` appends to a result set.
//!
//! A run's last stdout line is the result object
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! A result set is a JSONL file of records
//! `{"schema":"fcn-benchmark/1","workload":..,"seed":..,"trace":..,"result":{..}}`,
//! which `compare` reads.

use serde::Value;

/// Schema tag of one result-set record.
pub const RESULTS_SCHEMA: &str = "fcn-benchmark/1";

/// The benchmark's description, compiled in so the binary and the file
/// cannot disagree on names, units or bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// End-to-end metrics (untraced runs): name and unit. Times are at the
/// yardstick's reference speed (see `speed.rs`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("capacity_per_s", "1/s"),
];

/// Per-layer metrics (traced runs): name and unit. A metric of a layer a
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("speed.yardstick_ms", "ms"),
    ("mem.peak_rss_mb", "MB"),
    ("trace.iter_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("topology.build_s", "s"),
    ("routing.compile_net_s", "s"),
    ("multigraph.demand_s", "s"),
    ("routing.plan_s", "s"),
    ("routing.plan_calls", "count"),
    ("routing.plan_cache_hits", "count"),
    ("routing.plan_cache_misses", "count"),
    ("routing.plan_cache_evictions", "count"),
    ("routing.plan_cache_hit_ratio", "ratio"),
    ("routing.plan_cache_entries", "count"),
    ("routing.batch_compile_s", "s"),
    ("routing.route_s", "s"),
    ("routing.ticks", "count"),
    ("routing.packets", "count"),
    ("routing.hops", "count"),
    ("routing.hops_per_s", "1/s"),
    ("bandwidth.reduce_s", "s"),
    ("bandwidth.flux_s", "s"),
    ("bandwidth.cell_complete_ratio", "ratio"),
    ("multigraph.distance_s", "s"),
    ("asymptotics.fit_s", "s"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.critical_path_s", "s"),
    ("exec.fanout_s", "s"),
    ("serve.pre_exec_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p99", "ms"),
    ("serve.post_exec_ms_p50", "ms"),
    ("serve.codec_us", "us"),
    ("serve.registry_hits", "count"),
    ("serve.registry_misses", "count"),
    ("serve.queued", "count"),
    ("serve.shed", "count"),
    ("serve.generator_late_ms_p90", "ms"),
    ("serve.e2e_ms_p90", "ms"),
    ("serve.e2e_ms_p99", "ms"),
    ("serve.requests", "count"),
];

/// What one workload run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalog order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Fill `catalog` from `values`; a metric the run did not measure reads 0.
    pub fn from_values(
        correct: bool,
        attempted: u64,
        failed: u64,
        catalog: &[(&str, &str)],
        values: &std::collections::BTreeMap<&str, f64>,
    ) -> Outcome {
        let metrics = catalog
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                (name.to_string(), v, unit.to_string())
            })
            .collect();
        Outcome {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let m = Value::Object(vec![
                    ("value".into(), Value::Float(*v)),
                    ("unit".into(), Value::String(unit.clone())),
                ]);
                (name.clone(), m)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// The result line a run prints last.
    pub fn to_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("result renders")
    }
}

/// One record of a result set.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub outcome: Outcome,
}

impl Record {
    pub fn to_line(&self) -> String {
        let v = Value::Object(vec![
            ("schema".into(), Value::String(RESULTS_SCHEMA.into())),
            ("workload".into(), Value::String(self.workload.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("trace".into(), Value::Bool(self.trace)),
            ("result".into(), self.outcome.to_value()),
        ]);
        serde_json::to_string(&v).expect("record renders")
    }
}

/// A metric or workload name: `[A-Za-z0-9_.-]+`, at most 64 characters,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    serde::value_field(v, key).map_err(|e| e.to_string())
}

fn exact_keys(v: &Value, keys: &[&str], what: &str) -> Result<(), String> {
    match v {
        Value::Object(entries) => {
            let mut got: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            let mut want = keys.to_vec();
            got.sort_unstable();
            want.sort_unstable();
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}: keys {got:?}, expected {want:?}"))
            }
        }
        other => Err(format!("{what}: expected an object, found {other:?}")),
    }
}

fn number(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Float(f) if f.is_finite() => Ok(*f),
        Value::UInt(u) => Ok(*u as f64),
        Value::Int(i) => Ok(*i as f64),
        other => Err(format!("{what}: expected a finite number, found {other:?}")),
    }
}

fn count(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::UInt(u) => Ok(*u),
        other => Err(format!("{what}: expected a whole number, found {other:?}")),
    }
}

fn outcome_from_value(v: &Value) -> Result<Outcome, String> {
    exact_keys(v, &["correct", "attempted", "failed", "metrics"], "result")?;
    let correct = match field(v, "correct")? {
        Value::Bool(b) => *b,
        other => return Err(format!("correct: expected a bool, found {other:?}")),
    };
    let attempted = count(field(v, "attempted")?, "attempted")?;
    let failed = count(field(v, "failed")?, "failed")?;
    if attempted == 0 || failed > attempted {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let Value::Object(entries) = field(v, "metrics")? else {
        return Err("metrics: expected an object".into());
    };
    let mut metrics = Vec::with_capacity(entries.len());
    for (name, m) in entries {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
        }
        exact_keys(m, &["value", "unit"], name)?;
        let value = number(field(m, "value")?, name)?;
        let Value::String(unit) = field(m, "unit")? else {
            return Err(format!("{name}: unit must be a string"));
        };
        metrics.push((name.clone(), value, unit.clone()));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Parse and check a result line.
pub fn parse_result_line(line: &str) -> Result<Outcome, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    outcome_from_value(&v)
}

/// Parse and check one result-set record, tag included.
pub fn parse_record(line: &str) -> Result<Record, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("record: {e}"))?;
    exact_keys(
        &v,
        &["schema", "workload", "seed", "trace", "result"],
        "record",
    )?;
    match field(&v, "schema")? {
        Value::String(s) if s == RESULTS_SCHEMA => {}
        other => {
            return Err(format!(
                "schema: expected {RESULTS_SCHEMA}, found {other:?}"
            ))
        }
    }
    let Value::String(workload) = field(&v, "workload")? else {
        return Err("workload must be a string".into());
    };
    let trace = matches!(field(&v, "trace")?, Value::Bool(true));
    Ok(Record {
        workload: workload.clone(),
        seed: count(field(&v, "seed")?, "seed")?,
        trace,
        outcome: outcome_from_value(field(&v, "result")?)?,
    })
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// What the binary reads from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bound>,
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::String(s) => Ok(s.clone()),
        other => Err(format!("{key}: expected a string, found {other:?}")),
    }
}

fn list<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match field(v, key)? {
        Value::Array(items) => Ok(items),
        other => Err(format!("{key}: expected a list, found {other:?}")),
    }
}

/// Parse `BENCHMARK.json`.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds = count(field(&v, "run_seconds")?, "run_seconds")?;
    let workloads = list(&v, "workloads")?
        .iter()
        .map(|w| string(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = list(&v, "end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                higher_is_better: string(m, "better")? == "higher",
                bound: number(field(m, "bound")?, "bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        run_seconds,
        workloads,
        end_to_end,
    })
}

/// The compiled-in `BENCHMARK.json`.
pub fn spec() -> Spec {
    parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn result_line_and_record_round_trip_through_their_validators() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.8127);
        values.insert("op_p50_ms", 1.2034);
        let out = Outcome::from_values(true, 1000, 0, &END_TO_END, &values);
        assert_eq!(out.metric("capacity_per_s"), Some(0.0));
        let line = out.to_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,"));
        assert_eq!(parse_result_line(&line), Ok(out.clone()));
        let rec = Record {
            workload: "beta-bfs".into(),
            seed: 7,
            trace: false,
            outcome: out,
        };
        assert_eq!(parse_record(&rec.to_line()), Ok(rec.clone()));
        let stale = rec.to_line().replace(RESULTS_SCHEMA, "fcn-benchmark/0");
        assert!(parse_record(&stale).is_err());
        assert!(parse_result_line("{\"correct\":true}").is_err());
        let zero = line.replace("\"attempted\":1000", "\"attempted\":0");
        assert!(parse_result_line(&zero).is_err());
    }

    #[test]
    fn benchmark_json_names_match_the_binary() {
        let spec = spec();
        let workloads: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|b| (b.name.as_str(), b.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let json: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let per_layer: Vec<(String, String)> = list(&json, "per_layer")
            .expect("per_layer list")
            .iter()
            .map(|m| (string(m, "name").unwrap(), string(m, "unit").unwrap()))
            .collect();
        let layers: Vec<(&str, &str)> = per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER);
        let all = workloads
            .iter()
            .chain(e2e.iter().map(|(n, _)| n))
            .chain(layers.iter().map(|(n, _)| n));
        for name in all {
            assert!(valid_name(name), "{name:?}");
        }
        let setup = &spec.end_to_end[0];
        assert_eq!(
            (setup.name.as_str(), setup.higher_is_better),
            ("setup_s", false)
        );
    }

    /// Widest ten-seed spread (IQR / median) of each end-to-end metric on
    /// any workload over the two calibration sets in README.md; all three
    /// are `serve-beta`'s.
    const CALIBRATED_SPREAD: [(&str, f64); 3] = [
        ("setup_s", 0.245),
        ("op_p50_ms", 0.370),
        ("capacity_per_s", 0.190),
    ];

    /// Largest bound `BENCHMARK.json` allows.
    const MAX_BOUND: f64 = 0.25;

    /// The bound a calibrated spread calls for: three times the spread, so
    /// that noise alone stays under a third of the bound, rounded up to a
    /// multiple of 0.05 and capped at [`MAX_BOUND`]. `setup_s` is gated on
    /// its median only, not its spread, and takes the largest bound.
    fn calibrated_bound(name: &str, spread: f64) -> f64 {
        if name == "setup_s" {
            return MAX_BOUND;
        }
        // 3 × spread in twentieths, rounded up (the 1e-9 absorbs float error).
        ((60.0 * spread - 1e-9).ceil() / 20.0).min(MAX_BOUND)
    }

    #[test]
    fn bounds_follow_the_recorded_calibration() {
        let spec = spec();
        assert_eq!(spec.end_to_end.len(), CALIBRATED_SPREAD.len());
        for (b, (name, spread)) in spec.end_to_end.iter().zip(CALIBRATED_SPREAD) {
            assert_eq!(b.name, name);
            let want = calibrated_bound(name, spread);
            assert!(
                (b.bound - want).abs() < 1e-12,
                "{name}: bound {}, calibration calls for {want}",
                b.bound
            );
        }
        assert_eq!(calibrated_bound("op_p50_ms", 0.04), 0.15);
        assert_eq!(calibrated_bound("op_p50_ms", 0.05), 0.15);
        assert_eq!(calibrated_bound("op_p50_ms", 0.2), MAX_BOUND);
        assert_eq!(calibrated_bound("setup_s", 0.01), MAX_BOUND);
    }
}
