//! Versioned snapshots: JSONL persistence and Prometheus text exposition.
//!
//! A [`MetricsSnapshot`] is a point-in-time copy of a registry. Snapshots
//! subtract ([`MetricsSnapshot::delta_since`]) so a long-lived process (or a
//! test binary running many in-process CLI invocations against the global
//! registry) can report exactly what one run contributed.
//!
//! The JSONL format is one self-describing object per line:
//!
//! ```text
//! {"schema":"fcn-telemetry/2","kind":"header","counters":2,"histograms":1}
//! {"kind":"counter","name":"exec_workers_total","value":4}
//! {"kind":"counter","name":"router_ticks_total","value":1024}
//! {"kind":"histogram","name":"router_queue_occupancy","count":9,"sum":41,"buckets":[...34 entries...]}
//! ```

use std::collections::BTreeMap;

use serde::Value;

use crate::hist::{bucket_upper_bound, LocalHistogram, HIST_BUCKETS};

/// Schema tag stamped on (and required from) every JSONL snapshot. `/2`
/// has no gauge kind, so a `/1` file is refused.
pub const SNAPSHOT_SCHEMA: &str = "fcn-telemetry/2";

/// A point-in-time copy of every instrument in a registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, LocalHistogram>,
}

/// Render one JSONL line from a hand-built [`Value`] tree.
#[expect(
    clippy::expect_used,
    reason = "hand-built `serde_json::Value` trees (string keys, integer leaves) always serialize"
)]
fn render_line(v: &Value) -> String {
    serde_json::to_string(v).expect("value renders")
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, String> {
    serde::value_field(v, name).map_err(|e| e.to_string())
}

fn field_u64(v: &Value, name: &str) -> Result<u64, String> {
    match field(v, name)? {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("field {name:?}: expected u64, found {other:?}")),
    }
}

fn field_str<'v>(v: &'v Value, name: &str) -> Result<&'v str, String> {
    match field(v, name)? {
        Value::String(s) => Ok(s),
        other => Err(format!("field {name:?}: expected string, found {other:?}")),
    }
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no instrument carries any data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// What this snapshot adds over `baseline`: counters and histograms
    /// subtract (saturating). Instruments
    /// whose delta is zero/empty are dropped, so a run that never touched a
    /// metric does not report it.
    pub fn delta_since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (k, v) in &self.counters {
            let d = v.saturating_sub(baseline.counters.get(k).copied().unwrap_or(0));
            if d != 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, h) in &self.histograms {
            let d = match baseline.histograms.get(k) {
                Some(b) => h.saturating_sub(b),
                None => h.clone(),
            };
            if !d.is_empty() {
                out.histograms.insert(k.clone(), d);
            }
        }
        out
    }

    /// A copy with every metric that follows the clock removed: span
    /// timings and busy/idle nano counters. What remains is deterministic:
    /// identical across runs and machines for the same workload and worker
    /// count (the `exec_*` pool metrics count the pool's runs and workers,
    /// which follow the worker count by design).
    pub fn without_wall_clock(&self) -> MetricsSnapshot {
        let mut out = self.clone();
        out.counters.retain(|k, _| {
            !(k.ends_with("_nanos_total")
                || (k.starts_with("span_") && k.ends_with("_calls_total")))
        });
        out
    }

    /// Render as versioned JSONL (format in the module docs). Lines are
    /// sorted by kind then name, so equal snapshots render byte-identically.
    pub fn to_jsonl(&self) -> String {
        let mut lines = Vec::with_capacity(1 + self.counters.len() + self.histograms.len());
        let header = obj(vec![
            ("schema", Value::String(SNAPSHOT_SCHEMA.to_string())),
            ("kind", Value::String("header".to_string())),
            ("counters", Value::UInt(self.counters.len() as u64)),
            ("histograms", Value::UInt(self.histograms.len() as u64)),
        ]);
        lines.push(render_line(&header));
        for (k, v) in &self.counters {
            let line = obj(vec![
                ("kind", Value::String("counter".to_string())),
                ("name", Value::String(k.clone())),
                ("value", Value::UInt(*v)),
            ]);
            lines.push(render_line(&line));
        }
        for (k, h) in &self.histograms {
            let buckets = Value::Array(h.buckets.iter().map(|&b| Value::UInt(b)).collect());
            let line = obj(vec![
                ("kind", Value::String("histogram".to_string())),
                ("name", Value::String(k.clone())),
                ("count", Value::UInt(h.count)),
                ("sum", Value::UInt(h.sum)),
                ("buckets", buckets),
            ]);
            lines.push(render_line(&line));
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Parse and validate a JSONL snapshot. Errors describe the offending
    /// line: wrong schema, unknown kind, malformed histogram (bucket count
    /// != [`HIST_BUCKETS`] or `count` != Σ buckets), or a count mismatch
    /// against the header.
    pub fn from_jsonl(text: &str) -> Result<MetricsSnapshot, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or("empty snapshot: no header line")?;
        let header: Value = serde_json::from_str(header_line)
            .map_err(|e| format!("header line is not JSON: {e}"))?;
        let schema = field_str(&header, "schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "snapshot schema {schema:?} != expected {SNAPSHOT_SCHEMA:?}"
            ));
        }
        if field_str(&header, "kind")? != "header" {
            return Err("first line must have kind \"header\"".to_string());
        }
        let want_counters = field_u64(&header, "counters")?;
        let want_hists = field_u64(&header, "histograms")?;

        let mut snap = MetricsSnapshot::new();
        for (i, line) in lines.enumerate() {
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: not JSON: {e}", i + 2))?;
            let kind = field_str(&v, "kind").map_err(|e| format!("line {}: {e}", i + 2))?;
            let name = field_str(&v, "name")
                .map_err(|e| format!("line {}: {e}", i + 2))?
                .to_string();
            match kind {
                "counter" => {
                    let value =
                        field_u64(&v, "value").map_err(|e| format!("line {}: {e}", i + 2))?;
                    snap.counters.insert(name, value);
                }
                "histogram" => {
                    let count =
                        field_u64(&v, "count").map_err(|e| format!("line {}: {e}", i + 2))?;
                    let sum = field_u64(&v, "sum").map_err(|e| format!("line {}: {e}", i + 2))?;
                    let buckets_v =
                        field(&v, "buckets").map_err(|e| format!("line {}: {e}", i + 2))?;
                    let items = match buckets_v {
                        Value::Array(items) => items,
                        other => {
                            return Err(format!(
                                "line {}: histogram buckets must be an array, found {other:?}",
                                i + 2
                            ))
                        }
                    };
                    if items.len() != HIST_BUCKETS {
                        return Err(format!(
                            "line {}: histogram {name:?} has {} buckets, expected {HIST_BUCKETS}",
                            i + 2,
                            items.len()
                        ));
                    }
                    let mut h = LocalHistogram::new();
                    for (j, item) in items.iter().enumerate() {
                        h.buckets[j] = match item {
                            Value::UInt(u) => *u,
                            Value::Int(n) if *n >= 0 => *n as u64,
                            other => {
                                return Err(format!(
                                    "line {}: bucket {j} of {name:?} is not a u64: {other:?}",
                                    i + 2
                                ))
                            }
                        };
                    }
                    let bucket_total: u64 = h.buckets.iter().sum();
                    if bucket_total != count {
                        return Err(format!(
                            "line {}: histogram {name:?} count {count} != bucket total {bucket_total}",
                            i + 2
                        ));
                    }
                    h.count = count;
                    h.sum = sum;
                    snap.histograms.insert(name, h);
                }
                other => return Err(format!("line {}: unknown kind {other:?}", i + 2)),
            }
        }
        if snap.counters.len() as u64 != want_counters || snap.histograms.len() as u64 != want_hists
        {
            return Err(format!(
                "header promised {want_counters} counters / {want_hists} histograms, found {} / {}",
                snap.counters.len(),
                snap.histograms.len()
            ));
        }
        Ok(snap)
    }

    /// Render in the Prometheus text exposition format (`# TYPE` comments,
    /// cumulative `_bucket{le="..."}` series, `_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("# TYPE {k} counter\n{k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("# TYPE {k} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cumulative += b;
                match bucket_upper_bound(i) {
                    Some(ub) => {
                        out.push_str(&format!("{k}_bucket{{le=\"{ub}\"}} {cumulative}\n"));
                    }
                    None => {
                        out.push_str(&format!("{k}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    }
                }
            }
            out.push_str(&format!("{k}_sum {}\n{k}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{
        EXEC_JOBS_TOTAL, EXEC_RUNS_TOTAL, EXEC_WORKERS_TOTAL, ROUTER_QUEUE_OCCUPANCY,
        ROUTER_RUNS_TOTAL, ROUTER_RUN_MAX_QUEUE, ROUTER_TICKS_TOTAL,
    };
    use crate::shard::LocalShard;

    fn sample() -> MetricsSnapshot {
        let mut s = LocalShard::new();
        s.add(EXEC_RUNS_TOTAL, 3);
        s.add(EXEC_JOBS_TOTAL, 1);
        s.add(EXEC_WORKERS_TOTAL, 4);
        for v in [0, 5, 5] {
            s.record(ROUTER_QUEUE_OCCUPANCY, v);
        }
        s.snapshot()
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let snap = sample();
        let text = snap.to_jsonl();
        let back = MetricsSnapshot::from_jsonl(&text).expect("parses");
        assert_eq!(back, snap);
        // Render is deterministic.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn from_jsonl_rejects_bad_input() {
        assert!(MetricsSnapshot::from_jsonl("").is_err());
        assert!(MetricsSnapshot::from_jsonl("{\"kind\":\"header\"}").is_err());
        for old in ["fcn-telemetry/1", "fcn-telemetry/9"] {
            let wrong_schema = format!(
                "{{\"schema\":\"{old}\",\"kind\":\"header\",\"counters\":0,\"gauges\":0,\"histograms\":0}}\n"
            );
            let err = MetricsSnapshot::from_jsonl(&wrong_schema).unwrap_err();
            assert!(err.contains("schema"), "{err}");
        }
        let gauge = format!(
            "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"kind\":\"header\",\"counters\":0,\"histograms\":0}}\n{{\"kind\":\"gauge\",\"name\":\"x\",\"value\":1}}\n"
        );
        let err = MetricsSnapshot::from_jsonl(&gauge).unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        let bad_count = format!(
            "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"kind\":\"header\",\"counters\":2,\"histograms\":0}}\n{{\"kind\":\"counter\",\"name\":\"x_total\",\"value\":1}}\n"
        );
        let err = MetricsSnapshot::from_jsonl(&bad_count).unwrap_err();
        assert!(err.contains("promised"), "{err}");
        // Histogram with mismatched count.
        let mut buckets = vec!["0"; HIST_BUCKETS];
        buckets[1] = "2";
        let bad_hist = format!(
            "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"kind\":\"header\",\"counters\":0,\"histograms\":1}}\n{{\"kind\":\"histogram\",\"name\":\"h\",\"count\":3,\"sum\":2,\"buckets\":[{}]}}\n",
            buckets.join(",")
        );
        let err = MetricsSnapshot::from_jsonl(&bad_hist).unwrap_err();
        assert!(err.contains("bucket total"), "{err}");
    }

    #[test]
    fn delta_since_subtracts_and_drops_zeroes() {
        let mut s = LocalShard::new();
        s.add(ROUTER_TICKS_TOTAL, 5);
        s.add(ROUTER_RUNS_TOTAL, 2);
        s.record(ROUTER_RUN_MAX_QUEUE, 1);
        let base = s.snapshot();
        s.add(ROUTER_TICKS_TOTAL, 7);
        s.record(ROUTER_RUN_MAX_QUEUE, 8);
        let now = s.snapshot();
        let d = now.delta_since(&base);
        assert_eq!(d.counters.get(ROUTER_TICKS_TOTAL), Some(&7));
        assert!(
            !d.counters.contains_key(ROUTER_RUNS_TOTAL),
            "zero delta dropped"
        );
        assert_eq!(d.histograms[ROUTER_RUN_MAX_QUEUE].count, 1);
        assert_eq!(d.histograms[ROUTER_RUN_MAX_QUEUE].sum, 8);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let snap = sample();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE exec_runs_total counter\nexec_runs_total 3\n"));
        assert!(text.contains("# TYPE exec_workers_total counter\nexec_workers_total 4\n"));
        assert!(!text.contains("gauge"), "{text}");
        assert!(text.contains("# TYPE router_queue_occupancy histogram\n"));
        // 0 falls in bucket 0 (le="0"), the two 5s in bucket 3 (le="7").
        let occ = "router_queue_occupancy";
        assert!(
            text.contains(&format!("{occ}_bucket{{le=\"0\"}} 1\n")),
            "{text}"
        );
        assert!(
            text.contains(&format!("{occ}_bucket{{le=\"7\"}} 3\n")),
            "{text}"
        );
        assert!(text.contains(&format!("{occ}_bucket{{le=\"+Inf\"}} 3\n")));
        assert!(text.ends_with(&format!("{occ}_sum 10\n{occ}_count 3\n")));
    }

    #[test]
    fn without_wall_clock_strips_span_and_nano_metrics() {
        let mut snap = sample();
        snap.counters.insert("span_run_calls_total".into(), 2);
        snap.counters.insert("span_run_nanos_total".into(), 999);
        snap.counters
            .insert("exec_worker_busy_nanos_total".into(), 123);
        let clean = snap.without_wall_clock();
        assert!(clean.counters.contains_key(EXEC_RUNS_TOTAL));
        assert!(clean.counters.contains_key(EXEC_WORKERS_TOTAL));
        assert!(!clean.counters.contains_key("span_run_calls_total"));
        assert!(!clean.counters.contains_key("span_run_nanos_total"));
        assert!(!clean.counters.contains_key("exec_worker_busy_nanos_total"));
    }
}
