//! In-memory span recorder and the `fcn-benchmark-trace/1` span file.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer (see `layers.rs`); the program itself carries no spans. A span
//! is `(name, start, end, parent, req)`: `req` groups the spans of one
//! served request or one estimator cell. Self time is a span's duration
//! minus the part of its interval that its children cover, so the self
//! times of a sequential trace sum to its root's wall time exactly.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Value;

/// Schema tag of the span file: one header line, then one line per span.
pub const TRACE_SCHEMA: &str = "fcn-benchmark-trace/1";

/// The benchmark's only wall-clock read.
#[allow(clippy::disallowed_methods)] // a benchmark's product is elapsed time
pub fn now() -> Instant {
    Instant::now()
}

/// Sleep until `due` (no-op when it has passed).
#[allow(clippy::disallowed_methods)] // paces the open-loop request generator
pub fn sleep_until(due: Instant) {
    let left = due.saturating_duration_since(now());
    if left > Duration::ZERO {
        std::thread::sleep(left);
    }
}

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread; ids are indices in open order, so a
/// parent's id is always below its children's.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Record a span whose ends were timed elsewhere.
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        })
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let t = self.ns(now());
        self.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            req,
        })
    }

    pub fn close(&self, id: usize) {
        let t = self.ns(now());
        self.spans.lock().expect("span list lock")[id].end_ns = t;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list lock")
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own (children may overlap when they ran on
/// parallel pool workers).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Render the span file: a header naming the workload, then one span a line.
pub fn to_jsonl(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = serde_json::to_string(&Value::Object(vec![
        ("schema".into(), Value::String(TRACE_SCHEMA.into())),
        ("workload".into(), Value::String(workload.into())),
        ("seed".into(), Value::UInt(seed)),
        ("spans".into(), Value::UInt(spans.len() as u64)),
    ]))
    .expect("span header renders");
    out.push('\n');
    for (id, s) in spans.iter().enumerate() {
        let line = Value::Object(vec![
            ("id".into(), Value::UInt(id as u64)),
            ("name".into(), Value::String(s.name.into())),
            ("start_ns".into(), Value::UInt(s.start_ns)),
            ("end_ns".into(), Value::UInt(s.end_ns)),
            (
                "parent".into(),
                s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
            ),
            ("req".into(), Value::UInt(s.req)),
        ]);
        out.push_str(&serde_json::to_string(&line).expect("span renders"));
        out.push('\n');
    }
    out
}

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    match serde::value_field(v, key).map_err(|e| e.to_string())? {
        Value::UInt(u) => Ok(*u),
        other => Err(format!(
            "{key}: expected an unsigned integer, found {other:?}"
        )),
    }
}

/// Check a span file: the tag, the declared span count, sequential ids,
/// parents opened before their children, and `start <= end`. Returns the
/// number of spans.
pub fn validate_trace(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    let header: Value = serde_json::from_str(lines.next().ok_or("empty span file")?)
        .map_err(|e| format!("header: {e}"))?;
    match serde::value_field(&header, "schema") {
        Ok(Value::String(s)) if s == TRACE_SCHEMA => {}
        other => {
            return Err(format!(
                "header schema: expected {TRACE_SCHEMA}, got {other:?}"
            ))
        }
    }
    let declared = uint(&header, "spans")? as usize;
    let mut count = 0usize;
    for (i, line) in lines.enumerate() {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("span {i}: {e}"))?;
        if uint(&v, "id")? as usize != i {
            return Err(format!("span {i}: ids must be sequential"));
        }
        if let Ok(Value::UInt(p)) = serde::value_field(&v, "parent") {
            if *p as usize >= i {
                return Err(format!("span {i}: parent {p} is not an earlier span"));
            }
        }
        if uint(&v, "start_ns")? > uint(&v, "end_ns")? {
            return Err(format!("span {i}: ends before it starts"));
        }
        count += 1;
    }
    if count != declared {
        return Err(format!("header declares {declared} spans, found {count}"));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children (parallel workers) cover [10, 60).
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            // A child overrunning its parent is clipped to [90, 100).
            span("c", 90, 120, Some(0)),
            span("a.inner", 20, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 35, 30, 30, 5]);
    }

    #[test]
    fn sequential_self_times_sum_to_the_root() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("x", 0, 400, Some(0)),
            span("y", 400, 900, Some(0)),
            span("y.z", 500, 600, Some(2)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name["root"], 100e-9);
        assert_eq!(by_name["y"], 400e-9);
    }

    #[test]
    fn span_file_round_trips_through_its_validator() {
        let tracer = Tracer::new();
        let root = tracer.open("iteration", None, 0);
        tracer.time("routing.plan", Some(root), 3, || ());
        tracer.close(root);
        let spans = tracer.into_spans();
        let text = to_jsonl("beta-bfs", 1, &spans);
        assert_eq!(validate_trace(&text), Ok(2));
        assert!(validate_trace(&text.replace(TRACE_SCHEMA, "fcn-other/1")).is_err());
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(validate_trace(&truncated).is_err());
    }
}
