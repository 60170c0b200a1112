//! `fcn-benchmark compare <set-A> <set-B>`: one row per (workload,
//! end-to-end metric) with each side's median and quartiles, judged
//! against the `BENCHMARK.json` bound.
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a side's spread (IQR / median) exceeds the bound and
//!   the runs do not all separate, so the sets cannot be told apart;
//! * `ok` — otherwise.

use crate::results::{parse_record, Bound, Record};
use crate::stats::{quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judge one metric's runs: `a` is the baseline set, `b` the candidate.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    let (_, ma, _) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let worse_by = if bound.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let max = |x: &[f64]| x.iter().cloned().fold(f64::MIN, f64::max);
    let min = |x: &[f64]| x.iter().cloned().fold(f64::MAX, f64::min);
    let separated = max(b) < min(a) || min(b) > max(a);
    let noisy = spread(a) > bound.bound || spread(b) > bound.bound;
    if noisy && !separated {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_record(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing is worse and every run
/// passed its checks.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let spec = crate::results::spec();
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    for r in a.iter().chain(&b).filter(|r| !r.outcome.correct) {
        println!(
            "incorrect run: {} seed {} (trace {})",
            r.workload, r.seed, r.trace
        );
        clean = false;
    }
    println!(
        "{:<13} {:<14} {:>28} {:>28}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for w in &spec.workloads {
        let runs = |set: &[Record]| -> Vec<Record> {
            set.iter()
                .filter(|r| &r.workload == w && !r.trace)
                .cloned()
                .collect()
        };
        let (ra, rb) = (runs(&a), runs(&b));
        if ra.len() < 2 || rb.len() < 2 {
            println!(
                "{w:<13} needs at least two untraced runs per set ({} vs {})",
                ra.len(),
                rb.len()
            );
            clean = false;
            continue;
        }
        for bound in &spec.end_to_end {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.outcome.metric(&bound.name))
                    .collect()
            };
            let (xa, xb) = (values(&ra), values(&rb));
            let (a1, a2, a3) = quartiles(&xa);
            let (b1, b2, b3) = quartiles(&xb);
            let verdict = judge(bound, &xa, &xb);
            clean &= verdict != Verdict::Worse;
            println!(
                "{w:<13} {:<14} {:>28} {:>28}  {verdict:?} (bound {}, n = {}/{})",
                bound.name,
                format!("{a2:.4} [{a1:.4}, {a3:.4}]"),
                format!("{b2:.4} [{b1:.4}, {b3:.4}]"),
                bound.bound,
                xa.len(),
                xb.len()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "op_p50_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.1, 100.1, 99.9];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&lower(0.10), &a, &same), Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &a, &slower), Verdict::Worse);
        let mut higher = lower(0.10);
        higher.higher_is_better = true;
        assert_eq!(judge(&higher, &a, &slower), Verdict::Ok);
        // Wide, overlapping runs cannot be told apart.
        let noisy = [60.0, 140.0, 100.0, 80.0, 130.0];
        assert_eq!(judge(&lower(0.10), &a, &noisy), Verdict::Unresolved);
        // Noisy but fully separated runs still resolve.
        let far = [200.0, 300.0, 250.0, 210.0, 290.0];
        assert_eq!(judge(&lower(0.10), &a, &far), Verdict::Worse);
    }
}
