//! Findings, baselines, and the `fcn-analyze/1` report format.
//!
//! Text diagnostics are `path:line: [RULE-ID] message`. JSON reports are
//! JSONL (matching the workspace's telemetry snapshots and BENCH files):
//! one header object followed by one object per finding, every
//! line stamped with the [`REPORT_SCHEMA`] tag. [`validate_report`] is the
//! matching line-numbered validator, exercised by CI and the test suite.

use std::fmt::Write as _;

/// Schema tag stamped on every line of a `--format json` report.
pub const REPORT_SCHEMA: &str = "fcn-analyze/1";

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id, e.g. `ERR-UNWRAP`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Stable identity used for baseline matching: line numbers churn under
    /// unrelated edits, so the baseline keys on `(path, rule, message)`.
    pub fn baseline_key(&self) -> String {
        format!("{} [{}] {}", self.path, self.rule, self.message)
    }

    /// The canonical text diagnostic.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Parse a committed baseline file: one [`Finding::baseline_key`] per line,
/// `#` comments and blank lines ignored.
pub fn parse_baseline(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Occurrence-indexed baseline keys for a `(path, line)`-ordered finding
/// slice: the first occurrence of a `(path, rule, message)` triple keeps
/// the plain [`Finding::baseline_key`]; the k-th repeat (same message on
/// another line — e.g. two identical `unwrap()` calls) gets ` (#k)`
/// appended. Without the index, one baseline entry would silently swallow
/// every later identical finding in the same file.
pub fn occurrence_keys(findings: &[Finding]) -> Vec<String> {
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    findings
        .iter()
        .map(|f| {
            let base = f.baseline_key();
            let n = counts.entry(base.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                base
            } else {
                format!("{base} (#{n})")
            }
        })
        .collect()
}

/// Render a baseline file body for `--write-baseline`. Keys are
/// occurrence-indexed (see [`occurrence_keys`]) so identical findings on
/// different lines stay individually tracked.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut keys = occurrence_keys(findings);
    keys.sort();
    let mut out = String::from(
        "# fcn-analyze baseline: grandfathered findings, one `path [RULE] message`\n\
         # per line. New findings not listed here fail the run. Keep this empty.\n",
    );
    for k in &keys {
        out.push_str(k);
        out.push('\n');
    }
    out
}

/// Summary counters for one analysis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Files scanned.
    pub files: usize,
    /// Findings reported (not suppressed, not baselined).
    pub findings: usize,
    /// Findings masked by inline `fcn-allow` suppressions.
    pub suppressed: usize,
    /// Findings masked by the committed baseline.
    pub baselined: usize,
}

/// Minimal JSON string escaping (the report never contains exotic payloads,
/// but paths and messages may contain quotes/backslashes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the `fcn-analyze/1` JSONL report: header first, findings after,
/// sorted by `(path, line, rule)`.
pub fn render_json(findings: &[Finding], totals: Totals) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"{REPORT_SCHEMA}\",\"kind\":\"header\",\"files\":{},\"findings\":{},\"suppressed\":{},\"baselined\":{}}}",
        totals.files, totals.findings, totals.suppressed, totals.baselined
    );
    for f in findings {
        let _ = writeln!(
            out,
            "{{\"schema\":\"{REPORT_SCHEMA}\",\"kind\":\"finding\",\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            esc(f.rule),
            esc(&f.path),
            f.line,
            esc(&f.message)
        );
    }
    out
}

/// Validate an `fcn-analyze/1` JSONL report, line-numbered on failure — the
/// same contract the workspace's BENCH and telemetry validators follow.
///
/// Checks: every line carries the schema tag; line 1 is the header; the
/// header's `findings` count matches the number of finding lines; every
/// finding line carries `rule`, `path`, `line`, and `message` fields.
pub fn validate_report(text: &str) -> Result<(), String> {
    let mut finding_lines = 0usize;
    let mut declared: Option<usize> = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let tag = format!("\"schema\":\"{REPORT_SCHEMA}\"");
        if !line.contains(&tag) {
            return Err(format!(
                "line {n}: missing or wrong schema tag (want {REPORT_SCHEMA})"
            ));
        }
        if n == 1 {
            if !line.contains("\"kind\":\"header\"") {
                return Err(format!("line {n}: first line must be the header"));
            }
            declared = Some(
                extract_usize(line, "\"findings\":")
                    .ok_or_else(|| format!("line {n}: header missing integer `findings` field"))?,
            );
            for key in ["\"files\":", "\"suppressed\":", "\"baselined\":"] {
                if extract_usize(line, key).is_none() {
                    return Err(format!("line {n}: header missing integer `{key}` field"));
                }
            }
            continue;
        }
        if !line.contains("\"kind\":\"finding\"") {
            return Err(format!("line {n}: expected a finding line"));
        }
        for key in ["\"rule\":\"", "\"path\":\"", "\"message\":\""] {
            if !line.contains(key) {
                return Err(format!("line {n}: finding missing `{key}` field"));
            }
        }
        if extract_usize(line, "\"line\":").is_none() {
            return Err(format!("line {n}: finding missing integer `line` field"));
        }
        finding_lines += 1;
    }
    match declared {
        None => Err("empty report: missing header line".to_string()),
        Some(d) if d != finding_lines => Err(format!(
            "header declares {d} findings but report contains {finding_lines}"
        )),
        Some(_) => Ok(()),
    }
}

fn extract_usize(line: &str, key: &str) -> Option<usize> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "DET-RNG",
                message: "entropy-seeded rng in simulation path".into(),
            },
            Finding {
                path: "crates/y/src/a.rs".into(),
                line: 9,
                rule: "ERR-UNWRAP",
                message: "`.unwrap()` in library code".into(),
            },
        ]
    }

    #[test]
    fn json_report_round_trips_through_validator() {
        let totals = Totals {
            files: 2,
            findings: 2,
            suppressed: 0,
            baselined: 0,
        };
        let text = render_json(&sample(), totals);
        validate_report(&text).expect("self-emitted report validates");
    }

    #[test]
    fn validator_rejects_wrong_tag_and_count_mismatch() {
        let good = render_json(
            &sample(),
            Totals {
                files: 2,
                findings: 2,
                ..Totals::default()
            },
        );
        let bad_tag = good.replace("fcn-analyze/1", "fcn-analyze/9");
        let err = validate_report(&bad_tag).unwrap_err();
        assert!(err.contains("line 1"), "{err}");

        let truncated: String = good.lines().take(2).map(|l| format!("{l}\n")).collect();
        let err = validate_report(&truncated).unwrap_err();
        assert!(
            err.contains("declares 2 findings but report contains 1"),
            "{err}"
        );
    }

    #[test]
    fn validator_reports_missing_fields_with_line_numbers() {
        let text = format!(
            "{{\"schema\":\"{REPORT_SCHEMA}\",\"kind\":\"header\",\"files\":1,\"findings\":1,\"suppressed\":0,\"baselined\":0}}\n{{\"schema\":\"{REPORT_SCHEMA}\",\"kind\":\"finding\",\"rule\":\"X\",\"line\":1}}\n"
        );
        let err = validate_report(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn baseline_round_trip() {
        let body = render_baseline(&sample());
        let keys = parse_baseline(&body);
        assert_eq!(keys.len(), 2);
        assert!(keys[0].contains("[DET-RNG]"));
    }

    #[test]
    fn occurrence_keys_distinguish_identical_findings() {
        let mut fs = sample();
        let mut dup = fs[0].clone();
        dup.line = 17;
        fs.push(dup);
        let keys = occurrence_keys(&fs);
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[0], fs[0].baseline_key());
        assert_eq!(keys[2], format!("{} (#2)", fs[0].baseline_key()));
        // a baseline written from these findings masks each exactly once
        let body = render_baseline(&fs);
        assert_eq!(parse_baseline(&body).len(), 3);
    }
}
