#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fcn-analyze — the workspace invariant checker
//!
//! Every number in the reproduced Tables 1–4 is bit-for-bit reproducible at
//! any `--jobs N`; the invariants that guarantee this (seeded RNG only,
//! typed errors, versioned JSON schemas, one telemetry name table,
//! justified atomics, a total lock order, deadline-bounded service I/O)
//! used to live only in prose. This crate makes the ones the compiler
//! and clippy cannot hold machine-checked: a rustc-`tidy`-style,
//! dependency-free pass over the whole workspace. Wall-clock reads and
//! hash-ordered collections are banned by `clippy.toml`, and the chaos
//! decision types are confined to `fcn-serve`'s I/O layer by visibility.
//!
//! Analysis is one pass:
//!
//! 1. each file is scrubbed ([`source`]) and run through the six per-file
//!    rules ([`rules`]);
//! 2. each file is condensed into a symbol/event index ([`index`]), and the
//!    merged index set drives the four cross-file rules ([`graph`]) —
//!    `LOCK-ORDER`, `TEL-DEAD`, `SCHEMA-DRIFT`, `BLOCKING-IN-HANDLER` —
//!    plus the workspace halves of `SCHEMA-TAG` and `TEL-NAME`;
//! 3. findings are masked by inline suppressions, then by the baseline.
//!
//! * Diagnostics: `path:line: [RULE-ID] message`; `--format json` emits the
//!   validated [`report::REPORT_SCHEMA`] JSONL report.
//! * Suppression: `// fcn-allow: RULE-ID reason` on the offending line or
//!   the line above (an empty reason does not count).
//! * Baseline: `fcn-analyze.baseline` at the workspace root grandfathers
//!   findings by occurrence-indexed `(path, rule, message)` keys; the
//!   committed baseline is empty and the CI `analysis` job keeps it that
//!   way.
//! * Exit codes: 0 clean, 1 new findings, 2 I/O or usage error.
//!
//! See DESIGN.md "§ Static analysis & enforced invariants" for the rule
//! table and the rationale tying each rule to a determinism pin.

pub mod graph;
pub mod index;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

use std::collections::BTreeMap;
use std::path::Path;

use report::{occurrence_keys, Finding, Totals};
use source::SourceFile;

/// Outcome of one analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// Findings that survived suppressions, the baseline, and `--rule`
    /// filtering, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Run counters (drives the report header and the exit code).
    pub totals: Totals,
}

/// Analyze in-memory `(path, text)` sources: per-file rules, cross-file
/// rules, then the rule filter, suppressions, and the baseline. The walker
/// and the CLI funnel here too, so fixtures and the real workspace share
/// one code path.
pub fn analyze_sources(
    sources: &[(String, String)],
    rule_filter: &[String],
    baseline: &[String],
) -> Analysis {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, t)| SourceFile::parse(p, t))
        .collect();
    let mut raw: Vec<Finding> = files.iter().flat_map(rules::check_file).collect();
    let indexes: Vec<index::FileIndex> = files.iter().map(index::build_index).collect();
    raw.extend(graph::check_workspace(&indexes));

    if !rule_filter.is_empty() {
        raw.retain(|f| rule_filter.iter().any(|r| r == f.rule));
    }

    // Sort and dedup *before* masking so occurrence indexes are stable.
    raw.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    raw.dedup();

    let by_path: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    let (masked, unmasked): (Vec<Finding>, Vec<Finding>) = raw.into_iter().partition(|f| {
        by_path
            .get(f.path.as_str())
            .is_some_and(|sf| sf.suppresses(f.rule, f.line))
    });

    // Baseline masking by occurrence-indexed key: the k-th identical
    // finding needs the k-th key, so a single baseline entry can never
    // swallow a newly introduced duplicate.
    let keys = occurrence_keys(&unmasked);
    let mut baselined = 0usize;
    let mut kept: Vec<Finding> = Vec::new();
    for (f, key) in unmasked.into_iter().zip(keys) {
        if baseline.contains(&key) {
            baselined += 1;
        } else {
            kept.push(f);
        }
    }

    let totals = Totals {
        files: files.len(),
        findings: kept.len(),
        suppressed: masked.len(),
        baselined,
    };
    Analysis {
        findings: kept,
        totals,
    }
}

/// Analyze the on-disk workspace rooted at `root`, optionally restricted to
/// `paths` (root-relative prefixes).
pub fn analyze_workspace(
    root: &Path,
    paths: &[String],
    rule_filter: &[String],
    baseline: &[String],
) -> std::io::Result<Analysis> {
    let mut sources = walk::collect_sources(root)?;
    if !paths.is_empty() {
        let norm: Vec<String> = paths
            .iter()
            .map(|p| p.trim_start_matches("./").trim_end_matches('/').to_string())
            .collect();
        sources.retain(|(p, _)| {
            norm.iter()
                .any(|q| p == q || p.starts_with(&format!("{q}/")))
        });
    }
    Ok(analyze_sources(&sources, rule_filter, baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, body: &str) -> (String, String) {
        (path.to_string(), body.to_string())
    }

    #[test]
    fn rule_filter_restricts_output() {
        let sources = vec![src(
            "crates/routing/src/x.rs",
            "fn g() { let _r = rand::thread_rng(); }\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )];
        let all = analyze_sources(&sources, &[], &[]);
        assert!(all.findings.iter().any(|f| f.rule == "DET-RNG"));
        assert!(all.findings.iter().any(|f| f.rule == "ERR-UNWRAP"));
        let only = analyze_sources(&sources, &["DET-RNG".to_string()], &[]);
        assert!(only.findings.iter().all(|f| f.rule == "DET-RNG"));
        assert_eq!(only.totals.findings, only.findings.len());
    }

    #[test]
    fn baseline_masks_by_key_not_line() {
        let sources = vec![src(
            "crates/routing/src/x.rs",
            "\n\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )];
        let first = analyze_sources(&sources, &[], &[]);
        assert_eq!(first.totals.findings, 1);
        let keys: Vec<String> = first.findings.iter().map(|f| f.baseline_key()).collect();
        let second = analyze_sources(&sources, &[], &keys);
        assert_eq!(second.totals.findings, 0);
        assert_eq!(second.totals.baselined, 1);
    }

    #[test]
    fn baseline_entries_mask_one_occurrence_each() {
        // Two byte-identical findings on different lines: one baseline key
        // must mask exactly one of them, not both (the pre-occurrence-index
        // behavior collapsed b to dead weight).
        let sources = vec![src(
            "crates/routing/src/x.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )];
        let all = analyze_sources(&sources, &[], &[]);
        assert_eq!(all.totals.findings, 2, "duplicates must not collapse");

        let one_key = vec![all.findings[0].baseline_key()];
        let partial = analyze_sources(&sources, &[], &one_key);
        assert_eq!(partial.totals.findings, 1, "one key masks one occurrence");
        assert_eq!(partial.totals.baselined, 1);

        let full = report::parse_baseline(&report::render_baseline(&all.findings));
        let none = analyze_sources(&sources, &[], &full);
        assert_eq!(none.totals.findings, 0);
        assert_eq!(none.totals.baselined, 2);
    }

    #[test]
    fn empty_reason_suppression_does_not_mask() {
        let sources = vec![src(
            "crates/routing/src/x.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // fcn-allow: ERR-UNWRAP\n",
        )];
        let got = analyze_sources(&sources, &[], &[]);
        assert_eq!(got.totals.findings, 1, "reason-less allow is ignored");
        assert_eq!(got.totals.suppressed, 0);
    }
}
