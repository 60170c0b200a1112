#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
//! # fcn-analyze — the workspace invariant checker
//!
//! Every number in the reproduced Tables 1–4 is bit-for-bit reproducible at
//! any `--jobs N`; the invariants that guarantee this (seeded RNG only,
//! typed errors, versioned JSON schemas, one telemetry name table,
//! justified atomics, a flat lock order, deadline-bounded service I/O)
//! used to live only in prose. This crate machine-checks the ones the
//! compiler and clippy cannot hold: a rustc-`tidy`-style, dependency-free
//! pass over the whole workspace. The toolchain holds the rest: the
//! vendored `rand` has no entropy-seeded constructor, so rustc rejects one;
//! every lib root denies clippy's panic-family lints; `clippy.toml` bans
//! wall-clock reads, hash-ordered collections and `std::sync::Mutex` (the
//! flat lock order is checked by `fcn_exec::sync::Lock` in debug builds);
//! and the chaos decision types are confined to `fcn-serve`'s I/O layer by
//! visibility.
//!
//! Analysis is one pass:
//!
//! 1. each file is scrubbed ([`source`]) and run through the four per-file
//!    rules ([`rules`]);
//! 2. each file is condensed into a symbol/event index ([`index`]), and the
//!    merged index set drives the three cross-file rules ([`graph`]) —
//!    `TEL-DEAD`, `SCHEMA-DRIFT`, `BLOCKING-IN-HANDLER` —
//!    plus the workspace halves of `SCHEMA-TAG` and `TEL-NAME`;
//! 3. findings are masked by inline suppressions.
//!
//! * Diagnostics: `path:line: [RULE-ID] message`.
//! * Suppression: `// fcn-allow: RULE-ID reason` on the offending line or
//!   the line above (an empty reason does not count). It is the only way
//!   to excuse a finding.
//! * Exit codes: 0 clean, 1 findings, 2 I/O or usage error.
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

use report::{Finding, Totals};
use source::SourceFile;

/// Outcome of one analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// Findings that survived suppressions and `--rule` filtering, sorted
    /// by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Run counters (drives the summary line and the exit code).
    pub totals: Totals,
}

/// Analyze in-memory `(path, text)` sources: per-file rules, cross-file
/// rules, then the rule filter and suppressions. The walker and the CLI
/// funnel here too, so fixtures and the real workspace share one code
/// path.
pub fn analyze_sources(sources: &[(String, String)], rule_filter: &[String]) -> Analysis {
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

    raw.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    raw.dedup();

    let by_path: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    let (masked, kept): (Vec<Finding>, Vec<Finding>) = raw.into_iter().partition(|f| {
        by_path
            .get(f.path.as_str())
            .is_some_and(|sf| sf.suppresses(f.rule, f.line))
    });

    let totals = Totals {
        files: files.len(),
        findings: kept.len(),
        suppressed: masked.len(),
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
    Ok(analyze_sources(&sources, rule_filter))
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
            "fn g(t: &Telemetry) { t.inc(\"router.batches\", 1); }\nfn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n",
        )];
        let all = analyze_sources(&sources, &[]);
        assert!(all.findings.iter().any(|f| f.rule == "TEL-NAME"));
        assert!(all.findings.iter().any(|f| f.rule == "ATOMIC-DOC"));
        let only = analyze_sources(&sources, &["TEL-NAME".to_string()]);
        assert!(only.findings.iter().all(|f| f.rule == "TEL-NAME"));
        assert_eq!(only.totals.findings, only.findings.len());
    }

    #[test]
    fn empty_reason_suppression_does_not_mask() {
        let sources = vec![src(
            "crates/routing/src/x.rs",
            "fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); } // fcn-allow: ATOMIC-DOC\n",
        )];
        let got = analyze_sources(&sources, &[]);
        assert_eq!(got.totals.findings, 1, "reason-less allow is ignored");
        assert_eq!(got.totals.suppressed, 0);
    }
}
