#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fcn-analyze — the workspace invariant checker
//!
//! Every number in the reproduced Tables 1–4 is bit-for-bit reproducible at
//! any `--jobs N`; the invariants that guarantee this (seeded RNG only, no
//! wall clock in simulation paths, no hash-order iteration, typed errors,
//! versioned JSON schemas, one telemetry name table, justified atomics, a
//! total lock order) used to live in reviewers' heads. This crate makes
//! them machine-checked: a rustc-`tidy`-style, dependency-free pass over
//! the whole workspace.
//!
//! Analysis runs in two phases:
//!
//! 1. **Per-file** ([`phase1`]): each file is scrubbed ([`source`]), run
//!    through the nine per-file rules ([`rules`]), and condensed into a
//!    lightweight symbol/event index ([`index`]). The triple (findings,
//!    suppressions, index) is a [`FileArtifact`] — the unit of the
//!    incremental [`cache`].
//! 2. **Cross-file** ([`graph`]): the merged index set drives the four
//!    workspace rules — `LOCK-ORDER`, `TEL-DEAD`, `SCHEMA-DRIFT`,
//!    `BLOCKING-IN-HANDLER` — plus the workspace halves of `SCHEMA-TAG`
//!    and `TEL-NAME`.
//!
//! * Diagnostics: `path:line: [RULE-ID] message`; `--format json` emits the
//!   validated [`report::REPORT_SCHEMA`] JSONL report; `--format sarif`
//!   emits a SARIF 2.1.0 log for code-scanning UIs.
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

pub mod cache;
pub mod graph;
pub mod index;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

use std::path::Path;

use report::{occurrence_keys, Finding, Totals};
use source::SourceFile;

/// A suppression in cacheable form (no interior mutability, no source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedSuppression {
    /// 1-based line of the `fcn-allow` comment (covers this line and the next).
    pub line: usize,
    /// Rule id it names.
    pub rule: String,
    /// Justification text (must be non-empty to mask anything).
    pub reason: String,
}

/// Everything phase 1 produces for one file: the unit of caching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileArtifact {
    /// Workspace-relative path.
    pub path: String,
    /// Raw per-file findings (pre-suppression, pre-baseline).
    pub findings: Vec<Finding>,
    /// Inline suppressions found in the file.
    pub suppressions: Vec<CachedSuppression>,
    /// The phase-1 symbol/event index.
    pub index: index::FileIndex,
}

/// Run phase 1 on one file: scrub, per-file rules, index.
pub fn phase1(path: &str, text: &str) -> FileArtifact {
    let sf = SourceFile::parse(path, text);
    let findings = rules::check_file(&sf);
    let idx = index::build_index(&sf);
    let suppressions = sf
        .suppressions
        .iter()
        .map(|s| CachedSuppression {
            line: s.line,
            rule: s.rule.clone(),
            reason: s.reason.clone(),
        })
        .collect();
    FileArtifact {
        path: path.to_string(),
        findings,
        suppressions,
        index: idx,
    }
}

/// Outcome of one analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// Findings that survived suppressions, the baseline, and `--rule`
    /// filtering, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Run counters (drives the report header and the exit code).
    pub totals: Totals,
}

/// Phase 2 + filtering: combine per-file artifacts with the cross-file
/// rules, then apply the rule filter, suppressions, and the baseline.
pub fn analyze_artifacts(
    artifacts: &[FileArtifact],
    rule_filter: &[String],
    baseline: &[String],
) -> Analysis {
    let indexes: Vec<index::FileIndex> = artifacts.iter().map(|a| a.index.clone()).collect();

    let mut raw: Vec<Finding> = Vec::new();
    for a in artifacts {
        raw.extend(a.findings.iter().cloned());
    }
    raw.extend(graph::check_workspace(&indexes));

    if !rule_filter.is_empty() {
        raw.retain(|f| rule_filter.iter().any(|r| r == f.rule));
    }

    // Sort and dedup *before* masking so occurrence indexes are stable.
    raw.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    raw.dedup();

    let by_path = |p: &str| artifacts.iter().find(|a| a.path == p);
    let mut suppressed = 0usize;
    let mut unmasked: Vec<Finding> = Vec::new();
    for f in raw {
        let masked = by_path(&f.path)
            .map(|a| {
                a.suppressions.iter().any(|s| {
                    !s.reason.is_empty()
                        && s.rule == f.rule
                        && (s.line == f.line || s.line + 1 == f.line)
                })
            })
            .unwrap_or(false);
        if masked {
            suppressed += 1;
        } else {
            unmasked.push(f);
        }
    }

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
        files: artifacts.len(),
        findings: kept.len(),
        suppressed,
        baselined,
    };
    Analysis {
        findings: kept,
        totals,
    }
}

/// Analyze in-memory sources (the unit-test entry point; the walker and CLI
/// both funnel here so fixtures and the real workspace share one code path).
pub fn analyze_sources(
    sources: &[(String, String)],
    rule_filter: &[String],
    baseline: &[String],
) -> Analysis {
    let artifacts: Vec<FileArtifact> = sources.iter().map(|(p, t)| phase1(p, t)).collect();
    analyze_artifacts(&artifacts, rule_filter, baseline)
}

/// Analyze the on-disk workspace rooted at `root`, optionally restricted to
/// `paths` (root-relative prefixes).
pub fn analyze_workspace(
    root: &Path,
    paths: &[String],
    rule_filter: &[String],
    baseline: &[String],
) -> std::io::Result<Analysis> {
    analyze_workspace_cached(root, paths, rule_filter, baseline, None)
}

/// [`analyze_workspace`] with an optional incremental cache: phase-1
/// artifacts of files whose content hash matches the cache are reused
/// verbatim; phase 2 always reruns. The (possibly refreshed) cache is
/// written back to `cache_path` after analysis.
pub fn analyze_workspace_cached(
    root: &Path,
    paths: &[String],
    rule_filter: &[String],
    baseline: &[String],
    cache_path: Option<&Path>,
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

    let cached = cache_path
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|text| cache::parse(&text))
        .unwrap_or_default();

    let mut artifacts: Vec<(FileArtifact, u64)> = Vec::with_capacity(sources.len());
    for (path, text) in &sources {
        let hash = cache::fnv1a64(text);
        let artifact = match cached.get(path) {
            Some((h, a)) if *h == hash => a.clone(),
            _ => phase1(path, text),
        };
        artifacts.push((artifact, hash));
    }

    if let Some(p) = cache_path {
        let entries: Vec<(&FileArtifact, u64)> = artifacts.iter().map(|(a, h)| (a, *h)).collect();
        std::fs::write(p, cache::render(&entries))?;
    }

    let plain: Vec<FileArtifact> = artifacts.into_iter().map(|(a, _)| a).collect();
    Ok(analyze_artifacts(&plain, rule_filter, baseline))
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
            "use std::collections::HashMap;\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )];
        let all = analyze_sources(&sources, &[], &[]);
        assert!(all.findings.iter().any(|f| f.rule == "DET-HASH"));
        assert!(all.findings.iter().any(|f| f.rule == "ERR-UNWRAP"));
        let only = analyze_sources(&sources, &["DET-HASH".to_string()], &[]);
        assert!(only.findings.iter().all(|f| f.rule == "DET-HASH"));
        assert_eq!(only.totals.findings, only.findings.len());
    }

    #[test]
    fn baseline_masks_by_key_not_line() {
        let sources = vec![src(
            "crates/routing/src/x.rs",
            "\n\nuse std::collections::HashMap;\n",
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
            "use std::collections::HashMap;\nuse std::collections::HashMap;\n",
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
            "use std::collections::HashMap; // fcn-allow: DET-HASH\n",
        )];
        let got = analyze_sources(&sources, &[], &[]);
        assert_eq!(got.totals.findings, 1, "reason-less allow is ignored");
    }

    #[test]
    fn artifacts_from_phase1_match_direct_analysis() {
        let sources = vec![
            src(
                "crates/telemetry/src/names.rs",
                "pub const X: &str = \"x_total\";\n",
            ),
            src("crates/routing/src/x.rs", "fn f() { names::X; }\n"),
        ];
        let direct = analyze_sources(&sources, &[], &[]);
        let arts: Vec<FileArtifact> = sources.iter().map(|(p, t)| phase1(p, t)).collect();
        let via_artifacts = analyze_artifacts(&arts, &[], &[]);
        assert_eq!(direct.findings, via_artifacts.findings);
        assert_eq!(direct.totals, via_artifacts.totals);
    }
}
