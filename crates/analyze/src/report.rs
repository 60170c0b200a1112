//! Findings and the run totals.
//!
//! A finding renders as the text diagnostic `path:line: [RULE-ID] message`;
//! [`Totals`] drives the one-line summary on stderr and the exit code.

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id, e.g. `ATOMIC-DOC`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The canonical text diagnostic.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Summary counters for one analysis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Files scanned.
    pub files: usize,
    /// Findings reported (not suppressed).
    pub findings: usize,
    /// Findings masked by inline `fcn-allow` suppressions.
    pub suppressed: usize,
}
