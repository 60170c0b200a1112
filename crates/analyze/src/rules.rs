//! The rule set: seven invariant checks (four per-file, three cross-file).
//!
//! | id | invariant it pins |
//! |----|-------------------|
//! | `SCHEMA-TAG` | every JSON emitter stamps a versioned `fcn-*/N` tag |
//! | `TEL-NAME`   | telemetry metric names come from one const table |
//! | `ATOMIC-DOC` | every atomic `Ordering::` carries a justification |
//! | `SERVE-DEADLINE` | service-crate sockets speak only through the framed I/O layer |
//! | `TEL-DEAD`   | every telemetry name is recorded somewhere |
//! | `SCHEMA-DRIFT` | emitter, validator, and CI gate agree on every tag's version |
//! | `BLOCKING-IN-HANDLER` | no blocking I/O reachable from fcn-serve handlers |
//!
//! What the toolchain already holds is not a rule here. Entropy-seeded
//! randomness does not compile: the vendored `rand`'s only constructor is
//! `SeedableRng::seed_from_u64`. Every workspace lib root denies clippy's
//! `unwrap_used`, `expect_used`, `panic`, `todo` and `unimplemented`, and
//! `clippy.toml` bans wall-clock reads, hash-ordered collections and
//! `std::sync::Mutex` (every lock is an `fcn_exec::sync::Lock`, whose debug
//! builds check the flat lock order at run time).
//!
//! Per-file rules run over the scrubbed planes of [`SourceFile`]; matches
//! inside strings, comments, and `#[cfg(test)]` regions never fire (except
//! where a rule explicitly reads the string or comment plane). The three
//! cross-file rules live in [`crate::graph`] and run over the
//! [`crate::index::FileIndex`] set.

use crate::report::Finding;
use crate::source::{FileKind, SourceFile};

/// All rule ids with one-line rationales (drives `--list` and the docs).
pub const RULES: &[(&str, &str)] = &[
    (
        "SCHEMA-TAG",
        "every serde_json emitter stamps a versioned fcn-*/N schema tag with a matching validator",
    ),
    (
        "TEL-NAME",
        "telemetry metric names must come from the fcn_telemetry::names const table",
    ),
    (
        "ATOMIC-DOC",
        "every atomic Ordering:: use carries an `// ordering:` justification comment",
    ),
    (
        "SERVE-DEADLINE",
        "raw socket reads/writes in fcn-serve only inside the framed I/O layer (io.rs): \
         every other path must go through FramedConn so no request can outlive its \
         deadline or wedge a drain on a stalled peer",
    ),
    (
        "TEL-DEAD",
        "every const in the telemetry names table is recorded somewhere: dead names \
         are schema noise",
    ),
    (
        "SCHEMA-DRIFT",
        "every fcn-*/N schema tag carries one version everywhere it appears — \
         emitters, validators, and CI gate files — so a bump cannot leave a stale \
         reader or gate behind",
    ),
    (
        "BLOCKING-IN-HANDLER",
        "no blocking socket/fs/process call reachable from an fcn-serve request \
         handler outside the framed I/O layer (io.rs): handlers run under the \
         request deadline and must never wedge on the OS",
    ),
];

/// The one file in fcn-serve allowed to call raw socket reads/writes: the
/// deadline-wrapping framed I/O layer itself.
pub const SERVE_IO_ALLOWLIST: &[&str] = &["crates/serve/src/io.rs"];

/// True if `id` names a known rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// Byte offsets of `pat` in `code` honoring identifier boundaries on
/// whichever ends of the pattern are identifier characters.
pub(crate) fn token_hits(code: &str, pat: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let bytes = code.as_bytes();
    let first_ident = pat
        .chars()
        .next()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false);
    let last_ident = pat
        .chars()
        .last()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false);
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        let ok_before = !first_ident || at == 0 || !is_ident(bytes[at - 1]);
        let end = at + pat.len();
        let ok_after = !last_ident || end >= bytes.len() || !is_ident(bytes[end]);
        if ok_before && ok_after {
            hits.push(at);
        }
        from = at + pat.len().max(1);
    }
    hits
}

/// Does `code` contain `pat` as the *prefix* of an identifier/path (word
/// boundary before, free continuation after)? Used for validator detection,
/// where `validate_rows`, `from_jsonl`, `from_str` all count.
pub(crate) fn has_prefix_token(code: &str, pat: &str) -> bool {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        if at == 0 || !is_ident(bytes[at - 1]) {
            return true;
        }
        from = at + pat.len().max(1);
    }
    false
}

/// Push one `rule` finding for each non-test line whose code plane holds
/// any of `pats`, worded by `message` for the first pattern that hits.
fn flag_lines(
    sf: &SourceFile,
    rule: &'static str,
    pats: &[&str],
    message: impl Fn(&str) -> String,
    out: &mut Vec<Finding>,
) {
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        if let Some(pat) = pats.iter().find(|p| !token_hits(&line.code, p).is_empty()) {
            out.push(Finding {
                path: sf.path.clone(),
                line: ln,
                rule,
                message: message(pat),
            });
        }
    }
}

/// The `fcn-xyz/N` schema-tag pattern, scanned over the string plane.
pub(crate) fn schema_tags_in(strings: &str) -> Vec<String> {
    let mut tags = Vec::new();
    let bytes = strings.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = strings[from..].find("fcn-") {
        let start = from + pos;
        let mut end = start + 4;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'-')
        {
            end += 1;
        }
        if end < bytes.len() && bytes[end] == b'/' {
            let mut v = end + 1;
            while v < bytes.len() && bytes[v].is_ascii_digit() {
                v += 1;
            }
            if v > end + 1 && end > start + 4 {
                tags.push(strings[start..v].to_string());
                from = v;
                continue;
            }
        }
        from = start + 4;
    }
    tags
}

/// SCHEMA-TAG, per-file half: a serde_json emit call in a file with no
/// versioned tag anywhere in its (non-test) string literals.
fn schema_tag_file(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind != FileKind::Lib && sf.kind != FileKind::Bin {
        return;
    }
    // A file is "tagged" if it carries an `fcn-*/N` literal itself or
    // references a shared `*SCHEMA*` const (the bench bins stamp rows via
    // consts exported from the bench library).
    let has_tag = sf.lines.iter().enumerate().any(|(i, l)| {
        !sf.is_test_line(i + 1)
            && (!schema_tags_in(&l.strings).is_empty() || l.code.contains("SCHEMA"))
    });
    if has_tag {
        return;
    }
    flag_lines(
        sf,
        "SCHEMA-TAG",
        &["serde_json::to_string", "to_writer("],
        |_| {
            "serde_json emitter in a file with no versioned `fcn-*/N` schema \
             tag: stamp the payload and validate it on read"
                .to_string()
        },
        out,
    );
}

/// TEL-NAME, per-file half: string literals fed straight into telemetry
/// calls instead of `fcn_telemetry::names` consts.
fn tel_name(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind != FileKind::Lib && sf.kind != FileKind::Bin {
        return;
    }
    if sf.path == "crates/telemetry/src/names.rs" {
        return; // the table itself
    }
    let pats = [
        ".add(\"",
        ".inc(\"",
        ".record(\"",
        ".set_gauge(\"",
        ".record_histogram(\"",
        ".record_span(\"",
        ".counter(\"",
        ".gauge(\"",
        ".histogram(\"",
        "Span::enter(\"",
    ];
    flag_lines(
        sf,
        "TEL-NAME",
        &pats,
        |pat| {
            format!(
                "metric name passed as a string literal to `{}`: use a const \
                 from fcn_telemetry::names so names cannot drift",
                pat.trim_end_matches('"')
            )
        },
        out,
    );
}

/// ATOMIC-DOC: atomic orderings without an `// ordering:` justification.
///
/// An `// ordering:` comment covers every `Ordering::` use in the
/// contiguous block that follows it: coverage starts at the comment and
/// ends at the first fully blank line (no code, no comment). This matches
/// how the comments are written in practice — one justification heads a
/// paragraph of related atomic operations (e.g. the bucket/count/sum triple
/// of a histogram record) without requiring the marker to be restated on
/// every statement.
fn atomic_doc(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind == FileKind::Test {
        return;
    }
    let mut covered = false;
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if line.code.trim().is_empty() && line.comment.trim().is_empty() {
            covered = false; // blank line ends the justified paragraph
            continue;
        }
        if line.comment.contains("ordering:") {
            covered = true;
        }
        if sf.is_test_line(ln) {
            continue;
        }
        let pats = [
            "Ordering::Relaxed",
            "Ordering::Acquire",
            "Ordering::Release",
            "Ordering::AcqRel",
            "Ordering::SeqCst",
        ];
        let Some(pat) = pats.iter().find(|p| !token_hits(&line.code, p).is_empty()) else {
            continue;
        };
        if !covered {
            out.push(Finding {
                path: sf.path.clone(),
                line: ln,
                rule: "ATOMIC-DOC",
                message: format!(
                    "`{pat}` without an `// ordering:` justification comment \
                     heading its paragraph (same contiguous non-blank block)"
                ),
            });
        }
    }
}

/// SERVE-DEADLINE: raw blocking socket calls in fcn-serve outside the
/// framed I/O layer. The service's liveness contract — a deadline-armed
/// watchdog can always cancel a request, and a drain can always finish —
/// holds only because every blocking read polls the stop flag and every
/// write runs under a timeout, and *that* holds only while all socket
/// traffic funnels through `FramedConn` in `io.rs`. A bare `.read(` /
/// `.write_all(` anywhere else is a path a stalled peer can wedge forever.
/// BLOCKING-IN-HANDLER does not cover these: it sees only path-qualified
/// calls (`fs::read_to_string`, `TcpStream::connect`), never method calls.
fn serve_deadline(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind != FileKind::Lib || sf.crate_name != "serve" {
        return;
    }
    if SERVE_IO_ALLOWLIST.contains(&sf.path.as_str()) {
        return;
    }
    let pats = [
        ".read(",
        ".read_exact(",
        ".read_to_end(",
        ".write(",
        ".write_all(",
        ".flush(",
    ];
    flag_lines(
        sf,
        "SERVE-DEADLINE",
        &pats,
        |pat| {
            format!(
                "raw socket call `{}` outside the framed I/O layer: route it \
                 through FramedConn (crates/serve/src/io.rs) so the read polls \
                 the stop flag and the write runs under a timeout",
                pat.trim_start_matches('.')
            )
        },
        out,
    );
}

/// Run every per-file rule over `sf`.
pub fn check_file(sf: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    schema_tag_file(sf, &mut out);
    tel_name(sf, &mut out);
    atomic_doc(sf, &mut out);
    serve_deadline(sf, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_hits_respect_boundaries() {
        assert_eq!(token_hits("let m = HashMap::new();", "HashMap").len(), 1);
        assert!(token_hits("let m = MyHashMapx;", "HashMap").is_empty());
        assert_eq!(token_hits("x.unwrap();", ".unwrap()").len(), 1);
        assert!(token_hits("x.unwrap_or(0);", ".unwrap()").is_empty());
        assert!(token_hits("x.expect_err(e);", ".expect(").is_empty());
    }

    #[test]
    fn schema_tag_scanner_finds_versioned_tags() {
        assert_eq!(
            schema_tags_in("   fcn-telemetry/1   fcn-x/12 "),
            vec!["fcn-telemetry/1".to_string(), "fcn-x/12".to_string()]
        );
        assert!(schema_tags_in(" fcn-/1 fcn-abc ").is_empty());
    }
}
