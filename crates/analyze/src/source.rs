//! Source model: a scrubbed, region-classified view of one `.rs` file.
//!
//! The analyzer is deliberately `syn`-free (it must keep working under the
//! vendored-shim constraint and before the workspace compiles), so every
//! rule runs over a *scrubbed* view of the source produced by a small
//! character-level state machine:
//!
//! * [`ScrubbedLine::code`] — the line with comment bodies and string/char
//!   *contents* blanked to spaces (the delimiting quotes survive, so
//!   call-shape patterns like `.add("` still match);
//! * [`ScrubbedLine::strings`] — only the in-string bytes (schema tags live
//!   here);
//! * [`ScrubbedLine::comment`] — only the comment bytes (suppressions and
//!   `// ordering:` justifications live here).
//!
//! On top of the scrub, [`SourceFile`] marks *test regions* — the brace
//! spans of items annotated `#[cfg(test)]` or `#[test]` — and collects
//! `// fcn-allow: RULE-ID reason` suppressions.

/// One physical line, split into its three lexical planes.
#[derive(Debug, Clone, Default)]
pub struct ScrubbedLine {
    /// Code with comments removed and string/char contents blanked.
    pub code: String,
    /// Only the bytes that were inside string literals.
    pub strings: String,
    /// Only the bytes that were inside comments.
    pub comment: String,
}

/// Broad file classification driving per-rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `crates/*/src` or the root `src/`.
    Lib,
    /// Binary targets (`src/bin/*`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/` directories).
    Test,
    /// Cargo bench targets (`benches/` directories).
    Bench,
    /// Example programs (`examples/`).
    Example,
    /// Non-Rust gate files (CI workflows): scanned for schema tags only.
    /// Their whole text lands in the strings plane; code and comment planes
    /// stay empty so no code rule can fire on them.
    Gate,
}

/// An inline `// fcn-allow: RULE-ID reason` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line the comment sits on (suppresses this line and the next).
    pub line: usize,
    /// Rule id the suppression names.
    pub rule: String,
    /// Free-text justification (must be non-empty to count).
    pub reason: String,
    /// Set by the analyzer when the suppression actually masked a finding.
    pub used: std::cell::Cell<bool>,
}

/// A fully scrubbed and classified source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Classification from the path shape.
    pub kind: FileKind,
    /// Owning crate (`fcn-emu` for the workspace root targets).
    pub crate_name: String,
    /// Scrubbed lines, index 0 = line 1.
    pub lines: Vec<ScrubbedLine>,
    /// True where the line sits inside a `#[cfg(test)]`/`#[test]` item.
    pub test_lines: Vec<bool>,
    /// All inline suppressions, in line order.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Scrub `text` (as found at workspace-relative `path`).
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let kind = classify(path);
        let crate_name = crate_of(path);
        let lines = if kind == FileKind::Gate {
            // Gate files are not Rust: expose the raw text as "strings" so
            // the schema-tag scanner sees it, and nothing else does.
            text.split('\n')
                .map(|l| ScrubbedLine {
                    code: String::new(),
                    strings: l.to_string(),
                    comment: String::new(),
                })
                .collect()
        } else {
            scrub(text)
        };
        let test_lines = mark_test_regions(&lines);
        let suppressions = collect_suppressions(&lines);
        SourceFile {
            path: path.to_string(),
            kind,
            crate_name,
            lines,
            test_lines,
            suppressions,
        }
    }

    /// Is 1-based `line` inside a test region (or is the whole file tests)?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.kind == FileKind::Test || self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Does an `fcn-allow` for `rule` cover 1-based `line`? Marks it used.
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        for s in &self.suppressions {
            if s.rule == rule && (s.line == line || s.line + 1 == line) {
                s.used.set(true);
                return true;
            }
        }
        false
    }
}

/// Classify a workspace-relative path into a [`FileKind`].
pub fn classify(path: &str) -> FileKind {
    if !path.ends_with(".rs") {
        FileKind::Gate
    } else if path.starts_with("tests/") || path.contains("/tests/") {
        FileKind::Test
    } else if path.starts_with("benches/") || path.contains("/benches/") {
        FileKind::Bench
    } else if path.starts_with("examples/") || path.contains("/examples/") {
        FileKind::Example
    } else if path.contains("/src/bin/") || path.ends_with("src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Owning crate name for a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "fcn-emu".to_string()
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// The character-level scrub pass. Handles line/block (nested) comments,
/// string and raw-string literals, char literals vs lifetimes, and escapes.
fn scrub(text: &str) -> Vec<ScrubbedLine> {
    let mut out: Vec<ScrubbedLine> = Vec::new();
    let mut state = State::Code;
    for raw_line in text.split('\n') {
        let mut code = String::with_capacity(raw_line.len());
        let mut strings = String::with_capacity(raw_line.len());
        let mut comment = String::with_capacity(raw_line.len());
        let chars: Vec<char> = raw_line.chars().collect();
        let mut i = 0usize;
        // Push one char into exactly one plane, space-padding the others.
        macro_rules! put {
            (code $c:expr) => {{
                code.push($c);
                strings.push(' ');
                comment.push(' ');
            }};
            (strings $c:expr) => {{
                code.push(' ');
                strings.push($c);
                comment.push(' ');
            }};
            (comment $c:expr) => {{
                code.push(' ');
                strings.push(' ');
                comment.push($c);
            }};
        }
        while i < chars.len() {
            let c = chars[i];
            match state {
                State::Code => {
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        state = State::LineComment;
                        put!(comment c);
                        i += 1;
                        put!(comment '/');
                        i += 1;
                        continue;
                    }
                    if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::BlockComment(1);
                        put!(comment c);
                        i += 1;
                        put!(comment '*');
                        i += 1;
                        continue;
                    }
                    if c == '"' {
                        state = State::Str;
                        put!(code c);
                        i += 1;
                        continue;
                    }
                    // Raw strings: r"..." / r#"..."# / br#"..."# etc.
                    if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                        let mut j = i;
                        if c == 'b' && chars.get(j + 1) == Some(&'r') {
                            j += 1;
                        }
                        if chars[j] == 'r' || c == 'r' {
                            let mut hashes = 0u32;
                            let mut k = j + 1;
                            while chars.get(k) == Some(&'#') {
                                hashes += 1;
                                k += 1;
                            }
                            if chars.get(k) == Some(&'"') && (chars[j] == 'r') {
                                // emit the prefix as code, enter raw string
                                while i <= k {
                                    put!(code chars[i]);
                                    i += 1;
                                }
                                state = State::RawStr(hashes);
                                continue;
                            }
                        }
                    }
                    // Char literal vs lifetime.
                    if c == '\'' {
                        if let Some(len) = char_literal_len(&chars, i) {
                            // keep the quotes in code, blank the payload
                            put!(code '\'');
                            for &ch in &chars[(i + 1)..(i + len - 1)] {
                                put!(strings ch);
                            }
                            put!(code '\'');
                            i += len;
                            continue;
                        }
                        // lifetime: plain code
                        put!(code c);
                        i += 1;
                        continue;
                    }
                    put!(code c);
                    i += 1;
                }
                State::LineComment => {
                    put!(comment c);
                    i += 1;
                }
                State::BlockComment(depth) => {
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        put!(comment c);
                        i += 1;
                        put!(comment '/');
                        i += 1;
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        continue;
                    }
                    if c == '/' && chars.get(i + 1) == Some(&'*') {
                        put!(comment c);
                        i += 1;
                        put!(comment '*');
                        i += 1;
                        state = State::BlockComment(depth + 1);
                        continue;
                    }
                    put!(comment c);
                    i += 1;
                }
                State::Str => {
                    if c == '\\' && i + 1 < chars.len() {
                        put!(strings c);
                        i += 1;
                        put!(strings chars[i]);
                        i += 1;
                        continue;
                    }
                    if c == '"' {
                        put!(code c);
                        i += 1;
                        state = State::Code;
                        continue;
                    }
                    put!(strings c);
                    i += 1;
                }
                State::RawStr(hashes) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if chars.get(i + 1 + k as usize) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            put!(code '"');
                            i += 1;
                            for _ in 0..hashes {
                                put!(code '#');
                                i += 1;
                            }
                            state = State::Code;
                            continue;
                        }
                    }
                    put!(strings c);
                    i += 1;
                }
            }
        }
        // A line comment never spans lines; strings keep their state.
        if state == State::LineComment {
            state = State::Code;
        }
        out.push(ScrubbedLine {
            code,
            strings,
            comment,
        });
    }
    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If `chars[i]` opens a char literal, its total length (incl. quotes).
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            let esc = *chars.get(i + 2)?;
            if esc == 'u' {
                // '\u{…}': scan to the closing quote
                let mut j = i + 3;
                while j < chars.len() && j < i + 13 {
                    if chars[j] == '\'' {
                        return Some(j - i + 1);
                    }
                    j += 1;
                }
                None
            } else if chars.get(i + 3) == Some(&'\'') {
                Some(4) // '\n', '\\', '\''
            } else {
                None
            }
        }
        &c => {
            if chars.get(i + 2) == Some(&'\'') && c != '\'' {
                Some(3)
            } else {
                None
            }
        }
    }
}

/// Mark the brace spans of `#[cfg(test)]` / `#[test]` items.
fn mark_test_regions(lines: &[ScrubbedLine]) -> Vec<bool> {
    let mut marks = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // Armed: saw a test attribute at `depth`, waiting for the item's `{`.
    let mut armed_at: Option<i64> = None;
    // Active test region: depth *before* its opening brace.
    let mut region_depth: Option<i64> = None;
    for (ln, line) in lines.iter().enumerate() {
        let code = &line.code;
        if region_depth.is_none()
            && (code.contains("#[cfg(test)]")
                || code.contains("#[cfg(all(test")
                || code.contains("#[test]")
                || code.contains("#[bench]"))
        {
            armed_at = Some(depth);
        }
        if region_depth.is_some() {
            marks[ln] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(a) = armed_at {
                        if depth == a {
                            region_depth = Some(depth);
                            armed_at = None;
                            marks[ln] = true;
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(r) = region_depth {
                        if depth == r {
                            region_depth = None;
                        }
                    }
                }
                ';' => {
                    // attribute applied to a brace-less item ended
                    if let Some(a) = armed_at {
                        if depth == a {
                            armed_at = None;
                            marks[ln] = true;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    marks
}

/// Collect `fcn-allow: RULE-ID reason` markers from the comment plane.
fn collect_suppressions(lines: &[ScrubbedLine]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let c = &line.comment;
        if let Some(pos) = c.find("fcn-allow:") {
            let rest = c[pos + "fcn-allow:".len()..].trim();
            let mut parts = rest.splitn(2, char::is_whitespace);
            let rule = parts.next().unwrap_or("").trim().to_string();
            let reason = parts.next().unwrap_or("").trim().to_string();
            if !rule.is_empty() {
                out.push(Suppression {
                    line: ln + 1,
                    rule,
                    reason,
                    used: std::cell::Cell::new(false),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_separates_planes() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1;";
        let lines = scrub(src);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].strings.contains("HashMap"));
        assert!(lines[0].comment.contains("HashMap here"));
        assert!(lines[0].code.contains("let x = \""));
    }

    #[test]
    fn scrub_handles_block_comments_and_raw_strings() {
        let src = "a /* panic!( \n still comment \n */ b r#\"panic!(\"# c";
        let lines = scrub(src);
        assert!(lines[0].code.contains('a'));
        assert!(!lines[0].code.contains("panic"));
        assert!(lines[1].comment.contains("still comment"));
        assert!(lines[2].code.contains('b'));
        assert!(lines[2].code.contains('c'));
        assert!(!lines[2].code.contains("panic"));
        assert!(lines[2].strings.contains("panic!("));
    }

    #[test]
    fn scrub_handles_char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = x; }";
        let lines = scrub(src);
        // the quote inside the char literal must not open a string
        assert!(lines[0].code.contains("let d = x"));
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "// fcn-allow: DET-TIME bench timing\nlet t = 1;\nlet u = 2;\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.suppressed("DET-TIME", 1));
        assert!(f.suppressed("DET-TIME", 2));
        assert!(!f.suppressed("DET-TIME", 3));
        assert!(!f.suppressed("DET-HASH", 2));
    }

    #[test]
    fn classify_kinds() {
        assert_eq!(classify("crates/routing/src/lib.rs"), FileKind::Lib);
        assert_eq!(classify("crates/bench/src/bin/table1.rs"), FileKind::Bin);
        assert_eq!(classify("crates/cli/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("tests/chaos.rs"), FileKind::Test);
        assert_eq!(classify("crates/routing/tests/t.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/benches/routing.rs"), FileKind::Bench);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(classify(".github/workflows/ci.yml"), FileKind::Gate);
    }

    #[test]
    fn gate_files_surface_text_as_strings_only() {
        let f = SourceFile::parse(
            ".github/workflows/ci.yml",
            "run: grep -q 'fcn-analyze/1' report.json\n",
        );
        assert_eq!(f.kind, FileKind::Gate);
        assert!(f.lines[0].strings.contains("fcn-analyze/1"));
        assert!(f.lines[0].code.is_empty());
    }
}
