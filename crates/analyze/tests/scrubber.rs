//! Property tests for the lexical scrubber.
//!
//! The scrubber is the foundation every rule stands on: if a string
//! payload leaks into the code plane, `ATOMIC-DOC` starts firing on
//! `"Ordering::Relaxed"` inside test fixtures; if code leaks into the comment
//! plane, suppressions stop matching. These tests generate random
//! sequences of adversarial lexical pieces — raw strings with hash
//! delimiters, byte strings, nested block comments, multiline literals —
//! and check the two invariants the scrub guarantees:
//!
//! 1. **Shape**: each plane of every line has exactly the raw line's
//!    char count, and each position is owned by exactly one plane (the
//!    other two hold a space).
//! 2. **Separation**: marker characters planted only in code (`K`),
//!    string payloads (`S`), and comment bodies (`Z`) never surface in
//!    another plane.

use fcn_analyze::source::SourceFile;
use proptest::prelude::*;

/// One adversarial lexical piece. `K` appears only in code, `S` only in
/// string payloads, `Z` only in comment bodies — the separation invariant
/// below leans on that.
fn piece(kind: u8, param: u8) -> String {
    let h = (param % 3) as usize + 1; // 1..=3 raw-string hashes
    match kind % 12 {
        0 => "let K = 1;".to_string(),
        1 => format!("\"S{}\"", "S".repeat(param as usize % 4)),
        // escaped quote and backslash inside a plain string
        2 => "\"S\\\"S\\\\S\"".to_string(),
        3 => "b\"S\\nS\"".to_string(),
        // raw string whose payload embeds a quote + fewer hashes than the
        // delimiter, so it must NOT terminate early
        4 => {
            let embedded = format!("\"{}", "#".repeat(h - 1));
            format!("r{0}\"S{embedded}S\"{0}", "#".repeat(h))
        }
        5 => "r\"SSS\"".to_string(),
        6 => format!("br{0}\"SS\"{0}", "#".repeat(h)),
        // line comment with in-comment string/block-comment openers; the
        // composer ends the line after it
        7 => "// Z \"Z\" /* Z".to_string(),
        8 => "/* Z /* Z */ Z */".to_string(),
        // multiline nested block comment
        9 => "/* Z\n Z /* Z\n Z */ Z */ let K = 2;".to_string(),
        // char literal holding a quote, plus a lifetime
        10 => "let K: &'a K = 'x'; let q = '\"';".to_string(),
        // multiline plain string
        11 => "\"S\nS S\"".to_string(),
        _ => unreachable!(),
    }
}

fn compose(pieces: &[(u8, u8)]) -> String {
    let mut out = String::new();
    for &(k, p) in pieces {
        let text = piece(k, p);
        let is_line_comment = text.starts_with("//");
        out.push_str(&text);
        // A line comment swallows the rest of the line; everything else is
        // self-terminating and joins with a space.
        out.push(if is_line_comment { '\n' } else { ' ' });
    }
    out.push('\n');
    out
}

/// Check both scrub invariants over `src`.
fn check_invariants(src: &str) -> Result<(), String> {
    let f = SourceFile::parse("crates/routing/src/fx.rs", src);
    let raws: Vec<&str> = src.split('\n').collect();
    if f.lines.len() != raws.len() {
        return Err(format!("line count {} != {}", f.lines.len(), raws.len()));
    }
    for (ln, (raw, line)) in raws.iter().zip(&f.lines).enumerate() {
        let rc: Vec<char> = raw.chars().collect();
        let cc: Vec<char> = line.code.chars().collect();
        let sc: Vec<char> = line.strings.chars().collect();
        let mc: Vec<char> = line.comment.chars().collect();
        if cc.len() != rc.len() || sc.len() != rc.len() || mc.len() != rc.len() {
            return Err(format!(
                "line {}: plane lengths {}/{}/{} != raw {} in {raw:?}",
                ln + 1,
                cc.len(),
                sc.len(),
                mc.len(),
                rc.len()
            ));
        }
        for i in 0..rc.len() {
            let owners: Vec<char> = [cc[i], sc[i], mc[i]]
                .into_iter()
                .filter(|c| *c != ' ')
                .collect();
            if rc[i] == ' ' {
                if !owners.is_empty() {
                    return Err(format!(
                        "line {} col {}: space owned by {owners:?} in {raw:?}",
                        ln + 1,
                        i + 1
                    ));
                }
            } else if owners.len() != 1 || owners[0] != rc[i] {
                return Err(format!(
                    "line {} col {}: char {:?} owned by {owners:?} in {raw:?}",
                    ln + 1,
                    i + 1,
                    rc[i]
                ));
            }
        }
    }
    let all_code: String = f.lines.iter().map(|l| l.code.as_str()).collect();
    let all_strings: String = f.lines.iter().map(|l| l.strings.as_str()).collect();
    let all_comment: String = f.lines.iter().map(|l| l.comment.as_str()).collect();
    for (plane, text, banned) in [
        ("code", &all_code, ['S', 'Z']),
        ("strings", &all_strings, ['K', 'Z']),
        ("comment", &all_comment, ['K', 'S']),
    ] {
        for b in banned {
            if text.contains(b) {
                return Err(format!("marker {b:?} leaked into the {plane} plane"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_piece_sequences_scrub_cleanly(
        pieces in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24)
    ) {
        if let Err(msg) = check_invariants(&compose(&pieces)) {
            let src = compose(&pieces);
            prop_assert!(false, "{msg}\nsource:\n{src}");
        }
    }
}

// ------------------------------------------------------- fixture edge cases

#[test]
fn raw_string_payload_stays_out_of_code() {
    let f = SourceFile::parse(
        "crates/routing/src/fx.rs",
        "let t = r##\"Ordering::Relaxed \"# still S\"##; let K = 1;\n",
    );
    assert!(!f.lines[0].code.contains("Relaxed"));
    assert!(f.lines[0].strings.contains("Ordering::Relaxed"));
    assert!(
        f.lines[0].strings.contains("\"# still S"),
        "a quote with too few hashes must not close the raw string"
    );
    assert!(f.lines[0].code.contains("let K = 1;"));
}

#[test]
fn byte_strings_scrub_like_strings() {
    let f = SourceFile::parse(
        "crates/routing/src/fx.rs",
        "let a = b\"Ordering::AcqRel\"; let b2 = br#\"Ordering::AcqRel\"#; let K = 0;\n",
    );
    assert!(!f.lines[0].code.contains("AcqRel"));
    assert_eq!(f.lines[0].strings.matches("Ordering::AcqRel").count(), 2);
    assert!(f.lines[0].code.contains("let K = 0;"));
}

#[test]
fn nested_block_comments_track_depth_across_lines() {
    let src = "a /* Z /* Z\n Z */ Z\n Z */ b\n";
    let f = SourceFile::parse("crates/routing/src/fx.rs", src);
    assert!(f.lines[0].code.contains('a'));
    assert!(
        f.lines[1].code.trim().is_empty(),
        "inner close stays comment"
    );
    assert!(f.lines[2].code.contains('b'), "outer close returns to code");
    assert!(f.lines[2].comment.contains('Z'));
}

#[test]
fn multiline_string_state_survives_newlines() {
    let src = "let t = \"S\nOrdering::Relaxed S\n S\"; a.load(Ordering::Relaxed);\n";
    let f = SourceFile::parse("crates/routing/src/fx.rs", src);
    assert!(f.lines[1].strings.contains("Ordering::Relaxed"));
    assert!(f.lines[1].code.trim().is_empty());
    assert!(
        f.lines[2].code.contains("Ordering::Relaxed"),
        "code resumes after close"
    );
}

#[test]
fn raw_identifiers_and_suffixed_names_do_not_open_raw_strings() {
    let src = "let r#match = K; let br2 = K; let b = K; r#match;\n";
    let f = SourceFile::parse("crates/routing/src/fx.rs", src);
    assert!(f.lines[0].code.contains("r#match"));
    assert!(f.lines[0].strings.trim().is_empty());
}
