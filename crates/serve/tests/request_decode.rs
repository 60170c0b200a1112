//! `Request::decode` on untrusted frames.
//!
//! The daemon decodes every frame body in `handle_frame`, before admission
//! control, so the decoder must answer any valid UTF-8 input with `Ok` or
//! a typed `Err` — never a panic — and in time linear in the frame's size.
//! The property inputs are arbitrary strings and real `Request::encode`
//! frames with random byte flips, truncations and insertions, converted
//! back to valid UTF-8 the way the server sees them.

use fcn_serve::Request;
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters that exercise every branch of the JSON parser, plus
/// multibyte ones.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', 'u', 'n', 't', 'f', 'e', 'E', '-', '+', '.', '0',
    '1', '9', ' ', '\n', 'a', 'z', 'β', '≤', '😀',
];

/// A string drawn from [`ALPHABET`], or from all of Unicode for a large
/// selector.
fn text(picks: &[(u8, u32)]) -> String {
    picks
        .iter()
        .map(|&(sel, raw)| match ALPHABET.get(sel as usize % 40) {
            Some(&c) => c,
            None => char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// A request built from generated fields.
fn request(id: u64, kind: u8, args: &[(u8, u32)], deadline: Option<u64>) -> Request {
    let kind = ["beta", "audit", "faults", "metrics", "ping"][kind as usize % 5];
    let mut req = Request::new(id, kind, &[]);
    req.args = args.chunks(3).map(text).collect();
    req.deadline_ms = deadline;
    req.idem_key = deadline.map(|d| d ^ id);
    req
}

/// Apply byte edits to an encoded frame: `op % 3` flips a byte, truncates,
/// or inserts a byte at `at`.
fn mutate(frame: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = frame.as_bytes().to_vec();
    for &(op, at, b) in edits {
        let at = at % (bytes.len() + 1);
        match op % 3 {
            0 if at < bytes.len() => bytes[at] ^= b.max(1),
            1 => bytes.truncate(at),
            _ => bytes.insert(at, b),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decode `body`; every success must survive an encode/decode round trip.
fn check(body: &str) -> Result<(), String> {
    match Request::decode(body) {
        Err(_) => Ok(()),
        Ok(req) => match Request::decode(&req.encode()) {
            Ok(back) if back == req => Ok(()),
            other => Err(format!("{req:?} re-decoded as {other:?}")),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_decode_or_fail_typed(picks in vec((any::<u8>(), any::<u32>()), 0..64)) {
        let verdict = check(&text(&picks));
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn mutated_frames_decode_or_fail_typed(
        fields in (any::<u64>(), any::<u8>(), vec((any::<u8>(), any::<u32>()), 0..24), any::<u64>()),
        edits in vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..5),
    ) {
        let (id, kind, args, deadline) = fields;
        let req = request(id, kind, &args, (deadline % 2 == 0).then_some(deadline));
        let frame = req.encode();
        prop_assert_eq!(Request::decode(&frame), Ok(req));
        let verdict = check(&mutate(&frame, &edits));
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }
}

/// A frame holding one long argument decodes in linear time: the parser
/// used to re-validate the whole rest of the input for every character of
/// a string, so 256 KiB took seconds and a 64 MiB frame about a day.
#[test]
fn a_long_argument_decodes_in_linear_time() {
    let arg = "mesh2 β≤😀 ".repeat(256 * 1024 / 16);
    let req = Request::new(1, "beta", &[&arg]);
    let frame = req.encode();
    assert!(frame.len() >= 256 * 1024, "frame is {} bytes", frame.len());
    #[allow(clippy::disallowed_methods)] // times the decoder, not a simulation
    let start = std::time::Instant::now();
    let back = Request::decode(&frame);
    let took = start.elapsed();
    assert_eq!(back, Ok(req));
    assert!(took.as_secs_f64() < 1.0, "decoding 256 KiB took {took:?}");
}

/// A frame spelling its argument with `\u` escapes decodes like the raw
/// characters: a UTF-16 surrogate pair is one non-BMP scalar, as JSON
/// requires.
#[test]
fn an_escaped_non_bmp_argument_decodes_as_one_scalar() {
    let raw = Request::new(1, "beta", &["mesh2 😀"]);
    let escaped = raw.encode().replace('😀', r"\ud83d\ude00");
    assert_ne!(escaped, raw.encode());
    assert_eq!(Request::decode(&escaped), Ok(raw));
    // Half a pair is not a character.
    let lone = Request::new(1, "beta", &["mesh2 😀"])
        .encode()
        .replace('😀', r"\ud83d");
    assert!(Request::decode(&lone).is_err(), "{lone}");
}

/// A `\u` escape is exactly four hex digits; a signed number is not one.
#[test]
fn a_signed_unicode_escape_is_refused() {
    let frame = Request::new(1, "beta", &["A"])
        .encode()
        .replace(r#"["A"]"#, r#"["\u+041"]"#);
    assert!(frame.contains(r"\u+041"), "{frame}");
    assert!(Request::decode(&frame).is_err(), "{frame}");
}

/// An object naming a field twice is refused instead of one copy silently
/// winning.
#[test]
fn a_repeated_field_is_refused() {
    let frame = Request::new(7, "ping", &[]).encode();
    let twice = frame.replacen("{", r#"{"id":8,"#, 1);
    assert_eq!(twice.matches(r#""id":"#).count(), 2, "{twice}");
    let err = Request::decode(&twice).expect_err("a repeated id must be refused");
    assert!(err.contains("duplicate field `id`"), "{err}");
}
