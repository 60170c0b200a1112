//! `FramedConn::read_frame` on untrusted bytes.
//!
//! The daemon reads every request through `read_frame` before it decodes a
//! byte of it, so the framing layer must turn any byte stream into frames
//! or a typed error, never a panic and never an allocation past
//! `MAX_FRAME_LEN`. Each case writes a generated stream over a loopback TCP
//! pair, closes the writing side, and reads frames until the reader stops;
//! a model of the wire format predicts every outcome. The streams mix
//! well-formed frames with arbitrary (often non-UTF-8) payloads, length
//! prefixes over the bound, and headers or payloads cut short.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

use fcn_serve::io::MAX_FRAME_LEN;
use fcn_serve::FramedConn;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// What one `read_frame` call returns.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// A whole frame's payload.
    Frame(Vec<u8>),
    /// `Ok(None)`: the stream ended at a frame boundary.
    Closed,
    /// `InvalidData`: the length prefix exceeds `MAX_FRAME_LEN`.
    TooLong,
    /// `UnexpectedEof`: the stream ended inside a header or a payload.
    CutShort,
}

/// The wire format's reading of `bytes`: frames until the stream ends or
/// an error stops the reader.
fn model(bytes: &[u8]) -> Vec<Outcome> {
    let mut out = Vec::new();
    let mut at = 0;
    loop {
        let rest = &bytes[at..];
        if rest.is_empty() {
            out.push(Outcome::Closed);
            return out;
        }
        let Some(header) = rest.first_chunk::<4>() else {
            out.push(Outcome::CutShort);
            return out;
        };
        let len = u32::from_be_bytes(*header) as usize;
        if len > MAX_FRAME_LEN {
            out.push(Outcome::TooLong);
            return out;
        }
        let Some(payload) = rest[4..].get(..len) else {
            out.push(Outcome::CutShort);
            return out;
        };
        out.push(Outcome::Frame(payload.to_vec()));
        at += 4 + len;
    }
}

/// Send `bytes` over a loopback pair and read frames until the reader
/// stops; any other error kind fails the property.
fn read_all(bytes: &[u8]) -> Result<Vec<Outcome>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let (accepted, _) = listener.accept().map_err(|e| e.to_string())?;
    // The streams are a few KiB at most, well inside the socket buffers,
    // so the whole stream is written before the reader starts.
    writer.write_all(bytes).map_err(|e| e.to_string())?;
    writer
        .shutdown(Shutdown::Write)
        .map_err(|e| e.to_string())?;
    let mut conn = FramedConn::new(accepted).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    loop {
        let outcome = match conn.read_frame(None) {
            Ok(Some(payload)) => Outcome::Frame(payload),
            Ok(None) => Outcome::Closed,
            Err(e) if e.kind() == ErrorKind::InvalidData => Outcome::TooLong,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Outcome::CutShort,
            Err(e) => return Err(format!("untyped read error: {e}")),
        };
        let last = !matches!(outcome, Outcome::Frame(_));
        out.push(outcome);
        if last {
            return Ok(out);
        }
    }
}

/// One piece of a generated stream: `kind % 4` picks a well-formed frame,
/// a length prefix over the bound, a frame cut inside its payload, or a
/// header cut after `cut % 4` bytes.
fn piece(kind: u8, payload: &[u8], over: u32, cut: usize) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    match kind % 4 {
        0 => frame,
        1 => {
            let len = (MAX_FRAME_LEN as u32).saturating_add(1 + over % 1024);
            let len = if over.is_multiple_of(5) {
                u32::MAX
            } else {
                len
            };
            let mut bytes = len.to_be_bytes().to_vec();
            bytes.extend_from_slice(payload);
            bytes
        }
        2 => {
            frame.truncate(4 + cut % (payload.len() + 1));
            if payload.is_empty() {
                // An empty payload cannot be cut; claim one byte more.
                frame[..4].copy_from_slice(&1u32.to_be_bytes());
            } else if frame.len() == 4 + payload.len() {
                frame.pop();
            }
            frame
        }
        _ => frame[..cut % 4].to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn read_frame_types_every_stream(
        pieces in vec((any::<u8>(), vec(any::<u8>(), 0..64), any::<u32>(), any::<usize>()), 0..6),
    ) {
        let bytes: Vec<u8> = pieces
            .iter()
            .flat_map(|(kind, payload, over, cut)| piece(*kind, payload, *over, *cut))
            .collect();
        prop_assert_eq!(read_all(&bytes).map_err(TestCaseError::fail)?, model(&bytes));
    }

    #[test]
    fn read_frame_types_raw_bytes(bytes in vec(any::<u8>(), 0..96)) {
        prop_assert_eq!(read_all(&bytes).map_err(TestCaseError::fail)?, model(&bytes));
    }

    #[test]
    fn read_frame_returns_small_frames_verbatim(
        payloads in vec(vec(any::<u8>(), 0..48), 0..8),
    ) {
        let mut bytes = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&(p.len() as u32).to_be_bytes());
            bytes.extend_from_slice(p);
        }
        let mut want: Vec<Outcome> = payloads.into_iter().map(Outcome::Frame).collect();
        want.push(Outcome::Closed);
        prop_assert_eq!(read_all(&bytes).map_err(TestCaseError::fail)?, want);
    }
}

#[test]
fn the_largest_length_prefix_is_read_and_one_more_is_refused() {
    let at_bound = (MAX_FRAME_LEN as u32).to_be_bytes();
    // At the bound the reader allocates and then finds the stream cut.
    assert_eq!(read_all(&at_bound), Ok(vec![Outcome::CutShort]));
    let past = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
    assert_eq!(read_all(&past), Ok(vec![Outcome::TooLong]));
}
