//! The deadline-wrapping framed I/O layer.
//!
//! Every blocking socket read or write in this crate goes through
//! [`FramedConn`]. This file and its `chaos` child are the only home of raw
//! `read`/`write` calls and other blocking OS calls (the workspace test
//! `tests/workspace_rules.rs` scans the rest of the crate), so no code path
//! can accidentally block forever on a peer:
//!
//! * reads poll a caller-supplied stop flag at `poll_interval` while
//!   waiting *between* frames, so an idle connection observes a server
//!   drain promptly;
//! * writes run under a socket write timeout, so a stalled client cannot
//!   wedge a drain;
//! * frame lengths are bounded by [`MAX_FRAME_LEN`], so a corrupt header
//!   cannot allocate unboundedly.
//!
//! A frame is a big-endian `u32` payload length followed by that many
//! bytes of UTF-8 JSON.
//!
//! ## Chaos injection
//!
//! This module is also the single place a chaos decision is *applied*: the
//! decision types live in the child module `chaos` as `pub(super)` items,
//! so no other module can construct or match one. When a stream is attached
//! via `FramedConn::set_chaos`, every outgoing frame consults the
//! deterministic plan and may be reset mid-write, stalled, truncated, or
//! corrupted. Both corruption constructions are detectable **by
//! construction**: a corrupted length prefix always claims more than
//! [`MAX_FRAME_LEN`] (rejected before allocation), and a corrupted payload
//! always starts with an invalid UTF-8 byte (rejected before JSON decode) —
//! a damaged reply can surface only as a typed error, never as a
//! mis-parsed different reply.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub(crate) mod chaos;

use chaos::{ChaosAction, ChaosStream, CorruptTarget, ResetPoint};

/// Upper bound on a frame's payload length (64 MiB) — far above any real
/// report body, low enough that a corrupt length prefix cannot OOM the
/// server.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Default write timeout: a peer that cannot absorb a reply within this
/// window is treated as gone rather than allowed to wedge a drain.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// A length-prefixed frame connection over one [`TcpStream`].
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    chaos: Option<ChaosStream>,
}

/// Is this I/O error a read-timeout expiry (the poll tick), as opposed to
/// a real failure? Both kinds occur in practice depending on platform.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl FramedConn {
    /// Wrap an accepted stream, arming the write timeout and disabling
    /// Nagle: frames are written whole and the protocol is strictly
    /// request/reply, so coalescing only adds delayed-ACK latency (~40 ms
    /// per round trip) and buys nothing.
    pub fn new(stream: TcpStream) -> io::Result<FramedConn> {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(FramedConn {
            stream,
            chaos: None,
        })
    }

    /// Attach a chaos decision stream: every subsequent outgoing frame
    /// consults it. Used by the server's accept loop when a `ChaosPlan`
    /// is configured; never on the client side.
    pub(crate) fn set_chaos(&mut self, stream: ChaosStream) {
        self.chaos = Some(stream);
    }

    /// Connect to a server address and wrap the stream.
    pub fn connect(addr: &str) -> io::Result<FramedConn> {
        FramedConn::new(TcpStream::connect(addr)?)
    }

    /// Arm the between-frames poll interval: while waiting for the *start*
    /// of a frame, reads wake at this cadence to check the stop flag
    /// passed to [`FramedConn::read_frame`]. `None` blocks indefinitely
    /// (client mode: the reply is the only thing being waited on).
    pub fn set_poll_interval(&self, interval: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(interval)
    }

    /// Fill `buf` completely, retrying across poll-interval wakeups.
    ///
    /// `stop` is only honored while `may_stop_clean` is true *and* no byte
    /// of `buf` has been read yet — mid-frame, the read always runs to
    /// completion (a drain must not truncate a request already on the
    /// wire). Returns `Ok(false)` for a clean stop/EOF before the first
    /// byte, `Ok(true)` when `buf` is full.
    fn fill(
        &mut self,
        buf: &mut [u8],
        stop: Option<&AtomicBool>,
        may_stop_clean: bool,
    ) -> io::Result<bool> {
        let mut got = 0usize;
        while got < buf.len() {
            match self.stream.read(&mut buf[got..]) {
                Ok(0) => {
                    if got == 0 && may_stop_clean {
                        return Ok(false); // clean EOF at a frame boundary
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ));
                }
                Ok(n) => got += n,
                Err(e) if is_timeout(&e) => {
                    // ordering: the stop flag is a monotone drain hint set
                    // by the signal handler / test harness; Relaxed is
                    // sufficient for a poll.
                    if got == 0 && may_stop_clean && stop.is_some_and(|s| s.load(Ordering::Relaxed))
                    {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Read one frame. Returns `Ok(None)` on a clean close (EOF at a frame
    /// boundary) or when `stop` rises while no frame is in progress;
    /// errors on a mid-frame EOF or any real I/O failure.
    pub fn read_frame(&mut self, stop: Option<&AtomicBool>) -> io::Result<Option<Vec<u8>>> {
        let mut header = [0u8; 4];
        if !self.fill(&mut header, stop, true)? {
            return Ok(None);
        }
        let len = u32::from_be_bytes(header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"),
            ));
        }
        let mut payload = vec![0u8; len];
        self.fill(&mut payload, None, false)?;
        Ok(Some(payload))
    }

    /// Write one frame (header + payload) under the write timeout, applying
    /// the attached chaos stream's decision (if any) for this frame.
    pub fn write_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame length {} exceeds the {MAX_FRAME_LEN}-byte bound",
                    payload.len()
                ),
            ));
        }
        // One write for header + payload: a split write would put the
        // payload in a second TCP segment that (under Nagle) waits on the
        // peer's delayed ACK of the first.
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        let action = match self.chaos.as_mut() {
            Some(stream) => {
                let action = stream.next_action();
                stream.record(&action);
                action
            }
            None => ChaosAction::None,
        };
        match action {
            ChaosAction::None => {
                self.write_resumed(&frame)?;
                self.stream.flush()
            }
            ChaosAction::Stall(ms) => {
                // An injected stall is wall-clock by design: it models a
                // congested peer, feeds no simulated quantity, and is
                // bounded by the spec's max_stall_ms.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(Duration::from_millis(ms));
                self.write_resumed(&frame)?;
                self.stream.flush()
            }
            ChaosAction::Reset(point) => {
                let sent = match point {
                    ResetPoint::PreFrame => 0,
                    ResetPoint::MidHeader => 2.min(frame.len()),
                    ResetPoint::MidPayload => (4 + payload.len() / 2).min(frame.len()),
                };
                self.abort_frame(&frame[..sent], action.label())
            }
            ChaosAction::Truncate => {
                // Full-length header, payload short one byte: the reader's
                // fill() hits EOF mid-frame and reports UnexpectedEof.
                let sent = frame.len().saturating_sub(1);
                self.abort_frame(&frame[..sent], action.label())
            }
            ChaosAction::Corrupt(target) => {
                match target {
                    // Force the length prefix's high bit: the claimed
                    // length (≥ 2³¹) exceeds MAX_FRAME_LEN, so the reader
                    // rejects the header before allocating a byte.
                    CorruptTarget::Length => frame[0] |= 0x80,
                    // XOR the first payload byte with 0xFF: JSON starts
                    // with ASCII `{` (0x7B), which becomes 0x84 — an
                    // invalid UTF-8 continuation byte the reader rejects
                    // before JSON decode. An empty payload degrades to
                    // length corruption (nothing to flip).
                    CorruptTarget::Payload if payload.is_empty() => frame[0] |= 0x80,
                    CorruptTarget::Payload => frame[4] ^= 0xFF,
                }
                // The damaged frame is delivered whole — detection is the
                // *reader's* job — then the connection is closed: the wire
                // is poisoned and nothing after it can be trusted.
                self.abort_frame(&frame, action.label())
            }
        }
    }

    /// Write `buf` completely with an explicit resume loop: a partial
    /// `write` return or an `Interrupted` error (EINTR — exactly what a
    /// SIGTERM delivers to a thread mid-syscall) resumes from the next
    /// unsent byte, so a drain signal can never tear a frame. `Ok(0)` and
    /// write-timeout expiry surface as hard errors (a peer that stops
    /// absorbing bytes mid-frame must not wedge the drain).
    fn write_resumed(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut sent = 0usize;
        while sent < buf.len() {
            match self.stream.write(&buf[sent..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes mid-frame",
                    ))
                }
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Deliver `prefix` (possibly the whole damaged frame), then close both
    /// directions and report the injected fault as a connection error so
    /// the serving loop abandons the connection like a real network would.
    fn abort_frame(&mut self, prefix: &[u8], label: &str) -> io::Result<()> {
        if !prefix.is_empty() {
            self.write_resumed(prefix)?;
            self.stream.flush()?;
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("chaos: injected {label}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (FramedConn, FramedConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || FramedConn::connect(&addr.to_string()).unwrap());
        let (server, _) = listener.accept().unwrap();
        (FramedConn::new(server).unwrap(), client.join().unwrap())
    }

    #[test]
    fn frames_roundtrip() {
        let (mut server, mut client) = pair();
        client.write_frame(b"hello").unwrap();
        client.write_frame(b"").unwrap();
        client.write_frame("βΘ".as_bytes()).unwrap();
        assert_eq!(server.read_frame(None).unwrap().unwrap(), b"hello");
        assert_eq!(server.read_frame(None).unwrap().unwrap(), b"");
        assert_eq!(server.read_frame(None).unwrap().unwrap(), "βΘ".as_bytes());
    }

    #[test]
    fn clean_close_reads_as_none() {
        let (mut server, client) = pair();
        drop(client);
        assert!(server.read_frame(None).unwrap().is_none());
    }

    #[test]
    fn oversized_header_is_rejected_without_allocation() {
        let (mut server, mut client) = pair();
        // A raw header claiming 2^31 bytes.
        client
            .stream
            .write_all(&(1u32 << 31).to_be_bytes())
            .unwrap();
        let err = server.read_frame(None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn stop_flag_interrupts_an_idle_read() {
        let (mut server, _client) = pair();
        server
            .set_poll_interval(Some(Duration::from_millis(5)))
            .unwrap();
        let stop = AtomicBool::new(true); // pre-raised: first poll sees it
        assert!(server.read_frame(Some(&stop)).unwrap().is_none());
    }

    #[test]
    fn mid_frame_close_is_an_error_not_a_truncation() {
        let (mut server, mut client) = pair();
        client.stream.write_all(&8u32.to_be_bytes()).unwrap();
        client.stream.write_all(b"only4").unwrap();
        drop(client);
        let err = server.read_frame(None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    // ------------------------------------------------------------- chaos

    use super::chaos::{ChaosPlan, ChaosRates, ChaosSpec};

    /// A plan whose first decision on connection 0 matches `want`, found by
    /// scanning seeds (decisions are pure, so the scan is deterministic).
    fn plan_opening_with(rates: ChaosRates, want: fn(&ChaosAction) -> bool) -> ChaosPlan {
        for seed in 0..10_000u64 {
            let plan = ChaosPlan::new(ChaosSpec::new(seed, rates));
            let action = plan.stream(0).next_action();
            if want(&action) {
                return plan;
            }
        }
        panic!("no seed under 10000 opens with the requested action");
    }

    #[test]
    fn zero_rate_chaos_is_transparent() {
        let (mut server, mut client) = pair();
        let plan = ChaosPlan::new(ChaosSpec::new(7, ChaosRates::default()));
        server.set_chaos(plan.stream(0));
        for _ in 0..50 {
            server.write_frame(b"reply body").unwrap();
            assert_eq!(client.read_frame(None).unwrap().unwrap(), b"reply body");
        }
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn corrupted_length_prefix_is_rejected_before_allocation() {
        let rates = ChaosRates {
            corrupt: 1.0,
            ..ChaosRates::default()
        };
        let plan = plan_opening_with(rates, |a| {
            matches!(a, ChaosAction::Corrupt(CorruptTarget::Length))
        });
        let (mut server, mut client) = pair();
        server.set_chaos(plan.stream(0));
        let err = server.write_frame(b"{\"ok\":true}").unwrap_err();
        assert!(err.to_string().contains("chaos: injected corrupt"), "{err}");
        // The reader sees a length beyond MAX_FRAME_LEN: typed InvalidData,
        // no allocation, never a mis-parsed frame.
        let err = client.read_frame(None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(plan.stats().corruptions(), 1);
    }

    #[test]
    fn corrupted_payload_is_never_valid_utf8() {
        let rates = ChaosRates {
            corrupt: 1.0,
            ..ChaosRates::default()
        };
        let plan = plan_opening_with(rates, |a| {
            matches!(a, ChaosAction::Corrupt(CorruptTarget::Payload))
        });
        let (mut server, mut client) = pair();
        server.set_chaos(plan.stream(0));
        let original = b"{\"schema\":\"fcn-serve/1\",\"ok\":true}";
        assert!(server.write_frame(original).is_err());
        // The frame arrives whole (framing intact) but the payload can
        // never decode as a reply: byte 0 is an invalid UTF-8 start.
        let payload = client.read_frame(None).unwrap().unwrap();
        assert_eq!(payload.len(), original.len());
        assert_ne!(payload, original);
        assert!(String::from_utf8(payload).is_err());
    }

    #[test]
    fn truncated_frame_reads_as_unexpected_eof() {
        let rates = ChaosRates {
            truncate: 1.0,
            ..ChaosRates::default()
        };
        let plan = plan_opening_with(rates, |a| matches!(a, ChaosAction::Truncate));
        let (mut server, mut client) = pair();
        server.set_chaos(plan.stream(0));
        assert!(server.write_frame(b"a truncated reply body").is_err());
        let err = client.read_frame(None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(plan.stats().truncations(), 1);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn reset_points_cut_the_frame_where_decided() {
        let cases: [(fn(&ChaosAction) -> bool, bool); 3] = [
            (
                |a| matches!(a, ChaosAction::Reset(ResetPoint::PreFrame)),
                true, // nothing written: the reader sees a clean close
            ),
            (
                |a| matches!(a, ChaosAction::Reset(ResetPoint::MidHeader)),
                false, // 2 header bytes: mid-frame EOF
            ),
            (
                |a| matches!(a, ChaosAction::Reset(ResetPoint::MidPayload)),
                false, // header + half payload: mid-frame EOF
            ),
        ];
        for (want, clean_close) in cases {
            let rates = ChaosRates {
                reset: 1.0,
                ..ChaosRates::default()
            };
            let plan = plan_opening_with(rates, want);
            let (mut server, mut client) = pair();
            server.set_chaos(plan.stream(0));
            let err = server
                .write_frame(b"reply that never fully lands")
                .unwrap_err();
            assert!(err.to_string().contains("chaos: injected reset"), "{err}");
            if clean_close {
                assert!(client.read_frame(None).unwrap().is_none());
            } else {
                let err = client.read_frame(None).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            }
            assert_eq!(plan.stats().resets(), 1);
        }
    }

    #[test]
    fn stalled_frame_arrives_intact_after_the_delay() {
        let rates = ChaosRates {
            stall: 1.0,
            ..ChaosRates::default()
        };
        let plan = plan_opening_with(rates, |a| matches!(a, ChaosAction::Stall(_)));
        let (mut server, mut client) = pair();
        server.set_chaos(plan.stream(0));
        server.write_frame(b"slow but whole").unwrap();
        assert_eq!(client.read_frame(None).unwrap().unwrap(), b"slow but whole");
        assert_eq!(plan.stats().stalls(), 1);
    }

    /// Satellite pin: the write path's explicit resume loop. A multi-MiB
    /// reply far exceeds the socket buffer, so the kernel forces many
    /// partial `write` returns; the frame must still arrive bit-exact even
    /// though a drain signal (stop flag) rises mid-write — writes always
    /// run to completion, only *between-frame reads* honor the stop.
    #[test]
    fn drain_signal_mid_reply_never_tears_a_large_frame() {
        let (mut server, mut client) = pair();
        let payload: Vec<u8> = (0..16 << 20).map(|i| (i * 31 % 251) as u8).collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let expected = payload.clone();
            let reader = scope.spawn(move || {
                let got = client.read_frame(None).unwrap().unwrap();
                assert_eq!(got.len(), expected.len());
                assert!(got == expected, "large frame arrived torn");
                // The connection is still framed and usable afterwards.
                assert_eq!(client.read_frame(None).unwrap().unwrap(), b"after");
            });
            // Raise the drain flag while the 16 MiB write is in flight
            // (the writer blocks on socket backpressure until the reader
            // drains, so the flag is observably up mid-write).
            stop.store(true, Ordering::SeqCst);
            server.write_frame(&payload).unwrap();
            server.write_frame(b"after").unwrap();
            reader.join().unwrap();
        });
        assert!(stop.load(Ordering::SeqCst));
    }
}
