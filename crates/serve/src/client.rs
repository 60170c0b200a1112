//! Blocking client for the `fcn-serve/1` protocol.
//!
//! One [`Client`] owns one connection and issues requests sequentially,
//! allocating monotonically increasing ids and checking that each reply
//! echoes the id of the request it answers. Concurrency is achieved by
//! opening more clients, not by pipelining on one connection.
//!
//! ## Retries
//!
//! [`Client::connect_retrying`] layers a seeded retry loop on top: when the
//! transport fails mid-exchange (a chaos reset, a torn frame, a corrupted
//! reply) or the server sheds the request as `Overloaded`, the client
//! reconnects and re-sends after a deterministic backoff drawn from
//! [`fcn_exec::backoff_ms`] — exponential with decorrelated jitter, a pure
//! function of `(retry seed, request index, attempt)`, so the schedule is
//! byte-identical at any concurrency. Each logical request carries an
//! idempotency key derived from the same stream; a retried request whose
//! first attempt actually completed is answered from the server's bounded
//! reply cache instead of executing twice, which is what makes the retried
//! run's payloads byte-identical to a clean single-attempt run. When the
//! budget is exhausted the last failure surfaces as the typed
//! [`ClientError::RetriesExhausted`].

use std::fmt;
use std::io;
use std::time::Duration;

use fcn_exec::{backoff_ms, job_seed};
use fcn_telemetry::names;

use crate::io::FramedConn;
use crate::proto::{ErrorKind, Request, Response};

/// Domain separator for idempotency keys: request `i` of a retrying client
/// carries `job_seed(retry_seed ^ IDEM_STREAM, i)`, decorrelated from the
/// backoff draws taken from the same base seed.
const IDEM_STREAM: u64 = 0x1de3_9a11_0000_0001;

/// Retry budget and backoff shape for [`Client::connect_retrying`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per logical request (1 = no retries). Clamped ≥ 1.
    pub attempts: u32,
    /// Backoff base, milliseconds (first-retry minimum wait).
    pub base_ms: u64,
    /// Backoff cap, milliseconds (window never grows past this).
    pub cap_ms: u64,
    /// Seed for the backoff jitter and idempotency-key streams.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy suited to tests and the chaos smoke: `attempts` tries with
    /// a fast 1–50 ms jittered backoff.
    pub fn fast(attempts: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            attempts,
            base_ms: 1,
            cap_ms: 50,
            seed,
        }
    }
}

/// Why a client call failed before a well-formed response arrived.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(io::Error),
    /// The server sent bytes that do not decode as an `fcn-serve/1`
    /// response, closed the connection mid-exchange, or answered with a
    /// mismatched request id.
    Protocol(String),
    /// Every attempt in the retry budget failed; `last` describes the final
    /// failure.
    RetriesExhausted {
        /// Attempts made (= the policy's budget).
        attempts: u32,
        /// Rendering of the last attempt's failure.
        last: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "serve protocol error: {msg}"),
            ClientError::RetriesExhausted { attempts, last } => write!(
                f,
                "request failed after {attempts} attempt{}: {last}",
                if *attempts == 1 { "" } else { "s" }
            ),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking `fcn-serve/1` client over one connection.
#[derive(Debug)]
pub struct Client {
    conn: FramedConn,
    next_id: u64,
    /// Request counter for the retry/idempotency streams (counts logical
    /// requests, not attempts).
    next_index: u64,
    /// Reconnect target + retry policy; `None` = single-attempt client.
    retry: Option<(String, RetryPolicy)>,
}

impl Client {
    /// Connect to a serving `fcnemu serve` daemon (single-attempt: any
    /// transport failure or shed surfaces immediately).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Ok(Client {
            conn: FramedConn::connect(addr)?,
            next_id: 1,
            next_index: 0,
            retry: None,
        })
    }

    /// Connect with a retry policy: transport failures and `Overloaded`
    /// sheds reconnect and re-send under seeded backoff, and every request
    /// carries an idempotency key so a completed-but-lost reply is replayed
    /// from the server's cache instead of executing twice.
    pub fn connect_retrying(addr: &str, policy: RetryPolicy) -> Result<Client, ClientError> {
        let mut c = Client::connect(addr)?;
        c.retry = Some((addr.to_string(), policy));
        Ok(c)
    }

    /// Wrap an already-connected framed stream (tests, in-process load gen).
    pub fn from_conn(conn: FramedConn) -> Client {
        Client {
            conn,
            next_id: 1,
            next_index: 0,
            retry: None,
        }
    }

    /// Issue one request kind with an argument vector and no deadline
    /// override; block until the framed response arrives.
    pub fn call(&mut self, kind: &str, args: &[&str]) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.request(Request::new(id, kind, args))
    }

    /// Issue a fully-formed request (the id field is overwritten with this
    /// client's next id so replies can be matched; under a retry policy the
    /// idempotency key is overwritten with this request's seeded key).
    pub fn request(&mut self, mut req: Request) -> Result<Response, ClientError> {
        let index = self.next_index;
        self.next_index += 1;
        let Some((addr, policy)) = self.retry.clone() else {
            req.id = self.fresh_id();
            return self.exchange(&req);
        };
        req.idem_key = Some(job_seed(policy.seed ^ IDEM_STREAM, index));
        let budget = policy.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..budget {
            if attempt > 0 {
                record_retry_attempt();
                let wait = backoff_ms(policy.seed, index, attempt, policy.base_ms, policy.cap_ms);
                // The backoff is wall-clock by nature (it spaces wire
                // retries); the *schedule* stays deterministic because the
                // durations are seeded draws.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(Duration::from_millis(wait));
                if self.reconnect(&addr, &mut last).is_err() {
                    continue;
                }
            }
            req.id = self.fresh_id();
            match self.exchange(&req) {
                Ok(resp) if is_shed(&resp) => {
                    last = shed_text(&resp);
                }
                Ok(resp) => return Ok(resp),
                Err(ClientError::RetriesExhausted { last: l, .. }) => last = l,
                Err(e) => {
                    // The connection is suspect after any transport or
                    // protocol failure; the next attempt reconnects before
                    // re-sending, so no stale stream is ever reused.
                    last = e.to_string();
                }
            }
        }
        record_retry_exhausted();
        Err(ClientError::RetriesExhausted {
            attempts: budget,
            last,
        })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn reconnect(&mut self, addr: &str, last: &mut String) -> Result<(), ()> {
        match FramedConn::connect(addr) {
            Ok(conn) => {
                self.conn = conn;
                Ok(())
            }
            Err(e) => {
                *last = format!("reconnect to {addr} failed: {e}");
                Err(())
            }
        }
    }

    /// One attempt: write the frame, read and validate the reply.
    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.conn.write_frame(req.encode().as_bytes())?;
        let payload = self
            .conn
            .read_frame(None)?
            .ok_or_else(|| ClientError::Protocol("server closed before replying".to_string()))?;
        let body = String::from_utf8(payload)
            .map_err(|e| ClientError::Protocol(format!("response is not UTF-8: {e}")))?;
        let resp = Response::decode(&body).map_err(ClientError::Protocol)?;
        if resp.id != req.id && resp.id != 0 {
            return Err(ClientError::Protocol(format!(
                "response id {} does not answer request id {}",
                resp.id, req.id
            )));
        }
        Ok(resp)
    }
}

/// Is this framed response a shed the retry loop should absorb?
fn is_shed(resp: &Response) -> bool {
    matches!(
        resp.error.as_ref().map(|e| e.kind),
        Some(ErrorKind::Overloaded)
    )
}

fn shed_text(resp: &Response) -> String {
    match &resp.error {
        Some(e) => match e.retry_after_ms {
            Some(ms) => format!("shed: {} (retry_after_ms {ms})", e.message),
            None => format!("shed: {}", e.message),
        },
        None => "shed".to_string(),
    }
}

fn record_retry_attempt() {
    let g = fcn_telemetry::global();
    if g.enabled() {
        g.add(names::SERVE_RETRY_ATTEMPTS_TOTAL, 1);
    }
}

fn record_retry_exhausted() {
    let g = fcn_telemetry::global();
    if g.enabled() {
        g.add(names::SERVE_RETRY_EXHAUSTED_TOTAL, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotency_keys_are_seeded_and_distinct() {
        let k: Vec<u64> = (0..8).map(|i| job_seed(77 ^ IDEM_STREAM, i)).collect();
        let mut uniq = k.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), k.len(), "colliding idempotency keys");
        // And decorrelated from the backoff draws on the same base seed.
        assert_ne!(k[0], backoff_ms(77, 0, 1, 1, u64::MAX));
    }

    #[test]
    fn retries_exhausted_renders_the_last_failure() {
        let e = ClientError::RetriesExhausted {
            attempts: 3,
            last: "connection reset".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("after 3 attempts"), "{text}");
        assert!(text.contains("connection reset"), "{text}");
    }

    #[test]
    fn shed_detection_matches_overloaded_only() {
        let shed = Response::overloaded(1, "queue full", 40);
        assert!(is_shed(&shed));
        assert!(shed_text(&shed).contains("retry_after_ms 40"));
        let plain = Response::failure(1, ErrorKind::Internal, "boom");
        assert!(!is_shed(&plain));
        assert!(!is_shed(&Response::success(1, 0, String::new())));
    }
}
