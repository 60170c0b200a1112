//! Seeded wire-chaos plans: deterministic transport-fault injection.
//!
//! This is the fcn-faults playbook applied to the transport layer. A
//! [`ChaosSpec`] (seed + per-kind rates) expands into a [`ChaosPlan`] that
//! is a **pure function** of the spec: whether reply frame `f` on
//! connection `c` is reset, stalled, truncated, or corrupted is decided by
//! threshold hashing over domain-separated SplitMix64 streams
//! ([`fcn_exec::job_seed`]), exactly like the fault plane decides which
//! wires die. No entropy, no wall clock, no iteration-order dependence —
//! the same spec injects the same faults on every run.
//!
//! Two properties carry the testing story:
//!
//! * **Purity** — `ChaosStream::next_action` for `(spec, conn, frame)`
//!   never depends on thread schedule or prior connections.
//! * **Monotonicity** — each fault kind draws from its *own* stream and the
//!   kinds are applied in a fixed priority order (reset ≻ stall ≻ truncate ≻
//!   corrupt), so raising one kind's rate only adds injections of that kind
//!   at the frames its threshold newly covers; frames claimed by a
//!   higher-priority kind are unaffected.
//!
//! The plan only *decides*; the framed I/O layer (the parent `io` module)
//! is the only place a decision is *applied* to a socket. Visibility pins
//! that split: `ChaosAction`, `ResetPoint`, `CorruptTarget`,
//! `ChaosStream::next_action` and `ChaosStream::record` are `pub(super)`,
//! so naming any of them outside `io` is a compile error. The rest of the
//! crate only builds a [`ChaosPlan`] and hands its per-connection streams
//! to `FramedConn::set_chaos`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fcn_exec::job_seed;
use fcn_telemetry::names;

/// Domain separator deriving each connection's chaos stream from the spec
/// seed (connections are numbered by the server's accept sequence).
const CONN_STREAM: u64 = 0xc4a0_5000_0000_0001;
/// Per-frame reset draw.
const RESET_STREAM: u64 = 0xc4a0_5000_0000_0002;
/// Per-frame stall draw.
const STALL_STREAM: u64 = 0xc4a0_5000_0000_0003;
/// Per-frame truncation draw.
const TRUNC_STREAM: u64 = 0xc4a0_5000_0000_0004;
/// Per-frame corruption draw.
const CORRUPT_STREAM: u64 = 0xc4a0_5000_0000_0005;
/// Shapes a chosen fault (reset point, corrupt target, stall length)
/// independently of the rate draws, so changing a rate never reshapes the
/// faults that were already firing.
const SHAPE_STREAM: u64 = 0xc4a0_5000_0000_0006;

/// Map a hash to a uniform fraction in `[0, 1)` (the 53 high bits, the
/// same construction the fault plane uses for threshold decisions).
#[inline]
fn unit_fraction(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-kind injection probabilities, each clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosRates {
    /// Probability a reply frame's connection is reset (pre-frame,
    /// mid-header, or mid-payload — shaped by the shape stream).
    pub reset: f64,
    /// Probability a reply frame's write stalls before being sent.
    pub stall: f64,
    /// Probability a reply frame is truncated (full-length header, withheld
    /// payload tail, then a close).
    pub truncate: f64,
    /// Probability a reply frame is corrupted (length prefix or payload
    /// bytes; both constructions are always detectable, see `io.rs`).
    pub corrupt: f64,
}

impl ChaosRates {
    /// The same rate for every fault kind.
    pub fn uniform(rate: f64) -> ChaosRates {
        ChaosRates {
            reset: rate,
            stall: rate,
            truncate: rate,
            corrupt: rate,
        }
    }

    /// Parse `--chaos-rates`: either one float applied uniformly
    /// (`"0.05"`) or four comma-separated floats in
    /// `reset,stall,truncate,corrupt` order (`"0.1,0,0.05,0.05"`).
    pub fn parse(s: &str) -> Result<ChaosRates, String> {
        let parts: Vec<&str> = s.split(',').collect();
        let field = |raw: &str| -> Result<f64, String> {
            let v: f64 = raw
                .trim()
                .parse()
                .map_err(|_| format!("chaos rate {raw:?} is not a number"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("chaos rate {v} is outside [0, 1]"));
            }
            Ok(v)
        };
        match parts.as_slice() {
            [one] => Ok(ChaosRates::uniform(field(one)?)),
            [r, s, t, c] => Ok(ChaosRates {
                reset: field(r)?,
                stall: field(s)?,
                truncate: field(t)?,
                corrupt: field(c)?,
            }),
            _ => Err(format!(
                "expected 1 or 4 comma-separated rates (reset,stall,truncate,corrupt), got {}",
                parts.len()
            )),
        }
    }

    fn clamped(self) -> ChaosRates {
        let c = |v: f64| v.clamp(0.0, 1.0);
        ChaosRates {
            reset: c(self.reset),
            stall: c(self.stall),
            truncate: c(self.truncate),
            corrupt: c(self.corrupt),
        }
    }

    /// True when every rate is zero: the plan is a guaranteed no-op.
    pub fn is_zero(&self) -> bool {
        self.reset == 0.0 && self.stall == 0.0 && self.truncate == 0.0 && self.corrupt == 0.0
    }
}

/// Everything needed to derive a chaos plan: the full input of the pure
/// decision function.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Base seed of every decision stream.
    pub seed: u64,
    /// Per-kind injection rates.
    pub rates: ChaosRates,
    /// Upper bound on an injected write stall, milliseconds (the actual
    /// stall length is shaped per frame in `1..=max_stall_ms`).
    pub max_stall_ms: u64,
}

impl ChaosSpec {
    /// A spec with the default 5 ms stall bound.
    pub fn new(seed: u64, rates: ChaosRates) -> ChaosSpec {
        ChaosSpec {
            seed,
            rates,
            max_stall_ms: 5,
        }
    }
}

/// What to do to one outgoing reply frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ChaosAction {
    /// Deliver the frame untouched.
    None,
    /// Close the connection at the given point of the frame.
    Reset(ResetPoint),
    /// Sleep this many milliseconds, then deliver the frame intact.
    Stall(u64),
    /// Send the full-length header but withhold the payload tail, then
    /// close: the reader sees a frame that claims more bytes than arrive.
    Truncate,
    /// Flip bytes so the frame is always detected as invalid by the reader.
    Corrupt(CorruptTarget),
}

/// Where a [`ChaosAction::Reset`] cuts the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ResetPoint {
    /// Before any byte of the frame is written.
    PreFrame,
    /// After 2 of the 4 length-prefix bytes.
    MidHeader,
    /// After the header plus half the payload.
    MidPayload,
}

/// What a [`ChaosAction::Corrupt`] damages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CorruptTarget {
    /// Force the length prefix's high bit: the claimed length exceeds
    /// `MAX_FRAME_LEN`, which every reader rejects before allocating.
    Length,
    /// XOR the first payload byte with `0xFF`: JSON payloads start with
    /// ASCII `{`, which becomes an invalid UTF-8 continuation byte, so the
    /// reply can never be mis-parsed as a different valid reply.
    Payload,
}

impl ChaosAction {
    /// Short label for error messages and logs.
    pub(super) fn label(&self) -> &'static str {
        match self {
            ChaosAction::None => "none",
            ChaosAction::Reset(ResetPoint::PreFrame) => "reset-pre-frame",
            ChaosAction::Reset(ResetPoint::MidHeader) => "reset-mid-header",
            ChaosAction::Reset(ResetPoint::MidPayload) => "reset-mid-payload",
            ChaosAction::Stall(_) => "stall",
            ChaosAction::Truncate => "truncate",
            ChaosAction::Corrupt(_) => "corrupt",
        }
    }
}

/// Counters of faults actually applied to sockets, shared by every stream
/// of one plan. Rendered by the `health` request kind; deliberately *not*
/// part of the server's request metrics registry, so a `metrics`
/// render stays a pure function of the executed requests even
/// under chaos.
#[derive(Debug, Default)]
pub struct ChaosStats {
    resets: AtomicU64,
    stalls: AtomicU64,
    truncations: AtomicU64,
    corruptions: AtomicU64,
}

impl ChaosStats {
    /// Connection resets injected.
    pub fn resets(&self) -> u64 {
        // ordering: monitoring counters; nothing synchronizes through them.
        self.resets.load(Ordering::Relaxed)
    }

    /// Write stalls injected.
    pub fn stalls(&self) -> u64 {
        // ordering: monitoring counter (see resets).
        self.stalls.load(Ordering::Relaxed)
    }

    /// Truncated frames injected.
    pub fn truncations(&self) -> u64 {
        // ordering: monitoring counter (see resets).
        self.truncations.load(Ordering::Relaxed)
    }

    /// Corrupted frames injected.
    pub fn corruptions(&self) -> u64 {
        // ordering: monitoring counter (see resets).
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.resets() + self.stalls() + self.truncations() + self.corruptions()
    }
}

/// A materialized chaos plan: the spec plus shared applied-fault counters.
/// Cloneable and cheap; streams derived from the same plan share stats.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    spec: ChaosSpec,
    stats: Arc<ChaosStats>,
}

impl ChaosPlan {
    /// Materialize a spec (rates are clamped to `[0, 1]`).
    pub fn new(mut spec: ChaosSpec) -> ChaosPlan {
        spec.rates = spec.rates.clamped();
        ChaosPlan {
            spec,
            stats: Arc::new(ChaosStats::default()),
        }
    }

    /// The (clamped) spec this plan decides from.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// Applied-fault counters shared by every stream of this plan.
    pub fn stats(&self) -> &Arc<ChaosStats> {
        &self.stats
    }

    /// The decision stream for connection number `conn` (the server's
    /// accept sequence). Pure: the stream's actions depend only on
    /// `(spec, conn, frame index)`.
    pub(crate) fn stream(&self, conn: u64) -> ChaosStream {
        ChaosStream {
            base: job_seed(self.spec.seed ^ CONN_STREAM, conn),
            rates: self.spec.rates,
            max_stall_ms: self.spec.max_stall_ms.max(1),
            frame: 0,
            stats: Arc::clone(&self.stats),
        }
    }
}

/// The pure per-frame decision: reset ≻ stall ≻ truncate ≻ corrupt, each
/// kind thresholding its own stream so rates are independently monotone.
fn decide(base: u64, frame: u64, rates: &ChaosRates, max_stall_ms: u64) -> ChaosAction {
    let draw = |stream: u64| unit_fraction(job_seed(base ^ stream, frame));
    let shape = job_seed(base ^ SHAPE_STREAM, frame);
    if draw(RESET_STREAM) < rates.reset {
        return ChaosAction::Reset(match shape % 3 {
            0 => ResetPoint::PreFrame,
            1 => ResetPoint::MidHeader,
            _ => ResetPoint::MidPayload,
        });
    }
    if draw(STALL_STREAM) < rates.stall {
        return ChaosAction::Stall(1 + shape % max_stall_ms);
    }
    if draw(TRUNC_STREAM) < rates.truncate {
        return ChaosAction::Truncate;
    }
    if draw(CORRUPT_STREAM) < rates.corrupt {
        return ChaosAction::Corrupt(if shape & (1 << 7) == 0 {
            CorruptTarget::Length
        } else {
            CorruptTarget::Payload
        });
    }
    ChaosAction::None
}

/// One connection's deterministic sequence of per-frame decisions.
#[derive(Debug)]
pub(crate) struct ChaosStream {
    base: u64,
    rates: ChaosRates,
    max_stall_ms: u64,
    frame: u64,
    stats: Arc<ChaosStats>,
}

impl ChaosStream {
    /// The decision for the next outgoing frame (advances the frame index).
    pub(super) fn next_action(&mut self) -> ChaosAction {
        let f = self.frame;
        self.frame += 1;
        decide(self.base, f, &self.rates, self.max_stall_ms)
    }

    /// Record a fault the I/O layer actually applied: bumps the plan's
    /// shared stats and, when it is enabled, the *global* telemetry
    /// registry (never the server's request registry — transport
    /// chaos must not perturb the `metrics` render).
    pub(super) fn record(&self, action: &ChaosAction) {
        // ordering: monitoring counters; nothing synchronizes through them.
        let (slot, name) = match action {
            ChaosAction::None => return,
            ChaosAction::Reset(_) => (&self.stats.resets, names::CHAOS_RESETS_TOTAL),
            ChaosAction::Stall(_) => (&self.stats.stalls, names::CHAOS_STALLS_TOTAL),
            ChaosAction::Truncate => (&self.stats.truncations, names::CHAOS_TRUNCATIONS_TOTAL),
            ChaosAction::Corrupt(_) => (&self.stats.corruptions, names::CHAOS_CORRUPTIONS_TOTAL),
        };
        slot.fetch_add(1, Ordering::Relaxed);
        let g = fcn_telemetry::global();
        if g.enabled() {
            g.add(name, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn actions(spec: &ChaosSpec, conn: u64, frames: usize) -> Vec<ChaosAction> {
        let plan = ChaosPlan::new(spec.clone());
        let mut stream = plan.stream(conn);
        (0..frames).map(|_| stream.next_action()).collect()
    }

    #[test]
    fn plans_are_pure_functions_of_the_spec() {
        let spec = ChaosSpec::new(7, ChaosRates::uniform(0.2));
        let a = actions(&spec, 3, 200);
        let b = actions(&spec, 3, 200);
        assert_eq!(a, b, "same spec + connection must replay identically");
        // A different connection or seed decorrelates but stays pure.
        assert_ne!(a, actions(&spec, 4, 200));
        assert_ne!(a, actions(&ChaosSpec::new(8, spec.rates), 3, 200));
    }

    #[test]
    fn zero_rates_are_transparent() {
        let spec = ChaosSpec::new(99, ChaosRates::default());
        assert!(spec.rates.is_zero());
        for action in actions(&spec, 0, 500) {
            assert_eq!(action, ChaosAction::None);
        }
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn each_rate_is_monotone_in_its_own_kind() {
        // Raising one kind's rate (others fixed) only adds injections of
        // that kind: every frame that fired at the low rate still fires
        // identically at the high rate.
        let kinds: [(&str, fn(f64) -> ChaosRates); 4] = [
            ("reset", |r| ChaosRates {
                reset: r,
                ..ChaosRates::default()
            }),
            ("stall", |r| ChaosRates {
                stall: r,
                ..ChaosRates::default()
            }),
            ("truncate", |r| ChaosRates {
                truncate: r,
                ..ChaosRates::default()
            }),
            ("corrupt", |r| ChaosRates {
                corrupt: r,
                ..ChaosRates::default()
            }),
        ];
        for (kind, rates_at) in kinds {
            let lo = actions(&ChaosSpec::new(42, rates_at(0.1)), 1, 400);
            let hi = actions(&ChaosSpec::new(42, rates_at(0.4)), 1, 400);
            let mut lo_fired = 0usize;
            let mut hi_fired = 0usize;
            for (l, h) in lo.iter().zip(&hi) {
                if *l != ChaosAction::None {
                    lo_fired += 1;
                    assert_eq!(l, h, "{kind}: a fault firing at 0.1 must persist at 0.4");
                }
                if *h != ChaosAction::None {
                    hi_fired += 1;
                }
            }
            assert!(lo_fired > 0, "{kind}: rate 0.1 must fire in 400 frames");
            assert!(
                hi_fired > lo_fired,
                "{kind}: raising the rate must add faults ({lo_fired} vs {hi_fired})"
            );
        }
    }

    #[test]
    fn all_kinds_fire_under_mixed_rates() {
        let spec = ChaosSpec::new(7, ChaosRates::uniform(0.25));
        let got = actions(&spec, 0, 400);
        let fired = |p: fn(&ChaosAction) -> bool| got.iter().any(p);
        assert!(fired(|a| matches!(
            a,
            ChaosAction::Reset(ResetPoint::PreFrame)
        )));
        assert!(fired(|a| matches!(
            a,
            ChaosAction::Reset(ResetPoint::MidHeader)
        )));
        assert!(fired(|a| matches!(
            a,
            ChaosAction::Reset(ResetPoint::MidPayload)
        )));
        assert!(fired(|a| matches!(a, ChaosAction::Stall(_))));
        assert!(fired(|a| matches!(a, ChaosAction::Truncate)));
        assert!(fired(|a| matches!(
            a,
            ChaosAction::Corrupt(CorruptTarget::Length)
        )));
        assert!(fired(|a| matches!(
            a,
            ChaosAction::Corrupt(CorruptTarget::Payload)
        )));
        // Stall lengths respect the configured bound.
        for a in &got {
            if let ChaosAction::Stall(ms) = a {
                assert!((1..=spec.max_stall_ms).contains(ms));
            }
        }
    }

    #[test]
    fn rates_parse_uniform_and_per_kind() {
        assert_eq!(
            ChaosRates::parse("0.25").unwrap(),
            ChaosRates::uniform(0.25)
        );
        let r = ChaosRates::parse("0.1, 0, 0.05, 1").unwrap();
        assert_eq!(
            r,
            ChaosRates {
                reset: 0.1,
                stall: 0.0,
                truncate: 0.05,
                corrupt: 1.0
            }
        );
        assert!(ChaosRates::parse("1.5").unwrap_err().contains("[0, 1]"));
        assert!(ChaosRates::parse("a").unwrap_err().contains("not a number"));
        assert!(ChaosRates::parse("0.1,0.2").unwrap_err().contains("1 or 4"));
    }

    #[test]
    fn stats_count_only_recorded_actions() {
        let plan = ChaosPlan::new(ChaosSpec::new(1, ChaosRates::uniform(1.0)));
        let stream = plan.stream(0);
        stream.record(&ChaosAction::Reset(ResetPoint::PreFrame));
        stream.record(&ChaosAction::Stall(3));
        stream.record(&ChaosAction::Truncate);
        stream.record(&ChaosAction::Corrupt(CorruptTarget::Payload));
        stream.record(&ChaosAction::None);
        let stats = plan.stats();
        assert_eq!(stats.resets(), 1);
        assert_eq!(stats.stalls(), 1);
        assert_eq!(stats.truncations(), 1);
        assert_eq!(stats.corruptions(), 1);
        assert_eq!(stats.total(), 4);
    }
}
