//! The differential chaos pin: a retrying client driving a chaos-wrapped
//! daemon must recover **byte-identical** response payloads to a clean
//! single-attempt run — including the final `metrics` render, which proves
//! the server's request-ordered registry saw exactly one execution per
//! logical request (lost replies were replayed from the idempotency cache,
//! never re-run).
//!
//! Both daemons run in-process with the production [`CliHandler`], so the
//! payloads under comparison are the real `fcnemu` report bytes. The whole
//! run is deterministic: the chaos plan is a pure function of (seed, rates,
//! connection index, frame index), and the sequential client makes the
//! connection/frame sequence reproducible — if this test passes once, it
//! passes always.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fcn_cli::service::CliHandler;
use fcn_serve::{ChaosRates, ChaosSpec, Client, ErrorKind, RetryPolicy, Server, ServerConfig};

/// One in-process daemon and the handle to stop it.
struct Inproc {
    server: Arc<Server<CliHandler>>,
    shutdown: Arc<AtomicBool>,
    runner: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    addr: String,
}

impl Inproc {
    fn start(chaos: Option<ChaosSpec>) -> Inproc {
        let config = ServerConfig {
            chaos,
            ..ServerConfig::default()
        };
        let server = Arc::new(Server::bind(config, CliHandler::new()).expect("bind"));
        let addr = server.local_addr().expect("local addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let runner = {
            let server = Arc::clone(&server);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || server.run(&shutdown))
        };
        Inproc {
            server,
            shutdown,
            runner: Some(runner),
            addr,
        }
    }
}

impl Drop for Inproc {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.runner.take() {
            let _ = h.join().map(|r| r.expect("serve loop"));
        }
    }
}

/// The request matrix from the acceptance criteria: heavy kinds at jobs
/// {1, 4}, followed by a `metrics` render.
fn request_matrix() -> Vec<(&'static str, Vec<String>)> {
    let mut matrix = Vec::new();
    for jobs in ["1", "4"] {
        let tail = ["--jobs", jobs];
        let with_tail = |head: &[&str]| -> Vec<String> {
            head.iter()
                .chain(tail.iter())
                .map(|s| s.to_string())
                .collect()
        };
        matrix.push(("beta", with_tail(&["mesh2", "16", "--trials", "1"])));
        matrix.push(("audit", with_tail(&["ring", "16"])));
        matrix.push(("faults", with_tail(&["ring", "16", "--quick"])));
    }
    matrix.push(("metrics", Vec::new()));
    matrix
}

fn drive(client: &mut Client, matrix: &[(&'static str, Vec<String>)]) -> Vec<(i32, String)> {
    matrix
        .iter()
        .map(|(kind, args)| {
            let argv: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
            let resp = client
                .call(kind, &argv)
                .unwrap_or_else(|e| panic!("kind {kind:?} args {args:?} failed terminally: {e}"));
            assert!(resp.ok, "kind {kind:?} returned a framed error: {resp:?}");
            (resp.exit_code, resp.output)
        })
        .collect()
}

#[test]
fn retrying_client_recovers_byte_identical_payloads_under_chaos() {
    let matrix = request_matrix();

    // Clean reference: no chaos, single-attempt client.
    let clean = Inproc::start(None);
    let mut clean_client = Client::connect(&clean.addr).expect("connect clean");
    let clean_payloads = drive(&mut clean_client, &matrix);

    // Chaos run: a fixed seeded plan injecting every fault category on the
    // reply path, driven by the retrying client.
    let spec = ChaosSpec::new(0x00c4_a05e_ed01, ChaosRates::uniform(0.15));
    let chaos = Inproc::start(Some(spec));
    let mut chaos_client =
        Client::connect_retrying(&chaos.addr, RetryPolicy::fast(30, 0xbacc_0ff5)).expect("connect");
    let chaos_payloads = drive(&mut chaos_client, &matrix);

    for (i, ((kind, args), (clean_p, chaos_p))) in matrix
        .iter()
        .zip(clean_payloads.iter().zip(chaos_payloads.iter()))
        .enumerate()
    {
        assert_eq!(
            clean_p, chaos_p,
            "request {i} ({kind:?} {args:?}) diverged between clean and chaos runs"
        );
    }

    // The matrix must actually have exercised injection; then churn cheap
    // interactive requests (they never touch the ordered registry, so the
    // metrics comparison above stays untainted) until every fault category
    // has fired at least once under this fixed seed.
    let stats = Arc::clone(chaos.server.chaos_stats().expect("plan configured"));
    assert!(stats.total() > 0, "chaos plan never injected anything");
    let mut churn = 0u32;
    while [
        stats.resets(),
        stats.stalls(),
        stats.truncations(),
        stats.corruptions(),
    ]
    .contains(&0)
    {
        churn += 1;
        assert!(
            churn <= 2000,
            "some fault category never fired: resets {} stalls {} truncations {} corruptions {}",
            stats.resets(),
            stats.stalls(),
            stats.truncations(),
            stats.corruptions()
        );
        let resp = chaos_client
            .call("health", &[])
            .expect("health under chaos");
        assert!(resp.ok);
    }

    // The health render reflects the same counters the plan recorded.
    let health = chaos_client.call("health", &[]).expect("final health");
    assert!(
        health.output.contains("chaos_resets_total"),
        "{}",
        health.output
    );
    assert!(
        health
            .output
            .lines()
            .any(|l| l.starts_with("replayed_total") && !l.ends_with(": 0")),
        "lost replies should have been replayed from the cache:\n{}",
        health.output
    );
}

#[test]
fn corrupted_frames_surface_as_typed_errors_never_misparsed_replies() {
    // Corruption-only plan at a high rate: the single-attempt client must
    // see a typed transport/protocol error on every injected frame, never
    // an `Ok` response with mangled content.
    let spec = ChaosSpec::new(
        7,
        ChaosRates {
            reset: 0.0,
            stall: 0.0,
            truncate: 0.0,
            corrupt: 0.9,
        },
    );
    let daemon = Inproc::start(Some(spec));
    let stats = Arc::clone(daemon.server.chaos_stats().expect("plan configured"));
    let mut corrupted_seen = 0u32;
    for i in 0..40u32 {
        let mut client = Client::connect(&daemon.addr).expect("connect");
        let before = stats.corruptions();
        match client.call("ping", &[]) {
            Ok(resp) => {
                assert_eq!(
                    stats.corruptions(),
                    before,
                    "iteration {i}: a corrupted frame parsed as a reply: {resp:?}"
                );
                assert!(resp.ok);
                assert_eq!(resp.output, "pong\n");
            }
            Err(e) => {
                assert!(
                    stats.corruptions() > before,
                    "iteration {i}: error without injection: {e}"
                );
                corrupted_seen += 1;
            }
        }
    }
    assert!(
        corrupted_seen >= 10,
        "corruption rate 0.9 but only {corrupted_seen}/40 frames were detected"
    );

    // And the retrying client digs through the same plan to the real reply
    // (at rate 0.9 nearly every fresh connection corrupts its first reply
    // frame, so the budget must cover a long deterministic streak).
    let mut retrying =
        Client::connect_retrying(&daemon.addr, RetryPolicy::fast(100, 1)).expect("connect");
    let resp = retrying
        .call("ping", &[])
        .expect("retry through corruption");
    assert!(resp.ok);
    assert_eq!(resp.output, "pong\n");
}

#[test]
fn overload_sheds_typed_while_interactive_kinds_stay_responsive() {
    // A tiny daemon: one slot, no queue. Saturate it with a slow beta and
    // verify heavy requests shed typed Overloaded{retry_after_ms} while
    // ping/metrics/health keep answering.
    let config = ServerConfig {
        max_inflight: 1,
        max_queued: 0,
        queue_wait_ms: 25,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::bind(config, CliHandler::new()).expect("bind"));
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let runner = {
        let server = Arc::clone(&server);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || server.run(&shutdown))
    };

    let blocker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect blocker");
            client.call("beta", &["mesh2", "32", "--trials", "2"])
        })
    };
    // Wait until the slot is actually occupied.
    let mut probe = Client::connect(&addr).expect("connect probe");
    loop {
        let health = probe.call("health", &[]).expect("health");
        if health.output.contains("inflight                : 1") {
            break;
        }
        std::hint::spin_loop();
    }
    // Heavy request: shed, typed, with a retry hint.
    let shed = probe.call("audit", &["ring", "8"]).expect("framed shed");
    assert!(!shed.ok);
    let err = shed.error.expect("typed error");
    assert_eq!(err.kind, ErrorKind::Overloaded);
    assert!(err.retry_after_ms.is_some(), "hint missing: {err:?}");
    // Interactive kinds answer immediately on a saturated daemon.
    assert!(probe.call("ping", &[]).expect("ping").ok);
    assert!(probe.call("metrics", &[]).expect("metrics").ok);
    let resp = blocker.join().expect("join blocker").expect("blocker call");
    assert!(resp.ok, "saturating request must still complete: {resp:?}");
    shutdown.store(true, Ordering::SeqCst);
    runner.join().expect("join runner").expect("serve loop");
}
