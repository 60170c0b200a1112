//! Differential harness for service mode: every request kind served by a
//! real `fcnemu serve` daemon process must return **byte-identical** output
//! (and the same exit code) as the inline `fcnemu` invocation of the same
//! command, across the worker-count grid, under concurrent
//! interleaved clients, and through the typed failure paths (overload,
//! deadline cancellation, SIGTERM drain).

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};

use fcn_serve::{Client, ErrorKind, FramedConn, Request, Response};

/// A live `fcnemu serve` child process plus its resolved address.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fcnemu"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fcnemu serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read announce line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected announce line {line:?}"))
            .to_string();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to daemon")
    }

    /// Send SIGTERM and wait for the graceful drain; asserts exit 0 and the
    /// goodbye line.
    fn shutdown(mut self) {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        let exit = self.child.wait().expect("wait for daemon");
        assert_eq!(exit.code(), Some(0), "drain must exit 0, got {exit:?}");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("drain output");
        assert!(
            rest.contains("drained cleanly"),
            "missing drain goodbye, got {rest:?}"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run the inline CLI in-process, capturing exit code and output bytes.
fn inline(argv: &[&str]) -> (i32, String) {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = fcn_cli::run(&argv, &mut buf);
    (
        code,
        String::from_utf8(buf).expect("inline output is UTF-8"),
    )
}

/// Assert one daemon request is byte- and exit-code-identical to inline.
fn assert_differential(client: &mut Client, kind: &str, args: &[&str]) {
    let resp = client.call(kind, args).expect("framed response");
    let mut argv = vec![kind];
    argv.extend_from_slice(args);
    let (code, text) = inline(&argv);
    assert_eq!(
        resp.output, text,
        "daemon output diverged from inline for {argv:?}"
    );
    assert_eq!(
        resp.exit_code, code,
        "daemon exit code diverged from inline for {argv:?}"
    );
}

#[test]
fn daemon_matches_inline_across_the_grid() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    assert_eq!(client.call("ping", &[]).unwrap().output, "pong\n");
    for jobs in ["1", "4"] {
        let with = |head: &[&'static str]| -> Vec<&str> {
            let mut v = head.to_vec();
            v.extend_from_slice(&["--jobs", jobs]);
            v
        };
        assert_differential(
            &mut client,
            "beta",
            &with(&["mesh2", "36", "--trials", "2"]),
        );
        assert_differential(&mut client, "audit", &with(&["mesh2", "36"]));
        assert_differential(
            &mut client,
            "faults",
            &with(&[
                "mesh2", "36", "--rates", "0.0,0.05", "--trials", "2", "--quick",
            ]),
        );
    }
    // A malformed family produces the identical error bytes and exit code
    // through the daemon (domain error, exit 1).
    assert_differential(&mut client, "beta", &["no_such_family", "36"]);
    daemon.shutdown();
}

#[test]
fn daemon_matches_inline_on_rejected_arguments() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    // `--trials 0` is a typed error (exit 1), not a panic that takes the
    // request thread down; an unknown flag is refused with its name.
    for (kind, args) in [
        ("beta", &["mesh2", "36", "--trials", "0"][..]),
        ("faults", &["mesh2", "36", "--trials", "0", "--quick"][..]),
        ("beta", &["mesh2", "36", "--trails", "1"][..]),
        ("audit", &["mesh2", "36", "--job", "2"][..]),
    ] {
        let resp = client.call(kind, args).expect("framed response");
        assert_eq!(resp.exit_code, 1, "{kind} {args:?}: {}", resp.output);
        assert_differential(&mut client, kind, args);
    }
    daemon.shutdown();
}

#[test]
fn deeply_nested_frame_is_a_bad_request_not_a_crash() {
    // A megabyte of `[` is well inside the frame bound; before the parser
    // bounded its nesting depth it recursed off the request thread's stack
    // and aborted the whole daemon.
    let daemon = Daemon::start(&[]);
    let mut conn = FramedConn::connect(&daemon.addr).expect("connect");
    conn.write_frame("[".repeat(1_000_000).as_bytes())
        .expect("send nested frame");
    let body = conn
        .read_frame(None)
        .expect("read reply")
        .expect("the daemon answers the frame");
    let resp = Response::decode(std::str::from_utf8(&body).expect("utf8")).expect("decode");
    assert!(!resp.ok);
    assert_eq!(resp.error.expect("typed error").kind, ErrorKind::BadRequest);
    // The daemon is still up for everyone else.
    assert_eq!(daemon.client().call("ping", &[]).unwrap().output, "pong\n");
    daemon.shutdown();
}

#[test]
fn concurrent_interleaved_clients_get_their_own_answers() {
    let daemon = Daemon::start(&["--max-inflight", "8"]);
    std::thread::scope(|scope| {
        for seed in ["1", "7", "99", "4242"] {
            let addr = daemon.addr.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for trials in ["1", "2", "3"] {
                    let args = ["mesh2", "36", "--trials", trials, "--seed", seed];
                    let resp = client.call("beta", &args).expect("response");
                    let (code, text) =
                        inline(&["beta", "mesh2", "36", "--trials", trials, "--seed", seed]);
                    assert_eq!(resp.output, text, "seed {seed} trials {trials}");
                    assert_eq!(resp.exit_code, code);
                }
            });
        }
    });
    daemon.shutdown();
}

#[test]
fn metrics_render_matches_the_inline_renderer() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    // Put some traffic on the board first.
    assert!(
        client
            .call("beta", &["mesh2", "36", "--trials", "2"])
            .unwrap()
            .ok
    );
    assert!(client.call("audit", &["mesh2", "36"]).unwrap().ok);
    let jsonl = client.call("metrics", &[]).unwrap();
    assert!(jsonl.ok);
    // Pin: the daemon's prom rendering equals feeding the daemon's own
    // JSONL snapshot through `fcnemu metrics --format prom` inline.
    let path = std::env::temp_dir().join(format!("fcn-serve-diff-{}.jsonl", std::process::id()));
    std::fs::write(&path, &jsonl.output).unwrap();
    let (code, inline_prom) = inline(&["metrics", path.to_str().unwrap(), "--format", "prom"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 0);
    let daemon_prom = client.call("metrics", &["--format", "prom"]).unwrap();
    assert_eq!(
        daemon_prom.output, inline_prom,
        "daemon prom text must equal the inline renderer's view of the same snapshot"
    );
    // The snapshot actually carries the service counters.
    assert!(
        inline_prom.contains("serve_requests_total"),
        "{inline_prom}"
    );
    daemon.shutdown();
}

#[test]
fn overload_is_a_typed_framed_rejection() {
    let daemon = Daemon::start(&["--max-inflight", "1"]);
    let addr = daemon.addr.clone();
    // A ~seconds-long request to occupy the single admission slot.
    let blocker = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect blocker");
        client
            .call("beta", &["mesh2", "4096", "--trials", "3"])
            .expect("blocker response")
    });
    // Probe until the blocker holds the slot: small requests reply in
    // milliseconds, the blocker runs for seconds, so an Overloaded
    // rejection must surface long before the blocker finishes.
    let mut client = daemon.client();
    let mut saw_overloaded = false;
    for _ in 0..10_000 {
        let resp = client
            .call("beta", &["mesh2", "16", "--trials", "1"])
            .expect("probe response");
        if let Some(err) = &resp.error {
            assert_eq!(err.kind, ErrorKind::Overloaded);
            assert!(err.message.contains("retry later"), "{}", err.message);
            saw_overloaded = true;
            break;
        }
        if blocker.is_finished() {
            break;
        }
    }
    assert!(
        saw_overloaded,
        "never observed a typed Overloaded rejection while the slot was held"
    );
    // The blocker's own reply is intact despite the rejections around it.
    let resp = blocker.join().expect("blocker thread");
    assert!(resp.ok);
    assert!(resp.output.contains("measured β̂"), "{}", resp.output);
    daemon.shutdown();
}

#[test]
fn deadline_expiry_is_cancelled_with_partial_accounting() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    let mut req = Request::new(0, "beta", &["mesh2", "4096", "--trials", "3"]);
    req.deadline_ms = Some(1);
    let resp = client.request(req).expect("framed response");
    assert!(!resp.ok);
    let err = resp.error.expect("typed error");
    assert_eq!(err.kind, ErrorKind::Cancelled);
    assert!(
        err.message.contains("deadline of 1 ms expired") && err.message.contains("cells"),
        "cancellation must carry partial accounting, got {:?}",
        err.message
    );
    // The daemon keeps serving after a cancellation.
    assert!(client.call("ping", &[]).unwrap().ok);
    daemon.shutdown();
}

#[test]
fn sigterm_drain_finishes_the_inflight_request() {
    let daemon = Daemon::start(&["--max-inflight", "1"]);
    let addr = daemon.addr.clone();
    let straddler = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect straddler");
        client
            .call("beta", &["mesh2", "4096", "--trials", "3"])
            .expect("straddler response")
    });
    // Wait until the straddler is definitely admitted (the slot rejects us).
    let mut client = daemon.client();
    loop {
        let resp = client
            .call("beta", &["mesh2", "16", "--trials", "1"])
            .expect("probe response");
        if resp.error.is_some() {
            break;
        }
        assert!(!straddler.is_finished(), "straddler finished before probe");
    }
    // SIGTERM mid-request: the drain must let it finish and reply fully.
    daemon.shutdown();
    let resp = straddler.join().expect("straddler thread");
    assert!(
        resp.ok,
        "straddling request must complete through the drain"
    );
    let (_, text) = inline(&["beta", "mesh2", "4096", "--trials", "3"]);
    assert_eq!(
        resp.output, text,
        "drained reply must still be byte-identical"
    );
}

/// The daemon's `router_runs_total`, read through a `metrics` request.
fn router_runs(client: &mut Client) -> u64 {
    let metrics = client.call("metrics", &[]).expect("metrics response");
    let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&metrics.output).expect("snapshot");
    snap.counters
        .get(fcn_telemetry::names::ROUTER_RUNS_TOTAL)
        .copied()
        .unwrap_or(0)
}

#[test]
fn served_metrics_out_is_refused_and_writes_nothing() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    let path = std::env::temp_dir().join(format!("fcn-serve-refused-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let p = path.to_str().unwrap();
    let eq = format!("--metrics-out={p}");
    for (kind, args) in [
        ("faults", vec!["mesh2", "16", "--quick", "--metrics-out", p]),
        ("beta", vec!["mesh2", "16", "--trials", "1", &eq]),
        ("audit", vec!["mesh2", "16", "--metrics-out", p]),
    ] {
        let resp = client.call(kind, &args).expect("framed response");
        let err = resp.error.expect("a typed refusal");
        assert_eq!(err.kind, ErrorKind::BadRequest, "{kind} {args:?}");
        assert!(err.message.contains("--metrics-out"), "{}", err.message);
        assert!(!path.exists(), "{kind} wrote {p} on the daemon's host");
    }
    // The refusal left the daemon's telemetry collecting.
    let before = router_runs(&mut client);
    assert!(
        client
            .call("beta", &["mesh2", "16", "--trials", "1"])
            .unwrap()
            .ok
    );
    assert!(router_runs(&mut client) > before);
    daemon.shutdown();
}

/// A client may pass `--jobs`, and each worker is a thread of the daemon:
/// a count above the bound is refused before any work.
#[test]
fn served_jobs_above_the_bound_are_refused() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    let before = router_runs(&mut client);
    for (kind, args) in [
        ("beta", &["mesh2", "16", "--jobs", "65"][..]),
        ("faults", &["mesh2", "16", "--quick", "--jobs", "65"][..]),
    ] {
        let resp = client.call(kind, args).expect("framed response");
        let err = resp.error.expect("a typed refusal");
        assert_eq!(err.kind, ErrorKind::BadRequest, "{kind}");
        assert!(
            err.message.contains("--jobs must be at most 64"),
            "{}",
            err.message
        );
    }
    let audit = client
        .call("audit", &["mesh2", "16", "--jobs", "65"])
        .expect("framed response");
    assert_eq!(audit.exit_code, 2, "{}", audit.output);
    assert!(
        audit.output.contains("--jobs must be at most 64"),
        "{}",
        audit.output
    );
    assert_eq!(router_runs(&mut client), before, "a refused request routed");
    daemon.shutdown();
}

/// One oversized size or `--trials` would abort the daemon on allocation:
/// it is refused before any work, and the daemon keeps answering.
#[test]
fn served_oversized_sizes_and_trials_are_refused() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    let before = router_runs(&mut client);
    for (kind, args, message) in [
        (
            "beta",
            &["mesh2", "4000000000"][..],
            "<size> must be at most 65536",
        ),
        (
            "beta",
            &["mesh2", "16", "--trials", "4000000000"][..],
            "--trials must be at most 1024",
        ),
        (
            "faults",
            &["mesh2", "70000", "--quick"][..],
            "<size> must be at most 65536",
        ),
    ] {
        let resp = client.call(kind, args).expect("framed response");
        let err = resp.error.expect("a typed refusal");
        assert_eq!(err.kind, ErrorKind::BadRequest, "{kind} {args:?}");
        assert!(err.message.contains(message), "{}", err.message);
    }
    assert_eq!(router_runs(&mut client), before, "a refused request routed");
    assert_eq!(client.call("ping", &[]).unwrap().output, "pong\n");
    daemon.shutdown();
}

#[test]
fn served_faults_verbose_counts_in_daemon_metrics() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    let mut delta = |args: &[&str]| {
        let before = router_runs(&mut client);
        assert!(client.call("faults", args).unwrap().ok, "{args:?}");
        router_runs(&mut client) - before
    };
    let plain = delta(&["mesh2", "16", "--quick"]);
    let verbose = delta(&["mesh2", "16", "--quick", "--verbose"]);
    assert!(plain > 0);
    assert_eq!(verbose, plain, "a verbose run must count like a plain one");
    daemon.shutdown();
}

/// The `trees computed: N` count a served `beta --verbose` prints.
fn trees_computed(output: &str) -> u64 {
    output
        .lines()
        .find_map(|l| l.strip_prefix("trees computed: "))
        .unwrap_or_else(|| panic!("no tree count in {output:?}"))
        .parse()
        .expect("a count")
}

#[test]
fn a_repeated_served_beta_is_planned_from_the_warm_cache() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    let args = ["mesh2", "64", "--trials", "1", "--verbose"];
    let first = client.call("beta", &args).expect("first beta");
    let again = client.call("beta", &args).expect("repeated beta");
    assert!(first.ok && again.ok, "{first:?} {again:?}");
    assert!(trees_computed(&first.output) > 0, "{}", first.output);
    assert_eq!(trees_computed(&again.output), 0, "{}", again.output);
    // The warm hit changes no measured line, only the tree count.
    let measured = |o: &str| -> String {
        o.lines()
            .filter(|l| !l.starts_with("trees computed"))
            .collect()
    };
    assert_eq!(measured(&first.output), measured(&again.output));
    daemon.shutdown();
}

/// Nine trials at n = 484 need 4356 trees, more than the 4096 the warm
/// cache holds. The first request stores the first 4096 and the repeat is
/// served all of them: nothing stored is evicted to make room.
#[test]
fn a_served_repeat_past_capacity_is_served_every_stored_tree() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    let args = ["mesh2", "484", "--trials", "9", "--verbose"];
    let first = client.call("beta", &args).expect("first beta");
    let again = client.call("beta", &args).expect("repeated beta");
    assert!(first.ok && again.ok, "{first:?} {again:?}");
    assert!(first
        .output
        .starts_with("machine       : mesh2(side=22) (n = 484)\n"));
    assert_eq!(trees_computed(&first.output), 9 * 484, "{}", first.output);
    assert_eq!(
        trees_computed(&again.output),
        trees_computed(&first.output) - 4096,
        "{}",
        again.output
    );
    let measured = |o: &str| -> String {
        o.lines()
            .filter(|l| !l.starts_with("trees computed"))
            .collect()
    };
    assert_eq!(measured(&first.output), measured(&again.output));
    assert_differential(&mut client, "beta", &args[..4]);
    let metrics = client.call("metrics", &[]).expect("metrics response");
    let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&metrics.output).expect("snapshot");
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter(fcn_telemetry::names::PLAN_CACHE_HITS_TOTAL),
        2 * 4096
    );
    assert!(!metrics.output.contains("evictions"), "{}", metrics.output);
    daemon.shutdown();
}

/// A served request publishes only its own plan-cache traffic: the warm
/// cache outlives every request, so its lifetime totals belong to none of
/// them.
#[test]
fn served_plan_cache_counters_are_per_request_deltas() {
    let daemon = Daemon::start(&[]);
    let mut client = daemon.client();
    let args = ["mesh2", "64", "--verbose"];
    let mut computed = 0;
    for _ in 0..3 {
        let resp = client.call("beta", &args).expect("beta");
        assert!(resp.ok, "{resp:?}");
        computed += trees_computed(&resp.output);
    }
    let metrics = client.call("metrics", &[]).expect("metrics response");
    let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&metrics.output).expect("snapshot");
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    // Three trials of 64 trees, planned once and then served warm twice.
    assert_eq!(computed, 192);
    assert_eq!(
        counter(fcn_telemetry::names::PLAN_CACHE_MISSES_TOTAL),
        computed
    );
    assert_eq!(counter(fcn_telemetry::names::PLAN_CACHE_HITS_TOTAL), 384);
    // The cache never evicts, so the trees the requests stored are its
    // entries; the one machine is one registry net.
    assert_eq!(
        counter(fcn_telemetry::names::PLAN_CACHE_STORED_TOTAL),
        computed
    );
    assert_eq!(counter(fcn_telemetry::names::SERVE_REGISTRY_NETS_TOTAL), 1);
    daemon.shutdown();
}
