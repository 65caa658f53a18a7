//! Integration tests for the `mapex serve` daemon, over real TCP.
//!
//! The acceptance bar: with a small queue bound and many concurrent
//! clients, every accepted request gets exactly one response and every
//! excess request gets a structured overload response (never a hang or a
//! dropped connection); a deadline-expired request returns its best-so-far
//! incumbent flagged degraded; a panicking mapper yields a structured
//! error while the daemon keeps serving; and a drain answers everything
//! admitted, exactly once.

use mse::json;
use mse::{serve, ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const PROBLEM: &str = "GEMM;g;B=2,M=32,K=32,N=32";

fn start(cfg: ServeConfig) -> ServerHandle {
    serve(cfg).expect("bind daemon")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        fault_injection: true,
        eval: mse::EvalConfig { threads: 1, cache_capacity: 1 << 12 },
        ..ServeConfig::default()
    }
}

/// One request → one response line, with a generous timeout so a daemon
/// bug shows up as a test failure, not a CI hang.
fn request(addr: SocketAddr, line: &str) -> json::Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    stream.write_all(line.as_bytes()).and_then(|()| stream.write_all(b"\n")).expect("send");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("receive");
    assert!(!resp.trim().is_empty(), "connection closed without a response to: {line}");
    json::parse(&resp).unwrap_or_else(|e| panic!("bad response JSON ({e}): {resp}"))
}

fn assert_ok(v: &json::Value) {
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true), "{}", v.to_text());
}

fn error_code(v: &json::Value) -> String {
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false), "{}", v.to_text());
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(json::Value::as_str)
        .unwrap_or_else(|| panic!("no error code: {}", v.to_text()))
        .to_string()
}

fn search_line(id: usize, samples: usize, extra: &str) -> String {
    format!(
        "{{\"id\": {id}, \"op\": \"search\", \"problem\": \"{PROBLEM}\", \
         \"samples\": {samples}, \"mapper\": \"random\"{extra}}}"
    )
}

#[test]
fn ping_stats_validate_evaluate_roundtrip() {
    let h = start(test_config());
    let addr = h.local_addr();
    let pong = request(addr, "{\"id\": \"p1\", \"op\": \"ping\"}");
    assert_ok(&pong);
    assert_eq!(pong.get("id").and_then(json::Value::as_str), Some("p1"), "id echoed verbatim");

    // A search, then an evaluate of the mapping it returns.
    let found = request(addr, &search_line(2, 300, ""));
    assert_ok(&found);
    assert_eq!(found.get("degraded").and_then(json::Value::as_bool), Some(false));
    let mapping = found.get("mapping").and_then(json::Value::as_str).expect("mapping").to_string();
    let evald = request(
        addr,
        &format!(
            "{{\"id\": 3, \"op\": \"evaluate\", \"problem\": \"{PROBLEM}\", \
             \"mapping\": {}}}",
            json::escape(&mapping)
        ),
    );
    assert_ok(&evald);
    let score = evald.get("score").and_then(json::Value::as_f64).expect("score");
    let search_score = found.get("score").and_then(json::Value::as_f64).expect("score");
    assert!((score - search_score).abs() <= 1e-9 * score.abs(), "evaluate agrees with search");

    // validate: a good spec and a broken one.
    let ok = request(
        addr,
        "{\"id\": 4, \"op\": \"validate\", \"spec\": \"kind = \\\"problem\\\"\\nname = \\\"g\\\"\\nop = \\\"GEMM\\\"\\n[dims]\\nB = 2\\nM = 8\\nK = 8\\nN = 8\\n\"}",
    );
    assert_ok(&ok);
    assert_eq!(ok.get("kind").and_then(json::Value::as_str), Some("problem"));
    let bad = request(addr, "{\"id\": 5, \"op\": \"validate\", \"spec\": \"kind = \\\"nope\\\"\"}");
    assert_eq!(error_code(&bad), "bad-spec");
    let kind = bad.get("error").and_then(|e| e.get("kind")).and_then(json::Value::as_str);
    assert_eq!(kind, Some("permanent"), "spec errors are not retryable");

    let stats = request(addr, "{\"id\": 6, \"op\": \"stats\"}");
    assert_ok(&stats);
    assert!(stats.get("uptime_ms").and_then(json::Value::as_u64).is_some());
    assert_eq!(stats.get("queue_capacity").and_then(json::Value::as_u64), Some(64));
    assert!(stats.get("cache").and_then(|c| c.get("misses")).is_some());
    assert!(stats.get("guard").and_then(|g| g.get("violations")).is_some());

    h.drain();
    let stats = h.join();
    assert_eq!(stats.accepted, stats.completed, "every admitted request was answered");
}

#[test]
fn malformed_requests_get_structured_permanent_errors() {
    let h = start(test_config());
    let addr = h.local_addr();
    assert_eq!(error_code(&request(addr, "{not json")), "bad-json");
    assert_eq!(error_code(&request(addr, "{\"id\": 1}")), "bad-request");
    assert_eq!(error_code(&request(addr, "{\"id\": 1, \"op\": \"dance\"}")), "bad-request");
    assert_eq!(
        error_code(&request(
            addr,
            "{\"id\": 1, \"op\": \"search\", \"problem\": \"GEMM;bad spec\"}"
        )),
        "bad-spec"
    );
    assert_eq!(
        error_code(&request(
            addr,
            &format!(
                "{{\"id\": 1, \"op\": \"search\", \"problem\": \"{PROBLEM}\", \
                 \"mapper\": \"nope\"}}"
            )
        )),
        "bad-request"
    );
    // All of the above are client mistakes: kind must say so.
    let v = request(addr, "{oops");
    let kind = v.get("error").and_then(|e| e.get("kind")).and_then(json::Value::as_str);
    assert_eq!(kind, Some("permanent"));
    // The daemon is still healthy after a parade of garbage.
    assert_ok(&request(addr, "{\"id\": 9, \"op\": \"ping\"}"));
    h.drain();
    h.join();
}

/// Queue bound Q=2, N=16 concurrent clients: every request is answered
/// exactly once — accepted ones with a result, excess ones with a
/// structured overload response carrying a retry hint. No hangs, no
/// dropped connections.
#[test]
fn sixteen_clients_against_queue_of_two_all_answered_exactly_once() {
    let cfg = ServeConfig { queue_capacity: 2, ..test_config() };
    let h = start(cfg);
    let addr = h.local_addr();
    let n = 16;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            std::thread::spawn(move || {
                // Enough work per request that the single worker is busy
                // while later clients arrive.
                request(addr, &search_line(i, 4_000, ", \"seed\": 1"))
            })
        })
        .collect();
    let responses: Vec<json::Value> =
        handles.into_iter().map(|t| t.join().expect("client thread")).collect();
    assert_eq!(responses.len(), n, "one response per client");

    let mut seen_ids = std::collections::BTreeSet::new();
    let mut ok_count = 0u64;
    let mut overloaded = 0u64;
    for v in &responses {
        let id = v.get("id").and_then(json::Value::as_u64).expect("numeric id echoed");
        assert!(seen_ids.insert(id), "duplicate response for id {id}");
        if v.get("ok").and_then(json::Value::as_bool) == Some(true) {
            assert!(v.get("mapping").and_then(json::Value::as_str).is_some());
            ok_count += 1;
        } else {
            assert_eq!(error_code(v), "overloaded");
            let err = v.get("error").expect("error object");
            assert_eq!(err.get("kind").and_then(json::Value::as_str), Some("transient"));
            let hint = err.get("retry_after_ms").and_then(json::Value::as_u64);
            assert!(hint.is_some_and(|ms| ms > 0), "overload carries a retry hint");
            overloaded += 1;
        }
    }
    assert_eq!(seen_ids.len(), n, "all ids answered");
    assert_eq!(ok_count + overloaded, n as u64);
    assert!(ok_count >= 1, "at least the first request is admitted");
    assert!(overloaded >= 1, "queue of 2 must shed some of 16 bursty clients");

    h.drain();
    let stats = h.join();
    assert_eq!(stats.accepted, stats.completed, "exactly-once: admitted == answered");
    assert_eq!(stats.accepted, ok_count);
    assert_eq!(stats.rejected_overload, overloaded);
}

/// A request whose deadline expires mid-search comes back `ok` with the
/// best-so-far incumbent and `"degraded": true` — a salvage, not an error.
#[test]
fn expired_deadline_salvages_best_so_far_flagged_degraded() {
    let h = start(test_config());
    let addr = h.local_addr();
    let v = request(
        addr,
        &format!(
            "{{\"id\": 1, \"op\": \"search\", \"problem\": \"{PROBLEM}\", \
             \"mapper\": \"deadline-ignorer\", \"samples\": 100000000, \
             \"deadline_ms\": 400}}"
        ),
    );
    assert_ok(&v);
    assert_eq!(v.get("degraded").and_then(json::Value::as_bool), Some(true), "{}", v.to_text());
    assert_eq!(v.get("status").and_then(json::Value::as_str), Some("watchdog-stopped"));
    assert!(v.get("mapping").and_then(json::Value::as_str).is_some(), "incumbent salvaged");
    let score = v.get("score").and_then(json::Value::as_f64).expect("score");
    assert!(score.is_finite());

    h.drain();
    let stats = h.join();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.accepted, stats.completed);
}

/// A mapper that panics produces a structured transient error; the daemon
/// keeps serving afterwards.
#[test]
fn panicking_mapper_is_isolated_and_daemon_keeps_serving() {
    let h = start(test_config());
    let addr = h.local_addr();
    let v = request(
        addr,
        &format!(
            "{{\"id\": 1, \"op\": \"search\", \"problem\": \"{PROBLEM}\", \
             \"mapper\": \"panic-injector\", \"retries\": 1}}"
        ),
    );
    assert_eq!(error_code(&v), "mapper-panicked");
    let err = v.get("error").expect("error object");
    assert_eq!(err.get("kind").and_then(json::Value::as_str), Some("transient"));
    assert!(
        err.get("message").and_then(json::Value::as_str).is_some_and(|m| m.contains("injected")),
        "panic payload preserved: {}",
        v.to_text()
    );
    // Same daemon, next request: unharmed.
    let after = request(addr, &search_line(2, 200, ""));
    assert_ok(&after);
    h.drain();
    let stats = h.join();
    assert_eq!(stats.accepted, stats.completed, "panicked request still answered exactly once");
}

/// Each search owns its evaluation cache: two identical gamma searches
/// return the same result and the same `cache_hits` (the first does not
/// warm the second), and the daemon's `stats` total is their sum.
#[test]
fn repeat_searches_report_request_scoped_cache_hits() {
    let h = start(test_config());
    let addr = h.local_addr();
    let line = |id: usize| {
        format!(
            "{{\"id\": {id}, \"op\": \"search\", \"problem\": \"{PROBLEM}\", \
             \"mapper\": \"gamma\", \"samples\": 500, \"seed\": 7}}"
        )
    };
    let first = request(addr, &line(1));
    assert_ok(&first);
    let second = request(addr, &line(2));
    assert_ok(&second);
    for key in ["score", "mapping", "evaluated", "cache_hits"] {
        assert_eq!(first.get(key), second.get(key), "`{key}` differs between identical searches");
    }
    let hits = |v: &json::Value| v.get("cache_hits").and_then(json::Value::as_u64).expect("hits");
    assert!(hits(&first) > 0, "gamma revisits mappings: {}", first.to_text());
    let stats = request(addr, "{\"id\": 3, \"op\": \"stats\"}");
    assert_ok(&stats);
    let total = stats.get("cache").and_then(|c| c.get("hits")).and_then(json::Value::as_u64);
    assert_eq!(total, Some(hits(&first) + hits(&second)), "{}", stats.to_text());
    h.drain();
    h.join();
}

/// Drain with work in flight: the admitted request is finished and
/// answered, a request arriving during the drain gets a structured
/// `draining` rejection, and join() accounts for everything.
#[test]
fn drain_finishes_in_flight_work_and_rejects_new_requests() {
    let cfg = ServeConfig { queue_capacity: 8, ..test_config() };
    let h = start(cfg);
    let addr = h.local_addr();
    // Slow request: deadline-ignorer runs the full 1.5s deadline.
    let in_flight = std::thread::spawn(move || {
        request(
            addr,
            &format!(
                "{{\"id\": 1, \"op\": \"search\", \"problem\": \"{PROBLEM}\", \
                 \"mapper\": \"deadline-ignorer\", \"samples\": 100000000, \
                 \"deadline_ms\": 1500}}"
            ),
        )
    });
    // Let it get admitted, then drain.
    std::thread::sleep(Duration::from_millis(400));
    h.drain();
    // A client arriving mid-drain is refused in a structured way (the
    // connection was accepted before the drain started, so the reader
    // still answers it).
    let late = TcpStream::connect(addr);
    if let Ok(mut s) = late {
        s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        if s.write_all(search_line(2, 100, "").as_bytes()).and_then(|()| s.write_all(b"\n")).is_ok()
        {
            let mut resp = String::new();
            let _ = BufReader::new(s).read_line(&mut resp);
            if !resp.trim().is_empty() {
                let v = json::parse(&resp).expect("response parses");
                assert_eq!(error_code(&v), "draining");
            }
        }
    }
    let v = in_flight.join().expect("in-flight client");
    assert_ok(&v);
    assert_eq!(v.get("degraded").and_then(json::Value::as_bool), Some(true));
    let stats = h.join();
    assert_eq!(stats.accepted, stats.completed, "drain answered the backlog exactly once");
}

/// `health` answers on a standalone daemon — role, draining flag, queue
/// depth, zero workers — and a sweep without any fleet runs inline with
/// the same response shape a coordinator produces.
#[test]
fn health_and_standalone_sweep_roundtrip() {
    let h = start(test_config());
    let addr = h.local_addr();
    let v = request(addr, "{\"id\": 1, \"op\": \"health\"}");
    assert_ok(&v);
    assert_eq!(v.get("role").and_then(json::Value::as_str), Some("standalone"));
    assert_eq!(v.get("draining").and_then(json::Value::as_bool), Some(false));
    assert_eq!(v.get("workers_connected").and_then(json::Value::as_u64), Some(0));
    assert_eq!(v.get("queue_depth").and_then(json::Value::as_u64), Some(0));
    assert!(v.get("uptime_ms").and_then(json::Value::as_u64).is_some());

    let sweep = request(
        addr,
        &format!(
            "{{\"id\": 2, \"op\": \"sweep\", \"layers\": [\"{PROBLEM}\", \
             \"GEMM;h;B=2,M=16,K=16,N=16\"], \"mapper\": \"random\", \"samples\": 150}}"
        ),
    );
    assert_ok(&sweep);
    assert_eq!(sweep.get("layers_total").and_then(json::Value::as_u64), Some(2));
    assert_eq!(sweep.get("layers_from_checkpoint").and_then(json::Value::as_u64), Some(0));
    assert!(matches!(sweep.get("fleet"), Some(json::Value::Null)), "{}", sweep.to_text());
    let layers = sweep.get("layers").and_then(json::Value::as_array).expect("layers array");
    assert_eq!(layers.len(), 2);
    for l in layers {
        assert!(l.get("best_score").and_then(json::Value::as_f64).is_some_and(f64::is_finite));
        assert!(l.get("mapping").and_then(json::Value::as_str).is_some());
    }

    // A named checkpoint needs --checkpoint-dir; without one the request
    // is refused up front, not after hours of sweeping.
    let bad = request(
        addr,
        &format!(
            "{{\"id\": 3, \"op\": \"sweep\", \"layers\": [\"{PROBLEM}\"], \
             \"checkpoint\": \"s.ckpt\"}}"
        ),
    );
    assert_eq!(error_code(&bad), "bad-request");
    // Checkpoint names that escape the directory or collide with the
    // writer's own staging suffixes are permanent errors.
    for name in ["../escape.ckpt", ".hidden", "x.ckpt.bak", "x.ckpt.tmp", ""] {
        let v = request(
            addr,
            &format!(
                "{{\"id\": 4, \"op\": \"sweep\", \"layers\": [\"{PROBLEM}\"], \
                 \"checkpoint\": {}}}",
                json::escape(name)
            ),
        );
        assert_eq!(error_code(&v), "bad-request", "checkpoint name {name:?}");
    }
    h.drain();
    let stats = h.join();
    assert_eq!(stats.accepted, stats.completed);
}

/// Oversized request lines are refused with a structured response before
/// the daemon buffers unbounded input.
#[test]
fn oversized_request_is_refused_not_buffered() {
    let cfg = ServeConfig { max_request_bytes: 1024, ..test_config() };
    let h = start(cfg);
    let addr = h.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let huge = format!("{{\"id\": 1, \"op\": \"ping\", \"pad\": \"{}\"}}", "x".repeat(4096));
    stream.write_all(huge.as_bytes()).and_then(|()| stream.write_all(b"\n")).expect("send");
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).expect("receive");
    let v = json::parse(&resp).expect("response parses");
    assert_eq!(error_code(&v), "request-too-large");
    // The daemon survives and serves the next connection.
    assert_ok(&request(addr, "{\"id\": 2, \"op\": \"ping\"}"));
    h.drain();
    h.join();
}
