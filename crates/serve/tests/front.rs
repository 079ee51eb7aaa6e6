//! The event-driven front's concurrency contract, end to end over real
//! sockets:
//!
//! * **slow-loris**: clients that stall mid-headers park in the event
//!   loop and must not delay anyone else's `/predict` or `/healthz`;
//! * **keep-alive**: an HTTP/1.1 connection serves sequential requests
//!   without reconnecting, honors `Connection: close`, and is closed
//!   silently when it idles between requests;
//! * **pipelining**: several requests written back-to-back on one
//!   connection are all answered, in order;
//! * **accept backoff**: an injected `accept` failure counts
//!   `serve.error.accept` and the listener recovers (the connection in
//!   the backlog is still served) instead of busy-spinning.
//!
//! Counters are process-global and monotonic, so assertions are
//! before/after deltas; the fault-injection test serialises through a
//! gate because the fault registry is process-global too.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use geotorch_nn::{Module, Var};
use geotorch_serve::{BatchConfig, Registry, ServeConfig, ServeModel, Server};
use geotorch_tensor::{Device, Tensor};
use geotorch_telemetry::fault::{self, FaultAction, FaultPlan};
use serde::Value;

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Doubles its input.
struct Echo;

impl Module for Echo {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for Echo {
    fn predict(&self, batch: &Var) -> Var {
        batch.mul_scalar(2.0)
    }
}

fn start_server(http_workers: usize, socket_timeout_ms: u64) -> Server {
    let mut registry = Registry::new();
    registry.register("echo", None, || Box::new(Echo) as Box<dyn ServeModel>);
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            device: Device::Cpu,
            queue_bound: 64,
            replicas: 1,
        },
        http_workers,
        default_deadline_ms: 10_000,
        socket_timeout_ms,
        max_body: 1 << 20,
        drain_timeout_ms: 10_000,
    };
    Server::start("127.0.0.1:0", registry, config).expect("server starts")
}

fn predict_payload(v: f32) -> String {
    serde_json::to_string(&Tensor::from_vec(vec![v], &[1])).expect("serialize")
}

fn request_bytes(method: &str, path: &str, body: &str, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
}

/// One blocking one-shot request (`Connection: close`).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(request_bytes(method, path, body, true).as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let (head, payload) = response.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, payload.to_string())
}

/// Read exactly one response off a keep-alive stream: headers, then a
/// `Content-Length`-sized body. Returns (status, header block, body).
/// The `BufReader` belongs to the connection, so bytes of a pipelined
/// next response that arrive in the same read wait there for the next
/// call instead of being dropped.
fn read_one_response(stream: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        let n = stream.read_line(&mut head).expect("read response headers");
        assert!(n > 0, "connection closed mid-response");
    }
    head.truncate(head.len() - 4);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case("content-length")))
        .map(|(_, v)| v.trim().parse().expect("content-length"))
        .expect("response carries Content-Length");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read response body");
    (status, head, String::from_utf8(body).expect("utf-8 body"))
}

/// The value of counter `name` in the `/metrics` snapshot.
fn counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "metrics endpoint must serve: {body}");
    let metrics: Value = serde_json::from_str(&body).expect("metrics is JSON");
    metrics
        .get("stats")
        .and_then(Value::as_array)
        .expect("stats array")
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|s| s.get("count"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64
}

fn doubled(body: &str) -> f64 {
    let parsed: Value = serde_json::from_str(body).expect("prediction is JSON");
    parsed
        .get("data")
        .and_then(Value::as_array)
        .and_then(|a| a.first())
        .and_then(Value::as_f64)
        .expect("prediction data")
}

/// The head-of-line-blocking regression test: with only two responder
/// threads, a whole swarm of clients stalled mid-headers must not delay
/// concurrent predictions or health checks beyond a small bound. On the
/// seed front (one inline `handle_connection` per accept thread) each
/// stalled client wedged a thread for the whole socket timeout.
#[test]
fn stalled_clients_do_not_delay_concurrent_requests() {
    let _g = serial();
    let server = start_server(2, 5_000);
    let addr = server.addr();
    let (status, _) = http(addr, "POST", "/predict/echo", &predict_payload(1.0));
    assert_eq!(status, 200, "warm-up");

    // Slow-loris swarms: partial request line, then silence, held open
    // while live traffic runs. Both ends of every socket live in this
    // process, so 400 stays under the default 1,024-fd soft limit.
    for swarm_size in [16, 400] {
        let swarm: Vec<TcpStream> = (0..swarm_size)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).expect("stalled connect");
                stream.write_all(b"POST /pre").expect("partial header");
                stream
            })
            .collect();

        // Live traffic must be unaffected, well inside the 5 s socket
        // timeout the stalled swarm is burning.
        for i in 0..10 {
            let started = Instant::now();
            let (status, body) = if i % 3 == 0 {
                http(addr, "GET", "/healthz", "")
            } else {
                http(addr, "POST", "/predict/echo", &predict_payload(i as f32))
            };
            let elapsed = started.elapsed();
            assert_eq!(status, 200, "live request {i} failed: {body}");
            if i % 3 != 0 {
                assert_eq!(doubled(&body), 2.0 * i as f64, "echo result");
            }
            assert!(
                elapsed < Duration::from_secs(2),
                "request {i} took {elapsed:?} behind {swarm_size} stalled clients"
            );
        }
        drop(swarm);
    }
    server.shutdown();
}

#[test]
fn keep_alive_connection_serves_sequential_requests() {
    let _g = serial();
    let server = start_server(2, 400);
    let addr = server.addr();
    let mut stream = BufReader::new(TcpStream::connect(addr).expect("connect"));
    stream
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Three requests, one at a time, no Connection: close — the same
    // socket must answer all three and stay open.
    for i in 0..3 {
        stream
            .get_mut()
            .write_all(
                request_bytes("POST", "/predict/echo", &predict_payload(i as f32), false)
                    .as_bytes(),
            )
            .expect("send");
        let (status, head, body) = read_one_response(&mut stream);
        assert_eq!(status, 200, "keep-alive request {i}: {body}");
        assert_eq!(doubled(&body), 2.0 * i as f64, "request {i} result");
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "response must advertise keep-alive: {head}"
        );
    }

    // An idle keep-alive connection is closed silently (no 408) once
    // the idle timer fires.
    let mut rest = String::new();
    stream
        .read_to_string(&mut rest)
        .expect("server closes the idle connection cleanly");
    assert!(
        rest.is_empty(),
        "idle keep-alive close must not write anything, got: {rest}"
    );

    // Connection: close is still honored.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(request_bytes("POST", "/predict/echo", &predict_payload(9.0), true).as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(
        response.to_ascii_lowercase().contains("connection: close"),
        "explicit close must be honored: {response}"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_are_all_answered_in_order() {
    let _g = serial();
    let server = start_server(2, 5_000);
    let addr = server.addr();
    let mut stream = BufReader::new(TcpStream::connect(addr).expect("connect"));

    // Five requests in a single write; the last one opts out of
    // keep-alive so the connection ends deterministically.
    let mut batch = String::new();
    for i in 0..5 {
        batch.push_str(&request_bytes(
            "POST",
            "/predict/echo",
            &predict_payload(10.0 + i as f32),
            i == 4,
        ));
    }
    stream.get_mut().write_all(batch.as_bytes()).expect("send pipeline");

    for i in 0..5 {
        let (status, _, body) = read_one_response(&mut stream);
        assert_eq!(status, 200, "pipelined request {i}: {body}");
        assert_eq!(
            doubled(&body),
            2.0 * (10.0 + i as f64),
            "pipelined responses must come back in request order"
        );
    }
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("close after final response");
    assert!(rest.is_empty(), "nothing after the final response: {rest}");
    server.shutdown();
}

/// An injected accept failure must count `serve.error.accept`, back off
/// instead of hot-looping, and still serve the connection that was
/// waiting in the backlog when the listener recovers.
#[test]
fn accept_fault_backs_off_and_recovers() {
    let _g = serial();
    let server = start_server(2, 5_000);
    let addr = server.addr();
    let before = counter(addr, "serve.error.accept");

    fault::install(FaultPlan::new(1).on_nth(
        "serve.http.accept",
        1,
        FaultAction::Error("simulated EMFILE".into()),
    ));
    let started = Instant::now();
    let (status, body) = http(addr, "POST", "/predict/echo", &predict_payload(3.0));
    let elapsed = started.elapsed();
    let log = fault::clear();

    assert_eq!(status, 200, "request behind the accept fault: {body}");
    assert_eq!(doubled(&body), 6.0);
    assert!(
        elapsed < Duration::from_secs(2),
        "backoff recovery took {elapsed:?}"
    );
    assert_eq!(log.len(), 1, "exactly one injection: {log:?}");
    assert_eq!(log[0].point, "serve.http.accept");
    assert!(
        counter(addr, "serve.error.accept") > before,
        "accept failures must be counted"
    );
    server.shutdown();
}
