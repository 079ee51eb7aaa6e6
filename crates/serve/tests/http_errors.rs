//! Every documented HTTP error path, end to end over a real socket:
//! malformed JSON, wrong tensor shape, unknown model, oversized body,
//! premature disconnect, stalled (slow-loris) clients, and admission
//! shedding — each with its status code and its `serve.error.*` counter.
//!
//! Counters are process-global and monotonic, so every assertion is a
//! before/after delta (`≥ +1`), which stays correct when the tests in
//! this binary run in parallel.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use geotorch_nn::{Module, Var};
use geotorch_serve::{BatchConfig, Registry, ServeConfig, ServeModel, Server};
use geotorch_tensor::{Device, Tensor};
use serde::Value;

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

/// Accepts only `[B, 2]` batches — any other trailing shape is the
/// "wrong tensor shape" model failure.
struct Picky;

impl Module for Picky {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for Picky {
    fn predict(&self, batch: &Var) -> Var {
        assert!(
            batch.shape().len() == 2 && batch.shape()[1] == 2,
            "picky model wants [B, 2], got {:?}",
            batch.shape()
        );
        batch.mul_scalar(2.0)
    }
}

/// Sleeps before answering, to hold the admission slot.
struct Sleepy(u64);

impl Module for Sleepy {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for Sleepy {
    fn predict(&self, batch: &Var) -> Var {
        std::thread::sleep(Duration::from_millis(self.0));
        batch.mul_scalar(2.0)
    }
}

fn start_server(queue_bound: usize, socket_timeout_ms: u64, max_body: usize) -> Server {
    let mut registry = Registry::new();
    registry.register("echo", None, || Box::new(Echo) as Box<dyn ServeModel>);
    registry.register("picky", None, || Box::new(Picky) as Box<dyn ServeModel>);
    registry.register("sleepy", None, || Box::new(Sleepy(400)) as Box<dyn ServeModel>);
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            device: Device::Cpu,
            queue_bound,
            replicas: 1,
        },
        http_workers: 4,
        default_deadline_ms: 10_000,
        socket_timeout_ms,
        max_body,
        drain_timeout_ms: 10_000,
    };
    Server::start("127.0.0.1:0", registry, config).expect("server starts")
}

/// One blocking request; returns (status, raw header block, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let (head, payload) = response.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), payload.to_string())
}

/// The value of counter `name` in the `/metrics` snapshot.
fn counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, _, body) = http(addr, "GET", "/metrics", "");
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

fn error_body(body: &str) -> String {
    let parsed: Value = serde_json::from_str(body).expect("error responses are JSON");
    parsed
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn payload_for(sample: &Tensor) -> String {
    serde_json::to_string(sample).expect("serialize")
}

#[test]
fn malformed_json_is_400_and_counted() {
    let server = start_server(16, 5_000, 1 << 20);
    let addr = server.addr();
    let before = counter(addr, "serve.error.bad_request");
    let (status, _, body) = http(addr, "POST", "/predict/echo", "this is {not json");
    assert_eq!(status, 400, "{body}");
    assert!(error_body(&body).contains("tensor payload"), "{body}");
    assert!(counter(addr, "serve.error.bad_request") > before);
    server.shutdown();
}

#[test]
fn wrong_tensor_shape_is_500_and_counted() {
    let server = start_server(16, 5_000, 1 << 20);
    let addr = server.addr();
    let before = counter(addr, "serve.error.internal");
    // A [3] sample batches to [B, 3]; the picky model wants [B, 2]. The
    // forward fails, the response is a clean 500, and the worker lives.
    let (status, _, body) =
        http(addr, "POST", "/predict/picky", &payload_for(&Tensor::zeros(&[3])));
    assert_eq!(status, 500, "{body}");
    assert!(counter(addr, "serve.error.internal") > before);
    let (status, _, body) = http(
        addr,
        "POST",
        "/predict/picky",
        &payload_for(&Tensor::from_vec(vec![1.0, 2.0], &[2])),
    );
    assert_eq!(status, 200, "the worker must survive a shape panic: {body}");
    server.shutdown();
}

#[test]
fn unknown_model_and_route_are_404_and_counted() {
    let server = start_server(16, 5_000, 1 << 20);
    let addr = server.addr();
    let before = counter(addr, "serve.error.not_found");
    let (status, _, body) = http(
        addr,
        "POST",
        "/predict/unregistered",
        &payload_for(&Tensor::zeros(&[2])),
    );
    assert_eq!(status, 404, "{body}");
    assert!(error_body(&body).contains("unregistered"), "{body}");
    let (status, _, _) = http(addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    assert!(counter(addr, "serve.error.not_found") >= before + 2);
    server.shutdown();
}

#[test]
fn oversized_body_is_413_and_counted() {
    let server = start_server(16, 5_000, 4096);
    let addr = server.addr();
    let before = counter(addr, "serve.error.too_large");
    let big = "x".repeat(8192);
    let (status, _, body) = http(addr, "POST", "/predict/echo", &big);
    assert_eq!(status, 413, "{body}");
    assert!(error_body(&body).contains("4096"), "the limit is named: {body}");
    assert!(counter(addr, "serve.error.too_large") > before);
    server.shutdown();
}

#[test]
fn premature_disconnect_is_counted_and_the_server_survives() {
    let server = start_server(16, 5_000, 1 << 20);
    let addr = server.addr();
    let before = counter(addr, "serve.error.disconnect");
    {
        // Promise 64 bytes of body, send 3, vanish.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!("POST /predict/echo HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 64\r\n\r\nabc")
                    .as_bytes(),
            )
            .expect("send partial request");
    } // dropped: the connection closes mid-body
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter(addr, "serve.error.disconnect") < before + 1 {
        assert!(
            Instant::now() < deadline,
            "the disconnect was never counted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // The worker that hit the disconnect is back in the accept loop.
    let (status, _, body) = http(
        addr,
        "POST",
        "/predict/echo",
        &payload_for(&Tensor::from_vec(vec![21.0], &[1])),
    );
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn stalled_client_gets_408_within_the_socket_timeout() {
    let server = start_server(16, 300, 1 << 20);
    let addr = server.addr();
    let before = counter(addr, "serve.error.slow_client");
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Send nothing: a slow-loris client holding the worker hostage.
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let elapsed = started.elapsed();
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert!(
        elapsed >= Duration::from_millis(250) && elapsed < Duration::from_secs(5),
        "the 408 must arrive at the socket timeout, took {elapsed:?}"
    );
    assert!(counter(addr, "serve.error.slow_client") > before);
    server.shutdown();
}

#[test]
fn hostile_shapes_are_400_and_a_lone_responder_survives_them() {
    // One responder: a body that killed it would leave no thread to
    // answer anything after.
    let mut registry = Registry::new();
    registry.register("echo", None, || Box::new(Echo) as Box<dyn ServeModel>);
    let config = ServeConfig {
        batch: BatchConfig {
            device: Device::Cpu,
            ..BatchConfig::default()
        },
        http_workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry, config).expect("server starts");
    let addr = server.addr();
    for body in [
        // The element count overflows `usize`.
        r#"{"shape":[4294967296,4294967296],"data":[]}"#,
        // Dimensions outside `usize`: negative, and past its range.
        r#"{"shape":[-3,2],"data":[]}"#,
        r#"{"shape":[1e20],"data":[]}"#,
    ] {
        let (status, _, reply) = http(addr, "POST", "/predict/echo", body);
        assert_eq!(status, 400, "{body}: {reply}");
        assert!(error_body(&reply).contains("tensor payload"), "{reply}");
    }
    let (status, _, reply) = http(
        addr,
        "POST",
        "/predict/echo",
        &payload_for(&Tensor::from_vec(vec![21.0], &[1])),
    );
    assert_eq!(status, 200, "the lone responder must survive: {reply}");
    server.shutdown();
}

#[test]
fn tensor_spec_whose_hash_is_not_a_content_hash_is_400() {
    let dir = std::env::temp_dir().join(format!("geotorch_http_spec_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut registry = Registry::new();
    registry.register("echo", None, || Box::new(Echo) as Box<dyn ServeModel>);
    assert!(registry.enable_sync("echo", &dir));
    let config = ServeConfig {
        batch: BatchConfig {
            device: Device::Cpu,
            ..BatchConfig::default()
        },
        http_workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry, config).expect("server starts");
    let addr = server.addr();
    for spec in ["0@1-../../head", "0@1-0123456789ABCDEF", "0@1-0123456789abcdef0"] {
        let (status, _, reply) = http(addr, "GET", &format!("/models/echo/tensors/{spec}"), "");
        assert_eq!(status, 400, "{spec}: {reply}");
        assert!(error_body(&reply).contains("bad tensor spec"), "{reply}");
    }
    let (status, _, reply) = http(addr, "GET", "/models/echo/manifest", "");
    assert_eq!(status, 200, "the responder must survive: {reply}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shedding_over_http_is_429_with_retry_after() {
    let server = start_server(1, 5_000, 1 << 20);
    let addr = server.addr();
    let before = counter(addr, "serve.error.overloaded");
    let payload = payload_for(&Tensor::from_vec(vec![1.0], &[1]));
    let holder = std::thread::spawn({
        let payload = payload.clone();
        move || http(addr, "POST", "/predict/sleepy", &payload)
    });
    // Let the holder occupy the single admission slot (its model sleeps
    // 400 ms), then get shed.
    std::thread::sleep(Duration::from_millis(100));
    let (status, head, body) = http(addr, "POST", "/predict/sleepy", &payload);
    assert_eq!(status, 429, "{body}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after"),
        "429 must carry Retry-After: {head}"
    );
    assert!(counter(addr, "serve.error.overloaded") > before);
    let (status, _, body) = holder.join().unwrap();
    assert_eq!(status, 200, "the admitted request is unaffected: {body}");
    server.shutdown();
}
