//! Acceptance tests for the serving robustness work, driven over real
//! HTTP sockets and measured with [`LatencySummary`]:
//!
//! * **Overload**: with an admission bound of B, firing waves of > 2B
//!   concurrent requests must shed with 429 while every admitted request
//!   completes within its deadline, with an admitted p99 within 2x of
//!   what draining a full queue costs in forwards of the sleep-cost
//!   model — and `/healthz` must walk ok → degraded → ok as the
//!   backpressure watermarks trip and clear.
//! * **Graceful drain**: shutdown with requests in flight answers every
//!   admitted request (0 dropped) and returns well inside the drain
//!   hard timeout.
//! * **Throughput**: against the sleep-cost model, batching and replica
//!   sharding each at least double closed-loop throughput — true on any
//!   host, because the per-forward cost is a sleep, not arithmetic.
//!
//! The tests drive process-global telemetry and real load, so they
//! serialise through a gate.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use geotorch_nn::{Module, Var};
use geotorch_serve::{BatchConfig, Registry, ServeConfig, ServeModel, Server};
use geotorch_tensor::{Device, Tensor};
use serde::Value;

#[path = "common/latency.rs"]
mod latency;
use latency::LatencySummary;

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sleeps a fixed time per forward, so queueing behaviour is the only
/// variable under test.
struct FixedCost(u64);

impl Module for FixedCost {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for FixedCost {
    fn predict(&self, batch: &Var) -> Var {
        std::thread::sleep(Duration::from_millis(self.0));
        batch.mul_scalar(2.0)
    }
}

const BOUND: usize = 8;
const MAX_BATCH: usize = 4;
const FORWARD_MS: u64 = 8;

fn start_server(drain_timeout_ms: u64) -> Server {
    let mut registry = Registry::new();
    registry.register("fixed", None, || Box::new(FixedCost(FORWARD_MS)) as Box<dyn ServeModel>);
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: MAX_BATCH,
            device: Device::Cpu,
            queue_bound: BOUND,
            replicas: 1,
        },
        // Enough HTTP workers that sockets are never the bottleneck:
        // admission control, not accept capacity, must do the shedding.
        http_workers: 3 * BOUND,
        default_deadline_ms: 10_000,
        socket_timeout_ms: 10_000,
        max_body: 1 << 20,
        drain_timeout_ms,
    };
    Server::start("127.0.0.1:0", registry, config).expect("server starts")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
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
    (status, payload.to_string())
}

fn healthz_status(addr: SocketAddr) -> String {
    let (status, body) = {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request =
            format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        let (head, payload) = response.split_once("\r\n\r\n").expect("split");
        let status: u16 = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap();
        (status, payload.to_string())
    };
    assert!(status == 200 || status == 503, "healthz must always answer");
    let health: Value = serde_json::from_str(&body).expect("healthz is JSON");
    health
        .get("status")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Fire one wave of `n` concurrent single-shot requests; returns
/// (status, latency seconds) per request.
fn wave(addr: SocketAddr, payload: &str, n: usize) -> Vec<(u16, f64)> {
    let barrier = Arc::new(Barrier::new(n));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    let (status, _) = post(addr, "/predict/fixed", payload);
                    (status, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn overload_sheds_429_admitted_meet_deadlines_and_health_recovers() {
    let _g = serial();
    let server = start_server(30_000);
    let addr = server.addr();
    let payload = serde_json::to_string(&Tensor::from_vec(vec![1.0], &[1])).unwrap();

    // Warm-up, then waves of exactly the bound: nothing may be shed
    // while the queue never holds more than it admits.
    post(addr, "/predict/fixed", &payload);
    assert_eq!(healthz_status(addr), "ok", "healthy before load");
    for _ in 0..4 {
        for (status, _) in wave(addr, &payload, BOUND) {
            assert_eq!(status, 200, "waves of the bound are never shed");
        }
    }

    // Overload: waves of 3B concurrent requests against a bound of B,
    // with a healthz poller watching for the degraded window.
    let stop_poller = Arc::new(AtomicBool::new(false));
    let poller = std::thread::spawn({
        let stop = Arc::clone(&stop_poller);
        move || {
            let mut saw_degraded = false;
            while !stop.load(Ordering::SeqCst) {
                if healthz_status(addr) == "degraded" {
                    saw_degraded = true;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            saw_degraded
        }
    });
    let mut outcomes = Vec::new();
    for _ in 0..4 {
        outcomes.extend(wave(addr, &payload, 3 * BOUND));
    }
    stop_poller.store(true, Ordering::SeqCst);
    let saw_degraded = poller.join().unwrap();

    let admitted: Vec<f64> = outcomes
        .iter()
        .filter(|(s, _)| *s == 200)
        .map(|(_, secs)| *secs)
        .collect();
    let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
    let other: Vec<u16> = outcomes
        .iter()
        .map(|(s, _)| *s)
        .filter(|s| *s != 200 && *s != 429)
        .collect();
    assert!(
        other.is_empty(),
        "overload must produce only 200s and 429s, got {other:?}"
    );
    assert!(shed > 0, "waves of 3x the bound must shed");
    assert!(
        admitted.len() >= BOUND,
        "admission control must still serve up to the bound per wave, served {}",
        admitted.len()
    );

    // Admitted requests are the point of load shedding: they must not
    // absorb the overload as latency. An admitted request has at most a
    // full queue ahead of it: the forward already running plus
    // BOUND / MAX_BATCH to drain the queue, its own batch included.
    // Unshed, a wave would need 1 + 23/4 forwards, past 2x that.
    let drain_ms = ((1 + BOUND.div_ceil(MAX_BATCH)) as u64 * FORWARD_MS) as f64;
    let admitted_summary = LatencySummary::from_secs(&admitted);
    assert!(
        admitted_summary.p99_ms <= 2.0 * drain_ms,
        "admitted p99 {:.2} ms vs {drain_ms} ms to drain a full queue — more than 2x under overload",
        admitted_summary.p99_ms,
    );

    assert!(
        saw_degraded,
        "healthz must report degraded while the queue is past its high watermark"
    );
    // Hysteresis: once the waves drain, health returns to ok.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let status = healthz_status(addr);
        if status == "ok" {
            break;
        }
        assert!(Instant::now() < deadline, "healthz stuck at `{status}` after the load");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

/// Closed-loop throughput of a fixed-cost model with batches of up to
/// `max_batch` across `replicas` replica threads, measured directly
/// against the batcher (no HTTP).
fn fixed_cost_throughput(max_batch: usize, replicas: usize) -> f64 {
    use geotorch_serve::ModelWorker;
    let config = BatchConfig {
        max_batch,
        device: Device::Cpu,
        queue_bound: 64,
        replicas,
    };
    let worker =
        ModelWorker::spawn("fixed", config, || Ok(Box::new(FixedCost(8)))).expect("spawn");
    let client = worker.client();
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 12;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let client = client.clone();
            scope.spawn(move || {
                for _ in 0..REQUESTS {
                    let sample = Tensor::from_vec(vec![1.0], &[1]);
                    let out = client
                        .predict_with_deadline(sample, Some(Duration::from_secs(30)))
                        .expect("predict");
                    assert_eq!(out.at(&[0]), 2.0, "fixed-cost model doubles");
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    worker.shutdown();
    (CLIENTS * REQUESTS) as f64 / wall
}

/// The replica-sharding acceptance bar: 4 replicas of a fixed-cost
/// (sleeping, not CPU-bound) model must sustain at least 2x the
/// throughput of 1 replica — true even on a single-core host, because
/// sleeping replica threads overlap.
#[test]
fn four_replicas_double_fixed_cost_throughput() {
    let _g = serial();
    let one = fixed_cost_throughput(1, 1);
    let four = fixed_cost_throughput(1, 4);
    assert!(
        four >= 2.0 * one,
        "4 replicas sustained {four:.1} req/s vs {one:.1} req/s with 1 — need >= 2x"
    );
}

/// Continuous batching's reason to exist: 8 closed-loop clients on one
/// replica, where a forward costs the same sleep at any batch size, must
/// get at least 2x the throughput of one forward per request.
#[test]
fn batching_beats_one_forward_per_request() {
    let _g = serial();
    let unbatched = fixed_cost_throughput(1, 1);
    let batched = fixed_cost_throughput(8, 1);
    assert!(
        batched >= 2.0 * unbatched,
        "max_batch 8 sustained {batched:.1} req/s vs {unbatched:.1} req/s at max_batch 1 — need >= 2x"
    );
}

#[test]
fn graceful_shutdown_answers_every_in_flight_request() {
    let _g = serial();
    const IN_FLIGHT: usize = 16;
    let server = start_server(10_000);
    let addr = server.addr();
    let payload = serde_json::to_string(&Tensor::from_vec(vec![7.0], &[1])).unwrap();
    post(addr, "/predict/fixed", &payload); // warm-up

    let barrier = Arc::new(Barrier::new(IN_FLIGHT + 1));
    let outcomes: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..IN_FLIGHT)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let payload = payload.as_str();
                scope.spawn(move || {
                    barrier.wait();
                    post(addr, "/predict/fixed", payload)
                })
            })
            .collect();
        barrier.wait();
        // Give the HTTP workers time to read every request and admit it
        // into the batch queue, then pull the plug mid-flight.
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        server.shutdown();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "drain must finish well inside the 10 s hard timeout, took {elapsed:?}"
        );
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Zero dropped: every request that reached the server gets a
    // complete, parseable answer — an admitted one gets its prediction.
    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    for (status, body) in &outcomes {
        // 200: admitted and served through the drain. 429: shed at
        // admission (16 > the bound of 8). 503: raced the stop flag.
        // All three are complete answers; a dropped connection would
        // have failed the read in `post` instead.
        assert!(
            *status == 200 || *status == 429 || *status == 503,
            "drain must answer every request cleanly, got {status}: {body}"
        );
        if *status == 200 {
            let parsed: Value = serde_json::from_str(body).expect("complete JSON body");
            let data = parsed.get("data").and_then(Value::as_array).expect("tensor data");
            assert_eq!(data.len(), 1, "complete prediction payload");
        }
    }
    assert!(
        ok >= 1,
        "requests admitted before the drain must still be served, got {outcomes:?}"
    );
}
