//! Robustness behaviour of the serving stack: deadlines, admission
//! control with backpressure watermarks, graceful drain with a hard
//! timeout, and worker-death visibility — much of it driven through the
//! deterministic fault-injection harness in `geotorch-telemetry::fault`.
//!
//! The fault registry and the telemetry counters are process-global, so
//! every test here takes the `serial()` gate: a plan installed by one
//! test must never fire inside another's forward pass.

mod common;

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use geotorch_nn::layers::Linear;
use geotorch_nn::{Layer, Module, Var};
use geotorch_serve::{
    BatchConfig, ModelWorker, Registry, ServeConfig, ServeError, ServeModel, Server,
};
use geotorch_tensor::{Device, Tensor};
use geotorch_telemetry::fault::{self, FaultAction, FaultPlan};
use rand::SeedableRng;
use serde::Value;

use common::{latched_worker, wait_for_routed};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The seed every chaos scenario runs under; CI sweeps it via the
/// `GEOTORCH_CHAOS_SEED` matrix.
fn chaos_seed() -> u64 {
    std::env::var("GEOTORCH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn cpu_config(max_batch: usize, queue_bound: usize) -> BatchConfig {
    BatchConfig {
        max_batch,
        device: Device::Cpu,
        queue_bound,
        replicas: 1,
    }
}

fn sample(v: f32) -> Tensor {
    Tensor::from_vec(vec![v], &[1])
}

/// Doubles its input; no parameters, no surprises.
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

/// Sleeps `ms` per forward and logs the first element of every batch it
/// actually ran — the log is how tests prove an expired request never
/// reached the model.
struct Slow {
    ms: u64,
    log: Arc<Mutex<Vec<f32>>>,
}

impl Module for Slow {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for Slow {
    fn predict(&self, batch: &Var) -> Var {
        std::thread::sleep(Duration::from_millis(self.ms));
        self.log.lock().unwrap().push(batch.value().as_slice()[0]);
        batch.mul_scalar(2.0)
    }
}

/// A one-weight linear model, seeded so a checkpoint differs from a
/// fresh build.
struct Affine(Linear);

impl Affine {
    fn new(seed: u64) -> Affine {
        Affine(Linear::new(
            1,
            1,
            &mut rand::rngs::StdRng::seed_from_u64(seed),
        ))
    }
}

impl Module for Affine {
    fn parameters(&self) -> Vec<Var> {
        self.0.parameters()
    }
}

impl ServeModel for Affine {
    fn predict(&self, batch: &Var) -> Var {
        self.0.forward(batch)
    }
}

fn slow_worker(ms: u64, config: BatchConfig) -> (ModelWorker, Arc<Mutex<Vec<f32>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let log_clone = Arc::clone(&log);
    let worker = ModelWorker::spawn("slow", config, move || {
        Ok(Box::new(Slow {
            ms,
            log: Arc::clone(&log_clone),
        }) as Box<dyn ServeModel>)
    })
    .expect("worker starts");
    (worker, log)
}

#[test]
fn zero_budget_is_rejected_at_admission() {
    let _g = serial();
    let (worker, log) = slow_worker(5, cpu_config(1, 16));
    let err = worker
        .client()
        .predict_with_deadline(sample(1.0), Some(Duration::ZERO))
        .expect_err("an already-expired request must not be served");
    assert!(matches!(err, ServeError::DeadlineExceeded(_)), "{err}");
    worker.shutdown();
    assert!(
        log.lock().unwrap().is_empty(),
        "an expired request must never reach the model"
    );
}

#[test]
fn request_that_expires_in_the_queue_never_takes_a_batch_slot() {
    let _g = serial();
    let (worker, latch) = latched_worker("expiry", cpu_config(4, 16));
    let client = worker.client();
    std::thread::scope(|scope| {
        let a = scope.spawn(|| client.predict(sample(1.0)));
        assert_eq!(latch.entered(), 1);
        // B queues behind A's held forward and its budget runs out
        // there: the caller gives up at its own deadline, while the
        // worker is still busy.
        let err = client
            .predict_with_deadline(sample(2.0), Some(Duration::from_millis(20)))
            .expect_err("B's deadline expires while A's forward is held");
        assert!(matches!(err, ServeError::DeadlineExceeded(_)), "{err}");
        // C queues behind the expired B.
        let c = scope.spawn(|| client.predict(sample(3.0)));
        wait_for_routed(&worker, 3);
        latch.release();
        assert_eq!(a.join().unwrap().unwrap().as_slice(), &[2.0]);
        assert_eq!(
            latch.entered(),
            1,
            "the expired request must be rejected at queue pop, not stacked with C"
        );
        latch.release();
        assert_eq!(c.join().unwrap().unwrap().as_slice(), &[6.0]);
    });
    worker.shutdown();
}

#[test]
fn admission_past_the_bound_sheds_with_overloaded() {
    let _g = serial();
    const K: usize = 8;
    let (worker, _log) = slow_worker(100, cpu_config(1, 1));
    let barrier = Arc::new(Barrier::new(K));
    let outcomes: Vec<Result<Tensor, ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let client = worker.client();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    client.predict(sample(i as f32))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded(_))))
        .count();
    assert_eq!(ok + shed, K, "every request is served or shed: {outcomes:?}");
    assert!(ok >= 1, "the admitted request must be served");
    assert!(shed >= 1, "a bound of 1 under {K} simultaneous requests must shed");
    worker.shutdown();
}

#[test]
fn backpressure_sets_past_high_watermark_and_clears_with_hysteresis() {
    let _g = serial();
    const K: usize = 8;
    // bound 8 → high watermark 6, low watermark 2.
    let (worker, _log) = slow_worker(30, cpu_config(1, K));
    let client = worker.client();
    assert_eq!(client.queue_bound(), K);
    assert!(!client.is_pressured());

    let barrier = Arc::new(Barrier::new(K + 1));
    std::thread::scope(|scope| {
        for i in 0..K {
            let client = client.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                client.predict(sample(i as f32)).expect("admitted within bound")
            });
        }
        barrier.wait();
        // Depth jumps to 8 ≥ high watermark and stays pressured until it
        // falls below the low watermark (~6 forwards later), a window of
        // well over 100 ms — the poll below must observe it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !client.is_pressured() {
            assert!(Instant::now() < deadline, "never saw the pressured state");
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    // The admission guard drops on the worker thread and may trail the
    // reply by a moment; poll rather than assert instantly.
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.is_pressured() || client.queue_depth() != 0 {
        assert!(
            Instant::now() < deadline,
            "pressure must clear and the queue must empty once drained \
             (pressured={}, depth={})",
            client.is_pressured(),
            client.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    worker.shutdown();
}

#[test]
fn injected_forward_panic_kills_the_worker_and_is_visible() {
    let _g = serial();
    fault::install(FaultPlan::new(chaos_seed()).on_nth(
        "serve.batcher.forward",
        1,
        FaultAction::Panic("poisoned forward".into()),
    ));
    let worker = ModelWorker::spawn("echo", cpu_config(4, 16), || {
        Ok(Box::new(Echo) as Box<dyn ServeModel>)
    })
    .expect("worker starts");
    let client = worker.client();
    let err = client
        .predict(sample(1.0))
        .expect_err("the injected panic kills the request");
    assert!(
        matches!(err, ServeError::Internal(_) | ServeError::Unavailable(_)),
        "unexpected error: {err}"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while !client.has_died() {
        assert!(Instant::now() < deadline, "worker death never became visible");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(!client.is_alive());
    let log = fault::clear();
    assert_eq!(log.len(), 1, "exactly one injection: {log:?}");
    assert_eq!(log[0].point, "serve.batcher.forward");

    // Requests after the death fail fast with Unavailable (503), they
    // don't hang on a dead queue.
    let err = client.predict(sample(2.0)).expect_err("worker is gone");
    assert!(matches!(err, ServeError::Unavailable(_)), "{err}");
    worker.shutdown();
}

#[test]
fn healthz_reports_a_dead_worker_as_degraded() {
    let _g = serial();
    let mut registry = Registry::new();
    registry.register("echo", None, || Box::new(Echo) as Box<dyn ServeModel>);
    let config = ServeConfig {
        batch: cpu_config(4, 16),
        http_workers: 2,
        default_deadline_ms: 2_000,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry, config).expect("server starts");
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/healthz", "", &[]);
    assert_eq!(status, 200, "{body}");
    assert_eq!(health_field(&body, "status"), "ok");
    assert_eq!(model_status(&body, "echo"), "ok");

    fault::install(FaultPlan::new(chaos_seed()).on_nth(
        "serve.batcher.forward",
        1,
        FaultAction::Panic("chaos".into()),
    ));
    let payload = serde_json::to_string(&sample(3.0)).unwrap();
    let (status, _) = http(addr, "POST", "/predict/echo", &payload, &[]);
    assert!(
        status == 500 || status == 503 || status == 504,
        "the poisoned forward must fail the request, got {status}"
    );
    fault::clear();

    // The regression this guards: a dead model thread must flip
    // aggregate health to degraded and name the dead model.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = http(addr, "GET", "/healthz", "", &[]);
        assert_eq!(status, 200, "degraded still serves healthz: {body}");
        if health_field(&body, "status") == "degraded" && model_status(&body, "echo") == "dead" {
            break;
        }
        assert!(Instant::now() < deadline, "healthz never reported the death: {body}");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Predictions for the dead model are refused with 503, not hung.
    let (status, body) = http(addr, "POST", "/predict/echo", &payload, &[]);
    assert_eq!(status, 503, "{body}");
    server.shutdown();
}

#[test]
fn begin_drain_flips_healthz_and_refuses_predictions() {
    let _g = serial();
    let mut registry = Registry::new();
    registry.register("echo", None, || Box::new(Echo) as Box<dyn ServeModel>);
    let config = ServeConfig {
        batch: cpu_config(4, 16),
        http_workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry, config).expect("server starts");
    let addr = server.addr();
    let (status, _) = http(addr, "GET", "/healthz", "", &[]);
    assert_eq!(status, 200);

    server.begin_drain();
    // 503 tells load balancers to stop routing here; the body says why.
    let (status, body) = http(addr, "GET", "/healthz", "", &[]);
    assert_eq!(status, 503, "{body}");
    assert_eq!(health_field(&body, "status"), "draining");
    let payload = serde_json::to_string(&sample(1.0)).unwrap();
    let (status, body) = http(addr, "POST", "/predict/echo", &payload, &[]);
    assert_eq!(status, 503, "{body}");
    server.shutdown();
}

#[test]
fn deadline_header_is_honoured_and_validated_over_http() {
    let _g = serial();
    let mut registry = Registry::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let log_clone = Arc::clone(&log);
    registry.register("slow", None, move || {
        Box::new(Slow {
            ms: 300,
            log: Arc::clone(&log_clone),
        }) as Box<dyn ServeModel>
    });
    let config = ServeConfig {
        batch: cpu_config(1, 16),
        http_workers: 2,
        default_deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry, config).expect("server starts");
    let addr = server.addr();
    let payload = serde_json::to_string(&sample(1.0)).unwrap();

    // A 40 ms budget against a 300 ms model: 504, and in ~40 ms, not 300.
    let started = Instant::now();
    let (status, body) = http(addr, "POST", "/predict/slow", &payload, &[("X-Deadline-Ms", "40")]);
    assert_eq!(status, 504, "{body}");
    assert!(
        started.elapsed() < Duration::from_millis(280),
        "the 504 must come at the deadline, not after the forward"
    );

    // An unparseable deadline is the client's mistake: 400.
    let (status, body) =
        http(addr, "POST", "/predict/slow", &payload, &[("X-Deadline-Ms", "soon")]);
    assert_eq!(status, 400, "{body}");

    // A generous budget succeeds.
    let (status, body) =
        http(addr, "POST", "/predict/slow", &payload, &[("X-Deadline-Ms", "5000")]);
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn a_checkpointed_model_is_read_once_for_all_its_replicas() {
    let _g = serial();
    let path = std::env::temp_dir().join(format!(
        "geotorch_robustness_{}_read_once.json",
        std::process::id()
    ));
    let donor = Affine::new(1);
    geotorch_core::checkpoint::save_named(&donor, "affine", &path).expect("save");
    let start = || {
        let mut registry = Registry::new();
        registry.register("affine", Some(path.clone()), || {
            Box::new(Affine::new(2)) as Box<dyn ServeModel>
        });
        let config = ServeConfig {
            batch: BatchConfig {
                replicas: 3,
                ..cpu_config(4, 16)
            },
            http_workers: 1,
            ..ServeConfig::default()
        };
        Server::start("127.0.0.1:0", registry, config)
    };

    // An empty plan arms the fault points without failing any: it only
    // counts their hits.
    fault::install(FaultPlan::new(chaos_seed()));
    let server = start().expect("server starts");
    assert_eq!(
        fault::hits("serve.registry.load"),
        1,
        "three replicas must share one read of the checkpoint"
    );
    let served = server
        .client("affine")
        .expect("client")
        .predict(sample(3.0))
        .expect("predict");
    let expected = donor
        .predict(&Var::constant(sample(3.0).reshape(&[1, 1])))
        .value();
    assert_eq!(
        served.as_slice(),
        expected.as_slice(),
        "replicas serve the checkpoint"
    );
    server.shutdown();

    fault::install(FaultPlan::new(chaos_seed()).always(
        "serve.registry.load",
        FaultAction::Error("disk gone".into()),
    ));
    let err = start().err().expect("a failed load aborts startup");
    assert!(matches!(err, ServeError::ModelLoad(_)), "{err}");
    fault::clear();
    std::fs::remove_file(&path).ok();
}

#[test]
fn worker_drain_answers_every_admitted_request() {
    let _g = serial();
    const K: usize = 12;
    let (worker, log) = slow_worker(20, cpu_config(2, 64));
    let barrier = Arc::new(Barrier::new(K + 1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let client = worker.client();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    client.predict(sample(i as f32))
                })
            })
            .collect();
        barrier.wait();
        // All K are admitted (bound 64) before the sentinel goes in;
        // FIFO guarantees every one of them is still served.
        std::thread::sleep(Duration::from_millis(40));
        let started = Instant::now();
        assert!(
            worker.shutdown_within(Duration::from_secs(10)),
            "a healthy worker must drain well within the hard timeout"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
        for (i, handle) in handles.into_iter().enumerate() {
            let out = handle
                .join()
                .unwrap()
                .unwrap_or_else(|e| panic!("request {i} dropped during drain: {e}"));
            assert_eq!(out.as_slice(), &[2.0 * i as f32]);
        }
    });
    let forwards = log.lock().unwrap().len();
    assert!(
        (1..=K).contains(&forwards),
        "all {K} requests served across {forwards} batched forwards"
    );
}

#[test]
fn drain_hard_timeout_detaches_a_wedged_worker() {
    let _g = serial();
    fault::install(
        FaultPlan::new(chaos_seed()).always("serve.batcher.model", FaultAction::DelayMs(1_500)),
    );
    let worker = ModelWorker::spawn("echo", cpu_config(1, 16), || {
        Ok(Box::new(Echo) as Box<dyn ServeModel>)
    })
    .expect("worker starts");
    let client = worker.client();
    let wedged = std::thread::spawn(move || {
        client.predict_with_deadline(sample(1.0), Some(Duration::from_millis(200)))
    });
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let drained = worker.shutdown_within(Duration::from_millis(100));
    let elapsed = started.elapsed();
    assert!(!drained, "a 1.5 s stall cannot drain inside a 100 ms budget");
    assert!(
        elapsed < Duration::from_secs(1),
        "the hard timeout must bound the drain, waited {elapsed:?}"
    );
    // The caller is bounded by its own deadline, not by the stall.
    let err = wedged.join().unwrap().expect_err("deadline fires first");
    assert!(matches!(err, ServeError::DeadlineExceeded(_)), "{err}");
    fault::clear();
    // Give the detached worker time to finish its injected sleep before
    // the next gated test installs a different plan.
    std::thread::sleep(Duration::from_millis(1_600));
}

#[test]
fn injected_faults_are_deterministic_per_seed_through_the_serve_path() {
    let _g = serial();
    let run = |seed: u64| -> (Vec<bool>, Vec<geotorch_telemetry::fault::FaultRecord>) {
        fault::install(FaultPlan::new(seed).with_probability(
            "serve.batcher.model",
            0.5,
            FaultAction::Error("chaos".into()),
        ));
        let worker = ModelWorker::spawn("echo", cpu_config(1, 16), || {
            Ok(Box::new(Echo) as Box<dyn ServeModel>)
        })
        .expect("worker starts");
        let client = worker.client();
        // max_batch 1 and sequential submission: request i is exactly
        // hit i of the fault point.
        let failures: Vec<bool> = (0..24)
            .map(|i| client.predict(sample(i as f32)).is_err())
            .collect();
        worker.shutdown();
        (failures, fault::clear())
    };
    let seed = chaos_seed();
    let (fail_a, log_a) = run(seed);
    let (fail_b, log_b) = run(seed);
    assert_eq!(fail_a, fail_b, "same seed must fail the same requests");
    assert_eq!(log_a, log_b, "same seed must record the same injections");
    assert!(
        fail_a.iter().any(|&f| f) && fail_a.iter().any(|&f| !f),
        "p=0.5 over 24 requests should fail some and pass some: {fail_a:?}"
    );
    let (fail_c, _) = run(seed.wrapping_add(1));
    assert_ne!(fail_a, fail_c, "a different seed should fail different requests");
}

// ---- tiny HTTP client --------------------------------------------------

fn http(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut headers = String::new();
    for (key, value) in extra_headers {
        headers.push_str(&format!("{key}: {value}\r\n"));
    }
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{headers}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
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

fn health_field(body: &str, field: &str) -> String {
    let health: Value = serde_json::from_str(body).expect("healthz is JSON");
    health
        .get(field)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn model_status(body: &str, model: &str) -> String {
    let health: Value = serde_json::from_str(body).expect("healthz is JSON");
    health
        .get("model_status")
        .and_then(|m| m.get(model))
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}
