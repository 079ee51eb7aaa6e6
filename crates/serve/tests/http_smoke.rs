//! The CI smoke path: train a tiny model, checkpoint it, serve it over
//! HTTP on an ephemeral port, and round-trip a prediction plus the
//! metrics endpoint — the same sequence the CI job runs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use geotorch_core::checkpoint;
use geotorch_core::trainer::{TrainConfig, Trainer, UpdateMode};
use geotorch_datasets::{shuffled_split, RasterDataset};
use geotorch_models::raster::SatCnn;
use geotorch_models::RasterClassifier;
use geotorch_nn::{no_grad, Module, Var};
use geotorch_serve::{BatchConfig, Registry, Server, ServeConfig};
use geotorch_tensor::{Device, Tensor};
use rand::SeedableRng;
use serde::Value;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("geotorch_smoke_{}_{name}.json", std::process::id()))
}

fn satcnn() -> SatCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    SatCnn::new(3, 16, 16, 3, &mut rng)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            ..BatchConfig::default()
        },
        http_workers: 2,
        ..ServeConfig::default()
    }
}

/// Minimal HTTP/1.1 client over a raw socket: one request, one response.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, payload.to_string())
}

#[test]
fn train_checkpoint_serve_roundtrip() {
    // 1. Train one epoch on a tiny synthetic raster dataset.
    let dataset = RasterDataset::classification("smoke", 3, 16, 16, 3, 4, 0);
    let model = satcnn();
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 4,
        learning_rate: 1e-3,
        early_stopping_patience: None,
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed: 0,
        device: Device::Cpu,
        replicas: 1,
    });
    let (train, val, _) = shuffled_split(dataset.len(), 0);
    trainer.fit_classifier(&model, &dataset, &train, &val);

    // 2. Checkpoint with the v1 named header.
    let ckpt = temp_path("satcnn");
    checkpoint::save_named(&model, "satcnn", &ckpt).expect("save");

    // 3. Serve it from the checkpoint on an ephemeral port.
    let mut registry = Registry::new();
    let ckpt_clone = ckpt.clone();
    registry.register_classifier("satcnn", Some(ckpt_clone), satcnn);
    let server = Server::start("127.0.0.1:0", registry, serve_config()).expect("server starts");
    let addr = server.addr();

    // 4. /healthz names the served model.
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz: {body}");
    let health: Value = serde_json::from_str(&body).expect("healthz is JSON");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    let models = health
        .get("models")
        .and_then(Value::as_array)
        .expect("models array");
    assert!(models.iter().any(|m| m.as_str() == Some("satcnn")));

    // 5. /predict round-trips and matches a local no-grad forward of the
    //    trained model.
    let (sample, _, _) = dataset.get(0);
    let payload = serde_json::to_string(&sample).expect("serialize sample");
    let (status, body) = http(addr, "POST", "/predict/satcnn", &payload);
    assert_eq!(status, 200, "predict: {body}");
    let response: Value = serde_json::from_str(&body).expect("prediction is JSON");
    assert_eq!(
        response.get("model").and_then(Value::as_str),
        Some("satcnn")
    );
    let served: Tensor =
        serde_json::from_str(&body).expect("prediction payload embeds a tensor");
    model.set_training(false);
    let expected = no_grad(|| {
        model
            .forward(&Var::constant(sample.reshape(&[1, 3, 16, 16])), None)
            .value()
            .index_axis(0, 0)
    });
    assert_eq!(served.shape(), expected.shape());
    assert_eq!(
        served.as_slice(),
        expected.as_slice(),
        "served logits must match a local eval forward of the trained weights"
    );

    // 6. /metrics parses and reports the serve.* stats (after a few
    //    more one-at-a-time predictions, so the timers hold a mean).
    for _ in 0..8 {
        assert_eq!(http(addr, "POST", "/predict/satcnn", &payload).0, 200);
    }
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&body).expect("metrics is JSON");
    let stats = metrics
        .get("stats")
        .and_then(Value::as_array)
        .expect("stats array");
    let names: Vec<&str> = stats
        .iter()
        .map(|s| s.get("name").and_then(Value::as_str).expect("stat name"))
        .collect();
    for key in [
        "serve.requests",
        "serve.batches",
        "serve.batch_size",
        "serve.queue_wait",
        "serve.gather_wait",
        "serve.http.requests",
        "serve.model.satcnn",
        // Tensor-allocator gauges ride along in every snapshot, so an
        // operator can watch pool behaviour straight from /metrics.
        "alloc.pool_hit",
        "alloc.pool_miss",
        "alloc.bytes",
        "alloc.bytes_in_use",
        "alloc.high_water_bytes",
        "alloc.pooled_bytes",
    ] {
        assert!(names.contains(&key), "missing {key} in {names:?}");
    }
    // A lone caller never waits for company: first pop → forward start
    // is bookkeeping, not a window (the operator-visible twin of the
    // benchmark's `serve.batch_wait_ms`).
    let gather = &stats[names.iter().position(|n| *n == "serve.gather_wait").expect("checked above")];
    let field = |key: &str| gather.get(key).and_then(Value::as_f64).expect("numeric field");
    let mean_ms = field("total_ns") / field("calls") / 1e6;
    assert!(mean_ms < 0.5, "lone-caller mean gather wait {mean_ms:.3} ms");

    // 7. Error paths: unknown model → 404, malformed tensor → 400.
    let (status, _) = http(addr, "POST", "/predict/nope", &payload);
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/predict/satcnn", "{\"shape\": [2]}");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);

    server.shutdown();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn disarmed_fault_points_add_no_measurable_latency_to_serving() {
    // The serve path is sprinkled with fault points; with no plan
    // installed each one must stay a single atomic load. A regression
    // (lock, allocation, clock read) would blow this bound by orders of
    // magnitude.
    assert!(!geotorch_telemetry::fault::armed());
    let started = std::time::Instant::now();
    for _ in 0..1_000_000 {
        let _ = geotorch_telemetry::fault_point!("serve.batcher.forward");
    }
    assert!(
        started.elapsed() < std::time::Duration::from_millis(500),
        "1M disarmed fault points took {:?}",
        started.elapsed()
    );
}

#[test]
fn server_refuses_to_start_on_wrong_architecture_checkpoint() {
    // A checkpoint from a *different* architecture (and name) must abort
    // Server::start with an error, never a panic.
    let ckpt = temp_path("wrong");
    let donor = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        geotorch_models::raster::Fcn::new(2, 1, 4, &mut rng)
    };
    checkpoint::save_named(&donor, "fcn", &ckpt).expect("save");

    let mut registry = Registry::new();
    let ckpt_clone = ckpt.clone();
    registry.register_classifier("satcnn", Some(ckpt_clone), satcnn);
    let result = Server::start("127.0.0.1:0", registry, serve_config());
    match result {
        Err(geotorch_serve::ServeError::ModelLoad(msg)) => {
            assert!(msg.contains("satcnn"), "error should name the model: {msg}");
        }
        Err(other) => panic!("expected ModelLoad, got {other}"),
        Ok(_) => panic!("server must not start with a mismatched checkpoint"),
    }
    std::fs::remove_file(&ckpt).ok();
}
