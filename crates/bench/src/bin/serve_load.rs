//! `serve_load` — closed-loop load generator for the `geotorch-serve`
//! subsystem.
//!
//! ```sh
//! cargo run --release -p geotorch-bench --bin serve_load -- [--quick] [--clients N] [--requests N]
//! ```
//!
//! Starts the same model twice — once with micro-batching disabled
//! (`max_batch = 1`, the one-forward-per-request baseline) and once with
//! the dynamic batcher on (`max_batch = 8`) — and drives each over real
//! HTTP with N concurrent clients. Reports throughput and p50/p95/p99
//! latency per configuration as a markdown table (also written to
//! `results/serve_load.md`), and exits non-zero unless the batched
//! configuration achieves strictly higher throughput.
//!
//! With `--overload` it instead drives waves of far more concurrent
//! requests than the admission bound, reporting the shed rate and the
//! admitted-request latency to `results/serve_overload.md`; it exits
//! non-zero if nothing was shed or any request saw a status other than
//! 200/429 — the CI chaos job's check that load-shedding actually
//! protects admitted traffic. The overload run also measures replica
//! sharding with a fixed-cost (sleep) model — independent of host core
//! count — and fails unless 4 replicas sustain at least 2x the
//! throughput of 1 replica at equal-or-lower p99.
//!
//! With `--storm` it opens thousands of idle connections that stall
//! mid-headers (a slow-loris swarm) and verifies that live `/predict`
//! and `/healthz` probes still answer promptly — the event-driven
//! front's reason to exist. Results go to `results/serve_storm.md`.
//!
//! With `--republish` it soaks the registry hot-swap path: closed-loop
//! clients hammer `/predict` while the main thread publishes several
//! fine-tuned checkpoints through `POST /models/<m>/publish`. Every
//! response must be a 200 carrying an `X-Model-Version` header naming
//! exactly one published manifest id (no dropped or erroneous requests,
//! ≥ 2 distinct versions observed). Results go to
//! `results/serve_republish.md`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::SeedableRng;

use geotorch_bench::{markdown_table, LatencySummary};
use geotorch_models::raster::SatCnn;
use geotorch_nn::{Module, Var};
use geotorch_serve::{BatchConfig, Registry, ServeConfig, ServeModel, Server};
use geotorch_tensor::{Device, Tensor};

const MODEL: &str = "satcnn";

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn registry() -> Registry {
    let mut registry = Registry::new();
    registry.register_classifier(MODEL, None, || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        SatCnn::new(3, 32, 32, 10, &mut rng)
    });
    registry
}

/// A model whose forward costs a fixed wall-clock sleep instead of CPU:
/// replica scaling measured with it is independent of host core count
/// (N sleeping replica threads overlap even on one core).
struct SleepModel {
    ms: u64,
}

impl Module for SleepModel {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }

    fn set_training(&self, _training: bool) {}
}

impl ServeModel for SleepModel {
    fn predict(&self, batch: &Var) -> Var {
        std::thread::sleep(Duration::from_millis(self.ms));
        batch.clone()
    }
}

/// One blocking HTTP POST over a fresh connection, keeping the whole
/// response: status, the `X-Model-Version` header if present, and the
/// body. `Err` means the request was dropped (connect/read failure) —
/// the republish soak counts those as failures.
fn post_full(
    addr: SocketAddr,
    path: &str,
    body: &str,
) -> Result<(u16, Option<String>, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response: {response:.60}"))?;
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or("response without header terminator")?;
    let version = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("x-model-version")
            .then(|| value.trim().to_string())
    });
    Ok((status, version, payload.to_string()))
}

/// One blocking HTTP POST over a fresh connection; returns the status.
fn post(addr: SocketAddr, path: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code")
}

struct RunResult {
    throughput: f64,
    latency: LatencySummary,
}

/// Drive `clients` closed-loop threads × `requests` requests against an
/// already-started server.
fn drive(addr: SocketAddr, path: &str, payload: &str, clients: usize, requests: usize) -> RunResult {
    let started = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        let sent = Instant::now();
                        let status = post(addr, path, payload);
                        assert_eq!(status, 200, "request failed under load");
                        latencies.push(sent.elapsed().as_secs_f64());
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    RunResult {
        throughput: latencies.len() as f64 / wall,
        latency: LatencySummary::from_secs(&latencies),
    }
}

/// Drive `clients` threads × `requests` requests against a freshly
/// started server with the given batching limit.
fn run(max_batch: usize, clients: usize, requests: usize) -> RunResult {
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch,
            device: Device::parallel(),
            // Closed-loop clients must never be shed in the throughput
            // comparison; admission control gets its own run.
            queue_bound: (clients * 4).max(64),
            replicas: 1,
        },
        http_workers: clients.max(1),
        enable_telemetry: false,
        default_deadline_ms: 60_000,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry(), config).expect("server starts");
    let addr = server.addr();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let sample = Tensor::rand_uniform(&[3, 32, 32], -1.0, 1.0, &mut rng);
    let payload = serde_json::to_string(&sample).expect("serialize sample");
    let path = format!("/predict/{MODEL}");

    // Warm up the kernel pool and the per-thread scratch space so the
    // timed window measures steady state.
    for _ in 0..2 {
        assert_eq!(post(addr, &path, &payload), 200, "warm-up request failed");
    }
    let result = drive(addr, &path, &payload, clients, requests);
    server.shutdown();
    result
}

/// Closed-loop throughput of a fixed-cost model served with `replicas`
/// replica threads.
fn run_replicas(replicas: usize, clients: usize, requests: usize) -> RunResult {
    let mut registry = Registry::new();
    registry.register("sleeper", None, || Box::new(SleepModel { ms: 8 }));
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 1,
            device: Device::parallel(),
            queue_bound: (clients * 4).max(64),
            replicas,
        },
        http_workers: clients.max(1),
        enable_telemetry: false,
        default_deadline_ms: 60_000,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry, config).expect("server starts");
    let addr = server.addr();
    let payload =
        serde_json::to_string(&Tensor::from_vec(vec![0.5], &[1])).expect("serialize sample");
    for _ in 0..2 {
        assert_eq!(post(addr, "/predict/sleeper", &payload), 200, "warm-up failed");
    }
    let result = drive(addr, "/predict/sleeper", &payload, clients, requests);
    server.shutdown();
    result
}

/// Drive waves of `wave_size` one-shot requests against a server whose
/// admission bound is `bound`, recording every status and latency; then
/// measure replica-sharding scaling with the fixed-cost model.
fn run_overload(quick: bool) -> Result<String, String> {
    let bound = 8usize;
    let wave_size = 3 * bound;
    let waves = if quick { 3 } else { 8 };
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            device: Device::parallel(),
            queue_bound: bound,
            replicas: 1,
        },
        // Sockets must never be the bottleneck: admission control, not
        // accept capacity, has to do the shedding.
        http_workers: wave_size,
        enable_telemetry: false,
        default_deadline_ms: 60_000,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry(), config).expect("server starts");
    let addr = server.addr();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let sample = Tensor::rand_uniform(&[3, 32, 32], -1.0, 1.0, &mut rng);
    let payload = serde_json::to_string(&sample).expect("serialize sample");
    let path = format!("/predict/{MODEL}");
    for _ in 0..2 {
        post(addr, &path, &payload);
    }

    // Baseline: waves of exactly the bound, so the comparison includes
    // the same queueing pipeline without any shedding pressure.
    let fire_wave = |n: usize| -> Vec<(u16, f64)> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let payload = payload.as_str();
                    let path = path.as_str();
                    scope.spawn(move || {
                        let sent = Instant::now();
                        let status = post(addr, path, payload);
                        (status, sent.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        })
    };
    let baseline: Vec<f64> = (0..waves)
        .flat_map(|_| fire_wave(bound))
        .map(|(_, secs)| secs)
        .collect();
    let baseline_summary = LatencySummary::from_secs(&baseline);

    let outcomes: Vec<(u16, f64)> = (0..waves).flat_map(|_| fire_wave(wave_size)).collect();
    server.shutdown();

    let total = outcomes.len();
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
    let admitted_summary = LatencySummary::from_secs(&admitted);
    let rows = vec![
        vec![
            format!("unloaded (waves of {bound})"),
            format!("{}", baseline.len()),
            "0.0%".to_string(),
            format!("{:.2}", baseline_summary.p50_ms),
            format!("{:.2}", baseline_summary.p99_ms),
        ],
        vec![
            format!("overload (waves of {wave_size}, bound {bound})"),
            format!("{}", admitted.len()),
            format!("{:.1}%", 100.0 * shed as f64 / total as f64),
            format!("{:.2}", admitted_summary.p50_ms),
            format!("{:.2}", admitted_summary.p99_ms),
        ],
    ];
    let table = markdown_table(
        &["scenario", "served", "shed rate", "admitted p50 ms", "admitted p99 ms"],
        &rows,
    );

    // Replica sharding: a fixed-cost model makes the comparison about
    // the routing layer, not the host's arithmetic throughput.
    let clients = 16;
    let requests = if quick { 8 } else { 25 };
    eprintln!("replica scaling: {clients} clients x {requests} requests, 1 vs 4 replicas ...");
    let one = run_replicas(1, clients, requests);
    let four = run_replicas(4, clients, requests);
    let scaling = four.throughput / one.throughput.max(1e-9);
    let replica_rows = vec![
        vec![
            "1 replica".to_string(),
            format!("{:.1}", one.throughput),
            format!("{:.2}", one.latency.p50_ms),
            format!("{:.2}", one.latency.p99_ms),
        ],
        vec![
            "4 replicas".to_string(),
            format!("{:.1}", four.throughput),
            format!("{:.2}", four.latency.p50_ms),
            format!("{:.2}", four.latency.p99_ms),
        ],
    ];
    let replica_table = markdown_table(
        &["replicas (8 ms fixed-cost model)", "req/s", "p50 ms", "p99 ms"],
        &replica_rows,
    );

    let cores = host_cores();
    let report = format!(
        "## Admission control under overload — shed rate and admitted latency\n\n{table}\n_{waves} waves; shed = HTTP 429 with Retry-After; every other request answered 200_\n\n## Replica sharding — least-loaded routing across model replicas\n\n{replica_table}\n_4-replica/1-replica speedup: {scaling:.2}x ({clients} closed-loop clients; host cores: {cores})_\n"
    );
    println!("{report}");
    std::fs::create_dir_all("results").ok();
    let report = format!("{report}{}", geotorch_bench::host_stamp());
    std::fs::write("results/serve_overload.md", &report).ok();

    if !other.is_empty() {
        return Err(format!(
            "overload produced statuses other than 200/429: {other:?}"
        ));
    }
    if shed == 0 {
        return Err(format!(
            "waves of {wave_size} against a bound of {bound} shed nothing — admission control is not engaging"
        ));
    }
    if admitted.is_empty() {
        return Err("overload admitted nothing — shedding everything protects no one".to_string());
    }
    if scaling < 2.0 {
        return Err(format!(
            "4 replicas sustained only {scaling:.2}x the 1-replica throughput (need >= 2x)"
        ));
    }
    if four.latency.p99_ms > one.latency.p99_ms {
        return Err(format!(
            "4-replica p99 regressed: {:.2} ms vs {:.2} ms with 1 replica",
            four.latency.p99_ms, one.latency.p99_ms
        ));
    }
    Ok(report)
}

/// The registry's seeded state with only the classifier-head bias
/// shifted — a fine-tune whose delta is one small tensor.
fn fine_tuned(delta: f32) -> Vec<Tensor> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let model = SatCnn::new(3, 32, 32, 10, &mut rng);
    let mut state = model.state_dict();
    let last = state.len() - 1;
    state[last] = state[last].add_scalar(delta);
    state
}

/// Serialise a full state dict as a classic named checkpoint — the body
/// `POST /models/<m>/publish` accepts.
fn checkpoint_body(state: &[Tensor], tag: usize) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let model = SatCnn::new(3, 32, 32, 10, &mut rng);
    model.load_state_dict(state).expect("state dict fits the model");
    let path = std::env::temp_dir().join(format!(
        "geotorch_republish_{}_{tag}.json",
        std::process::id()
    ));
    geotorch_core::checkpoint::save_named(&model, MODEL, &path).expect("serialise checkpoint");
    let body = std::fs::read_to_string(&path).expect("read checkpoint");
    std::fs::remove_file(&path).ok();
    body
}

/// Pull the manifest id out of a publish response
/// (`{"model": ..., "id": "...", ...}`).
fn extract_id(body: &str) -> Option<String> {
    let start = body.find("\"id\":\"")? + "\"id\":\"".len();
    let rest = &body[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Soak the hot-swap path: closed-loop clients drive `/predict` while
/// the main thread publishes `republishes` fine-tuned checkpoints. No
/// request may be dropped or answered with anything but 200, and every
/// response must name exactly one known model version.
fn run_republish(quick: bool) -> Result<String, String> {
    let republishes = if quick { 3 } else { 5 };
    let clients = 6;
    let store = std::env::temp_dir().join(format!(
        "geotorch_serve_republish_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&store).ok();
    let mut registry = registry();
    assert!(registry.enable_sync(MODEL, store.clone()), "model registered");
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            device: Device::parallel(),
            queue_bound: 256,
            replicas: 2,
        },
        http_workers: clients + 2,
        enable_telemetry: false,
        default_deadline_ms: 60_000,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry, config).expect("server starts");
    let addr = server.addr();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let sample = Tensor::rand_uniform(&[3, 32, 32], -1.0, 1.0, &mut rng);
    let payload = serde_json::to_string(&sample).expect("serialize sample");
    let path = format!("/predict/{MODEL}");

    let (status, initial, _) = post_full(addr, &path, &payload).map_err(|e| format!("warm-up: {e}"))?;
    if status != 200 {
        return Err(format!("warm-up request got status {status}"));
    }
    let initial = initial.ok_or("warm-up response carried no X-Model-Version header")?;

    // Pre-serialise every checkpoint body so the publish cadence under
    // load is not dominated by JSON encoding.
    let bodies: Vec<String> = (1..=republishes)
        .map(|k| checkpoint_body(&fine_tuned(k as f32 * 0.4), k))
        .collect();

    eprintln!(
        "republish soak: {clients} closed-loop clients, {republishes} publishes mid-load ..."
    );
    let stop = AtomicBool::new(false);
    let publish_path = format!("/models/{MODEL}/publish");
    let (results, published): (Vec<_>, Vec<String>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (stop, payload, path) = (&stop, payload.as_str(), path.as_str());
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        seen.push(post_full(addr, path, payload));
                    }
                    seen
                })
            })
            .collect();
        // Publishes interleave with the load: each one diffs against the
        // store head and hot-swaps both replicas between batches.
        let mut published = Vec::with_capacity(republishes);
        std::thread::sleep(Duration::from_millis(100));
        for body in &bodies {
            match post_full(addr, &publish_path, body) {
                Ok((200, _, response)) => match extract_id(&response) {
                    Some(id) => published.push(id),
                    None => published.push(format!("unparsed: {response:.60}")),
                },
                Ok((status, _, response)) => {
                    published.push(format!("publish failed: {status} {response:.60}"));
                }
                Err(e) => published.push(format!("publish dropped: {e}")),
            }
            std::thread::sleep(Duration::from_millis(150));
        }
        stop.store(true, Ordering::Relaxed);
        let results = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        (results, published)
    });
    server.shutdown();
    std::fs::remove_dir_all(&store).ok();

    // Every publish must have gone through (a failed one pushed an
    // error string instead of a 16-hex manifest id).
    if let Some(bad) = published.iter().find(|id| !id.chars().all(|c| c.is_ascii_hexdigit())) {
        return Err(bad.clone());
    }
    let mut known: Vec<String> = vec![initial.clone()];
    known.extend(published.iter().cloned());

    let total = results.len();
    let mut dropped = Vec::new();
    let mut bad_status = Vec::new();
    let mut unversioned = 0usize;
    let mut counts: Vec<(String, usize)> = known.iter().map(|id| (id.clone(), 0)).collect();
    let mut unknown = Vec::new();
    for outcome in &results {
        match outcome {
            Err(e) => dropped.push(e.clone()),
            Ok((status, _, body)) if *status != 200 => {
                bad_status.push(format!("{status}: {body:.60}"));
            }
            Ok((_, None, _)) => unversioned += 1,
            Ok((_, Some(version), _)) => {
                match counts.iter_mut().find(|(id, _)| id == version) {
                    Some((_, n)) => *n += 1,
                    None => unknown.push(version.clone()),
                }
            }
        }
    }
    let distinct = counts.iter().filter(|(_, n)| *n > 0).count();

    let rows: Vec<Vec<String>> = counts
        .iter()
        .enumerate()
        .map(|(i, (id, n))| {
            let label = if i == 0 {
                "seed head".to_string()
            } else {
                format!("publish #{i}")
            };
            vec![label, id.clone(), format!("{n}")]
        })
        .collect();
    let table = markdown_table(&["version", "manifest id", "responses"], &rows);
    let report = format!(
        "## Hot-swap soak — republishing under live load\n\n{table}\n_{total} responses from {clients} closed-loop clients across {republishes} mid-load publishes; every response answered 200 and named exactly one model version ({distinct} distinct versions observed)_\n"
    );
    println!("{report}");
    std::fs::create_dir_all("results").ok();
    let report = format!("{report}{}", geotorch_bench::host_stamp());
    std::fs::write("results/serve_republish.md", &report).ok();

    if !dropped.is_empty() {
        return Err(format!("{} requests dropped (first: {})", dropped.len(), dropped[0]));
    }
    if !bad_status.is_empty() {
        return Err(format!(
            "{} non-200 responses under republish (first: {})",
            bad_status.len(),
            bad_status[0]
        ));
    }
    if unversioned > 0 {
        return Err(format!("{unversioned} responses carried no X-Model-Version header"));
    }
    if !unknown.is_empty() {
        return Err(format!(
            "responses named versions that were never published: {unknown:?}"
        ));
    }
    if distinct < 2 {
        return Err(format!(
            "only {distinct} distinct version(s) observed across {republishes} publishes — the swap never landed mid-load"
        ));
    }
    Ok(report)
}

/// A slow-loris swarm: `idle` connections stall mid-headers while live
/// probes measure whether anyone else still gets served.
fn run_storm(quick: bool) -> Result<String, String> {
    let idle = if quick { 500 } else { 2000 };
    let probes = if quick { 25 } else { 100 };
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            device: Device::parallel(),
            queue_bound: 64,
            replicas: 1,
        },
        http_workers: 4,
        enable_telemetry: false,
        default_deadline_ms: 60_000,
        // Long enough that the swarm outlives the whole probe window.
        socket_timeout_ms: 60_000,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry(), config).expect("server starts");
    let addr = server.addr();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let sample = Tensor::rand_uniform(&[3, 32, 32], -1.0, 1.0, &mut rng);
    let payload = serde_json::to_string(&sample).expect("serialize sample");
    let path = format!("/predict/{MODEL}");
    assert_eq!(post(addr, &path, &payload), 200, "warm-up request failed");

    eprintln!("opening {idle} stalled connections ...");
    let mut swarm = Vec::with_capacity(idle);
    for i in 0..idle {
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => return Err(format!("stalled connection {i} failed to open: {e}")),
        };
        // A partial request line, then silence: the connection parks in
        // the event loop's buffer, never reaching a responder thread.
        stream.write_all(b"POST /predict/").ok();
        swarm.push(stream);
    }

    let mut latencies = Vec::with_capacity(probes);
    for i in 0..probes {
        let sent = Instant::now();
        let status = if i % 5 == 0 {
            // Every fifth probe checks the health endpoint instead.
            let mut stream = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
            stream
                .write_all(
                    format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                        .as_bytes(),
                )
                .ok();
            let mut response = String::new();
            stream.read_to_string(&mut response).ok();
            response
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        } else {
            post(addr, &path, &payload)
        };
        if status != 200 {
            return Err(format!("probe {i} got status {status} under the storm"));
        }
        latencies.push(sent.elapsed().as_secs_f64());
    }
    drop(swarm);
    server.shutdown();

    let summary = LatencySummary::from_secs(&latencies);
    let cores = host_cores();
    let table = markdown_table(
        &["stalled connections", "live probes", "p50 ms", "p99 ms"],
        &[vec![
            format!("{idle}"),
            format!("{probes}"),
            format!("{:.2}", summary.p50_ms),
            format!("{:.2}", summary.p99_ms),
        ]],
    );
    let report = format!(
        "## Slow-loris storm — live traffic under {idle} stalled connections\n\n{table}\n_every probe answered 200; host cores: {cores}_\n"
    );
    println!("{report}");
    std::fs::create_dir_all("results").ok();
    let report = format!("{report}{}", geotorch_bench::host_stamp());
    std::fs::write("results/serve_storm.md", &report).ok();
    if summary.p99_ms > 2_000.0 {
        return Err(format!(
            "probe p99 {:.0} ms under the storm — stalled connections are delaying live traffic",
            summary.p99_ms
        ));
    }
    Ok(report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--overload") {
        if let Err(msg) = run_overload(quick) {
            eprintln!("FAIL: {msg}");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--storm") {
        if let Err(msg) = run_storm(quick) {
            eprintln!("FAIL: {msg}");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--republish") {
        if let Err(msg) = run_republish(quick) {
            eprintln!("FAIL: {msg}");
            std::process::exit(1);
        }
        return;
    }
    let flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let clients = flag("--clients", 8);
    let requests = flag("--requests", if quick { 12 } else { 40 });

    eprintln!("serve_load: {clients} clients x {requests} requests per configuration");
    let configs = [("no batching (max_batch=1)", 1), ("micro-batching (max_batch=8)", 8)];
    let results: Vec<RunResult> = configs
        .iter()
        .map(|&(label, max_batch)| {
            eprintln!("running {label} ...");
            run(max_batch, clients, requests)
        })
        .collect();

    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(&results)
        .map(|(&(label, _), r)| {
            vec![
                label.to_string(),
                format!("{:.1}", r.throughput),
                format!("{:.2}", r.latency.p50_ms),
                format!("{:.2}", r.latency.p95_ms),
                format!("{:.2}", r.latency.p99_ms),
                format!("{:.2}", r.latency.mean_ms),
            ]
        })
        .collect();
    let table = markdown_table(
        &["configuration", "req/s", "p50 ms", "p95 ms", "p99 ms", "mean ms"],
        &rows,
    );
    let speedup = results[1].throughput / results[0].throughput.max(1e-9);
    let cores = host_cores();
    let report = format!(
        "## Serving throughput — dynamic micro-batching vs per-request forwards\n\n{table}\n_batched/unbatched speedup: {speedup:.2}x ({clients} clients, {requests} requests each; host cores: {cores})_\n"
    );
    println!("{report}");
    std::fs::create_dir_all("results").ok();
    let report = format!("{report}{}", geotorch_bench::host_stamp());
    std::fs::write("results/serve_load.md", &report).ok();

    if results[1].throughput <= results[0].throughput {
        eprintln!(
            "FAIL: micro-batching must beat the per-request baseline ({:.1} <= {:.1} req/s)",
            results[1].throughput, results[0].throughput
        );
        std::process::exit(1);
    }
}
