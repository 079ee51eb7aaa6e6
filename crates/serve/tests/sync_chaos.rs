//! Chaos tests for the replicated-registry sync path: inject seeded
//! faults into every window of a pull — manifest fetch, tensor fetch,
//! apply, and the replica hot-swap — and prove a failed sync leaves the
//! old model serving **byte-identically**, while a retry after the
//! fault clears converges both nodes to the same head (bit-identical
//! stores) with zero dropped requests. A soak publishes fine-tunes over
//! HTTP under live `/predict` load and checks every reply's version.
//!
//! The fault registry is process-global; every test takes `serial()`.
//! `GEOTORCH_CHAOS_SEED` (CI sweeps 1–3) seeds the fault plans.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use geotorch_core::Manifest;
use geotorch_models::raster::SatCnn;
use geotorch_nn::Module;
use geotorch_serve::{BatchConfig, Registry, ServeConfig, Server};
use geotorch_tensor::{Device, Tensor};
use geotorch_telemetry::fault::{self, FaultAction, FaultPlan};
use rand::SeedableRng;
use serde::Value;

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_seed() -> u64 {
    std::env::var("GEOTORCH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "geotorch_sync_chaos_{}_{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Both nodes build the same deterministic model, so their seeded store
/// heads are identical manifests (same content hash → same id) before
/// any publish happens.
fn satcnn() -> SatCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    SatCnn::new(2, 8, 8, 3, &mut rng)
}

fn start_node(dir: &Path, replicas: usize) -> Server {
    let mut registry = Registry::new();
    registry.register_classifier("satcnn", None, satcnn);
    assert!(registry.enable_sync("satcnn", dir.to_path_buf()));
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            device: Device::Cpu,
            replicas,
            ..BatchConfig::default()
        },
        http_workers: 2,
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", registry, config).expect("node starts")
}

fn sample() -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    Tensor::rand_uniform(&[2, 8, 8], 0.0, 1.0, &mut rng)
}

/// One in-process prediction: output row + the version label it carried.
fn predict(server: &Server) -> (Vec<f32>, String) {
    let client = server.client("satcnn").expect("client");
    let (out, version) = client
        .predict_versioned(sample(), None)
        .expect("predict succeeds");
    (out.as_slice().to_vec(), version.to_string())
}

/// A fine-tuned state dict: the seeded weights with only the last
/// parameter (the classifier head bias) changed — the delta-sync
/// sweet spot.
fn fine_tuned(factor: f32) -> Vec<Tensor> {
    let mut state = satcnn().state_dict();
    let last = state.len() - 1;
    state[last] = state[last].add_scalar(factor);
    state
}

/// `state` as a saved checkpoint file: the body `POST
/// /models/<m>/publish` takes.
fn checkpoint_body(state: &[Tensor], path: &Path) -> String {
    let model = satcnn();
    model.load_state_dict(state).expect("same architecture");
    geotorch_core::checkpoint::save_named(&model, "satcnn", path).expect("save");
    let body = std::fs::read_to_string(path).expect("read back");
    std::fs::remove_file(path).ok();
    body
}

/// Both stores must hold bit-identical head manifests and, for every
/// entry the head references, bit-identical payload files.
fn assert_stores_bit_identical(dir_a: &Path, dir_b: &Path) {
    let head_a = std::fs::read(dir_a.join("head.json")).expect("node A head");
    let head_b = std::fs::read(dir_b.join("head.json")).expect("node B head");
    assert_eq!(head_a, head_b, "head manifests must be byte-identical");
    let manifest =
        Manifest::from_json(std::str::from_utf8(&head_a).unwrap()).expect("head parses");
    for (i, entry) in manifest.entries.iter().enumerate() {
        let name = format!("t{i}@{}-{}.json", entry.ver, entry.hash);
        let a = std::fs::read(dir_a.join(&name)).expect("payload on A");
        let b = std::fs::read(dir_b.join(&name)).expect("payload on B");
        assert_eq!(a, b, "payload {name} must be byte-identical on both nodes");
    }
}

#[test]
fn failed_fetch_or_apply_leaves_old_model_serving_and_retry_converges() {
    let _g = serial();
    for point in [
        "registry.sync.manifest",
        "registry.sync.tensor",
        "registry.sync.apply",
    ] {
        let dir_a = store_dir(&format!("a_{}", point.replace('.', "_")));
        let dir_b = store_dir(&format!("b_{}", point.replace('.', "_")));
        let node_a = start_node(&dir_a, 1);
        let node_b = start_node(&dir_b, 1);
        let peer = node_a.addr().to_string();

        // Seeded heads are identical before any publish.
        assert_eq!(node_a.head_id("satcnn"), node_b.head_id("satcnn"));
        let (golden_out, golden_version) = predict(&node_b);

        // Fine-tune on A: only the head bias changes.
        let report = node_a
            .publish("satcnn", &fine_tuned(1.5))
            .expect("publish on A");
        assert_eq!(report.changed.len(), 1, "only one tensor changed");
        let new_id = report.id.clone();

        // A failed pull must not move B's head, and B must keep serving
        // the old weights byte-identically under the old version label.
        fault::install(FaultPlan::new(chaos_seed()).always(
            point,
            FaultAction::Error("peer unreachable".into()),
        ));
        let err = node_b
            .sync_from("satcnn", &peer)
            .expect_err("injected fault must fail the sync");
        assert!(
            err.to_string().contains("injected"),
            "{point}: unexpected error {err}"
        );
        fault::clear();
        assert_eq!(
            node_b.head_id("satcnn"),
            Some(golden_version.clone()),
            "{point}: a failed sync must not move the head"
        );
        let (out, version) = predict(&node_b);
        assert_eq!(out, golden_out, "{point}: old weights must serve byte-identically");
        assert_eq!(version, golden_version, "{point}: old label must still apply");

        // The retry converges: same head id on both nodes, fetched bytes
        // proportional to the one changed tensor, bit-identical stores.
        let report = node_b.sync_from("satcnn", &peer).expect("retry succeeds");
        assert!(report.advanced);
        assert_eq!(report.id, new_id);
        assert_eq!(
            report.fetched.len(),
            1,
            "{point}: only the changed tensor is fetched"
        );
        assert_eq!(node_b.head_id("satcnn"), node_a.head_id("satcnn"));
        let (out_b, version_b) = predict(&node_b);
        let (out_a, version_a) = predict(&node_a);
        assert_eq!(version_a, new_id);
        assert_eq!(version_b, new_id, "{point}: replies carry the new label");
        assert_eq!(out_b, out_a, "{point}: both nodes serve the new weights");
        assert_stores_bit_identical(&dir_a, &dir_b);

        node_a.shutdown();
        node_b.shutdown();
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}

#[test]
fn failed_swap_keeps_old_weights_serving_until_retry_applies() {
    let _g = serial();
    let dir_a = store_dir("a_swap");
    let dir_b = store_dir("b_swap");
    let node_a = start_node(&dir_a, 2);
    let node_b = start_node(&dir_b, 2);
    let peer = node_a.addr().to_string();
    let (golden_out, golden_version) = predict(&node_b);

    let report = node_a
        .publish("satcnn", &fine_tuned(0.5))
        .expect("publish on A");
    let new_id = report.id.clone();
    let (new_out, _) = predict(&node_a);

    // The pull itself succeeds (store advances), but every replica's
    // swap window fails — so the *old* weights keep serving, still
    // labelled with the old id: every response stays attributable to
    // the weights that actually produced it.
    fault::install(FaultPlan::new(chaos_seed()).always(
        "registry.sync.swap",
        FaultAction::Error("swap window crashed".into()),
    ));
    let report = node_b.sync_from("satcnn", &peer).expect("sync applies");
    assert!(report.advanced);
    assert_eq!(node_b.head_id("satcnn"), Some(new_id.clone()));
    let (out, version) = predict(&node_b);
    assert_eq!(
        (out, version),
        (golden_out.clone(), golden_version.clone()),
        "a failed swap must leave the old weights serving under the old label"
    );

    // Clear the fault: each replica retries the pending swap before its
    // next batch, with no republish needed. Requests issued while the
    // swap propagates are answered (never dropped) by exactly one of
    // the two weight sets, consistently labelled.
    fault::clear();
    let mut converged = false;
    for _ in 0..50 {
        let (out, version) = predict(&node_b);
        if version == new_id {
            assert_eq!(out, new_out, "new label must mean new weights");
            converged = true;
            break;
        }
        assert_eq!(
            (out, version.as_str()),
            (golden_out.clone(), golden_version.as_str()),
            "old label must mean old weights"
        );
    }
    assert!(converged, "replicas must converge to the new weights");

    node_a.shutdown();
    node_b.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn concurrent_publishes_converge_to_one_head_on_both_nodes() {
    let _g = serial();
    let dir_a = store_dir("a_conc");
    let dir_b = store_dir("b_conc");
    let node_a = start_node(&dir_a, 1);
    let node_b = start_node(&dir_b, 1);

    // Divergent fine-tunes published on both sides before any sync.
    node_a.publish("satcnn", &fine_tuned(2.0)).expect("publish A");
    node_b.publish("satcnn", &fine_tuned(3.0)).expect("publish B");
    assert_ne!(node_a.head_id("satcnn"), node_b.head_id("satcnn"));

    // One pull in each direction settles both nodes on the same merge
    // head — the deterministic symmetric tiebreak needs no coordinator.
    node_b
        .sync_from("satcnn", &node_a.addr().to_string())
        .expect("B pulls A");
    node_a
        .sync_from("satcnn", &node_b.addr().to_string())
        .expect("A pulls B");
    assert_eq!(node_a.head_id("satcnn"), node_b.head_id("satcnn"));
    let (out_a, ver_a) = predict(&node_a);
    let (out_b, ver_b) = predict(&node_b);
    assert_eq!(ver_a, ver_b);
    assert_eq!(out_a, out_b, "converged nodes must serve identical weights");
    assert_stores_bit_identical(&dir_a, &dir_b);

    node_a.shutdown();
    node_b.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// One-shot HTTP POST: (status, `X-Model-Version` header, body).
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Option<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let (head, payload) = response.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let version = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("x-model-version")
            .then(|| value.trim().to_string())
    });
    (status, version, payload.to_string())
}

/// The hot-swap soak: closed-loop clients drive `/predict` over HTTP
/// while three fine-tunes are published through `POST
/// /models/<m>/publish`. Every reply must be a 200 whose
/// `X-Model-Version` names the seed head or a published id, and at
/// least two versions must answer — a swap landed mid-load.
#[test]
fn republish_under_load_versions_every_reply() {
    let _g = serial();
    let dir = store_dir("republish");
    let node = start_node(&dir, 2);
    let addr = node.addr();
    let (_, seed_id) = predict(&node);
    let payload = serde_json::to_string(&sample()).expect("serialize sample");
    let bodies: Vec<String> = (1..=3)
        .map(|k| {
            checkpoint_body(
                &fine_tuned(k as f32 * 0.4),
                &dir.with_extension("ckpt.json"),
            )
        })
        .collect();

    let stop = AtomicBool::new(false);
    let (replies, publishes) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut replies = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        replies.push(post(addr, "/predict/satcnn", &payload));
                    }
                    replies
                })
            })
            .collect();
        let publishes: Vec<(u16, String)> = bodies
            .iter()
            .map(|body| {
                std::thread::sleep(Duration::from_millis(50));
                let (status, _, reply) = post(addr, "/models/satcnn/publish", body);
                (status, reply)
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        let replies: Vec<_> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect();
        (replies, publishes)
    });
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let mut known = vec![seed_id];
    for (status, reply) in &publishes {
        assert_eq!(*status, 200, "publish failed: {reply}");
        let reply: Value = serde_json::from_str(reply).expect("publish reply is JSON");
        let id = reply.get("id").and_then(Value::as_str).expect("manifest id");
        known.push(id.to_string());
    }
    let mut seen = BTreeSet::new();
    for (status, version, body) in &replies {
        assert_eq!(*status, 200, "a reply under republish failed: {body}");
        let version = version.as_ref().expect("every reply carries X-Model-Version");
        assert!(
            known.contains(version),
            "reply names version {version}, never published (known {known:?})"
        );
        seen.insert(version);
    }
    assert!(
        seen.len() >= 2,
        "only {seen:?} answered across 3 publishes — no swap landed mid-load"
    );
}
