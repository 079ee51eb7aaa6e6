//! `sync_bench` — measures the registry sync protocol's wire cost over
//! real HTTP and proves delta transfer is O(changed tensors).
//!
//! ```sh
//! cargo run --release -p geotorch-bench --bin sync_bench -- [--quick]
//! ```
//!
//! Two sync-enabled nodes serve the same seeded SatCNN. A fresh store
//! bootstraps from node A (the full-transfer baseline), then node A
//! publishes two fine-tunes — head bias only (1 tensor), then the whole
//! classifier head (2 tensors) — and node B pulls each over HTTP. For
//! every pull the bench asserts:
//!
//! * exactly the changed tensors were fetched, and the payload bytes on
//!   the wire equal the bytes the publish wrote (≤ 2× changed-tensor
//!   bytes even with the manifest included);
//! * the head-only delta is ≥ 10× smaller than both the bootstrap
//!   transfer and a classic full-checkpoint file;
//! * after the final pull both stores are bit-identical (same head
//!   manifest bytes, same payload file bytes for every head entry).
//!
//! The report goes to `results/registry_sync.md`.

use std::path::{Path, PathBuf};

use rand::SeedableRng;

use geotorch_bench::markdown_table;
use geotorch_core::checkpoint;
use geotorch_core::{DeltaStore, Manifest};
use geotorch_models::raster::SatCnn;
use geotorch_nn::Module;
use geotorch_serve::{sync_store, BatchConfig, Registry, ServeConfig, Server, SyncClient};
use geotorch_tensor::{Device, Tensor};

const MODEL: &str = "satcnn";

fn satcnn() -> SatCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    SatCnn::new(3, 16, 16, 10, &mut rng)
}

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("geotorch_sync_bench_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start_node(dir: &Path) -> Server {
    let mut registry = Registry::new();
    registry.register_classifier(MODEL, None, satcnn);
    assert!(registry.enable_sync(MODEL, dir.to_path_buf()));
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            device: Device::Cpu,
            ..BatchConfig::default()
        },
        http_workers: 2,
        enable_telemetry: false,
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", registry, config).expect("node starts")
}

/// The seeded state with the tensors named in `changed` shifted by a
/// constant — a stand-in for a fine-tune that touched only those
/// parameters.
fn fine_tuned(changed: &[(usize, f32)]) -> Vec<Tensor> {
    let mut state = satcnn().state_dict();
    for &(i, delta) in changed {
        state[i] = state[i].add_scalar(delta);
    }
    state
}

/// Both stores hold bit-identical heads and, for every entry the head
/// references, bit-identical payload files.
fn assert_stores_bit_identical(dir_a: &Path, dir_b: &Path) {
    let head_a = std::fs::read(dir_a.join("head.json")).expect("node A head");
    let head_b = std::fs::read(dir_b.join("head.json")).expect("node B head");
    assert_eq!(head_a, head_b, "head manifests must be byte-identical");
    let manifest = Manifest::from_json(std::str::from_utf8(&head_a).unwrap()).expect("head parses");
    for (i, entry) in manifest.entries.iter().enumerate() {
        let name = format!("t{i}@{}-{}.json", entry.ver, entry.hash);
        let a = std::fs::read(dir_a.join(&name)).expect("payload on A");
        let b = std::fs::read(dir_b.join(&name)).expect("payload on B");
        assert_eq!(a, b, "payload {name} must be byte-identical on both nodes");
    }
}

struct Row {
    scenario: String,
    fetched: usize,
    payload_bytes: u64,
    manifest_bytes: u64,
}

impl Row {
    fn total(&self) -> u64 {
        self.payload_bytes + self.manifest_bytes
    }
}

fn main() {
    // --quick is accepted for CI-harness uniformity; the bench is
    // already a sub-second scenario.
    let _quick = std::env::args().any(|a| a == "--quick");

    let dir_a = bench_dir("a");
    let dir_b = bench_dir("b");
    let dir_boot = bench_dir("boot");
    let node_a = start_node(&dir_a);
    let node_b = start_node(&dir_b);
    let peer = node_a.addr().to_string();
    assert_eq!(
        node_a.head_id(MODEL),
        node_b.head_id(MODEL),
        "deterministically seeded nodes must start at the same head"
    );

    // The full-transfer baseline: a cold store pulls everything node A
    // has over the same HTTP routes the delta pulls use.
    let mut boot = DeltaStore::open(&dir_boot, Some(MODEL)).expect("open bootstrap store");
    let client = SyncClient::new(&peer);
    let report = sync_store(&mut boot, &client, MODEL).expect("bootstrap sync");
    let tensor_count = boot.head().expect("bootstrap head").entries.len();
    assert_eq!(report.fetched.len(), tensor_count, "bootstrap fetches every tensor");
    let manifest_bytes = boot.head().expect("head").to_json().len() as u64;
    let full = Row {
        scenario: format!("bootstrap (all {tensor_count} tensors)"),
        fetched: report.fetched.len(),
        payload_bytes: report.fetched_bytes,
        manifest_bytes,
    };

    // A classic full-checkpoint file of the same weights, for scale.
    let ckpt_path = std::env::temp_dir().join(format!("geotorch_sync_bench_{}.json", std::process::id()));
    checkpoint::save_named(&satcnn(), MODEL, &ckpt_path).expect("save classic checkpoint");
    let classic_bytes = std::fs::metadata(&ckpt_path).expect("stat checkpoint").len();
    std::fs::remove_file(&ckpt_path).ok();

    // Two fine-tunes on node A; node B pulls each delta over HTTP. The
    // last two tensors are the classifier head (fc2 weight, fc2 bias).
    let last = tensor_count - 1;
    let scenarios: [(&str, Vec<(usize, f32)>); 2] = [
        ("fine-tune: head bias (1 tensor)", vec![(last, 0.75)]),
        ("fine-tune: head layer (2 tensors)", vec![(last - 1, 0.5), (last, 1.25)]),
    ];
    let mut rows = vec![full];
    for (label, changed) in scenarios {
        let publish = node_a
            .publish(MODEL, &fine_tuned(&changed))
            .expect("publish on A");
        let want: Vec<usize> = changed.iter().map(|&(i, _)| i).collect();
        assert_eq!(publish.changed, want, "{label}: publish diffs exactly the changed tensors");
        let report = node_b.sync_from(MODEL, &peer).expect("B pulls the delta");
        assert!(report.advanced, "{label}: the pull must advance B's head");
        assert_eq!(report.id, publish.id);
        assert_eq!(report.fetched, want, "{label}: only changed tensors cross the wire");
        assert_eq!(
            report.fetched_bytes, publish.delta_bytes,
            "{label}: wire payload bytes equal the bytes the publish wrote"
        );

        // Ground truth from node A's disk: the payload files of exactly
        // the changed entries. The wire must not cost more than 2x them
        // (it costs exactly 1x — the bytes ship verbatim).
        let head_json = std::fs::read(dir_a.join("head.json")).expect("A head");
        let head = Manifest::from_json(std::str::from_utf8(&head_json).unwrap()).expect("parses");
        let changed_disk_bytes: u64 = want
            .iter()
            .map(|&i| {
                let e = &head.entries[i];
                let name = format!("t{i}@{}-{}.json", e.ver, e.hash);
                std::fs::metadata(dir_a.join(name)).expect("changed payload").len()
            })
            .sum();
        assert!(
            report.fetched_bytes <= 2 * changed_disk_bytes,
            "{label}: {} wire bytes exceed 2x the {changed_disk_bytes} changed-tensor bytes",
            report.fetched_bytes
        );
        rows.push(Row {
            scenario: label.to_string(),
            fetched: report.fetched.len(),
            payload_bytes: report.fetched_bytes,
            manifest_bytes: head_json.len() as u64,
        });
    }
    assert_stores_bit_identical(&dir_a, &dir_b);
    node_a.shutdown();
    node_b.shutdown();

    let full_total = rows[0].total();
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                format!("{}/{tensor_count}", r.fetched),
                format!("{}", r.payload_bytes),
                format!("{}", r.manifest_bytes),
                format!("{}", r.total()),
                format!("{:.1}%", 100.0 * r.total() as f64 / full_total as f64),
            ]
        })
        .collect();
    let table = markdown_table(
        &["scenario", "tensors fetched", "payload bytes", "manifest bytes", "total wire bytes", "vs bootstrap"],
        &table_rows,
    );
    let head_only = &rows[1];
    let ratio = full_total as f64 / head_only.total() as f64;
    let classic_ratio = classic_bytes as f64 / head_only.total() as f64;
    let report = format!(
        "## Registry delta sync — wire bytes are O(changed tensors)\n\n{table}\n_head-bias delta is {ratio:.0}x smaller than the bootstrap transfer and {classic_ratio:.0}x smaller than a classic full-checkpoint file ({classic_bytes} bytes); payload bytes on the wire equal the bytes each publish wrote_\n"
    );
    println!("{report}");
    std::fs::create_dir_all("results").ok();
    let report = format!("{report}{}", geotorch_bench::host_stamp());
    std::fs::write("results/registry_sync.md", &report).ok();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
    std::fs::remove_dir_all(&dir_boot).ok();

    // The headline O(changed tensors) bound: the head-only fine-tune
    // undercuts both full transfers >= 10x (per-delta 2x payload bounds
    // were asserted inside the loop).
    if ratio < 10.0 || classic_ratio < 10.0 {
        eprintln!(
            "FAIL: head-only delta must be >= 10x smaller than a full transfer (got {ratio:.1}x vs bootstrap, {classic_ratio:.1}x vs classic file)"
        );
        std::process::exit(1);
    }
}
