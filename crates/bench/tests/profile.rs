//! End-to-end check of the `--profile` telemetry path: training under an
//! enabled telemetry layer must produce a JSON snapshot that parses and
//! names the instrumented kernels, with timings consistent with the
//! observed wall-clock.

use geotorch_core::{TrainConfig, Trainer, UpdateMode};
use geotorch_datasets::{shuffled_split, RasterDataset};
use geotorch_models::raster::SatCnn;
use geotorch_tensor::Device;
use rand::SeedableRng;

#[test]
fn profile_snapshot_covers_instrumented_kernels() {
    // This test binary is its own process, so the telemetry global must
    // start disabled...
    assert!(
        !geotorch_telemetry::enabled(),
        "telemetry must be off by default"
    );
    // ...and an untouched registry snapshots to an empty stats list.
    let empty: serde::Value =
        serde_json::from_str(&geotorch_telemetry::snapshot_json()).expect("valid JSON when empty");
    assert_eq!(
        empty.get("stats").and_then(serde::Value::as_array).map(<[serde::Value]>::len),
        Some(0)
    );

    geotorch_telemetry::set_enabled(true);
    let start = std::time::Instant::now();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let dataset = RasterDataset::classification("profile", 3, 16, 16, 3, 6, 0);
    let model = SatCnn::new(3, 16, 16, 3, &mut rng);
    let config = TrainConfig {
        epochs: 2,
        batch_size: 4,
        learning_rate: 1e-3,
        early_stopping_patience: None,
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed: 0,
        device: Device::Cpu,
        replicas: 1,
    };
    let trainer = Trainer::new(config);
    let (train, val, _) = shuffled_split(dataset.len(), 0);
    trainer.fit_classifier(&model, &dataset, &train, &val);
    let wall_ns = start.elapsed().as_nanos() as u64;
    geotorch_telemetry::set_enabled(false);

    let json = geotorch_telemetry::snapshot_json();
    let parsed: serde::Value = serde_json::from_str(&json).expect("snapshot must be JSON");
    let stats = parsed
        .get("stats")
        .and_then(serde::Value::as_array)
        .expect("stats array");
    let names: Vec<&str> = stats
        .iter()
        .map(|s| s.get("name").and_then(serde::Value::as_str).expect("string name"))
        .collect();
    for key in [
        "tensor.matmul",
        "tensor.conv2d",
        "tensor.conv2d_weight_grad",
        "nn.conv2d_bwd",
        "nn.optim.step",
        "core.trainer.epoch",
        "core.trainer.epochs",
        "core.trainer.samples",
    ] {
        assert!(names.contains(&key), "missing instrumented key {key} in {names:?}");
    }

    // Sanity on the numbers: the epoch scope ran twice, its total fits
    // inside the observed wall-clock, and kernel self-times fit inside
    // the scope totals they nest in.
    let field = |name: &str, key: &str| -> f64 {
        stats
            .iter()
            .find(|s| s.get("name").and_then(serde::Value::as_str) == Some(name))
            .and_then(|s| s.get(key))
            .and_then(serde::Value::as_f64)
            .unwrap_or_else(|| panic!("{name}.{key} missing"))
    };
    assert_eq!(field("core.trainer.epoch", "calls"), 2.0);
    let epoch_total = field("core.trainer.epoch", "total_ns");
    assert!(epoch_total > 0.0 && epoch_total <= wall_ns as f64);
    assert!(field("tensor.conv2d", "self_ns") <= field("tensor.conv2d", "total_ns"));
    assert_eq!(field("core.trainer.epochs", "count"), 2.0);
    assert_eq!(
        field("core.trainer.samples", "count"),
        (2 * train.len()) as f64
    );
}
