//! Release gate for the default replica shard on the tile path: with
//! `BatchConfig::default()` — one `Device::Cpu` replica per core — a
//! UNet(base 4) mosaic must reach at least [`MIN_SPEEDUP`] times the
//! tiles per second of one replica that splits each stacked batch over
//! the cores (`Device::parallel()`).
//!
//! Wall-clock assertions are meaningless in unoptimised builds and noisy
//! CI matrices, so the gate skips itself under `debug_assertions` and
//! under the chaos matrix (`GEOTORCH_CHAOS_SEED`). The ratio has been
//! measured only at [`CALIBRATED_CORES`] available cores, so the gate
//! also skips on any other core count: below it both shards are the same
//! one thread, and above it four tiles in flight leave some of the
//! per-core replicas idle, at a ratio nobody has measured yet. CI runs
//! this file with `--release`.

use std::time::Instant;

use geotorch_datasets::synth::RasterScene;
use geotorch_models::raster::UNet;
use geotorch_raster::{BlendMode, Raster, Window};
use geotorch_serve::tiling::{run_mosaic, TileConfig};
use geotorch_serve::{BatchConfig, ModelClient, ModelWorker, SegmenterServe, ServeModel};
use geotorch_tensor::Device;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Least tiles/s ratio of the per-core shard over the one parallel
/// replica. A 2-vCPU host reads 1.4–1.7 on the `serve_tiles` geometry.
const MIN_SPEEDUP: f64 = 1.2;
/// The one core count [`MIN_SPEEDUP`] was calibrated at.
const CALIBRATED_CORES: usize = 2;
const ROUNDS: usize = 5;

fn skip_reason() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("unoptimised build".to_string());
    }
    if std::env::var("GEOTORCH_CHAOS_SEED").is_ok() {
        return Some("chaos matrix run".to_string());
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores != CALIBRATED_CORES).then(|| {
        format!(
            "{cores} available cores; the {MIN_SPEEDUP}x bound is calibrated only at \
             {CALIBRATED_CORES}"
        )
    })
}

fn unet_worker(name: &str, config: BatchConfig) -> ModelWorker {
    ModelWorker::spawn(name, config, || {
        let unet = UNet::new(3, 1, 4, &mut StdRng::seed_from_u64(7));
        Ok(Box::new(SegmenterServe(unet)) as Box<dyn ServeModel>)
    })
    .expect("unet worker starts")
}

/// The `serve_tiles` geometry: tile 128, stride 96, halo 16, four tiles
/// in flight.
fn tile_config() -> TileConfig {
    TileConfig {
        tile: 128,
        stride: 96,
        halo: 16,
        alignment: 4,
        classes: 1,
        max_in_flight: 4,
        tile_deadline: None,
        blend: BlendMode::Cosine,
    }
}

/// One mosaic: its tiles per second and its bits.
fn mosaic(client: &ModelClient, scene: &Raster, roi: Window) -> (f64, Vec<u32>) {
    let started = Instant::now();
    let (mosaic, stats) = run_mosaic(client, scene, roi, tile_config()).expect("mosaic");
    let secs = started.elapsed().as_secs_f64();
    let bits = mosaic.as_slice().iter().map(|v| v.to_bits()).collect();
    (stats.tiles as f64 / secs, bits)
}

#[test]
fn one_cpu_replica_per_core_outruns_one_parallel_replica() {
    if let Some(reason) = skip_reason() {
        eprintln!("skipping the per-core replica gate: {reason}");
        return;
    }
    let (scene, _) = RasterScene::new(3, 640, 640, 21).segmentation_image(22);
    let roi = Window::new(64, 64, 512, 512);
    let per_core = unet_worker("unet-per-core", BatchConfig::default());
    let parallel = unet_worker(
        "unet-parallel",
        BatchConfig {
            replicas: 1,
            device: Device::parallel(),
            ..BatchConfig::default()
        },
    );
    let sides = [per_core.client(), parallel.client()];
    // Warm the pool's size classes and every replica's scratch.
    let reference = mosaic(&sides[0], &scene, roi).1;
    mosaic(&sides[1], &scene, roi);
    let mut best = [0.0f64; 2];
    for round in 0..ROUNDS {
        // Alternate which side runs first, so drift in the host's speed
        // falls on both.
        for k in 0..2 {
            let side = (round + k) % 2;
            let (rate, bits) = mosaic(&sides[side], &scene, roi);
            assert!(
                bits == reference,
                "both shards must stitch the same mosaic bits"
            );
            best[side] = best[side].max(rate);
        }
    }
    let [per_core_rate, parallel_rate] = best;
    eprintln!(
        "per-core replicas {per_core_rate:.0} tiles/s, one parallel replica \
         {parallel_rate:.0} tiles/s ({:.2}x, best of {ROUNDS})",
        per_core_rate / parallel_rate
    );
    assert!(
        per_core_rate >= MIN_SPEEDUP * parallel_rate,
        "BatchConfig::default() tiled at {per_core_rate:.0} tiles/s, one Device::parallel() \
         replica at {parallel_rate:.0} — need >= {MIN_SPEEDUP}x"
    );
    per_core.shutdown();
    parallel.shutdown();
}
