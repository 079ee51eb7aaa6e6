//! Tiled-inference acceptance: seam consistency against the unsplit
//! forward pass (the property that makes scene-scale inference *correct*,
//! not just fast), backpressure/deadline interaction with the batcher,
//! and clean whole-mosaic failure under injected tile faults.
//!
//! The fault registry and telemetry counters are process-global, so every
//! test takes the `serial()` gate.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use geotorch_datasets::synth::RasterScene;
use geotorch_models::raster::UNet;
use geotorch_models::Segmenter;
use geotorch_nn::{no_grad, Module, Var};
use geotorch_raster::{BlendMode, Raster, Window};
use geotorch_serve::tiling::{run_mosaic, TileConfig};
use geotorch_serve::{BatchConfig, ModelWorker, SegmenterServe, ServeError, ServeModel};
use geotorch_tensor::{with_device, Device, Tensor};
use geotorch_telemetry::fault::{self, FaultAction, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Monotone bit-distance between two floats: 0 = identical, 1 = adjacent
/// representable values. Infinite for NaN or opposite-sign pairs other
/// than ±0.
fn ulp_distance(a: f32, b: f32) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    let key = |x: f32| -> i64 {
        let bits = x.to_bits() as i32;
        (if bits < 0 { i32::MIN - bits } else { bits }) as i64
    };
    key(a).abs_diff(key(b))
}

fn max_ulp(a: &[f32], b: &[f32]) -> u64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| ulp_distance(x, y)).max().unwrap_or(0)
}

const UNET_SEED: u64 = 7;

/// The reference scene for seam tests: 3 bands, 96×96, cloud structure.
fn seam_scene() -> Raster {
    let (scene, _mask) = RasterScene::new(3, 96, 96, 11).segmentation_image(1);
    scene
}

fn unet_worker(name: &str, replicas: usize) -> ModelWorker {
    let config = BatchConfig {
        max_batch: 4,
        queue_bound: 32,
        replicas,
    };
    ModelWorker::spawn(name, config, move || {
        let mut rng = StdRng::seed_from_u64(UNET_SEED);
        Ok(Box::new(SegmenterServe(UNet::new(3, 1, 2, &mut rng))) as Box<dyn ServeModel>)
    })
    .expect("unet worker starts")
}

/// The unsplit reference: one forward over the whole scene on `device`.
fn whole_scene_forward(scene: &Raster, device: Device) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(UNET_SEED);
    let unet = UNet::new(3, 1, 2, &mut rng);
    unet.set_training(false);
    let input = Tensor::from_slice(
        scene.as_slice(),
        &[1, scene.bands(), scene.height(), scene.width()],
    );
    let out = with_device(device, || no_grad(|| unet.forward(&Var::constant(input)).value()));
    assert_eq!(out.shape(), &[1, 1, scene.height(), scene.width()]);
    out.as_slice().to_vec()
}

/// The geometry that makes tiled UNet inference exact: the 2-level UNet's
/// receptive field radius is 22, so halo 24 (≥ 22, and even) distrusts
/// every pixel a tile computes differently from the whole scene; stride
/// 16 = tile − 2·halo keeps the trusted cores gap-free; alignment 4
/// keeps every tile on the two-pooling downsample grid.
fn exact_cfg() -> TileConfig {
    TileConfig {
        tile: 64,
        stride: 16,
        halo: 24,
        alignment: 4,
        classes: 1,
        max_in_flight: 4,
        tile_deadline: Some(Duration::from_secs(60)),
        blend: BlendMode::Uniform,
    }
}

/// The replicas serve the mosaic; the unsplit reference it must match
/// runs on both devices.
#[test]
fn replica_mosaic_matches_whole_scene_forward_on_both_devices() {
    let _g = serial();
    let scene = seam_scene();
    let worker = unet_worker("unet-seam", 2);
    let (mosaic, stats) = run_mosaic(&worker.client(), &scene, scene.extent(), exact_cfg())
        .expect("mosaic run succeeds");
    worker.shutdown();
    assert_eq!((mosaic.bands(), mosaic.height(), mosaic.width()), (1, 96, 96));
    assert_eq!(stats.tiles, 9, "3×3 clamped grid over 96 at tile 64 stride 16");
    assert_eq!(stats.tile_latencies.len(), 9);
    for device in [Device::Cpu, Device::parallel()] {
        let reference = whole_scene_forward(&scene, device);
        let worst = max_ulp(mosaic.as_slice(), &reference);
        assert!(
            worst <= 4,
            "tiled mosaic deviates {worst} ulp from the whole-scene forward on {device:?} — \
             seams are numerically visible"
        );
    }
}

#[test]
fn mosaic_is_deterministic_across_runs() {
    let _g = serial();
    let scene = seam_scene();
    let mut first: Option<Vec<u32>> = None;
    for replicas in BTreeSet::from([1, 2, BatchConfig::default().replicas]) {
        let worker = unet_worker("unet-det", replicas);
        let client = worker.client();
        for max_in_flight in [1, 3, 4] {
            let cfg = TileConfig {
                max_in_flight,
                ..exact_cfg()
            };
            let (mosaic, stats) = run_mosaic(&client, &scene, scene.extent(), cfg).unwrap();
            assert_eq!(stats.tile_latencies.len(), stats.tiles);
            let bits: Vec<u32> = mosaic.as_slice().iter().map(|v| v.to_bits()).collect();
            assert!(
                first.get_or_insert_with(|| bits.clone()) == &bits,
                "{replicas} replica(s), {max_in_flight} in flight: in-order stitching \
                 must make the mosaic bit-stable run to run"
            );
        }
        worker.shutdown();
    }
}

/// Identity "segmenter": returns its single input band as the class
/// plane. Receptive field 0, so halo 0 / stride == tile non-overlapping
/// tiling must reproduce the scene bit-for-bit.
struct Identity;

impl Module for Identity {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for Identity {
    fn predict(&self, batch: &Var) -> Var {
        batch.mul_scalar(1.0)
    }
}

fn identity_worker(name: &str, queue_bound: usize) -> ModelWorker {
    let config = BatchConfig {
        max_batch: 4,
        queue_bound,
        replicas: 1,
    };
    ModelWorker::spawn(name, config, || Ok(Box::new(Identity) as Box<dyn ServeModel>))
        .expect("identity worker starts")
}

fn identity_cfg() -> TileConfig {
    TileConfig {
        tile: 8,
        stride: 8,
        halo: 0,
        alignment: 1,
        classes: 1,
        max_in_flight: 4,
        tile_deadline: Some(Duration::from_secs(30)),
        blend: BlendMode::Uniform,
    }
}

fn small_scene() -> Raster {
    let data: Vec<f32> = (0..24 * 24).map(|v| v as f32 * 0.5 - 100.0).collect();
    Raster::new(data, 1, 24, 24).unwrap()
}

#[test]
fn non_overlapping_identity_mosaic_is_bit_exact_and_roi_georeferenced() {
    let _g = serial();
    let mut scene = small_scene();
    scene.transform.origin_x = 500.0;
    scene.transform.pixel_width = 10.0;
    scene.epsg = 32633;
    let worker = identity_worker("identity", 16);
    // Full scene: exact reproduction.
    let (mosaic, stats) =
        run_mosaic(&worker.client(), &scene, scene.extent(), identity_cfg()).unwrap();
    assert_eq!(mosaic.as_slice(), scene.as_slice());
    assert_eq!(stats.tiles, 9);
    // Interior roi: mosaic matches the crop and inherits its georef.
    let roi = Window::new(8, 16, 16, 8);
    let (crop_mosaic, _) = run_mosaic(&worker.client(), &scene, roi, identity_cfg()).unwrap();
    let crop = scene.read_window(&roi).unwrap();
    assert_eq!(crop_mosaic.as_slice(), crop.as_slice());
    assert_eq!(crop_mosaic.transform, crop.transform);
    assert_eq!(crop_mosaic.epsg, 32633);
    worker.shutdown();
}

/// The tile counters `/metrics` serves advance with every mosaic: one
/// `serve.tile.mosaics`, and one `serve.tile.stitched` per tile.
#[test]
fn tile_counters_advance_per_mosaic() {
    let _g = serial();
    let count = |name: &str| {
        geotorch_telemetry::snapshot()
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count)
    };
    geotorch_telemetry::set_enabled(true);
    let (mosaics, stitched) = (count("serve.tile.mosaics"), count("serve.tile.stitched"));
    let scene = small_scene();
    let worker = identity_worker("identity-count", 16);
    let (_, stats) =
        run_mosaic(&worker.client(), &scene, scene.extent(), identity_cfg()).unwrap();
    geotorch_telemetry::set_enabled(false);
    worker.shutdown();
    assert_eq!(count("serve.tile.mosaics"), mosaics + 1);
    assert_eq!(count("serve.tile.stitched"), stitched + stats.tiles as u64);
}

#[test]
fn cosine_blend_preserves_identity_within_tolerance() {
    let _g = serial();
    let scene = small_scene();
    let worker = identity_worker("identity-cos", 16);
    let cfg = TileConfig {
        tile: 8,
        stride: 4,
        halo: 1,
        blend: BlendMode::Cosine,
        ..identity_cfg()
    };
    let (mosaic, _) = run_mosaic(&worker.client(), &scene, scene.extent(), cfg).unwrap();
    for (m, s) in mosaic.as_slice().iter().zip(scene.as_slice()) {
        assert!(
            (m - s).abs() <= s.abs() * 1e-5 + 1e-4,
            "cosine-blended identity mosaic drifted: {m} vs {s}"
        );
    }
    worker.shutdown();
}

/// Sleeps per forward, then returns a zero plane per sample — the tool
/// for deadline and backpressure scenarios.
struct SlowZeros {
    ms: u64,
}

impl Module for SlowZeros {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for SlowZeros {
    fn predict(&self, batch: &Var) -> Var {
        std::thread::sleep(Duration::from_millis(self.ms));
        let shape = batch.shape();
        Var::constant(Tensor::zeros(&[shape[0], 1, shape[2], shape[3]]))
    }
}

fn slow_worker(name: &str, ms: u64, queue_bound: usize) -> ModelWorker {
    let config = BatchConfig {
        max_batch: 1,
        queue_bound,
        replicas: 1,
    };
    ModelWorker::spawn(name, config, move || {
        Ok(Box::new(SlowZeros { ms }) as Box<dyn ServeModel>)
    })
    .expect("slow worker starts")
}

/// The queue must drain to zero after a run — RAII admission guards
/// release every slot even on the failure path.
fn assert_no_leaked_slots(worker: &ModelWorker) {
    let client = worker.client();
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.queue_depth() != 0 {
        assert!(
            Instant::now() < deadline,
            "queue depth stuck at {} — an admission slot leaked",
            client.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn more_tiles_in_flight_than_queue_bound_sheds_and_fails_cleanly() {
    let _g = serial();
    let scene = small_scene();
    // Bound 2 but 8 submitters: admission control must shed, and the
    // driver must surface that as a whole-mosaic Overloaded failure.
    let worker = slow_worker("slow-shed", 20, 2);
    let cfg = TileConfig {
        max_in_flight: 8,
        ..identity_cfg()
    };
    let err = run_mosaic(&worker.client(), &scene, scene.extent(), cfg)
        .expect_err("8 concurrent tiles against a bound of 2 must shed");
    assert!(matches!(err, ServeError::Overloaded(_)), "{err}");
    assert_no_leaked_slots(&worker);
    // The same worker still serves a correctly-bounded run afterwards.
    let cfg = TileConfig {
        max_in_flight: 2,
        ..identity_cfg()
    };
    let (mosaic, _) = run_mosaic(&worker.client(), &scene, scene.extent(), cfg)
        .expect("in-flight ≤ queue bound never sheds");
    assert!(mosaic.as_slice().iter().all(|&v| v == 0.0));
    assert_no_leaked_slots(&worker);
    worker.shutdown();
}

#[test]
fn per_tile_deadline_fails_the_mosaic() {
    let _g = serial();
    let scene = small_scene();
    let worker = slow_worker("slow-deadline", 50, 16);
    let cfg = TileConfig {
        tile_deadline: Some(Duration::from_millis(1)),
        ..identity_cfg()
    };
    let started = Instant::now();
    let err = run_mosaic(&worker.client(), &scene, scene.extent(), cfg)
        .expect_err("1 ms per-tile budget against a 50 ms model must expire");
    assert!(matches!(err, ServeError::DeadlineExceeded(_)), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "cancellation must not wait for every tile to time out serially"
    );
    assert_no_leaked_slots(&worker);
    worker.shutdown();
}

#[test]
fn injected_fetch_fault_fails_the_mosaic_cleanly() {
    let _g = serial();
    let scene = small_scene();
    let worker = identity_worker("identity-fetch-fault", 16);
    fault::install(
        FaultPlan::new(chaos_seed()).on_nth("tile.fetch", 5, FaultAction::Error("disk gone".into())),
    );
    let err = run_mosaic(&worker.client(), &scene, scene.extent(), identity_cfg())
        .expect_err("a failed tile fetch must fail the whole mosaic");
    let log = fault::clear();
    assert!(matches!(err, ServeError::Internal(ref msg) if msg.contains("tile fetch")), "{err}");
    assert_eq!(log.len(), 1, "exactly the planned fault fired");
    assert_no_leaked_slots(&worker);
    // No partial mosaic escaped, and the worker is unharmed: a clean
    // rerun reproduces the scene.
    let (mosaic, _) =
        run_mosaic(&worker.client(), &scene, scene.extent(), identity_cfg()).unwrap();
    assert_eq!(mosaic.as_slice(), scene.as_slice());
    worker.shutdown();
}

#[test]
fn injected_stitch_fault_fails_the_mosaic_cleanly() {
    let _g = serial();
    let scene = small_scene();
    let worker = identity_worker("identity-stitch-fault", 16);
    fault::install(
        FaultPlan::new(chaos_seed()).on_nth("tile.stitch", 3, FaultAction::Error("bad blend".into())),
    );
    let err = run_mosaic(&worker.client(), &scene, scene.extent(), identity_cfg())
        .expect_err("a failed stitch must fail the whole mosaic");
    fault::clear();
    assert!(matches!(err, ServeError::Internal(ref msg) if msg.contains("tile stitch")), "{err}");
    assert_no_leaked_slots(&worker);
    let (mosaic, _) =
        run_mosaic(&worker.client(), &scene, scene.extent(), identity_cfg()).unwrap();
    assert_eq!(mosaic.as_slice(), scene.as_slice());
    worker.shutdown();
}

#[test]
fn config_validation_rejects_gap_and_alignment_hazards() {
    let _g = serial();
    let roi = Window::new(0, 0, 96, 96);
    let base = exact_cfg();
    assert!(base.validate(&roi).is_ok());
    let cases = [
        ("zero stride", TileConfig { stride: 0, ..base }),
        ("stride past tile", TileConfig { stride: 65, ..base }),
        ("tile exceeds roi", TileConfig { tile: 128, ..base }),
        ("halo eats tile", TileConfig { halo: 32, ..base }),
        ("core gaps", TileConfig { stride: 20, ..base }),
        ("misaligned stride", TileConfig { halo: 23, stride: 18, ..base }),
        ("zero classes", TileConfig { classes: 0, ..base }),
        ("zero in-flight", TileConfig { max_in_flight: 0, ..base }),
    ];
    for (what, cfg) in cases {
        let err = cfg.validate(&roi).expect_err(what);
        assert!(matches!(err, ServeError::BadRequest(_)), "{what}: {err}");
    }
    // Misaligned clamped tile: roi − tile not a multiple of alignment.
    let err = base.validate(&Window::new(0, 0, 94, 96)).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(ref m) if m.contains("alignment")), "{err}");
}
