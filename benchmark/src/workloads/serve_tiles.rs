//! `serve_tiles`: embedded `run_mosaic` (no HTTP, no JSON) of UNet(base 4)
//! over a 1024×1024 region of a 2048×2048 three-band synthetic scene,
//! tile 128, stride 96, halo 16, cosine blend, four tiles in flight.
//!
//! Why: the batcher of `serve_predict` used differently — few large
//! tensors: `tensor` convolutions on the parallel device, `raster` window
//! reads and mosaic blending dominate; the front and JSON do nothing. An
//! HTTP-path change must not move it and a kernel change must.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use super::{
    conv3x3_gflops, fnv, max_ulp, repeat_for, start_server, Layers, Measured, Size, Workload,
};
use crate::seam::{
    core_of, no_grad, run_mosaic, unet, BlendMode, GridSampler, ModelClient, Module,
    MosaicAccumulator, Raster, RasterScene, Registry, Segmenter, Server, Tensor, TileConfig, Var,
    Window, SEGMENTER,
};
use crate::stats::median;
use crate::trace::Tracer;

/// Side of the sub-region compared with the unsplit forward.
const UNSPLIT: usize = 256;
const MODEL_SEED: u64 = 7;

pub struct ServeTiles {
    client: ModelClient,
    _server: Server,
    scene: Raster,
    roi: Window,
    config: TileConfig,
    /// The first pass's mosaic; every later pass must equal it bit for bit.
    first: Option<Vec<f32>>,
}

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

impl Workload for ServeTiles {
    const NAME: &'static str = "serve_tiles";

    fn setup(seed: u64, size: Size, _dir: &Path, tracer: &'static Tracer) -> ServeTiles {
        let (side, roi_side) = size.pick((2048, 1024), (512, 256));
        let (scene, _) =
            RasterScene::new(3, side, side, seed).segmentation_image(seed.wrapping_add(1));
        let mut registry = Registry::new();
        registry.register_segmenter(SEGMENTER, None, || unet(MODEL_SEED));
        let server = start_server(registry, tracer, 0);
        let client = server.client(SEGMENTER).expect("the registered model");
        let config = tile_config();
        let roi = Window::new(side / 4, side / 4, roi_side, roi_side);
        // Fill the pool's size classes and each replica's scratch.
        run_mosaic(
            &client,
            &scene,
            Window::new(roi.row, roi.col, UNSPLIT, UNSPLIT),
            config,
        )
        .expect("warm-up mosaic");
        ServeTiles {
            client,
            _server: server,
            scene,
            roi,
            config,
            first: None,
        }
    }

    fn measure(&mut self, seconds: f64, tracer: &'static Tracer) -> Measured {
        let mut m = Measured::default();
        repeat_for(seconds, |pass| {
            let started = Instant::now();
            let outcome = tracer.time("mono.run_mosaic", pass, || {
                run_mosaic(&self.client, &self.scene, self.roi, self.config)
            });
            let wall = started.elapsed().as_secs_f64();
            match outcome {
                Ok((mosaic, stats)) => {
                    let tiles = stats.tiles as u64;
                    m.attempted += tiles;
                    m.op_ms
                        .extend(stats.tile_latencies.iter().map(|d| d.as_secs_f64() * 1e3));
                    m.end_pass(tiles as f64, wall);
                    let first = self.first.get_or_insert_with(|| mosaic.as_slice().to_vec());
                    if first
                        .iter()
                        .map(|v| v.to_bits())
                        .ne(mosaic.as_slice().iter().map(|v| v.to_bits()))
                    {
                        m.fail(
                            tiles,
                            format!("pass {pass}: the mosaic differs from the first pass's"),
                        );
                    }
                }
                Err(e) => {
                    m.attempted += 1;
                    m.fail(1, format!("pass {pass}: run_mosaic failed: {e}"));
                }
            }
        });
        m
    }

    fn replay(
        &mut self,
        seconds: f64,
        tracer: &'static Tracer,
        measured: &Measured,
        layers: &mut Layers,
    ) -> Vec<String> {
        // `run_mosaic` taken apart: sample windows, then `max_in_flight`
        // submitters each read a window and predict it, then stitch in
        // tile order and finalise.
        let (config, roi, scene, client) = (self.config, self.roi, &self.scene, &self.client);
        let mut replay_s = Vec::new();
        let mut errors = Vec::new();
        repeat_for(seconds * 0.8, |pass| {
            let started = Instant::now();
            let _pass = tracer.span("harness.replay_mosaic", pass);
            let windows: Vec<Window> = tracer.time("datasets.sampler", pass, || {
                GridSampler::new(
                    roi,
                    (config.tile, config.tile),
                    (config.stride, config.stride),
                )
                .expect("tile geometry")
                .windows()
                .collect()
            });
            let next = AtomicUsize::new(0);
            let predictions: Vec<Mutex<Option<Tensor>>> =
                windows.iter().map(|_| Mutex::new(None)).collect();
            tracer.time("wait.tile_crew", pass, || {
                let parent = tracer.current();
                std::thread::scope(|scope| {
                    for _ in 0..config.max_in_flight {
                        scope.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(window) = windows.get(i) else { break };
                            let input = {
                                let _span = tracer.span_under("raster.read_window", pass, parent);
                                scene
                                    .read_window_tensor(window)
                                    .expect("window inside the scene")
                            };
                            let _span = tracer.span_under("serve.tile_predict", pass, parent);
                            *predictions[i].lock().expect("prediction slot") =
                                client.predict(input).ok();
                        });
                    }
                });
            });
            let mut mosaic =
                MosaicAccumulator::new(config.classes, roi.height, roi.width, config.blend);
            for (window, slot) in windows.iter().zip(&predictions) {
                let Some(prediction) = slot.lock().expect("prediction slot").take() else {
                    errors.push(format!("replay pass {pass}: a tile was refused"));
                    return;
                };
                let core = core_of(window, &roi, config.halo);
                tracer.time("raster.mosaic_add", pass, || {
                    mosaic
                        .add_tile(
                            &window.relative_to(&roi),
                            &core.relative_to(&roi),
                            &prediction,
                        )
                        .expect("stitch a tile")
                });
            }
            let stitched = tracer.time("raster.mosaic_finalize", pass, || {
                mosaic.finalize().expect("full coverage")
            });
            replay_s.push(started.elapsed().as_secs_f64());
            if self
                .first
                .as_deref()
                .is_some_and(|first| max_ulp(first, stitched.as_slice()) > 4)
            {
                errors.push(format!(
                    "replay pass {pass}: the stitched mosaic is more than 4 ulp from run_mosaic's"
                ));
            }
        });
        let mosaic_s = median(&measured.per_pass(|p| p.wall_s));
        // Base: the median `run_mosaic` pass; the replay overlaps tiles the
        // same way, `max_in_flight` submitters wide.
        layers.insert(
            "serve.mosaic_unattributed_share",
            1.0 - median(&replay_s) / mosaic_s,
        );
        let tile_ms = median(&measured.all_ops());
        layers.insert("serve.tile_predict_ms", tile_ms);
        layers.insert("serve.embedded_p50_ms", tile_ms);

        // The forward alone at the tile shape, one tile and a full batch.
        let model = unet(MODEL_SEED);
        model.set_training(false);
        let forward_ms = |name: &'static str, batch: usize| {
            let input = Var::constant(crate::seam::random_tensor(
                &[batch, 3, config.tile, config.tile],
                5,
            ));
            let samples: Vec<f64> = (0..6)
                .map(|i| {
                    let started = Instant::now();
                    std::hint::black_box(
                        tracer.time(name, i, || no_grad(|| model.forward(&input))),
                    );
                    started.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&samples)
        };
        layers.insert("models.forward_b1_ms", forward_ms("probe.forward_b1", 1));
        layers.insert("models.forward_b8_ms", forward_ms("probe.forward_b8", 8));
        layers.insert(
            "tensor.conv3x3_gflops",
            conv3x3_gflops(tracer, 1, 4, 4, config.tile, config.tile),
        );
        errors
    }

    fn verify(&mut self) -> Vec<String> {
        // One sub-region stitched from tiles against one forward over the
        // whole of it, with a geometry under which tiling is exact: the
        // halo covers the two-level UNet's receptive-field radius of 22,
        // cores still touch, votes are uniform, and a 192² tile keeps every
        // convolution on the kernel the 256² forward uses (the deepest
        // plane, 48², is still above the direct-convolution threshold).
        // The measured geometry (tile 128, halo 16, cosine taper) trades
        // that exactness for throughput.
        let exact = TileConfig {
            tile: 192,
            stride: 64,
            halo: 24,
            blend: BlendMode::Uniform,
            ..self.config
        };
        let sub = Window::new(self.roi.row, self.roi.col, UNSPLIT, UNSPLIT);
        let tiled = match run_mosaic(&self.client, &self.scene, sub, exact) {
            Ok((mosaic, _)) => mosaic,
            Err(e) => {
                return vec![format!(
                    "run_mosaic over the {UNSPLIT}² sub-region failed: {e}"
                )]
            }
        };
        let model = unet(MODEL_SEED);
        model.set_training(false);
        let input = self
            .scene
            .read_window_tensor(&sub)
            .expect("sub-region inside the scene");
        let whole =
            no_grad(|| model.forward(&Var::constant(input.reshape(&[1, 3, UNSPLIT, UNSPLIT]))))
                .value();
        let ulp = max_ulp(tiled.as_slice(), whole.as_slice());
        if ulp <= 4 {
            Vec::new()
        } else {
            vec![format!(
                "the tiled {UNSPLIT}² sub-region is {ulp} ulp from the unsplit forward"
            )]
        }
    }

    fn digest(&self) -> u64 {
        fnv(self.first.iter().flatten().map(|v| v.to_bits()))
    }
}
