//! Scene-scale tiled inference through the micro-batching scheduler.
//!
//! [`run_mosaic`] turns "segment this huge scene" into a stream of
//! overlapping tile predictions: a `GridSampler` walks the
//! region-of-interest, the calling thread keeps a bounded window of tiles
//! in flight through a [`ModelClient`] (so admission control, deadlines,
//! and replica routing govern exactly as they do for external requests),
//! and a [`MosaicAccumulator`] stitches the per-tile outputs back into
//! one prediction raster with overlap blending. The caller waits on the
//! oldest tile, stitches it and submits the next, so tiles are blended in
//! index order — the mosaic's floating-point accumulation order does not
//! depend on which replica answers first.
//!
//! # Geometry and seam exactness
//!
//! Convolutional segmenters are locally deterministic: output pixel `p`
//! depends only on inputs within the receptive-field radius of `p`, plus
//! the zero padding a network edge introduces. So a tile prediction
//! agrees with the whole-scene prediction everywhere except a border
//! ring where the tile's edge padding differs from the scene's interior.
//! [`TileConfig::halo`] is the width of that distrusted ring: the
//! stitcher keeps only each tile's *core* (`core_of`), and with
//!
//! * `halo ≥ ⌈receptive field / 2⌉`,
//! * `stride ≤ tile − 2·halo` (cores still cover every pixel), and
//! * tile offsets aligned to the model's total downsampling factor
//!   ([`TileConfig::alignment`], so pooling grids line up),
//!
//! the mosaic is *numerically equal* to the unsplit forward pass — the
//! seam-consistency property the `tiling` test suite pins to ≤ 4 ulp
//! (FMA-only differences). With a smaller halo the mosaic is approximate
//! and [`BlendMode::Cosine`] tapers the remaining seams.
//!
//! # Backpressure
//!
//! At most [`TileConfig::max_in_flight`] tiles are in flight; each holds
//! one admission slot in the model's bounded queue. Keep
//! `max_in_flight ≤ queue_bound` or external traffic can starve the
//! mosaic into `Overloaded` rejections mid-scene. Any tile failure
//! (shed, deadline, dead replica, injected fault) cancels the remaining
//! tiles and fails the whole mosaic — a partial mosaic is never
//! returned. The tiles already in flight are waited out first, so every
//! admission slot is free again when `run_mosaic` returns.
//!
//! Fault points: `tile.fetch` (before a tile is cut from the scene) and
//! `tile.stitch` (before a prediction is blended in).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use geotorch_datasets::samplers::GridSampler;
use geotorch_raster::{core_of, BlendMode, MosaicAccumulator, Raster, Window};
use geotorch_tensor::Tensor;

use crate::batcher::{ModelClient, Pending};
use crate::ServeError;

/// Tiles submitted and not yet taken back for stitching, across every
/// running mosaic — exported as the `serve.tile.in_flight` gauge.
static TILES_IN_FLIGHT: AtomicU64 = AtomicU64::new(0);

fn register_gauges() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        geotorch_telemetry::register_gauge("serve.tile.in_flight", || {
            TILES_IN_FLIGHT.load(Ordering::Relaxed)
        });
    });
}

/// Geometry and flow-control knobs for one tiled-inference run.
#[derive(Debug, Clone, Copy)]
pub struct TileConfig {
    /// Square tile extent fed to the model, in pixels.
    pub tile: usize,
    /// Window stride; `tile − 2·halo` or less keeps cores gap-free.
    pub stride: usize,
    /// Distrusted border ring trimmed from interior tile edges. Use at
    /// least the model's receptive-field radius (rounded up to
    /// `alignment`) for exact seams; `0` trusts tiles to their edges.
    pub halo: usize,
    /// Tile starts, extents, and strides must be multiples of this (the
    /// model's total downsampling factor — e.g. 4 for a 2-level UNet) so
    /// every tile sees the same pooling grid as the whole scene. Use `1`
    /// for models without downsampling.
    pub alignment: usize,
    /// Output planes per pixel the model produces.
    pub classes: usize,
    /// Most tiles submitted and not yet stitched at once. Keep at or
    /// below the model's `queue_bound`.
    pub max_in_flight: usize,
    /// Per-tile deadline handed to the batcher; `None` waits forever.
    pub tile_deadline: Option<Duration>,
    /// How overlapping cores are blended.
    pub blend: BlendMode,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            tile: 64,
            stride: 16,
            halo: 24,
            alignment: 4,
            classes: 1,
            max_in_flight: 4,
            tile_deadline: None,
            blend: BlendMode::Uniform,
        }
    }
}

impl TileConfig {
    /// Validate the geometry against a region of interest. Catches the
    /// misconfigurations that would otherwise surface as coverage gaps
    /// or misaligned pooling grids deep inside the run.
    pub fn validate(&self, roi: &Window) -> Result<(), ServeError> {
        let bad = |msg: String| Err(ServeError::BadRequest(msg));
        if self.classes == 0 || self.max_in_flight == 0 {
            return bad("classes and max_in_flight must be positive".into());
        }
        if self.alignment == 0 {
            return bad("alignment must be at least 1".into());
        }
        if self.tile > roi.height || self.tile > roi.width {
            return bad(format!(
                "tile {} does not fit roi {}x{}",
                self.tile, roi.height, roi.width
            ));
        }
        if self.stride == 0 || self.stride > self.tile {
            return bad(format!(
                "stride {} outside 1..=tile ({})",
                self.stride, self.tile
            ));
        }
        if 2 * self.halo >= self.tile {
            return bad(format!(
                "halo {} consumes the {}-pixel tile",
                self.halo, self.tile
            ));
        }
        if self.stride > self.tile - 2 * self.halo {
            return bad(format!(
                "stride {} > tile − 2·halo = {} leaves coverage gaps between tile cores",
                self.stride,
                self.tile - 2 * self.halo
            ));
        }
        for (what, value) in [
            ("tile", self.tile),
            ("stride", self.stride),
            ("roi height − tile", roi.height - self.tile),
            ("roi width − tile", roi.width - self.tile),
        ] {
            if value % self.alignment != 0 {
                return bad(format!(
                    "{what} ({value}) is not a multiple of alignment {} — \
                     clamped tiles would leave the model's downsampling grid",
                    self.alignment
                ));
            }
        }
        Ok(())
    }
}

/// What a finished mosaic run reports alongside the prediction raster.
#[derive(Debug, Clone)]
pub struct MosaicStats {
    /// Tiles predicted and stitched.
    pub tiles: usize,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Per-tile predict latency (submit → reply taken), in tile order.
    pub tile_latencies: Vec<Duration>,
}

impl MosaicStats {
    /// Tiles per second over the whole run.
    pub fn tiles_per_sec(&self) -> f64 {
        self.tiles as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Run a segmentation model over `roi` of `scene` tile by tile and
/// stitch the blended prediction mosaic. See the module docs for the
/// geometry contract; `cfg.validate(&roi)` runs first, the scene must
/// contain the roi, and the model must map `[bands, tile, tile]` to
/// `[classes, tile, tile]`.
///
/// On success the mosaic raster is georeferenced to the roi corner and
/// every pixel is covered (enforced by the accumulator). On any tile
/// failure the whole run fails with that first error — never a partial
/// mosaic.
pub fn run_mosaic(
    client: &ModelClient,
    scene: &Raster,
    roi: Window,
    cfg: TileConfig,
) -> Result<(Raster, MosaicStats), ServeError> {
    register_gauges();
    cfg.validate(&roi)?;
    if !scene.extent().contains(&roi) {
        return Err(ServeError::BadRequest(format!(
            "roi {roi:?} outside scene {}x{}",
            scene.height(),
            scene.width()
        )));
    }
    let sampler = GridSampler::new(roi, (cfg.tile, cfg.tile), (cfg.stride, cfg.stride))
        .map_err(|e| ServeError::BadRequest(e.to_string()))?;
    let windows: Vec<Window> = sampler.windows().collect();
    let started = Instant::now();

    let mut acc = MosaicAccumulator::new(cfg.classes, roi.height, roi.width, cfg.blend);
    let mut tile_latencies = Vec::with_capacity(windows.len());
    // Submitted tiles not yet stitched, oldest first: tile `i` is at the
    // front when it is stitched.
    let mut in_flight: VecDeque<(Instant, Pending<'_>)> = VecDeque::new();
    let mut submitted = 0;
    let outcome = (0..windows.len()).try_for_each(|i| {
        while submitted < windows.len() && submitted < i + cfg.max_in_flight {
            in_flight.push_back(submit_tile(client, scene, &windows[submitted], &cfg)?);
            TILES_IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
            submitted += 1;
        }
        let (sent, pending) = in_flight.pop_front().expect("tile i is in flight");
        TILES_IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        let (pred, _version) = pending.wait()?;
        tile_latencies.push(sent.elapsed());
        stitch_tile(&mut acc, &windows[i], &roi, &cfg, &pred)
    });
    if let Err(err) = outcome {
        // Their answers are discarded, but waiting for them returns every
        // admission slot before the caller sees the error.
        for (_, pending) in in_flight {
            TILES_IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
            pending.wait().ok();
        }
        geotorch_telemetry::count!("serve.tile.mosaic_failed", 1);
        return Err(err);
    }

    let mut mosaic = acc
        .finalize()
        .map_err(|e| ServeError::Internal(format!("mosaic finalize: {e}")))?;
    mosaic.transform = scene.transform.for_window(roi.row, roi.col);
    mosaic.epsg = scene.epsg;
    geotorch_telemetry::count!("serve.tile.mosaics", 1);

    let stats = MosaicStats {
        tiles: windows.len(),
        elapsed: started.elapsed(),
        tile_latencies,
    };
    Ok((mosaic, stats))
}

/// Cut `window` from the scene and submit it to the batcher without
/// waiting; the returned instant is when the submission started.
fn submit_tile<'c>(
    client: &'c ModelClient,
    scene: &Raster,
    window: &Window,
    cfg: &TileConfig,
) -> Result<(Instant, Pending<'c>), ServeError> {
    if let Err(msg) = geotorch_telemetry::fault_point!("tile.fetch") {
        return Err(ServeError::Internal(format!(
            "injected tile fetch fault: {msg}"
        )));
    }
    let input = scene
        .read_window_tensor(window)
        .map_err(|e| ServeError::Internal(format!("tile extraction: {e}")))?;
    geotorch_telemetry::count!("serve.tile.requests", 1);
    let submitted = Instant::now();
    Ok((submitted, client.submit(input, cfg.tile_deadline)?))
}

/// Blend `window`'s prediction into the mosaic, keeping only its core.
fn stitch_tile(
    acc: &mut MosaicAccumulator,
    window: &Window,
    roi: &Window,
    cfg: &TileConfig,
    pred: &Tensor,
) -> Result<(), ServeError> {
    let want = [cfg.classes, window.height, window.width];
    if pred.shape() != want {
        return Err(ServeError::Internal(format!(
            "model returned {:?} for a tile expecting {:?}",
            pred.shape(),
            want
        )));
    }
    if let Err(msg) = geotorch_telemetry::fault_point!("tile.stitch") {
        return Err(ServeError::Internal(format!(
            "injected tile stitch fault: {msg}"
        )));
    }
    let core = core_of(window, roi, cfg.halo);
    acc.add_tile(&window.relative_to(roi), &core.relative_to(roi), pred)
        .map_err(|e| ServeError::Internal(format!("tile stitch: {e}")))?;
    geotorch_telemetry::count!("serve.tile.stitched", 1);
    Ok(())
}
