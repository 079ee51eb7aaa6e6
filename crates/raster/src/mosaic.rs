//! Prediction-mosaic stitching with overlap blending — the scene-scale
//! half of tiled inference.
//!
//! Large-scene inference runs a model over overlapping tile windows and
//! must reassemble the per-tile outputs into one seamless prediction
//! raster. The stitcher here is a *weighted accumulate + coverage
//! normalization* scheme:
//!
//! ```text
//!   mosaic(p) = Σ_i w_i(p) · pred_i(p)  /  Σ_i w_i(p)
//! ```
//!
//! where the sum ranges over every tile whose *core* region covers pixel
//! `p` and `w_i` is the blend weight ([`BlendMode`]). Because the
//! accumulated weight is divided out at the end, the effective weights
//! sum to exactly 1 at every covered pixel *by construction* — for any
//! weight function and any overlap configuration. [`MosaicAccumulator::
//! finalize`] refuses to produce a mosaic with uncovered pixels, so a
//! gap in the sampler geometry is an error, never a silent black hole.
//!
//! The *core* of a tile is the region whose prediction the stitcher
//! trusts: [`core_of`] trims `halo` pixels from each tile edge, except
//! where the tile is flush with the scene (or region-of-interest)
//! boundary — there the whole-scene forward pass sees the same padding
//! the tile does, so nothing needs trimming. With a halo at least the
//! model's receptive-field radius and tile offsets aligned to the
//! model's total downsampling factor, every core pixel of a tiled
//! forward is computed from exactly the same inputs as the unsplit
//! forward — which is what makes seam-consistency testable down to
//! floating-point rounding.

use geotorch_tensor::{pool, Tensor};

use crate::error::{RasterError, RasterResult};
use crate::raster::Raster;

/// A rectangular pixel window: `height × width` pixels anchored at
/// `(row, col)`. Used for sampler geometry, tile extraction, and mosaic
/// stitching. Coordinates are in whatever frame the producer chose
/// (scene or region-local); the window itself is frame-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Top row (inclusive).
    pub row: usize,
    /// Left column (inclusive).
    pub col: usize,
    /// Number of rows.
    pub height: usize,
    /// Number of columns.
    pub width: usize,
}

impl Window {
    /// A window anchored at `(row, col)` spanning `height × width`.
    pub fn new(row: usize, col: usize, height: usize, width: usize) -> Window {
        Window {
            row,
            col,
            height,
            width,
        }
    }

    /// One past the last row.
    pub fn end_row(&self) -> usize {
        self.row + self.height
    }

    /// One past the last column.
    pub fn end_col(&self) -> usize {
        self.col + self.width
    }

    /// Pixel count.
    pub fn area(&self) -> usize {
        self.height * self.width
    }

    /// Whether `other` lies entirely inside this window.
    pub fn contains(&self, other: &Window) -> bool {
        other.row >= self.row
            && other.col >= self.col
            && other.end_row() <= self.end_row()
            && other.end_col() <= self.end_col()
    }

    /// The overlapping region, if any.
    pub fn intersect(&self, other: &Window) -> Option<Window> {
        let row = self.row.max(other.row);
        let col = self.col.max(other.col);
        let end_row = self.end_row().min(other.end_row());
        let end_col = self.end_col().min(other.end_col());
        if row < end_row && col < end_col {
            Some(Window::new(row, col, end_row - row, end_col - col))
        } else {
            None
        }
    }

    /// The same extent shifted by `(drow, dcol)`.
    pub fn offset(&self, drow: usize, dcol: usize) -> Window {
        Window::new(self.row + drow, self.col + dcol, self.height, self.width)
    }

    /// This window re-expressed relative to `outer`'s origin.
    ///
    /// # Panics
    /// If the window is not contained in `outer`.
    pub fn relative_to(&self, outer: &Window) -> Window {
        assert!(
            outer.contains(self),
            "window {self:?} not inside {outer:?}"
        );
        Window::new(
            self.row - outer.row,
            self.col - outer.col,
            self.height,
            self.width,
        )
    }
}

/// The trusted core of a tile window: `halo` pixels trimmed from every
/// side, except sides flush with `bounds` (the scene or ROI edge) —
/// border tiles keep their border pixels, because the unsplit forward
/// pass pads there exactly like the tiled one does.
///
/// # Panics
/// If the tile is not inside `bounds` or the trim consumes the tile
/// (callers must keep `2 · halo < tile extent`).
pub fn core_of(tile: &Window, bounds: &Window, halo: usize) -> Window {
    assert!(bounds.contains(tile), "tile {tile:?} outside bounds {bounds:?}");
    let top = if tile.row > bounds.row {
        tile.row + halo
    } else {
        tile.row
    };
    let left = if tile.col > bounds.col {
        tile.col + halo
    } else {
        tile.col
    };
    let bottom = if tile.end_row() < bounds.end_row() {
        tile.end_row() - halo
    } else {
        tile.end_row()
    };
    let right = if tile.end_col() < bounds.end_col() {
        tile.end_col() - halo
    } else {
        tile.end_col()
    };
    assert!(
        top < bottom && left < right,
        "halo {halo} consumes the whole tile {tile:?}"
    );
    Window::new(top, left, bottom - top, right - left)
}

/// How overlapping core regions are weighted before coverage
/// normalization. Both modes produce effective weights summing to 1 at
/// every pixel (the normalization divides the accumulated weight out);
/// they differ in how a pixel covered by several tiles mixes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlendMode {
    /// Every core pixel weighs 1 — overlaps average uniformly. The mode
    /// to use when tile predictions are expected to agree bit-for-bit
    /// (halo ≥ receptive field): averaging near-identical values keeps
    /// the result within a few ulp of either.
    Uniform,
    /// Separable raised-cosine (Hann) taper over the tile extent:
    /// pixels near a tile's centre dominate pixels near its edge.
    /// Softens seams when the halo is smaller than the receptive field
    /// and tile predictions genuinely disagree near their borders.
    Cosine,
}

impl BlendMode {
    /// The (unnormalized) weight of pixel `(r, c)` of a tile. `r`/`c`
    /// are scene coordinates; the tile supplies the extent the taper is
    /// shaped over. Strictly positive, so accumulated coverage is
    /// detectable by a zero test. [`MosaicAccumulator::add_tile`] forms
    /// the same expression from tapers it evaluates once per row and
    /// column; the tests hold it to this per-pixel form.
    #[cfg(test)]
    fn weight(&self, tile: &Window, r: usize, c: usize) -> f32 {
        combine(self.taper(r - tile.row, tile.height), self.taper(c - tile.col, tile.width))
    }

    /// The taper of position `i` along an axis of `n` pixels.
    fn taper(&self, i: usize, n: usize) -> f32 {
        match self {
            BlendMode::Uniform => 1.0,
            BlendMode::Cosine => {
                let phase = std::f32::consts::TAU * (i as f32 + 0.5) / n as f32;
                0.5 - 0.5 * phase.cos()
            }
        }
    }
}

/// A pixel's weight from its row and column tapers (`1 · 1 = 1` under
/// [`BlendMode::Uniform`]).
fn combine(row_taper: f32, col_taper: f32) -> f32 {
    (row_taper * col_taper).max(1e-3)
}

/// Streaming mosaic builder: tiles arrive in any order, each contributes
/// its core region weighted by the blend mode, and [`finalize`]
/// normalizes by accumulated coverage. Accumulator planes come from the
/// tensor pool, so repeated mosaics recycle their buffers.
///
/// [`finalize`]: MosaicAccumulator::finalize
pub struct MosaicAccumulator {
    classes: usize,
    height: usize,
    width: usize,
    blend: BlendMode,
    /// `classes × height × width` weighted prediction sum.
    acc: Vec<f32>,
    /// `height × width` weight sum (coverage).
    weight: Vec<f32>,
    tiles: usize,
}

impl MosaicAccumulator {
    /// An empty accumulator for a `classes`-plane mosaic over a
    /// `height × width` region.
    pub fn new(classes: usize, height: usize, width: usize, blend: BlendMode) -> MosaicAccumulator {
        assert!(
            classes > 0 && height > 0 && width > 0,
            "mosaic dimensions must be positive"
        );
        MosaicAccumulator {
            classes,
            height,
            width,
            blend,
            acc: pool::alloc_zeroed(classes * height * width),
            weight: pool::alloc_zeroed(height * width),
            tiles: 0,
        }
    }

    /// Mosaic plane count.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Mosaic height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Mosaic width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of tiles accumulated so far.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// The raw coverage (weight-sum) plane, row-major.
    pub fn weights(&self) -> &[f32] {
        &self.weight
    }

    /// First pixel with zero accumulated weight, if any — a hole no
    /// tile's core covered. `None` means full coverage.
    pub fn coverage_gap(&self) -> Option<(usize, usize)> {
        self.weight
            .iter()
            .position(|&w| w == 0.0)
            .map(|i| (i / self.width, i % self.width))
    }

    /// Accumulate one tile prediction. `tile` and `core` are in mosaic
    /// coordinates (`core` from [`core_of`], contained in both the tile
    /// and the mosaic); `pred` must be shaped `[classes, tile.height,
    /// tile.width]`. Only core pixels contribute.
    pub fn add_tile(&mut self, tile: &Window, core: &Window, pred: &Tensor) -> RasterResult<()> {
        let bounds = Window::new(0, 0, self.height, self.width);
        if !bounds.contains(tile) {
            return Err(RasterError::InvalidArgument(format!(
                "tile {tile:?} outside mosaic {}x{}",
                self.height, self.width
            )));
        }
        if !tile.contains(core) {
            return Err(RasterError::InvalidArgument(format!(
                "core {core:?} not inside tile {tile:?}"
            )));
        }
        let want = [self.classes, tile.height, tile.width];
        if pred.shape() != want {
            return Err(RasterError::DimensionMismatch(format!(
                "tile prediction shaped {:?}, expected {:?}",
                pred.shape(),
                want
            )));
        }
        // `BlendMode::weight` per pixel, each axis's tapers evaluated once:
        // the columns' per tile, the row's per row.
        let col_tapers: Vec<f32> = (core.col..core.end_col())
            .map(|c| self.blend.taper(c - tile.col, tile.width))
            .collect();
        let mut w_row = vec![0.0; core.width];
        let (plane, tile_plane) = (self.height * self.width, tile.height * tile.width);
        let data = pred.as_slice();
        for r in core.row..core.end_row() {
            let row_taper = self.blend.taper(r - tile.row, tile.height);
            for (w, &col_taper) in w_row.iter_mut().zip(&col_tapers) {
                *w = combine(row_taper, col_taper);
            }
            let out_row = r * self.width + core.col;
            let in_row = (r - tile.row) * tile.width + core.col - tile.col;
            for (sum, &w) in self.weight[out_row..][..core.width].iter_mut().zip(&w_row) {
                *sum += w;
            }
            for k in 0..self.classes {
                let acc = &mut self.acc[k * plane + out_row..][..core.width];
                let pred = &data[k * tile_plane + in_row..][..core.width];
                for ((a, &w), &p) in acc.iter_mut().zip(&w_row).zip(pred) {
                    *a += w * p;
                }
            }
        }
        self.tiles += 1;
        Ok(())
    }

    /// Normalize by accumulated coverage and return the mosaic raster
    /// (`classes` bands, not georeferenced: the caller knows the frame).
    /// Fails if any pixel was never covered by a tile core — a partial
    /// mosaic is never silently returned.
    pub fn finalize(mut self) -> RasterResult<Raster> {
        if let Some((r, c)) = self.coverage_gap() {
            return Err(RasterError::InvalidArgument(format!(
                "mosaic has no tile coverage at pixel ({r}, {c}) — \
                 sampler stride/halo leave gaps"
            )));
        }
        let mut acc = std::mem::take(&mut self.acc);
        let plane = self.height * self.width;
        for k in 0..self.classes {
            let band = &mut acc[k * plane..(k + 1) * plane];
            for (v, &w) in band.iter_mut().zip(self.weight.iter()) {
                *v /= w;
            }
        }
        Raster::new(acc, self.classes, self.height, self.width)
    }
}

impl Drop for MosaicAccumulator {
    fn drop(&mut self) {
        pool::release(std::mem::take(&mut self.acc));
        pool::release(std::mem::take(&mut self.weight));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_pred(classes: usize, tile: &Window, value: f32) -> Tensor {
        Tensor::full(&[classes, tile.height, tile.width], value)
    }

    #[test]
    fn window_geometry() {
        let w = Window::new(2, 3, 4, 5);
        assert_eq!((w.end_row(), w.end_col(), w.area()), (6, 8, 20));
        let outer = Window::new(0, 0, 10, 10);
        assert!(outer.contains(&w));
        assert!(!w.contains(&outer));
        let other = Window::new(4, 6, 4, 4);
        assert_eq!(w.intersect(&other), Some(Window::new(4, 6, 2, 2)));
        assert_eq!(w.intersect(&Window::new(8, 8, 2, 2)), None);
        assert_eq!(w.relative_to(&Window::new(1, 1, 9, 9)), Window::new(1, 2, 4, 5));
    }

    #[test]
    fn core_trims_interior_sides_only() {
        let bounds = Window::new(0, 0, 100, 100);
        // Interior tile: trimmed on all four sides.
        let t = Window::new(20, 30, 32, 32);
        assert_eq!(core_of(&t, &bounds, 4), Window::new(24, 34, 24, 24));
        // Corner tile: flush sides keep their border pixels.
        let t = Window::new(0, 0, 32, 32);
        assert_eq!(core_of(&t, &bounds, 4), Window::new(0, 0, 28, 28));
        // Bottom-right clamped tile.
        let t = Window::new(68, 68, 32, 32);
        assert_eq!(core_of(&t, &bounds, 4), Window::new(72, 72, 28, 28));
        // halo 0 is the identity.
        assert_eq!(core_of(&t, &bounds, 0), t);
    }

    #[test]
    #[should_panic(expected = "consumes the whole tile")]
    fn core_rejects_oversized_halo() {
        let bounds = Window::new(0, 0, 100, 100);
        core_of(&Window::new(30, 30, 8, 8), &bounds, 4);
    }

    #[test]
    fn constant_tiles_reconstruct_constant_field() {
        for blend in [BlendMode::Uniform, BlendMode::Cosine] {
            let mut acc = MosaicAccumulator::new(2, 8, 8, blend);
            let bounds = Window::new(0, 0, 8, 8);
            // 2x2 overlapping tiles of 6x6 at stride 2 (clamped).
            for &(r, c) in &[(0usize, 0usize), (0, 2), (2, 0), (2, 2)] {
                let tile = Window::new(r, c, 6, 6);
                let core = core_of(&tile, &bounds, 1);
                acc.add_tile(&tile, &core, &constant_pred(2, &tile, 3.5)).unwrap();
            }
            assert_eq!(acc.tiles(), 4);
            assert_eq!(acc.coverage_gap(), None);
            let mosaic = acc.finalize().unwrap();
            assert_eq!((mosaic.bands(), mosaic.height(), mosaic.width()), (2, 8, 8));
            for &v in mosaic.as_slice() {
                assert!(
                    (v - 3.5).abs() < 1e-5,
                    "normalized blend must preserve constants, got {v} ({blend:?})"
                );
            }
        }
    }

    #[test]
    fn uncovered_pixel_fails_finalize() {
        let mut acc = MosaicAccumulator::new(1, 8, 8, BlendMode::Uniform);
        let tile = Window::new(0, 0, 4, 4);
        acc.add_tile(&tile, &tile.clone(), &constant_pred(1, &tile, 1.0)).unwrap();
        assert_eq!(acc.coverage_gap(), Some((0, 4)));
        let err = acc.finalize().unwrap_err();
        assert!(err.to_string().contains("no tile coverage"));
    }

    #[test]
    fn add_tile_validates_geometry_and_shape() {
        let mut acc = MosaicAccumulator::new(1, 8, 8, BlendMode::Uniform);
        let oversized = Window::new(4, 4, 8, 8);
        assert!(acc
            .add_tile(&oversized, &oversized.clone(), &constant_pred(1, &oversized, 0.0))
            .is_err());
        let tile = Window::new(0, 0, 4, 4);
        let stray_core = Window::new(2, 2, 4, 4);
        assert!(acc
            .add_tile(&tile, &stray_core, &constant_pred(1, &tile, 0.0))
            .is_err());
        let bad_shape = Tensor::zeros(&[2, 4, 4]);
        assert!(acc.add_tile(&tile, &tile.clone(), &bad_shape).is_err());
    }

    #[test]
    fn overlap_averages_disagreeing_tiles() {
        // Two tiles disagree on the overlap; uniform blending averages.
        let mut acc = MosaicAccumulator::new(1, 4, 6, BlendMode::Uniform);
        let left = Window::new(0, 0, 4, 4);
        let right = Window::new(0, 2, 4, 4);
        acc.add_tile(&left, &left.clone(), &constant_pred(1, &left, 1.0)).unwrap();
        acc.add_tile(&right, &right.clone(), &constant_pred(1, &right, 3.0)).unwrap();
        let mosaic = acc.finalize().unwrap();
        assert_eq!(mosaic.get(0, 0, 0).unwrap(), 1.0);
        assert_eq!(mosaic.get(0, 0, 3).unwrap(), 2.0); // overlap: (1+3)/2
        assert_eq!(mosaic.get(0, 0, 5).unwrap(), 3.0);
    }

    /// `add_tile` forms each pixel's weight from per-row and per-column
    /// tapers; the accumulator's bits equal accumulating the per-pixel
    /// [`BlendMode::weight`] formula, pixel by pixel and class by class.
    #[test]
    fn add_tile_accumulates_the_per_pixel_weight_bitwise() {
        let (classes, height, width) = (3, 37, 41);
        let bounds = Window::new(0, 0, height, width);
        for blend in [BlendMode::Cosine, BlendMode::Uniform] {
            let mut acc = MosaicAccumulator::new(classes, height, width, blend);
            let mut want_acc = vec![0.0f32; classes * height * width];
            let mut want_weight = vec![0.0f32; height * width];
            let tiles = [
                (0, 0, 20, 24),
                (9, 13, 20, 24),
                (17, 17, 20, 24),
                (0, 20, 13, 21),
                (24, 0, 13, 9),
            ];
            for (i, &(r, c, h, w)) in tiles.iter().enumerate() {
                let tile = Window::new(r, c, h, w);
                let core = core_of(&tile, &bounds, 3);
                let data: Vec<f32> = (0..classes * h * w)
                    .map(|j| ((j * 7919 + i * 104_729) % 1000) as f32 / 97.0 - 5.0)
                    .collect();
                let pred = Tensor::from_vec(data.clone(), &[classes, h, w]);
                acc.add_tile(&tile, &core, &pred).unwrap();
                for pr in core.row..core.end_row() {
                    for pc in core.col..core.end_col() {
                        let wt = blend.weight(&tile, pr, pc);
                        want_weight[pr * width + pc] += wt;
                        for k in 0..classes {
                            want_acc[(k * height + pr) * width + pc] +=
                                wt * data[(k * h + pr - r) * w + pc - c];
                        }
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&acc.weight), bits(&want_weight), "{blend:?} weights");
            assert_eq!(bits(&acc.acc), bits(&want_acc), "{blend:?} accumulator");
        }
    }

    #[test]
    fn cosine_weights_favour_tile_centres() {
        let tile = Window::new(0, 0, 16, 16);
        let centre = BlendMode::Cosine.weight(&tile, 8, 8);
        let edge = BlendMode::Cosine.weight(&tile, 0, 0);
        assert!(centre > 0.9 && edge < 0.01 && edge > 0.0);
    }
}
