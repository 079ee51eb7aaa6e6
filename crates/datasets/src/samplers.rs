//! Windowed geo-samplers over large rasters, after TorchGeo's
//! `GridGeoSampler`/`RandomGeoSampler`: scene-scale datasets are not
//! pre-chipped — a sampler turns one huge georeferenced raster into a
//! stream of tile windows.
//!
//! Samplers are pure window geometry ([`geotorch_raster::Window`]); a
//! tile's pixels come from `Raster::read_window_tensor`. The edge
//! contract is first-class: windows at the scene border **clamp** (the
//! last start along each axis is pulled back so the window stays inside
//! the raster) rather than zero-padding silently — every yielded window
//! lies fully inside the sampled extent, every pixel of the extent is
//! covered, and `stride == tile` on an exactly divisible extent
//! degenerates to non-overlapping tiling. These properties are pinned by
//! proptests in `tests/sampler_prop.rs`.

use geotorch_raster::{RasterError, RasterResult, Window};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The start offsets a clamped sliding window visits along one axis:
/// `0, stride, 2·stride, …`, with the final start pulled back to
/// `extent − tile` so the last window ends exactly at the border. When
/// `stride` divides `extent − tile` the pull-back is a no-op and the
/// grid is regular.
fn axis_starts(extent: usize, tile: usize, stride: usize) -> Vec<usize> {
    debug_assert!(tile >= 1 && stride >= 1 && tile <= extent);
    let mut starts = Vec::new();
    let mut pos = 0;
    loop {
        if pos + tile >= extent {
            starts.push(extent - tile);
            return starts;
        }
        starts.push(pos);
        pos += stride;
    }
}

/// Row-major sliding-window sampler: every pixel of the sampled extent
/// is covered by at least one window (stride ≤ tile is enforced), border
/// windows clamp inward, and the visit order is deterministic
/// (row-major by window start).
#[derive(Debug, Clone)]
pub struct GridSampler {
    roi: Window,
    tile_h: usize,
    tile_w: usize,
    row_starts: Vec<usize>,
    col_starts: Vec<usize>,
}

impl GridSampler {
    /// Windows of `tile_h × tile_w` at stride `(stride_h, stride_w)`
    /// over `roi`. The tile must fit in the roi and strides must be in
    /// `1..=tile` — a stride beyond the tile would leave uncovered gaps,
    /// which the mosaic stitcher treats as an error, so the sampler
    /// rejects it up front.
    pub fn new(
        roi: Window,
        (tile_h, tile_w): (usize, usize),
        (stride_h, stride_w): (usize, usize),
    ) -> RasterResult<GridSampler> {
        if tile_h == 0 || tile_w == 0 || tile_h > roi.height || tile_w > roi.width {
            return Err(RasterError::InvalidArgument(format!(
                "tile {tile_h}x{tile_w} does not fit roi {}x{}",
                roi.height, roi.width
            )));
        }
        if stride_h == 0 || stride_w == 0 || stride_h > tile_h || stride_w > tile_w {
            return Err(RasterError::InvalidArgument(format!(
                "stride {stride_h}x{stride_w} outside 1..=tile ({tile_h}x{tile_w}) — \
                 larger strides leave uncovered pixels"
            )));
        }
        Ok(GridSampler {
            roi,
            tile_h,
            tile_w,
            row_starts: axis_starts(roi.height, tile_h, stride_h),
            col_starts: axis_starts(roi.width, tile_w, stride_w),
        })
    }

    /// The sampled region (windows are anchored inside it).
    pub fn roi(&self) -> Window {
        self.roi
    }

    /// Number of windows the sampler yields.
    pub fn len(&self) -> usize {
        self.row_starts.len() * self.col_starts.len()
    }

    /// Whether the sampler yields no windows (never true: a valid
    /// sampler always yields at least one).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Windows per grid row / per grid column.
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.row_starts.len(), self.col_starts.len())
    }

    /// The `i`-th window in row-major order.
    pub fn window(&self, i: usize) -> Option<Window> {
        if i >= self.len() {
            return None;
        }
        let cols = self.col_starts.len();
        Some(Window::new(
            self.roi.row + self.row_starts[i / cols],
            self.roi.col + self.col_starts[i % cols],
            self.tile_h,
            self.tile_w,
        ))
    }

    /// All windows in row-major order.
    pub fn windows(&self) -> GridIter<'_> {
        GridIter {
            sampler: self,
            index: 0,
        }
    }

    /// The tile extent every window shares.
    pub fn tile_extent(&self) -> (usize, usize) {
        (self.tile_h, self.tile_w)
    }
}

/// Row-major window iterator for [`GridSampler`].
pub struct GridIter<'a> {
    sampler: &'a GridSampler,
    index: usize,
}

impl Iterator for GridIter<'_> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        let s = self.sampler;
        if self.index >= s.len() {
            return None;
        }
        let cols = s.col_starts.len();
        let (r, c) = (self.index / cols, self.index % cols);
        self.index += 1;
        let (tile_h, tile_w) = s.tile_extent();
        Some(Window::new(
            s.roi.row + s.row_starts[r],
            s.roi.col + s.col_starts[c],
            tile_h,
            tile_w,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.sampler.len() - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for GridIter<'_> {}

/// Seeded uniform random window sampler (TorchGeo's `RandomGeoSampler`):
/// yields `length` windows of fixed extent, each anchored uniformly at
/// random inside the roi — bounds-checked by construction, so a yielded
/// window never leaves the roi. Same seed → same window sequence.
#[derive(Debug, Clone)]
pub struct RandomSampler {
    roi: Window,
    tile_h: usize,
    tile_w: usize,
    length: usize,
    rng: StdRng,
    drawn: usize,
}

impl RandomSampler {
    /// `length` random `tile_h × tile_w` windows inside `roi`, from
    /// `seed`.
    pub fn new(
        roi: Window,
        (tile_h, tile_w): (usize, usize),
        length: usize,
        seed: u64,
    ) -> RasterResult<RandomSampler> {
        if tile_h == 0 || tile_w == 0 || tile_h > roi.height || tile_w > roi.width {
            return Err(RasterError::InvalidArgument(format!(
                "tile {tile_h}x{tile_w} does not fit roi {}x{}",
                roi.height, roi.width
            )));
        }
        Ok(RandomSampler {
            roi,
            tile_h,
            tile_w,
            length,
            rng: StdRng::seed_from_u64(seed),
            drawn: 0,
        })
    }

    /// The sampled region.
    pub fn roi(&self) -> Window {
        self.roi
    }

    /// Windows remaining.
    pub fn len(&self) -> usize {
        self.length - self.drawn
    }

    /// Whether the sampler is exhausted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for RandomSampler {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        if self.drawn >= self.length {
            return None;
        }
        self.drawn += 1;
        let max_r = self.roi.height - self.tile_h;
        let max_c = self.roi.width - self.tile_w;
        let r = if max_r == 0 { 0 } else { self.rng.gen_range(0..=max_r) };
        let c = if max_c == 0 { 0 } else { self.rng.gen_range(0..=max_c) };
        Some(Window::new(
            self.roi.row + r,
            self.roi.col + c,
            self.tile_h,
            self.tile_w,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

impl ExactSizeIterator for RandomSampler {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_starts_clamp_and_tile_exactly() {
        // Divisible extent at stride == tile: exact non-overlapping tiling.
        assert_eq!(axis_starts(8, 4, 4), vec![0, 4]);
        // Indivisible extent: last start clamps to extent - tile.
        assert_eq!(axis_starts(10, 4, 4), vec![0, 4, 6]);
        // Overlapping stride.
        assert_eq!(axis_starts(8, 4, 2), vec![0, 2, 4]);
        // The tile spans the whole extent.
        assert_eq!(axis_starts(4, 4, 1), vec![0]);
    }

    #[test]
    fn grid_sampler_row_major_and_clamped() {
        let s = GridSampler::new(Window::new(0, 0, 10, 8), (4, 4), (4, 4)).unwrap();
        assert_eq!(s.grid_shape(), (3, 2));
        let windows: Vec<Window> = s.windows().collect();
        assert_eq!(windows.len(), 6);
        assert_eq!(windows[0], Window::new(0, 0, 4, 4));
        assert_eq!(windows[1], Window::new(0, 4, 4, 4));
        // Clamped bottom row starts at 6, not 8.
        assert_eq!(windows[4], Window::new(6, 0, 4, 4));
        // Every window inside the roi.
        let roi = s.roi();
        assert!(windows.iter().all(|w| roi.contains(w)));
    }

    #[test]
    fn grid_sampler_offsets_by_roi_origin() {
        let s = GridSampler::new(Window::new(100, 200, 8, 8), (4, 4), (4, 4)).unwrap();
        let w: Vec<Window> = s.windows().collect();
        assert_eq!(w[0], Window::new(100, 200, 4, 4));
        assert_eq!(w[3], Window::new(104, 204, 4, 4));
    }

    #[test]
    fn grid_sampler_rejects_bad_geometry() {
        let roi = Window::new(0, 0, 8, 8);
        assert!(GridSampler::new(roi, (16, 4), (4, 4)).is_err()); // tile > roi
        assert!(GridSampler::new(roi, (4, 4), (5, 4)).is_err()); // stride > tile
        assert!(GridSampler::new(roi, (4, 4), (0, 4)).is_err()); // zero stride
        assert!(GridSampler::new(roi, (0, 4), (1, 1)).is_err()); // zero tile
    }

    #[test]
    fn random_sampler_is_seeded_and_bounded() {
        let roi = Window::new(10, 10, 64, 48);
        let a: Vec<Window> = RandomSampler::new(roi, (16, 16), 50, 9).unwrap().collect();
        let b: Vec<Window> = RandomSampler::new(roi, (16, 16), 50, 9).unwrap().collect();
        assert_eq!(a, b, "same seed must replay the same windows");
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|w| roi.contains(w)));
        // Different seeds diverge.
        let c: Vec<Window> = RandomSampler::new(roi, (16, 16), 50, 10).unwrap().collect();
        assert_ne!(a, c);
        // Degenerate roi == tile: always the single possible window.
        let snug: Vec<Window> =
            RandomSampler::new(Window::new(0, 0, 16, 16), (16, 16), 3, 1).unwrap().collect();
        assert!(snug.iter().all(|w| *w == Window::new(0, 0, 16, 16)));
        // Oversized tile is rejected.
        assert!(RandomSampler::new(roi, (65, 16), 1, 0).is_err());
    }
}
