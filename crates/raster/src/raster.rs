//! The multi-band raster data model.
//!
//! Raster sample buffers live on the tensor pool: `clone`, `zeros`,
//! window reads, and band inserts draw from recycled size-class shelves
//! and `Drop` returns the buffer, so chip-scale augmentation loops and
//! scene-scale tile extraction run allocation-free at steady state.

use geotorch_tensor::{pool, Tensor};

use crate::error::{RasterError, RasterResult};
use crate::mosaic::Window;

/// Affine mapping from pixel coordinates to world coordinates:
/// `world_x = origin_x + col * pixel_width`,
/// `world_y = origin_y - row * pixel_height` (north-up convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoTransform {
    /// World x of the top-left corner.
    pub origin_x: f64,
    /// World y of the top-left corner.
    pub origin_y: f64,
    /// Pixel width in world units.
    pub pixel_width: f64,
    /// Pixel height in world units (positive; rows go south).
    pub pixel_height: f64,
}

impl GeoTransform {
    /// The identity transform (pixel space = world space).
    pub fn identity() -> Self {
        GeoTransform {
            origin_x: 0.0,
            origin_y: 0.0,
            pixel_width: 1.0,
            pixel_height: 1.0,
        }
    }

    /// World coordinates of a pixel's centre.
    pub fn pixel_to_world(&self, row: usize, col: usize) -> (f64, f64) {
        (
            self.origin_x + (col as f64 + 0.5) * self.pixel_width,
            self.origin_y - (row as f64 + 0.5) * self.pixel_height,
        )
    }

    /// The transform of a sub-window anchored at pixel `(row, col)` of
    /// this raster: same scale, origin moved to the window corner.
    pub fn for_window(&self, row: usize, col: usize) -> GeoTransform {
        GeoTransform {
            origin_x: self.origin_x + col as f64 * self.pixel_width,
            origin_y: self.origin_y - row as f64 * self.pixel_height,
            pixel_width: self.pixel_width,
            pixel_height: self.pixel_height,
        }
    }
}

/// A multi-band raster image: `bands × height × width` of `f32` samples
/// plus georeferencing metadata. Storage is pooled (see module docs).
#[derive(Debug, PartialEq)]
pub struct Raster {
    data: Vec<f32>,
    bands: usize,
    height: usize,
    width: usize,
    /// Pixel-to-world transform.
    pub transform: GeoTransform,
    /// Coordinate reference system as an EPSG code (0 = unspecified).
    pub epsg: u32,
}

impl Clone for Raster {
    fn clone(&self) -> Raster {
        Raster {
            data: pool::alloc_copy(&self.data),
            bands: self.bands,
            height: self.height,
            width: self.width,
            transform: self.transform,
            epsg: self.epsg,
        }
    }
}

impl Drop for Raster {
    fn drop(&mut self) {
        pool::release(std::mem::take(&mut self.data));
    }
}

impl Raster {
    /// Build from a flat `[bands][height][width]` buffer.
    ///
    /// # Errors
    /// If the buffer length does not match the dimensions, or any
    /// dimension is zero.
    pub fn new(data: Vec<f32>, bands: usize, height: usize, width: usize) -> RasterResult<Raster> {
        if bands == 0 || height == 0 || width == 0 {
            return Err(RasterError::InvalidArgument(
                "raster dimensions must be positive".into(),
            ));
        }
        if data.len() != bands * height * width {
            return Err(RasterError::DimensionMismatch(format!(
                "buffer of {} samples does not fit {}x{}x{}",
                data.len(),
                bands,
                height,
                width
            )));
        }
        Ok(Raster {
            data,
            bands,
            height,
            width,
            transform: GeoTransform::identity(),
            epsg: 0,
        })
    }

    /// A zero-filled raster (pooled allocation).
    pub fn zeros(bands: usize, height: usize, width: usize) -> RasterResult<Raster> {
        Raster::new(
            pool::alloc_zeroed(bands * height * width),
            bands,
            height,
            width,
        )
    }

    /// Number of spectral bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Samples per band.
    pub fn band_len(&self) -> usize {
        self.height * self.width
    }

    /// The full extent as a window anchored at the origin.
    pub fn extent(&self) -> Window {
        Window::new(0, 0, self.height, self.width)
    }

    /// The full sample buffer, band-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable sample buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the raster, handing its (pooled) buffer to the caller.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Borrow one band's samples.
    pub fn band(&self, band: usize) -> RasterResult<&[f32]> {
        self.check_band(band)?;
        let n = self.band_len();
        Ok(&self.data[band * n..(band + 1) * n])
    }

    /// Mutably borrow one band's samples.
    pub fn band_mut(&mut self, band: usize) -> RasterResult<&mut [f32]> {
        self.check_band(band)?;
        let n = self.band_len();
        Ok(&mut self.data[band * n..(band + 1) * n])
    }

    /// Sample at `(band, row, col)`.
    pub fn get(&self, band: usize, row: usize, col: usize) -> RasterResult<f32> {
        self.check_pixel(band, row, col)?;
        Ok(self.data[(band * self.height + row) * self.width + col])
    }

    /// Write a sample at `(band, row, col)`.
    pub fn set(&mut self, band: usize, row: usize, col: usize, value: f32) -> RasterResult<()> {
        self.check_pixel(band, row, col)?;
        self.data[(band * self.height + row) * self.width + col] = value;
        Ok(())
    }

    /// Append a band (samples must match `band_len`).
    pub fn push_band(&mut self, samples: &[f32]) -> RasterResult<()> {
        if samples.len() != self.band_len() {
            return Err(RasterError::DimensionMismatch(format!(
                "band of {} samples does not fit {}x{}",
                samples.len(),
                self.height,
                self.width
            )));
        }
        self.data.extend_from_slice(samples);
        self.bands += 1;
        Ok(())
    }

    /// Remove a band.
    pub fn remove_band(&mut self, band: usize) -> RasterResult<()> {
        self.check_band(band)?;
        if self.bands == 1 {
            return Err(RasterError::InvalidArgument(
                "cannot remove the only band".into(),
            ));
        }
        let n = self.band_len();
        self.data.drain(band * n..(band + 1) * n);
        self.bands -= 1;
        Ok(())
    }

    /// Insert a band before index `at` (`at == bands` appends). The
    /// rebuilt buffer is pooled; the old one is recycled.
    pub fn insert_band(&mut self, at: usize, samples: &[f32]) -> RasterResult<()> {
        if at > self.bands {
            return Err(RasterError::BandOutOfRange {
                band: at,
                bands: self.bands,
            });
        }
        if samples.len() != self.band_len() {
            return Err(RasterError::DimensionMismatch(
                "inserted band has wrong sample count".into(),
            ));
        }
        let n = self.band_len();
        let mut new_data = pool::alloc_uninit(self.data.len() + n);
        new_data[..at * n].copy_from_slice(&self.data[..at * n]);
        new_data[at * n..(at + 1) * n].copy_from_slice(samples);
        new_data[(at + 1) * n..].copy_from_slice(&self.data[at * n..]);
        pool::release(std::mem::replace(&mut self.data, new_data));
        self.bands += 1;
        Ok(())
    }

    /// Select a subset of bands into a new raster, in the given order.
    pub fn select_bands(&self, bands: &[usize]) -> RasterResult<Raster> {
        if bands.is_empty() {
            return Err(RasterError::InvalidArgument(
                "select_bands of zero bands".into(),
            ));
        }
        let n = self.band_len();
        let mut data = pool::alloc_uninit(bands.len() * n);
        for (i, &b) in bands.iter().enumerate() {
            data[i * n..(i + 1) * n].copy_from_slice(self.band(b)?);
        }
        let mut out = Raster::new(data, bands.len(), self.height, self.width)?;
        out.transform = self.transform;
        out.epsg = self.epsg;
        Ok(out)
    }

    /// Copy a pixel window (all bands) into a new raster. The result is
    /// georeferenced to the window corner. Windows never extend past the
    /// raster — out-of-bounds reads are an error, not silent zero-fill;
    /// samplers clamp their windows instead (see `datasets::samplers`).
    pub fn read_window(&self, w: &Window) -> RasterResult<Raster> {
        let mut data = pool::alloc_uninit(self.bands * w.area());
        self.read_window_into(w, &mut data)?;
        let mut out = Raster::new(data, self.bands, w.height, w.width)?;
        out.transform = self.transform.for_window(w.row, w.col);
        out.epsg = self.epsg;
        Ok(out)
    }

    /// Copy a pixel window (all bands) into a `[bands, h, w]` tensor on
    /// pooled storage — the tile-extraction path of tiled inference.
    pub fn read_window_tensor(&self, w: &Window) -> RasterResult<Tensor> {
        let mut data = pool::alloc_uninit(self.bands * w.area());
        self.read_window_into(w, &mut data)?;
        Ok(Tensor::from_vec(data, &[self.bands, w.height, w.width]))
    }

    /// Copy a window's samples (band-major) into `out`, which must hold
    /// exactly `bands × window area` elements.
    pub fn read_window_into(&self, w: &Window, out: &mut [f32]) -> RasterResult<()> {
        if !self.extent().contains(w) {
            return Err(RasterError::InvalidArgument(format!(
                "window {w:?} outside raster {}x{}",
                self.height, self.width
            )));
        }
        if out.len() != self.bands * w.area() {
            return Err(RasterError::DimensionMismatch(format!(
                "window buffer of {} samples does not fit {}x{}x{}",
                out.len(),
                self.bands,
                w.height,
                w.width
            )));
        }
        for b in 0..self.bands {
            let band = self.band(b)?;
            for r in 0..w.height {
                let src = (w.row + r) * self.width + w.col;
                let dst = (b * w.height + r) * w.width;
                out[dst..dst + w.width].copy_from_slice(&band[src..src + w.width]);
            }
        }
        Ok(())
    }

    /// Mirror every band left↔right, in place.
    pub fn flip_horizontal_(&mut self) {
        for row in self.data.chunks_exact_mut(self.width) {
            row.reverse();
        }
    }

    /// Mirror every band top↕bottom, in place.
    pub fn flip_vertical_(&mut self) {
        let (h, w) = (self.height, self.width);
        for band in self.data.chunks_exact_mut(h * w) {
            for r in 0..h / 2 {
                let (top, rest) = band.split_at_mut((h - 1 - r) * w);
                top[r * w..(r + 1) * w].swap_with_slice(&mut rest[..w]);
            }
        }
    }

    /// Rotate every band by `turns × 90°` clockwise, in place. Odd turn
    /// counts swap height and width; the quarter-turn path stages one
    /// band at a time through a pooled scratch buffer, so steady-state
    /// augmentation loops stay allocation-free. The geotransform is kept
    /// as-is — rotation is an augmentation op, not a reprojection.
    pub fn rotate90_(&mut self, turns: usize) {
        match turns % 4 {
            0 => {}
            2 => {
                self.flip_vertical_();
                self.flip_horizontal_();
            }
            t => {
                let (h, w) = (self.height, self.width);
                let n = h * w;
                let mut scratch = pool::alloc_uninit(n);
                for band in self.data.chunks_exact_mut(n) {
                    scratch.copy_from_slice(band);
                    for r in 0..h {
                        for c in 0..w {
                            // CW: (r, c) → (c, h-1-r); CCW: (r, c) → (w-1-c, r).
                            // Rotated rows have stride h (the new width).
                            let (nr, nc) = if t == 1 { (c, h - 1 - r) } else { (w - 1 - c, r) };
                            band[nr * h + nc] = scratch[r * w + c];
                        }
                    }
                }
                pool::release(scratch);
                std::mem::swap(&mut self.height, &mut self.width);
            }
        }
    }

    /// View as a `[C, H, W]` tensor (pooled copy of the buffer).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_slice(&self.data, &[self.bands, self.height, self.width])
    }

    /// Build from a `[C, H, W]` tensor (pooled copy).
    pub fn from_tensor(t: &Tensor) -> RasterResult<Raster> {
        if t.ndim() != 3 {
            return Err(RasterError::DimensionMismatch(format!(
                "expected [C,H,W] tensor, got {:?}",
                t.shape()
            )));
        }
        Raster::new(
            pool::alloc_copy(t.as_slice()),
            t.shape()[0],
            t.shape()[1],
            t.shape()[2],
        )
    }

    fn check_band(&self, band: usize) -> RasterResult<()> {
        if band >= self.bands {
            Err(RasterError::BandOutOfRange {
                band,
                bands: self.bands,
            })
        } else {
            Ok(())
        }
    }

    fn check_pixel(&self, band: usize, row: usize, col: usize) -> RasterResult<()> {
        self.check_band(band)?;
        if row >= self.height || col >= self.width {
            return Err(RasterError::InvalidArgument(format!(
                "pixel ({row}, {col}) outside {}x{}",
                self.height, self.width
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Raster {
        // 2 bands, 2x3
        Raster::new(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, // band 0
                10.0, 20.0, 30.0, 40.0, 50.0, 60.0, // band 1
            ],
            2,
            2,
            3,
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let r = sample();
        assert_eq!((r.bands(), r.height(), r.width()), (2, 2, 3));
        assert_eq!(r.get(0, 0, 0).unwrap(), 1.0);
        assert_eq!(r.get(1, 1, 2).unwrap(), 60.0);
        assert_eq!(r.band(1).unwrap()[0], 10.0);
        assert!(r.get(2, 0, 0).is_err());
        assert!(r.get(0, 2, 0).is_err());
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(Raster::new(vec![0.0; 5], 1, 2, 3).is_err());
        assert!(Raster::new(vec![], 0, 1, 1).is_err());
    }

    #[test]
    fn push_remove_insert_band() {
        let mut r = sample();
        r.push_band(&[0.0; 6]).unwrap();
        assert_eq!(r.bands(), 3);
        r.remove_band(0).unwrap();
        assert_eq!(r.bands(), 2);
        assert_eq!(r.get(0, 0, 0).unwrap(), 10.0);
        r.insert_band(1, &[7.0; 6]).unwrap();
        assert_eq!(r.bands(), 3);
        assert_eq!(r.get(1, 0, 0).unwrap(), 7.0);
        assert_eq!(r.get(2, 0, 0).unwrap(), 0.0);
        assert!(r.push_band(&[0.0; 5]).is_err());
    }

    #[test]
    fn cannot_remove_last_band() {
        let mut r = Raster::zeros(1, 2, 2).unwrap();
        assert!(r.remove_band(0).is_err());
    }

    #[test]
    fn select_bands_reorders() {
        let r = sample();
        let sel = r.select_bands(&[1, 0]).unwrap();
        assert_eq!(sel.get(0, 0, 0).unwrap(), 10.0);
        assert_eq!(sel.get(1, 0, 0).unwrap(), 1.0);
        assert!(r.select_bands(&[5]).is_err());
        assert!(r.select_bands(&[]).is_err());
    }

    #[test]
    fn tensor_round_trip() {
        let r = sample();
        let t = r.to_tensor();
        assert_eq!(t.shape(), &[2, 2, 3]);
        let back = Raster::from_tensor(&t).unwrap();
        assert_eq!(back.as_slice(), r.as_slice());
    }

    #[test]
    fn geotransform_pixel_to_world() {
        let gt = GeoTransform {
            origin_x: 100.0,
            origin_y: 50.0,
            pixel_width: 2.0,
            pixel_height: 1.0,
        };
        let (x, y) = gt.pixel_to_world(0, 0);
        assert_eq!((x, y), (101.0, 49.5));
        let (x, y) = gt.pixel_to_world(2, 3);
        assert_eq!((x, y), (107.0, 47.5));
    }

    #[test]
    fn read_window_copies_and_georeferences() {
        let mut r = sample();
        r.transform = GeoTransform {
            origin_x: 100.0,
            origin_y: 50.0,
            pixel_width: 2.0,
            pixel_height: 1.0,
        };
        r.epsg = 4326;
        let w = Window::new(1, 1, 1, 2);
        let crop = r.read_window(&w).unwrap();
        assert_eq!((crop.bands(), crop.height(), crop.width()), (2, 1, 2));
        assert_eq!(crop.as_slice(), &[5.0, 6.0, 50.0, 60.0]);
        assert_eq!(crop.transform.origin_x, 102.0);
        assert_eq!(crop.transform.origin_y, 49.0);
        assert_eq!(crop.epsg, 4326);
        // Out-of-bounds windows error instead of zero-padding.
        assert!(r.read_window(&Window::new(1, 1, 2, 3)).is_err());
    }

    #[test]
    fn read_window_tensor_matches_read_window() {
        let r = sample();
        let w = Window::new(0, 1, 2, 2);
        let t = r.read_window_tensor(&w).unwrap();
        assert_eq!(t.shape(), &[2, 2, 2]);
        assert_eq!(t.as_slice(), r.read_window(&w).unwrap().as_slice());
    }

    #[test]
    fn flips_are_involutions() {
        let mut r = sample();
        r.flip_horizontal_();
        assert_eq!(r.band(0).unwrap(), &[3.0, 2.0, 1.0, 6.0, 5.0, 4.0]);
        r.flip_horizontal_();
        assert_eq!(&r, &sample());
        r.flip_vertical_();
        assert_eq!(r.band(1).unwrap(), &[40.0, 50.0, 60.0, 10.0, 20.0, 30.0]);
        r.flip_vertical_();
        assert_eq!(&r, &sample());
    }

    #[test]
    fn rotate90_quarter_turns() {
        let mut r = sample();
        r.rotate90_(1); // clockwise
        assert_eq!((r.height(), r.width()), (3, 2));
        assert_eq!(r.band(0).unwrap(), &[4.0, 1.0, 5.0, 2.0, 6.0, 3.0]);
        r.rotate90_(3); // three more turns: back to start
        assert_eq!(&r, &sample());
        r.rotate90_(2); // half turn = both flips
        let mut flipped = sample();
        flipped.flip_vertical_();
        flipped.flip_horizontal_();
        assert_eq!(r, flipped);
        r.rotate90_(0);
        assert_eq!(r, flipped);
        // CCW is the inverse of CW.
        let mut q = sample();
        q.rotate90_(1);
        q.rotate90_(7); // 7 % 4 = 3 = CCW once
        assert_eq!(&q, &sample());
    }
}
