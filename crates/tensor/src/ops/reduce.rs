//! Reductions: full-tensor and per-axis.
//!
//! Full-tensor reductions split the buffer into fixed-size chunks, reduce
//! each chunk on the device worker pool, and combine the per-chunk partials
//! in chunk order — so the parallel result is deterministic for a given
//! length. Axis reductions fan out over the `outer` dimension instead, each
//! task owning a disjoint part of the output through `for_each_part`.
//!
//! Every axis-reduced element folds its values in ascending order from the
//! initial value. When the trailing extent is narrow (a conv's bias
//! gradient: 252-long rows, `inner = 1`), eight outer rows are folded side
//! by side, each in its own register: that changes which chains overlap,
//! never a chain's order, so the bits are the sequential loop's.

use crate::device::{for_each_part, PARALLEL_THRESHOLD};
use crate::Tensor;

/// Chunk length for parallel full-tensor reductions.
const REDUCE_CHUNK: usize = 64 * 1024;

/// Outer rows an axis reduction folds side by side when `inner < ROWS`.
const ROWS: usize = 8;

/// Reduce each `REDUCE_CHUNK`-sized chunk of `data` with `f` on the worker
/// pool, returning the per-chunk partials in chunk order.
fn chunk_partials(data: &[f32], f: impl Fn(&[f32]) -> f64 + Sync) -> Vec<f64> {
    let mut out = vec![0.0f64; data.len().div_ceil(REDUCE_CHUNK).max(1)];
    for_each_part(&mut out[..], 1, true, |i, partial| {
        let lo = i * REDUCE_CHUNK;
        partial[0] = f(&data[lo..(lo + REDUCE_CHUNK).min(data.len())]);
    });
    out
}

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        let _t = geotorch_telemetry::scope!("tensor.reduce.sum");
        let data = self.as_slice();
        if data.len() >= PARALLEL_THRESHOLD {
            chunk_partials(data, |c| c.iter().map(|&v| v as f64).sum())
                .iter()
                .sum::<f64>() as f32
        } else {
            // Accumulation in f64 keeps large reductions accurate.
            data.iter().map(|&v| v as f64).sum::<f64>() as f32
        }
    }

    /// Mean of all elements (`NaN` for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            return f32::NAN;
        }
        self.sum() / self.len() as f32
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        let data = self.as_slice();
        if data.len() >= PARALLEL_THRESHOLD {
            chunk_partials(data, |c| {
                c.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64
            })
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b)) as f32
        } else {
            data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
        }
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        let data = self.as_slice();
        if data.len() >= PARALLEL_THRESHOLD {
            chunk_partials(data, |c| {
                c.iter().copied().fold(f32::INFINITY, f32::min) as f64
            })
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b)) as f32
        } else {
            data.iter().copied().fold(f32::INFINITY, f32::min)
        }
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return f32::NAN;
        }
        let mean = self.mean() as f64;
        let data = self.as_slice();
        let sum_sq = |c: &[f32]| {
            c.iter()
                .map(|&v| {
                    let d = v as f64 - mean;
                    d * d
                })
                .sum::<f64>()
        };
        let ss: f64 = if data.len() >= PARALLEL_THRESHOLD {
            chunk_partials(data, sum_sq).iter().sum()
        } else {
            sum_sq(data)
        };
        (ss / self.len() as f64) as f32
    }

    /// Index of the maximum element in the flat buffer.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax on empty tensor");
        let mut best = 0;
        let data = self.as_slice();
        for (i, &v) in data.iter().enumerate() {
            if v > data[best] {
                best = i;
            }
        }
        best
    }

    /// Sum along `axis`, removing it from the shape.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        let t = self.sum_axis_keepdim(axis);
        let mut shape = t.shape().to_vec();
        shape.remove(axis);
        t.reshape(&shape)
    }

    /// Sum along `axis`, keeping it with extent 1.
    ///
    /// # Panics
    /// If `axis` is out of range.
    pub fn sum_axis_keepdim(&self, axis: usize) -> Tensor {
        let _t = geotorch_telemetry::scope!("tensor.reduce.sum_axis");
        self.reduce_axis_keepdim(axis, 0.0, |acc, v| acc + v)
    }

    /// Mean along `axis`, removing it from the shape.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let n = self.shape()[axis] as f32;
        self.sum_axis(axis).mul_scalar(1.0 / n)
    }

    /// Maximum along `axis`, removing it from the shape.
    pub fn max_axis(&self, axis: usize) -> Tensor {
        let t = self.reduce_axis_keepdim(axis, f32::NEG_INFINITY, f32::max);
        let mut shape = t.shape().to_vec();
        shape.remove(axis);
        t.reshape(&shape)
    }

    /// Per-row argmax of a 2-D tensor: returns the column index of the
    /// largest value in each row.
    ///
    /// # Panics
    /// If the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows requires a 2-D tensor");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let data = self.as_slice();
        let row_best = |r: usize| {
            let row = &data[r * cols..(r + 1) * cols];
            let mut best = 0;
            for (c, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = c;
                }
            }
            best
        };
        let mut out = vec![0usize; rows];
        for_each_part(&mut out[..], 1, data.len() >= PARALLEL_THRESHOLD, |r, o| o[0] = row_best(r));
        out
    }

    fn reduce_axis_keepdim(
        &self,
        axis: usize,
        init: f32,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Tensor {
        assert!(
            axis < self.ndim(),
            "axis {} out of range for shape {:?}",
            axis,
            self.shape()
        );
        let shape = self.shape();
        let outer: usize = shape[..axis].iter().product();
        let n = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let data = self.as_slice();
        let mut out = crate::pool::alloc_filled(outer * inner, init);
        // Narrow rows fold `ROWS` outer rows side by side, in registers: the
        // row-add loop would chain every add through one stored slot.
        let rows = if inner < ROWS { ROWS } else { 1 };
        for_each_part(&mut out[..], rows * inner, data.len() >= PARALLEL_THRESHOLD, |t, dst| {
            let o0 = t * rows;
            if rows == ROWS && o0 + ROWS <= outer {
                // One register accumulator per row, each folding its own
                // row in ascending `k`: the one-row loop's order.
                let len = n * inner;
                let src: [&[f32]; ROWS] = std::array::from_fn(|r| &data[(o0 + r) * len..][..len]);
                for j in 0..inner {
                    let mut acc = [init; ROWS];
                    for k in 0..n {
                        for (a, row) in acc.iter_mut().zip(&src) {
                            *a = f(*a, row[k * inner + j]);
                        }
                    }
                    for (r, a) in acc.into_iter().enumerate() {
                        dst[r * inner + j] = a;
                    }
                }
                return;
            }
            for (o, dst) in (o0..).zip(dst.chunks_exact_mut(inner)) {
                let src = &data[o * n * inner..][..n * inner];
                for row in src.chunks_exact(inner) {
                    for (d, &v) in dst.iter_mut().zip(row) {
                        *d = f(*d, v);
                    }
                }
            }
        });
        let mut out_shape = shape.to_vec();
        out_shape[axis] = 1;
        Tensor::from_vec(out, &out_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t23() -> Tensor {
        Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])
    }

    #[test]
    fn full_reductions() {
        let t = t23();
        assert_eq!(t.sum(), 21.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max(), 6.0);
        assert_eq!(t.min(), 1.0);
        assert!((t.variance() - 35.0 / 12.0).abs() < 1e-5);
        assert_eq!(t.argmax(), 5);
    }

    #[test]
    fn axis_reductions() {
        let t = t23();
        let s0 = t.sum_axis(0);
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.as_slice(), &[5.0, 7.0, 9.0]);
        let s1 = t.sum_axis(1);
        assert_eq!(s1.shape(), &[2]);
        assert_eq!(s1.as_slice(), &[6.0, 15.0]);
        let k = t.sum_axis_keepdim(1);
        assert_eq!(k.shape(), &[2, 1]);
        let m = t.mean_axis(0);
        assert_eq!(m.as_slice(), &[2.5, 3.5, 4.5]);
        let mx = t.max_axis(0);
        assert_eq!(mx.as_slice(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn three_dim_axis_reduction() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let s = t.sum_axis(1);
        assert_eq!(s.shape(), &[2, 4]);
        assert_eq!(s.at(&[0, 0]), 0.0 + 4.0 + 8.0);
        assert_eq!(s.at(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn argmax_rows_per_row() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.8, 0.1, 0.1], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "axis 2 out of range")]
    fn bad_axis_panics() {
        t23().sum_axis(2);
    }

    #[test]
    fn empty_tensor_behaviour() {
        let t = Tensor::zeros(&[0]);
        assert_eq!(t.sum(), 0.0);
        assert!(t.mean().is_nan());
        assert_eq!(t.max(), f32::NEG_INFINITY);
    }
}
