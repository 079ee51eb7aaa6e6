//! Row-wise softmax and log-softmax over the last axis.
//!
//! Each row owns a disjoint `cols`-wide part of the output, so rows fan
//! out over the device worker pool through `for_each_part` once the
//! tensor clears [`PARALLEL_THRESHOLD`].

use crate::device::{for_each_part, PARALLEL_THRESHOLD};
use crate::Tensor;

impl Tensor {
    /// Softmax over the last axis, numerically stabilised by max-shift.
    pub fn softmax_lastdim(&self) -> Tensor {
        let _t = geotorch_telemetry::scope!("tensor.softmax");
        assert!(self.ndim() >= 1, "softmax requires at least 1 axis");
        let cols = *self.shape().last().expect("non-empty shape");
        assert!(cols > 0, "softmax over empty axis");
        let src = self.as_slice();
        let mut out = crate::pool::alloc_uninit(self.len());
        for_each_part(&mut out[..], cols, self.len() >= PARALLEL_THRESHOLD, |r, dst| {
            let row = &src[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (d, &v) in dst.iter_mut().zip(row) {
                let e = (v - m).exp();
                *d = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for d in dst.iter_mut() {
                *d *= inv;
            }
        });
        Tensor::from_vec(out, self.shape())
    }

    /// Log-softmax over the last axis (stable log-sum-exp).
    pub fn log_softmax_lastdim(&self) -> Tensor {
        let _t = geotorch_telemetry::scope!("tensor.log_softmax");
        let cols = *self.shape().last().expect("non-empty shape");
        let src = self.as_slice();
        let mut out = crate::pool::alloc_uninit(self.len());
        for_each_part(&mut out[..], cols, self.len() >= PARALLEL_THRESHOLD, |r, dst| {
            let row = &src[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
            for (d, &v) in dst.iter_mut().zip(row) {
                *d = v - lse;
            }
        });
        Tensor::from_vec(out, self.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_lastdim();
        for r in 0..2 {
            let sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone in the logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = a.add_scalar(100.0);
        assert!(a.softmax_lastdim().allclose(&b.softmax_lastdim(), 1e-6));
    }

    #[test]
    fn softmax_survives_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 0.0], &[2]);
        let s = t.softmax_lastdim();
        assert!((s.as_slice()[0] - 1.0).abs() < 1e-6);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -0.5, 2.0, 1.0, 1.0, 1.0], &[2, 3]);
        let ls = t.log_softmax_lastdim();
        let reference = t.softmax_lastdim().ln();
        assert!(ls.allclose(&reference, 1e-5));
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let t = Tensor::zeros(&[1, 4]);
        let s = t.softmax_lastdim();
        assert!(s.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn large_tensor_takes_parallel_path() {
        // 64 rows x 1024 cols clears PARALLEL_THRESHOLD.
        let t = Tensor::arange(64 * 1024).reshape(&[64, 1024]).mul_scalar(1e-3);
        let s = crate::with_device(crate::Device::parallel(), || t.softmax_lastdim());
        for r in 0..64 {
            let sum: f32 = s.as_slice()[r * 1024..(r + 1) * 1024].iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }
}
