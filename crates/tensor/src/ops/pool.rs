//! Pooling kernels (NCHW).
//!
//! Every kernel here decomposes over the `B*C` image planes, each owning
//! one part of the output — so planes fan out over the device worker pool
//! through `for_each_part` when the tensor clears [`PARALLEL_THRESHOLD`],
//! and run the same body in order on the calling thread below it.

use crate::device::{for_each_part, PARALLEL_THRESHOLD};
use crate::ops::conv::conv_out_len;
use crate::Tensor;

/// 2-D max pooling. Returns the pooled tensor and the flat index (into the
/// input buffer) of each selected maximum, which the backward pass scatters
/// gradients through.
///
/// A window's maximum is its first element strictly greater than every
/// earlier one, starting from `-inf`: NaN is never selected, and an
/// all-NaN window pools to `-inf`.
pub fn maxpool2d(input: &Tensor, kernel: usize, stride: usize) -> (Tensor, Vec<usize>) {
    let mut argmax = Vec::new();
    let out = max_pool::<true>(input, kernel, stride, &mut argmax);
    (out, argmax)
}

/// [`maxpool2d`]'s values alone, bit for bit, for a forward nothing will
/// differentiate: no argmax is recorded.
pub fn maxpool2d_values(input: &Tensor, kernel: usize, stride: usize) -> Tensor {
    max_pool::<false>(input, kernel, stride, &mut Vec::new())
}

/// The max-pool kernel behind both entry points: one window loop, with a
/// 2×2 / stride-2 case that unrolls it. With `ARGMAX` it also fills
/// `argmax` with each selected element's flat input index; without, the
/// argmax stays empty and no index is stored.
fn max_pool<const ARGMAX: bool>(
    input: &Tensor,
    kernel: usize,
    stride: usize,
    argmax: &mut Vec<usize>,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.maxpool2d");
    assert_eq!(input.ndim(), 4, "maxpool2d input must be [B,C,H,W]");
    let &[b, c, h, w] = input.shape() else { unreachable!() };
    let oh = conv_out_len(h, kernel, stride, 0);
    let ow = conv_out_len(w, kernel, stride, 0);
    let src = input.as_slice();
    let mut out = crate::pool::alloc_uninit(b * c * oh * ow);
    if ARGMAX {
        *argmax = vec![0; out.len()];
    }
    let parallel = input.len() >= PARALLEL_THRESHOLD;
    for_each_part((&mut out[..], &mut argmax[..]), (oh * ow, oh * ow), parallel, |bc, (out, arg)| {
        let (base, img) = (bc * h * w, &src[bc * h * w..][..h * w]);
        for (oi, out_row) in out.chunks_exact_mut(ow).enumerate() {
            let top = oi * stride * w;
            let arg_row = if ARGMAX { &mut arg[oi * ow..][..ow] } else { &mut [] };
            let mut put = |oj: usize, o: &mut f32, (best, at): (f32, usize)| {
                *o = best;
                if ARGMAX {
                    arg_row[oj] = at;
                }
            };
            if kernel == 2 && stride == 2 {
                // The general window below, unrolled: the same candidates
                // in the same order.
                let (r0, r1) = img[top..].split_at(w);
                let windows = out_row.iter_mut().zip(r0.chunks_exact(2).zip(r1.chunks_exact(2)));
                for (oj, (o, (a, b))) in windows.enumerate() {
                    let at = base + top + 2 * oj;
                    let window = [(a[0], at), (a[1], at + 1), (b[0], at + w), (b[1], at + w + 1)];
                    put(oj, o, select(window));
                }
            } else {
                for (oj, o) in out_row.iter_mut().enumerate() {
                    let at = top + oj * stride;
                    let window = (0..kernel).flat_map(|ki| {
                        let row = at + ki * w;
                        let taps = img[row..][..kernel].iter().enumerate();
                        taps.map(move |(kj, &v)| (v, base + row + kj))
                    });
                    put(oj, o, select(window));
                }
            }
        }
    });
    Tensor::from_vec(out, &[b, c, oh, ow])
}

/// The max-pool selection over a window's `(value, flat index)` candidates
/// in order: the first strictly greater than every earlier one, from
/// `(-inf, 0)` — so NaN never wins and an all-NaN window is `(-inf, 0)`.
#[inline(always)]
fn select(window: impl IntoIterator<Item = (f32, usize)>) -> (f32, usize) {
    let first_max = |(best, at), (v, i)| if v > best { (v, i) } else { (best, at) };
    window.into_iter().fold((f32::NEG_INFINITY, 0), first_max)
}

/// Scatter `grad` back through the argmax indices from [`maxpool2d`].
///
/// # Panics
/// If an argmax index leaves the `(b, c)` image plane its gradient belongs
/// to — [`maxpool2d`] never produces one.
pub fn maxpool2d_backward(grad: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.maxpool2d_bwd");
    assert_eq!(grad.len(), argmax.len(), "maxpool backward length mismatch");
    let numel = crate::numel(input_shape);
    let mut out = crate::pool::alloc_zeroed(numel);
    let g = grad.as_slice();
    let planes = input_shape[0] * input_shape[1];
    let plane_out = grad.len() / planes.max(1);
    assert_eq!(plane_out * planes, grad.len(), "maxpool backward grad must split into planes");
    let plane_in = numel / planes.max(1);
    for_each_part(&mut out[..], plane_in, numel >= PARALLEL_THRESHOLD, |bc, plane| {
        let lo = bc * plane_in;
        for o in bc * plane_out..(bc + 1) * plane_out {
            let idx = argmax[o];
            // Checked on both devices: an out-of-plane index is a caller
            // bug that would otherwise add into another plane's gradient.
            assert!((lo..lo + plane_in).contains(&idx), "argmax escaped its plane");
            plane[idx - lo] += g[o];
        }
    });
    Tensor::from_vec(out, input_shape)
}

/// 2-D average pooling.
pub fn avgpool2d(input: &Tensor, kernel: usize, stride: usize) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.avgpool2d");
    assert_eq!(input.ndim(), 4, "avgpool2d input must be [B,C,H,W]");
    let &[b, c, h, w] = input.shape() else { unreachable!() };
    let oh = conv_out_len(h, kernel, stride, 0);
    let ow = conv_out_len(w, kernel, stride, 0);
    let inv = 1.0 / (kernel * kernel) as f32;
    let src = input.as_slice();
    let mut out = crate::pool::alloc_uninit(b * c * oh * ow);
    for_each_part(&mut out[..], oh * ow, input.len() >= PARALLEL_THRESHOLD, |bc, plane| {
        let img_base = bc * h * w;
        for (oi, out_row) in plane.chunks_exact_mut(ow).enumerate() {
            for (oj, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for ki in 0..kernel {
                    let row = img_base + (oi * stride + ki) * w + oj * stride;
                    for kj in 0..kernel {
                        acc += src[row + kj];
                    }
                }
                *o = acc * inv;
            }
        }
    });
    Tensor::from_vec(out, &[b, c, oh, ow])
}

/// Spread `grad` uniformly back through the averaging windows.
pub fn avgpool2d_backward(
    grad: &Tensor,
    kernel: usize,
    stride: usize,
    input_shape: &[usize],
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.avgpool2d_bwd");
    let &[b, c, h, w] = input_shape else { panic!("avgpool2d_backward input must be [B,C,H,W]") };
    let (oh, ow) = (grad.shape()[2], grad.shape()[3]);
    let inv = 1.0 / (kernel * kernel) as f32;
    let g = grad.as_slice();
    let mut out = crate::pool::alloc_zeroed(b * c * h * w);
    let parallel = out.len() >= PARALLEL_THRESHOLD;
    for_each_part(&mut out[..], h * w, parallel, |bc, img| {
        for oi in 0..oh {
            for oj in 0..ow {
                let gv = g[(bc * oh + oi) * ow + oj] * inv;
                for ki in 0..kernel {
                    let row = (oi * stride + ki) * w + oj * stride;
                    for v in &mut img[row..row + kernel] {
                        *v += gv;
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, input_shape)
}

/// Global average pool: `[B,C,H,W] → [B,C]`.
pub fn global_avgpool2d(input: &Tensor) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.global_avgpool2d");
    assert_eq!(input.ndim(), 4, "global_avgpool2d input must be [B,C,H,W]");
    let &[b, c, h, w] = input.shape() else { unreachable!() };
    let inv = 1.0 / (h * w) as f32;
    let src = input.as_slice();
    let mut out = crate::pool::alloc_uninit(b * c);
    for_each_part(&mut out[..], 1, input.len() >= PARALLEL_THRESHOLD, |bc, o| {
        o[0] = src[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() * inv;
    });
    Tensor::from_vec(out, &[b, c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn maxpool_known() {
        let img = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let (out, argmax) = maxpool2d(&img, 2, 2);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let img = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let (_, argmax) = maxpool2d(&img, 2, 2);
        let grad = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let back = maxpool2d_backward(&grad, &argmax, &[1, 1, 4, 4]);
        assert_eq!(back.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(back.at(&[0, 0, 1, 3]), 2.0);
        assert_eq!(back.at(&[0, 0, 3, 1]), 3.0);
        assert_eq!(back.at(&[0, 0, 3, 3]), 4.0);
        assert_eq!(back.sum(), 10.0);
    }

    #[test]
    #[should_panic(expected = "argmax escaped its plane")]
    fn maxpool_backward_rejects_an_index_from_another_plane() {
        // Small enough to stay serial: the plane check still runs.
        let img = Tensor::arange(32).reshape(&[1, 2, 4, 4]);
        let (_, mut argmax) = maxpool2d(&img, 2, 2);
        argmax[0] = 16 + 5; // in bounds, but inside plane 1
        let grad = Tensor::ones(&[1, 2, 2, 2]);
        maxpool2d_backward(&grad, &argmax, &[1, 2, 4, 4]);
    }

    #[test]
    fn avgpool_known() {
        let img = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let out = avgpool2d(&img, 2, 2);
        assert_eq!(out.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avgpool_backward_is_adjoint() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&[2, 3, 6, 6], -1.0, 1.0, &mut rng);
        let y = avgpool2d(&x, 2, 2);
        let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
        let lhs = y.flatten().dot(&g.flatten());
        let back = avgpool2d_backward(&g, 2, 2, x.shape());
        let rhs = x.flatten().dot(&back.flatten());
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn overlapping_windows_stride_one() {
        let img = Tensor::arange(9).reshape(&[1, 1, 3, 3]);
        let (out, _) = maxpool2d(&img, 2, 1);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn global_avgpool() {
        let img = Tensor::arange(8).reshape(&[2, 1, 2, 2]);
        let out = global_avgpool2d(&img);
        assert_eq!(out.shape(), &[2, 1]);
        assert_eq!(out.as_slice(), &[1.5, 5.5]);
    }
}
