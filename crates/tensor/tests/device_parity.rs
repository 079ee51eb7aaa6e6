//! Device-parity suite: every public op in `ops/` must produce the same
//! result under `Device::Cpu` and `Device::Parallel(4)`.
//!
//! Kernels with disjoint-region writes are held to bit-equality; ops built
//! on reordered float accumulation (matmul and the conv family) get a
//! `1e-6` tolerance. Small proptest cases check shape-edge behaviour; the
//! `big_*` tests use tensors past `PARALLEL_THRESHOLD` so the pool path
//! actually runs.

use geotorch_tensor::ops::broadcast::{reduce_to_shape, zip_broadcast};
use geotorch_tensor::ops::conv::{
    col2im, conv2d, conv2d_naive, conv_transpose2d, im2col, upsample_nearest2d,
    upsample_nearest2d_backward,
};
use geotorch_tensor::ops::matmul::matmul_naive;
use geotorch_tensor::ops::pool::{
    avgpool2d, avgpool2d_backward, global_avgpool2d, maxpool2d, maxpool2d_backward,
    maxpool2d_values,
};
use geotorch_tensor::{with_device, Device, Tensor, PARALLEL_THRESHOLD};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAR: Device = Device::Parallel(4);

/// Evaluate `f` under Cpu, then under Parallel(4).
fn on_both<T>(f: impl Fn() -> T) -> (T, T) {
    (with_device(Device::Cpu, &f), with_device(PAR, &f))
}

/// Assert the op gives bit-identical tensors on both devices.
fn bit_equal(label: &str, f: impl Fn() -> Tensor) {
    let (c, p) = on_both(f);
    assert_eq!(c.shape(), p.shape(), "{label}: shape mismatch");
    assert_eq!(c.as_slice(), p.as_slice(), "{label}: data mismatch");
}

/// Assert the op agrees on both devices to 1e-6.
fn close(label: &str, f: impl Fn() -> Tensor) {
    let (c, p) = on_both(f);
    assert_eq!(c.shape(), p.shape(), "{label}: shape mismatch");
    assert!(c.allclose(&p, 1e-6), "{label}: beyond 1e-6");
}

fn scalar_equal(label: &str, f: impl Fn() -> f32) {
    let (c, p) = on_both(f);
    assert!(
        c == p || (c.is_nan() && p.is_nan()),
        "{label}: {c} != {p}"
    );
}

/// Deterministic random tensor.
fn rnd(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(shape, -2.0, 2.0, &mut rng)
}

/// Deterministic random tensor big enough to clear PARALLEL_THRESHOLD.
fn big(shape: &[usize], seed: u64) -> Tensor {
    let t = rnd(shape, seed);
    assert!(
        t.len() >= PARALLEL_THRESHOLD,
        "test tensor too small to exercise the pool"
    );
    t
}

fn nchw() -> impl Strategy<Value = Tensor> {
    (1usize..=3, 1usize..=3, 2usize..=7, 2usize..=7).prop_flat_map(|(b, c, h, w)| {
        proptest::collection::vec(-2.0f32..2.0f32, b * c * h * w)
            .prop_map(move |data| Tensor::from_vec(data, &[b, c, h, w]))
    })
}

fn matrix() -> impl Strategy<Value = Tensor> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0f32, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]))
    })
}

// ---------------------------------------------------------- elementwise

#[test]
fn big_elementwise_unary_parity() {
    let x = big(&[40_000], 1).abs().add_scalar(0.1); // positive for sqrt/ln
    bit_equal("map", || x.map(|v| v * 3.0 - 1.0));
    bit_equal("map_inplace", || {
        let mut t = x.clone();
        t.map_inplace(|v| v * 0.5);
        t
    });
    bit_equal("add_scalar", || x.add_scalar(2.5));
    bit_equal("mul_scalar", || x.mul_scalar(-1.5));
    bit_equal("neg", || x.neg());
    bit_equal("abs", || x.neg().abs());
    bit_equal("sqrt", || x.sqrt());
    bit_equal("exp", || x.exp());
    bit_equal("ln", || x.ln());
    bit_equal("square", || x.square());
    bit_equal("recip", || x.recip());
    bit_equal("powi", || x.powi(3));
    bit_equal("relu", || x.add_scalar(-1.0).relu());
    bit_equal("sigmoid", || x.sigmoid());
    bit_equal("tanh", || x.tanh());
    bit_equal("clamp", || x.clamp(0.2, 1.7));
    bit_equal("softmax_lastdim", || {
        x.reshape(&[100, 400]).softmax_lastdim()
    });
    bit_equal("log_softmax_lastdim", || {
        x.reshape(&[100, 400]).log_softmax_lastdim()
    });
}

#[test]
fn big_elementwise_binary_parity() {
    let x = big(&[40_000], 2);
    let y = big(&[40_000], 3).abs().add_scalar(0.1); // non-zero divisor
    bit_equal("add", || x.add(&y));
    bit_equal("sub", || x.sub(&y));
    bit_equal("mul", || x.mul(&y));
    bit_equal("div", || x.div(&y));
    bit_equal("maximum", || x.maximum(&y));
    bit_equal("minimum", || x.minimum(&y));
    bit_equal("gt_mask", || x.gt_mask(&y));
    bit_equal("add_assign", || {
        let mut t = x.clone();
        t.add_assign(&y);
        t
    });
}

#[test]
fn big_broadcast_parity() {
    let x = big(&[32, 25, 40], 4);
    let row = rnd(&[1, 1, 40], 5);
    bit_equal("zip_broadcast", || zip_broadcast(&x, &row, |a, b| a + b));
    close("reduce_to_shape", || reduce_to_shape(&x, &[1, 1, 40]));
    close("reduce_to_shape scalar", || reduce_to_shape(&x, &[1]));
}

// ------------------------------------------------------------ reductions

#[test]
fn big_reduction_parity() {
    let x = big(&[64, 25, 20], 6);
    scalar_equal("sum", || x.sum());
    scalar_equal("mean", || x.mean());
    scalar_equal("max", || x.max());
    scalar_equal("min", || x.min());
    scalar_equal("variance", || x.variance());
    scalar_equal("argmax", || x.argmax() as f32);
    for axis in 0..3 {
        bit_equal("sum_axis", || x.sum_axis(axis));
        bit_equal("sum_axis_keepdim", || x.sum_axis_keepdim(axis));
        bit_equal("mean_axis", || x.mean_axis(axis));
        bit_equal("max_axis", || x.max_axis(axis));
    }
    let m = x.reshape(&[64, 500]);
    let (c, p) = on_both(|| m.argmax_rows());
    assert_eq!(c, p, "argmax_rows");
}

/// Narrow axis reductions (`inner < 8`) fold several outer rows side by
/// side; each output element must still be the plain sequential fold
/// along the axis, bit for bit, on both devices — for outer counts that
/// are and are not multiples of the interleave, below and above
/// `PARALLEL_THRESHOLD`.
#[test]
fn narrow_axis_reductions_equal_the_sequential_loop() {
    for (i, &(outer, n, inner)) in [
        (256, 252, 1),
        (13, 40, 3),
        (37, 600, 7),
        (9, 3, 1),
        (1, 5, 7),
    ]
    .iter()
    .enumerate()
    {
        let x = rnd(&[outer, n, inner], 40 + i as u64);
        let fold = |init: f32, f: fn(f32, f32) -> f32| {
            let data = x.as_slice();
            let out: Vec<f32> = (0..outer * inner)
                .map(|oj| {
                    (0..n).fold(init, |acc, k| {
                        f(acc, data[(oj / inner * n + k) * inner + oj % inner])
                    })
                })
                .collect();
            Tensor::from_vec(out, &[outer, inner])
        };
        let (sum, max) = (fold(0.0, |a, v| a + v), fold(f32::NEG_INFINITY, f32::max));
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for device in [Device::Cpu, PAR] {
            let (s, m) = with_device(device, || (x.sum_axis(1), x.max_axis(1)));
            assert_eq!(
                bits(&s),
                bits(&sum),
                "sum_axis {device:?} [{outer}, {n}, {inner}]"
            );
            assert_eq!(
                bits(&m),
                bits(&max),
                "max_axis {device:?} [{outer}, {n}, {inner}]"
            );
        }
    }
}

// --------------------------------------------------------------- linalg

#[test]
fn big_matmul_parity() {
    let a = big(&[96, 180], 7);
    let b = big(&[180, 96], 8);
    close("matmul", || a.matmul(&b));
    close("matmul_naive", || matmul_naive(&a, &b));
    let v = big(&[17_280], 9);
    scalar_equal("dot", || v.dot(&v));
}

// ----------------------------------------------------------- conv family

#[test]
fn big_conv_parity() {
    let x = big(&[4, 3, 40, 40], 10);
    let w = Tensor::rand_uniform(&[8, 3, 3, 3], -1.0, 1.0, &mut StdRng::seed_from_u64(11));
    let bias = Tensor::rand_uniform(&[8], -1.0, 1.0, &mut StdRng::seed_from_u64(12));
    close("conv2d", || conv2d(&x, &w, Some(&bias), 1, 1));
    close("conv2d stride2 nopad", || conv2d(&x, &w, None, 2, 0));
    close("conv2d_naive", || conv2d_naive(&x, &w, Some(&bias), 1, 1));
    let wt = Tensor::rand_uniform(&[3, 8, 3, 3], -1.0, 1.0, &mut StdRng::seed_from_u64(13));
    close("conv_transpose2d", || {
        conv_transpose2d(&x, &wt, Some(&bias), 2, 1)
    });
    bit_equal("im2col", || im2col(&x.index_axis(0, 0), 3, 3, 1, 1));
    let col = im2col(&x.index_axis(0, 0), 3, 3, 1, 1);
    bit_equal("col2im", || col2im(&col, 3, 40, 40, 3, 3, 1, 1));
    bit_equal("upsample_nearest2d", || upsample_nearest2d(&x, 2));
    let g = big(&[4, 3, 80, 80], 14);
    bit_equal("upsample_nearest2d_backward", || {
        upsample_nearest2d_backward(&g, 2)
    });
}

// ---------------------------------------------------------------- pooling

#[test]
fn big_pool_parity() {
    let x = big(&[4, 8, 32, 32], 15);
    bit_equal("maxpool2d", || maxpool2d(&x, 2, 2).0);
    let (pooled, argmax) = maxpool2d(&x, 2, 2);
    let (_, argmax_par) = with_device(PAR, || maxpool2d(&x, 2, 2));
    assert_eq!(argmax, argmax_par, "maxpool2d argmax");
    let g = rnd(&[4, 8, 16, 16], 16);
    assert_eq!(g.shape(), pooled.shape());
    bit_equal("maxpool2d_backward", || {
        maxpool2d_backward(&g, &argmax, x.shape())
    });
    bit_equal("avgpool2d", || avgpool2d(&x, 2, 2));
    bit_equal("avgpool2d_backward", || {
        avgpool2d_backward(&g, 2, 2, x.shape())
    });
    bit_equal("global_avgpool2d", || global_avgpool2d(&x));

    // The general window path: kernel 3, stride 2, windows overlapping.
    let (pooled, argmax) = maxpool2d(&x, 3, 2);
    bit_equal("maxpool2d k3s2", || maxpool2d(&x, 3, 2).0);
    let (_, argmax_par) = with_device(PAR, || maxpool2d(&x, 3, 2));
    assert_eq!(argmax, argmax_par, "maxpool2d k3s2 argmax");
    let g = rnd(pooled.shape(), 18);
    bit_equal("maxpool2d_backward k3s2", || {
        maxpool2d_backward(&g, &argmax, x.shape())
    });
    bit_equal("avgpool2d k3s2", || avgpool2d(&x, 3, 2));
    bit_equal("avgpool2d_backward k3s2", || {
        avgpool2d_backward(&g, 3, 2, x.shape())
    });

    // The argmax-free forward is the same kernel without the index store.
    for (kernel, stride) in [(2, 2), (3, 2)] {
        let (c, p) = on_both(|| {
            (maxpool2d_values(&x, kernel, stride), maxpool2d(&x, kernel, stride).0)
        });
        for (values, full) in [c, p] {
            assert_eq!(values.as_slice(), full.as_slice(), "maxpool2d_values k{kernel}s{stride}");
        }
    }
}

// -------------------------------------------------------------- shape ops

#[test]
fn big_shape_op_parity() {
    let x = big(&[8, 4, 32, 32], 17);
    bit_equal("reshape", || x.reshape(&[32, 1024]));
    bit_equal("flatten", || x.flatten());
    bit_equal("unsqueeze", || x.unsqueeze(2));
    bit_equal("squeeze", || x.unsqueeze(0).squeeze(0));
    bit_equal("transpose", || x.reshape(&[256, 128]).transpose());
    bit_equal("permute", || x.permute(&[2, 0, 3, 1]));
    bit_equal("narrow", || x.narrow(2, 4, 28));
    bit_equal("index_axis", || x.index_axis(0, 3));
    bit_equal("concat", || Tensor::concat(&[&x, &x], 1));
    let a = x.index_axis(0, 0);
    let b = x.index_axis(0, 1);
    bit_equal("stack", || Tensor::stack(&[&a, &b]));
    bit_equal("pad2d", || x.pad2d(2));
    bit_equal("unpad2d", || x.pad2d(3).unpad2d(3));
}

// ---------------------------------------------- small-shape property tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parity_elementwise_any_shape(t in nchw()) {
        bit_equal("relu", || t.relu());
        bit_equal("sigmoid", || t.sigmoid());
        bit_equal("map", || t.map(|v| v.mul_add(2.0, -0.5)));
        scalar_equal("sum", || t.sum());
        scalar_equal("variance", || t.variance());
    }

    #[test]
    fn parity_axis_reduce_any_axis(t in nchw(), axis in 0usize..4) {
        bit_equal("sum_axis", || t.sum_axis(axis));
        bit_equal("max_axis", || t.max_axis(axis));
    }

    #[test]
    fn parity_softmax_any_matrix(m in matrix()) {
        bit_equal("softmax", || m.softmax_lastdim());
        bit_equal("log_softmax", || m.log_softmax_lastdim());
        let (c, p) = on_both(|| m.argmax_rows());
        prop_assert_eq!(c, p);
    }

    #[test]
    fn parity_matmul_any_dims(
        m in 1usize..=6, k in 1usize..=6, n in 1usize..=6, seed in 0u64..1024
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        close("matmul", || a.matmul(&b));
    }

    #[test]
    fn parity_pool_any_nchw(t in nchw()) {
        bit_equal("maxpool k1", || maxpool2d(&t, 1, 1).0);
        bit_equal("avgpool k1", || avgpool2d(&t, 1, 1));
        bit_equal("global_avgpool", || global_avgpool2d(&t));
        if t.shape()[2] >= 2 && t.shape()[3] >= 2 {
            bit_equal("maxpool k2", || maxpool2d(&t, 2, 1).0);
            let (pooled, argmax) = maxpool2d(&t, 2, 2);
            bit_equal("maxpool backward", || {
                maxpool2d_backward(&pooled, &argmax, t.shape())
            });
        }
    }
}
