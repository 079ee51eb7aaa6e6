//! Reference-oracle property tests for the fast kernels.
//!
//! The blocked SIMD matmul (in both operand layouts: `matmul_nt`,
//! `matmul_tn`) and the direct conv kernel, at every stride, are checked
//! against the retained naive kernels (`matmul_naive`, `conv2d_naive`), on
//! both `Device::Cpu` and `Device::Parallel`. The conv gradients and the
//! transposed conv are checked against the materialising
//! `im2col`/`col2im` route.
//!
//! # Why the oracle can demand bit-for-bit equality
//!
//! Random f32 inputs would make the comparison fuzzy: the AVX+FMA
//! microkernel fuses multiply-add rounding, so continuous inputs can
//! diverge from the scalar oracle near cancellations. Instead the main
//! suite draws **lattice inputs** — multiples of 1/16 in [-1, 1]. Every
//! pairwise product is then a multiple of 2⁻⁸ with magnitude ≤ 1, and
//! every partial sum of up to 2¹⁶ such terms is exactly representable
//! in f32. Exact values make *every* accumulation order — blocked,
//! banded, fused, naive — produce the identical bit pattern, so the
//! oracle asserts `to_bits` equality, the strongest possible check
//! (and far inside the ≤ 4-ulp acceptance bound).
//!
//! Where two routes run the *same* products in the *same* order — a
//! transposed-operand product and the product of a transposed copy, or
//! a skinny product and its `Cᵀ = Bᵀ·Aᵀ` orientation — equality is
//! asserted bit for bit on continuous inputs too.
//!
//! Continuous inputs are still covered: a positive-data suite bounds
//! the FMA-vs-scalar divergence at ≤ 4 ulps by keeping the inner
//! dimension ≤ 8 (each fused step can contribute at most half an ulp
//! of the monotone running sum). And what a convolution must guarantee
//! *whatever* the data is asserted bit-for-bit on continuous inputs: a
//! sample's output does not depend on the batch it rode in (batch
//! invariance), nor an output pixel on where its plane ends (crop
//! invariance) — the two properties tiled serving relies on. So is what
//! each conv kernel promises about its arithmetic, rebuilt element by
//! element with one chain builder that fuses exactly when the GEMM
//! microkernel does: the weight gradient is its per-image chain summed in
//! batch order, and the forward, at any stride, is each output's chain
//! from its bias over its taps in `(c, ki, kj)` order.
//!
//! Set `GEOTORCH_KERNEL_SEED` to shift every generated input corpus —
//! CI runs the suite under seeds 1–3.

use geotorch_tensor::ops::conv::{
    col2im, conv2d, conv2d_direct, conv2d_input_grad, conv2d_naive, conv2d_weight_grad,
    conv_transpose2d, im2col, upsample_nearest2d, upsample_nearest2d_backward,
};
use geotorch_tensor::ops::matmul::{
    matmul_naive, simd_kernel_fuses, simd_kernel_name, KC, MC, MR, NC, NR,
};
use geotorch_tensor::ops::pool::{maxpool2d, maxpool2d_values};
use geotorch_tensor::{pool, with_device, Device, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Extra seed mixed into every generated tensor, so CI can re-run the
/// whole corpus under different data (`GEOTORCH_KERNEL_SEED=1..3`).
fn env_seed() -> u64 {
    std::env::var("GEOTORCH_KERNEL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Lattice tensor: i.i.d. multiples of 1/16 in [-1, 1]. See module docs
/// for why sums over these are exact in f32.
fn lattice(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        seed ^ env_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-16i32..=16) as f32 / 16.0).collect();
    Tensor::from_vec(data, shape)
}

/// Continuous positive tensor in [0.25, 1.0] (no cancellation possible).
fn positive(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        seed ^ env_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    Tensor::rand_uniform(shape, 0.25, 1.0, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Monotone integer key: `ulp_key(a) - ulp_key(b)` counts the number of
/// representable f32 values between `a` and `b` (±0 collapse to 0).
fn ulp_key(x: f32) -> i64 {
    let b = x.to_bits() as i32;
    if b < 0 {
        i32::MIN as i64 - b as i64
    } else {
        b as i64
    }
}

fn max_ulp_diff(a: &Tensor, b: &Tensor) -> u64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (ulp_key(x) - ulp_key(y)).unsigned_abs())
        .max()
        .unwrap_or(0)
}

proptest! {
    /// Blocked SIMD matmul vs the naive triple loop on lattice inputs:
    /// bit-for-bit, on both devices. Shapes sweep the tiny-path cutoff
    /// and every MR/NR ragged-tail combination, including K=1.
    #[test]
    fn matmul_lattice_bit_identical(m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..1000) {
        let a = lattice(&[m, k], seed);
        let b = lattice(&[k, n], seed ^ 0xabcd);
        let oracle = matmul_naive(&a, &b);
        let cpu = with_device(Device::Cpu, || a.matmul(&b));
        prop_assert_eq!(bits(&cpu), bits(&oracle), "Cpu mismatch at m={} k={} n={}", m, k, n);
        let par = with_device(Device::parallel(), || a.matmul(&b));
        prop_assert_eq!(bits(&par), bits(&oracle), "Parallel mismatch at m={} k={} n={}", m, k, n);
    }

    /// `A·Bᵀ` and `Aᵀ·B` read in place vs the naive triple loop over
    /// materialised transposes, on lattice inputs: bit-for-bit, on both
    /// devices, across the tiny cutoff, the skinny orientation and every
    /// ragged MR/NR tail.
    #[test]
    fn matmul_nt_tn_lattice_bit_identical(m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..1000) {
        let a = lattice(&[m, k], seed);
        let bt = lattice(&[n, k], seed ^ 0xabcd);
        let at = lattice(&[k, m], seed ^ 0x1234);
        let b = lattice(&[k, n], seed ^ 0x5678);
        let nt_oracle = matmul_naive(&a, &bt.transpose());
        let tn_oracle = matmul_naive(&at.transpose(), &b);
        for device in [Device::Cpu, Device::Parallel(4)] {
            let (nt, tn) = with_device(device, || (a.matmul_nt(&bt), at.matmul_tn(&b)));
            prop_assert_eq!(bits(&nt), bits(&nt_oracle), "A·Bᵀ {:?} at m={} k={} n={}", device, m, k, n);
            prop_assert_eq!(bits(&tn), bits(&tn_oracle), "Aᵀ·B {:?} at m={} k={} n={}", device, m, k, n);
        }
    }

    /// Continuous positive inputs with inner dimension ≤ 8: the fused
    /// microkernel must stay within 4 ulps of the scalar oracle.
    #[test]
    fn matmul_continuous_within_4_ulps(m in 1usize..64, k in 1usize..=8, n in 1usize..64, seed in 0u64..1000) {
        let a = positive(&[m, k], seed);
        let b = positive(&[k, n], seed ^ 0x5eed);
        let oracle = matmul_naive(&a, &b);
        let fast = a.matmul(&b);
        let ulps = max_ulp_diff(&fast, &oracle);
        prop_assert!(ulps <= 4, "{} ulps at m={} k={} n={}", ulps, m, k, n);
    }

    /// The direct kernel, `conv2d` (the direct kernel, every `stride`-th
    /// row and column of it when strided), and the sliding-window naive
    /// reference all agree bit-for-bit on lattice inputs, with bias, across
    /// kernel sizes, strides, and paddings, on both devices.
    #[test]
    fn conv_lattice_bit_identical(
        c in 1usize..8, o in 1usize..10, h in 6usize..12, w in 6usize..12,
        k in 1usize..=5, stride in 1usize..=3, pad in 0usize..=2, seed in 0u64..1000,
    ) {
        let input = lattice(&[2, c, h, w], seed);
        let weight = lattice(&[o, c, k, k], seed ^ 0xbeef);
        let bias = lattice(&[o], seed ^ 0xfeed);
        let oracle = conv2d_naive(&input, &weight, Some(&bias), stride, pad);
        if stride == 1 {
            let direct = conv2d_direct(&input, &weight, Some(&bias), pad);
            prop_assert_eq!(bits(&direct), bits(&oracle), "direct path k={} p={}", k, pad);
        }
        for device in [Device::Cpu, Device::parallel()] {
            let got = with_device(device, || conv2d(&input, &weight, Some(&bias), stride, pad));
            prop_assert_eq!(bits(&got), bits(&oracle), "conv2d {:?} k={} s={} p={}", device, k, stride, pad);
        }
    }

    /// Conv gradients on lattice inputs: the flipped-filter input gradient
    /// and the transposed-view weight gradient are bit-identical to the
    /// materialising `col2im` / `im2col` route, on both devices, for every
    /// kernel size, stride and padding (strided cases take the retained
    /// `col2im` route inside `conv2d_input_grad`, so they pin that too).
    #[test]
    fn conv_grads_lattice_bit_identical(
        b in 1usize..4, c in 1usize..4, o in 1usize..4, h in 6usize..12, w in 6usize..12,
        half in 0usize..=2, stride in 1usize..=2, pad in 0usize..=2,
        seed in 0u64..1000,
    ) {
        let k = 2 * half + 1;
        let x = lattice(&[b, c, h, w], seed);
        let weight = lattice(&[o, c, k, k], seed ^ 0xbeef);
        let g = lattice(conv2d(&x, &weight, None, stride, pad).shape(), seed ^ 0xfeed);
        let (gx_ref, gw_ref) = grads_materialised(&x, &weight, &g, stride, pad);
        for device in [Device::Cpu, Device::parallel()] {
            let (gx, gw) = with_device(device, || (
                conv2d_input_grad(&g, &weight, (h, w), stride, pad),
                conv2d_weight_grad(&x, &g, (k, k), stride, pad),
            ));
            prop_assert_eq!(bits(&gx), bits(&gx_ref), "input grad {:?} k={} s={} p={}", device, k, stride, pad);
            prop_assert_eq!(bits(&gw), bits(&gw_ref), "weight grad {:?} k={} s={} p={}", device, k, stride, pad);
        }
    }

    /// The same gradients on continuous positive inputs. The weight
    /// gradient sums the same products in the same order as the
    /// materialising route (only FMA contraction can differ): ≤ 4 ulps.
    /// The input gradient is one chain over `(o, ki, kj)` where the old
    /// route summed over `o` per tap and then over taps, so the two are
    /// different roundings of the same sum: ≤ 4 ulps apart up to 9 terms,
    /// and measured up to 8 apart (each within 7 of the exact sum) at 75.
    #[test]
    fn conv_grads_continuous_within_ulp_bounds(
        b in 1usize..3, c in 1usize..3, o in 1usize..=3, h in 5usize..8, w in 5usize..8,
        half in 0usize..=2, pad in 0usize..=2, seed in 0u64..1000,
    ) {
        let k = 2 * half + 1;
        let x = positive(&[b, c, h, w], seed);
        let weight = positive(&[o, c, k, k], seed ^ 0xbeef);
        let g = positive(conv2d(&x, &weight, None, 1, pad).shape(), seed ^ 0xfeed);
        let (gx_ref, gw_ref) = grads_materialised(&x, &weight, &g, 1, pad);
        let gw = conv2d_weight_grad(&x, &g, (k, k), 1, pad);
        prop_assert!(max_ulp_diff(&gw, &gw_ref) <= 4, "weight grad {} ulps k={} p={}", max_ulp_diff(&gw, &gw_ref), k, pad);
        let gx = conv2d_input_grad(&g, &weight, (h, w), 1, pad);
        let bound = if o * k * k <= 9 { 4 } else { 16 };
        prop_assert!(max_ulp_diff(&gx, &gx_ref) <= bound, "input grad {} ulps o={} k={} p={}", max_ulp_diff(&gx, &gx_ref), o, k, pad);
    }
}

/// Conv gradients by the materialising route: per image, `col2im(Wᵀ·g)`
/// for the input ([`input_grad_materialised`]) and `g · im2col(x)ᵀ` for
/// the weight, the latter summed over the batch in index order.
fn grads_materialised(
    x: &Tensor,
    weight: &Tensor,
    g: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    let (h, w) = (x.shape()[2], x.shape()[3]);
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let mut gw = Tensor::zeros(&[o, weight.shape()[1] * kh * kw]);
    for bi in 0..x.shape()[0] {
        let g_mat = g.index_axis(0, bi).reshape(&[o, g.shape()[2] * g.shape()[3]]);
        gw.add_assign(&g_mat.matmul(&im2col(&x.index_axis(0, bi), kh, kw, stride, pad).transpose()));
    }
    (
        input_grad_materialised(weight, g, (h, w), stride, pad),
        gw.reshape(weight.shape()),
    )
}

/// The input gradient of a conv by `weight [O,C,kh,kw]` over an `h × w`
/// input, materialised: per image, `col2im(Wᵀ·g)`.
fn input_grad_materialised(
    weight: &Tensor,
    g: &Tensor,
    (h, w): (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let &[o, c, kh, kw] = weight.shape() else {
        panic!("conv weight must be [O,C,kh,kw]")
    };
    let w_mat_t = weight.reshape(&[o, c * kh * kw]).transpose();
    let gx: Vec<Tensor> = (0..g.shape()[0])
        .map(|bi| {
            let g_mat = g
                .index_axis(0, bi)
                .reshape(&[o, g.shape()[2] * g.shape()[3]]);
            col2im(&w_mat_t.matmul(&g_mat), c, h, w, kh, kw, stride, pad)
        })
        .collect();
    Tensor::stack(&gx.iter().collect::<Vec<_>>())
}

/// The strided transposed conv is the materialised input gradient plus its
/// bias, bit for bit on continuous inputs: per image `col2im(Wᵀ·x)`, then
/// `+ bias` per output channel. FCN's 2×2 stride-2 upsampler and a 3×3
/// stride-2 pad-1 one, and a 3×3 stride 3, on odd extents, on `Cpu` and
/// `Parallel(4)`.
#[test]
fn strided_conv_transpose_equals_col2im_plus_bias_on_continuous_inputs() {
    // (b, c, o, h, w, k, stride, pad)
    let shapes = [
        (2, 3, 3, 5, 7, 2, 2, 0),
        (1, 21, 21, 9, 11, 2, 2, 0),
        (2, 4, 5, 7, 9, 3, 2, 1),
        (3, 2, 6, 5, 3, 3, 2, 1),
        (2, 3, 2, 4, 5, 3, 3, 0),
    ];
    for (si, (b, c, o, h, w, k, stride, pad)) in shapes.into_iter().enumerate() {
        let x = continuous(&[b, c, h, w], 9000 + si as u64);
        let weight = continuous(&[c, o, k, k], 9100 + si as u64);
        let bias = continuous(&[o], 9200 + si as u64);
        let out_hw = (
            (h - 1) * stride + k - 2 * pad,
            (w - 1) * stride + k - 2 * pad,
        );
        let mut want = input_grad_materialised(&weight, &x, out_hw, stride, pad)
            .as_slice()
            .to_vec();
        for (p, plane) in want.chunks_exact_mut(out_hw.0 * out_hw.1).enumerate() {
            plane.iter_mut().for_each(|v| *v += bias.as_slice()[p % o]);
        }
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        for device in [Device::Cpu, Device::Parallel(4)] {
            let got = with_device(device, || {
                conv_transpose2d(&x, &weight, Some(&bias), stride, pad)
            });
            assert_eq!(got.shape(), &[b, o, out_hw.0, out_hw.1]);
            assert_eq!(
                bits(&got),
                want,
                "{b}x{c}->{o} at {h}x{w} k={k} s={stride} p={pad} on {device:?}"
            );
        }
    }
}

/// Continuous tensor in [-1, 1]: cancellation and every rounding mode of
/// the fused kernels are in play, so only exact invariances can hold.
fn continuous(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        seed ^ env_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
}

/// Batch invariance on continuous inputs: sample `i` of a batched conv
/// is bit-identical to the conv of sample `i` alone, for every batch
/// size, on both devices, and sample 0 is its tap chain. The shapes cover
/// the direct kernel below and above `CONV_PARALLEL_FLOPS` (one task per
/// image), the unpadded 1×1, and strided convs below and above it.
#[test]
fn conv_batch_invariant_on_continuous_inputs() {
    // (c, o, h, w, k, stride, pad)
    let shapes = [
        (16, 16, 21, 12, 3, 1, 1), // DeepSTN+
        (3, 5, 9, 7, 3, 1, 1),     // small: stays serial
        (8, 6, 20, 20, 1, 1, 0),   // the unpadded 1×1
        (4, 6, 17, 19, 5, 2, 2),   // strided
        (4, 4, 48, 48, 3, 1, 1),   // the tile UNet's first level
        (16, 16, 42, 24, 3, 2, 1), // strided, one task per image
    ];
    for (si, &(c, o, h, w, k, stride, pad)) in shapes.iter().enumerate() {
        let weight = continuous(&[o, c, k, k], 40 + si as u64);
        let bias = continuous(&[o], 50 + si as u64);
        let x = continuous(&[8, c, h, w], 60 + si as u64);
        let alone: Vec<Tensor> = (0..8)
            .map(|i| conv2d(&x.narrow(0, i, i + 1), &weight, Some(&bias), stride, pad))
            .collect();
        let chained = conv_reference(&x.narrow(0, 0, 1), &weight, &bias, stride, pad);
        assert_eq!(
            bits(&alone[0]),
            bits(&chained),
            "shape {si} is not its tap chain"
        );
        for device in [Device::Cpu, Device::Parallel(4)] {
            for b in [1, 2, 4, 8] {
                let batched = with_device(device, || conv2d(&x.narrow(0, 0, b), &weight, Some(&bias), stride, pad));
                for (i, single) in alone.iter().enumerate().take(b) {
                    assert_eq!(
                        bits(&batched.narrow(0, i, i + 1)),
                        bits(single),
                        "sample {i} of batch {b} differs on {device:?} at shape {si}"
                    );
                }
            }
        }
    }
}

/// Crop invariance on continuous inputs, at 3×3, 5×5 and the unpadded
/// 1×1: away from the crop's own zero halo, convolving a window of the
/// image gives exactly the window of the convolved image — whether or not
/// the cropped plane's width is a multiple of a direct strip. This is what
/// makes a tiled forward equal the unsplit one.
#[test]
fn conv_crop_invariant_on_continuous_inputs() {
    let (h, w) = (30, 44);
    // (c, o, k, pad): 3×3 and 5×5, the unpadded 1×1, 3→4.
    for (si, (c, o, k, pad)) in [(5, 7, 3, 1), (5, 7, 5, 2), (5, 7, 1, 0), (3, 4, 3, 1)].into_iter().enumerate() {
        let x = continuous(&[1, c, h, w], 70 + si as u64);
        let weight = continuous(&[o, c, k, k], 80 + si as u64);
        let bias = continuous(&[o], 90 + si as u64);
        let whole = conv2d(&x, &weight, Some(&bias), 1, pad);
        for (r0, c0, ch, cw) in [(0, 0, 16, NR), (3, 5, 20, 2 * NR), (7, 1, 11, NR + 5), (9, 13, 21, 2 * NR - 3)] {
            let window = x.narrow(2, r0, r0 + ch).narrow(3, c0, c0 + cw);
            let tile = conv2d(&window, &weight, Some(&bias), 1, pad);
            let inner = |t: &Tensor, top: usize, left: usize| {
                t.narrow(2, top + pad, top + ch - pad).narrow(3, left + pad, left + cw - pad)
            };
            assert_eq!(
                bits(&inner(&tile, 0, 0)),
                bits(&inner(&whole, r0, c0)),
                "c={c} o={o} k={k}: the {ch}x{cw} crop at ({r0},{c0}) is not the crop of the conv"
            );
        }
    }
}

/// Shapes chosen to cross every blocking boundary: MC/KC/NC block edges,
/// ragged MR/NR tails, K=1, single-row/column extremes. Lattice inputs,
/// bit-for-bit against the oracle on both devices.
#[test]
fn matmul_block_edges_bit_identical() {
    let shapes = [
        (MC + 1, KC + 3, NR + 1),     // crosses MC and KC, ragged NR tail
        (MC, KC, NC.min(96)),         // exact block multiples
        (MR + 1, 1, NR + 1),          // K = 1 with ragged tails
        (1, KC + 1, 1),               // single row and column across KC
        (2 * MC + 5, 7, NR - 1),      // tall and narrow, sub-NR width
        (MR, KC + KC + 1, NR),        // exactly one full tile, 3 K-panels
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let a = lattice(&[m, k], 100 + i as u64);
        let b = lattice(&[k, n], 200 + i as u64);
        let oracle = matmul_naive(&a, &b);
        for device in [Device::Cpu, Device::parallel()] {
            let got = with_device(device, || a.matmul(&b));
            assert_eq!(
                bits(&got),
                bits(&oracle),
                "mismatch on {device:?} at m={m} k={k} n={n}"
            );
        }
    }
}

/// The layout-reading products on *continuous* inputs: `a.matmul_nt(b)`
/// is bit-identical to `a.matmul(&b.transpose())` and `a.matmul_tn(b)`
/// to `a.transpose().matmul(&b)` — same per-element order, so equality,
/// not ulps. The sweep crosses the tiny cutoff, the skinny orientation
/// (`n < NR ≤ m`, computed as `Cᵀ = Bᵀ·Aᵀ`), ragged tiles, a `KC` panel
/// edge and, on `Parallel(4)`, the split of `C` into row bands.
#[test]
fn matmul_nt_tn_equal_transposed_copies_on_continuous_inputs() {
    let sizes = [1, 2, 4, 5, MR, NR - 1, NR + 1, 64, 130];
    let mut case = 0u64;
    for &m in &sizes {
        for &n in &sizes {
            for k in [1, 4, 64, KC + 5] {
                case += 1;
                let a = continuous(&[m, k], 300 + case);
                let bt = continuous(&[n, k], 400 + case);
                let at = continuous(&[k, m], 500 + case);
                let b = continuous(&[k, n], 600 + case);
                for device in [Device::Cpu, Device::Parallel(4)] {
                    with_device(device, || {
                        let want = a.matmul(&bt.transpose());
                        assert_eq!(bits(&a.matmul_nt(&bt)), bits(&want), "A·Bᵀ {device:?} m={m} k={k} n={n}");
                        let want = at.transpose().matmul(&b);
                        assert_eq!(bits(&at.matmul_tn(&b)), bits(&want), "Aᵀ·B {device:?} m={m} k={k} n={n}");
                    });
                }
            }
        }
    }
}

/// The skinny orientation is the same arithmetic as the direct one:
/// both halves of a product that straddles the rule agree bit for bit
/// with the oracle on lattice inputs, whichever operand layout.
#[test]
fn matmul_skinny_orientation_bit_identical() {
    for (i, &(m, k, n)) in [(512, 64, 1), (64, 512, 4), (130, KC + 5, NR - 1), (NR, 300, 2)].iter().enumerate() {
        let a = lattice(&[m, k], 700 + i as u64);
        let b = lattice(&[k, n], 800 + i as u64);
        let oracle = bits(&matmul_naive(&a, &b));
        for device in [Device::Cpu, Device::Parallel(4)] {
            with_device(device, || {
                assert_eq!(bits(&a.matmul(&b)), oracle, "A·B {device:?} m={m} k={k} n={n}");
                assert_eq!(bits(&a.matmul_nt(&b.transpose())), oracle, "A·Bᵀ {device:?} m={m} k={k} n={n}");
                assert_eq!(bits(&a.transpose().matmul_tn(&b)), oracle, "Aᵀ·B {device:?} m={m} k={k} n={n}");
            });
        }
    }
    // Continuous inputs: fewer than NR rows keep the direct orientation,
    // the whole product takes the skinny one — the same bits per element.
    for n in [1, NR - 1] {
        let a = continuous(&[130, 1200], 900 + n as u64);
        let b = continuous(&[1200, n], 950 + n as u64);
        let whole = a.matmul(&b);
        for r0 in [0, 7, 130 - (NR - 1)] {
            let rows = a.narrow(0, r0, r0 + NR - 1).matmul(&b);
            assert_eq!(bits(&rows), bits(&whole.narrow(0, r0, r0 + NR - 1)), "n={n} rows {r0}..");
        }
    }
}

/// A product large enough to cross `GEMM_PARALLEL_FLOPS`, so the
/// Parallel device genuinely band-splits across the worker pool — and
/// must still be bit-identical to the serial blocked kernel and oracle.
#[test]
fn matmul_parallel_band_split_bit_identical() {
    let a = lattice(&[300, 129], 7);
    let b = lattice(&[129, 200], 8);
    let oracle = matmul_naive(&a, &b);
    let cpu = with_device(Device::Cpu, || a.matmul(&b));
    let par = with_device(Device::parallel(), || a.matmul(&b));
    assert_eq!(bits(&cpu), bits(&oracle));
    assert_eq!(bits(&par), bits(&oracle));
}

/// A 3×3 conv (the direct path) whose 48×48 plane crosses
/// `CONV_PARALLEL_FLOPS`, so it fans out over image tasks.
#[test]
fn conv_parallel_planes_bit_identical() {
    let input = lattice(&[2, 8, 48, 48], 21);
    let weight = lattice(&[4, 8, 3, 3], 22);
    let bias = lattice(&[4], 23);
    let serial = conv2d_direct(&input, &weight, Some(&bias), 1);
    let cpu = with_device(Device::Cpu, || conv2d(&input, &weight, Some(&bias), 1, 1));
    let par = with_device(Device::parallel(), || conv2d(&input, &weight, Some(&bias), 1, 1));
    assert_eq!(bits(&cpu), bits(&serial), "conv2d is the direct kernel");
    assert_eq!(bits(&cpu), bits(&par));
}

/// The 1×1/stride-1/no-pad conv (every pointwise head: UNet's, FCN's,
/// ConvLSTM's) runs the direct kernel with a one-tap chain; it must
/// match the naive reference exactly on lattice inputs.
#[test]
fn conv_one_by_one_implicit_gemm_bit_identical() {
    let input = lattice(&[3, 5, 9, 9], 31);
    let weight = lattice(&[7, 5, 1, 1], 32);
    let bias = lattice(&[7], 33);
    let oracle = conv2d_naive(&input, &weight, Some(&bias), 1, 0);
    for device in [Device::Cpu, Device::parallel()] {
        let got = with_device(device, || conv2d(&input, &weight, Some(&bias), 1, 0));
        assert_eq!(bits(&got), bits(&oracle), "1x1 mismatch on {device:?}");
    }
}

/// One multiply-add chain from `init` over `terms` in order, fused exactly
/// when the detected tier fuses (both AVX tiers): the arithmetic of every
/// conv output element and of every weight-gradient slab element.
fn chain(init: f32, terms: impl IntoIterator<Item = (f32, f32)>) -> f32 {
    let fused = simd_kernel_fuses();
    terms.into_iter().fold(init, |acc, (a, b)| {
        if fused {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    })
}

/// A convolution rebuilt element by element: output `(b, o, oi, oj)` is
/// the [`chain`] from its bias over `w · x` for taps `(c, ki, kj)` in
/// order, the halo reading as `+0`. `conv2d` computes exactly this.
fn conv_reference(x: &Tensor, weight: &Tensor, bias: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (b, c) = (x.shape()[0], x.shape()[1]);
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let padded = x.pad2d(pad);
    let (ph, pw) = (padded.shape()[2], padded.shape()[3]);
    let (oh, ow) = ((ph - kh) / stride + 1, (pw - kw) / stride + 1);
    let (xs, ws, taps) = (padded.as_slice(), weight.as_slice(), c * kh * kw);
    let mut out = Vec::with_capacity(b * o * oh * ow);
    for i in 0..b * o * oh * ow {
        let (bi, oc, oi, oj) = (i / (o * oh * ow), i / (oh * ow) % o, i / ow % oh, i % ow);
        let terms = (0..taps).map(|t| {
            let (ic, ki, kj) = (t / (kh * kw), t / kw % kh, t % kw);
            let at = ((bi * c + ic) * ph + oi * stride + ki) * pw + oj * stride + kj;
            (ws[oc * taps + t], xs[at])
        });
        out.push(chain(bias.as_slice()[oc], terms));
    }
    Tensor::from_vec(out, &[b, o, oh, ow])
}

/// The weight gradient's arithmetic rebuilt element by element: per
/// image, `gw_b[o][t]` is one [`chain`] over the plane's pixels in order
/// from `+0`, and the per-image slabs are summed in batch order (`gw_0`,
/// then `+= gw_1`, …). That is what summing `g_b.matmul_nt(&im2col(x_b))`
/// over the batch computes, on the packed path and below `matmul`'s
/// tiny-product cutoff alike; it is spelled out so the reference shares
/// no code with the GEMM it checks.
fn weight_grad_reference(x: &Tensor, g: &Tensor, k: usize, stride: usize, pad: usize) -> Tensor {
    let (c, o) = (x.shape()[1], g.shape()[1]);
    let mut gw: Option<Vec<f32>> = None;
    for bi in 0..x.shape()[0] {
        let col = im2col(&x.index_axis(0, bi), k, k, stride, pad);
        let (taps, plane) = (col.shape()[0], col.shape()[1]);
        let g_b = g.index_axis(0, bi);
        let part = (0..o * taps).map(|i| {
            let g_row = &g_b.as_slice()[i / taps * plane..][..plane];
            let col_row = &col.as_slice()[i % taps * plane..][..plane];
            chain(0.0, g_row.iter().copied().zip(col_row.iter().copied()))
        });
        gw = Some(match gw {
            None => part.collect(),
            Some(mut sum) => {
                sum.iter_mut().zip(part).for_each(|(s, p)| *s += p);
                sum
            }
        });
    }
    Tensor::from_vec(
        gw.unwrap_or_else(|| vec![0.0; o * c * k * k]),
        &[o, c, k, k],
    )
}

/// The weight gradient on continuous inputs is the per-image chain above,
/// bit for bit, on `Cpu` and `Parallel(4)`: for DeepSTN+'s and the tile
/// UNet's filter banks at planes 21×12, 7×5 and 1×1 and at 128² with one
/// image (where an image's blocks split across threads); for every input
/// width in {1, 7, 8, 9, 17, 24, 32} — a kernel row's taps filling part
/// of a vector, one, or spilling one lane past it — against every filter
/// count in {1, 2, 5, 7, 13, 16, 32}, at 3×3 on a batch-3 plane deeper
/// than `KC` (23×13) and, in turn, a 1×1 at pad 0, a 5×5 at pad 2 or a
/// 3×3 at stride 2; and 4→6 at stride 2 on an odd 3×17×19 batch.
#[test]
fn weight_grad_equals_the_per_image_chain_on_continuous_inputs() {
    let banks = [(16, 16), (16, 2), (6, 16), (2, 16), (3, 4), (4, 4), (12, 4)];
    let planes = [(3, 21, 12), (3, 7, 5), (3, 1, 1), (1, 128, 128)];
    // (c, o, (b, h, w), (k, stride, pad))
    let models = banks
        .iter()
        .flat_map(|&(c, o)| planes.iter().map(move |&p| (c, o, p, (3, 1, 1))));
    let kernels = [(1, 1, 0), (5, 1, 2), (3, 2, 1)];
    let widths = [1, 7, 8, 9, 17, 24, 32];
    let filters = [1, 2, 5, 7, 13, 16, 32];
    let lanes = widths.iter().flat_map(|&c| filters.iter().map(move |&o| (c, o)));
    let lanes = lanes.enumerate().flat_map(|(i, (c, o))| {
        [(c, o, (3, 23, 13), (3, 1, 1)), (c, o, (2, 9, 11), kernels[i % 3])]
    });
    const { assert!(23 * 13 > KC, "the deep plane spans two KC blocks") };
    let strided = (4, 6, (3, 17, 19), (3, 2, 1));
    let cases = models.chain([strided]).chain(lanes);
    for (i, (c, o, (b, h, w), (k, stride, pad))) in cases.enumerate() {
        let x = continuous(&[b, c, h, w], 1000 + i as u64);
        let (oh, ow) = ((h + 2 * pad - k) / stride + 1, (w + 2 * pad - k) / stride + 1);
        let g = continuous(&[b, o, oh, ow], 2000 + i as u64);
        let want = bits(&weight_grad_reference(&x, &g, k, stride, pad));
        for device in [Device::Cpu, Device::Parallel(4)] {
            let got = with_device(device, || conv2d_weight_grad(&x, &g, (k, k), stride, pad));
            assert_eq!(
                bits(&got),
                want,
                "{c}->{o} at {b}x{h}x{w}, {k}x{k} stride {stride} pad {pad} on {device:?}"
            );
        }
    }
}

/// The direct kernel is each output's tap chain ([`conv_reference`]), bit
/// for bit on continuous inputs: for every 3×3 filter bank from 1–17, 24
/// and 32 channels to 1–17, 24 and 32 filters — every split of the output
/// channels into register blocks of six and its remainder, DeepSTN+'s and
/// SatCNN's banks among them — on every one of 1-wide, odd-width and
/// DeepSTN+ planes and batch-1 planes of the pipeline's 16×12 grid and
/// SatCNN's 8×8 layer, with bias. Then on `Cpu` and `Parallel(4)` (one
/// task per image): the tile UNet's, DeepSTN+'s and SatCNN's
/// banks at their own planes and batch sizes, up to 128²; 1-wide, 1-tall
/// and odd planes; 3×3 at pad 0 and 2, 5×5, the unpadded and the padded
/// 1×1; and strided convs, 1×1 and 1-wide planes among them.
#[test]
fn direct_kernel_equals_the_tap_chain_for_every_filter_bank() {
    let planes = [(2, 5, 1), (1, 7, 5), (2, 9, 13), (3, 21, 12), (1, 16, 12), (1, 8, 8)];
    let widths = || (1..=17).chain([24, 32]);
    let banks = widths().flat_map(|c| widths().map(move |o| (c, o)));
    let sweep = banks.flat_map(|(c, o)| planes.map(|p| (c, o, p)));
    for (case, (c, o, (b, h, w))) in sweep.enumerate() {
        let case = case as u64;
        let x = continuous(&[b, c, h, w], 3000 + case);
        let weight = continuous(&[o, c, 3, 3], 4000 + case);
        let bias = continuous(&[o], 5000 + case);
        let want = bits(&conv_reference(&x, &weight, &bias, 1, 1));
        assert_eq!(
            bits(&conv2d(&x, &weight, Some(&bias), 1, 1)),
            want,
            "{c}->{o} at {b}x{h}x{w}"
        );
    }
    // (b, c, o, h, w, k, stride, pad)
    let shapes = [
        (1, 4, 8, 64, 64, 3, 1, 1),
        (1, 8, 8, 64, 64, 3, 1, 1),
        (1, 24, 8, 64, 64, 3, 1, 1),
        (1, 16, 16, 32, 32, 3, 1, 1),
        (16, 16, 16, 21, 12, 3, 1, 1),
        (16, 6, 16, 21, 12, 3, 1, 1),
        (1, 32, 32, 16, 16, 3, 1, 1),
        (4, 3, 16, 32, 32, 3, 1, 1),
        (1, 4, 4, 128, 128, 3, 1, 1),
        (2, 3, 2, 128, 128, 3, 1, 1),
        (1, 12, 4, 128, 128, 3, 1, 1),
        (1, 4, 8, 128, 128, 3, 1, 1),
        (2, 3, 7, 9, 13, 3, 1, 1),
        (2, 5, 3, 7, 1, 3, 1, 1),
        (1, 2, 9, 1, 5, 3, 1, 2),
        (3, 3, 6, 11, 9, 3, 1, 0),
        (2, 4, 3, 11, 6, 3, 1, 0),
        (2, 4, 5, 8, 7, 3, 1, 2),
        (2, 3, 4, 9, 7, 5, 1, 2),
        (2, 2, 5, 11, 6, 5, 1, 2),
        (2, 1, 7, 11, 6, 5, 1, 1),
        (2, 3, 2, 11, 6, 1, 1, 0),
        (2, 3, 2, 6, 6, 1, 1, 1),
        (2, 3, 4, 11, 6, 1, 1, 1),
        (2, 4, 6, 17, 19, 3, 2, 1),
        (1, 3, 5, 9, 1, 3, 2, 1),
        (3, 5, 7, 8, 9, 1, 2, 0),
        (2, 3, 4, 11, 12, 5, 3, 2),
        (1, 8, 8, 128, 128, 3, 2, 1),
    ];
    for (i, (b, c, o, h, w, k, stride, pad)) in shapes.into_iter().enumerate() {
        let x = continuous(&[b, c, h, w], 6000 + i as u64);
        let (weight, bias) = (
            continuous(&[o, c, k, k], 6100 + i as u64),
            continuous(&[o], 6200 + i as u64),
        );
        let want = bits(&conv_reference(&x, &weight, &bias, stride, pad));
        for device in [Device::Cpu, Device::Parallel(4)] {
            let got = with_device(device, || conv2d(&x, &weight, Some(&bias), stride, pad));
            assert_eq!(
                bits(&got),
                want,
                "{b}x{c}->{o} at {h}x{w} k={k} s={stride} pad={pad} on {device:?}"
            );
        }
    }
}

/// A dense (`Linear`) layer's output row does not depend on its batch:
/// row `i` of `x · Wᵀ` is its [`chain`] from `+0` over `k` in order, bit
/// for bit on continuous inputs, whether the product falls below
/// `matmul`'s tiny-product cutoff (batch 1: `10 · 128` MACs) or runs on
/// the packed kernel (batch 16, the skinny `Cᵀ = Bᵀ·Aᵀ` orientation).
#[test]
fn dense_layer_rows_are_batch_invariant_across_the_tiny_cutoff() {
    // (outputs n, inputs k): SatCNN's head, narrow and wide layers.
    for (si, (n, k)) in [(10, 128), (4, 64), (16, 48), (1, 300), (24, 40)].into_iter().enumerate() {
        let w = continuous(&[n, k], 8000 + si as u64);
        let x = continuous(&[16, k], 8100 + si as u64);
        let want: Vec<u32> = (0..16 * n)
            .map(|e| {
                let (xr, wr) = (&x.as_slice()[e / n * k..][..k], &w.as_slice()[e % n * k..][..k]);
                chain(0.0, xr.iter().copied().zip(wr.iter().copied())).to_bits()
            })
            .collect();
        for b in [1, 2, 4, 8, 16] {
            let rows = x.narrow(0, 0, b);
            assert_eq!(bits(&rows.matmul_nt(&w)), want[..b * n], "{n}x{k} nt at batch {b}");
            let wt = w.transpose();
            assert_eq!(bits(&rows.matmul(&wt)), want[..b * n], "{n}x{k} at batch {b}");
        }
    }
}

/// A dense layer at a small batch (`A·Bᵀ` with fewer than `MR` rows past
/// the tiny cutoff, which on the AVX+FMA tier reads the weight rows in
/// place instead of packing them) is the packed kernel's arithmetic: rows
/// of the `m ∈ 1..MR` product equal the same rows of the `m = MR` product
/// bit for bit on continuous inputs, ragged `n` and `k` tails included.
#[test]
fn small_batch_rows_equal_the_packed_rows() {
    let mut case = 0u64;
    for n in [8, 9, 13, 128] {
        for k in [1, 7, 8, 37, 2048, 2049] {
            case += 1;
            let w = continuous(&[n, k], 8200 + case);
            let x = continuous(&[MR, k], 8300 + case);
            let packed = bits(&x.matmul_nt(&w));
            for m in 1..MR {
                let rows = x.narrow(0, 0, m).matmul_nt(&w);
                assert_eq!(
                    bits(&rows),
                    packed[..m * n],
                    "m={m} n={n} k={k} ({})",
                    simd_kernel_name()
                );
            }
        }
    }
}

/// Upsampling is data movement and its adjoint a fixed-order block sum:
/// forward and backward equal an element-by-element reference bit for
/// bit (the backward on continuous data, where order shows), for factors
/// 2 and 3 on non-square planes.
#[test]
fn upsample_equals_the_elementwise_reference() {
    let shapes = [(2, 3, 5, 7, 2), (1, 2, 4, 3, 3), (3, 1, 1, 6, 2), (1, 4, 7, 2, 3)];
    for (si, (b, c, h, w, f)) in shapes.into_iter().enumerate() {
        let x = continuous(&[b, c, h, w], 8200 + si as u64);
        let (oh, ow) = (h * f, w * f);
        let up: Vec<u32> = (0..b * c * oh * ow)
            .map(|e| {
                let (bc, i, j) = (e / (oh * ow), e / ow % oh, e % ow);
                x.as_slice()[(bc * h + i / f) * w + j / f].to_bits()
            })
            .collect();
        assert_eq!(bits(&upsample_nearest2d(&x, f)), up, "forward {b}x{c}x{h}x{w} by {f}");
        let g = continuous(&[b, c, oh, ow], 8300 + si as u64);
        let down: Vec<u32> = (0..b * c * h * w)
            .map(|e| {
                let (bc, i, j) = (e / (h * w), e / w % h, e % w);
                let block = (0..f * f)
                    .map(|t| g.as_slice()[(bc * oh + i * f + t / f) * ow + j * f + t % f]);
                block.fold(0.0f32, |acc, v| acc + v).to_bits()
            })
            .collect();
        let back = upsample_nearest2d_backward(&g, f);
        assert_eq!(bits(&back), down, "backward {b}x{c}x{oh}x{ow} by {f}");
    }
}

/// Max pooling with and without the argmax selects the same values as an
/// element-by-element reference — the first element strictly above every
/// earlier one, from `-inf`: NaN never wins, an all-NaN window is `-inf`,
/// `±inf` are ordinary values — at kernel 2 / stride 2, kernel 3 / stride
/// 2 and kernel 2 / stride 1 on odd extents, on `Cpu` and `Parallel(4)`.
#[test]
fn maxpool_values_equal_the_elementwise_reference() {
    let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    // (b, c, h, w, kernel, stride)
    let shapes = [
        (2, 3, 7, 9, 2, 2),
        (1, 2, 9, 7, 3, 2),
        (2, 2, 5, 6, 2, 1),
        (4, 8, 33, 31, 3, 2),
        (1, 1, 4, 4, 2, 2),
    ];
    for (si, (b, c, h, w, k, s)) in shapes.into_iter().enumerate() {
        let mut x = continuous(&[b, c, h, w], 8400 + si as u64).as_slice().to_vec();
        for (i, v) in x.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = special[i / 5 % special.len()];
            }
        }
        // The first window all NaN.
        (0..k).for_each(|r| x[r * w..][..k].fill(f32::NAN));
        let x = Tensor::from_vec(x, &[b, c, h, w]);
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let want: Vec<u32> = (0..b * c * oh * ow)
            .map(|e| {
                let (bc, oi, oj) = (e / (oh * ow), e / ow % oh, e % ow);
                let mut best = f32::NEG_INFINITY;
                for t in 0..k * k {
                    let v = x.as_slice()[(bc * h + oi * s + t / k) * w + oj * s + t % k];
                    if v > best {
                        best = v;
                    }
                }
                best.to_bits()
            })
            .collect();
        assert_eq!(want[0], f32::NEG_INFINITY.to_bits(), "an all-NaN window pools to -inf");
        for device in [Device::Cpu, Device::Parallel(4)] {
            let (values, (recorded, argmax)) =
                with_device(device, || (maxpool2d_values(&x, k, s), maxpool2d(&x, k, s)));
            assert_eq!(bits(&values), want, "values-only, shape {si} on {device:?}");
            assert_eq!(bits(&recorded), want, "with argmax, shape {si} on {device:?}");
            for (e, &i) in argmax.iter().enumerate().skip(1) {
                assert_eq!(x.as_slice()[i].to_bits(), want[e], "argmax {e}, shape {si}");
            }
        }
    }
}

/// The direct conv zeroes its padded copy's halo and slack itself: run
/// straight after the buffer pool was stocked with NaN-filled vectors of
/// its two allocations' size classes — the padded input (each image
/// followed by 64 slack floats) and the output — it still equals
/// [`conv_reference`] bit for bit: a halo pixel left unwritten would read
/// NaN. One task per image, on `Cpu` and `Parallel(4)`. The pool is global and other tests run alongside, so a
/// run counts only once both of the conv's buffers are seen to be
/// poisoned ones: its output by pointer, its padded input as the vector
/// it hands back to the top of its shelf.
#[test]
fn direct_conv_zeroes_its_halo_in_a_poisoned_pool() {
    // (b, c, o, h, w, k, pad)
    let shapes = [
        (4, 4, 4, 40, 36, 3, 1),
        (1, 8, 4, 128, 128, 3, 1),
        (2, 3, 5, 9, 13, 5, 2),
        (3, 2, 3, 6, 1, 3, 1),
    ];
    for (si, (b, c, o, h, w, k, pad)) in shapes.into_iter().enumerate() {
        let x = continuous(&[b, c, h, w], 8500 + si as u64);
        let weight = continuous(&[o, c, k, k], 8600 + si as u64);
        let bias = continuous(&[o], 8700 + si as u64);
        let want = bits(&conv_reference(&x, &weight, &bias, 1, pad));
        let padded = b * (c * (h + 2 * pad) * (w + 2 * pad) + 64);
        for device in [Device::Cpu, Device::Parallel(4)] {
            let poisoned_run = (0..100).any(|_| {
                let poison: Vec<Vec<f32>> = [padded, padded, b * o * h * w, b * o * h * w]
                    .map(|len| pool::alloc_filled(len, f32::NAN))
                    .into();
                let ptrs: Vec<*const f32> = poison.iter().map(|v| v.as_ptr()).collect();
                poison.into_iter().for_each(pool::release);
                let got = with_device(device, || conv2d_direct(&x, &weight, Some(&bias), pad));
                let probe = pool::alloc_uninit(padded);
                let seen = ptrs.contains(&got.as_slice().as_ptr()) && ptrs.contains(&probe.as_ptr());
                pool::release(probe);
                assert_eq!(bits(&got), want, "{b}x{c}->{o} at {h}x{w} k={k} pad={pad} on {device:?}");
                seen
            });
            assert!(poisoned_run, "shape {si} on {device:?} never ran on poisoned buffers");
        }
    }
}

/// The weight gradient zeroes its channels-last copy's halo and slack
/// itself, and the lanes of a window vector past its kernel row's taps
/// never reach an output: run straight after the buffer pool was stocked
/// with NaN-filled vectors of its copy's and its per-image slabs' size
/// classes, it still equals [`weight_grad_reference`] bit for bit — a
/// halo float left unwritten, or a stray lane stored, would read NaN. 3×3
/// and 5×5 kernels, stride 1 and 2, rows of 3·C taps that fill their last
/// vector or not; one task per image, on `Cpu` and `Parallel(4)`. As in the direct conv's twin, a run counts
/// once the copy is seen to be a poisoned vector: the one it hands back to
/// the top of its shelf.
#[test]
fn weight_grad_zeroes_its_halo_in_a_poisoned_pool() {
    // (b, c, o, h, w, k, stride, pad)
    let shapes = [
        (4, 16, 16, 21, 12, 3, 1, 1),
        (3, 3, 5, 9, 13, 5, 1, 2),
        (2, 7, 2, 17, 19, 3, 2, 1),
        (1, 8, 4, 64, 64, 3, 1, 1),
    ];
    for (si, (b, c, o, h, w, k, stride, pad)) in shapes.into_iter().enumerate() {
        let x = continuous(&[b, c, h, w], 8800 + si as u64);
        let (oh, ow) = ((h + 2 * pad - k) / stride + 1, (w + 2 * pad - k) / stride + 1);
        let g = continuous(&[b, o, oh, ow], 8900 + si as u64);
        let want = bits(&weight_grad_reference(&x, &g, k, stride, pad));
        // The channels-last copy: `C` floats per padded pixel, then 8 slack.
        let copy = b * ((h + 2 * pad) * (w + 2 * pad) * c + 8);
        let slabs = b * o * c * k * k;
        for device in [Device::Cpu, Device::Parallel(4)] {
            let poisoned_run = (0..100).any(|_| {
                let poison: Vec<Vec<f32>> = [copy, copy, slabs, slabs]
                    .map(|len| pool::alloc_filled(len, f32::NAN))
                    .into();
                let ptrs: Vec<*const f32> = poison.iter().map(|v| v.as_ptr()).collect();
                poison.into_iter().for_each(pool::release);
                let got =
                    with_device(device, || conv2d_weight_grad(&x, &g, (k, k), stride, pad));
                let probe = pool::alloc_uninit(copy);
                let seen = ptrs.contains(&probe.as_ptr());
                pool::release(probe);
                assert_eq!(bits(&got), want, "{b}x{c}->{o} at {h}x{w} k={k} s={stride} on {device:?}");
                seen
            });
            assert!(poisoned_run, "shape {si} on {device:?} never ran on poisoned buffers");
        }
    }
}
