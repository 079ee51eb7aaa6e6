//! Convolution kernels: conv2d and its gradients, conv_transpose2d,
//! im2col/col2im, upsampling. All image tensors are NCHW.
//!
//! One register-block kernel runs every convolution. [`conv2d`] is the
//! direct kernel of [`conv2d_direct`] over the kept output rows: at stride
//! `s` it computes every `s`-th stride-1 row and keeps every `s`-th column
//! of it. [`conv2d_weight_grad`] shares the direct kernel's register block
//! at every stride; at stride 1 [`conv2d_input_grad`] is `conv2d` with
//! flipped filters, and [`conv_transpose2d`] is `conv2d_input_grad` plus
//! its bias.
//!
//! # Tiers
//!
//! The register block (`Block`) is one body, written over the detected
//! tier's vector (`Vector`) and compiled under its target features:
//!
//! | tier | vector | registers | block shapes (channels × vectors) | strip |
//! |---|---|---|---|---|
//! | `avx512+fma` | 16 lanes | 32 | 6, 5, 4, 3 × 4; 2 × 4; 1 × 8 | 64 (1 × 8: 128) |
//! | `avx+fma` | 8 lanes | 16 | 6, 5, 4 × 2; 3 × 3; 2 × 4; 1 × 8 | ≤ 64 |
//! | `portable` | 8 floats | — | as `avx+fma`, multiply then add | ≤ 64 |
//!
//! A padded image's slack is the widest strip its bank runs.
//!
//! On the AVX-512 tier, against the parent's AVX+FMA kernels on the same
//! host (2-vCPU Sapphire Rapids, µs per call, best of 30 per run, the
//! minimum over eight alternating runs a side): UNet's 3→4 at 128² 114 →
//! 54, 4→4 143 → 65, 12→4 332 → 173, 4→8 at 64² 67 → 33, 24→8 281 →
//! 142, 16→16 at 32² 89 → 50; DeepSTN+'s batch-16 21×12 banks 16→16 387
//! → 272, 6→16 181 → 131, 16→8 224 → 157, while the 16→2 head (two
//! channels, load-bound on either width) reads 88 → 83.
//!
//! # What every tier computes
//!
//! The forward, like the reference `conv2d_naive`, starts an output
//! element at its bias and adds its taps in `(c, ki, kj)` order,
//! multiplying and adding as the detected tier does (fused on both AVX
//! tiers). So it agrees with the unfused reference on exactly
//! representable inputs, and an element's bits depend on its own window
//! alone, not on its batch, the stride, the device, the tier's vector
//! width or block shape, or where its plane ends. A weight-gradient
//! element is one chain over the plane per image, the images summed in
//! batch order: the bits of summing `g_b.matmul_nt(&im2col(x_b))`. The
//! `tier_parity` tests below hold the two fused tiers to the same bits.

use super::matmul::{matmul_tn_into, simd, Simd, Vector};
use super::shape_ops::interleave;
use crate::device::for_each_part;
use crate::Tensor;

/// FLOP count (`2·B·O·C·kh·kw·oh·ow`) below which a convolution runs on
/// the calling thread. Tuned alongside `GEMM_PARALLEL_FLOPS`: conv
/// tasks are coarser (a whole output plane each), so the bar is lower.
pub const CONV_PARALLEL_FLOPS: usize = 1 << 20;

/// Output spatial extent of a convolution along one axis.
///
/// # Panics
/// If the kernel (plus padding) does not fit in the input.
pub fn conv_out_len(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "kernel {} larger than padded input {}",
        kernel,
        input + 2 * pad
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Lower a single image `[C, H, W]` to a column matrix
/// `[C*kh*kw, oh*ow]` for kernel `(kh, kw)`, `stride`, and zero `pad`.
pub fn im2col(img: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.im2col");
    assert_eq!(
        img.ndim(),
        3,
        "im2col expects [C,H,W], got {:?}",
        img.shape()
    );
    let padded = img.pad2d(pad);
    let (c, h, w) = (padded.shape()[0], padded.shape()[1], padded.shape()[2]);
    let oh = conv_out_len(img.shape()[1], kh, stride, pad);
    let ow = conv_out_len(img.shape()[2], kw, stride, pad);
    let src = padded.as_slice();
    let mut out = crate::pool::alloc_uninit(c * kh * kw * oh * ow);
    let cols = oh * ow;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ch * kh + ki) * kw + kj) * cols;
                for oi in 0..oh {
                    let si = oi * stride + ki;
                    let src_base = (ch * h + si) * w + kj;
                    let dst_base = row + oi * ow;
                    for oj in 0..ow {
                        out[dst_base + oj] = src[src_base + oj * stride];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[c * kh * kw, cols])
}

/// Adjoint of [`im2col`]: scatter-add a column matrix back into an image of
/// shape `[c, h, w]` (the *unpadded* original extent).
#[allow(clippy::too_many_arguments)] // mirrors im2col's full parameter set
pub fn col2im(
    col: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.col2im");
    let oh = conv_out_len(h, kh, stride, pad);
    let ow = conv_out_len(w, kw, stride, pad);
    assert_eq!(
        col.shape(),
        &[c * kh * kw, oh * ow],
        "col2im column shape mismatch"
    );
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let mut padded = crate::pool::alloc_zeroed(c * ph * pw);
    let src = col.as_slice();
    let cols = oh * ow;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ch * kh + ki) * kw + kj) * cols;
                for oi in 0..oh {
                    let di = oi * stride + ki;
                    let dst_base = (ch * ph + di) * pw + kj;
                    let src_base = row + oi * ow;
                    for oj in 0..ow {
                        padded[dst_base + oj * stride] += src[src_base + oj];
                    }
                }
            }
        }
    }
    Tensor::from_vec(padded, &[c, ph, pw]).unpad2d(pad)
}

/// Add the column matrix `col [c·kh·kw, oh·ow]` into the image `dst [c, h,
/// w]` in [`col2im`]'s order — `(c, ki, kj)` rows, then output pixels —
/// dropping what lands in the zero padding: each element's sum is
/// [`col2im`]'s, with no padded copy to crop. `col2im` stays the
/// reference the oracle holds this to.
fn scatter_cols(
    col: &[f32],
    dst: &mut [f32],
    (c, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
) {
    let (oh, ow) = (conv_out_len(h, kh, stride, pad), conv_out_len(w, kw, stride, pad));
    debug_assert!(col.len() == c * kh * kw * oh * ow && dst.len() == c * h * w);
    // The unpadded index of padded position `at`, if it lies in `0..len`.
    let inside = |at: usize, len: usize| at.checked_sub(pad).filter(|&i| i < len);
    for (r, row) in col.chunks_exact(oh * ow).enumerate() {
        let (ch, ki, kj) = (r / (kh * kw), r / kw % kh, r % kw);
        for (oi, src) in row.chunks_exact(ow).enumerate() {
            let Some(i) = inside(oi * stride + ki, h) else { continue };
            let dst_row = &mut dst[(ch * h + i) * w..][..w];
            for (oj, &v) in src.iter().enumerate() {
                if let Some(j) = inside(oj * stride + kj, w) {
                    dst_row[j] += v;
                }
            }
        }
    }
}

/// 2-D convolution. `input [B,C,H,W]`, `weight [O,C,kh,kw]`,
/// optional `bias [O]` → `[B,O,oh,ow]`.
///
/// Runs the direct kernel of [`conv2d_direct`] over the kept output rows
/// alone: at stride `s` it computes every `s`-th stride-1 row and keeps
/// every `s`-th column of it. Those are the strided outputs bit for bit,
/// each its own window's chain from its bias.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d");
    on_tier!(direct(input, weight, bias, stride, pad))
}

/// Direct stride-1 convolution, register-blocked. Each image is copied
/// once into a zero-padded buffer; output pixels are then addressed in
/// *padded-width* flat coordinates `q = oi·pw + oj`, in which tap `(c, ki,
/// kj)` of every pixel is the padded image shifted by `c·ph·pw + ki·pw +
/// kj`. A `Block` of output channels × a strip of consecutive `q` stays
/// in registers across all taps, and is written out row by row, dropping
/// each row's `pw − ow` columns past its end. Each image is one task,
/// which pads it into its own scratch slot and writes its own output
/// planes.
pub fn conv2d_direct(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, pad: usize) -> Tensor {
    on_tier!(direct(input, weight, bias, 1, pad))
}

/// [`conv2d`] on tier `R`: the direct kernel over the kept rows at
/// `stride`.
fn direct<R: Tier>(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d_direct");
    let (b, o, g) = Geom::of_conv(input, weight, bias, stride, pad);
    let ((ph, pw), taps) = (g.padded(), g.taps());
    // The slack after each padded image: the last strip reads up to a
    // strip's width less one past the image's last tap. The widest strip
    // this bank runs, not the tier's widest: a 1-channel block's strip
    // would push DeepSTN+'s 6-channel batch past its pool size class.
    let strip = |(_, ob): (usize, usize)| R::N * R::VECTORS[ob - 1];
    let slack = channel_blocks::<R>(o).map(strip).max().unwrap_or(0);
    let (chan, image) = (ph * pw, g.c * ph * pw + slack);
    let mut x = crate::pool::alloc_uninit(b * image);
    let mut out = crate::pool::alloc_uninit(b * o * g.plane());
    let (src, hw) = (input.as_slice(), g.h * g.w);
    let d = Direct {
        wt: weight.as_slice(),
        bias: bias.map(|t| t.as_slice()),
        o,
        g,
    };
    let parallel = 2 * b * o * taps * g.plane() >= CONV_PARALLEL_FLOPS;
    let parts = (&mut out[..], &mut x[..]);
    for_each_part(parts, (o * g.plane(), image), parallel, |bi, (out, x)| {
        // Pad each plane; the last also zeroes the image's slack.
        for ch in 0..g.c {
            let end = if ch + 1 == g.c { image } else { (ch + 1) * chan };
            g.pad_plane(&src[(bi * g.c + ch) * hw..][..hw], &mut x[ch * chan..end]);
        }
        for (oc0, ob) in channel_blocks::<R>(o) {
            let out = &mut *out;
            R::with_shape(ob, Strips { d: &d, x, out, oc0 });
        }
    });
    crate::pool::release(x);
    Tensor::from_vec(out, &[b, o, g.oh, g.ow])
}

/// A direct conv's operands besides the padded image and the output: the
/// filters, the bias and the shape.
struct Direct<'a> {
    wt: &'a [f32],
    bias: Option<&'a [f32]>,
    o: usize,
    g: Geom,
}

/// One register block's share of a direct conv: output channels `oc0..`
/// of one image, padded as `x`, into its `[O, oh, ow]` planes `out`.
struct Strips<'a> {
    d: &'a Direct<'a>,
    x: &'a [f32],
    out: &'a mut [f32],
    oc0: usize,
}

impl Shaped for Strips<'_> {
    /// Strips of `N·V` padded-width positions over the stride-1 rows the
    /// output keeps: every row as one run at stride 1, each kept row
    /// (every `s`-th, from its first kept column to its last) as its own
    /// run at stride `s`. Each strip is written out row by row, the
    /// positions `q` whose row and column are multiples of `s` and whose
    /// column is at most `(ow − 1)·s`.
    fn run<R: Tier, const OB: usize, const V: usize>(self) {
        let Strips { d, x, out, oc0 } = self;
        let ((g, (ph, pw)), (s, width)) = ((d.g, d.g.padded()), (d.g.stride, R::N * V));
        let (taps, span) = (g.taps(), (g.ow - 1) * s + 1);
        let (step, end) = (if s == 1 { g.oh } else { 1 }, (g.oh - 1) * s * pw + span);
        let runs = (0..g.oh).step_by(step).map(|r| {
            let at = r * s * pw;
            (at, if s == 1 { end } else { at + span })
        });
        let block = Block::<R, OB, V, true>::new(
            x,
            [(g.c, ph * pw), (g.kh, pw), (g.kw, 1)],
            std::array::from_fn(|v| R::N * v),
            std::array::from_fn(|r| &d.wt[(oc0 + r) * taps..][..taps]),
            std::array::from_fn(|r| d.bias.map_or(0.0, |b| b[oc0 + r])),
        );
        let bases = runs.flat_map(|(at, stop)| (at..stop).step_by(width));
        block.run(bases, |q0, acc| {
            let (mut q, stop) = (q0, (q0 + width).min(end));
            while q < stop {
                let (i, j) = (q / pw, q % pw);
                let n = (pw - j).min(stop - q);
                // Row `i`'s positions `j..j + n` keep, as output row `oi`,
                // its columns `oj..oj + cols`: every one at stride 1 (no
                // division, which a strip's write-out would feel).
                let kept = if s == 1 {
                    (j < g.ow).then(|| (i, j, n.min(g.ow - j)))
                } else {
                    let (oj, last) = (j.div_ceil(s), (j + n).min(span).div_ceil(s));
                    (i % s == 0 && j < span).then(|| (i / s, oj, last - oj))
                };
                if let Some((oi, oj, cols)) = kept {
                    debug_assert!(oi < g.oh && oj + cols <= g.ow && oc0 + OB <= d.o);
                    for (ob, a) in acc.iter().enumerate() {
                        let dst = &mut out[((oc0 + ob) * g.oh + oi) * g.ow + oj..][..cols];
                        let lanes = &R::flat(a)[q - q0 + oj * s - j..];
                        debug_assert!((cols - 1) * s < lanes.len());
                        if s == 1 {
                            dst.copy_from_slice(&lanes[..cols]);
                        } else {
                            let kept = lanes.iter().step_by(s);
                            dst.iter_mut().zip(kept).for_each(|(o, &v)| *o = v);
                        }
                    }
                }
                q += n;
            }
        });
    }
}

/// A kernel generic over its register block's shape: `OB` output
/// channels (filters) × `V` vectors of `R`. [`Tier::with_shape`] picks
/// the shape for a block's width from the tier's table.
trait Shaped {
    fn run<R: Tier, const OB: usize, const V: usize>(self);
}

/// The output-channel blocks `(oc0, width)` of an `o`-filter bank on tier
/// `R`: blocks of the table's widest (six), then the rest, a last seven
/// or eight going 4 + 3 or 4 + 4. A block of `ob` channels holds
/// `R::VECTORS[ob − 1]` vectors.
fn channel_blocks<R: Tier>(o: usize) -> impl Iterator<Item = (usize, usize)> {
    let (mut oc0, most) = (0, R::channels());
    std::iter::from_fn(move || {
        let rest = o - oc0;
        let ob = if rest == 0 {
            return None;
        } else if rest > most && rest <= most + 2 {
            rest.div_ceil(2)
        } else {
            rest.min(most)
        };
        oc0 += ob;
        Some((oc0 - ob, ob))
    })
}

/// A tier's register blocks: its [`Vector`], its table of block shapes,
/// and [`Block::chains`] — the one kernel body — compiled under its
/// target features by [`Tier::run`]. Every tier gives an accumulator the
/// same chain, so the two fused tiers agree bit for bit.
trait Tier: Vector {
    /// A block of `ob` output channels holds `VECTORS[ob − 1]` vectors (0:
    /// no block that wide).
    const VECTORS: [usize; 8];

    /// Run `f` on the shape the table gives a block of `ob` channels.
    fn with_shape(ob: usize, f: impl Shaped);

    /// The widest block's channels.
    fn channels() -> usize {
        Self::VECTORS
            .iter()
            .rposition(|&v| v > 0)
            .map_or(1, |i| i + 1)
    }

    /// Whether this CPU runs the tier (std caches the detection).
    fn supported() -> bool;

    /// [`Block::chains`] compiled for this tier.
    ///
    /// # Safety
    /// The CPU supports the tier.
    unsafe fn run<const OB: usize, const V: usize, const DENSE: bool>(
        block: &Block<'_, Self, OB, V, DENSE>,
        bases: impl Iterator<Item = usize>,
        emit: impl FnMut(usize, &Acc<Self, OB, V>),
    );
}

/// A register block's accumulators: `OB` rows × `V` vectors of `R`.
type Acc<R, const OB: usize, const V: usize> = [[<R as Vector>::Array; V]; OB];

/// Run `$f::<R>(args)` with `R` the detected tier's [`Vector`].
macro_rules! on_tier {
    ($f:ident($($arg:expr),* $(,)?)) => {
        match simd() {
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 => $f::<std::arch::x86_64::__m512>($($arg),*),
            #[cfg(target_arch = "x86_64")]
            Simd::Fma => $f::<std::arch::x86_64::__m256>($($arg),*),
            _ => $f::<[f32; 8]>($($arg),*),
        }
    };
}
use on_tier;

/// A tier's table of register-block shapes, `channels => vectors`: its
/// `VECTORS`, and a `with_shape` that instantiates those shapes alone.
macro_rules! shapes {
    ($($ob:literal => $v:literal),* $(,)?) => {
        const VECTORS: [usize; 8] = {
            let mut table = [0; 8];
            $(table[$ob - 1] = $v;)*
            table
        };

        fn with_shape(ob: usize, f: impl Shaped) {
            match ob {
                $($ob => f.run::<Self, $ob, $v>(),)*
                _ => unreachable!("no register block of {ob} channels"),
            }
        }
    };
}

/// The portable tier: the FMA tier's table, multiplied, then added.
impl Tier for [f32; 8] {
    shapes!(1 => 8, 2 => 4, 3 => 3, 4 => 2, 5 => 2, 6 => 2);

    fn supported() -> bool {
        true
    }

    unsafe fn run<const OB: usize, const V: usize, const DENSE: bool>(
        block: &Block<'_, Self, OB, V, DENSE>,
        bases: impl Iterator<Item = usize>,
        emit: impl FnMut(usize, &Acc<Self, OB, V>),
    ) {
        // SAFETY: the portable tier runs on any CPU.
        unsafe { block.chains(bases, emit) }
    }
}

/// The AVX+FMA tier, 16 registers: blocks of up to 12 accumulators — 6, 5
/// or 4 channels × 2 vectors, 3 × 3, 2 × 4, 1 × 8 (four channels × three
/// vectors need all 16 registers and spill).
#[cfg(target_arch = "x86_64")]
impl Tier for std::arch::x86_64::__m256 {
    shapes!(1 => 8, 2 => 4, 3 => 3, 4 => 2, 5 => 2, 6 => 2);

    fn supported() -> bool {
        is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma")
    }

    #[target_feature(enable = "avx,fma")]
    unsafe fn run<const OB: usize, const V: usize, const DENSE: bool>(
        block: &Block<'_, Self, OB, V, DENSE>,
        bases: impl Iterator<Item = usize>,
        emit: impl FnMut(usize, &Acc<Self, OB, V>),
    ) {
        // SAFETY: compiled with AVX and FMA, which the caller detected.
        unsafe { block.chains(bases, emit) }
    }
}

/// The AVX-512 tier, 32 registers: 6, 5, 4 or 3 channels × 4 vectors (24
/// to 12 accumulators), 2 × 4, 1 × 8. Measured against the FMA tier's
/// shapes in zmm (6 × 2 …): four vectors a channel won at every UNet and
/// DeepSTN+ bank, and six (96-position strips) lost to their waste on
/// small planes; two channels × six or eight vectors, and four × six
/// (31 of 32 registers), ran 1.5–3× slower (DESIGN §11).
#[cfg(target_arch = "x86_64")]
impl Tier for std::arch::x86_64::__m512 {
    shapes!(1 => 8, 2 => 4, 3 => 4, 4 => 4, 5 => 4, 6 => 4);

    fn supported() -> bool {
        std::arch::x86_64::__m256::supported() && is_x86_feature_detected!("avx512f")
    }

    #[target_feature(enable = "avx,fma,avx512f")]
    unsafe fn run<const OB: usize, const V: usize, const DENSE: bool>(
        block: &Block<'_, Self, OB, V, DENSE>,
        bases: impl Iterator<Item = usize>,
        emit: impl FnMut(usize, &Acc<Self, OB, V>),
    ) {
        // SAFETY: compiled with AVX-512F, which the caller detected.
        unsafe { block.chains(bases, emit) }
    }
}

/// One register block's multiply-add chains, the arithmetic of both
/// [`conv2d_direct`] and [`conv2d_weight_grad`]: accumulator `(r, v)`, of
/// `OB` scalar rows × `V` vectors of `R`, starts at `init[r]` and adds
/// `rows[r][i] · x[at + offs[v]..][..N]` for each step `i` in order. The
/// steps are three nested loops: with `walk = [(n0, s0), (n1, s1), (n2,
/// s2)]`, step `(a, b, j)` has origin `at = base + a·s0 + b·s1 + j·s2`.
/// `DENSE` blocks (the direct kernel's) have `offs[v] = N·v` and `s2 = 1`,
/// which the compiler then folds into each load's address.
struct Block<'a, R, const OB: usize, const V: usize, const DENSE: bool> {
    x: &'a [f32],
    walk: [(usize, usize); 3],
    offs: [usize; V],
    rows: [&'a [f32]; OB],
    init: [f32; OB],
    /// How far past its base the block reads `x` (0 if it has no step).
    reach: usize,
    tier: std::marker::PhantomData<R>,
}

impl<'a, R: Tier, const OB: usize, const V: usize, const DENSE: bool> Block<'a, R, OB, V, DENSE> {
    /// Panics if a row holds fewer scalars than there are steps.
    fn new(
        x: &'a [f32],
        walk: [(usize, usize); 3],
        offs: [usize; V],
        rows: [&'a [f32]; OB],
        init: [f32; OB],
    ) -> Self {
        let dense = offs.iter().enumerate().all(|(v, &off)| off == R::N * v) && walk[2].1 == 1;
        assert!(dense || !DENSE, "a dense block's vectors are consecutive");
        let steps: usize = walk.iter().map(|&(n, _)| n).product();
        let rows_hold_steps = rows.iter().all(|r| r.len() >= steps);
        assert!(rows_hold_steps, "register block row too short");
        let last: usize = walk.iter().map(|&(n, s)| n.saturating_sub(1) * s).sum();
        let far = offs.iter().max().map_or(0, |&off| off + R::N);
        let reach = if steps == 0 { 0 } else { last + far };
        Block {
            x,
            walk,
            offs,
            rows,
            init,
            reach,
            tier: std::marker::PhantomData,
        }
    }

    /// The chains from each of `bases` in turn, multiplied and added as the
    /// tier does, each base's accumulators handed to `emit`: one call for
    /// all. Panics if a step would read past `x`.
    fn run(&self, bases: impl Iterator<Item = usize>, emit: impl FnMut(usize, &Acc<R, OB, V>)) {
        assert!(R::supported(), "register block on a tier this CPU lacks");
        // SAFETY: the CPU supports the tier (asserted above).
        unsafe { R::run(self, bases, emit) }
    }

    /// Panics unless every read from `base` lies in `x`.
    #[inline(always)]
    fn check(&self, base: usize) {
        let fits = self.reach == 0 || base + self.reach <= self.x.len();
        assert!(fits, "register block reads past its input");
    }

    /// The chains in registers, the one body of every tier: per step, a
    /// load per vector, a broadcast per row and, per accumulator,
    /// `madd(s, x, acc)`. The steps are a plain loop nest around an
    /// always-inlined step, so the accumulators never leave registers.
    ///
    /// # Safety
    /// The CPU supports `R`'s tier, and the caller is compiled with its
    /// target features (`Vector::run`).
    #[inline(always)]
    unsafe fn chains(
        &self,
        bases: impl Iterator<Item = usize>,
        mut emit: impl FnMut(usize, &Acc<R, OB, V>),
    ) {
        let [(n0, s0), (n1, s1), (n, stride)] = self.walk;
        let stride = if DENSE { 1 } else { stride };
        // Hoisted out of the steps: thin row pointers and the offsets.
        let (rows, offs) = (self.rows.map(|row| row.as_ptr()), self.offs);
        for base in bases {
            self.check(base);
            // SAFETY: the tier is supported (the caller's contract).
            let mut acc = self.init.map(|w| [unsafe { R::splat(w) }; V]);
            let mut i = 0;
            for a in 0..n0 {
                for b in 0..n1 {
                    let at = base + a * s0 + b * s1;
                    let hoisted = (&rows, &offs);
                    if n == 3 {
                        // A 3×3 kernel row, unrolled: a loop of three would
                        // spend as much on its own bookkeeping as on one step.
                        // SAFETY: the tier is supported, `check` found `base`
                        // plus the farthest step origin and vector (`reach`)
                        // inside `x`, and `new` that every row holds a scalar
                        // per step.
                        unsafe {
                            self.step(&mut acc, hoisted, i, at);
                            self.step(&mut acc, hoisted, i + 1, at + stride);
                            self.step(&mut acc, hoisted, i + 2, at + 2 * stride);
                        }
                    } else {
                        for j in 0..n {
                            // SAFETY: as for the unrolled row.
                            unsafe { self.step(&mut acc, hoisted, i + j, at + j * stride) };
                        }
                    }
                    i += n;
                }
            }
            // By value: a borrow of `acc` here can keep it in memory,
            // stored after every step.
            let lanes = acc.map(|a| {
                a.map(|v| {
                    let mut lanes = R::Array::default();
                    // SAFETY: the tier is supported; `lanes` holds `N` floats.
                    unsafe { v.store(lanes.as_mut().as_mut_ptr()) };
                    lanes
                })
            });
            emit(base, &lanes);
        }
    }

    /// Step `i` of every chain, its vectors read from origin `at`.
    ///
    /// # Safety
    /// As [`Block::chains`], with every read from `at` inside `x` and `i`
    /// inside every row.
    #[inline(always)]
    unsafe fn step(
        &self,
        acc: &mut [[R; V]; OB],
        (rows, offs): (&[*const f32; OB], &[usize; V]),
        i: usize,
        at: usize,
    ) {
        // Vector `v`'s offset from a step's origin.
        let off = |v: usize| if DENSE { R::N * v } else { offs[v] };
        debug_assert!((0..V).all(|v| at + off(v) + R::N <= self.x.len()));
        debug_assert!(self.rows.iter().all(|row| i < row.len()));
        // SAFETY: the caller's contract.
        unsafe {
            let src = self.x.as_ptr().add(at);
            let xs: [R; V] = std::array::from_fn(|v| R::load(src.add(off(v))));
            for (a, row) in acc.iter_mut().zip(rows) {
                let s = R::splat(*row.add(i));
                for (av, &xv) in a.iter_mut().zip(&xs) {
                    *av = R::madd(s, xv, *av);
                }
            }
        }
    }
}

/// The shape of one conv: image extent, kernel, stride, zero padding
/// and the output plane it produces.
#[derive(Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl Geom {
    fn new(input: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Geom {
        let (c, h, w) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oh, ow) = (
            conv_out_len(h, kh, stride, pad),
            conv_out_len(w, kw, stride, pad),
        );
        Geom {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
        }
    }

    /// Check a conv's operands (`input [B,C,H,W]`, `weight [O,C,kh,kw]`,
    /// `bias [O]`) and derive `(B, O)` and the geometry.
    fn of_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> (usize, usize, Geom) {
        assert_eq!(input.ndim(), 4, "conv2d input must be [B,C,H,W]");
        assert_eq!(weight.ndim(), 4, "conv2d weight must be [O,C,kh,kw]");
        let g = Geom::new(input, weight.shape()[2], weight.shape()[3], stride, pad);
        let (o, wc) = (weight.shape()[0], weight.shape()[1]);
        assert_eq!(
            g.c, wc,
            "conv2d channel mismatch: input {}, weight {wc}",
            g.c
        );
        if let Some(bias) = bias {
            assert_eq!(bias.shape(), &[o], "conv2d bias must be [O]");
        }
        (input.shape()[0], o, g)
    }

    fn taps(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// The zero-padded image's extent `(h + 2·pad, w + 2·pad)`.
    fn padded(&self) -> (usize, usize) {
        (self.h + 2 * self.pad, self.w + 2 * self.pad)
    }

    fn plane(&self) -> usize {
        self.oh * self.ow
    }

    /// Copy one `h × w` plane into the front of `dst` zero-padded to
    /// `ph × pw`, and zero the rest of `dst`: each pixel is written once,
    /// and between one row's pixels and the next's lies one run of zeros
    /// (a right border and the next left border, or the top and bottom
    /// halo rows).
    fn pad_plane(&self, src: &[f32], dst: &mut [f32]) {
        let ((_, pw), pad, w) = (self.padded(), self.pad, self.w);
        let mut zeros_from = 0;
        for i in 0..self.h {
            let at = (pad + i) * pw + pad;
            match dst.get_mut(zeros_from..zeros_from + 8) {
                // A short run (the halo between two rows) is one fixed
                // 8-float store rather than a `memset` call per row, which
                // narrow planes feel; what it writes past the run lies
                // ahead and is written again, by this row or a later one.
                Some(run) if at - zeros_from <= 8 => run.copy_from_slice(&[0.0; 8]),
                _ => dst[zeros_from..at].fill(0.0),
            }
            dst[at..at + w].copy_from_slice(&src[i * w..][..w]);
            zeros_from = at + w;
        }
        dst[zeros_from..].fill(0.0);
    }

    /// Copy one `[C, h, w]` image into `dst` zero-padded and channels-last
    /// — pixel `(y, x)` of the `ph × pw` padded plane holds its `C`
    /// channels from `(y·pw + x)·C` — and zero the rest of `dst`. Each
    /// image row is a `C × w` transpose: eight channels at a time as one
    /// `interleave` block (eight source rows streamed in step, each pixel's
    /// eight channels one contiguous store), the last `C mod 8` one
    /// channel at a time.
    fn pad_channels_last(&self, src: &[f32], dst: &mut [f32]) {
        let ((_, pw), (c, pad, w)) = (self.padded(), (self.c, self.pad, self.w));
        let (plane, c8) = (self.h * w, c / 8 * 8);
        let (head, body) = dst.split_at_mut(pad * pw * c);
        head.fill(0.0);
        let (body, tail) = body.split_at_mut(self.h * pw * c);
        tail.fill(0.0);
        for (i, row) in body.chunks_exact_mut(pw * c).enumerate() {
            let (left, rest) = row.split_at_mut(pad * c);
            let (inner, right) = rest.split_at_mut(w * c);
            left.fill(0.0);
            right.fill(0.0);
            for c0 in (0..c8).step_by(8) {
                interleave::<8>(&src[c0 * plane + i * w..], plane, 8, w, &mut inner[c0..], c);
            }
            for (ch, plane) in src.chunks_exact(plane).enumerate().skip(c8) {
                for (px, &v) in inner.chunks_exact_mut(c).zip(&plane[i * w..][..w]) {
                    px[ch] = v;
                }
            }
        }
    }
}

/// Gradient of [`conv2d`] with respect to its weight, `[O,C,kh,kw]`, for
/// `input [B,C,H,W]` and output gradient `grad [B,O,oh,ow]`: per image,
/// element `(o, c, ki, kj)` is the chain `acc ← g·x + acc` from `+0` over
/// the plane in pixel order, multiplied and added as the GEMM
/// microkernel's tier does; the per-image slabs are summed in batch order.
/// Each image is copied once, zero-padded and channels-last, so one kernel
/// row's taps `(kj, c)` of a window are `kw·C` consecutive floats at any
/// stride, read as 8-lane vectors. A `Block` of up to six filters ×
/// window vectors runs down the plane, a step per pixel; lanes past a
/// row's taps are never stored. Each image is one task, which copies it
/// into its own scratch slot and writes its own slab.
pub fn conv2d_weight_grad(
    input: &Tensor,
    grad: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d_weight_grad");
    on_tier!(weight_grad(input, grad, kernel, stride, pad))
}

/// [`conv2d_weight_grad`] on tier `R`.
fn weight_grad<R: Tier>(
    input: &Tensor,
    grad: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, o) = (grad.shape()[0], grad.shape()[1]);
    let g = Geom::new(input, kernel.0, kernel.1, stride, pad);
    let expected = [input.shape()[0], o, g.oh, g.ow];
    assert_eq!(grad.shape(), &expected, "conv2d grad shape mismatch");
    let ((ph, pw), taps, run) = (g.padded(), g.taps(), g.kw * g.c);
    // The channels-last image, then slack for the last window's last
    // vector, which reads up to `N − 1` floats past its row's taps.
    let image = ph * pw * g.c + R::N;
    let n = g.kh * run.div_ceil(R::N);
    let mut x = crate::pool::alloc_uninit(b * image);
    let mut parts = crate::pool::alloc_uninit(b * o * taps);
    let (src, image_in) = (input.as_slice(), g.c * g.h * g.w);
    let wg = WeightGrad {
        grad: grad.as_slice(),
        o,
        g,
    };
    let parallel = 2 * b * o * taps * g.plane() >= CONV_PARALLEL_FLOPS;
    let slabs = (&mut parts[..], &mut x[..]);
    for_each_part(slabs, (o * taps, image), parallel, |bi, (slab, x)| {
        g.pad_channels_last(&src[bi * image_in..][..image_in], x);
        let x = &*x;
        // Register blocks: filters `oc0..oc0 + ob` × window vectors from `j0`.
        for (oc0, ob) in channel_blocks::<R>(o) {
            for j0 in (0..n).step_by(R::VECTORS[ob - 1]) {
                let slab = &mut *slab;
                R::with_shape(ob, Window { wg: &wg, x, slab, bi, oc0, j0 });
            }
        }
    });
    crate::pool::release(x);
    // Sum the slabs in batch order into the first, then move each filter's
    // `(ki, kj, c)` taps to `(c, ki, kj)`.
    let mut gw = crate::pool::alloc_zeroed(o * taps);
    if let Some((sum, rest)) = parts.split_at_mut_checked(o * taps) {
        for part in rest.chunks_exact(o * taps) {
            sum.iter_mut().zip(part).for_each(|(a, &p)| *a += p);
        }
        for (dst, src) in gw.chunks_exact_mut(taps).zip(sum.chunks_exact(taps)) {
            for (kij, px) in src.chunks_exact(g.c).enumerate() {
                for (c, &v) in px.iter().enumerate() {
                    dst[c * g.kh * g.kw + kij] = v;
                }
            }
        }
    }
    crate::pool::release(parts);
    Tensor::from_vec(gw, &[o, g.c, g.kh, g.kw])
}

/// A weight gradient's operands besides the channels-last image and the
/// slabs: the output gradient and the shape.
struct WeightGrad<'a> {
    grad: &'a [f32],
    o: usize,
    g: Geom,
}

/// One register block of a weight gradient: filters `oc0..` × the window
/// vectors from `j0` of image `bi` (channels-last `x`), into the image's
/// slab, `[O, kh, kw·C]` — a window's own order.
struct Window<'a> {
    wg: &'a WeightGrad<'a>,
    x: &'a [f32],
    slab: &'a mut [f32],
    bi: usize,
    oc0: usize,
    j0: usize,
}

impl Shaped for Window<'_> {
    /// Filters `oc0..oc0 + OB` × window vectors `j0..j0 + V`, each chain
    /// from `+0` a step per output pixel (the window's origin moves
    /// `stride·C` along an output row), stored into image `bi`'s slab.
    /// Past the window's last vector the block repeats it and drops the
    /// copy.
    fn run<R: Tier, const OB: usize, const V: usize>(self) {
        let Window { wg, x, slab, bi, oc0, j0 } = self;
        let (g, (_, pw)) = (wg.g, wg.g.padded());
        let (plane, taps, run) = (g.plane(), g.taps(), g.kw * g.c);
        let (nv, n) = (run.div_ceil(R::N), g.kh * run.div_ceil(R::N));
        // Vector `j` of a window: kernel row `j / nv`, taps `r0..` of it.
        let at = |j: usize| (j / nv, j % nv * R::N);
        let block = Block::<R, OB, V, false>::new(
            x,
            [(1, 0), (g.oh, g.stride * pw * g.c), (g.ow, g.stride * g.c)],
            std::array::from_fn(|v| at((j0 + v).min(n - 1))).map(|(ki, r0)| ki * pw * g.c + r0),
            std::array::from_fn(|r| &wg.grad[(bi * wg.o + oc0 + r) * plane..][..plane]),
            [0.0; OB],
        );
        block.run(std::iter::once(0), |_, acc| {
            for (r, a) in acc.iter().enumerate() {
                let lanes = R::flat(a);
                for (j, vals) in (j0..n).zip(lanes.chunks_exact(R::N)) {
                    let (ki, r0) = at(j);
                    let (dst, live) = ((oc0 + r) * taps + ki * run + r0, (run - r0).min(R::N));
                    debug_assert!(oc0 + r < wg.o && ki * run + r0 + live <= taps);
                    slab[dst..][..live].copy_from_slice(&vals[..live]);
                }
            }
        });
    }
}

/// Gradient of [`conv2d`] with respect to its input `[B,C,H,W]`, for
/// `weight [O,C,kh,kw]` and output gradient `grad [B,O,oh,ow]`.
///
/// At stride 1 the adjoint of a convolution is a convolution: `grad`
/// convolved with the spatially flipped, channel-swapped filters at
/// padding `k−1−pad`, which runs through [`conv2d`] itself. Strided (or
/// over-padded, or non-square) convs run one task per image: its `Wᵀ·g`
/// into its own column scratch, scattered in [`col2im`]'s order straight
/// into its part of the output.
pub fn conv2d_input_grad(
    grad: &Tensor,
    weight: &Tensor,
    input_hw: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d_input_grad");
    let &[o, c, kh, kw] = weight.shape() else {
        panic!("conv2d weight must be [O,C,kh,kw]")
    };
    if stride == 1 && kh == kw && pad < kh {
        let w = weight.as_slice();
        let mut flipped = crate::pool::alloc_uninit(w.len());
        for (i, v) in flipped.iter_mut().enumerate() {
            let (ci, oi, tap) = (i / (o * kh * kw), i / (kh * kw) % o, i % (kh * kw));
            *v = w[(oi * c + ci + 1) * kh * kw - 1 - tap];
        }
        return conv2d(
            grad,
            &Tensor::from_vec(flipped, &[c, o, kh, kw]),
            None,
            1,
            kh - 1 - pad,
        );
    }
    let (h, wd) = input_hw;
    let (oh, ow) = (conv_out_len(h, kh, stride, pad), conv_out_len(wd, kw, stride, pad));
    let b = grad.shape()[0];
    assert_eq!(grad.shape(), &[b, o, oh, ow], "conv2d grad shape mismatch");
    let (rows, plane, image) = (c * kh * kw, oh * ow, c * h * wd);
    let mut out = crate::pool::alloc_zeroed(b * image);
    let mut cols = crate::pool::alloc_zeroed(b * rows * plane);
    let (w, g) = (weight.as_slice(), grad.as_slice());
    let parallel = 2 * b * o * rows * plane >= CONV_PARALLEL_FLOPS;
    let parts = (&mut out[..], &mut cols[..]);
    for_each_part(parts, (image, rows * plane), parallel, |bi, (dst, col)| {
        matmul_tn_into(w, &g[bi * o * plane..][..o * plane], col, (rows, plane, o));
        scatter_cols(col, dst, (c, h, wd), (kh, kw), stride, pad);
    });
    crate::pool::release(cols);
    Tensor::from_vec(out, &[b, c, h, wd])
}

/// Sliding-window reference convolution, the test oracle.
pub fn conv2d_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, _, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    let oh = conv_out_len(h, kh, stride, pad);
    let ow = conv_out_len(w, kw, stride, pad);
    let padded = input.pad2d(pad);
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let x = padded.as_slice();
    let wt = weight.as_slice();
    let mut out = crate::pool::alloc_uninit(b * o * oh * ow);
    for bi in 0..b {
        for oc in 0..o {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = bias.map_or(0.0, |t| t.as_slice()[oc]);
                    for ic in 0..c {
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let xi = oi * stride + ki;
                                let xj = oj * stride + kj;
                                acc += x[((bi * c + ic) * ph + xi) * pw + xj]
                                    * wt[((oc * c + ic) * kh + ki) * kw + kj];
                            }
                        }
                    }
                    out[((bi * o + oc) * oh + oi) * ow + oj] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, o, oh, ow])
}

/// Transposed 2-D convolution (a.k.a. deconvolution), the adjoint of
/// [`conv2d`]. `input [B,C,H,W]`, `weight [C,O,kh,kw]`, optional `bias [O]`
/// → `[B, O, (H-1)*stride + kh - 2*pad, (W-1)*stride + kw - 2*pad]`: the
/// input gradient of a `conv2d` by `weight` whose output gradient is
/// `input`, plus the bias.
pub fn conv_transpose2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv_transpose2d");
    assert_eq!(input.ndim(), 4, "conv_transpose2d input must be [B,C,H,W]");
    assert_eq!(
        weight.ndim(),
        4,
        "conv_transpose2d weight must be [C,O,kh,kw]"
    );
    let (&[_, c, h, w], &[wc, o, kh, kw]) = (input.shape(), weight.shape()) else {
        unreachable!()
    };
    assert_eq!(c, wc, "conv_transpose2d channel mismatch");
    if let Some(bias) = bias {
        assert_eq!(bias.shape(), &[o], "conv_transpose2d bias must be [O]");
    }
    let out_h = (h - 1) * stride + kh;
    let out_w = (w - 1) * stride + kw;
    assert!(
        out_h > 2 * pad && out_w > 2 * pad,
        "conv_transpose2d padding {pad} too large for output {out_h}x{out_w}"
    );
    let out_hw = (out_h - 2 * pad, out_w - 2 * pad);
    let mut out = conv2d_input_grad(input, weight, out_hw, stride, pad);
    if let Some(bias) = bias {
        let planes = out.as_mut_slice().chunks_exact_mut(out_hw.0 * out_hw.1);
        for (p, plane) in planes.enumerate() {
            let bv = bias.as_slice()[p % o];
            plane.iter_mut().for_each(|v| *v += bv);
        }
    }
    out
}

/// Nearest-neighbour spatial upsampling by an integer `factor` (NCHW).
///
/// Each source row becomes one output row, every element written
/// `factor` times, and that row is then copied `factor − 1` times below
/// it: pure data movement, no per-element index arithmetic.
pub fn upsample_nearest2d(input: &Tensor, factor: usize) -> Tensor {
    assert!(factor > 0, "upsample factor must be positive");
    assert_eq!(
        input.ndim(),
        4,
        "upsample_nearest2d input must be [B,C,H,W]"
    );
    if factor == 1 {
        return input.clone();
    }
    let &[b, c, h, w] = input.shape() else {
        unreachable!()
    };
    let (oh, ow) = (h * factor, w * factor);
    let mut out = crate::pool::alloc_uninit(b * c * oh * ow);
    if !out.is_empty() {
        let rows = input.as_slice().chunks_exact(w);
        for (src, block) in rows.zip(out.chunks_exact_mut(factor * ow)) {
            let (first, copies) = block.split_at_mut(ow);
            for (run, &v) in first.chunks_exact_mut(factor).zip(src) {
                run.fill(v);
            }
            for row in copies.chunks_exact_mut(ow) {
                row.copy_from_slice(first);
            }
        }
    }
    Tensor::from_vec(out, &[b, c, oh, ow])
}

/// Adjoint of [`upsample_nearest2d`]: sum each `factor × factor` block.
/// Every sum starts at `+0` and adds its block's rows in ascending order,
/// each row's elements left to right.
pub fn upsample_nearest2d_backward(grad: &Tensor, factor: usize) -> Tensor {
    if factor == 1 {
        return grad.clone();
    }
    let &[b, c, oh, ow] = grad.shape() else {
        panic!("upsample_nearest2d_backward grad must be [B,C,H,W]")
    };
    assert!(
        oh.is_multiple_of(factor) && ow.is_multiple_of(factor),
        "upsample grad {oh}x{ow} is not a multiple of {factor}"
    );
    let (h, w) = (oh / factor, ow / factor);
    let mut out = crate::pool::alloc_zeroed(b * c * h * w);
    if !out.is_empty() {
        let blocks = grad.as_slice().chunks_exact(factor * ow);
        for (dst, block) in out.chunks_exact_mut(w).zip(blocks) {
            for src in block.chunks_exact(ow) {
                for (d, run) in dst.iter_mut().zip(src.chunks_exact(factor)) {
                    for &g in run {
                        *d += g;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{with_device, Device};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn out_len_formula() {
        assert_eq!(conv_out_len(5, 3, 1, 0), 3);
        assert_eq!(conv_out_len(5, 3, 1, 1), 5);
        assert_eq!(conv_out_len(5, 3, 2, 1), 3);
        assert_eq!(conv_out_len(28, 5, 1, 2), 28);
    }

    #[test]
    fn im2col_known_values() {
        // 1×3×3 image, 2×2 kernel, stride 1, no pad → [4, 4] columns.
        let img = Tensor::arange(9).reshape(&[1, 3, 3]);
        let col = im2col(&img, 2, 2, 1, 0);
        assert_eq!(col.shape(), &[4, 4]);
        // First column = top-left patch [0,1,3,4].
        assert_eq!(col.at(&[0, 0]), 0.0);
        assert_eq!(col.at(&[1, 0]), 1.0);
        assert_eq!(col.at(&[2, 0]), 3.0);
        assert_eq!(col.at(&[3, 0]), 4.0);
        // Last column = bottom-right patch [4,5,7,8].
        assert_eq!(col.at(&[0, 3]), 4.0);
        assert_eq!(col.at(&[3, 3]), 8.0);
    }

    #[test]
    fn conv_matches_naive_across_configs() {
        let mut rng = rng();
        for &(c, o, h, w, k, s, p) in &[
            (1usize, 1usize, 5usize, 5usize, 3usize, 1usize, 0usize),
            (3, 4, 8, 8, 3, 1, 1),
            (2, 3, 9, 7, 3, 2, 1),
            (4, 2, 6, 6, 5, 1, 2),
            (1, 1, 4, 4, 1, 1, 0),
        ] {
            let input = Tensor::rand_uniform(&[2, c, h, w], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[o, c, k, k], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng);
            let fast = conv2d(&input, &weight, Some(&bias), s, p);
            let slow = conv2d_naive(&input, &weight, Some(&bias), s, p);
            assert!(
                fast.allclose(&slow, 1e-4),
                "mismatch for c={c} o={o} h={h} w={w} k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn direct_parallel_matches_serial() {
        // A 48×48 plane crosses CONV_PARALLEL_FLOPS, so Parallel(4)
        // actually fans out image tasks.
        let mut rng = rng();
        let input = Tensor::rand_uniform(&[2, 8, 48, 48], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[4, 8, 3, 3], -1.0, 1.0, &mut rng);
        let serial = conv2d(&input, &weight, None, 1, 1);
        let parallel = with_device(Device::Parallel(4), || conv2d(&input, &weight, None, 1, 1));
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn conv_parallel_matches_serial() {
        let mut rng = rng();
        let input = Tensor::rand_uniform(&[4, 3, 10, 10], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[5, 3, 3, 3], -1.0, 1.0, &mut rng);
        let serial = conv2d(&input, &weight, None, 1, 1);
        let parallel = with_device(Device::Parallel(4), || conv2d(&input, &weight, None, 1, 1));
        assert!(serial.allclose(&parallel, 1e-5));
    }

    #[test]
    fn identity_kernel_preserves_image() {
        let img = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d(&img, &weight, None, 1, 0);
        assert_eq!(out, img);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = rng();
        let (c, h, w, k, s, p) = (2, 6, 5, 3, 2, 1);
        let x = Tensor::rand_uniform(&[c, h, w], -1.0, 1.0, &mut rng);
        let col_shape_probe = im2col(&x, k, k, s, p);
        let y = Tensor::rand_uniform(col_shape_probe.shape(), -1.0, 1.0, &mut rng);
        let lhs = col_shape_probe.flatten().dot(&y.flatten());
        let back = col2im(&y, c, h, w, k, k, s, p);
        let rhs = x.flatten().dot(&back.flatten());
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn conv_transpose_inverts_stride_shape() {
        let mut rng = rng();
        let input = Tensor::rand_uniform(&[1, 3, 4, 4], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut rng);
        let out = conv_transpose2d(&input, &weight, None, 2, 0);
        assert_eq!(out.shape(), &[1, 2, 8, 8]);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv() {
        // <conv(x, w), y> == <x, conv_T(y, w')> with w' = w axes swapped.
        let mut rng = rng();
        // Dims chosen so the strided conv tiles exactly: (h + 2p - k) % s == 0,
        // making conv_transpose the exact shape inverse.
        let (c, o, h, w, k, s, p) = (2, 3, 7, 7, 3, 2, 1);
        let x = Tensor::rand_uniform(&[1, c, h, w], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[o, c, k, k], -1.0, 1.0, &mut rng);
        let fwd = conv2d(&x, &wt, None, s, p);
        let y = Tensor::rand_uniform(fwd.shape(), -1.0, 1.0, &mut rng);
        let lhs = fwd.flatten().dot(&y.flatten());
        // conv_transpose2d takes weight [Cin, Cout, kh, kw]; the conv weight
        // [O, C, k, k] already has that layout for the adjoint direction
        // (Cin = O channels of y, Cout = C channels of x).
        let back = conv_transpose2d(&y, &wt, None, s, p);
        assert_eq!(back.shape(), x.shape());
        let rhs = x.flatten().dot(&back.flatten());
        assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch: {lhs} vs {rhs}");
    }

    /// The blocked channels-last copy equals the scalar stride-`C`
    /// scatter it replaced, bit for bit and in its zeroed halo and slack:
    /// channel counts below, at and past one 8-channel block, odd widths,
    /// pads 0–2.
    #[test]
    fn pad_channels_last_equals_the_scalar_scatter() {
        let scatter = |g: &Geom, src: &[f32], dst: &mut [f32]| {
            let (pw, c) = (g.padded().1, g.c);
            dst.fill(0.0);
            for (ch, plane) in src.chunks_exact(g.h * g.w).enumerate() {
                for (i, row) in plane.chunks_exact(g.w).enumerate() {
                    for (x, &v) in row.iter().enumerate() {
                        dst[((g.pad + i) * pw + g.pad + x) * c + ch] = v;
                    }
                }
            }
        };
        let mut rng = rng();
        for c in [1, 2, 3, 6, 8, 16, 17] {
            for (h, w) in [(1, 1), (3, 5), (7, 9), (21, 12), (4, 17)] {
                for pad in 0..=2 {
                    let x = Tensor::rand_uniform(&[1, c, h, w], -1.0, 1.0, &mut rng);
                    let g = Geom::new(&x, 3.min(h + 2 * pad), 3.min(w + 2 * pad), 1, pad);
                    let (ph, pw) = g.padded();
                    let (mut want, mut got) =
                        (vec![0.0; ph * pw * c + 8], vec![f32::NAN; ph * pw * c + 8]);
                    scatter(&g, x.as_slice(), &mut want);
                    g.pad_channels_last(x.as_slice(), &mut got);
                    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "C={c} {h}x{w} pad {pad}");
                }
            }
        }
    }

    #[test]
    fn upsample_nearest_values() {
        let img = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let up = upsample_nearest2d(&img, 2);
        assert_eq!(up.shape(), &[1, 1, 4, 4]);
        assert_eq!(up.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(up.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(up.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(up.at(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn upsample_backward_is_adjoint() {
        let mut rng = rng();
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let up = upsample_nearest2d(&x, 2);
        let y = Tensor::rand_uniform(up.shape(), -1.0, 1.0, &mut rng);
        let lhs = up.flatten().dot(&y.flatten());
        let back = upsample_nearest2d_backward(&y, 2);
        let rhs = x.flatten().dot(&back.flatten());
        assert!((lhs - rhs).abs() < 1e-3);
    }

    /// The AVX+FMA and AVX-512 instances of the one register-block body
    /// give every output the same bits: each accumulator is the same
    /// chain on both tiers, whatever the vector width and the table.
    #[cfg(target_arch = "x86_64")]
    mod tier_parity {
        use super::super::*;
        use std::arch::x86_64::{__m256, __m512};

        /// Why these tests cannot run here, if they cannot.
        fn skip() -> Option<&'static str> {
            match (__m256::supported(), __m512::supported()) {
                (_, true) => None,
                (false, _) => Some("the host has no AVX+FMA"),
                (true, false) => Some("the host has no AVX-512F"),
            }
        }

        fn data(n: usize, seed: u64) -> Vec<f32> {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        }

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|v| v.to_bits()).collect()
        }

        /// Every chain of one block run from `bases`, lanes in position
        /// order: `VY` 8-lane vectors on AVX+FMA, `VZ = VY / 2` 16-lane
        /// ones on AVX-512 — the same positions.
        fn both<const OB: usize, const VY: usize, const VZ: usize, const DENSE: bool>(
            x: &[f32],
            walk: [(usize, usize); 3],
            offs: [usize; VZ],
            rows: [&[f32]; OB],
            init: [f32; OB],
            bases: &[usize],
        ) -> (Vec<u32>, Vec<u32>) {
            assert_eq!(VY, 2 * VZ);
            let offs_y = std::array::from_fn(|v| offs[v / 2] + v % 2 * 8);
            let (mut y, mut z) = (Vec::new(), Vec::new());
            let ymm = Block::<__m256, OB, VY, DENSE>::new(x, walk, offs_y, rows, init);
            ymm.run(bases.iter().copied(), |_, acc| {
                acc.iter().for_each(|a| y.extend(bits(__m256::flat(a))))
            });
            let zmm = Block::<__m512, OB, VZ, DENSE>::new(x, walk, offs, rows, init);
            zmm.run(bases.iter().copied(), |_, acc| {
                acc.iter().for_each(|a| z.extend(bits(__m512::flat(a))))
            });
            (y, z)
        }

        /// One block shape, dense (a direct conv's: taps `(c, ki, kj)` of
        /// a `c × 7 × 11` padded image, 3×3 and 1×1) and windowed (a
        /// weight gradient's: vectors anywhere in a window, a step per
        /// pixel), from ragged bases — a last strip ending anywhere.
        fn shape<const OB: usize, const VY: usize, const VZ: usize>(seed: u64) {
            let (c, ph, pw) = (3, 7, 11);
            let x = data(c * ph * pw + 16 * VZ + 64, seed);
            let w = data(OB * c * 9, seed + 1);
            let rows: [&[f32]; OB] = std::array::from_fn(|r| &w[r * c * 9..][..c * 9]);
            let init = std::array::from_fn(|r| w[r] - 0.5);
            let dense_offs = std::array::from_fn(|v| 16 * v);
            for (kh, kw, bases) in [(3, 3, &[0, 1, 5, 23, 29][..]), (1, 1, &[0, 7, 60][..])] {
                let walk = [(c, ph * pw), (kh, pw), (kw, 1)];
                let (y, z) = both::<OB, VY, VZ, true>(&x, walk, dense_offs, rows, init, bases);
                assert_eq!(y, z, "{OB} x {VZ} zmm dense {kh}x{kw}");
            }
            let offs = std::array::from_fn(|v| [0, 3, 21, 5, 40, 9, 13, 2][v % 8]);
            let walk = [(1, 0), (4, 2 * pw), (5, 3)];
            let (y, z) = both::<OB, VY, VZ, false>(&x, walk, offs, rows, [0.0; OB], &[0, 2]);
            assert_eq!(y, z, "{OB} x {VZ} zmm windowed");
        }

        #[test]
        fn every_block_shape_runs_the_same_chains_on_both_tiers() {
            if let Some(reason) = skip() {
                eprintln!("skipping tier parity: {reason}");
                return;
            }
            // Every AVX-512 table shape, the 1 × 1 block, and the AVX+FMA
            // table's shapes at an even width.
            shape::<1, 2, 1>(1);
            shape::<1, 16, 8>(2);
            shape::<2, 8, 4>(3);
            shape::<3, 8, 4>(4);
            shape::<4, 8, 4>(5);
            shape::<5, 8, 4>(6);
            shape::<6, 8, 4>(7);
            shape::<6, 4, 2>(8);
            shape::<4, 4, 2>(9);
            shape::<2, 4, 2>(10);
        }

        /// Whole convolutions on each tier's table: every channel split
        /// of both tables (1–17, 24, 32 filters) on the oracle's planes,
        /// ragged and 1-wide, 3×3 at pads 0–2, 5×5, the 1×1 and strides
        /// 2 and 3; and their weight gradients, whose windows are `kw·C`
        /// taps long in 8- or 16-lane vectors.
        #[test]
        fn direct_conv_and_weight_grad_equal_on_both_tiers() {
            if let Some(reason) = skip() {
                eprintln!("skipping tier parity: {reason}");
                return;
            }
            let planes = [
                (2, 5, 1),
                (1, 7, 5),
                (2, 9, 13),
                (3, 21, 12),
                (1, 16, 12),
                (1, 8, 8),
            ];
            let widths = (1..=17).chain([24, 32]);
            let banks = widths.flat_map(|o| [1, 2, 6, 17].map(|c| (c, o, 3, 1, 1)));
            let kernels = [
                (3, 4, 3, 1, 0),
                (2, 5, 3, 1, 2),
                (3, 3, 5, 1, 2),
                (5, 7, 1, 1, 0),
            ];
            let strided = [(4, 6, 3, 2, 1), (3, 5, 1, 2, 0), (3, 4, 5, 3, 2)];
            let shapes = banks.chain(kernels).chain(strided);
            for (case, (c, o, k, s, pad)) in shapes.enumerate() {
                for (pi, &(b, h, w)) in planes.iter().enumerate() {
                    if h + 2 * pad < k || w + 2 * pad < k {
                        continue;
                    }
                    let seed = (case * planes.len() + pi) as u64 * 4;
                    let x = Tensor::from_vec(data(b * c * h * w, seed), &[b, c, h, w]);
                    let wt = Tensor::from_vec(data(o * c * k * k, seed + 1), &[o, c, k, k]);
                    let bias = Tensor::from_vec(data(o, seed + 2), &[o]);
                    let (y, z) = (
                        direct::<__m256>(&x, &wt, Some(&bias), s, pad),
                        direct::<__m512>(&x, &wt, Some(&bias), s, pad),
                    );
                    let at = format!("{b}x{c}->{o} at {h}x{w} k={k} s={s} pad={pad}");
                    assert_eq!(bits(y.as_slice()), bits(z.as_slice()), "forward {at}");
                    let g = Tensor::from_vec(data(y.len(), seed + 3), y.shape());
                    let (y, z) = (
                        weight_grad::<__m256>(&x, &g, (k, k), s, pad),
                        weight_grad::<__m512>(&x, &g, (k, k), s, pad),
                    );
                    assert_eq!(bits(y.as_slice()), bits(z.as_slice()), "weight grad {at}");
                }
            }
        }
    }
}
