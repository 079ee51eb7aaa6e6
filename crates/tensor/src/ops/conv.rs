//! Convolution kernels: conv2d and its gradients, conv_transpose2d,
//! im2col/col2im, upsampling. All image tensors are NCHW.
//!
//! One register-block kernel runs every convolution. [`conv2d`] is
//! [`conv2d_direct`], the stride-1 conv; at stride `s` it keeps every
//! `s`-th output row and column of it. [`conv2d_weight_grad`] shares the
//! direct kernel's register block at every stride; at stride 1
//! [`conv2d_input_grad`] is `conv2d` with flipped filters, and
//! [`conv_transpose2d`] is `conv2d_input_grad` plus its bias.
//!
//! The forward, like the reference `conv2d_naive`, starts an output
//! element at its bias and adds its taps in `(c, ki, kj)` order,
//! multiplying and adding as the detected microkernel tier does (fused on
//! AVX+FMA). So it agrees with the unfused reference on exactly
//! representable inputs, and an element's bits depend on its own window
//! alone, not on its batch, the stride, the device or where its plane
//! ends. A weight-gradient element is one chain over the plane per image,
//! the images summed in batch order: the bits of summing
//! `g_b.matmul_nt(&im2col(x_b))`.

#[cfg(target_arch = "x86_64")]
use super::matmul::{simd, Simd};
use crate::device::{parallel_for, Device, SendPtr, PARALLEL_THRESHOLD};
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

/// 2-D convolution. `input [B,C,H,W]`, `weight [O,C,kh,kw]`,
/// optional `bias [O]` → `[B,O,oh,ow]`.
///
/// Runs [`conv2d_direct`]. At stride `s > 1` it keeps every `s`-th row and
/// column of the stride-1 output: those are the strided outputs bit for
/// bit, each its own window's chain from its bias.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d");
    let (b, o, g) = Geom::of_conv(input, weight, bias, stride, pad);
    let full = conv2d_direct(input, weight, bias, pad);
    if stride == 1 {
        return full;
    }
    let (src, fw) = (full.as_slice(), full.shape()[3]);
    let mut out = crate::pool::alloc_uninit(b * o * g.plane());
    for (dst, src) in out
        .chunks_exact_mut(g.plane())
        .zip(src.chunks_exact(full.shape()[2] * fw))
    {
        for (oi, row) in dst.chunks_exact_mut(g.ow).enumerate() {
            let src = src[oi * stride * fw..].iter().step_by(stride);
            row.iter_mut().zip(src).for_each(|(v, &s)| *v = s);
        }
    }
    Tensor::from_vec(out, &[b, o, g.oh, g.ow])
}

/// Pixels in the widest strip of [`conv2d_direct`] (one output channel ×
/// eight 8-lane vectors): the slack after each padded image.
const STRIP: usize = 64;

/// Direct stride-1 convolution, register-blocked. Each image is copied
/// once into a zero-padded buffer; output pixels are then addressed in
/// *padded-width* flat coordinates `q = oi·pw + oj`, in which tap `(c, ki,
/// kj)` of every pixel is the padded image shifted by `c·ph·pw + ki·pw +
/// kj`. A `Block` of up to six output channels × a strip of consecutive
/// `q` stays in registers across all taps, and is written out row by row,
/// dropping each row's `pw − ow` columns past its end. Tasks are images,
/// or bands of output rows (`for_each_image`).
pub fn conv2d_direct(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, pad: usize) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d_direct");
    let (b, o, g) = Geom::of_conv(input, weight, bias, 1, pad);
    let ((ph, pw), taps) = (g.padded(), g.taps());
    let (chan, image) = (ph * pw, g.c * ph * pw + STRIP);
    let mut x = crate::pool::alloc_uninit(b * image);
    let mut out = crate::pool::alloc_uninit(b * o * g.plane());
    let src = input.as_slice();
    let (x_ptr, out_ptr) = (SendPtr(x.as_mut_ptr()), SendPtr(out.as_mut_ptr()));
    // Pad plane `p` (channel `p % C` of image `p / C`), and after an
    // image's last channel zero its slack.
    let pad_plane = |p: usize| {
        let len = chan + STRIP * usize::from((p + 1).is_multiple_of(g.c));
        let at = p / g.c * image + p % g.c * chan;
        debug_assert!(at + len <= b * image);
        // SAFETY: plane `p` and its image's slack lie in `x` and are
        // written by this call alone.
        let dst = unsafe { std::slice::from_raw_parts_mut({ &x_ptr }.0.add(at), len) };
        g.pad_plane(&src[p * g.h * g.w..][..g.h * g.w], dst);
    };
    let d = Direct {
        wt: weight.as_slice(),
        bias: bias.map(|t| t.as_slice()),
        o,
        g,
        out: out_ptr,
    };
    let (flops, copy) = (2 * b * o * taps * g.plane(), b * image);
    for_each_image(b, flops, g.oh, (g.c, &pad_plane), copy, |bi, rows| {
        debug_assert!(bi < b);
        // SAFETY: image `bi` is padded and from here on only read.
        let x = unsafe { std::slice::from_raw_parts({ &x_ptr }.0.add(bi * image), image) };
        for (oc0, ob) in channel_blocks(o) {
            match ob {
                1 => d.strips::<1, 8>(x, bi, oc0, rows),
                2 => d.strips::<2, 4>(x, bi, oc0, rows),
                3 => d.strips::<3, 3>(x, bi, oc0, rows),
                4 => d.strips::<4, 2>(x, bi, oc0, rows),
                5 => d.strips::<5, 2>(x, bi, oc0, rows),
                _ => d.strips::<6, 2>(x, bi, oc0, rows),
            }
        }
    });
    crate::pool::release(x);
    Tensor::from_vec(out, &[b, o, g.oh, g.ow])
}

/// A direct conv's operands besides the padded image: the filters, the
/// bias, the shape and the `[B, O, oh, ow]` output.
struct Direct<'a> {
    wt: &'a [f32],
    bias: Option<&'a [f32]>,
    o: usize,
    g: Geom,
    out: SendPtr<f32>,
}

impl Direct<'_> {
    /// Output channels `oc0..oc0 + OB` of image `bi` (padded as `x`), output
    /// rows `r0..r1`: strips of `8·V` padded-width positions, each written
    /// out row by row — its pixels `q` with `q % pw < ow`.
    fn strips<const OB: usize, const V: usize>(
        &self,
        x: &[f32],
        bi: usize,
        oc0: usize,
        (r0, r1): (usize, usize),
    ) {
        let ((g, (ph, pw)), ow) = ((self.g, self.g.padded()), self.g.ow);
        let (taps, end) = (g.taps(), (r1 - 1) * pw + ow);
        let block = Block::<OB, V, true>::new(
            x,
            [(g.c, ph * pw), (g.kh, pw), (g.kw, 1)],
            std::array::from_fn(|v| 8 * v),
            std::array::from_fn(|r| &self.wt[(oc0 + r) * taps..][..taps]),
            std::array::from_fn(|r| self.bias.map_or(0.0, |b| b[oc0 + r])),
        );
        block.run((r0 * pw..end).step_by(8 * V), |q0, acc| {
            let (mut q, stop) = (q0, (q0 + 8 * V).min(end));
            while q < stop {
                let (oi, oj) = (q / pw, q % pw);
                let n = (pw - oj).min(stop - q);
                if oj < ow {
                    debug_assert!(oi < g.oh && oc0 + OB <= self.o);
                    for (ob, a) in acc.iter().enumerate() {
                        let at = ((bi * self.o + oc0 + ob) * g.oh + oi) * ow + oj;
                        // SAFETY: row `oi` of this image's planes belongs to
                        // this task alone, and `oj + n.min(ow − oj) ≤ ow`.
                        unsafe {
                            let src = a.as_flattened()[q - q0..].as_ptr();
                            std::ptr::copy_nonoverlapping(src, self.out.0.add(at), n.min(ow - oj));
                        }
                    }
                }
                q += n;
            }
        });
    }
}

/// The output-channel blocks `(oc0, width)` of an `o`-filter bank: sixes,
/// then the rest, a last seven or eight going 4 + 3 or 4 + 4. A block of
/// `ob` channels holds [`block_vectors`]`(ob)` vectors.
fn channel_blocks(o: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut oc0 = 0;
    std::iter::from_fn(move || {
        let ob = match o - oc0 {
            0 => return None,
            7 | 8 => 4,
            rest => rest.min(6),
        };
        oc0 += ob;
        Some((oc0 - ob, ob))
    })
}

/// Vectors of 8 lanes a register block of `ob` output channels holds, in
/// both kernels: 6, 5 or 4 × 2, 3 × 3, 2 × 4, 1 × 8, so at most 12
/// accumulators and 15 of the 16 AVX registers (four channels × three
/// vectors need all 16 and spill).
fn block_vectors(ob: usize) -> usize {
    [8, 4, 3, 2, 2, 2][ob - 1]
}

/// One register block's multiply-add chains, the arithmetic of both
/// [`conv2d_direct`] and [`conv2d_weight_grad`]: accumulator `(r, v)`, of
/// `OB` scalar rows × `V` vectors of 8 lanes, starts at `init[r]` and adds
/// `rows[r][i] · x[at + offs[v]..][..8]` for each step `i` in order. The
/// steps are three nested loops: with `walk = [(n0, s0), (n1, s1), (n2,
/// s2)]`, step `(a, b, j)` has origin `at = base + a·s0 + b·s1 + j·s2`.
/// `DENSE` blocks (the direct kernel's) have `offs[v] = 8·v` and `s2 = 1`,
/// which the compiler then folds into each load's address.
struct Block<'a, const OB: usize, const V: usize, const DENSE: bool> {
    x: &'a [f32],
    walk: [(usize, usize); 3],
    offs: [usize; V],
    rows: [&'a [f32]; OB],
    init: [f32; OB],
    /// How far past its base the block reads `x` (0 if it has no step).
    reach: usize,
}

impl<'a, const OB: usize, const V: usize, const DENSE: bool> Block<'a, OB, V, DENSE> {
    /// Panics if a row holds fewer scalars than there are steps.
    fn new(
        x: &'a [f32],
        walk: [(usize, usize); 3],
        offs: [usize; V],
        rows: [&'a [f32]; OB],
        init: [f32; OB],
    ) -> Self {
        let dense = offs.iter().enumerate().all(|(v, &off)| off == 8 * v) && walk[2].1 == 1;
        assert!(dense || !DENSE, "a dense block's vectors are consecutive");
        let steps: usize = walk.iter().map(|&(n, _)| n).product();
        let rows_hold_steps = rows.iter().all(|r| r.len() >= steps);
        assert!(rows_hold_steps, "register block row too short");
        let last: usize = walk.iter().map(|&(n, s)| n.saturating_sub(1) * s).sum();
        let far = offs.iter().max().map_or(0, |&off| off + 8);
        let reach = if steps == 0 { 0 } else { last + far };
        Block {
            x,
            walk,
            offs,
            rows,
            init,
            reach,
        }
    }

    /// The chains from each of `bases` in turn, multiplied and added as the
    /// GEMM microkernel's tier does, each base's accumulators handed to
    /// `emit`: one call for all. Panics if a step would read past `x`.
    fn run(&self, bases: impl Iterator<Item = usize>, mut emit: impl FnMut(usize, &Lanes<OB, V>)) {
        #[cfg(target_arch = "x86_64")]
        if simd() == Simd::Fma {
            // SAFETY: AVX and FMA were detected at runtime.
            return unsafe { self.run_fma(bases, emit) };
        }
        let off = |v: usize| if DENSE { 8 * v } else { self.offs[v] };
        for base in bases {
            self.check(base);
            let mut acc = self.init.map(|w| [[w; 8]; V]);
            self.for_each_step(base, |i, at| {
                for (a, row) in acc.iter_mut().zip(&self.rows) {
                    for (v, lanes) in a.iter_mut().enumerate() {
                        for (v, &s) in lanes.iter_mut().zip(&self.x[at + off(v)..][..8]) {
                            *v += row[i] * s;
                        }
                    }
                }
            });
            emit(base, &acc);
        }
    }

    /// Panics unless every read from `base` lies in `x`.
    #[inline(always)]
    fn check(&self, base: usize) {
        let fits = self.reach == 0 || base + self.reach <= self.x.len();
        assert!(fits, "register block reads past its input");
    }

    /// Call `f(i, at)` for each step `i` in order, `at` its origin.
    #[inline(always)]
    fn for_each_step(&self, base: usize, mut f: impl FnMut(usize, usize)) {
        let [(n0, s0), (n1, s1), (n, stride)] = self.walk;
        let (stride, mut i) = (if DENSE { 1 } else { stride }, 0);
        for a in 0..n0 {
            for b in 0..n1 {
                let at = base + a * s0 + b * s1;
                if n == 3 {
                    // A 3×3 kernel row, unrolled: a loop of three would
                    // spend as much on its own bookkeeping as on one step.
                    f(i, at);
                    f(i + 1, at + stride);
                    f(i + 2, at + 2 * stride);
                } else {
                    (0..n).for_each(|j| f(i + j, at + j * stride));
                }
                i += n;
            }
        }
    }

    /// The chains in AVX registers: per step, a load per vector, a
    /// broadcast per row and, per accumulator, `_mm256_fmadd_ps(s, x,
    /// acc)`. Safety: the CPU supports AVX and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx,fma")]
    unsafe fn run_fma(
        &self,
        bases: impl Iterator<Item = usize>,
        mut emit: impl FnMut(usize, &Lanes<OB, V>),
    ) {
        use std::arch::x86_64::*;
        let rows = self.rows.map(|row| row.as_ptr());
        // Vector `v`'s offset from a step's origin.
        let off = |v: usize| if DENSE { 8 * v } else { self.offs[v] };
        for base in bases {
            self.check(base);
            let mut acc = [[_mm256_setzero_ps(); V]; OB];
            for (a, &w) in acc.iter_mut().zip(&self.init) {
                *a = [_mm256_set1_ps(w); V];
            }
            self.for_each_step(base, |i, at| {
                debug_assert!((0..V).all(|v| at + off(v) + 8 <= self.x.len()));
                debug_assert!(self.rows.iter().all(|row| i < row.len()));
                // SAFETY: `check` found `base` plus the farthest step origin
                // and vector (`reach`) inside `x`, and `new` that every row
                // holds a scalar per step.
                let src = self.x.as_ptr().add(at);
                let xs: [__m256; V] = std::array::from_fn(|v| _mm256_loadu_ps(src.add(off(v))));
                for (a, row) in acc.iter_mut().zip(&rows) {
                    let s = _mm256_broadcast_ss(&*row.add(i));
                    for (av, &xv) in a.iter_mut().zip(&xs) {
                        *av = _mm256_fmadd_ps(s, xv, *av);
                    }
                }
            });
            let mut lanes = [[[0.0; 8]; V]; OB];
            for (dst, a) in lanes.iter_mut().zip(&acc) {
                for (d, &v) in dst.iter_mut().zip(a) {
                    _mm256_storeu_ps(d.as_mut_ptr(), v);
                }
            }
            emit(base, &lanes);
        }
    }
}

/// A register block's accumulators: `OB` rows × `V` vectors of 8 lanes.
type Lanes<const OB: usize, const V: usize> = [[[f32; 8]; V]; OB];

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
    /// channels from `(y·pw + x)·C` — and zero the rest of `dst`.
    fn pad_channels_last(&self, src: &[f32], dst: &mut [f32]) {
        let ((_, pw), (c, pad, w)) = (self.padded(), (self.c, self.pad, self.w));
        let (head, body) = dst.split_at_mut(pad * pw * c);
        head.fill(0.0);
        let (body, tail) = body.split_at_mut(self.h * pw * c);
        tail.fill(0.0);
        for (i, row) in body.chunks_exact_mut(pw * c).enumerate() {
            let (left, rest) = row.split_at_mut(pad * c);
            let (inner, right) = rest.split_at_mut(w * c);
            left.fill(0.0);
            right.fill(0.0);
            for (ch, plane) in src.chunks_exact(self.h * w).enumerate() {
                for (px, &v) in inner.chunks_exact_mut(c).zip(&plane[i * w..][..w]) {
                    px[ch] = v;
                }
            }
        }
    }
}

/// Run `work(bi, units)` for every image `bi` on the current device,
/// `units` a range of `0..n` (output rows or register blocks): a task per
/// image, or — when a conv past [`CONV_PARALLEL_FLOPS`] has fewer images
/// than threads — per band of `0..n`. With `prep = (per, f)`, `f(i)` first
/// readies item `i` of `per` per image (its planes, or the whole image):
/// in an image's own task, or, before bands fan out, across the batch — in
/// parallel when it copies `copy` ≥ [`PARALLEL_THRESHOLD`] floats. No
/// element's arithmetic depends on the split.
fn for_each_image(
    b: usize,
    flops: usize,
    n: usize,
    (per, prep): (usize, &(dyn Fn(usize) + Sync)),
    copy: usize,
    work: impl Fn(usize, (usize, usize)) + Sync,
) {
    let threads = Device::current().threads();
    let parallel = threads > 1 && flops >= CONV_PARALLEL_FLOPS;
    let bands = (if parallel { threads / b.max(1) } else { 1 }).clamp(1, n.max(1));
    let band = n.div_ceil(bands);
    if bands > 1 && copy >= PARALLEL_THRESHOLD {
        parallel_for(b * per, prep);
    } else if bands > 1 {
        (0..b * per).for_each(prep);
    }
    let task = |t: usize| {
        let (bi, u0) = (t / bands, t % bands * band);
        if bands == 1 {
            (bi * per..(bi + 1) * per).for_each(prep);
        }
        if u0 < n {
            work(bi, (u0, (u0 + band).min(n)));
        }
    };
    if parallel {
        parallel_for(b * bands, task);
    } else {
        (0..b * bands).for_each(task);
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
/// row's taps are never stored. Tasks are images, or bands of an image's
/// blocks (`for_each_image`).
pub fn conv2d_weight_grad(
    input: &Tensor,
    grad: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d_weight_grad");
    let (b, o) = (grad.shape()[0], grad.shape()[1]);
    let g = Geom::new(input, kernel.0, kernel.1, stride, pad);
    let expected = [input.shape()[0], o, g.oh, g.ow];
    assert_eq!(grad.shape(), &expected, "conv2d grad shape mismatch");
    let ((ph, pw), taps, run) = (g.padded(), g.taps(), g.kw * g.c);
    // The channels-last image, then slack for the last window's last
    // vector, which reads up to 7 floats past its row's taps.
    let image = ph * pw * g.c + 8;
    let n = g.kh * run.div_ceil(8);
    let mut x = crate::pool::alloc_uninit(b * image);
    let mut parts = crate::pool::alloc_uninit(b * o * taps);
    let (src, x_ptr) = (input.as_slice(), SendPtr(x.as_mut_ptr()));
    let fill = |bi: usize| {
        debug_assert!(bi < b);
        // SAFETY: image `bi`'s slot lies in `x` and is written by this
        // call alone.
        let dst = unsafe { std::slice::from_raw_parts_mut({ &x_ptr }.0.add(bi * image), image) };
        g.pad_channels_last(&src[bi * g.c * g.h * g.w..][..g.c * g.h * g.w], dst);
    };
    let wg = WeightGrad {
        grad: grad.as_slice(),
        o,
        g,
        parts: SendPtr(parts.as_mut_ptr()),
    };
    // Register blocks: filters `oc0..oc0 + ob` × window vectors from `j0`.
    let blocks = || {
        let vectors = |ob| (0..n).step_by(block_vectors(ob));
        channel_blocks(o).flat_map(move |(oc0, ob)| vectors(ob).map(move |j0| (oc0, ob, j0)))
    };
    let flops = 2 * b * o * taps * g.plane();
    let (units, copy) = (blocks().count(), b * image);
    for_each_image(b, flops, units, (1, &fill), copy, |bi, (u0, u1)| {
        debug_assert!(bi < b);
        // SAFETY: image `bi` is copied and from here on only read.
        let x = unsafe { std::slice::from_raw_parts({ &x_ptr }.0.add(bi * image), image) };
        for (oc0, ob, j0) in blocks().skip(u0).take(u1 - u0) {
            match ob {
                1 => wg.store::<1, 8>(x, bi, oc0, j0),
                2 => wg.store::<2, 4>(x, bi, oc0, j0),
                3 => wg.store::<3, 3>(x, bi, oc0, j0),
                4 => wg.store::<4, 2>(x, bi, oc0, j0),
                5 => wg.store::<5, 2>(x, bi, oc0, j0),
                _ => wg.store::<6, 2>(x, bi, oc0, j0),
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

/// A weight gradient's operands besides the channels-last image: the
/// output gradient, the shape and the per-image slabs, `[O, kh, kw·C]`
/// each — a window's own order.
struct WeightGrad<'a> {
    grad: &'a [f32],
    o: usize,
    g: Geom,
    parts: SendPtr<f32>,
}

impl WeightGrad<'_> {
    /// Filters `oc0..oc0 + OB` × window vectors `j0..j0 + V` of image `bi`
    /// (channels-last `x`), each chain from `+0` a step per output pixel
    /// (the window's origin moves `stride·C` along an output row), stored
    /// into the image's slab. Past the window's last vector the block
    /// repeats it and drops the copy.
    fn store<const OB: usize, const V: usize>(&self, x: &[f32], bi: usize, oc0: usize, j0: usize) {
        let (g, (_, pw)) = (self.g, self.g.padded());
        let (plane, taps, run) = (g.plane(), g.taps(), g.kw * g.c);
        let (nv, n) = (run.div_ceil(8), g.kh * run.div_ceil(8));
        // Vector `j` of a window: kernel row `j / nv`, taps `r0..` of it.
        let at = |j: usize| (j / nv, j % nv * 8);
        let block = Block::<OB, V, false>::new(
            x,
            [(1, 0), (g.oh, g.stride * pw * g.c), (g.ow, g.stride * g.c)],
            std::array::from_fn(|v| at((j0 + v).min(n - 1))).map(|(ki, r0)| ki * pw * g.c + r0),
            std::array::from_fn(|r| &self.grad[(bi * self.o + oc0 + r) * plane..][..plane]),
            [0.0; OB],
        );
        block.run(std::iter::once(0), |_, acc| {
            for (r, a) in acc.iter().enumerate() {
                for (j, vals) in (j0..n).zip(a) {
                    let (ki, r0) = at(j);
                    let (dst, live) = (
                        (bi * self.o + oc0 + r) * taps + ki * run + r0,
                        (run - r0).min(8),
                    );
                    debug_assert!(oc0 + r < self.o && ki * run + r0 + live <= taps);
                    // SAFETY: `oc0 + r < O` and the `live` taps from `r0` lie in
                    // kernel row `ki` of that filter's row of image `bi`'s slab in
                    // `parts`, written by this block alone.
                    unsafe {
                        std::ptr::copy_nonoverlapping(vals.as_ptr(), self.parts.0.add(dst), live)
                    };
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
/// over-padded, or non-square) convs scatter `Wᵀ·g` through [`col2im`].
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
    let w_mat = weight.reshape(&[o, c * kh * kw]);
    let plane = grad.shape()[2] * grad.shape()[3];
    let parts = crate::device::parallel_map(grad.shape()[0], |bi| {
        let col = w_mat.matmul_tn(&grad.index_axis(0, bi).reshape(&[o, plane]));
        col2im(&col, c, h, wd, kh, kw, stride, pad)
    });
    Tensor::stack(&parts.iter().collect::<Vec<_>>())
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
}
