//! Convolution kernels: conv2d and its gradients, conv_transpose2d,
//! im2col/col2im, upsampling.
//!
//! All image tensors use the NCHW layout. The production [`conv2d`] is a
//! dispatcher over two lowerings:
//!
//! * **stride 1, any filter but an unpadded 1×1** — [`conv2d_direct`]: up
//!   to four output channels × a strip of pixels held in registers across
//!   every filter tap, each tap one shifted load of the padded input.
//! * **strided, or an unpadded 1×1** — a column-free GEMM. Convolution is a *panel
//!   source* of the blocked GEMM in [`super::matmul`]: the filter bank
//!   is packed once per call, then per image the `B` panels are packed
//!   straight from the image through an im2col *view* (halo read as zero:
//!   no padded copy, no column matrix) and the `C` tiles are the output
//!   planes themselves.
//!
//! The gradients use the same seam: [`conv2d_weight_grad`] packs the
//! image's taps from a padded copy as whichever operand puts the wider of
//! taps and filters on the microkernel's lanes, and at stride 1
//! [`conv2d_input_grad`] is `conv2d` with flipped filters.
//! [`im2col`]/[`col2im`] remain as explicit helpers for
//! `conv_transpose2d`, the strided input gradient and the tests.
//!
//! Both lowerings, like the sliding-window reference `conv2d_naive`,
//! start an output element at its bias and add its taps in `(c, ki, kj)`
//! order, and both multiply and add as the detected microkernel tier
//! does — fused on AVX+FMA — for every element. So the two lowerings
//! agree bit for bit on any input, and with the unfused naive reference
//! on exactly representable (lattice) inputs. An element's bits depend on
//! its own window alone: not on the batch it rode in, the device, or
//! where its plane ends.

use super::matmul::{gemm_block, Dense, PackedA, PanelSource, Simd, KC, MR, NR};
use super::shape_ops::transpose_into;
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
    assert_eq!(img.ndim(), 3, "im2col expects [C,H,W], got {:?}", img.shape());
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
/// Dispatches on the *filter* (see the module docs): the register-blocked
/// direct kernel at stride 1, the column-free GEMM for a strided filter
/// or an unpadded 1×1, whose column matrix is the image itself. Both
/// start each output element at its bias and add its taps in
/// `(c, ki, kj)` order with the microkernel tier's multiply-add, so which
/// one runs never changes a bit. The rule reads the filter alone — never
/// the plane or the batch.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d");
    let (_, _, g) = Geom::of_conv(input, weight, bias, stride, pad);
    if stride == 1 && (g.kh * g.kw > 1 || pad > 0) {
        geotorch_telemetry::count!("tensor.conv2d.direct", 1);
        conv2d_direct(input, weight, bias, pad)
    } else {
        geotorch_telemetry::count!("tensor.conv2d.gemm", 1);
        conv2d_gemm(input, weight, bias, stride, pad)
    }
}

/// Flat pixels × output channels one register block of [`conv2d_direct`]
/// covers at most: eight 8-lane accumulators.
const STRIP: usize = 64;

/// Direct stride-1 convolution, register-blocked. Each image is copied
/// once into a zero-padded buffer; output pixels are then addressed in
/// *padded-width* flat coordinates `q = oi·pw + oj`, in which tap
/// `(ic, ki, kj)` of every pixel is the padded channel shifted by
/// `ki·pw + kj`. Up to four output channels × a strip of consecutive `q`
/// (64 wide at one channel, 32 at two, 16 at three or four) live in
/// registers across all `C·kh·kw` taps — each tap one shifted load per
/// lane group and a multiply-add per channel — and a strip, which may
/// span rows, is written out row by row, dropping each row's `pw − ow`
/// columns past its end.
/// Every element starts at its bias and adds its taps in `(c, ki, kj)`
/// order, fused exactly when the GEMM microkernel fuses: the GEMM
/// lowering's arithmetic, and `conv2d_naive`'s on a host without FMA.
/// Tasks are images, or bands of output rows when a large conv has fewer
/// images than threads; neither changes any element's arithmetic. An
/// image task pads its own image before convolving it. Row bands share
/// an image, so its planes are padded before they fan out: one task per
/// plane when the copy reaches [`PARALLEL_THRESHOLD`] elements (the
/// elementwise kernels' rule), else on the calling thread.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d_direct");
    let (b, o, g) = Geom::of_conv(input, weight, bias, 1, pad);
    let (ph, pw) = g.padded();
    // Each padded image is followed by `STRIP` slack floats, so a strip
    // may run past its last row without reading another image.
    let (chan, image) = (ph * pw, g.c * ph * pw + STRIP);
    let mut x = crate::pool::alloc_uninit(b * image);
    let mut out = crate::pool::alloc_uninit(b * o * g.plane());
    let src = input.as_slice();
    let (x_ptr, out_ptr) = (SendPtr(x.as_mut_ptr()), SendPtr(out.as_mut_ptr()));
    // Pad plane `p` (channel `p % C` of image `p / C`), and after an
    // image's last channel zero its slack.
    let pad_plane = |p: usize| {
        let len = if (p + 1).is_multiple_of(g.c) { chan + STRIP } else { chan };
        let at = p / g.c * image + p % g.c * chan;
        // SAFETY: plane `p` and its image's slack lie in `x` and are
        // written by this call alone.
        let dst = unsafe { std::slice::from_raw_parts_mut({ &x_ptr }.0.add(at), len) };
        g.pad_plane(&src[p * g.h * g.w..][..g.h * g.w], dst);
    };
    let d = Direct { wt: weight.as_slice(), bias: bias.map(|t| t.as_slice()), o, g };
    let threads = Device::current().threads();
    let parallel = threads > 1 && 2 * b * o * g.taps() * g.plane() >= CONV_PARALLEL_FLOPS;
    let bands = if parallel { (threads / b.max(1)).clamp(1, g.oh) } else { 1 };
    let rows = g.oh.div_ceil(bands);
    // Row bands share an image, so it is padded before they fan out. One
    // task per plane pays on a large copy (a batch-1 12→4 conv at 128²:
    // 257–281 → 200–266 µs on 2 vCPUs) and costs a small one its wake-up
    // (SatCNN's batch-1 16→32 conv at 32²: 45–50 → 60–73 µs).
    if bands > 1 {
        if b * image >= PARALLEL_THRESHOLD {
            parallel_for(b * g.c, pad_plane);
        } else {
            (0..b * g.c).for_each(pad_plane);
        }
    }
    let task = |t: usize| {
        let (bi, r0) = (t / bands, t % bands * rows);
        if bands == 1 {
            (bi * g.c..(bi + 1) * g.c).for_each(pad_plane);
        }
        // SAFETY: image `bi` is padded (by this task, or before the fan-out)
        // and from here on only read.
        let x = unsafe { std::slice::from_raw_parts({ &x_ptr }.0.add(bi * image), image) };
        for oc0 in (0..o).step_by(4) {
            d.block(x, bi, oc0, (r0, (r0 + rows).min(g.oh)), out_ptr);
        }
    };
    if parallel {
        parallel_for(b * bands, task);
    } else {
        (0..b * bands).for_each(task);
    }
    crate::pool::release(x);
    Tensor::from_vec(out, &[b, o, g.oh, g.ow])
}

/// A direct conv's operands besides the padded image: filters, bias, shape.
struct Direct<'a> {
    wt: &'a [f32],
    bias: Option<&'a [f32]>,
    o: usize,
    g: Geom,
}

/// One strip's accumulators: `OB` output channels × `V` groups of 8 lanes.
type Strip<const OB: usize, const V: usize> = [[[f32; 8]; V]; OB];

impl Direct<'_> {
    /// Output channels `oc0..` (up to four) of image `bi`, padded as `x`
    /// (its channels, then `STRIP` slack), output rows `r0..r1`, into the
    /// `[B, O, oh, ow]` buffer at `out`.
    fn block(&self, x: &[f32], bi: usize, oc0: usize, rows: (usize, usize), out: SendPtr<f32>) {
        match self.o - oc0 {
            1 => self.strips::<1, { STRIP / 8 }>(x, bi, oc0, rows, out),
            2 => self.strips::<2, { STRIP / 16 }>(x, bi, oc0, rows, out),
            3 => self.strips::<3, { STRIP / 32 }>(x, bi, oc0, rows, out),
            _ => self.strips::<4, { STRIP / 32 }>(x, bi, oc0, rows, out),
        }
    }

    /// `OB` output channels from `oc0`, `8·V` flat pixels at a time,
    /// across padded-width positions `r0·pw .. (r1−1)·pw + ow`, each strip
    /// written out row by row: its pixels `q` with `q % pw < ow`.
    fn strips<const OB: usize, const V: usize>(
        &self,
        x: &[f32],
        bi: usize,
        oc0: usize,
        (r0, r1): (usize, usize),
        out: SendPtr<f32>,
    ) {
        let ((_, pw), ow) = (self.g.padded(), self.g.ow);
        let end = (r1 - 1) * pw + ow;
        for q0 in (r0 * pw..end).step_by(8 * V) {
            let acc = self.strip::<OB, V>(x, oc0, q0);
            let (mut q, stop) = (q0, (q0 + 8 * V).min(end));
            while q < stop {
                let (oi, oj) = (q / pw, q % pw);
                let n = (pw - oj).min(stop - q);
                if oj < ow {
                    for (ob, a) in acc.iter().enumerate() {
                        let at = ((bi * self.o + oc0 + ob) * self.g.oh + oi) * ow + oj;
                        // SAFETY: row `oi` of this image's planes belongs to
                        // this task alone, and `oj + n.min(ow − oj) ≤ ow`.
                        unsafe {
                            let src = a.as_flattened()[q - q0..].as_ptr();
                            std::ptr::copy_nonoverlapping(src, out.0.add(at), n.min(ow - oj));
                        }
                    }
                }
                q += n;
            }
        }
    }

    /// One strip from flat position `q0`: each accumulator starts at its
    /// channel's bias and adds `w · x` for every tap in `(c, ki, kj)`
    /// order, multiplying and adding as the GEMM microkernel's tier does
    /// (here, without AVX: multiply then add).
    fn strip<const OB: usize, const V: usize>(
        &self,
        x: &[f32],
        oc0: usize,
        q0: usize,
    ) -> Strip<OB, V> {
        let (g, (ph, pw)) = (self.g, self.g.padded());
        let (chan, taps) = (ph * pw, g.taps());
        #[cfg(target_arch = "x86_64")]
        match super::matmul::simd() {
            // SAFETY: AVX and FMA were detected at runtime.
            Simd::Fma if taps > 0 => return unsafe { self.strip_fma::<OB, V>(x, oc0, q0) },
            // SAFETY: AVX was detected at runtime.
            Simd::Avx if taps > 0 => return unsafe { self.strip_avx::<OB, V>(x, oc0, q0) },
            _ => {}
        }
        let mut acc: Strip<OB, V> =
            std::array::from_fn(|ob| [[self.bias.map_or(0.0, |b| b[oc0 + ob]); 8]; V]);
        for t in 0..taps {
            let (ic, ki, kj) = (t / (g.kh * g.kw), t / g.kw % g.kh, t % g.kw);
            let xs = &x[ic * chan + q0 + ki * pw + kj..][..8 * V];
            for (ob, a) in acc.iter_mut().enumerate() {
                let wv = self.wt[(oc0 + ob) * taps + t];
                for (v, &s) in a.as_flattened_mut().iter_mut().zip(xs) {
                    *v += wv * s;
                }
            }
        }
        acc
    }

    /// [`Direct::strip_simd`] fused, on the GEMM's `avx+fma` tier.
    ///
    /// # Safety
    /// As [`Direct::strip_simd`], and the CPU must support FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx,fma")]
    unsafe fn strip_fma<const OB: usize, const V: usize>(
        &self,
        x: &[f32],
        oc0: usize,
        q0: usize,
    ) -> Strip<OB, V> {
        self.strip_simd::<OB, V, true>(x, oc0, q0)
    }

    /// [`Direct::strip_simd`] unfused, on the GEMM's `avx` tier.
    ///
    /// # Safety
    /// As [`Direct::strip_simd`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn strip_avx<const OB: usize, const V: usize>(
        &self,
        x: &[f32],
        oc0: usize,
        q0: usize,
    ) -> Strip<OB, V> {
        self.strip_simd::<OB, V, false>(x, oc0, q0)
    }

    /// [`Direct::strip`] in AVX registers: the strip's `OB·V` accumulators
    /// stay in registers across all taps; each tap is `V` unaligned loads,
    /// one broadcast per channel and, per accumulator, the microkernel's
    /// multiply-add — `_mm256_fmadd_ps(w, x, acc)` when `FUSED`, else
    /// `_mm256_mul_ps` then `_mm256_add_ps`. Always inlined into one of the
    /// two wrappers above, which enable the features it uses.
    ///
    /// # Safety
    /// The CPU must support AVX (and FMA when `FUSED`), and the filter bank
    /// have at least one tap.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn strip_simd<const OB: usize, const V: usize, const FUSED: bool>(
        &self,
        x: &[f32],
        oc0: usize,
        q0: usize,
    ) -> Strip<OB, V> {
        use std::arch::x86_64::*;
        let (g, (ph, pw)) = (self.g, self.g.padded());
        let (chan, taps) = (ph * pw, g.taps());
        // Every tap's `8·V` lanes: the slice bounds-checks the last one (the
        // padded image holds `STRIP` slack floats past its last row).
        let span = (g.c - 1) * chan + (g.kh - 1) * pw + g.kw - 1 + 8 * V;
        let x = &x[q0..][..span];
        let wt = &self.wt[oc0 * taps..][..OB * taps];
        let mut acc: [[__m256; V]; OB] =
            std::array::from_fn(|ob| [_mm256_set1_ps(self.bias.map_or(0.0, |b| b[oc0 + ob])); V]);
        let mut t = 0;
        for ic in 0..g.c {
            for ki in 0..g.kh {
                for kj in 0..g.kw {
                    // SAFETY: `src + 8·V` is at most `span` into `x`, and
                    // `ob·taps + t < OB·taps`, the length of `wt`.
                    let src = x.as_ptr().add(ic * chan + ki * pw + kj);
                    let xs: [__m256; V] = std::array::from_fn(|v| _mm256_loadu_ps(src.add(8 * v)));
                    for (ob, a) in acc.iter_mut().enumerate() {
                        let wv = _mm256_set1_ps(*wt.get_unchecked(ob * taps + t));
                        for (av, &xv) in a.iter_mut().zip(&xs) {
                            *av = if FUSED {
                                _mm256_fmadd_ps(wv, xv, *av)
                            } else {
                                _mm256_add_ps(*av, _mm256_mul_ps(wv, xv))
                            };
                        }
                    }
                    t += 1;
                }
            }
        }
        // SAFETY: an `__m256` is eight `f32` lanes, in order.
        std::mem::transmute_copy(&acc)
    }
}

/// The shape of one lowering: image extent, kernel, stride, zero padding
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
        let (oh, ow) = (conv_out_len(h, kh, stride, pad), conv_out_len(w, kw, stride, pad));
        Geom { c, h, w, kh, kw, stride, pad, oh, ow }
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
        assert_eq!(g.c, wc, "conv2d channel mismatch: input {}, weight {wc}", g.c);
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

    /// Whether input coordinate `(y, x)` is inside the image rather than
    /// its zero halo (a negative coordinate wraps past any extent).
    fn holds(&self, y: i32, x: i32) -> bool {
        ((y as u32) < self.h as u32) & ((x as u32) < self.w as u32)
    }
}

/// The im2col matrix `[C·kh·kw, oh·ow]` of one image `x [C,H,W]` as a
/// GEMM panel source: panels are packed straight from the image, the
/// halo reads as zero, and no column matrix exists.
struct Im2col<'a> {
    x: &'a [f32],
    g: Geom,
}

impl PanelSource for Im2col<'_> {
    fn pack(&self, bp: &mut [f32], pc: usize, jc: usize, kc: usize, nc: usize) {
        let g = self.g;
        let (hw, kk, pad) = (g.h * g.w, g.kh * g.kw, g.pad as i32);
        // Per tap: its offset from a window's origin and, for the current
        // column block, which lanes it reads inside the image.
        let mut taps: Vec<(isize, [bool; NR])> = (0..kk)
            .map(|t| ((t / g.kw * g.w + t % g.kw) as isize, [false; NR]))
            .collect();
        let (mut oi, mut oj) = (jc / g.ow, jc % g.ow);
        for (jb, dst) in bp[..nc.div_ceil(NR) * kc * NR].chunks_exact_mut(kc * NR).enumerate() {
            // Input coordinate of each lane's window origin; lanes past the
            // plane sit far outside the image and so read as zero.
            let mut origin = [(i32::MIN / 2, 0i32); NR];
            for o in origin.iter_mut().take(nc - jb * NR) {
                *o = ((oi * g.stride) as i32 - pad, (oj * g.stride) as i32 - pad);
                (oi, oj) = if oj + 1 == g.ow { (oi + 1, 0) } else { (oi, oj + 1) };
            }
            for (t, (_, inside)) in taps.iter_mut().enumerate() {
                let (ki, kj) = ((t / g.kw) as i32, (t % g.kw) as i32);
                for (m, &(y, x)) in inside.iter_mut().zip(&origin) {
                    *m = g.holds(y + ki, x + kj);
                }
            }
            let lane = origin.map(|(y, x)| y as isize * g.w as isize + x as isize);
            // Panel rows in order: tap `(c, ki, kj)` of every channel in turn.
            let (mut t, mut chan) = (pc % kk, (pc / kk * hw) as isize);
            for row in dst.chunks_exact_mut(NR) {
                let (off, inside) = &taps[t];
                for l in 0..NR {
                    row[l] = if inside[l] {
                        self.x[(chan + off + lane[l]) as usize]
                    } else {
                        0.0
                    };
                }
                (t, chan) = if t + 1 == kk { (0, chan + hw as isize) } else { (t + 1, chan) };
            }
        }
    }
}

/// Run `gemm(image, band)` for every image of a batch on the current
/// device: one task per image, or — when a large conv has fewer images
/// than threads — per `NR`-aligned band of an image's `0..n`. Every tile
/// of an image's product is computed the same way whichever batch or
/// band it rides in, so a sample's result never depends on its batch.
fn for_each_image(b: usize, n: usize, flops: usize, gemm: impl Fn(usize, (usize, usize)) + Sync) {
    let threads = Device::current().threads();
    if threads == 1 || flops < CONV_PARALLEL_FLOPS {
        (0..b).for_each(|bi| gemm(bi, (0, n)));
        return;
    }
    let bands = (threads / b).clamp(1, n.div_ceil(NR));
    let band = n.div_ceil(bands).div_ceil(NR) * NR;
    let bands = n.div_ceil(band);
    parallel_for(b * bands, |t| {
        let c0 = t % bands * band;
        gemm(t / bands, (c0, (c0 + band).min(n)));
    });
}

/// Column-free GEMM convolution: the `[O, C·kh·kw]` filter bank is packed
/// once, then each image is one blocked GEMM whose `B` panels are packed
/// straight from the image ([`Im2col`]) and whose `C` tiles are the
/// output planes themselves, initialised to the bias.
fn conv2d_gemm(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, o, g) = Geom::of_conv(input, weight, bias, stride, pad);
    let (plane, taps) = (g.plane(), g.taps());
    let mut out = crate::pool::alloc_uninit(b * o * plane);
    for (row, dst) in out.chunks_exact_mut(plane.max(1)).enumerate() {
        dst.fill(bias.map_or(0.0, |t| t.as_slice()[row % o]));
    }
    if plane > 0 && taps > 0 {
        let filters = PackedA::pack(Dense::rows(weight.as_slice(), taps), o, taps);
        let x = input.as_slice();
        let out_ptr = SendPtr(out.as_mut_ptr());
        // An unpadded stride-1 1×1 conv's column matrix is the image itself.
        let pointwise = taps == g.c && stride == 1 && pad == 0;
        for_each_image(b, plane, 2 * b * o * taps * plane, |bi, cols| {
            let x = &x[bi * g.c * g.h * g.w..][..g.c * g.h * g.w];
            // SAFETY: each (image, column band) owns a disjoint part of `out`.
            let c = SendPtr(unsafe { { &out_ptr }.0.add(bi * o * plane) });
            if pointwise {
                gemm_block(&filters, &Dense::rows(x, plane), c, plane, cols);
            } else {
                gemm_block(&filters, &Im2col { x, g }, c, plane, cols);
            }
        });
    }
    Tensor::from_vec(out, &[b, o, g.oh, g.ow])
}

/// The im2col matrix of one *zero-padded* image `x [C, H+2·pad, W+2·pad]`,
/// read tap by tap for the weight gradient: tap `(c, ki, kj)` of output
/// pixel `(oi, oj)` is `x[(c·ph + oi·s + ki)·pw + oj·s + kj]`, so the halo
/// needs no test.
#[derive(Clone, Copy)]
struct PaddedTaps<'a> {
    x: &'a [f32],
    g: Geom,
}

impl PaddedTaps<'_> {
    /// Pack taps `t0..t0+rows` over pixels `p0..p0+kc` as the `N` lanes of
    /// a micro-panel (`dst[p·N + r]`, `kc = dst.len() / N`, lanes
    /// `rows..N` zero): the left operand's panel at `N = MR`, the right's
    /// at `NR`. Along an output row each tap reads one run of the padded
    /// image (every `s`-th element), so a full block streams its `N` runs
    /// in step and writes each pixel's `N` lanes as one copy.
    fn pack<const N: usize>(&self, t0: usize, rows: usize, p0: usize, dst: &mut [f32]) {
        let (g, (ph, pw)) = (self.g, self.g.padded());
        let kk = g.kh * g.kw;
        // Each lane's offset from a window's origin, stepped through
        // `(c, ki, kj)` order from `t0`; lanes past `rows` repeat the last
        // tap and are zeroed after.
        let (mut c, mut ki, mut kj, mut off) = (t0 / kk, t0 % kk / g.kw, t0 % g.kw, 0);
        let lanes: [usize; N] = std::array::from_fn(|r| {
            if r < rows {
                off = (c * ph + ki) * pw + kj;
                (c, ki, kj) = match (ki + 1 == g.kh, kj + 1 == g.kw) {
                    (true, true) => (c + 1, 0, 0),
                    (false, true) => (c, ki + 1, 0),
                    _ => (c, ki, kj + 1),
                };
            }
            off
        });
        let (mut oi, mut oj, mut rest) = (p0 / g.ow, p0 % g.ow, dst);
        while !rest.is_empty() {
            // This output row's pixels from `oj` on, up to the panel's end.
            let n = (g.ow - oj).min(rest.len() / N);
            let (origin, span) = ((oi * pw + oj) * g.stride, (n - 1) * g.stride + 1);
            let src: [&[f32]; N] = std::array::from_fn(|r| &self.x[origin + lanes[r]..][..span]);
            let (run, tail) = rest.split_at_mut(n * N);
            for (j, px) in run.chunks_exact_mut(N).enumerate() {
                px.copy_from_slice(&std::array::from_fn::<f32, N, _>(|r| src[r][j * g.stride]));
                px[rows..].fill(0.0);
            }
            (oi, oj, rest) = (oi + 1, 0, tail);
        }
    }
}

/// The transposed im2col matrix `[oh·ow, C·kh·kw]` from pixel `p0` down,
/// as a panel source: a micro-panel's lanes are `NR` taps.
struct TapPanels<'a> {
    taps: PaddedTaps<'a>,
    p0: usize,
}

impl PanelSource for TapPanels<'_> {
    fn pack(&self, bp: &mut [f32], pc: usize, jc: usize, kc: usize, nc: usize) {
        for (jb, dst) in bp[..nc.div_ceil(NR) * kc * NR].chunks_exact_mut(kc * NR).enumerate() {
            self.taps.pack::<NR>(jc + jb * NR, NR.min(nc - jb * NR), self.p0 + pc, dst);
        }
    }
}

/// Gradient of [`conv2d`] with respect to its weight, `[O,C,kh,kw]`, for
/// `input [B,C,H,W]` and output gradient `grad [B,O,oh,ow]`: per image
/// the product of `g_b [O, plane]` and `im2col(x_b)ᵀ`, whose depth is the
/// plane. `g_b` is read in place as a dense matrix, the taps are packed
/// from one zero-padded copy of the input (`PaddedTaps`), and the wider
/// of `O` and the taps goes on the microkernel's lanes, as in the GEMM's
/// skinny rule: with `O ≥ NR` filters the product is computed as its
/// transpose `im2col(x_b) · g_bᵀ`, the taps down the rows. Either way an
/// element is the chain `fma(g, x, acc)` (or its swap, the same bits) over
/// the plane in pixel order. The per-image slabs are summed in batch
/// order, so every device gives the bits of summing
/// `g_b.matmul_nt(&im2col(x_b))` over the batch in order.
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
    assert_eq!(grad.shape(), &[input.shape()[0], o, g.oh, g.ow], "conv2d grad shape mismatch");
    let (plane, taps) = (g.plane(), g.taps());
    // Transposed (`[taps, O]` slabs) when the filters fill the lanes.
    let transposed = o >= NR;
    let mut parts = crate::pool::Buffer::zeroed(b.max(1) * taps * o);
    if plane > 0 {
        let padded = input.pad2d(pad);
        let (x, gs) = (padded.as_slice(), grad.as_slice());
        let image_len = g.c * g.padded().0 * g.padded().1;
        let parts_ptr = SendPtr(parts.as_mut_slice().as_mut_ptr());
        for_each_image(b, taps, 2 * b * o * taps * plane, |bi, (t0, t1)| {
            let image = PaddedTaps { x: &x[bi * image_len..][..image_len], g };
            let g_b = &gs[bi * o * plane..][..o * plane];
            // SAFETY: each (image, tap band) owns taps t0..t1 of its slab.
            let slab = unsafe { { &parts_ptr }.0.add(bi * taps * o) };
            for p0 in (0..plane).step_by(KC) {
                let kc = KC.min(plane - p0);
                if transposed {
                    let a = PackedA::pack_with(t1 - t0, kc, |i0, rows, p, dst| {
                        image.pack::<MR>(t0 + i0, rows, p0 + p, dst)
                    });
                    // SAFETY: as above; rows t0..t1 of the `[taps, O]` slab.
                    let c = SendPtr(unsafe { slab.add(t0 * o) });
                    gemm_block(&a, &Dense::rows(g_b, plane).t().skip_rows(p0), c, o, (0, o));
                } else {
                    let a = PackedA::pack(Dense::rows(&g_b[p0..], plane), o, kc);
                    gemm_block(&a, &TapPanels { taps: image, p0 }, SendPtr(slab), taps, (t0, t1));
                }
            }
        });
    }
    // Sum the slabs in batch order into the first, then lay it out.
    let (sum, rest) = parts.as_mut_slice().split_at_mut(taps * o);
    for part in rest.chunks_exact(taps * o) {
        sum.iter_mut().zip(part).for_each(|(a, &p)| *a += p);
    }
    let mut gw = crate::pool::alloc_uninit(o * taps);
    if transposed {
        transpose_into(sum, &mut gw, taps, o);
    } else {
        gw.copy_from_slice(sum);
    }
    Tensor::from_vec(gw, &[o, g.c, g.kh, g.kw])
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
    let &[o, c, kh, kw] = weight.shape() else { panic!("conv2d weight must be [O,C,kh,kw]") };
    if stride == 1 && kh == kw && pad < kh {
        let w = weight.as_slice();
        let mut flipped = crate::pool::alloc_uninit(w.len());
        for (i, v) in flipped.iter_mut().enumerate() {
            let (ci, oi, tap) = (i / (o * kh * kw), i / (kh * kw) % o, i % (kh * kw));
            *v = w[(oi * c + ci + 1) * kh * kw - 1 - tap];
        }
        return conv2d(grad, &Tensor::from_vec(flipped, &[c, o, kh, kw]), None, 1, kh - 1 - pad);
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

/// Sliding-window reference convolution (tests + ablation bench only).
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
/// → `[B, O, (H-1)*stride + kh - 2*pad, (W-1)*stride + kw - 2*pad]`.
pub fn conv_transpose2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv_transpose2d");
    assert_eq!(input.ndim(), 4, "conv_transpose2d input must be [B,C,H,W]");
    assert_eq!(weight.ndim(), 4, "conv_transpose2d weight must be [C,O,kh,kw]");
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (wc, o, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "conv_transpose2d channel mismatch");
    let out_h = (h - 1) * stride + kh;
    let out_w = (w - 1) * stride + kw;
    assert!(
        out_h > 2 * pad && out_w > 2 * pad,
        "conv_transpose2d padding {pad} too large for output {out_h}x{out_w}"
    );
    // [C, O*kh*kw]ᵀ × [C, H*W] = [O*kh*kw, H*W], then scatter with col2im.
    let w_mat = weight.reshape(&[c, o * kh * kw]);
    let final_h = out_h - 2 * pad;
    let final_w = out_w - 2 * pad;
    let per_img = o * final_h * final_w;
    let mut out = crate::pool::alloc_uninit(b * per_img);
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(b, |bi| {
        let x_mat = input.index_axis(0, bi).reshape(&[c, h * w]);
        let col = w_mat.matmul_tn(&x_mat); // [O*kh*kw, H*W]
        // The input positions are conv-output positions of the result:
        // col2im over the *final* image with the same stride/pad recovers it.
        let img = col2im(&col, o, final_h, final_w, kh, kw, stride, pad);
        let dst =
            unsafe { std::slice::from_raw_parts_mut({ &out_ptr }.0.add(bi * per_img), per_img) };
        dst.copy_from_slice(img.as_slice());
    });
    let mut result = Tensor::from_vec(out, &[b, o, final_h, final_w]);
    if let Some(bias) = bias {
        assert_eq!(bias.shape(), &[o], "conv_transpose2d bias must be [O]");
        let data = result.as_mut_slice();
        let hw = final_h * final_w;
        for bi in 0..b {
            for oc in 0..o {
                let bv = bias.as_slice()[oc];
                let base = (bi * o + oc) * hw;
                for v in &mut data[base..base + hw] {
                    *v += bv;
                }
            }
        }
    }
    result
}

/// Nearest-neighbour spatial upsampling by an integer `factor` (NCHW).
///
/// Each source row becomes one output row, every element written
/// `factor` times, and that row is then copied `factor − 1` times below
/// it: pure data movement, no per-element index arithmetic.
pub fn upsample_nearest2d(input: &Tensor, factor: usize) -> Tensor {
    assert!(factor > 0, "upsample factor must be positive");
    assert_eq!(input.ndim(), 4, "upsample_nearest2d input must be [B,C,H,W]");
    if factor == 1 {
        return input.clone();
    }
    let &[b, c, h, w] = input.shape() else { unreachable!() };
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

    /// The two lowerings are one arithmetic: on continuous inputs the
    /// direct kernel equals the GEMM bit for bit, at the tile UNet's,
    /// DeepSTN+'s and SatCNN's filter banks, on 1-wide, 1-tall and odd
    /// planes, at pad 0, 1 and 2 and other kernel sizes, on `Cpu` and
    /// `Parallel(4)` (row bands of one image, or images).
    #[test]
    fn direct_path_equals_gemm_path_bitwise() {
        let mut rng = rng();
        // (b, c, o, h, w, k, pad)
        let shapes = [
            (1, 4, 8, 64, 64, 3, 1),
            (1, 8, 8, 64, 64, 3, 1),
            (1, 24, 8, 64, 64, 3, 1),
            (1, 16, 16, 32, 32, 3, 1),
            (16, 16, 16, 21, 12, 3, 1),
            (16, 6, 16, 21, 12, 3, 1),
            (1, 32, 32, 16, 16, 3, 1),
            (4, 3, 16, 32, 32, 3, 1),
            (2, 3, 7, 9, 13, 3, 1),
            (2, 5, 3, 7, 1, 3, 1),
            (1, 2, 9, 1, 5, 3, 2),
            (3, 3, 6, 11, 9, 3, 0),
            (2, 4, 5, 8, 7, 3, 2),
            (2, 3, 4, 9, 7, 5, 2),
            (2, 3, 2, 6, 6, 1, 1),
        ];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (b, c, o, h, w, k, pad) in shapes {
            let input = Tensor::rand_uniform(&[b, c, h, w], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[o, c, k, k], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng);
            for device in [Device::Cpu, Device::Parallel(4)] {
                let (direct, gemm) = with_device(device, || {
                    let direct = conv2d_direct(&input, &weight, Some(&bias), pad);
                    (direct, conv2d_gemm(&input, &weight, Some(&bias), 1, pad))
                });
                assert_eq!(
                    bits(&direct),
                    bits(&gemm),
                    "{b}x{c}->{o}x{h}x{w} k={k} pad={pad} on {device:?}"
                );
            }
        }
    }

    #[test]
    fn direct_parallel_matches_serial() {
        // A 3×3 filter keeps the dispatcher on the direct path; a 48×48
        // plane crosses CONV_PARALLEL_FLOPS, so Parallel(4) actually fans
        // out plane tasks.
        let mut rng = rng();
        let input = Tensor::rand_uniform(&[2, 8, 48, 48], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[4, 8, 3, 3], -1.0, 1.0, &mut rng);
        let serial = conv2d(&input, &weight, None, 1, 1);
        assert_eq!(
            serial.as_slice(),
            conv2d_direct(&input, &weight, None, 1).as_slice(),
            "dispatcher should pick the direct path for this filter shape"
        );
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
