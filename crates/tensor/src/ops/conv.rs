//! Convolution kernels: conv2d and its gradients, conv_transpose2d,
//! im2col/col2im, upsampling.
//!
//! All image tensors use the NCHW layout. The production [`conv2d`] is a
//! dispatcher over two lowerings:
//!
//! * **3×3 / stride 1 with a small filter bank** (fewer output channels
//!   than a microkernel tile has rows, or `C·O < 32`) — [`conv2d_direct`]:
//!   a shift-and-axpy kernel that accumulates each filter tap as a scaled
//!   row-add over the output plane.
//! * **everything else** — a column-free GEMM. Convolution is a *panel
//!   source* of the blocked GEMM in [`super::matmul`]: the filter bank
//!   is packed once per call, then per image the `B` panels are packed
//!   straight from the image through an im2col *view* (halo read as zero:
//!   no padded copy, no column matrix) and the `C` tiles are the output
//!   planes themselves.
//!
//! The gradients use the same seam: [`conv2d_weight_grad`] packs the
//! *transposed* view, and at stride 1 [`conv2d_input_grad`] is `conv2d`
//! with flipped filters. [`im2col`]/[`col2im`] remain as explicit helpers
//! for `conv_transpose2d`, the strided input gradient and the tests.
//!
//! Both lowerings, like the sliding-window reference `conv2d_naive`,
//! start an output element at its bias and add its taps in `(c, ki, kj)`
//! order. The GEMM multiplies and adds as the detected microkernel tier
//! does — fused on AVX+FMA — for every element, ragged tiles included;
//! the direct kernel never fuses. So all agree bit for bit on exactly
//! representable (lattice) inputs, and otherwise the two lowerings differ
//! by FMA rounding on an FMA host only. Within the GEMM path an element's
//! bits depend on its own window alone: not on the batch it rode in, the
//! device, or where its plane ends.

use super::matmul::{gemm_block, Dense, PackedA, PanelSource, MR, NR};
use crate::device::{parallel_for, Device, SendPtr};
use crate::Tensor;

/// FLOP count (`2·B·O·C·kh·kw·oh·ow`) below which a convolution runs on
/// the calling thread. Tuned alongside `GEMM_PARALLEL_FLOPS`: conv
/// tasks are coarser (a whole output plane each), so the bar is lower.
pub const CONV_PARALLEL_FLOPS: usize = 1 << 20;

/// Whether a 3×3 stride-1 conv from `c` to `o` channels runs the direct
/// kernel rather than the GEMM. Decided by measurement (DESIGN §11): the
/// GEMM loses when its product has fewer rows than a microkernel tile
/// (`o < MR`: the spare rows multiply zeros) or the filter bank is too
/// small to repay packing panels from the image (`c·o < 32`). It is a
/// function of the *filter shape alone* — never of the plane or the
/// batch — so a model's tile and its whole scene take the same lowering
/// at every layer and tiled inference stays exact.
fn prefers_direct(c: usize, o: usize) -> bool {
    o < MR || c * o < 32
}

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
/// Dispatches on the *filter* shape (see the module docs): the direct
/// shift-and-axpy kernel for a small 3×3/stride-1 filter bank, the
/// column-free GEMM everywhere else. Both start each output element at
/// its bias and add its taps in `(c, ki, kj)` order; only the GEMM fuses
/// multiply-adds, so the two agree exactly on lattice inputs and to FMA
/// rounding otherwise.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d");
    let (_, o, g) = Geom::of_conv(input, weight, bias, stride, pad);
    if stride == 1 && g.kh == 3 && g.kw == 3 && prefers_direct(g.c, o) {
        geotorch_telemetry::count!("tensor.conv2d.direct", 1);
        conv2d_direct(input, weight, bias, pad)
    } else {
        geotorch_telemetry::count!("tensor.conv2d.gemm", 1);
        conv2d_gemm(input, weight, bias, stride, pad)
    }
}

/// Direct stride-1 convolution: for each `(batch, out-channel)` output
/// plane, every filter tap `(ic, ki, kj)` is applied as a scaled
/// row-wise axpy of the shifted input plane. No column matrix is built.
/// Each plane starts at its bias and taps run in im2col row order
/// (`ic → ki → kj`), unfused: the GEMM path's order, and exactly
/// `conv2d_naive`'s arithmetic.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d_direct");
    let (b, o, Geom { c, h, w, kh, kw, oh, ow, .. }) = Geom::of_conv(input, weight, bias, 1, pad);
    let padded = if pad > 0 { input.pad2d(pad) } else { input.clone() };
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let x = padded.as_slice();
    let wt = weight.as_slice();
    let plane = oh * ow;
    let mut out = crate::pool::alloc_uninit(b * o * plane);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let task = |t: usize| {
        let (bi, oc) = (t / o, t % o);
        // SAFETY: each (bi, oc) task owns a disjoint output plane.
        let dst = unsafe {
            std::slice::from_raw_parts_mut({ &out_ptr }.0.add((bi * o + oc) * plane), plane)
        };
        dst.fill(bias.map_or(0.0, |t| t.as_slice()[oc]));
        for ic in 0..c {
            for ki in 0..kh {
                let w_row = &wt[((oc * c + ic) * kh + ki) * kw..][..kw];
                for oi in 0..oh {
                    let src = &x[((bi * c + ic) * ph + oi + ki) * pw..][..ow + kw - 1];
                    let row = &mut dst[oi * ow..(oi + 1) * ow];
                    // One pass over the output row applies all kw taps of
                    // this filter row (kj ascending per element, matching
                    // the GEMM path's accumulation order), so the row is
                    // loaded/stored once per (ic, ki) instead of per tap.
                    match *w_row {
                        [w0] => {
                            for (d, &s) in row.iter_mut().zip(src) {
                                *d += w0 * s;
                            }
                        }
                        [w0, w1, w2] => {
                            for (j, d) in row.iter_mut().enumerate() {
                                let mut v = *d;
                                v += w0 * src[j];
                                v += w1 * src[j + 1];
                                v += w2 * src[j + 2];
                                *d = v;
                            }
                        }
                        _ => {
                            for (j, d) in row.iter_mut().enumerate() {
                                let mut v = *d;
                                for (kj, &wv) in w_row.iter().enumerate() {
                                    v += wv * src[j + kj];
                                }
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    };
    let flops = 2 * b * o * c * kh * kw * plane;
    if Device::current().threads() > 1 && flops >= CONV_PARALLEL_FLOPS {
        parallel_for(b * o, task);
    } else {
        for t in 0..b * o {
            task(t);
        }
    }
    Tensor::from_vec(out, &[b, o, oh, ow])
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

    fn plane(&self) -> usize {
        self.oh * self.ow
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
        // On a stride-1 plane as wide as its image a tap's row is the flat
        // image shifted by a constant, so a panel row is one masked copy.
        let shifted = g.stride == 1 && g.ow == g.w;
        // Per tap: its offset from a window's origin and, for the current
        // column block, which lanes it reads inside the image.
        let mut taps: Vec<(isize, [u32; NR])> =
            (0..kk).map(|t| ((t / g.kw * g.w + t % g.kw) as isize, [0; NR])).collect();
        let (mut oi, mut oj) = (jc / g.ow, jc % g.ow);
        for (jb, dst) in bp[..nc.div_ceil(NR) * kc * NR].chunks_exact_mut(kc * NR).enumerate() {
            // Input coordinate of each lane's window origin; lanes past the
            // plane sit far outside the image and so read as zero.
            let mut origin = [(i32::MIN / 2, 0i32); NR];
            for o in origin.iter_mut().take(nc - jb * NR) {
                *o = ((oi * g.stride) as i32 - pad, (oj * g.stride) as i32 - pad);
                (oi, oj) = if oj + 1 == g.ow { (oi + 1, 0) } else { (oi, oj + 1) };
            }
            for (t, (_, mask)) in taps.iter_mut().enumerate() {
                let (ki, kj) = ((t / g.kw) as i32, (t % g.kw) as i32);
                for (m, &(y, x)) in mask.iter_mut().zip(&origin) {
                    *m = (g.holds(y + ki, x + kj) as u32).wrapping_neg();
                }
            }
            let lane = origin.map(|(y, x)| y as isize * g.w as isize + x as isize);
            // Panel rows in order: tap `(c, ki, kj)` of every channel in turn.
            let (mut t, mut chan) = (pc % kk, (pc / kk * hw) as isize);
            for row in dst.chunks_exact_mut(NR) {
                let (off, mask) = &taps[t];
                let start = chan + off + lane[0];
                if shifted && start >= 0 && start as usize + NR <= self.x.len() {
                    let src = &self.x[start as usize..][..NR];
                    for l in 0..NR {
                        row[l] = f32::from_bits(src[l].to_bits() & mask[l]);
                    }
                } else {
                    for l in 0..NR {
                        let at = (chan + off + lane[l]) as usize;
                        row[l] = if mask[l] != 0 { self.x[at] } else { 0.0 };
                    }
                }
                (t, chan) = if t + 1 == kk { (0, chan + hw as isize) } else { (t + 1, chan) };
            }
        }
    }
}

/// The transpose `[oh·ow, C·kh·kw]` of the same matrix — the right-hand
/// operand of the weight gradient `g [O, plane] × im2col(x)ᵀ`.
struct Im2colT<'a> {
    x: &'a [f32],
    g: Geom,
}

impl PanelSource for Im2colT<'_> {
    fn pack(&self, bp: &mut [f32], pc: usize, jc: usize, kc: usize, nc: usize) {
        let g = self.g;
        let (hw, kk, pad) = (g.h * g.w, g.kh * g.kw, g.pad as i32);
        let (mut chan, mut ki, mut kj) = (jc / kk * hw, jc % kk / g.kw, jc % g.kw);
        for (jb, dst) in bp[..nc.div_ceil(NR) * kc * NR].chunks_exact_mut(kc * NR).enumerate() {
            // A lane is one tap `(c, ki, kj)`: its offset from a window's
            // origin and its place in the window. Lanes past the last tap
            // sit far outside every window and so read as zero.
            let mut tap = [(0isize, i32::MIN / 2, 0i32); NR];
            let full = nc - jb * NR >= NR;
            for t in tap.iter_mut().take(nc - jb * NR) {
                *t = ((chan + ki * g.w + kj) as isize, ki as i32 - pad, kj as i32 - pad);
                (chan, ki, kj) = match (ki + 1 == g.kh, kj + 1 == g.kw) {
                    (true, true) => (chan + hw, 0, 0),
                    (false, true) => (chan, ki + 1, 0),
                    _ => (chan, ki, kj + 1),
                };
            }
            // A panel row is one pixel: gather its window across the lanes.
            let (mut oi, mut oj) = (pc / g.ow, pc % g.ow);
            for row in dst.chunks_exact_mut(NR) {
                let (y, x) = ((oi * g.stride) as i32, (oj * g.stride) as i32);
                let origin = (y - pad) as isize * g.w as isize + (x - pad) as isize;
                let (y1, x1) = (y - pad + g.kh as i32, x - pad + g.kw as i32);
                if full && y >= pad && x >= pad && y1 <= g.h as i32 && x1 <= g.w as i32 {
                    // The whole window is inside the image: no lane tests.
                    for (d, &(off, ..)) in row.iter_mut().zip(&tap) {
                        *d = self.x[(origin + off) as usize];
                    }
                } else {
                    for (d, &(off, dy, dx)) in row.iter_mut().zip(&tap) {
                        let inside = g.holds(y + dy, x + dx);
                        *d = if inside { self.x[(origin + off) as usize] } else { 0.0 };
                    }
                }
                (oi, oj) = if oj + 1 == g.ow { (oi + 1, 0) } else { (oi, oj + 1) };
            }
        }
    }
}

/// Run `gemm(image, cols)` for every image of a batch on the current
/// device: one task per image, or — when a large conv has fewer images
/// than threads — per `NR`-aligned column band of an image. Every tile
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

/// Gradient of [`conv2d`] with respect to its weight, `[O,C,kh,kw]`, for
/// `input [B,C,H,W]` and output gradient `grad [B,O,oh,ow]`: per image
/// `g_b [O, plane] × im2col(x_b)ᵀ` with the transposed column matrix
/// packed straight from the image ([`Im2colT`]). The per-image products
/// are summed in batch order, so every device gives the same bits.
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
    let mut parts = crate::pool::Buffer::zeroed(b.max(1) * o * taps);
    if plane > 0 {
        let (x, gs) = (input.as_slice(), grad.as_slice());
        let parts_ptr = SendPtr(parts.as_mut_slice().as_mut_ptr());
        for_each_image(b, taps, 2 * b * o * taps * plane, |bi, cols| {
            let g_b = PackedA::pack(Dense::rows(&gs[bi * o * plane..], plane), o, plane);
            let image = Im2colT { x: &x[bi * g.c * g.h * g.w..][..g.c * g.h * g.w], g };
            // SAFETY: each (image, tap band) owns a disjoint part of `parts`.
            let c = SendPtr(unsafe { { &parts_ptr }.0.add(bi * o * taps) });
            gemm_block(&g_b, &image, c, taps, cols);
        });
    }
    let mut gw = crate::pool::alloc_copy(&parts[..o * taps]);
    for part in parts[o * taps..].chunks_exact(o * taps) {
        gw.iter_mut().zip(part).for_each(|(a, &p)| *a += p);
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
pub fn upsample_nearest2d(input: &Tensor, factor: usize) -> Tensor {
    assert!(factor > 0, "upsample factor must be positive");
    assert_eq!(input.ndim(), 4, "upsample_nearest2d input must be [B,C,H,W]");
    if factor == 1 {
        return input.clone();
    }
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (oh, ow) = (h * factor, w * factor);
    let src = input.as_slice();
    let mut out = crate::pool::alloc_uninit(b * c * oh * ow);
    for bc in 0..b * c {
        for i in 0..oh {
            let si = i / factor;
            let src_row = &src[(bc * h + si) * w..(bc * h + si + 1) * w];
            let dst_row = &mut out[(bc * oh + i) * ow..(bc * oh + i + 1) * ow];
            for (j, d) in dst_row.iter_mut().enumerate() {
                *d = src_row[j / factor];
            }
        }
    }
    Tensor::from_vec(out, &[b, c, oh, ow])
}

/// Adjoint of [`upsample_nearest2d`]: sum each `factor × factor` block.
pub fn upsample_nearest2d_backward(grad: &Tensor, factor: usize) -> Tensor {
    if factor == 1 {
        return grad.clone();
    }
    let (b, c, oh, ow) = (
        grad.shape()[0],
        grad.shape()[1],
        grad.shape()[2],
        grad.shape()[3],
    );
    let (h, w) = (oh / factor, ow / factor);
    let src = grad.as_slice();
    let mut out = crate::pool::alloc_zeroed(b * c * h * w);
    for bc in 0..b * c {
        for i in 0..oh {
            let si = i / factor;
            for j in 0..ow {
                out[(bc * h + si) * w + j / factor] += src[(bc * oh + i) * ow + j];
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
    fn direct_path_matches_gemm_path() {
        let mut rng = rng();
        for &(c, o, h, w, k, p) in &[
            (1usize, 1usize, 5usize, 5usize, 3usize, 0usize),
            (3, 4, 8, 8, 3, 1),
            (2, 3, 9, 7, 5, 2),
            (3, 2, 6, 6, 1, 1), // a padded 1×1: never dispatched here, still correct
        ] {
            let input = Tensor::rand_uniform(&[2, c, h, w], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[o, c, k, k], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng);
            let direct = conv2d_direct(&input, &weight, Some(&bias), p);
            let lowered = conv2d_gemm(&input, &weight, Some(&bias), 1, p);
            assert!(
                direct.allclose(&lowered, 1e-5),
                "path mismatch for c={c} o={o} h={h} w={w} k={k} p={p}"
            );
        }
    }

    #[test]
    fn direct_parallel_matches_serial() {
        // Four output channels keep the dispatcher on the direct path; a
        // 48×48 plane crosses CONV_PARALLEL_FLOPS, so Parallel(4) actually
        // fans out plane tasks.
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
