//! Matrix multiplication kernels.
//!
//! # The packed, cache-blocked GEMM
//!
//! [`Tensor::matmul`] runs a BLIS-style blocked kernel instead of a
//! plain loop nest:
//!
//! * **Packing.** The left operand is packed whole, once, into
//!   microkernel-ordered tiles (`PackedA`); for each `KC`-deep panel the
//!   right operand is packed by its `PanelSource` — a dense matrix here
//!   (`Dense`), an im2col view of an image in `ops::conv`, which is how
//!   convolution runs on this kernel without a column matrix. A `Dense`
//!   operand is read in either layout, so [`Tensor::matmul_nt`] (`A·Bᵀ`)
//!   and [`Tensor::matmul_tn`] (`Aᵀ·B`) run on the same microkernels with
//!   no transposed copy; both packs read every stored row front to back.
//!   Pack buffers come from the tensor buffer pool — steady-state
//!   packing is allocation-free, which this crate's `kernel_regression`
//!   gate enforces.
//! * **Orientation.** A skinny product (`n < NR ≤ m`) would leave most
//!   lanes of every `B` micro-panel zero, so it is computed as
//!   `Cᵀ = Bᵀ·Aᵀ` with the wide side along the lanes. Each element's
//!   chain is the same products in the same order (`fma(a,b,c) =
//!   fma(b,a,c)`), so the bits do not change.
//! * **Blocking.** The loop nest walks `NC`-wide column blocks, `KC`-deep
//!   depth panels, and `MC`-tall row blocks, sized so an `A` block stays
//!   L2-resident and the `B` micro-panel streams through L1 while a
//!   [`MR`]`×`[`NR`] tile of `C` lives entirely in registers.
//! * **SIMD.** The innermost microkernel is selected once per process by
//!   runtime CPU detection: AVX+FMA (`std::arch` intrinsics, 2×8-lane
//!   fused multiply-adds per row), AVX without FMA, or a portable
//!   half-tile kernel the autovectorizer lowers to SSE. All variants
//!   share the packed layout.
//! * **Parallelism.** Products past [`GEMM_PARALLEL_FLOPS`] split the
//!   longer output axis into microkernel-aligned bands, one
//!   [`parallel_for`] task per band, so `Device::Parallel` distributes
//!   blocked tiles instead of raw rows.
//!
//! # Numerics and the oracle contract
//!
//! Every kernel variant accumulates each output element's products in
//! strictly ascending `p` order (the tile is loaded from `C`, updated,
//! and stored back, so `KC` panel boundaries do not reassociate the
//! sum). A ragged tile at the matrix edge runs the *same* microkernel on
//! a stack copy, so an element's rounding never depends on where the
//! edge falls. Rust never enables floating-point contraction on its own,
//! so the only rounding difference against the retained [`matmul_naive`]
//! oracle is the FMA microkernel's fused rounding. On inputs whose
//! products and partial sums are exactly representable (the lattice
//! inputs used by `tests/kernel_oracle.rs`) every variant is therefore
//! **bit-identical** to the oracle; on arbitrary inputs the deltas stay
//! within ordinary mul+add rounding of the same summation order.

use super::shape_ops::{interleave, transpose_into};
use crate::device::{parallel_for, Device, SendPtr};
use crate::pool::Buffer;
use crate::Tensor;

/// Microkernel tile height: rows of `C` updated per microkernel call.
pub const MR: usize = 6;
/// Microkernel tile width: columns of `C` updated per microkernel call
/// (two 8-lane vectors).
pub const NR: usize = 16;
/// Row-block size: an `MC×KC` packed `A` block is sized for L2.
pub const MC: usize = 120;
/// Depth-panel size: `KC×NR` packed `B` micro-panels stream through L1.
pub const KC: usize = 256;
/// Column-block size: one packed `B` panel is at most `KC×NC`.
pub const NC: usize = 1024;

/// FLOP count (`2·m·n·k`) below which a product stays on the calling
/// thread: waking pool workers costs more than the arithmetic. Above
/// it, the longer output axis is split into tile-aligned bands.
pub const GEMM_PARALLEL_FLOPS: usize = 2 * 1024 * 1024;

/// `m·n·k` below which the packed path is skipped entirely: for tiny
/// products the pack/tile bookkeeping dominates, so a plain loop over
/// 16-column blocks of each output row, depth outermost (same
/// per-element order and rounding), wins.
const GEMM_TINY_MACS: usize = 16 * 1024;

impl Tensor {
    /// 2-D matrix product `self [m,k] × other [k,n] → [m,n]` via the
    /// packed, cache-blocked SIMD kernel (see the module docs).
    ///
    /// # Panics
    /// If either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        product(self, false, other, false)
    }

    /// `self [m,k] × otherᵀ` for `other [n,k]` → `[m,n]`, read straight
    /// from `other`'s rows: bit-identical to
    /// `self.matmul(&other.transpose())` without the transposed copy.
    /// Panics like [`Tensor::matmul`].
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        product(self, false, other, true)
    }

    /// `selfᵀ × other` for `self [k,m]`, `other [k,n]` → `[m,n]`:
    /// bit-identical to `self.transpose().matmul(other)` without the
    /// transposed copy. Panics like [`Tensor::matmul`].
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        product(self, true, other, false)
    }

    /// Dot product of two 1-D tensors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.ndim(), 1, "dot lhs must be 1-D");
        assert_eq!(self.shape(), other.shape(), "dot length mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum()
    }
}

/// `op(a) × op(b)`, where `op` transposes the operands flagged `ta`/`tb`.
fn product(a: &Tensor, ta: bool, b: &Tensor, tb: bool) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.matmul");
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D, got {:?}", a.shape());
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D, got {:?}", b.shape());
    // `op(t)`'s extents: `t`'s, swapped when it is read transposed.
    let dims = |t: &Tensor, tr: bool| (t.shape()[usize::from(tr)], t.shape()[usize::from(!tr)]);
    let ((m, k), (k2, n)) = (dims(a, ta), dims(b, tb));
    assert_eq!(k, k2, "matmul inner dims differ: [{m}, {k}] × [{k2}, {n}]");
    let mut out = crate::pool::alloc_zeroed(m * n);
    let a = Dense { data: a.as_slice(), ld: a.shape()[1], trans: ta };
    let b = Dense { data: b.as_slice(), ld: b.shape()[1], trans: tb };
    gemm(a, b, &mut out, m, n, k);
    Tensor::from_vec(out, &[m, n])
}

/// Naive triple-loop reference used as the test oracle and by the kernel
/// ablation bench. Accumulates each element's products in ascending `p`
/// order — the order every fast kernel reproduces.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = crate::pool::alloc_uninit(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

// ------------------------------------------------------------ dispatch

/// The SIMD tier the microkernel runs at, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// AVX 8-lane vectors with fused multiply-add (`vfmadd231ps`).
    Fma,
    /// AVX 8-lane vectors, separate multiply and add.
    Avx,
    /// Autovectorized half-tile fallback (SSE on x86, NEON elsewhere).
    Portable,
}

/// Runtime CPU-feature detection, memoized for the process lifetime.
pub(crate) fn simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static TIER: OnceLock<Simd> = OnceLock::new();
        *TIER.get_or_init(|| {
            if std::is_x86_feature_detected!("avx") && std::is_x86_feature_detected!("fma") {
                Simd::Fma
            } else if std::is_x86_feature_detected!("avx") {
                Simd::Avx
            } else {
                Simd::Portable
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Simd::Portable
    }
}

/// Name of the detected microkernel tier (for benches and reports).
pub fn simd_kernel_name() -> &'static str {
    match simd() {
        Simd::Fma => "avx+fma",
        Simd::Avx => "avx",
        Simd::Portable => "portable",
    }
}

/// `out[m,n] = a × b` for dense operands in either layout. `out` must
/// hold `m·n` zeros: the kernels accumulate into it.
pub(crate) fn gemm(a: Dense, b: Dense, out: &mut [f32], m: usize, n: usize, k: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k <= GEMM_TINY_MACS {
        gemm_tiny(a, b, out, m, n, k);
    } else if n < NR && NR <= m {
        // Skinny: `Cᵀ = Bᵀ·Aᵀ` puts the wide side on the lanes, with the
        // same bits per element (module docs, "Orientation").
        if n == 1 {
            // `Cᵀ [1,m]` is `C [m,1]`'s memory.
            gemm_packed(b.t(), a.t(), out, 1, m, k);
        } else {
            let mut ct = Buffer::zeroed(n * m);
            gemm_packed(b.t(), a.t(), ct.as_mut_slice(), n, m, k);
            transpose_into(&ct, out, n, m);
        }
    } else {
        gemm_packed(a, b, out, m, n, k);
    }
}

/// The blocked path: pack `A` once (per band), then stream `B` panels
/// through [`gemm_block`].
fn gemm_packed(a: Dense, b: Dense, out: &mut [f32], m: usize, n: usize, k: usize) {
    let threads = Device::current().threads();
    let parallel = threads > 1 && 2 * m * n * k >= GEMM_PARALLEL_FLOPS;
    let c = SendPtr(out.as_mut_ptr());
    // Bands split the longer output axis on tile boundaries; each is an
    // independent serial blocked GEMM over disjoint rows/columns of C.
    if parallel && m >= n {
        let band = m.div_ceil(threads).div_ceil(MR) * MR;
        parallel_for(m.div_ceil(band), |bi| {
            let r0 = bi * band;
            let packed = PackedA::pack(a.skip_rows(r0), band.min(m - r0), k);
            // SAFETY: rows r0.. of C belong to this band alone.
            let c_band = SendPtr(unsafe { { &c }.0.add(r0 * n) });
            gemm_block(&packed, &b, c_band, n, (0, n));
        });
    } else {
        let packed = PackedA::pack(a, m, k);
        let band = if parallel { n.div_ceil(threads).div_ceil(NR) * NR } else { n };
        parallel_for(n.div_ceil(band), |bi| {
            gemm_block(&packed, &b, c, n, (bi * band, (bi * band + band).min(n)));
        });
    }
}

/// `o ← fma(x, y, o)` when `FUSED`, else `o ← o + x·y`.
#[inline(always)]
fn madd<const FUSED: bool>(o: &mut f32, x: f32, y: f32) {
    *o = if FUSED { x.mul_add(y, *o) } else { *o + x * y };
}

/// Tiny-product path: a plain accumulation loop, no packing. Same
/// per-element accumulation order as the blocked path and the oracle, and
/// the same multiply-add as the detected microkernel tier — fused on
/// AVX+FMA — so an element's bits do not depend on which side of
/// [`GEMM_TINY_MACS`] its product falls (a dense layer's row is the same
/// at batch 1 and batch 16).
fn gemm_tiny(a: Dense, b: Dense, out: &mut [f32], m: usize, n: usize, k: usize) {
    #[cfg(target_arch = "x86_64")]
    if simd() == Simd::Fma {
        // SAFETY: FMA was detected at runtime.
        return unsafe { gemm_tiny_fma(a, b, out, m, n, k) };
    }
    gemm_tiny_loop::<false>(a, b, out, m, n, k)
}

/// [`gemm_tiny_loop`] fused, its `mul_add` compiled to `vfmadd` (never a
/// libm call).
///
/// # Safety
/// The CPU must support AVX and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_tiny_fma(a: Dense, b: Dense, out: &mut [f32], m: usize, n: usize, k: usize) {
    gemm_tiny_loop::<true>(a, b, out, m, n, k)
}

/// `out += a × b` element by element in ascending `p`, each step
/// `fma(a, b, o)` when `FUSED`, else `o + a·b`. Always inlined, so the
/// fused instance takes its caller's target features.
#[inline(always)]
fn gemm_tiny_loop<const FUSED: bool>(
    a: Dense,
    b: Dense,
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
) {
    for (i, out_row) in out.chunks_exact_mut(n).take(m).enumerate() {
        // Sixteen columns at a time, `p` outermost: each element's chain
        // runs through its own products in ascending `p`.
        for (jb, block) in out_row.chunks_mut(16).enumerate() {
            let j0 = jb * 16;
            for p in 0..k {
                let a_ip = a.at(i, p);
                if b.trans {
                    for (l, o) in block.iter_mut().enumerate() {
                        madd::<FUSED>(o, a_ip, b.data[(j0 + l) * b.ld + p]);
                    }
                } else {
                    for (o, &b_pj) in block.iter_mut().zip(&b.data[p * b.ld + j0..]) {
                        madd::<FUSED>(o, a_ip, b_pj);
                    }
                }
            }
        }
    }
}

/// The right-hand operand of the blocked GEMM, seen only through how a
/// block of it packs into micro-panels. A dense matrix in either layout
/// is one source ([`Dense`]); `ops::conv` supplies im2col views of an
/// image, so a convolution's column matrix is never materialised.
pub(crate) trait PanelSource: Sync {
    /// Pack logical rows `pc..pc+kc` × columns `jc..jc+nc` into `bp` as
    /// `NR`-column micro-panels `[col_block][p][lane]`, zero-filling
    /// ragged lanes so the full microkernel never reads out of bounds.
    fn pack(&self, bp: &mut [f32], pc: usize, jc: usize, kc: usize, nc: usize);
}

/// A dense operand in either layout: logical element `(i, j)` is
/// `data[i·ld + j]`, or `data[j·ld + i]` when `trans` (the matrix is
/// stored as its row-major transpose). Both the packed left operand and
/// the right-hand panel source read it in place, so `A·Bᵀ` and `Aᵀ·B`
/// never build a transposed copy.
#[derive(Clone, Copy)]
pub(crate) struct Dense<'a> {
    data: &'a [f32],
    ld: usize,
    trans: bool,
}

impl<'a> Dense<'a> {
    /// A row-major matrix of row stride `ld`.
    pub(crate) fn rows(data: &'a [f32], ld: usize) -> Dense<'a> {
        Dense { data, ld, trans: false }
    }

    /// The same storage read as the transposed matrix.
    pub(crate) fn t(self) -> Dense<'a> {
        Dense { trans: !self.trans, ..self }
    }

    /// The matrix from logical row `r0` down.
    pub(crate) fn skip_rows(self, r0: usize) -> Dense<'a> {
        let skip = if self.trans { r0 } else { r0 * self.ld };
        Dense { data: &self.data[skip..], ..self }
    }

    /// Pack logical rows `i0..i0+rows` (`rows ≤ N`) as the `N` lanes of the
    /// micro-panel `dst`, `kc = dst.len() / N` deep from column `p0`:
    /// `dst[p·N + r] = (i0+r, p0+p)`, lanes `rows..N` zero. Both operands
    /// of the GEMM pack through here, so every source row is read front
    /// to back: a stored row holds either one lane (`interleave` streams
    /// `N` of them in step) or one depth step's run of lanes (one copy).
    fn pack_lanes<const N: usize>(&self, i0: usize, rows: usize, p0: usize, dst: &mut [f32]) {
        let kc = dst.len() / N;
        if self.trans {
            for (p, lanes) in dst.chunks_exact_mut(N).enumerate() {
                lanes[..rows].copy_from_slice(&self.data[(p0 + p) * self.ld + i0..][..rows]);
            }
        } else {
            interleave::<N>(&self.data[i0 * self.ld + p0..], self.ld, rows, kc, dst, N);
        }
        if rows < N {
            dst.chunks_exact_mut(N).for_each(|lanes| lanes[rows..].fill(0.0));
        }
    }

    fn at(&self, i: usize, j: usize) -> f32 {
        if self.trans {
            self.data[j * self.ld + i]
        } else {
            self.data[i * self.ld + j]
        }
    }
}

impl PanelSource for Dense<'_> {
    fn pack(&self, bp: &mut [f32], pc: usize, jc: usize, kc: usize, nc: usize) {
        for (jb, dst) in bp[..nc.div_ceil(NR) * kc * NR].chunks_exact_mut(kc * NR).enumerate() {
            // A `B` micro-panel's lanes are columns of `B`: rows of `Bᵀ`.
            self.t().pack_lanes::<NR>(jc + jb * NR, NR.min(nc - jb * NR), pc, dst);
        }
    }
}

/// The left operand packed whole, once: per `KC`-deep panel, `MR`-row
/// micro-panels laid out `[row_block][p][r]` with the ragged final block
/// zero-padded. Callers that reuse one `A` across many products (a
/// conv's filter bank across its batch) pack it a single time.
pub(crate) struct PackedA {
    buf: Buffer,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Pack the `m×k` matrix `a` (either layout) from the pool.
    pub(crate) fn pack(a: Dense, m: usize, k: usize) -> PackedA {
        PackedA::pack_with(m, k, |i0, rows, p0, dst| a.pack_lanes::<MR>(i0, rows, p0, dst))
    }

    /// Pack an `m×k` left operand from any source: `lanes(i0, rows, p0,
    /// dst)` does what [`Dense::pack_lanes`]`::<MR>` does for a matrix.
    pub(crate) fn pack_with(
        m: usize,
        k: usize,
        lanes: impl Fn(usize, usize, usize, &mut [f32]),
    ) -> PackedA {
        let m_pad = m.div_ceil(MR) * MR;
        let mut buf = Buffer::uninit(m_pad * k);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for (ib, dst) in buf.as_mut_slice()[pc * m_pad..][..kc * m_pad]
                .chunks_exact_mut(kc * MR)
                .enumerate()
            {
                lanes(ib * MR, MR.min(m - ib * MR), pc, dst);
            }
        }
        PackedA { buf, m, k }
    }

    /// The `kc×MR` micro-panel of row block `ib` in the panel at `pc`.
    fn block(&self, pc: usize, kc: usize, ib: usize) -> &[f32] {
        &self.buf[pc * self.m.div_ceil(MR) * MR + ib * kc * MR..][..kc * MR]
    }
}

/// Serial blocked GEMM `C[:, cols] += A × B[:, cols]`, where `c` points
/// at row 0, column 0 of `C` (row stride `ldc`) and `B` is whatever
/// `b` packs. The `B` pack buffer comes from the tensor pool, so
/// repeated products recycle it instead of touching the heap.
pub(crate) fn gemm_block(
    a: &PackedA,
    b: &impl PanelSource,
    c: SendPtr<f32>,
    ldc: usize,
    cols: (usize, usize),
) {
    let kern = simd();
    let (c0, c1) = cols;
    let b_cols = (c1 - c0).min(NC).div_ceil(NR) * NR;
    let mut bpack = Buffer::uninit(a.k.min(KC) * b_cols);
    let bp = bpack.as_mut_slice();
    for jc in (c0..c1).step_by(NC) {
        let nc = NC.min(c1 - jc);
        for pc in (0..a.k).step_by(KC) {
            let kc = KC.min(a.k - pc);
            b.pack(bp, pc, jc, kc, nc);
            // `MC`-row blocks keep the live slice of packed `A` in L2
            // while the `B` micro-panels stream past it.
            for ic in (0..a.m).step_by(MC) {
                let mc = MC.min(a.m - ic);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let pb = &bp[(jr / NR) * (kc * NR)..][..kc * NR];
                    for ir in (ic..ic + mc).step_by(MR) {
                        let mr = MR.min(a.m - ir);
                        let pa = a.block(pc, kc, ir / MR);
                        // SAFETY: the tile covers rows ir..ir+mr and columns
                        // jc+jr..jc+jr+nr, all inside this call's disjoint
                        // region of C; the tier was detected at runtime.
                        unsafe {
                            let ctile = c.0.add(ir * ldc + jc + jr);
                            if mr == MR && nr == NR {
                                microkernel(kern, pa, pb, kc, ctile, ldc);
                            } else {
                                // A ragged tile runs the same kernel on a
                                // stack copy, so an element rounds the same
                                // wherever the matrix edge falls.
                                let mut tile = [0.0f32; MR * NR];
                                for r in 0..mr {
                                    let row = tile.as_mut_ptr().add(r * NR);
                                    std::ptr::copy_nonoverlapping(ctile.add(r * ldc), row, nr);
                                }
                                microkernel(kern, pa, pb, kc, tile.as_mut_ptr(), NR);
                                for r in 0..mr {
                                    let row = tile.as_ptr().add(r * NR);
                                    std::ptr::copy_nonoverlapping(row, ctile.add(r * ldc), nr);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Run the detected tier's full-tile microkernel on one `MR×NR` tile.
///
/// # Safety
/// `kern` must be a tier this CPU supports; `pa`/`pb` must hold `kc·MR`
/// / `kc·NR` packed elements and `c` a full `MR×NR` tile of row stride
/// `ldc`.
#[inline(always)]
unsafe fn microkernel(kern: Simd, pa: &[f32], pb: &[f32], kc: usize, c: *mut f32, ldc: usize) {
    match kern {
        #[cfg(target_arch = "x86_64")]
        Simd::Fma => mk_fma(pa.as_ptr(), pb.as_ptr(), kc, c, ldc),
        #[cfg(target_arch = "x86_64")]
        Simd::Avx => mk_avx(pa.as_ptr(), pb.as_ptr(), kc, c, ldc),
        _ => mk_portable(pa, pb, kc, c, ldc),
    }
}

/// AVX+FMA full-tile microkernel: `MR×NR` tile of `C` held in twelve
/// 8-lane registers, one fused multiply-add pair per packed `A` scalar.
///
/// # Safety
/// Requires AVX and FMA (checked by [`simd`]); `pa`/`pb` must hold
/// `kc·MR` / `kc·NR` packed elements and `c` an `MR×NR` tile with row
/// stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn mk_fma(pa: *const f32, pb: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(c.add(r * ldc));
        row[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
    }
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(pb.add(p * NR));
        let b1 = _mm256_loadu_ps(pb.add(p * NR + 8));
        for (r, row) in acc.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*pa.add(p * MR + r));
            row[0] = _mm256_fmadd_ps(a, b0, row[0]);
            row[1] = _mm256_fmadd_ps(a, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), row[0]);
        _mm256_storeu_ps(c.add(r * ldc + 8), row[1]);
    }
}

/// AVX full-tile microkernel without FMA: separate multiply and add, so
/// its rounding matches the scalar oracle bit-for-bit.
///
/// # Safety
/// Requires AVX; same contracts as [`mk_fma`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn mk_avx(pa: *const f32, pb: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(c.add(r * ldc));
        row[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
    }
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(pb.add(p * NR));
        let b1 = _mm256_loadu_ps(pb.add(p * NR + 8));
        for (r, row) in acc.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*pa.add(p * MR + r));
            row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(a, b0));
            row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(a, b1));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), row[0]);
        _mm256_storeu_ps(c.add(r * ldc + 8), row[1]);
    }
}

/// Portable full-tile microkernel: the tile is processed in two 8-lane
/// halves so the live accumulators fit the 16 SSE registers, and the
/// plain mul+add loops autovectorize on any target.
fn mk_portable(pa: &[f32], pb: &[f32], kc: usize, c: *mut f32, ldc: usize) {
    const H: usize = NR / 2;
    for half in 0..2 {
        let off = half * H;
        let mut acc = [[0.0f32; H]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            for (l, v) in row.iter_mut().enumerate() {
                // SAFETY: full-tile call — all MR×NR elements in bounds.
                *v = unsafe { *c.add(r * ldc + off + l) };
            }
        }
        for p in 0..kc {
            let bv = &pb[p * NR + off..p * NR + off + H];
            let av = &pa[p * MR..(p + 1) * MR];
            for (row, &a) in acc.iter_mut().zip(av) {
                for (v, &bl) in row.iter_mut().zip(bv) {
                    *v += a * bl;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (l, &v) in row.iter().enumerate() {
                // SAFETY: as above.
                unsafe { *c.add(r * ldc + off + l) = v };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{with_device, Device};
    use rand::SeedableRng;

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(&[5, 5], -1.0, 1.0, &mut rng);
        assert!(a.matmul(&Tensor::eye(5)).allclose(&a, 1e-6));
        assert!(Tensor::eye(5).matmul(&a).allclose(&a, 1e-6));
    }

    #[test]
    fn rectangular_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = Tensor::rand_uniform(&[7, 13], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[13, 5], -1.0, 1.0, &mut rng);
        assert!(a.matmul(&b).allclose(&matmul_naive(&a, &b), 1e-4));
    }

    #[test]
    fn packed_path_matches_naive_past_block_edges() {
        // Big enough to leave the tiny path and cross MR/NR/MC/KC edges.
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for &(m, k, n) in &[(MC + 3, KC + 5, NR + 1), (64, 64, 64), (MR, 1, NR)] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            assert!(
                a.matmul(&b).allclose(&matmul_naive(&a, &b), 1e-3),
                "mismatch at m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let a = Tensor::rand_uniform(&[64, 32], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[32, 48], -1.0, 1.0, &mut rng);
        let serial = a.matmul(&b);
        let parallel = with_device(Device::Parallel(4), || a.matmul(&b));
        assert!(serial.allclose(&parallel, 1e-5));
    }

    #[test]
    fn parallel_band_split_is_bit_identical() {
        // Large enough to cross GEMM_PARALLEL_FLOPS: band splitting must
        // not change any element's accumulation order.
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let a = Tensor::rand_uniform(&[160, 130], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[130, 96], -1.0, 1.0, &mut rng);
        let serial = a.matmul(&b);
        let parallel = with_device(Device::Parallel(4), || a.matmul(&b));
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn mismatched_dims_panic() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn degenerate_shapes() {
        let a = Tensor::zeros(&[0, 4]);
        let b = Tensor::zeros(&[4, 3]);
        assert_eq!(a.matmul(&b).shape(), &[0, 3]);
        let c = Tensor::ones(&[1, 1]).matmul(&Tensor::full(&[1, 1], 2.0));
        assert_eq!(c.item(), 2.0);
    }

    #[test]
    fn simd_tier_is_detected_once() {
        assert_eq!(simd(), simd());
        assert!(!simd_kernel_name().is_empty());
    }
}
