//! Matrix multiplication kernels.
//!
//! # The packed, cache-blocked GEMM
//!
//! [`Tensor::matmul`] runs a BLIS-style blocked kernel instead of a
//! plain loop nest:
//!
//! * **Packing.** The left operand is packed whole, once, into
//!   microkernel-ordered tiles (`PackedA`); for each `KC`-deep panel the
//!   right operand is packed into `NR`-lane micro-panels. Either operand
//!   (`Dense`) is read in either layout, so [`Tensor::matmul_nt`] (`A·Bᵀ`)
//!   and [`Tensor::matmul_tn`] (`Aᵀ·B`) run on the same microkernels with
//!   no transposed copy; both packs read every stored row front to back.
//!   Pack buffers come from the tensor buffer pool — steady-state
//!   packing is allocation-free, which this crate's `kernel_regression`
//!   gate enforces.
//! * **Orientation.** A skinny product (`n < NR ≤ m`) would leave most
//!   lanes of every `B` micro-panel zero, so it is computed as
//!   `Cᵀ = Bᵀ·Aᵀ` with the wide side along the lanes. Each element's
//!   chain is the same products in the same order (`fma(a,b,c) =
//!   fma(b,a,c)`), so the bits do not change. A small batch against a
//!   layer's weights — `A·Bᵀ` ([`Tensor::matmul_nt`], what `Linear`
//!   runs) with fewer than [`MR`] rows and at least 8 columns, on the
//!   AVX+FMA tier — packs nothing: packing `B` would touch every weight
//!   twice to use it at most five times. Eight weight rows are read in
//!   place and transposed in registers eight depth steps at a time, each
//!   output again one fused chain in ascending `p`. SatCNN's
//!   `[1, 2048]·[128, 2048]ᵀ` fell from 207 to 34–45 µs (2-vCPU Xeon).
//! * **Dispatch.** `gemm` picks one path per product, in order:
//!   the tiny loop (`m·n·k ≤ GEMM_TINY_MACS`), the pack-free small-batch
//!   `A·Bᵀ`, the skinny orientation, else the blocked kernel below. All
//!   four give every element the same bits.
//! * **Blocking.** The loop nest walks `NC`-wide column blocks, `KC`-deep
//!   depth panels, and `MC`-tall row blocks, sized so an `A` block stays
//!   L2-resident and the `B` micro-panel streams through L1 while a
//!   [`MR`]`×`[`NR`] tile of `C` lives entirely in registers.
//! * **SIMD.** The innermost microkernel is selected once per process by
//!   runtime CPU detection, one of three tiers: AVX-512 (one 16-lane
//!   fused multiply-add per row), AVX+FMA (2×8-lane fused multiply-adds
//!   per row) — both one body, `mk`, over the tier's `Vector` — or a
//!   portable half-tile kernel the autovectorizer lowers to SSE, which
//!   multiplies, then adds. All share the packed layout, and the two fused
//!   tiers give every element the same bits. The AVX-512 microkernel ran
//!   1.2× the AVX+FMA one's rate at 512³ (6.05 → 5.04 ms in one process,
//!   alternating) and 1.1–1.2× at `[256,64]·[64,256]`,
//!   `[64,2048]·[2048,128]` and `[128,256]·[256,64]` (2-vCPU Sapphire
//!   Rapids); the pack-free small-batch `A·Bᵀ` and the tiny loop keep
//!   their AVX+FMA code on it.
//! * **Parallelism.** Products past [`GEMM_PARALLEL_FLOPS`] split `C`'s
//!   rows into [`MR`]-aligned bands, one task per band through
//!   `device::for_each_part`, so `Device::Parallel` distributes blocked
//!   tiles instead of raw rows; each band packs its own rows of `A`.
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
//! oracle is the fused tiers' fused rounding. On inputs whose
//! products and partial sums are exactly representable (the lattice
//! inputs used by `tests/kernel_oracle.rs`) every variant is therefore
//! **bit-identical** to the oracle; on arbitrary inputs the deltas stay
//! within ordinary mul+add rounding of the same summation order.

use super::shape_ops::{interleave, transpose_into};
use crate::device::{for_each_part, Device};
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
/// it, `C`'s rows are split into tile-aligned bands.
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

/// `out[m,n] = aᵀ × b` for row-major `a [k,m]` and `b [k,n]`, where `out`
/// holds `m·n` zeros: [`Tensor::matmul_tn`]'s bits, on slices.
pub(crate) fn matmul_tn_into(a: &[f32], b: &[f32], out: &mut [f32], (m, n, k): (usize, usize, usize)) {
    let a = Dense { data: a, ld: m, trans: true };
    let b = Dense { data: b, ld: n, trans: false };
    gemm(a, b, out, m, n, k);
}

/// Naive triple-loop reference, the test oracle. Accumulates each
/// element's products in ascending `p` order — the order every fast
/// kernel reproduces.
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

/// The SIMD tier the kernels run at, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// AVX-512F: 16-lane vectors with fused multiply-add and 32 registers.
    /// The conv register block (`ops::conv`) and the GEMM microkernel run
    /// on it; the pack-free small-batch `A·Bᵀ` and the tiny loop run their
    /// [`Simd::Fma`] code, with the same bits.
    Avx512,
    /// AVX 8-lane vectors with fused multiply-add (`vfmadd231ps`).
    Fma,
    /// Autovectorized fallback (SSE on x86, NEON elsewhere): separate
    /// multiply and add, in the same order.
    Portable,
}

impl Simd {
    /// Whether a multiply-add rounds once (fused) on this tier: true on
    /// both AVX tiers, which therefore give every element the same bits.
    pub(crate) fn fused(self) -> bool {
        self != Simd::Portable
    }
}

/// Runtime CPU-feature detection, memoized for the process lifetime.
pub(crate) fn simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static TIER: OnceLock<Simd> = OnceLock::new();
        *TIER.get_or_init(|| {
            let fma = std::is_x86_feature_detected!("avx") && std::is_x86_feature_detected!("fma");
            if fma && std::is_x86_feature_detected!("avx512f") {
                Simd::Avx512
            } else if fma {
                Simd::Fma
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

/// Name of the detected tier (for benches and reports).
pub fn simd_kernel_name() -> &'static str {
    match simd() {
        Simd::Avx512 => "avx512+fma",
        Simd::Fma => "avx+fma",
        Simd::Portable => "portable",
    }
}

/// Whether the detected tier fuses its multiply-adds, which decides every
/// kernel's bits: a test asks this rather than the tier's name.
pub fn simd_kernel_fuses() -> bool {
    simd().fused()
}

/// One tier's vector of `f32` lanes: 16 on AVX-512 (`__m512`), 8 on
/// AVX+FMA (`__m256`), and 8 plain floats on the portable tier (`[f32;
/// 8]`), which multiplies, then adds. A kernel body written once over
/// `Vector` serves every tier; each tier's instance is called from a
/// function compiled with its target features, into which the always-
/// inlined operations fold.
pub(crate) trait Vector: Copy {
    /// Lanes per vector.
    const N: usize;
    /// A vector's lanes in memory, `[f32; N]`.
    type Array: Copy + Default + AsMut<[f32]>;

    /// All lanes `x`.
    ///
    /// # Safety
    /// The CPU supports the tier (every operation below, too).
    unsafe fn splat(x: f32) -> Self;
    /// `N` floats from `src`.
    ///
    /// # Safety
    /// The tier is supported and `src` is readable for `N` floats.
    unsafe fn load(src: *const f32) -> Self;
    /// `acc + s·x` per lane: fused (one rounding) on the AVX tiers.
    ///
    /// # Safety
    /// The tier is supported.
    unsafe fn madd(s: Self, x: Self, acc: Self) -> Self;
    /// The lanes, to `dst`.
    ///
    /// # Safety
    /// The tier is supported and `dst` is writable for `N` floats.
    unsafe fn store(self, dst: *mut f32);
    /// `V` vectors' lanes as one run of `V·N` floats.
    fn flat<const V: usize>(lanes: &[Self::Array; V]) -> &[f32];
}

impl Vector for [f32; 8] {
    const N: usize = 8;
    type Array = [f32; 8];

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        [x; 8]
    }

    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        // SAFETY: the caller's contract.
        unsafe { src.cast::<[f32; 8]>().read_unaligned() }
    }

    #[inline(always)]
    unsafe fn madd(s: Self, x: Self, acc: Self) -> Self {
        std::array::from_fn(|l| acc[l] + s[l] * x[l])
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut f32) {
        // SAFETY: the caller's contract.
        unsafe { dst.cast::<[f32; 8]>().write_unaligned(self) }
    }

    fn flat<const V: usize>(lanes: &[Self::Array; V]) -> &[f32] {
        lanes.as_flattened()
    }
}

#[cfg(target_arch = "x86_64")]
impl Vector for std::arch::x86_64::__m256 {
    const N: usize = 8;
    type Array = [f32; 8];

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        // SAFETY: the caller's contract (AVX).
        unsafe { std::arch::x86_64::_mm256_set1_ps(x) }
    }

    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        // SAFETY: the caller's contract (AVX, 8 readable floats).
        unsafe { std::arch::x86_64::_mm256_loadu_ps(src) }
    }

    #[inline(always)]
    unsafe fn madd(s: Self, x: Self, acc: Self) -> Self {
        // SAFETY: the caller's contract (FMA).
        unsafe { std::arch::x86_64::_mm256_fmadd_ps(s, x, acc) }
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut f32) {
        // SAFETY: the caller's contract (AVX, 8 writable floats).
        unsafe { std::arch::x86_64::_mm256_storeu_ps(dst, self) }
    }

    fn flat<const V: usize>(lanes: &[Self::Array; V]) -> &[f32] {
        lanes.as_flattened()
    }
}

#[cfg(target_arch = "x86_64")]
impl Vector for std::arch::x86_64::__m512 {
    const N: usize = 16;
    type Array = [f32; 16];

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        // SAFETY: the caller's contract (AVX-512F).
        unsafe { std::arch::x86_64::_mm512_set1_ps(x) }
    }

    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        // SAFETY: the caller's contract (AVX-512F, 16 readable floats).
        unsafe { std::arch::x86_64::_mm512_loadu_ps(src) }
    }

    #[inline(always)]
    unsafe fn madd(s: Self, x: Self, acc: Self) -> Self {
        // SAFETY: the caller's contract (AVX-512F).
        unsafe { std::arch::x86_64::_mm512_fmadd_ps(s, x, acc) }
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut f32) {
        // SAFETY: the caller's contract (AVX-512F, 16 writable floats).
        unsafe { std::arch::x86_64::_mm512_storeu_ps(dst, self) }
    }

    fn flat<const V: usize>(lanes: &[Self::Array; V]) -> &[f32] {
        lanes.as_flattened()
    }
}

/// `out[m,n] = a × b` for dense operands in either layout. `out` must
/// hold `m·n` zeros: the kernels accumulate into it.
fn gemm(a: Dense, b: Dense, out: &mut [f32], m: usize, n: usize, k: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k <= GEMM_TINY_MACS {
        gemm_tiny(a, b, out, m, n, k);
    } else if m < MR && n >= 8 && !a.trans && b.trans && simd().fused() {
        // A small batch against a layer's weight rows: packing `B` would
        // cost more than the arithmetic (module docs, "Orientation").
        #[cfg(target_arch = "x86_64")]
        // SAFETY: FMA was detected at runtime.
        unsafe {
            gemm_nt_small_fma(a, b, out, m, n, k)
        };
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

/// The blocked path: per band of `C`'s rows (one band when serial), pack
/// its rows of `A` once, then stream `B` panels through [`gemm_block`].
fn gemm_packed(a: Dense, b: Dense, out: &mut [f32], m: usize, n: usize, k: usize) {
    let threads = Device::current().threads();
    let parallel = threads > 1 && 2 * m * n * k >= GEMM_PARALLEL_FLOPS;
    let band = if parallel { m.div_ceil(threads).div_ceil(MR) * MR } else { m };
    for_each_part(out, band * n, parallel, |bi, c| {
        let r0 = bi * band;
        let packed = PackedA::pack(a.skip_rows(r0), band.min(m - r0), k);
        gemm_block(&packed, &b, c, n);
    });
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
    if simd().fused() {
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

/// `out = a × bᵀ` for fewer than [`MR`] rows of `a`, reading `b`'s rows
/// in place: the pack-free path of a dense layer at a small batch. Eight
/// rows of `b` (eight output columns) are loaded per step and
/// transposed in registers eight depth steps at a time, so each output
/// element is one fused chain from `+0` in ascending `p` — the
/// [`gemm_packed`] chain, bit for bit. The last `k % 8` depth steps
/// gather their column one element at a time, and the last `n % 8`
/// columns are scalar `mul_add` chains in the same order.
///
/// # Safety
/// The CPU must support AVX and FMA; `a` is `m` rows of stride `a.ld`
/// and `b` holds `n` rows of stride `b.ld`, each at least `k` long, and
/// `out` is `m·n` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_nt_small_fma(a: Dense, b: Dense, out: &mut [f32], m: usize, n: usize, k: usize) {
    assert!(m < MR && n >= 8 && out.len() >= m * n);
    assert!(a.data.len() >= (m - 1) * a.ld + k && b.data.len() >= (n - 1) * b.ld + k);
    // Rows and column blocks as const parameters keep the accumulators
    // in registers; `J` blocks side by side give the FMA unit `M·J`
    // independent chains to hide its latency behind.
    match m {
        1 => nt_rows::<1, 4>(a, b, out, n, k),
        2 => nt_rows::<2, 2>(a, b, out, n, k),
        3 => nt_rows::<3, 1>(a, b, out, n, k),
        4 => nt_rows::<4, 1>(a, b, out, n, k),
        5 => nt_rows::<5, 1>(a, b, out, n, k),
        _ => unreachable!("the pack-free kernel takes 1..MR rows, got {m}"),
    }
}

/// [`gemm_nt_small_fma`] for `M` rows, `J` blocks of 8 columns at a time
/// (then single blocks, then the scalar columns).
///
/// # Safety
/// As [`gemm_nt_small_fma`], with `m = M`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn nt_rows<const M: usize, const J: usize>(
    a: Dense,
    b: Dense,
    out: &mut [f32],
    n: usize,
    k: usize,
) {
    let n8 = n / 8 * 8;
    let mut j0 = 0;
    while j0 + 8 * J <= n8 {
        nt_block::<M, J>(a, b, out, n, k, j0);
        j0 += 8 * J;
    }
    while j0 < n8 {
        nt_block::<M, 1>(a, b, out, n, k, j0);
        j0 += 8;
    }
    for j in n8..n {
        let w = &b.data[j * b.ld..][..k];
        for i in 0..M {
            let x = &a.data[i * a.ld..][..k];
            let mut c = 0.0f32;
            for (&x, &w) in x.iter().zip(w) {
                c = x.mul_add(w, c);
            }
            out[i * n + j] = c;
        }
    }
}

/// Columns `j0..j0 + 8·J` of [`nt_rows`]' product.
///
/// # Safety
/// As [`gemm_nt_small_fma`], with `m = M` and `j0 + 8·J ≤ n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
#[inline]
unsafe fn nt_block<const M: usize, const J: usize>(
    a: Dense,
    b: Dense,
    out: &mut [f32],
    n: usize,
    k: usize,
    j0: usize,
) {
    use std::arch::x86_64::*;
    let (pa, pb) = (a.data.as_ptr(), b.data.as_ptr());
    let a_at = |i: usize, p: usize| pa.add(i * a.ld + p);
    let mut acc = [[_mm256_setzero_ps(); M]; J];
    let k8 = k / 8 * 8;
    for p in (0..k8).step_by(8) {
        for (jb, acc) in acc.iter_mut().enumerate() {
            let cols = columns8(|l| pb.add((j0 + 8 * jb + l) * b.ld), p);
            for (q, col) in cols.iter().enumerate() {
                for (i, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a_at(i, p + q)), *col, *acc);
                }
            }
        }
    }
    for p in k8..k {
        for (jb, acc) in acc.iter_mut().enumerate() {
            let w = |l: usize| *pb.add((j0 + 8 * jb + l) * b.ld + p);
            let col = _mm256_setr_ps(w(0), w(1), w(2), w(3), w(4), w(5), w(6), w(7));
            for (i, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a_at(i, p)), col, *acc);
            }
        }
    }
    for (jb, acc) in acc.iter().enumerate() {
        for (i, acc) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.as_mut_ptr().add(i * n + j0 + 8 * jb), *acc);
        }
    }
}

/// Eight depth steps `p..p+8` of eight weight rows, as columns: lane `l`
/// of result `q` is `row(l)[p + q]`. Each register is loaded as two
/// halves, rows `l` and `l + 4`, so a 4×4 transpose within each 128-bit
/// half finishes the job: 16 shuffles for 64 elements instead of a full
/// 8×8 transpose's 24.
///
/// # Safety
/// The CPU must support AVX; `row(l).add(p)` must be readable for 8
/// elements, for every `l < 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn columns8(row: impl Fn(usize) -> *const f32, p: usize) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let pair = |l: usize, p: usize| {
        let lo = _mm256_castps128_ps256(_mm_loadu_ps(row(l).add(p)));
        _mm256_insertf128_ps::<1>(lo, _mm_loadu_ps(row(l + 4).add(p)))
    };
    let quad = |p: usize| {
        let (r0, r1, r2, r3) = (pair(0, p), pair(1, p), pair(2, p), pair(3, p));
        let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
        [
            _mm256_shuffle_ps::<0x44>(t0, t2),
            _mm256_shuffle_ps::<0xEE>(t0, t2),
            _mm256_shuffle_ps::<0x44>(t1, t3),
            _mm256_shuffle_ps::<0xEE>(t1, t3),
        ]
    };
    let ([c0, c1, c2, c3], [c4, c5, c6, c7]) = (quad(p), quad(p + 4));
    [c0, c1, c2, c3, c4, c5, c6, c7]
}

/// A dense operand in either layout: logical element `(i, j)` is
/// `data[i·ld + j]`, or `data[j·ld + i]` when `trans` (the matrix is
/// stored as its row-major transpose). Both packs read it in place, so
/// `A·Bᵀ` and `Aᵀ·B` never build a transposed copy.
#[derive(Clone, Copy)]
struct Dense<'a> {
    data: &'a [f32],
    ld: usize,
    trans: bool,
}

impl<'a> Dense<'a> {
    /// The same storage read as the transposed matrix.
    fn t(self) -> Dense<'a> {
        Dense { trans: !self.trans, ..self }
    }

    /// The matrix from logical row `r0` down.
    fn skip_rows(self, r0: usize) -> Dense<'a> {
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

    /// Pack logical rows `pc..pc+kc` × columns `jc..jc+nc`, as the right
    /// operand, into `bp` as `NR`-column micro-panels `[col_block][p][lane]`,
    /// zero-filling ragged lanes so the full microkernel never reads out of
    /// bounds.
    fn pack_panel(&self, bp: &mut [f32], pc: usize, jc: usize, kc: usize, nc: usize) {
        for (jb, dst) in bp[..nc.div_ceil(NR) * kc * NR].chunks_exact_mut(kc * NR).enumerate() {
            // A `B` micro-panel's lanes are columns of `B`: rows of `Bᵀ`.
            self.t().pack_lanes::<NR>(jc + jb * NR, NR.min(nc - jb * NR), pc, dst);
        }
    }
}

/// The left operand packed whole, once: per `KC`-deep panel, `MR`-row
/// micro-panels laid out `[row_block][p][r]` with the ragged final block
/// zero-padded.
struct PackedA {
    buf: Buffer,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Pack the `m×k` matrix `a` (either layout) from the pool.
    fn pack(a: Dense, m: usize, k: usize) -> PackedA {
        let m_pad = m.div_ceil(MR) * MR;
        let mut buf = Buffer::uninit(m_pad * k);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for (ib, dst) in buf.as_mut_slice()[pc * m_pad..][..kc * m_pad]
                .chunks_exact_mut(kc * MR)
                .enumerate()
            {
                a.pack_lanes::<MR>(ib * MR, MR.min(m - ib * MR), pc, dst);
            }
        }
        PackedA { buf, m, k }
    }

    /// The `kc×MR` micro-panel of row block `ib` in the panel at `pc`.
    fn block(&self, pc: usize, kc: usize, ib: usize) -> &[f32] {
        &self.buf[pc * self.m.div_ceil(MR) * MR + ib * kc * MR..][..kc * MR]
    }
}

/// Serial blocked GEMM `C += A × B` for `C`'s rows `c`, of row stride
/// `ldc` (`n`). The `B` pack buffer comes from the tensor pool, so
/// repeated products recycle it instead of touching the heap.
fn gemm_block(a: &PackedA, b: &Dense, c: &mut [f32], ldc: usize) {
    let b_cols = ldc.min(NC).div_ceil(NR) * NR;
    let mut bpack = Buffer::uninit(a.k.min(KC) * b_cols);
    let bp = bpack.as_mut_slice();
    for jc in (0..ldc).step_by(NC) {
        let nc = NC.min(ldc - jc);
        for pc in (0..a.k).step_by(KC) {
            let kc = KC.min(a.k - pc);
            b.pack_panel(bp, pc, jc, kc, nc);
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
                        let ctile = &mut c[ir * ldc + jc + jr..];
                        if mr == MR && nr == NR {
                            microkernel(pa, pb, kc, ctile, ldc);
                        } else {
                            // A ragged tile runs the same kernel on a stack
                            // copy, so an element rounds the same wherever
                            // the matrix edge falls.
                            let mut tile = [0.0f32; MR * NR];
                            for (r, row) in tile.chunks_exact_mut(NR).take(mr).enumerate() {
                                row[..nr].copy_from_slice(&ctile[r * ldc..][..nr]);
                            }
                            microkernel(pa, pb, kc, &mut tile, NR);
                            for (r, row) in tile.chunks_exact(NR).take(mr).enumerate() {
                                ctile[r * ldc..][..nr].copy_from_slice(&row[..nr]);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Run the detected tier's full-tile microkernel on the `MR×NR` tile at
/// the front of `c`, of row stride `ldc`. Panics if `pa`/`pb` hold fewer
/// than `kc·MR` / `kc·NR` packed elements or `c` ends inside the tile.
#[inline(always)]
fn microkernel(pa: &[f32], pb: &[f32], kc: usize, c: &mut [f32], ldc: usize) {
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR && c.len() >= (MR - 1) * ldc + NR);
    match simd() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd` detected AVX-512F, and the lengths are checked.
        Simd::Avx512 => unsafe { mk_avx512(pa.as_ptr(), pb.as_ptr(), kc, c.as_mut_ptr(), ldc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd` detected AVX and FMA, and the lengths are checked.
        Simd::Fma => unsafe { mk_fma(pa.as_ptr(), pb.as_ptr(), kc, c.as_mut_ptr(), ldc) },
        _ => mk_portable(pa, pb, kc, c, ldc),
    }
}

/// AVX+FMA full-tile microkernel: the `MR×NR` tile in twelve 8-lane
/// registers, two fused multiply-adds per packed `A` scalar.
///
/// # Safety
/// Requires AVX and FMA (checked by [`simd`]); as [`mk`] otherwise.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn mk_fma(pa: *const f32, pb: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    mk::<std::arch::x86_64::__m256, 2>(pa, pb, kc, c, ldc)
}

/// AVX-512 full-tile microkernel: the `MR×NR` tile in six 16-lane
/// registers, one fused multiply-add per packed `A` scalar. Six chains
/// leave FMA latency partly exposed, yet it ran 1.1–1.4× the AVX+FMA
/// kernel's rate at 512³ and at the dense and conv-lowering shapes
/// (half the loads and FMA instructions per step).
///
/// # Safety
/// Requires AVX-512F (checked by [`simd`]); as [`mk`] otherwise.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma,avx512f")]
unsafe fn mk_avx512(pa: *const f32, pb: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    mk::<std::arch::x86_64::__m512, 1>(pa, pb, kc, c, ldc)
}

/// The fused microkernels' one body: the `MR×NR` tile of `C` held in `MR`
/// rows of `VN` vectors of `R` (`VN·N = NR`), loaded from `C`, updated by
/// one `madd` per vector per packed `A` scalar in ascending `p`, and
/// stored back.
///
/// # Safety
/// The caller is compiled with `R`'s target features, which the CPU
/// supports; `pa`/`pb` must hold `kc·MR` / `kc·NR` packed elements and
/// `c` an `MR×NR` tile with row stride `ldc`.
#[inline(always)]
unsafe fn mk<R: Vector, const VN: usize>(
    pa: *const f32,
    pb: *const f32,
    kc: usize,
    c: *mut f32,
    ldc: usize,
) {
    debug_assert_eq!(VN * R::N, NR);
    // SAFETY: the caller's contract.
    unsafe {
        let mut acc: [[R; VN]; MR] =
            std::array::from_fn(|r| std::array::from_fn(|v| R::load(c.add(r * ldc + v * R::N))));
        for p in 0..kc {
            let b: [R; VN] = std::array::from_fn(|v| R::load(pb.add(p * NR + v * R::N)));
            for (r, row) in acc.iter_mut().enumerate() {
                let a = R::splat(*pa.add(p * MR + r));
                for (acc, &b) in row.iter_mut().zip(&b) {
                    *acc = R::madd(a, b, *acc);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &acc) in row.iter().enumerate() {
                acc.store(c.add(r * ldc + v * R::N));
            }
        }
    }
}

/// Portable full-tile microkernel: the tile is processed in two 8-lane
/// halves so the live accumulators fit the 16 SSE registers, and the
/// plain mul+add loops autovectorize on any target.
fn mk_portable(pa: &[f32], pb: &[f32], kc: usize, c: &mut [f32], ldc: usize) {
    const H: usize = NR / 2;
    for half in 0..2 {
        let off = half * H;
        let mut acc = [[0.0f32; H]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[r * ldc + off..][..H]);
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
            c[r * ldc + off..][..H].copy_from_slice(row);
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

    /// The AVX+FMA and AVX-512 microkernels give a tile the same bits:
    /// each element is one fused chain in ascending `p` on both, whatever
    /// the vector width. Depths cross `KC` and the tile's row stride is
    /// wider than `NR`, as in a full `C`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tier_parity_of_the_microkernels() {
        let fma = is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma");
        if !fma || !is_x86_feature_detected!("avx512f") {
            eprintln!("skipping microkernel tier parity: the host has no AVX-512F or no FMA");
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let ldc = NR + 5;
        for kc in [1, 2, 7, 64, KC, KC + 3] {
            let mut draw = |n: usize| {
                let t = Tensor::rand_uniform(&[n], -1.0, 1.0, &mut rng);
                t.as_slice().to_vec()
            };
            let (pa, pb, c) = (draw(kc * MR), draw(kc * NR), draw(MR * ldc));
            let (mut y, mut z) = (c.clone(), c);
            // SAFETY: both tiers were detected; `pa`/`pb` hold `kc·MR` /
            // `kc·NR` elements and `y`/`z` an `MR×NR` tile of stride `ldc`.
            unsafe {
                mk_fma(pa.as_ptr(), pb.as_ptr(), kc, y.as_mut_ptr(), ldc);
                mk_avx512(pa.as_ptr(), pb.as_ptr(), kc, z.as_mut_ptr(), ldc);
            }
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&z), "kc={kc}");
        }
    }

    #[test]
    fn simd_tier_is_detected_once() {
        assert_eq!(simd(), simd());
        assert!(!simd_kernel_name().is_empty());
    }
}
