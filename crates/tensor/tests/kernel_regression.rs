//! Performance-regression gate for the fast kernels, in the style of
//! `geotorch-core`'s `alloc_regression.rs`: the blocked SIMD matmul must stay ≥ 3x faster
//! than the naive oracle at 512×512 single-threaded, its packing
//! buffers must recycle from the tensor pool at steady state, the
//! parallel band split must hand each thread one band and actually scale
//! when four or more cores are available, and a DeepSTN+-shaped 3×3
//! convolution must run at a fixed
//! fraction of the GEMM's own rate on the same host — its weight gradient
//! too, and its 16→2 output head at a fixed fraction of the 16→16 layer's.
//! A dense layer at batch 1 must take at most half of batch 6's time: it
//! reads its weights in place instead of packing them. A DeepSTN+ step's
//! convolutions and their gradients, and a strided conv, must take all
//! their scratch from the pool at steady state, and a strided transposed
//! conv must allocate per call, not per image.
//!
//! Wall-clock assertions are meaningless in unoptimised builds and
//! noisy CI matrices, so the timed tests skip themselves under
//! `debug_assertions`, under the chaos matrix (`GEOTORCH_CHAOS_SEED`),
//! and — for the scaling test — on runners with fewer than four cores,
//! where two busy threads share too little hardware to show the split.
//! CI runs this file with `--release`.

use geotorch_tensor::ops::conv::{conv2d, conv2d_input_grad, conv2d_weight_grad, conv_transpose2d};
use geotorch_tensor::ops::matmul::{matmul_naive, simd_kernel_fuses, simd_kernel_name};
use geotorch_tensor::{pool, with_device, Device, Tensor};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// The system allocator, counting each thread's heap allocations, so a
/// gate can tell a kernel's scratch taken from the pool from scratch taken
/// from the heap.
struct CountingAllocator;

thread_local! {
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the count is a
// const-initialised thread-local without a destructor, so it allocates
// nothing itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap allocations this thread has made so far.
fn heap_allocs() -> u64 {
    HEAP_ALLOCS.with(Cell::get)
}

/// Minimum speedup of the blocked kernel over `matmul_naive` at
/// 512×512×512 on one thread. Locally the packed AVX+FMA kernel
/// measures 25–35x; 3x leaves room for slow CI steppings while still
/// catching any fallback to a scalar path.
const MIN_SPEEDUP_VS_NAIVE: f64 = 3.0;

/// Steady-state pool-miss budget for a window of 16 large matmuls.
/// After warm-up, pack buffers and outputs must all be recycled.
const PACK_MISS_BUDGET: u64 = 4;

/// Steady-state pool-miss budget for 8 DeepSTN+ convolution steps (each
/// of its five filter banks' forward, input gradient and weight gradient
/// at batch 16 on 21×12). Every padded or channels-last copy, per-image
/// slab and output recycles once warm, so the window measures 0; the
/// budget leaves room for a shelf another gate left short.
const CONV_SCRATCH_MISS_BUDGET: u64 = 4;

/// Heap allocations one such step makes on the calling thread: two per
/// tensor it returns or builds (the shared buffer handle and the shape) —
/// each call's output, and the input gradient's flipped filters — so 40.
/// Scratch taken from the heap instead of the pool adds to it (the im2col
/// weight gradient's padded copy made 55).
const CONV_STEP_HEAP_ALLOCS: u64 = 40;

/// Heap allocations one steady-state stride-2 conv makes on the calling
/// thread: two per tensor it builds. It measures 2 — its output alone,
/// since the kernel computes only the kept rows — where keeping every
/// second row and column of a whole stride-1 output made 4. Scratch taken
/// from the heap per image or per panel pack adds to it (a mask table per
/// pack made 18 at batch 16 and 6 at batch 1).
const STRIDED_CONV_HEAP_ALLOCS: u64 = 4;

/// Minimum parallel-over-serial speedup at 768³ when ≥ 4 cores exist.
const MIN_PARALLEL_SPEEDUP: f64 = 1.3;

/// Minimum conv 3×3 rate at DeepSTN+'s 16×16×21×12 shape, as a fraction
/// of the 512³ matmul rate measured in the same process. The direct
/// kernel (six output channels × 16 pixels in registers, fused) measures
/// 0.63–0.74 best-of-60 on a 2-vCPU host (four channels × 16 measured
/// 0.57–0.75), so 0.5 — the lower low minus a 12% margin — fails on a
/// lost register block or a return of a materialised column matrix (0.20)
/// without depending on the host's clock.
const MIN_CONV_SHARE_OF_MATMUL: f64 = 0.5;

/// Minimum weight-gradient rate at DeepSTN+'s 16→16 / 21×12 / batch-16
/// shape, as a fraction of the 512³ matmul rate measured in the same
/// process. The pack-free kernel (six filters × two vectors of a
/// channels-last window in registers) measures 0.82–0.97 best-of-100 on a
/// 2-vCPU host; the im2col GEMM it replaced measured 0.47–0.56, and the
/// gate is that low minus a 10% margin. The matmul, not the forward, is
/// the denominator: the forward's rate moves with its lowering, the
/// weight gradient's does not.
const MIN_WEIGHT_GRAD_SHARE_OF_MATMUL: f64 = 0.42;

/// Maximum time of SatCNN's `fc1` product (`[m, 2048]·[128, 2048]ᵀ`) at
/// batch 1 as a fraction of batch 6, the packed kernel's full tile. When
/// every batch packed the 1 MB weight matrix, batch 1 took 0.98 of batch
/// 6's time (207 against 211 µs on a 2-vCPU Xeon); reading the weight
/// rows in place measures 0.22–0.28 there, so 0.5 fails on any return of
/// the pack.
const MAX_FC1_B1_SHARE_OF_B6: f64 = 0.5;

/// Minimum rate of DeepSTN+'s 16→2 output head as a fraction of the 16→16
/// forward rate, both on the register-blocked direct kernel. It measures
/// 0.46–0.59 against the six-channel block's forward (0.59–0.76 against
/// the four-channel one's); the row-by-row axpy kernel measured ~0.16.
const MIN_HEAD_SHARE_OF_WIDE_CONV: f64 = 0.35;

fn perf_skip_reason() -> Option<&'static str> {
    if cfg!(debug_assertions) {
        return Some("unoptimised build");
    }
    if std::env::var("GEOTORCH_CHAOS_SEED").is_ok() {
        return Some("chaos matrix run");
    }
    None
}

/// The gates share a host of two cores or so and difference the pool's
/// global counters, so they run one at a time: no gate times its kernel
/// against another gate's.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn square(n: usize, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng)
}

/// Fastest of `reps` timed runs — minimum, not mean, to shed scheduler
/// noise on shared runners.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn blocked_matmul_is_at_least_3x_naive_at_512() {
    if let Some(reason) = perf_skip_reason() {
        eprintln!("skipping timed kernel gate: {reason}");
        return;
    }
    let _serial = serial();
    let a = square(512, 1);
    let b = square(512, 2);
    let _ = a.matmul(&b); // warm caches, pool, and SIMD detection
    let blocked = best_of(5, || {
        std::hint::black_box(a.matmul(&b));
    });
    let naive = best_of(2, || {
        std::hint::black_box(matmul_naive(&a, &b));
    });
    let speedup = naive / blocked;
    eprintln!(
        "matmul 512 on {}: blocked {:.2} ms, naive {:.2} ms → {speedup:.1}x (gate {MIN_SPEEDUP_VS_NAIVE}x)",
        simd_kernel_name(),
        blocked * 1e3,
        naive * 1e3
    );
    assert!(
        speedup >= MIN_SPEEDUP_VS_NAIVE,
        "blocked matmul regressed: only {speedup:.2}x over naive at 512 \
         (gate {MIN_SPEEDUP_VS_NAIVE}x)"
    );
}

#[test]
fn conv3x3_reaches_a_fixed_share_of_the_matmul_rate() {
    if let Some(reason) = perf_skip_reason() {
        eprintln!("skipping timed conv gate: {reason}");
        return;
    }
    let _serial = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let x = Tensor::rand_uniform(&[16, 16, 21, 12], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[16, 16, 3, 3], -1.0, 1.0, &mut rng);
    let (a, b) = (square(512, 8), square(512, 9));
    // Interleaved, so a slow stretch of a shared runner hits both rates.
    let (mut conv, mut matmul) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..60 {
        matmul = matmul.min(best_of(1, || {
            std::hint::black_box(a.matmul(&b));
        }));
        conv = conv.min(best_of(1, || {
            std::hint::black_box(conv2d(&x, &w, None, 1, 1));
        }));
    }
    let conv_gflops = 2.0 * (16 * 16 * 16 * 9 * 21 * 12) as f64 / conv / 1e9;
    let matmul_gflops = 2.0 * 512f64.powi(3) / matmul / 1e9;
    let share = conv_gflops / matmul_gflops;
    eprintln!(
        "conv3x3 16x16x21x12 on {}: {conv_gflops:.1} GFLOP/s, matmul 512: {matmul_gflops:.1} GFLOP/s \
         → {share:.2} (gate {MIN_CONV_SHARE_OF_MATMUL})",
        simd_kernel_name()
    );
    assert!(
        share >= MIN_CONV_SHARE_OF_MATMUL,
        "conv 3×3 fell to {share:.2} of the matmul rate (gate {MIN_CONV_SHARE_OF_MATMUL}) \
         — the direct kernel lost its register blocking or the lowering is copying again"
    );
}

/// GFLOP/s of a 3×3 / pad-1 conv from `c` to `o` channels of `[16, c,
/// 21, 12]` that took `secs`.
fn deepstn_gflops(c: usize, o: usize, secs: f64) -> f64 {
    2.0 * (16 * c * o * 9 * 21 * 12) as f64 / secs / 1e9
}

#[test]
fn conv_backward_and_small_heads_keep_pace_with_the_forward() {
    if let Some(reason) = perf_skip_reason() {
        eprintln!("skipping timed conv backward gate: {reason}");
        return;
    }
    let _serial = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let x = Tensor::rand_uniform(&[16, 16, 21, 12], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[16, 16, 3, 3], -1.0, 1.0, &mut rng);
    let head = Tensor::rand_uniform(&[2, 16, 3, 3], -1.0, 1.0, &mut rng);
    let g = Tensor::rand_uniform(&[16, 16, 21, 12], -1.0, 1.0, &mut rng);
    let (a, b) = (square(512, 18), square(512, 19));
    // Interleaved best-of, so a slow stretch of a shared runner hits all four.
    let (mut forward, mut weight_grad, mut small, mut matmul) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..100 {
        forward = forward.min(best_of(1, || {
            std::hint::black_box(conv2d(&x, &w, None, 1, 1));
        }));
        weight_grad = weight_grad.min(best_of(1, || {
            std::hint::black_box(conv2d_weight_grad(&x, &g, (3, 3), 1, 1));
        }));
        small = small.min(best_of(1, || {
            std::hint::black_box(conv2d(&x, &head, None, 1, 1));
        }));
        matmul = matmul.min(best_of(1, || {
            std::hint::black_box(a.matmul(&b));
        }));
    }
    let (fwd, wgrad, head) = (
        deepstn_gflops(16, 16, forward),
        deepstn_gflops(16, 16, weight_grad),
        deepstn_gflops(16, 2, small),
    );
    let matmul_gflops = 2.0 * 512f64.powi(3) / matmul / 1e9;
    eprintln!(
        "16x16x21x12 on {}: forward {fwd:.1} GFLOP/s, weight grad {wgrad:.1} ({:.2} of the 512³ matmul's \
         {matmul_gflops:.1}, gate {MIN_WEIGHT_GRAD_SHARE_OF_MATMUL}); 16->2 head {head:.1} ({:.2} of \
         the forward, gate {MIN_HEAD_SHARE_OF_WIDE_CONV})",
        simd_kernel_name(),
        wgrad / matmul_gflops,
        head / fwd
    );
    assert!(
        wgrad / matmul_gflops >= MIN_WEIGHT_GRAD_SHARE_OF_MATMUL,
        "conv weight gradient fell to {:.2} of the matmul rate \
         (gate {MIN_WEIGHT_GRAD_SHARE_OF_MATMUL})",
        wgrad / matmul_gflops
    );
    assert!(
        head / fwd >= MIN_HEAD_SHARE_OF_WIDE_CONV,
        "the 16->2 head fell to {:.2} of the 16->16 rate (gate {MIN_HEAD_SHARE_OF_WIDE_CONV}) \
         — the direct kernel stopped holding its outputs in registers",
        head / fwd
    );
}

#[test]
fn small_batch_dense_layer_reads_its_weights_in_place() {
    if let Some(reason) = perf_skip_reason() {
        eprintln!("skipping timed dense-layer gate: {reason}");
        return;
    }
    if !simd_kernel_fuses() {
        eprintln!("skipping timed dense-layer gate: the pack-free kernel needs a fused tier");
        return;
    }
    let _serial = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let w = Tensor::rand_uniform(&[128, 2048], -0.05, 0.05, &mut rng);
    let x = Tensor::rand_uniform(&[6, 2048], 0.0, 1.0, &mut rng);
    let x1 = x.narrow(0, 0, 1);
    // Interleaved, so a slow stretch of a shared runner hits both.
    let (mut b1, mut b6) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..200 {
        b1 = b1.min(best_of(1, || {
            std::hint::black_box(x1.matmul_nt(&w));
        }));
        b6 = b6.min(best_of(1, || {
            std::hint::black_box(x.matmul_nt(&w));
        }));
    }
    let share = b1 / b6;
    eprintln!(
        "fc1 128x2048 on {}: batch 1 {:.1} µs, batch 6 {:.1} µs → {share:.2} (gate ≤ {MAX_FC1_B1_SHARE_OF_B6})",
        simd_kernel_name(),
        b1 * 1e6,
        b6 * 1e6
    );
    assert!(
        share <= MAX_FC1_B1_SHARE_OF_B6,
        "a batch-1 dense layer took {share:.2} of batch 6's time (gate {MAX_FC1_B1_SHARE_OF_B6}) \
         — it is packing its weights again"
    );
}

#[test]
fn pack_buffers_recycle_from_the_pool() {
    let _serial = serial();
    let a = square(512, 3);
    let b = square(512, 4);
    // Warm-up populates the pack-buffer and output size classes.
    for _ in 0..3 {
        let _ = a.matmul(&b);
    }
    let before = pool::stats();
    for _ in 0..16 {
        let _ = a.matmul(&b);
    }
    let after = pool::stats();
    let misses = after.misses - before.misses;
    let hits = after.hits - before.hits;
    eprintln!("pack steady state: {hits} pool hits, {misses} misses (budget {PACK_MISS_BUDGET})");
    assert!(
        misses <= PACK_MISS_BUDGET,
        "steady-state matmul packing allocated fresh buffers {misses} times \
         (budget {PACK_MISS_BUDGET}, hits {hits}) — packing stopped recycling"
    );
    assert!(
        hits >= 32,
        "expected pack/output acquisitions to hit the pool, saw {hits} hits"
    );
}

#[test]
fn conv_scratch_recycles_from_the_pool() {
    let _serial = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    // DeepSTN+'s filter banks (input → output channels) at batch 16 on 21×12.
    let banks: Vec<(Tensor, Tensor, Tensor, Tensor)> = [(6, 16), (8, 16), (2, 16), (16, 16), (16, 2)]
        .iter()
        .map(|&(c, o)| {
            (
                Tensor::rand_uniform(&[16, c, 21, 12], -1.0, 1.0, &mut rng),
                Tensor::rand_uniform(&[o, c, 3, 3], -1.0, 1.0, &mut rng),
                Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng),
                Tensor::rand_uniform(&[16, o, 21, 12], -1.0, 1.0, &mut rng),
            )
        })
        .collect();
    let step = || {
        for (x, w, bias, g) in &banks {
            std::hint::black_box(conv2d(x, w, Some(bias), 1, 1));
            std::hint::black_box(conv2d_input_grad(g, w, (21, 12), 1, 1));
            std::hint::black_box(conv2d_weight_grad(x, g, (3, 3), 1, 1));
        }
    };
    // Warm-up populates every size class a step takes.
    for _ in 0..2 {
        step();
    }
    let (before, heap) = (pool::stats(), heap_allocs());
    for _ in 0..8 {
        step();
    }
    let (after, heap) = (pool::stats(), heap_allocs() - heap);
    let (misses, hits) = (after.misses - before.misses, after.hits - before.hits);
    eprintln!(
        "DeepSTN+ conv steady state: {hits} pool hits, {misses} misses (budget \
         {CONV_SCRATCH_MISS_BUDGET}), {heap} heap allocations"
    );
    assert!(
        misses <= CONV_SCRATCH_MISS_BUDGET,
        "steady-state convolutions allocated fresh scratch {misses} times \
         (budget {CONV_SCRATCH_MISS_BUDGET}, hits {hits}) — conv scratch stopped recycling"
    );
    assert!(
        heap <= 8 * CONV_STEP_HEAP_ALLOCS,
        "8 steady-state DeepSTN+ conv steps made {heap} heap allocations (budget {}) — \
         scratch bypassed the pool",
        8 * CONV_STEP_HEAP_ALLOCS
    );
    // Every call takes at least its output from the pool.
    assert!(hits >= 8 * 15, "expected conv scratch to hit the pool, saw {hits} hits");
}

#[test]
fn strided_conv_scratch_stays_off_the_heap() {
    let _serial = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    // Stride-2 3×3 banks (b, c → o, plane): many images, and one large one.
    for (b, c, o, hw) in [(16, 16, 16, 64), (1, 8, 8, 128)] {
        let x = Tensor::rand_uniform(&[b, c, hw, hw], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[o, c, 3, 3], -1.0, 1.0, &mut rng);
        let bias = Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng);
        let conv = || std::hint::black_box(conv2d(&x, &w, Some(&bias), 2, 1));
        for _ in 0..2 {
            conv();
        }
        let heap = heap_allocs();
        for _ in 0..8 {
            conv();
        }
        let heap = heap_allocs() - heap;
        eprintln!("stride-2 {b}x{c}->{o} at {hw}²: {heap} heap allocations over 8 calls");
        assert!(
            heap <= 8 * STRIDED_CONV_HEAP_ALLOCS,
            "8 steady-state stride-2 {b}x{c}->{o} convs at {hw}² made {heap} heap \
             allocations (budget {}) — scratch bypassed the pool",
            8 * STRIDED_CONV_HEAP_ALLOCS
        );
    }
}

/// A strided transposed conv (FCN's k2 s2 upsampler) makes no more heap
/// allocations at batch 8 than at batch 1: each image's `Wᵀ·g` scatters
/// straight into its part of one pooled output. Per-image copies, column
/// tensors and a stack of the images made 96 a call at batch 8 against 16
/// at batch 1.
#[test]
fn strided_conv_transpose_allocates_per_call_not_per_image() {
    let _serial = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(53);
    let w = Tensor::rand_uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut rng);
    let bias = Tensor::rand_uniform(&[4], -1.0, 1.0, &mut rng);
    let mut heap = |b: usize| {
        let x = Tensor::rand_uniform(&[b, 4, 32, 32], -1.0, 1.0, &mut rng);
        let up = || std::hint::black_box(conv_transpose2d(&x, &w, Some(&bias), 2, 0));
        with_device(Device::Cpu, || {
            for _ in 0..2 {
                up();
            }
            let heap = heap_allocs();
            for _ in 0..8 {
                up();
            }
            heap_allocs() - heap
        })
    };
    let (one, eight) = (heap(1), heap(8));
    eprintln!("k2 s2 4->4 conv_transpose2d at 32², 8 calls: {one} heap allocations at batch 1, {eight} at batch 8");
    assert!(
        eight <= one,
        "8 steady-state k2 s2 transposed convs made {eight} heap allocations at batch 8 against \
         {one} at batch 1 — the strided input gradient allocates per image"
    );
}

/// A parallel dispatch allocates nothing: a fanned-out kernel makes no
/// more heap allocations on its caller than the same kernel on one
/// thread. A dispatch once made three (its ranges, its claimed workers
/// and its completion count).
#[test]
fn parallel_dispatch_allocates_no_more_than_serial() {
    let _serial = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    // 131,072 elements: past `PARALLEL_THRESHOLD`, so `Parallel(2)` fans out.
    let x = Tensor::rand_uniform(&[8, 4, 64, 64], -1.0, 1.0, &mut rng);
    let was_enabled = geotorch_telemetry::enabled();
    geotorch_telemetry::set_enabled(true);
    let heap = |device| {
        with_device(device, || {
            for _ in 0..4 {
                std::hint::black_box(x.relu());
            }
            let (heap, tasks) = (heap_allocs(), pool_tasks());
            for _ in 0..16 {
                std::hint::black_box(x.relu());
            }
            (heap_allocs() - heap, pool_tasks() - tasks)
        })
    };
    // Warm both first: the pool's workers, the telemetry registry and
    // the tensor pool's shelves allocate once.
    heap(Device::Parallel(2));
    let (cpu, _) = heap(Device::Cpu);
    let (parallel, tasks) = heap(Device::Parallel(2));
    geotorch_telemetry::set_enabled(was_enabled);
    eprintln!("relu [8,4,64,64] x16: {cpu} heap allocations on Cpu, {parallel} on Parallel(2) ({tasks} pool tasks)");
    assert!(tasks > 0, "relu on Parallel(2) never reached the pool");
    assert!(
        parallel <= cpu,
        "16 fanned-out relus made {parallel} heap allocations against {cpu} on one thread \
         — a dispatch allocates again"
    );
}

/// Row bands the device pool has been handed so far.
fn pool_tasks() -> u64 {
    geotorch_telemetry::snapshot()
        .into_iter()
        .find(|s| s.name == "device.pool.tasks")
        .map_or(0, |s| s.count)
}

#[test]
fn parallel_matmul_dispatches_one_band_per_thread() {
    let _serial = serial();
    let (a, b) = (square(768, 5), square(768, 6));
    let was_enabled = geotorch_telemetry::enabled();
    geotorch_telemetry::set_enabled(true);
    let before = pool_tasks();
    with_device(Device::Parallel(2), || std::hint::black_box(a.matmul(&b)));
    let dispatched = pool_tasks() - before;
    geotorch_telemetry::set_enabled(was_enabled);
    assert_eq!(dispatched, 2, "768³ on two threads is two row bands");
}

#[test]
fn parallel_band_split_scales_with_cores() {
    if let Some(reason) = perf_skip_reason() {
        eprintln!("skipping parallel scaling gate: {reason}");
        return;
    }
    let _serial = serial();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping parallel scaling gate: {cores} cores (needs 4)");
        return;
    }
    let a = square(768, 5);
    let b = square(768, 6);
    let _ = a.matmul(&b);
    let serial = best_of(3, || {
        std::hint::black_box(a.matmul(&b));
    });
    let threads = cores.min(4);
    let parallel = with_device(Device::Parallel(threads), || {
        let _ = a.matmul(&b); // warm the worker pool
        best_of(3, || {
            std::hint::black_box(a.matmul(&b));
        })
    });
    let speedup = serial / parallel;
    eprintln!(
        "matmul 768: serial {:.2} ms, {threads}-thread {:.2} ms → {speedup:.2}x (gate {MIN_PARALLEL_SPEEDUP}x)",
        serial * 1e3,
        parallel * 1e3
    );
    assert!(
        speedup >= MIN_PARALLEL_SPEEDUP,
        "parallel band split stopped scaling: {speedup:.2}x on {threads} threads \
         (gate {MIN_PARALLEL_SPEEDUP}x)"
    );
}
