//! Performance-regression gate for the fast kernels, in the style of
//! `geotorch-core`'s `alloc_regression.rs`: the blocked SIMD matmul must stay ≥ 3x faster
//! than the naive oracle at 512×512 single-threaded, its packing
//! buffers must recycle from the tensor pool at steady state, the
//! parallel band split must hand each thread one band and actually scale
//! when four or more cores are available, and a DeepSTN+-shaped 3×3
//! convolution must run at a fixed
//! fraction of the GEMM's own rate on the same host — its weight gradient
//! too, and its 16→2 output head at a fixed fraction of the 16→16 layer's.
//!
//! Wall-clock assertions are meaningless in unoptimised builds and
//! noisy CI matrices, so the timed tests skip themselves under
//! `debug_assertions`, under the chaos matrix (`GEOTORCH_CHAOS_SEED`),
//! and — for the scaling test — on runners with fewer than four cores,
//! where two busy threads share too little hardware to show the split.
//! CI runs this file with `--release`.

use geotorch_tensor::ops::conv::{conv2d, conv2d_weight_grad};
use geotorch_tensor::ops::matmul::matmul_naive;
use geotorch_tensor::{pool, with_device, Device, Tensor};
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Minimum speedup of the blocked kernel over `matmul_naive` at
/// 512×512×512 on one thread. Locally the packed AVX+FMA kernel
/// measures 25–35x; 3x leaves room for slow CI steppings while still
/// catching any fallback to a scalar path.
const MIN_SPEEDUP_VS_NAIVE: f64 = 3.0;

/// Steady-state pool-miss budget for a window of 16 large matmuls.
/// After warm-up, pack buffers and outputs must all be recycled.
const PACK_MISS_BUDGET: u64 = 4;

/// Minimum parallel-over-serial speedup at 768³ when ≥ 4 cores exist.
const MIN_PARALLEL_SPEEDUP: f64 = 1.3;

/// Minimum conv 3×3 rate at DeepSTN+'s 16×16×21×12 shape, as a fraction
/// of the 512³ matmul rate measured in the same process. The direct
/// kernel (four output channels × 16 pixels in registers, fused) measures
/// 0.57–0.75 best-of-60 on a 2-vCPU host, so 0.5 — that low minus a 12%
/// margin — fails on a lost register block or a return of a materialised
/// column matrix (0.20) without depending on the host's clock.
const MIN_CONV_SHARE_OF_MATMUL: f64 = 0.5;

/// Minimum weight-gradient rate at DeepSTN+'s 16→16 / 21×12 / batch-16
/// shape, as a fraction of the 512³ matmul rate measured in the same
/// process. The transposed product (taps down the microkernel's rows,
/// panels packed straight from the padded image) measures 0.47–0.56
/// best-of-100 on a 2-vCPU host, so the gate is that low minus a 10%
/// margin. The matmul, not the forward, is the denominator: the forward's
/// rate moves with its lowering, the weight gradient's does not.
const MIN_WEIGHT_GRAD_SHARE_OF_MATMUL: f64 = 0.42;

/// Minimum rate of DeepSTN+'s 16→2 output head as a fraction of the 16→16
/// forward rate, both on the register-blocked direct kernel. It measures
/// 0.59–0.76; the row-by-row axpy kernel measured ~0.16.
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
        "matmul 512: blocked {:.2} ms, naive {:.2} ms → {speedup:.1}x (gate {MIN_SPEEDUP_VS_NAIVE}x)",
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
        "conv3x3 16x16x21x12: {conv_gflops:.1} GFLOP/s, matmul 512: {matmul_gflops:.1} GFLOP/s \
         → {share:.2} (gate {MIN_CONV_SHARE_OF_MATMUL})"
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
        "16x16x21x12: forward {fwd:.1} GFLOP/s, weight grad {wgrad:.1} ({:.2} of the 512³ matmul's \
         {matmul_gflops:.1}, gate {MIN_WEIGHT_GRAD_SHARE_OF_MATMUL}); 16->2 head {head:.1} ({:.2} of \
         the forward, gate {MIN_HEAD_SHARE_OF_WIDE_CONV})",
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
