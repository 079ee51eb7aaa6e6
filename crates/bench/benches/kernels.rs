//! Compute-kernel microbenchmarks and the kernel-strategy ablations
//! called out in DESIGN.md: the GEMM convolution vs the naive sliding
//! window, blocked matmul vs the triple loop, and GLCM extraction cost
//! (the feature DeepSAT V2 pays for per image).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

use geotorch_raster::glcm::{Glcm, GlcmDirection};
use geotorch_tensor::ops::conv::{conv2d, conv2d_direct, conv2d_naive};
use geotorch_tensor::ops::matmul::{matmul_naive, simd_kernel_name};
use geotorch_tensor::ops::pool::maxpool2d;
use geotorch_tensor::{with_device, Device, Tensor};

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(42)
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    for &n in &[32usize, 64, 128] {
        let mut r = rng();
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut r);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut r);
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b));
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| matmul_naive(&a, &b));
        });
    }
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(20);
    for &(ch, size) in &[(3usize, 32usize), (13, 32), (3, 64)] {
        let mut r = rng();
        let x = Tensor::rand_uniform(&[4, ch, size, size], -1.0, 1.0, &mut r);
        let w = Tensor::rand_uniform(&[16, ch, 3, 3], -1.0, 1.0, &mut r);
        let label = format!("c{ch}_s{size}");
        group.bench_with_input(BenchmarkId::new("gemm", &label), &label, |bench, _| {
            bench.iter(|| conv2d(&x, &w, None, 1, 1));
        });
        group.bench_with_input(BenchmarkId::new("naive", &label), &label, |bench, _| {
            bench.iter(|| conv2d_naive(&x, &w, None, 1, 1));
        });
    }
    group.finish();
}

/// The packed cache-blocked SIMD GEMM at the paper-relevant square
/// sizes. The naive oracle is far too slow to sweep here (the `matmul`
/// group covers it at ≤ 128); this group tracks the fast kernel's
/// absolute cost so `results/` history shows GFLOP/s over time.
fn bench_kernel_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_matmul");
    group.sample_size(20);
    eprintln!("kernel_matmul: SIMD tier = {}", simd_kernel_name());
    for &n in &[256usize, 512, 1024] {
        let mut r = rng();
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut r);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut r);
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b));
        });
    }
    group.finish();
}

/// Conv lowering ablation on fig9-shaped workloads: the direct
/// shift-and-axpy path vs the column-free GEMM on 3×3/stride-1 (16
/// output channels, where `conv2d` is the GEMM), and the dense-source
/// GEMM on 1×1.
fn bench_kernel_conv2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_conv2d");
    group.sample_size(20);
    for &(ch, size) in &[(3usize, 32usize), (13, 32), (8, 40)] {
        let mut r = rng();
        let x = Tensor::rand_uniform(&[4, ch, size, size], -1.0, 1.0, &mut r);
        let w = Tensor::rand_uniform(&[16, ch, 3, 3], -1.0, 1.0, &mut r);
        let label = format!("c{ch}_s{size}");
        group.bench_with_input(BenchmarkId::new("direct", &label), &label, |bench, _| {
            bench.iter(|| conv2d_direct(&x, &w, None, 1));
        });
        group.bench_with_input(BenchmarkId::new("gemm", &label), &label, |bench, _| {
            bench.iter(|| conv2d(&x, &w, None, 1, 1));
        });
    }
    let mut r = rng();
    let x = Tensor::rand_uniform(&[4, 16, 32, 32], -1.0, 1.0, &mut r);
    let w = Tensor::rand_uniform(&[32, 16, 1, 1], -1.0, 1.0, &mut r);
    group.bench_with_input(BenchmarkId::new("implicit_1x1", "c16_s32"), &0, |bench, _| {
        bench.iter(|| conv2d(&x, &w, None, 1, 0));
    });
    group.finish();
}

fn bench_glcm(c: &mut Criterion) {
    let mut group = c.benchmark_group("glcm");
    group.sample_size(30);
    for &size in &[28usize, 64, 128] {
        let mut r = rng();
        let img = Tensor::rand_uniform(&[size * size], 0.0, 1.0, &mut r);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| {
                let g =
                    Glcm::compute(img.as_slice(), size, size, 16, GlcmDirection::East).unwrap();
                g.feature_vector()
            });
        });
    }
    group.finish();
}

/// Cpu vs Parallel over the pooled kernels: large shapes should favour
/// `Device::parallel()`, while the small shapes measure per-dispatch
/// overhead of the persistent worker pool (no thread spawns per call).
fn bench_device(c: &mut Criterion) {
    let devices = [("cpu", Device::Cpu), ("parallel", Device::parallel())];

    let mut group = c.benchmark_group("device_matmul");
    group.sample_size(20);
    for &n in &[64usize, 256] {
        let mut r = rng();
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut r);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut r);
        for (name, device) in devices {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bench, _| {
                bench.iter(|| with_device(device, || a.matmul(&b)));
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("device_conv2d");
    group.sample_size(20);
    let mut r = rng();
    let x = Tensor::rand_uniform(&[8, 8, 64, 64], -1.0, 1.0, &mut r);
    let w = Tensor::rand_uniform(&[16, 8, 3, 3], -1.0, 1.0, &mut r);
    for (name, device) in devices {
        group.bench_with_input(BenchmarkId::new(name, "b8c8s64"), &0, |bench, _| {
            bench.iter(|| with_device(device, || conv2d(&x, &w, None, 1, 1)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("device_pool_softmax_reduce");
    group.sample_size(20);
    let mut r = rng();
    let img = Tensor::rand_uniform(&[8, 16, 64, 64], -1.0, 1.0, &mut r);
    let logits = Tensor::rand_uniform(&[512, 1024], -1.0, 1.0, &mut r);
    for (name, device) in devices {
        group.bench_with_input(BenchmarkId::new(name, "maxpool"), &0, |bench, _| {
            bench.iter(|| with_device(device, || maxpool2d(&img, 2, 2)));
        });
        group.bench_with_input(BenchmarkId::new(name, "softmax"), &0, |bench, _| {
            bench.iter(|| with_device(device, || logits.softmax_lastdim()));
        });
        group.bench_with_input(BenchmarkId::new(name, "sum"), &0, |bench, _| {
            bench.iter(|| with_device(device, || img.sum()));
        });
    }
    group.finish();

    // Small tensors stay below PARALLEL_THRESHOLD: both devices should cost
    // the same because dispatch never reaches the pool.
    let mut group = c.benchmark_group("device_small_dispatch");
    group.sample_size(50);
    let mut r = rng();
    let small = Tensor::rand_uniform(&[64], -1.0, 1.0, &mut r);
    for (name, device) in devices {
        group.bench_with_input(BenchmarkId::new(name, "add64"), &0, |bench, _| {
            bench.iter(|| with_device(device, || small.add(&small)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_conv2d,
    bench_kernel_matmul,
    bench_kernel_conv2d,
    bench_glcm,
    bench_device
);
criterion_main!(benches);
