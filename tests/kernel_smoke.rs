//! Tier-1 smoke for the convolution kernel, through the `geotorchai`
//! facade: the production `conv2d` equals the naive reference bit for
//! bit on lattice inputs at the shapes the models run, a sample's output
//! does not depend on its batch, and the analytic conv gradients match
//! finite differences. The full suites live in
//! `crates/tensor/tests/kernel_oracle.rs` and
//! `crates/nn/tests/device_gradcheck.rs`.

use geotorchai::nn::gradcheck::assert_gradients_close;
use geotorchai::nn::Var;
use geotorchai::tensor::ops::conv::{conv2d, conv2d_naive};
use geotorchai::tensor::{with_device, Device, Tensor};
use rand::{Rng, SeedableRng};

/// Multiples of 1/16 in [-1, 1]: every product and partial sum of a
/// conv over these is exact in f32, so any accumulation order — fused
/// or not — must give the same bits.
fn lattice(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(-16i32..=16) as f32 / 16.0).collect();
    Tensor::from_vec(data, shape)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn conv2d_equals_the_naive_reference_on_lattice_inputs() {
    // DeepSTN+'s 16→16 conv over a 21×12 grid at batch 16, and a UNet
    // deep level (16→16 over a 40² plane): both run the direct kernel.
    for (si, shape) in [[16, 16, 21, 12], [2, 16, 40, 40]].iter().enumerate() {
        let x = lattice(shape, 1 + si as u64);
        let w = lattice(&[16, 16, 3, 3], 11 + si as u64);
        let bias = lattice(&[16], 21 + si as u64);
        let oracle = conv2d_naive(&x, &w, Some(&bias), 1, 1);
        for device in [Device::Cpu, Device::Parallel(2)] {
            let got = with_device(device, || conv2d(&x, &w, Some(&bias), 1, 1));
            assert_eq!(bits(&got), bits(&oracle), "shape {shape:?} on {device:?}");
        }
    }
}

#[test]
fn a_sample_does_not_depend_on_its_batch() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let x = Tensor::rand_uniform(&[4, 16, 21, 12], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[16, 16, 3, 3], -1.0, 1.0, &mut rng);
    let bias = Tensor::rand_uniform(&[16], -1.0, 1.0, &mut rng);
    let batched = with_device(Device::Parallel(2), || conv2d(&x, &w, Some(&bias), 1, 1));
    for i in 0..4 {
        let alone = conv2d(&x.narrow(0, i, i + 1), &w, Some(&bias), 1, 1);
        assert_eq!(bits(&batched.narrow(0, i, i + 1)), bits(&alone), "sample {i}");
    }
}

#[test]
fn conv_gradients_match_finite_differences() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let params = [
        Var::parameter(Tensor::rand_uniform(&[2, 2, 6, 5], -1.0, 1.0, &mut rng)),
        Var::parameter(Tensor::rand_uniform(&[3, 2, 3, 3], -0.5, 0.5, &mut rng)),
        Var::parameter(Tensor::rand_uniform(&[3], -0.5, 0.5, &mut rng)),
    ];
    assert_gradients_close(
        &params,
        |p| p[0].conv2d(&p[1], Some(&p[2]), 1, 1).square().mean_all(),
        1e-2,
        2e-2,
    );
}
