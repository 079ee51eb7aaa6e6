//! Finite-difference gradient checks for MaxPool, BatchNorm2d (train and
//! eval), ConvLSTM and conv2d (3×3 at strides 1 and 2, a large-plane
//! 3×3 and the unpadded 1×1), run under both `Device::Cpu` and
//! `Device::Parallel(4)` so the parallel kernel paths are verified against
//! the same numeric gradients as the serial ones.

use geotorch_nn::gradcheck::assert_gradients_close;
use geotorch_nn::layers::{BatchNorm2d, Conv2d, ConvLstmCell, MaxPool2d};
use geotorch_nn::{Layer, Module, Var};
use geotorch_tensor::{with_device, Device, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEVICES: [Device; 2] = [Device::Cpu, Device::Parallel(4)];

#[test]
fn maxpool_gradients_both_devices() {
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(10);
            // Well-separated values keep the argmax stable under the
            // finite-difference perturbation.
            let base: Vec<f32> = (0..2 * 2 * 6 * 6).map(|i| (i * 7 % 144) as f32).collect();
            let mut x = Tensor::from_vec(base, &[2, 2, 6, 6]);
            x = x.add(&Tensor::rand_uniform(x.shape(), -0.3, 0.3, &mut rng));
            let pool = MaxPool2d::new(2, 2);
            let p = Var::parameter(x);
            assert_gradients_close(
                &[p],
                |params| pool.forward(&params[0]).square().mean_all(),
                1e-2,
                2e-2,
            );
        });
    }
}

#[test]
fn batchnorm_train_gradients_both_devices() {
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(11);
            let bn = BatchNorm2d::new(2);
            let x = Var::parameter(Tensor::rand_uniform(&[3, 2, 4, 4], -1.0, 1.0, &mut rng));
            let mut params = vec![x];
            params.extend_from_slice(&bn.parameters()[..2]); // gamma, beta
            assert_gradients_close(
                &params,
                |p| bn.forward(&p[0]).square().mean_all(),
                1e-2,
                2e-2,
            );
        });
    }
}

#[test]
fn batchnorm_eval_gradients_both_devices() {
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(12);
            let bn = BatchNorm2d::new(2);
            bn.set_running_stats(
                Tensor::from_vec(vec![0.3, -0.2], &[2]),
                Tensor::from_vec(vec![1.5, 0.8], &[2]),
            );
            bn.set_training(false);
            let x = Var::parameter(Tensor::rand_uniform(&[3, 2, 4, 4], -1.0, 1.0, &mut rng));
            let mut params = vec![x];
            params.extend_from_slice(&bn.parameters()[..2]);
            assert_gradients_close(
                &params,
                |p| bn.forward(&p[0]).square().mean_all(),
                1e-3,
                5e-3,
            );
        });
    }
}

#[test]
fn conv_3x3_stride1_gradients_both_devices() {
    // A 4→8 filter bank on the direct kernel, forward and backward (input
    // gradient as a conv with flipped filters — itself an 8→4 conv — and
    // the weight gradient's register block over a channels-last copy).
    // Input and weights both checked.
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(14);
            let conv = Conv2d::new(4, 8, 3, 1, 1, &mut rng);
            let x = Var::parameter(Tensor::rand_uniform(&[2, 4, 5, 5], -1.0, 1.0, &mut rng));
            let mut params = vec![x];
            params.extend_from_slice(&conv.parameters());
            assert_gradients_close(
                &params,
                |p| conv.forward(&p[0]).square().mean_all(),
                1e-2,
                2e-2,
            );
        });
    }
}

#[test]
fn conv_3x3_stride2_gradients_both_devices() {
    // A strided conv has no convolution for an adjoint: its input
    // gradient keeps the `col2im` scatter route, which nothing in
    // `crates/models` exercises.
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(17);
            let conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
            let x = Var::parameter(Tensor::rand_uniform(&[2, 2, 7, 6], -1.0, 1.0, &mut rng));
            let mut params = vec![x];
            params.extend_from_slice(&conv.parameters());
            assert_gradients_close(
                &params,
                |p| conv.forward(&p[0]).square().mean_all(),
                1e-2,
                2e-2,
            );
        });
    }
}

#[test]
fn conv_direct_3x3_large_plane_gradients_both_devices() {
    // Two output channels on a 48² plane: the direct kernel's two-channel
    // block and the weight gradient's register block down the whole
    // plane, checked as a forward/adjoint pair on both devices.
    // Weights and bias only: sweeping 48²-element inputs through
    // central differences would dwarf the suite's runtime.
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(16);
            let conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
            let x = Tensor::rand_uniform(&[1, 1, 48, 48], -1.0, 1.0, &mut rng);
            assert_gradients_close(
                &conv.parameters(),
                |_| conv.forward(&Var::constant(x.clone())).square().mean_all(),
                1e-2,
                2e-2,
            );
        });
    }
}

#[test]
fn conv_1x1_implicit_gemm_gradients_both_devices() {
    // 1×1/stride-1/no-pad: a one-tap chain on the direct kernel, in the
    // forward pass and in the input gradient (a 1×1 conv itself).
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(15);
            let conv = Conv2d::new(3, 2, 1, 1, 0, &mut rng);
            let x = Var::parameter(Tensor::rand_uniform(&[2, 3, 5, 5], -1.0, 1.0, &mut rng));
            let mut params = vec![x];
            params.extend_from_slice(&conv.parameters());
            assert_gradients_close(
                &params,
                |p| conv.forward(&p[0]).square().mean_all(),
                1e-2,
                2e-2,
            );
        });
    }
}

#[test]
fn convlstm_gradients_both_devices() {
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(13);
            let cell = ConvLstmCell::new(1, 2, 3, &mut rng);
            let x0 = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
            let x1 = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
            // Check the cell's own weights through a two-step rollout.
            let params = cell.parameters();
            assert_gradients_close(
                &params,
                |_| {
                    let (h, c) = cell.zero_state(1, 4, 4);
                    let (h, c) = cell.step(&Var::constant(x0.clone()), (&h, &c));
                    let (h, _) = cell.step(&Var::constant(x1.clone()), (&h, &c));
                    h.square().mean_all()
                },
                1e-2,
                2e-2,
            );
        });
    }
}
