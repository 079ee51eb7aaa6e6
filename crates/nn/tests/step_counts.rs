//! Exact per-step counters: tape `Var`s created and tensor-pool
//! acquisitions for one trip-MLP training step (4→64→64→1, batch 512,
//! MSE, Adam), and tape `Var`s and conv input gradients for one DeepSTN+
//! step. The counters are process-global, so the tests in this binary
//! run one at a time.

use std::sync::{Mutex, MutexGuard};

use geotorch_models::grid::DeepStnPlus;
use geotorch_models::{GridInput, GridModel};
use geotorch_nn::layers::{Linear, Relu, Sequential};
use geotorch_nn::loss::mse_loss;
use geotorch_nn::optim::{Adam, Optimizer};
use geotorch_nn::{Layer, Module, Var};
use geotorch_tensor::{pool, Tensor};
use rand::SeedableRng;

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Id the next `Var` will get (creating a probe consumes one).
fn next_id() -> usize {
    Var::constant(Tensor::scalar(0.0)).id() + 1
}

fn acquisitions() -> u64 {
    let s = pool::stats();
    s.hits + s.misses
}

#[test]
fn trip_mlp_step_counts() {
    let _g = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let model = Sequential::new()
        .add(Linear::new(4, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 1, &mut rng));
    let x = Tensor::rand_uniform(&[512, 4], -1.0, 1.0, &mut rng);
    let y = Tensor::rand_uniform(&[512, 1], -1.0, 1.0, &mut rng);

    // `Linear::forward` records exactly one tape node.
    let layer = Linear::new(4, 64, &mut rng);
    let input = Var::constant(x.clone());
    let before = next_id();
    let out = layer.forward(&input);
    assert_eq!(
        next_id() - before - 1,
        1,
        "Linear::forward must be one node"
    );
    drop(out);

    let mut opt = Adam::new(model.parameters(), 1e-3);
    let mut step = || {
        let loss = mse_loss(
            &model.forward(&Var::constant(x.clone())),
            &Var::constant(y.clone()),
        );
        loss.backward();
        drop(loss);
        opt.step();
        opt.zero_grad();
    };
    // Warm up: Adam's moment buffers and the pool's shelves fill here.
    step();
    step();
    let (ids, acquired) = (next_id(), acquisitions());
    step();
    let acquired = acquisitions() - acquired;
    let vars = next_id() - ids - 1;
    println!("per step: {vars} Vars, {acquired} pool acquisitions");
    // 17 → 11: each `Linear` is one node instead of permute + matmul + add.
    assert_eq!(vars, 11, "tape Vars per step");
    assert!(
        acquired <= 45,
        "{acquired} pool acquisitions per step (parent: 58)"
    );
}

/// One DeepSTN+ step (the benchmark's model: 2 channels, lags 3/4/1,
/// 21×12, 16 filters; batch 2) on constant input batches. The
/// branch-input convs and ConvPlus's conv over `concat(closeness, period,
/// trend)` read constants, so they compute no input gradient, and the
/// concat and its flattened copy are constant leaves, not tape nodes.
#[test]
fn deepstn_step_counts() {
    let _g = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let model = DeepStnPlus::new(2, (3, 4, 1), 21, 12, 16, &mut rng);
    let mut lag =
        |c: usize| Var::constant(Tensor::rand_uniform(&[2, c, 21, 12], 0.0, 1.0, &mut rng));
    let input = GridInput::Periodical {
        closeness: lag(6),
        period: lag(8),
        trend: lag(2),
    };
    let target = Var::constant(Tensor::zeros(&[2, 2, 21, 12]));
    let mut opt = Adam::new(model.parameters(), 1e-3);
    let mut step = || {
        let loss = mse_loss(&model.forward(&input), &target);
        loss.backward();
        drop(loss);
        opt.step();
        opt.zero_grad();
    };
    step();
    geotorch_telemetry::reset();
    geotorch_telemetry::set_enabled(true);
    let (ids, acquired) = (next_id(), acquisitions());
    step();
    let acquired = acquisitions() - acquired;
    let vars = next_id() - ids - 1;
    geotorch_telemetry::set_enabled(false);
    let calls = |name: &str| {
        geotorch_telemetry::snapshot()
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.calls)
    };
    let input_grads = calls("tensor.conv2d_input_grad");
    println!("per DeepSTN+ step: {vars} Vars, {input_grads} conv input gradients, {acquired} pool acquisitions");
    assert_eq!(
        input_grads, 16,
        "conv input gradients per step (20 before constant inputs left the tape)"
    );
    // Unchanged at 59: an op over constants still returns a `Var`, only
    // as a constant leaf rather than a tape node.
    assert_eq!(vars, 59, "Vars per step");
    // 415 → 351: every 3×3 conv and input gradient runs the direct kernel,
    // two acquisitions (padded input, output) where the GEMM took four
    // (output, packed filters, one panel buffer per image).
    // 351 → 347: the two dense layers' forwards at batch 2 read their
    // weight rows in place, without a packed input and a packed panel.
    // 347 → 267: each of the 20 weight gradients takes three (the
    // channels-last copy, the per-image slabs, the result) where the
    // im2col GEMM at batch 2 took seven (slabs, padded copy, a packed
    // operand and a panel buffer per image, the result).
    assert_eq!(
        acquired, 267,
        "pool acquisitions per step (347 when the weight gradient ran the im2col GEMM)"
    );
}
