//! Exact per-step counters for one trip-MLP training step (4→64→64→1,
//! batch 512, MSE, Adam): tape `Var`s created and tensor-pool
//! acquisitions. Both counters are process-global, so this binary holds
//! a single test.

use geotorch_nn::layers::{Linear, Relu, Sequential};
use geotorch_nn::loss::mse_loss;
use geotorch_nn::optim::{Adam, Optimizer};
use geotorch_nn::{Layer, Module, Var};
use geotorch_tensor::{pool, Tensor};
use rand::SeedableRng;

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
