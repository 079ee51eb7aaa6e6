//! The fused `Var::linear` node against the three-node composition it
//! replaced (`x.matmul(&w.permute(&[1, 0])).add(&b)`): gradients match
//! finite differences with and without a bias, for a constant and for a
//! tape input, and a full MLP training step through `Linear` is
//! bit-identical to the composed reference — losses, every gradient and
//! the weights after each Adam step — on continuous inputs.

use geotorch_nn::gradcheck::assert_gradients_close;
use geotorch_nn::layers::{Linear, Relu, Sequential};
use geotorch_nn::loss::mse_loss;
use geotorch_nn::optim::{Adam, Optimizer};
use geotorch_nn::{Layer, Module, Var};
use geotorch_tensor::Tensor;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn linear_gradients_match_finite_differences() {
    let mut rng = rng(1);
    let x = Tensor::rand_uniform(&[5, 3], -1.0, 1.0, &mut rng);
    let w = Var::parameter(Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng));
    let b = Var::parameter(Tensor::rand_uniform(&[4], -0.5, 0.5, &mut rng));
    let loss = |y: Var| y.tanh().square().mean_all();
    // A constant input: only the weight and bias are on the tape.
    assert_gradients_close(
        &[w.clone(), b.clone()],
        |p| loss(Var::constant(x.clone()).linear(&p[0], Some(&p[1]))),
        1e-3,
        5e-3,
    );
    assert_gradients_close(
        std::slice::from_ref(&w),
        |p| loss(Var::constant(x.clone()).linear(&p[0], None)),
        1e-3,
        5e-3,
    );
    // A tape input: the input gradient `g·W` flows too.
    let xp = Var::parameter(x.clone());
    assert_gradients_close(
        &[xp.clone(), w.clone(), b],
        |p| loss(p[0].mul_scalar(1.5).linear(&p[1], Some(&p[2]))),
        1e-3,
        5e-3,
    );
    assert_gradients_close(&[xp, w], |p| loss(p[0].linear(&p[1], None)), 1e-3, 5e-3);
}

#[test]
fn constant_input_gets_no_gradient() {
    let x = Var::constant(Tensor::ones(&[2, 3]));
    let w = Var::parameter(Tensor::ones(&[4, 3]));
    x.linear(&w, None).sum_all().backward();
    assert!(x.grad().is_none(), "a constant leaf is not on the tape");
    assert_eq!(w.grad().unwrap().as_slice(), &[2.0; 12]);
}

/// The composition `Linear::forward` ran before the fused node.
fn composed(x: &Var, w: &Var, b: &Var) -> Var {
    x.matmul(&w.permute(&[1, 0])).add(b)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Three Adam steps of the trip MLP (4→64→64→1, batch 512) through the
/// fused `Linear`, and through the composed reference on copies of the
/// same weights: identical bits at every step.
#[test]
fn mlp_steps_bit_identical_to_composed_reference() {
    let mut rng = rng(7);
    let model = Sequential::new()
        .add(Linear::new(4, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 1, &mut rng));
    let params = model.parameters();
    let reference: Vec<Var> = params.iter().map(|p| Var::parameter(p.value())).collect();
    let forward_ref = |x: &Var| {
        let h = composed(x, &reference[0], &reference[1]).relu();
        let h = composed(&h, &reference[2], &reference[3]).relu();
        composed(&h, &reference[4], &reference[5])
    };
    let mut opt = Adam::new(params.clone(), 1e-2);
    let mut opt_ref = Adam::new(reference.clone(), 1e-2);
    for step in 0..3 {
        let x = Tensor::rand_uniform(&[512, 4], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform(&[512, 1], -1.0, 1.0, &mut rng);
        let loss = mse_loss(
            &model.forward(&Var::constant(x.clone())),
            &Var::constant(y.clone()),
        );
        let loss_ref = mse_loss(&forward_ref(&Var::constant(x)), &Var::constant(y));
        assert_eq!(
            loss.value().item().to_bits(),
            loss_ref.value().item().to_bits(),
            "loss at step {step}"
        );
        loss.backward();
        loss_ref.backward();
        drop((loss, loss_ref));
        for (i, (p, r)) in params.iter().zip(&reference).enumerate() {
            assert_eq!(
                bits(&p.grad().unwrap()),
                bits(&r.grad().unwrap()),
                "grad {i} at step {step}"
            );
        }
        opt.step();
        opt_ref.step();
        opt.zero_grad();
        opt_ref.zero_grad();
        for (i, (p, r)) in params.iter().zip(&reference).enumerate() {
            assert_eq!(
                bits(&p.value()),
                bits(&r.value()),
                "weight {i} after step {step}"
            );
        }
    }
}
