//! Leaving constants off the tape changes no parameter gradient: a
//! DeepSTN+ step gives bit-identical parameter gradients whether its
//! input batches are `Var::constant` (the training loop's case: the input
//! convs, the lag concat and its flattened copy are then no tape nodes)
//! or `Var::parameter`, which forces every input-gradient path.

use geotorch_models::grid::DeepStnPlus;
use geotorch_models::{GridInput, GridModel};
use geotorch_nn::loss::mse_loss;
use geotorch_nn::{Module, Var};
use geotorch_tensor::Tensor;
use rand::SeedableRng;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn deepstn_parameter_grads_do_not_depend_on_input_constness() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let model = DeepStnPlus::new(2, (3, 4, 1), 21, 12, 16, &mut rng);
    let lags: Vec<Tensor> = [6, 8, 2]
        .iter()
        .map(|&c| Tensor::rand_uniform(&[3, c, 21, 12], 0.0, 1.0, &mut rng))
        .collect();
    let target = Var::constant(Tensor::rand_uniform(&[3, 2, 21, 12], 0.0, 1.0, &mut rng));
    let grads = |leaf: fn(Tensor) -> Var| {
        let input = GridInput::Periodical {
            closeness: leaf(lags[0].clone()),
            period: leaf(lags[1].clone()),
            trend: leaf(lags[2].clone()),
        };
        mse_loss(&model.forward(&input), &target).backward();
        let grads: Vec<Vec<u32>> = model
            .parameters()
            .iter()
            .map(|p| bits(&p.grad().unwrap()))
            .collect();
        model.parameters().iter().for_each(Var::zero_grad);
        grads
    };
    let constant = grads(Var::constant);
    let parameter = grads(Var::parameter);
    assert_eq!(constant.len(), model.parameters().len());
    for (i, (c, p)) in constant.iter().zip(&parameter).enumerate() {
        assert_eq!(
            c, p,
            "parameter {i}'s gradient depends on whether the inputs are constants"
        );
    }
}
