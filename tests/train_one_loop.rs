//! Tier-1 smoke for the trainer, through the `geotorchai` facade: both
//! step executors of the one epoch driver run, and agree. A K = 2 stream
//! fit (replica workers) bit-equals the K = 1 fit (in-thread) on one
//! lattice case, and an in-thread classifier fit repeats exactly from
//! one seed. The full property lives in
//! `crates/core/tests/replica_grad_prop.rs`.

use geotorchai::converter::{BatchStream, LoaderError};
use geotorchai::datasets::shuffled_split;
use geotorchai::nn::layers::Linear;
use geotorchai::prelude::*;
use rand::SeedableRng;

/// A canned stream over pre-built batches.
struct VecStream(std::vec::IntoIter<(Tensor, Tensor)>);

impl BatchStream for VecStream {
    fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError> {
        Ok(self.0.next())
    }
}

fn linear(seed: u64) -> Linear {
    Linear::new(2, 1, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// One optimizer step over 16 lattice rows (multiples of 1/16, so every
/// sum, mean and `n_r/N` shard weight is exact in f32) cut into
/// `replicas` equal batches; returns the epoch loss and weight bits.
fn stream_step(replicas: usize) -> (Vec<u32>, Vec<Vec<u32>>) {
    let rows = 16 / replicas;
    let batches: Vec<(Tensor, Tensor)> = (0..replicas)
        .map(|b| {
            let x = (0..rows * 2).map(|i| ((b * rows * 2 + i) % 33) as f32 / 16.0 - 1.0);
            let y = (0..rows).map(|i| ((b * rows + i) * 5 % 33) as f32 / 16.0 - 1.0);
            (
                Tensor::from_vec(x.collect(), &[rows, 2]),
                Tensor::from_vec(y.collect(), &[rows, 1]),
            )
        })
        .collect();
    let model = linear(0);
    let params = model.parameters();
    params[0].assign(Tensor::from_vec(vec![0.5, -0.25], &[1, 2]));
    params[1].assign(Tensor::from_vec(vec![0.125], &[1]));
    let config = TrainConfig {
        epochs: 1,
        learning_rate: 0.5,
        early_stopping_patience: None,
        replicas,
        ..TrainConfig::default()
    };
    let report = Trainer::new(config)
        .fit_stream(
            &model,
            &|r| Box::new(linear(100 + r as u64)),
            &|m: &Linear, x: &Var| m.forward(x),
            &mut |_epoch| Ok(Box::new(VecStream(batches.clone().into_iter()))),
            &mut || 0.0,
            None,
        )
        .expect("stream fit succeeds");
    let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    (
        bits(&report.train_losses),
        model
            .state_dict()
            .iter()
            .map(|t| bits(t.as_slice()))
            .collect(),
    )
}

#[test]
fn two_replica_workers_bit_equal_the_in_thread_step() {
    let in_thread = stream_step(1);
    assert_ne!(
        in_thread.1[0],
        vec![0.5f32.to_bits(), (-0.25f32).to_bits()],
        "no step taken"
    );
    assert_eq!(in_thread, stream_step(2));
}

/// Thin cut of `crates/nn/tests/fused_linear.rs`: one Adam step of a
/// two-layer MLP through the fused `Linear` node is bit-identical —
/// loss and post-step weights — to the same step through the
/// `matmul(permute) + add` composition it replaced, on continuous data.
#[test]
fn fused_linear_step_bit_equals_the_composed_ops() {
    use geotorchai::nn::loss::mse_loss;
    use geotorchai::nn::optim::{Adam, Optimizer};
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let (l1, l2) = (Linear::new(4, 16, &mut rng), Linear::new(16, 1, &mut rng));
    let fused: Vec<Var> = l1.parameters().into_iter().chain(l2.parameters()).collect();
    let composed: Vec<Var> = fused.iter().map(|p| Var::parameter(p.value())).collect();
    let x = Var::constant(Tensor::rand_uniform(&[64, 4], -1.0, 1.0, &mut rng));
    let y = Var::constant(Tensor::rand_uniform(&[64, 1], -1.0, 1.0, &mut rng));
    let affine = |x: &Var, w: &Var, b: &Var| x.matmul(&w.permute(&[1, 0])).add(b);
    let step = |params: &[Var], loss: Var| {
        let value = loss.value().item().to_bits();
        loss.backward();
        drop(loss);
        let mut opt = Adam::new(params.to_vec(), 1e-2);
        opt.step();
        let weights: Vec<Vec<u32>> = params
            .iter()
            .map(|p| p.value().as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        (value, weights)
    };
    let out = step(&fused, mse_loss(&l2.forward(&l1.forward(&x).relu()), &y));
    let h = affine(&x, &composed[0], &composed[1]).relu();
    let reference = step(&composed, mse_loss(&affine(&h, &composed[2], &composed[3]), &y));
    assert_eq!(out, reference);
}

#[test]
fn classifier_fit_repeats_exactly_from_one_seed() {
    let run = || {
        let ds = RasterDataset::classification("one_loop", 3, 8, 8, 3, 12, 4);
        let model = SatCnn::new(3, 8, 8, 3, &mut rand::rngs::StdRng::seed_from_u64(2));
        let (train, val, _) = shuffled_split(ds.len(), 7);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 8,
            seed: 5,
            ..TrainConfig::default()
        };
        Trainer::new(config)
            .fit_classifier(&model, &ds, &train, &val)
            .train_losses
    };
    let first = run();
    assert_eq!(first.len(), 2);
    assert!(first.iter().all(|l| l.is_finite()));
    assert_eq!(first, run());
}
