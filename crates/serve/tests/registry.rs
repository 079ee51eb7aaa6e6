//! Registry behaviour: eval-mode guarantees and checkpoint validation.

use std::path::PathBuf;

use geotorch_nn::layers::BatchNorm2d;
use geotorch_nn::{Layer, Module, Var};
use geotorch_serve::{BatchConfig, Registry, ServeError, ServeModel};
use geotorch_tensor::{Device, Tensor};

fn cpu_config() -> BatchConfig {
    BatchConfig {
        max_batch: 4,
        device: Device::Cpu,
        ..BatchConfig::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("geotorch_serve_{}_{name}.json", std::process::id()))
}

/// A one-layer model whose output depends on whether BatchNorm runs in
/// training mode (batch statistics) or eval mode (running statistics).
struct BnNet {
    bn: BatchNorm2d,
}

impl BnNet {
    fn new() -> BnNet {
        let bn = BatchNorm2d::new(1);
        // Distinctive running stats: eval output is (x - 2) / sqrt(4 + eps),
        // nothing like the batch-statistics normalisation of train mode.
        bn.set_running_stats(
            Tensor::from_vec(vec![2.0], &[1]),
            Tensor::from_vec(vec![4.0], &[1]),
        );
        BnNet { bn }
    }
}

impl Module for BnNet {
    fn parameters(&self) -> Vec<Var> {
        self.bn.parameters()
    }
    fn set_training(&self, training: bool) {
        self.bn.set_training(training);
    }
}

impl ServeModel for BnNet {
    fn predict(&self, batch: &Var) -> Var {
        self.bn.forward(batch)
    }
}

#[test]
fn served_batchnorm_uses_running_stats_not_batch_stats() {
    let sample = Tensor::from_vec(vec![0.0, 4.0, 8.0, 12.0], &[1, 2, 2]);

    // Local reference, explicitly in eval mode.
    let local = BnNet::new();
    local.set_training(false);
    let expected = local
        .predict(&Var::constant(sample.reshape(&[1, 1, 2, 2])))
        .value()
        .index_axis(0, 0);

    // Same input in train mode normalises by the batch's own statistics
    // — the failure mode this test guards against.
    let train_model = BnNet::new();
    train_model.set_training(true);
    let train_output = train_model
        .predict(&Var::constant(sample.reshape(&[1, 1, 2, 2])))
        .value()
        .index_axis(0, 0);
    assert!(
        !expected.allclose(&train_output, 1e-3),
        "test is vacuous: train and eval outputs coincide"
    );

    // Freshly-built BatchNorm layers default to training mode; the
    // registry/worker must flip the served model to eval before the
    // first request.
    let mut registry = Registry::new();
    registry.register("bn", None, || Box::new(BnNet::new()) as Box<dyn ServeModel>);
    let (workers, _) = registry.spawn_all(cpu_config()).expect("spawn");
    let served = workers["bn"].client().predict(sample).expect("predict");

    assert_eq!(
        served.as_slice(),
        expected.as_slice(),
        "served model must normalise with running statistics (eval mode)"
    );
    // Hand-checked: (x - mean) / sqrt(var + eps) with mean=2, var=4.
    let eps = 1e-5f32;
    let denom = (4.0f32 + eps).sqrt();
    for (got, &x) in served.as_slice().iter().zip(&[0.0f32, 4.0, 8.0, 12.0]) {
        assert!((got - (x - 2.0) / denom).abs() < 1e-5);
    }
}

#[test]
fn wrong_architecture_checkpoint_aborts_spawn() {
    let path = temp_path("wrong_arch");
    // Checkpoint a model with one [1]-shaped parameter set...
    let donor = BnNet::new();
    geotorch_core::checkpoint::save_named(&donor, "other-model", &path).expect("save");

    // ...then try to serve it under a different registered name.
    let mut registry = Registry::new();
    registry.register("bn", Some(path.clone()), || {
        Box::new(BnNet::new()) as Box<dyn ServeModel>
    });
    let err = registry
        .spawn_all(cpu_config())
        .map(|(workers, _)| workers)
        .expect_err("name mismatch must abort startup");
    assert!(
        matches!(&err, ServeError::ModelLoad(msg) if msg.contains("other-model")),
        "expected a ModelLoad error naming the saved model, got {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn matching_checkpoint_restores_weights_through_registry() {
    let path = temp_path("roundtrip");
    let donor = BnNet::new();
    // Perturb the learned affine so the checkpoint differs from a fresh
    // build; running stats ride along as parameters too.
    let params = donor.parameters();
    params[0].assign(Tensor::from_vec(vec![3.0], &[1]));
    geotorch_core::checkpoint::save_named(&donor, "bn", &path).expect("save");

    let mut registry = Registry::new();
    registry.register("bn", Some(path.clone()), || {
        Box::new(BnNet::new()) as Box<dyn ServeModel>
    });
    let (workers, _) = registry.spawn_all(cpu_config()).expect("spawn");
    let sample = Tensor::from_vec(vec![0.0, 4.0, 8.0, 12.0], &[1, 2, 2]);
    let served = workers["bn"].client().predict(sample.clone()).expect("predict");

    donor.set_training(false);
    let expected = donor
        .predict(&Var::constant(sample.reshape(&[1, 1, 2, 2])))
        .value()
        .index_axis(0, 0);
    assert_eq!(served.as_slice(), expected.as_slice());
    std::fs::remove_file(&path).ok();
}
