//! Allocation-regression gate for the pooled tensor storage: after a
//! warm-up pass, a fixed training loop and a serve-style no-grad forward
//! stream must run almost entirely out of recycled pool buffers. A jump
//! in steady-state `alloc.pool_miss` means a hot path started allocating
//! fresh buffers again — exactly the regression the pool exists to
//! prevent.

use std::sync::{Mutex, MutexGuard};

use geotorch_core::{TrainConfig, Trainer, UpdateMode};
use geotorch_datasets::shuffled_split;
use geotorch_datasets::RasterDataset;
use geotorch_models::raster::SatCnn;
use geotorch_models::RasterClassifier;
use geotorch_nn::Var;
use geotorch_tensor::{pool, Device, Tensor};
use rand::SeedableRng;

/// Steady-state miss budget for the measured training window. It
/// performs thousands of pooled acquisitions; after warm-up all but a
/// handful (measured: 4, state-dict snapshots forcing a copy-on-write)
/// must be recycled.
const TRAIN_MISS_BUDGET: u64 = 8;

/// Pooled acquisitions the same window may make. The step takes 1,964
/// (1,960 hits): outputs, gradients, and per 3×3 conv one padded input
/// for the direct kernel. A pack buffer per image took 2,586, and
/// per-image `pad2d`/`im2col`/transpose/`matmul` scratch tensors 8,495 —
/// every one a pool *hit*, which a miss budget cannot see — so this
/// count, not a stopwatch, is what fails if a per-image scratch tensor
/// comes back.
const TRAIN_ACQUIRE_BUDGET: u64 = 3000;

/// Steady-state miss budget for 32 serve-style forwards. Warm-up runs
/// the identical shapes, so the measured window should recycle every
/// buffer; a tiny allowance covers scratch growth inside the worker
/// pool's first parallel dispatches.
const SERVE_MISS_BUDGET: u64 = 8;

/// Both tests difference the pool's process-global counters, so one
/// test's warm-up must not land inside the other's measured window.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_training_runs_from_the_pool() {
    let _g = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let dataset = RasterDataset::classification("alloc", 3, 16, 16, 3, 24, 0);
    let model = SatCnn::new(3, 16, 16, 3, &mut rng);
    let (train, val, _) = shuffled_split(dataset.len(), 0);

    let config = TrainConfig {
        epochs: 2,
        batch_size: 8,
        learning_rate: 5e-3,
        early_stopping_patience: None,
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed: 0,
        device: Device::Cpu,
        replicas: 1,
    };

    // Warm-up: two epochs populate every size class the loop touches.
    Trainer::new(config.clone()).fit_classifier(&model, &dataset, &train, &val);

    // Measured window: the same loop again, counting pool misses only.
    let before = pool::stats();
    Trainer::new(config).fit_classifier(&model, &dataset, &train, &val);
    let after = pool::stats();

    let misses = after.misses - before.misses;
    let hits = after.hits - before.hits;
    eprintln!(
        "train steady state: {hits} pool hits (budget {TRAIN_ACQUIRE_BUDGET}), \
         {misses} misses (budget {TRAIN_MISS_BUDGET})"
    );
    assert!(
        misses <= TRAIN_MISS_BUDGET,
        "steady-state training allocated fresh buffers {misses} times \
         (budget {TRAIN_MISS_BUDGET}, hits {hits}) — a hot path stopped recycling"
    );
    // The budgets only mean something if the loop actually uses the
    // pool — and uses it per batch, not per image.
    assert!(
        hits > 1000 && hits + misses <= TRAIN_ACQUIRE_BUDGET,
        "expected 1000–{TRAIN_ACQUIRE_BUDGET} pooled acquisitions, saw {hits} hits + {misses} \
         misses — a kernel is allocating scratch tensors per image again"
    );
}

#[test]
fn steady_state_serve_forwards_run_from_the_pool() {
    let _g = serial();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let model = SatCnn::new(3, 16, 16, 4, &mut rng);
    let batch = Tensor::rand_uniform(&[8, 3, 16, 16], -1.0, 1.0, &mut rng);

    let forward = |input: &Tensor| {
        geotorch_nn::no_grad(|| {
            model
                .forward(&Var::constant(input.clone()), None)
                .value()
        })
    };

    // Warm-up: identical shapes populate the shelves.
    for _ in 0..4 {
        let _ = forward(&batch);
    }

    let before = pool::stats();
    for _ in 0..32 {
        let out = forward(&batch);
        assert_eq!(out.shape(), &[8, 4]);
    }
    let after = pool::stats();

    let misses = after.misses - before.misses;
    let hits = after.hits - before.hits;
    eprintln!("serve steady state: {hits} pool hits, {misses} misses (budget {SERVE_MISS_BUDGET})");
    assert!(
        misses <= SERVE_MISS_BUDGET,
        "steady-state serving allocated fresh buffers {misses} times \
         (budget {SERVE_MISS_BUDGET}, hits {hits})"
    );
    assert!(
        hits > 100,
        "expected the forward stream to acquire from the pool, saw {hits} hits"
    );
}
