//! The one file through which the benchmark touches the repository.
//!
//! Everything the workloads call is re-exported or wrapped here, so the
//! surface the benchmark depends on is readable in one place and a
//! change to the repository can break the benchmark only through this
//! list. It is kept to the calls ROADMAP items 2–5 keep: no
//! `all_batches`/`collect_then_batch`, no fallback front, no legacy
//! checkpoint loaders, no `pool::set_enabled`, no telemetry scope
//! names, nothing from `crates/bench`.

use rand::SeedableRng;

pub use geotorch_converter::{
    BatchStream, DfFormatter, FormattedFrame, LoaderError, PrefetchLoader, RowTransformer,
    SpillBatchStream,
};
pub use geotorch_core::checkpoint;
pub use geotorch_core::trainer::grid_io;
pub use geotorch_core::{TrainConfig, TrainReport, Trainer, UpdateMode};
pub use geotorch_dataframe::{Column, DataFrame, Envelope, SpillStore};
pub use geotorch_datasets::synth::{RasterScene, TripGenerator, TripRecord};
pub use geotorch_datasets::{
    chronological_split, GridDatasetBuilder, GridSampler, StBatch, StGridDataset,
};
pub use geotorch_models::grid::DeepStnPlus;
pub use geotorch_models::raster::{SatCnn, UNet};
pub use geotorch_models::{GridInput, GridModel, RasterClassifier, Segmenter};
pub use geotorch_nn::layers::{Linear, Relu, Sequential};
pub use geotorch_nn::loss::mse_loss;
pub use geotorch_nn::optim::{Adam, Optimizer};
pub use geotorch_nn::{no_grad, Layer, Module, Var};
pub use geotorch_preprocess::geopandas_like::get_st_grid_dataframe_naive;
pub use geotorch_preprocess::st_manager::trips_dataframe;
pub use geotorch_preprocess::{StGridConfig, StManager};
pub use geotorch_raster::{core_of, BlendMode, MosaicAccumulator, Raster, Window};
pub use geotorch_serve::{
    run_mosaic, ModelClient, Registry, ServeConfig, ServeModel, Server, TileConfig,
};
pub use geotorch_tensor::ops::conv::conv2d;
pub use geotorch_tensor::ops::matmul::simd_kernel_name;
pub use geotorch_tensor::{pool, Device, Tensor};

/// Periodical lag lengths (closeness, period, trend) of every grid
/// model the benchmark trains — the repository's own experiment setting.
pub const LENS: (usize, usize, usize) = (3, 4, 1);

/// Name the served DeepSTN+ is registered, saved and synced under.
pub const GRID_MODEL: &str = "deepstn";
/// Name the served SatCNN is registered under.
pub const CLASSIFIER: &str = "satcnn";
/// Name the served UNet is registered under.
pub const SEGMENTER: &str = "unet";

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// DeepSTN+ with 16 filters for a `[c, h, w]` grid.
pub fn deepstn(c: usize, h: usize, w: usize, seed: u64) -> DeepStnPlus {
    DeepStnPlus::new(c, LENS, h, w, 16, &mut rng(seed))
}

/// SatCNN for 3×32×32 images and 10 classes.
pub fn satcnn(seed: u64) -> SatCnn {
    SatCnn::new(3, 32, 32, 10, &mut rng(seed))
}

/// UNet with base width 4, three bands in, one class out.
pub fn unet(seed: u64) -> UNet {
    UNet::new(3, 1, 4, &mut rng(seed))
}

/// The 4 → 64 → 64 → 1 trip-distance MLP.
pub fn trip_mlp(seed: u64) -> Sequential {
    let mut rng = rng(seed);
    Sequential::new()
        .add(Linear::new(4, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 1, &mut rng))
}

/// A seeded image in `[0, 1)` of the given shape.
pub fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    Tensor::rand_uniform(shape, 0.0, 1.0, &mut rng(seed))
}

/// The training protocol shared by every `fit_*` the benchmark runs:
/// Adam, a step per batch, no early stopping, the serial device.
pub fn train_config(
    epochs: usize,
    batch_size: usize,
    lr: f32,
    seed: u64,
    replicas: usize,
) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size,
        learning_rate: lr,
        early_stopping_patience: None,
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed,
        device: Device::Cpu,
        replicas,
    }
}

/// Stack a periodical batch's three lag groups on the channel axis: the
/// single-tensor form a `/predict` request carries.
pub fn stack_periodical(batch: &StBatch) -> Tensor {
    match batch {
        StBatch::Periodical {
            x_closeness,
            x_period,
            x_trend,
            ..
        } => Tensor::concat(&[x_closeness, x_period, x_trend], 1),
        _ => panic!("the benchmark only serves periodical batches"),
    }
}

/// Split a channel-stacked `[B, (lc+lp+lt)·c, H, W]` input back into
/// the periodical lag groups.
pub fn split_periodical(x: &Var, c: usize) -> GridInput {
    let (a, b) = (LENS.0 * c, (LENS.0 + LENS.1) * c);
    let end = (LENS.0 + LENS.1 + LENS.2) * c;
    GridInput::Periodical {
        closeness: x.narrow(1, 0, a),
        period: x.narrow(1, a, b),
        trend: x.narrow(1, b, end),
    }
}

/// Serves a periodical grid model behind the batcher's one-tensor-in
/// interface (the registry's own grid adapter only serves the basic
/// representation).
pub struct PeriodicalServe {
    pub model: DeepStnPlus,
    pub channels: usize,
}

impl Module for PeriodicalServe {
    fn parameters(&self) -> Vec<Var> {
        self.model.parameters()
    }

    fn set_training(&self, training: bool) {
        self.model.set_training(training);
    }
}

impl ServeModel for PeriodicalServe {
    fn predict(&self, batch: &Var) -> Var {
        self.model.forward(&split_periodical(batch, self.channels))
    }
}

/// A tensor as a `/predict` request body carries it.
pub fn tensor_to_json(tensor: &Tensor) -> String {
    serde_json::to_string(tensor).expect("tensors always serialise")
}

/// The tensor in a `/predict` reply body (`model`, `shape`, `data`), or
/// in a request body.
pub fn tensor_from_json(body: &str) -> Option<Tensor> {
    serde_json::from_str(body).ok()
}

/// `ServeConfig::default()` with one responder per core.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        http_workers: nproc(),
        ..ServeConfig::default()
    }
}

/// Cores the process may use; every load generator stays at or below it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
