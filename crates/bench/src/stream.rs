//! The streaming Fig. 8 scenario: synthetic NYC-like trips generated in
//! chunks, spilled to disk partition by partition, then streamed through
//! the `SpillBatchStream → PrefetchLoader → fit_stream` pipeline with K
//! data-parallel replicas. Peak memory is one chunk + the prefetch
//! queue, independent of total row count — this is how 100M+ trips
//! train on a laptop.
//!
//! Shared between `repro fig8_stream` and the `train-scale` CI smoke
//! test so both measure exactly the same pipeline.

use std::path::Path;
use std::sync::Arc;

use geotorch_converter::{
    BatchStream, DfFormatter, LoaderError, PrefetchLoader, RowTransformer, SpillBatchStream,
};
use geotorch_core::{TrainConfig, TrainError, TrainReport, Trainer, UpdateMode};
use geotorch_dataframe::{Column, DataFrame, SpillStore};
use geotorch_datasets::synth::TripGenerator;
use geotorch_nn::layers::{Linear, Relu, Sequential};
use geotorch_nn::{Layer, Var};
use geotorch_tensor::Device;
use rand::SeedableRng;

/// Feature columns fed to the trip MLP.
pub const TRIP_FEATURES: [&str; 4] = ["lat", "lon", "hour", "dow"];

/// One generated chunk of the trip feature/label table, as raw columns
/// in [`trip_schema`] order.
fn chunk_columns(seed: u64, rows: usize) -> Vec<Column> {
    let trips = TripGenerator::nyc_like(seed).generate(rows);
    let mut lat = Vec::with_capacity(rows);
    let mut lon = Vec::with_capacity(rows);
    let mut hour = Vec::with_capacity(rows);
    let mut dow = Vec::with_capacity(rows);
    let mut dist = Vec::with_capacity(rows);
    for t in &trips {
        // Centered coordinates and cyclic time features, all O(1) scale.
        lat.push((t.pickup_lat - 40.75) * 10.0);
        lon.push((t.pickup_lon + 73.90) * 10.0);
        let day_sec = t.timestamp.rem_euclid(86_400) as f64;
        hour.push(day_sec / 86_400.0);
        dow.push((t.timestamp.div_euclid(86_400).rem_euclid(7)) as f64 / 7.0);
        // Label: straight-line trip length in degree space, scaled to
        // O(1) — a learnable function of pickup location and time.
        let dlat = t.dropoff_lat - t.pickup_lat;
        let dlon = t.dropoff_lon - t.pickup_lon;
        dist.push((dlat * dlat + dlon * dlon).sqrt() * 10.0);
    }
    vec![
        Column::F64(lat.into()),
        Column::F64(lon.into()),
        Column::F64(hour.into()),
        Column::F64(dow.into()),
        Column::F64(dist.into()),
    ]
}

/// Generate `rows_total` synthetic trips in `chunk_rows`-sized chunks
/// (per-chunk seeds, deterministic) and spill each chunk straight to
/// `dir` — at no point do more than `chunk_rows` trips exist in memory.
pub fn spill_trips(dir: &Path, rows_total: usize, chunk_rows: usize) -> SpillStore {
    let _ = std::fs::remove_dir_all(dir);
    let schema = {
        let cols = chunk_columns(0, 1);
        DataFrame::from_columns(
            TRIP_FEATURES
                .iter()
                .map(|n| (*n).to_string())
                .chain(["dist".to_string()])
                .zip(cols)
                .collect(),
        )
        .expect("trip schema")
        .schema()
        .clone()
    };
    let mut store = SpillStore::create(dir, schema).expect("spill dir");
    let mut remaining = rows_total;
    let mut chunk_idx = 0u64;
    while remaining > 0 {
        let rows = remaining.min(chunk_rows);
        let cols = chunk_columns(42 + chunk_idx, rows);
        store.spill(&cols).expect("spill chunk");
        remaining -= rows;
        chunk_idx += 1;
    }
    store
}

/// The trip-distance MLP: 4 → 64 → 64 → 1 with ReLU, deterministic in
/// `seed`.
pub fn trip_mlp(seed: u64) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Sequential::new()
        .add(Linear::new(4, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 1, &mut rng))
}

/// Train the trip MLP over a spilled store with `replicas` data-parallel
/// workers, streaming through a double-buffered prefetch loader.
pub fn train_streamed(
    store: &Arc<SpillStore>,
    replicas: usize,
    epochs: usize,
    batch_size: usize,
) -> Result<TrainReport, TrainError> {
    let config = TrainConfig {
        epochs,
        batch_size,
        learning_rate: 1e-3,
        early_stopping_patience: None,
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed: 9,
        device: Device::Cpu,
        replicas,
    };
    let trainer = Trainer::new(config);
    let model = trip_mlp(3);
    let fmt = DfFormatter::for_prediction(&TRIP_FEATURES, &[4], &["dist"], &[1])
        .expect("trip formatter");
    let rt = Arc::new(RowTransformer::new(batch_size));
    let store = Arc::clone(store);
    let mut make = move |_epoch: usize| -> Result<Box<dyn BatchStream>, LoaderError> {
        let inner = SpillBatchStream::new(Arc::clone(&store), fmt.clone(), Arc::clone(&rt));
        Ok(Box::new(PrefetchLoader::new(Box::new(inner), 2)))
    };
    trainer.fit_stream(
        &model,
        &|r| Box::new(trip_mlp(100 + r as u64)),
        &|m: &Sequential, x: &Var| m.forward(x),
        &mut make,
        &mut || 0.0,
        None,
    )
}

/// Mean training throughput over the report's epochs, in samples/s.
pub fn mean_samples_per_sec(report: &TrainReport) -> f64 {
    if report.samples_per_sec.is_empty() {
        return 0.0;
    }
    report.samples_per_sec.iter().sum::<f64>() / report.samples_per_sec.len() as f64
}
