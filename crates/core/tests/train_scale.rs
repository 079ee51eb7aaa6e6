//! Scale acceptance for the streaming data-parallel trainer: on a
//! multi-core host, K=4 replicas must deliver ≥1.5x the K=1 throughput
//! over the spilled-trip pipeline, with pool high-water growth bounded
//! by chunk + prefetch queue rather than dataset size.
//!
//! Self-gated: on runners with fewer than 4 cores the throughput
//! assertion cannot hold (the replicas time-slice one core), so the test
//! downgrades to a correctness-only pass.

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
use geotorch_tensor::{pool, Device};
use rand::SeedableRng;

/// Feature columns fed to the trip MLP.
const TRIP_FEATURES: [&str; 4] = ["lat", "lon", "hour", "dow"];

/// One generated chunk of the trip feature/label table, as raw columns
/// in `TRIP_FEATURES` + `dist` order.
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
fn spill_trips(dir: &Path, rows_total: usize, chunk_rows: usize) -> SpillStore {
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
fn trip_mlp(seed: u64) -> Sequential {
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
fn train_streamed(
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
fn mean_samples_per_sec(report: &TrainReport) -> f64 {
    if report.samples_per_sec.is_empty() {
        return 0.0;
    }
    report.samples_per_sec.iter().sum::<f64>() / report.samples_per_sec.len() as f64
}

#[test]
fn k4_streams_at_least_1_5x_of_k1_with_bounded_pool_growth() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = std::env::temp_dir().join(format!("geotorch-train-scale-{}", std::process::id()));
    // Enough work per replica that thread startup amortises away.
    let store = Arc::new(spill_trips(&dir, 262_144, 16_384));
    let pool_before = pool::stats().high_water_bytes;

    let k1 = train_streamed(&store, 1, 2, 512).expect("K=1 run");
    let k4 = train_streamed(&store, 4, 2, 512).expect("K=4 run");
    let sps1 = mean_samples_per_sec(&k1);
    let sps4 = mean_samples_per_sec(&k4);
    assert!(sps1 > 0.0 && sps4 > 0.0, "throughput must be measured");
    assert!(
        k1.train_losses.iter().chain(&k4.train_losses).all(|l| l.is_finite()),
        "losses must stay finite"
    );

    // Pool high-water growth across both sweeps is bounded by a fixed
    // budget (batches in flight × replicas), never by the 262K rows:
    // 64 MB is an order of magnitude above what the pipeline needs.
    let growth = pool::stats().high_water_bytes.saturating_sub(pool_before);
    assert!(
        growth < 64 * 1024 * 1024,
        "pool high-water grew {growth} bytes — streaming must not scale memory with rows"
    );

    let reports_stamped = k1.host_cores == cores && k4.host_cores == cores;
    assert!(reports_stamped, "TrainReport must carry the host core count");

    if cores < 4 {
        eprintln!(
            "runner exposes {cores} core(s) — skipping the 1.5x throughput assertion \
             (K=4 {sps4:.0} vs K=1 {sps1:.0} samples/s measured)"
        );
    } else {
        assert!(
            sps4 >= 1.5 * sps1,
            "K=4 must reach >=1.5x K=1 throughput on {cores} cores: {sps4:.0} vs {sps1:.0} samples/s"
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
