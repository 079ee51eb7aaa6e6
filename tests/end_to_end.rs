//! Cross-crate integration tests: the full raw-data → preprocessing →
//! tensor → training pipelines the paper's architecture (Figure 3)
//! promises.

use geotorchai::datasets::grid::GridDatasetBuilder;
use geotorchai::datasets::synth::TripGenerator;
use geotorchai::preprocessing::baseline::get_st_grid_dataframe_naive;
use geotorchai::preprocessing::grid::{trips_dataframe, StGridConfig, StManager};
use geotorchai::prelude::*;
use rand::SeedableRng;

fn trips_df(n: usize) -> (geotorchai::dataframe::DataFrame, StGridConfig) {
    let generator = TripGenerator::nyc_like(5).with_duration_days(7);
    let trips = generator.generate(n);
    let (min_lon, min_lat, max_lon, max_lat) = generator.extent();
    let df = trips_dataframe(
        trips.iter().map(|t| t.pickup_lat).collect(),
        trips.iter().map(|t| t.pickup_lon).collect(),
        trips.iter().map(|t| t.timestamp).collect(),
    )
    .expect("trip columns");
    let config = StGridConfig {
        partitions_x: 8,
        partitions_y: 8,
        step_duration_sec: 3600,
        extent: Some(geotorchai::dataframe::Envelope::new(
            min_lon, min_lat, max_lon, max_lat,
        )),
    };
    (df, config)
}

#[test]
fn raw_trips_to_tensor_conserves_events() {
    let (df, config) = trips_df(20_000);
    let df = df.repartition(4).expect("repartition");
    let (tensor, frame) =
        StManager::get_st_grid_array(&df, "lat", "lon", "ts", &config).expect("pipeline");
    // Every trip was generated inside the extent, so every event lands.
    assert_eq!(tensor.sum() as i64, 20_000);
    assert_eq!(frame.total_events().expect("counts"), 20_000);
    assert_eq!(tensor.shape()[1], 8);
    assert_eq!(tensor.shape()[2], 8);
}

#[test]
fn partitioned_engine_matches_naive_baseline_end_to_end() {
    let (df, config) = trips_df(5_000);
    let partitioned = df.repartition(4).expect("repartition");
    let (fast, _) =
        StManager::get_st_grid_array(&partitioned, "lat", "lon", "ts", &config).expect("fast");
    let naive = get_st_grid_dataframe_naive(&df, "lat", "lon", "ts", &config)
        .expect("naive")
        .to_tensor()
        .expect("densify");
    assert_eq!(fast, naive);
}

#[test]
fn three_grid_routes_agree_for_any_partitioning() {
    let (df, config) = trips_df(5_000);
    let naive = get_st_grid_dataframe_naive(&df, "lat", "lon", "ts", &config).expect("naive");
    let naive_tensor = naive.to_tensor().expect("densify");
    let column = |grid: &geotorchai::preprocessing::grid::StGridFrame, name| {
        grid.frame.column(name).expect("sparse frame column")
    };
    for partitions in [1, 3, 7] {
        let parts = df.repartition(partitions).expect("repartition");
        let (tensor, array) =
            StManager::get_st_grid_array(&parts, "lat", "lon", "ts", &config).expect("array");
        let with_points =
            StManager::add_spatial_points(&parts, "lat", "lon", "pt").expect("points");
        let frame =
            StManager::get_st_grid_dataframe(&with_points, "pt", "ts", &config).expect("frame");
        assert_eq!(tensor, naive_tensor);
        assert_eq!(frame.to_tensor().expect("densify"), naive_tensor);
        for grid in [&array, &frame] {
            assert_eq!((grid.num_steps, grid.t0), (naive.num_steps, naive.t0));
            for name in ["time_step", "cell_id", "count"] {
                assert_eq!(
                    column(grid, name),
                    column(&naive, name),
                    "{name} at {partitions}"
                );
            }
        }
    }
}

#[test]
fn preprocessed_tensor_trains_a_grid_model() {
    let (df, config) = trips_df(30_000);
    let (tensor, _) =
        StManager::get_st_grid_array(&df, "lat", "lon", "ts", &config).expect("pipeline");
    let mut dataset = GridDatasetBuilder::new(tensor)
        .name("pipeline")
        .steps_per_day(24)
        .build();
    dataset.set_periodical_representation(2, 1, 0);
    let (_, c, _, _) = dataset.dims();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let model = PeriodicalCnn::new(c, (2, 1, 0), 8, &mut rng);
    let (train, val, test) = chronological_split(dataset.len());
    let trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 8,
        learning_rate: 3e-3,
        early_stopping_patience: None,
        ..TrainConfig::default()
    });
    let report = trainer.fit_grid(&model, &dataset, &train, &val);
    assert!(
        report.train_losses.last().unwrap() <= report.train_losses.first().unwrap(),
        "training must not diverge: {:?}",
        report.train_losses
    );
    let (mae, rmse) = trainer.evaluate_grid(&model, &dataset, &test);
    assert!(mae.is_finite() && rmse.is_finite() && rmse >= mae * 0.99);
}

#[test]
fn converter_round_trips_preprocessed_frame() {
    use geotorchai::converter::{BatchStream, DfFormatter, FrameBatchStream, RowTransformer};
    use std::sync::Arc;
    let (df, config) = trips_df(5_000);
    let frame = {
        let with_points =
            StManager::add_spatial_points(&df, "lat", "lon", "pt").expect("points");
        StManager::get_st_grid_dataframe(&with_points, "pt", "ts", &config).expect("grid")
    };
    // The sparse (time_step, cell_id, count) frame maps straight into
    // tensor batches via the DFtoTorch converter's pull-based stream —
    // one batch in memory at a time, never the whole Vec.
    let formatter =
        DfFormatter::for_prediction(&["time_step", "cell_id"], &[2], &["count"], &[1])
            .expect("formatter");
    let formatted = formatter.format(&frame.frame).expect("format");
    assert_eq!(formatted.num_rows(), frame.frame.num_rows());
    let mut stream =
        FrameBatchStream::new(Arc::new(RowTransformer::new(64)), Arc::new(formatted));
    let mut rows = 0;
    let mut total_count = 0.0;
    while let Some((x, y)) = stream.next_batch().expect("stream") {
        assert_eq!(x.shape()[1], 2);
        rows += x.shape()[0];
        total_count += y.sum();
    }
    assert_eq!(rows, frame.frame.num_rows());
    assert_eq!(total_count as i64, frame.total_events().expect("counts"));
}

#[test]
fn checkpoint_round_trip_through_facade() {
    use geotorchai::train::checkpoint;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let model = SatCnn::new(3, 8, 8, 2, &mut rng);
    let dataset = geotorchai::datasets::raster::RasterDataset::classification(
        "ckpt", 3, 8, 8, 2, 4, 0,
    );
    let batch = dataset.batch(&[0, 1]);
    let x = Var::constant(batch.x);
    let before = model.forward(&x, None).value();
    let path = std::env::temp_dir().join(format!("geotorch_it_{}.json", std::process::id()));
    checkpoint::save(&model, &path).expect("save");
    let model2 = SatCnn::new(3, 8, 8, 2, &mut rng);
    checkpoint::load(&model2, &path).expect("load");
    assert!(model2.forward(&x, None).value().allclose(&before, 1e-6));
    std::fs::remove_file(path).ok();
}
