//! The three routes to a spatiotemporal grid agree bit for bit:
//! `get_st_grid_array`, `add_spatial_points → get_st_grid_dataframe →
//! to_tensor`, and the materialising `get_st_grid_dataframe_naive`.

use proptest::prelude::*;

use geotorch_dataframe::Envelope;
use geotorch_preprocess::geopandas_like::get_st_grid_dataframe_naive;
use geotorch_preprocess::st_manager::trips_dataframe;
use geotorch_preprocess::{StGridConfig, StGridFrame, StManager};

/// `(lat, lon, ts)` per event.
type Events = Vec<(f64, f64, i64)>;

fn assert_routes_agree(
    events: &Events,
    partitions: usize,
    config: &StGridConfig,
) -> Result<(), TestCaseError> {
    let df = trips_dataframe(
        events.iter().map(|e| e.0).collect(),
        events.iter().map(|e| e.1).collect(),
        events.iter().map(|e| e.2).collect(),
    )
    .unwrap();
    let parts = df.repartition(partitions).unwrap();
    let (tensor, array) = StManager::get_st_grid_array(&parts, "lat", "lon", "ts", config).unwrap();
    let with_points = StManager::add_spatial_points(&parts, "lat", "lon", "pt").unwrap();
    let frame = StManager::get_st_grid_dataframe(&with_points, "pt", "ts", config).unwrap();
    let naive = get_st_grid_dataframe_naive(&df, "lat", "lon", "ts", config).unwrap();

    let t0 = events.iter().map(|e| e.2).min().unwrap();
    let rows = |grid: &StGridFrame| -> Vec<(i64, i64, i64)> {
        let column = |name| grid.frame.column(name).unwrap().i64s().unwrap().to_vec();
        let (steps, cells, counts) = (column("time_step"), column("cell_id"), column("count"));
        (0..steps.len())
            .map(|i| (steps[i], cells[i], counts[i]))
            .collect()
    };
    prop_assert_eq!(
        tensor.shape(),
        &[naive.num_steps, config.partitions_y, config.partitions_x, 1]
    );
    prop_assert!(rows(&naive)
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    for grid in [&array, &frame] {
        prop_assert_eq!(grid.num_steps, naive.num_steps);
        prop_assert_eq!(grid.t0, t0);
        prop_assert_eq!(grid.total_events().unwrap(), naive.total_events().unwrap());
        prop_assert_eq!(rows(grid), rows(&naive));
        prop_assert_eq!(&grid.to_tensor().unwrap(), &tensor);
    }
    prop_assert_eq!(naive.t0, t0);
    prop_assert_eq!(naive.to_tensor().unwrap(), tensor);
    Ok(())
}

fn config(nx: usize, ny: usize, step: i64, explicit_extent: bool) -> StGridConfig {
    StGridConfig {
        partitions_x: nx,
        partitions_y: ny,
        step_duration_sec: step,
        extent: explicit_extent.then(|| Envelope::new(0.0, 0.0, 1.0, 1.0)),
    }
}

proptest! {
    /// Unsorted, negative timestamps; coordinates on both sides of the
    /// extent; 1..=9 partitions over as few as one row. One-second slots put
    /// `T·H·W` far above the row count (the frame-only route sorts keys),
    /// hour slots far below it (it fills the dense table).
    #[test]
    fn routes_agree_on_random_events(
        events in prop::collection::vec((-0.2f64..1.2, -0.2f64..1.2, -5_000i64..5_000), 1..80),
        partitions in 1usize..=9,
        (nx, ny) in (1usize..5, 1usize..5),
        step in (0usize..3).prop_map(|i| [1i64, 60, 3_600][i]),
        explicit_extent in any::<bool>(),
    ) {
        assert_routes_agree(&events, partitions, &config(nx, ny, step, explicit_extent))?;
    }

    /// The latest and the earliest timestamps both sit on rows outside the
    /// extent: the first must not add trailing slots, the second still
    /// sets `t0` (the naive route, which all are held to, does both).
    #[test]
    fn out_of_extent_rows_set_t0_but_not_the_last_slot(
        inside in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0i64..10_000), 1..40),
        partitions in 1usize..=9,
        step in 1i64..2_000,
    ) {
        let mut events = inside;
        events.insert(events.len() / 2, (7.0, 0.5, 1_000_000));
        events.push((0.5, -3.0, -50_000));
        assert_routes_agree(&events, partitions, &config(3, 2, step, true))?;
    }
}

/// The same events on both sides of the dense/sort rule, at a size where
/// the rule's constant (8 table entries per row) is what decides: 300 rows
/// over 4 cells and ~1000 s give 4000 entries at one-second slots (above
/// 8 × 300: sorted) and 68 at a minute (dense).
#[test]
fn routes_agree_on_both_sides_of_the_dense_sort_rule() {
    let events: Events = (0..300i64)
        .map(|i| {
            let spread = |stride: i64, modulus: i64| (i * stride % modulus) as f64 / 100.0;
            (spread(37, 110), spread(53, 110), i * 7919 % 1_000)
        })
        .collect();
    for step in [1, 60] {
        for partitions in [1, 2, 5] {
            assert_routes_agree(&events, partitions, &config(2, 2, step, true)).unwrap();
        }
    }
}
