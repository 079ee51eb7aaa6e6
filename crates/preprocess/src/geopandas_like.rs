//! A deliberately naive preprocessing baseline mirroring a GeoPandas
//! `sjoin` + `groupby` pipeline.
//!
//! Figure 8 of the paper compares GeoTorchAI's partitioned preprocessing
//! against GeoPandas on elapsed time and memory. GeoPandas is unavailable
//! here, so this module reproduces the *mechanism* behind its scaling
//! behaviour:
//!
//! 1. **Full materialisation** — the spatial join's output (one owned row
//!    per event, carrying the matched cell's polygon and all attributes)
//!    is built in memory before any aggregation, exactly as
//!    `geopandas.sjoin` returns a full joined GeoDataFrame. Memory grows
//!    with the *joined* row count.
//! 2. **Single-threaded execution** — every step runs on one thread.
//! 3. **Sort-based group-by** — the materialised table is sorted by key
//!    and scanned, as a pandas `groupby` over an unindexed frame would.
//!
//! The result is bit-identical to [`crate::StManager`]'s output, so the
//! benchmark measures purely the execution strategy.

use geotorch_dataframe::{Column, DataFrame, Geometry, Point};

use crate::error::{PreprocessError, PreprocessResult};
use crate::space_partition::SpacePartition;
use crate::st_manager::{StGridConfig, StGridFrame};

/// One materialised joined row (event × matched cell), mimicking a row of
/// a GeoPandas sjoin result: the event attributes plus the *cloned* cell
/// geometry.
struct JoinedRow {
    #[allow(dead_code)]
    lat: f64,
    #[allow(dead_code)]
    lon: f64,
    #[allow(dead_code)]
    cell_geometry: Geometry,
    cell_id: i64,
    time_step: i64,
}

/// Run the full Listing-8 pipeline with the naive strategy. Produces the
/// same [`StGridFrame`] as `StManager::get_st_grid_dataframe`.
pub fn get_st_grid_dataframe_naive(
    df: &DataFrame,
    lat_column: &str,
    lon_column: &str,
    col_date: &str,
    config: &StGridConfig,
) -> PreprocessResult<StGridFrame> {
    if config.step_duration_sec <= 0 {
        return Err(PreprocessError::InvalidInput(
            "step_duration_sec must be positive".into(),
        ));
    }
    if df.num_rows() == 0 {
        return Err(PreprocessError::InvalidInput(
            "cannot build a grid from an empty DataFrame".into(),
        ));
    }
    // Materialise the full columns up front (pandas keeps everything
    // resident).
    let merged = df.concat_partitions()?;
    let lats = merged.column(lat_column)?;
    let lons = merged.column(lon_column)?;
    let ts_col = merged.column(col_date)?;
    let lats = lats.f64s()?;
    let lons = lons.f64s()?;
    let timestamps = ts_col.i64s()?;

    let extent = match config.extent {
        Some(e) => e,
        None => {
            // Derive the extent with plain sequential scans.
            let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
            let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for (&lat, &lon) in lats.iter().zip(lons) {
                min_x = min_x.min(lon);
                max_x = max_x.max(lon);
                min_y = min_y.min(lat);
                max_y = max_y.max(lat);
            }
            let mut e = geotorch_dataframe::Envelope::new(min_x, min_y, max_x, max_y);
            if e.width() <= 0.0 || e.height() <= 0.0 {
                e = geotorch_dataframe::Envelope::new(
                    e.min_x - 0.5,
                    e.min_y - 0.5,
                    e.max_x + 0.5,
                    e.max_y + 0.5,
                );
            }
            e
        }
    };
    let grid = SpacePartition::generate_grid(extent, config.partitions_x, config.partitions_y)?;
    let cells = grid.cell_geometries();
    let t0 = timestamps
        .iter()
        .min()
        .copied()
        .ok_or_else(|| PreprocessError::InvalidInput("empty timestamp column".into()))?;

    // Phase 1: materialise the joined table (the memory hog).
    let mut joined: Vec<JoinedRow> = Vec::new();
    for ((&lat, &lon), &ts) in lats.iter().zip(lons).zip(timestamps) {
        let p = Point::new(lon, lat);
        if let Some(cell_id) = grid.cell_of(&p) {
            joined.push(JoinedRow {
                lat,
                lon,
                cell_geometry: cells[cell_id].clone(),
                cell_id: cell_id as i64,
                time_step: (ts - t0) / config.step_duration_sec,
            });
        }
    }

    // Phase 2: sort-based group-by over the materialised table.
    joined.sort_by_key(|r| (r.time_step, r.cell_id));
    let mut steps = Vec::new();
    let mut cell_ids = Vec::new();
    let mut counts: Vec<i64> = Vec::new();
    for row in &joined {
        match (steps.last(), cell_ids.last()) {
            (Some(&t), Some(&c)) if t == row.time_step && c == row.cell_id => {
                *counts.last_mut().expect("parallel vectors") += 1;
            }
            _ => {
                steps.push(row.time_step);
                cell_ids.push(row.cell_id);
                counts.push(1);
            }
        }
    }
    let num_steps = steps.iter().max().map_or(0, |&m| m as usize + 1);
    let frame = DataFrame::from_columns(vec![
        ("time_step".to_string(), Column::I64(steps.into())),
        ("cell_id".to_string(), Column::I64(cell_ids.into())),
        ("count".to_string(), Column::I64(counts.into())),
    ])?;
    Ok(StGridFrame {
        frame,
        grid,
        num_steps,
        t0,
        step: config.step_duration_sec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::st_manager::{trips_dataframe, StManager};
    use geotorch_dataframe::Envelope;

    fn config() -> StGridConfig {
        StGridConfig {
            partitions_x: 3,
            partitions_y: 3,
            step_duration_sec: 600,
            extent: Some(Envelope::new(0.0, 0.0, 3.0, 3.0)),
        }
    }

    fn random_events(n: usize, seed: u64) -> DataFrame {
        // Simple deterministic LCG so this test has no rand dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut lats = Vec::with_capacity(n);
        let mut lons = Vec::with_capacity(n);
        let mut ts = Vec::with_capacity(n);
        for _ in 0..n {
            lats.push(next() * 3.2 - 0.1); // some points fall outside
            lons.push(next() * 3.2 - 0.1);
            ts.push((next() * 7200.0) as i64);
        }
        trips_dataframe(lats, lons, ts).unwrap()
    }

    #[test]
    fn naive_matches_partitioned_engine() {
        let df = random_events(500, 42);
        let cfg = config();
        let fast = {
            let with_points =
                StManager::add_spatial_points(&df.repartition(4).unwrap(), "lat", "lon", "pt")
                    .unwrap();
            StManager::get_st_grid_dataframe(&with_points, "pt", "ts", &cfg).unwrap()
        };
        let naive = get_st_grid_dataframe_naive(&df, "lat", "lon", "ts", &cfg).unwrap();
        assert_eq!(fast.num_steps, naive.num_steps);
        assert_eq!(fast.t0, naive.t0);
        let ft = fast.to_tensor().unwrap();
        let nt = naive.to_tensor().unwrap();
        assert_eq!(ft, nt, "dense tensors must be identical");
        assert!(ft.sum() > 0.0, "some events must have landed in the grid");
    }

    #[test]
    fn naive_rejects_bad_input() {
        let empty = trips_dataframe(vec![], vec![], vec![]).unwrap();
        assert!(get_st_grid_dataframe_naive(&empty, "lat", "lon", "ts", &config()).is_err());
        let mut cfg = config();
        cfg.step_duration_sec = -5;
        let df = random_events(10, 1);
        assert!(get_st_grid_dataframe_naive(&df, "lat", "lon", "ts", &cfg).is_err());
    }

    #[test]
    fn naive_derives_extent_when_missing() {
        let df = random_events(100, 7);
        let mut cfg = config();
        cfg.extent = None;
        let out = get_st_grid_dataframe_naive(&df, "lat", "lon", "ts", &cfg).unwrap();
        // With a tight derived extent, every event is inside.
        assert_eq!(out.total_events().unwrap(), 100);
    }
}
