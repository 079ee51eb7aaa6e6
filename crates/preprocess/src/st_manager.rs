//! Spatiotemporal tensor preparation (`geotorchai.preprocessing.grid.STManager`).
//!
//! This is the pipeline of the paper's Listing 8 and Figure 5: raw event
//! rows with latitude/longitude and timestamps are (1) turned into point
//! geometries, (2) assigned to uniform grid cells via the spatial fast
//! path, (3) sliced into fixed-length time intervals, (4) counted per
//! `(time_step, cell)`, and (5) materialised as a dense `[T, H, W, C]`
//! tensor. Steps 2–5 are one kernel, `st_grid_counts`, that every entry
//! point calls: no intermediate column is materialised.

use geotorch_dataframe::spatial::{add_point_column, UniformGrid};
use geotorch_dataframe::{exec, Column, DataFrame, DfResult, Envelope, Geometry, Point};
use geotorch_tensor::Tensor;

use crate::error::{PreprocessError, PreprocessResult};
use crate::space_partition::SpacePartition;

/// Configuration for spatiotemporal grid aggregation.
#[derive(Debug, Clone)]
pub struct StGridConfig {
    /// Grid columns (the paper's `partitions_x`).
    pub partitions_x: usize,
    /// Grid rows (the paper's `partitions_y`).
    pub partitions_y: usize,
    /// Time slot length in seconds (the paper's `step_duration_sec`).
    pub step_duration_sec: i64,
    /// Spatial extent of the grid; `None` derives the tight extent of the
    /// points counted: the lat/lon points in
    /// [`StManager::get_st_grid_array`], each geometry's representative
    /// point (its envelope's centre) in
    /// [`StManager::get_st_grid_dataframe`]. For a column of non-point
    /// geometries that is narrower than
    /// [`SpacePartition::grid_from_dataframe`], which covers the union of
    /// the geometries' envelopes; on point columns the two agree. A
    /// derived extent of zero width or height is widened by 0.5 on every
    /// side.
    pub extent: Option<Envelope>,
}

impl StGridConfig {
    /// Config with a derived extent.
    pub fn new(partitions_x: usize, partitions_y: usize, step_duration_sec: i64) -> Self {
        StGridConfig {
            partitions_x,
            partitions_y,
            step_duration_sec,
            extent: None,
        }
    }
}

/// The aggregated spatiotemporal grid: a sparse `(time_step, cell_id,
/// count)` DataFrame plus the metadata needed to densify it.
#[derive(Debug, Clone)]
pub struct StGridFrame {
    /// Sparse aggregation: columns `time_step (i64)`, `cell_id (i64)`,
    /// `count (i64)`.
    pub frame: DataFrame,
    /// The spatial grid.
    pub grid: UniformGrid,
    /// Number of time steps (`T`).
    pub num_steps: usize,
    /// Epoch seconds of the first time slot's start.
    pub t0: i64,
    /// Slot length in seconds.
    pub step: i64,
}

impl StGridFrame {
    /// Densify into a `[T, H, W, 1]` tensor of event counts — the paper's
    /// `get_st_grid_array`. `H` indexes grid rows (y), `W` columns (x).
    pub fn to_tensor(&self) -> PreprocessResult<Tensor> {
        let (h, w) = (self.grid.ny(), self.grid.nx());
        let mut data = vec![0.0f32; self.num_steps * h * w];
        let steps = self.frame.column("time_step")?;
        let cells = self.frame.column("cell_id")?;
        let counts = self.frame.column("count")?;
        let steps = steps.i64s()?;
        let cells = cells.i64s()?;
        let counts = counts.i64s()?;
        for ((&t, &cell), &count) in steps.iter().zip(cells).zip(counts) {
            let (t, cell) = (t as usize, cell as usize);
            if t >= self.num_steps || cell >= h * w {
                return Err(PreprocessError::InvalidInput(format!(
                    "aggregated row out of range: t={t}, cell={cell}"
                )));
            }
            data[t * h * w + cell] = count as f32;
        }
        Ok(Tensor::from_vec(data, &[self.num_steps, h, w, 1]))
    }

    /// Total events across all cells and steps.
    pub fn total_events(&self) -> PreprocessResult<i64> {
        Ok(self.frame.column("count")?.i64s()?.iter().sum())
    }
}

/// Entry points for spatiotemporal preprocessing.
pub struct StManager;

impl StManager {
    /// Append a point-geometry column built from latitude/longitude
    /// columns (Listing 8, line 3).
    pub fn add_spatial_points(
        df: &DataFrame,
        lat_column: &str,
        lon_column: &str,
        alias: &str,
    ) -> PreprocessResult<DataFrame> {
        Ok(add_point_column(df, lat_column, lon_column, alias)?)
    }

    /// Convert a DataFrame of point events into the aggregated
    /// spatiotemporal grid (Listing 8, line 6).
    ///
    /// `geometry` names a geometry column (non-point geometries count at
    /// their representative point); `col_date` a timestamp column. Points
    /// outside the grid extent are dropped.
    pub fn get_st_grid_dataframe(
        df: &DataFrame,
        geometry: &str,
        col_date: &str,
        config: &StGridConfig,
    ) -> PreprocessResult<StGridFrame> {
        let geom_idx = df.schema().index_of(geometry)?;
        let ts_idx = df.schema().index_of(col_date)?;
        let rows = df.partitions().iter().map(|part| {
            let points = part[geom_idx].geoms()?.iter().map(|geom| match geom {
                Geometry::Point(p) => *p,
                other => other.representative_point(),
            });
            Ok(points.zip(part[ts_idx].i64s()?.iter().copied()))
        });
        Ok(st_grid_counts(&rows.collect::<DfResult<Vec<_>>>()?, config, false)?.1)
    }

    /// Convenience: run the full Listing-8 pipeline from raw lat/lon/ts
    /// columns to the dense `[T, H, W, 1]` tensor.
    ///
    /// Latitude and longitude slices feed the grid kernel directly, so no
    /// geometry column is ever materialised.
    pub fn get_st_grid_array(
        df: &DataFrame,
        lat_column: &str,
        lon_column: &str,
        col_date: &str,
        config: &StGridConfig,
    ) -> PreprocessResult<(Tensor, StGridFrame)> {
        let lat_idx = df.schema().index_of(lat_column)?;
        let lon_idx = df.schema().index_of(lon_column)?;
        let ts_idx = df.schema().index_of(col_date)?;
        let rows = df.partitions().iter().map(|part| {
            let (lats, lons) = (part[lat_idx].f64s()?, part[lon_idx].f64s()?);
            let points = lats
                .iter()
                .zip(lons)
                .map(|(&lat, &lon)| Point::new(lon, lat));
            Ok(points.zip(part[ts_idx].i64s()?.iter().copied()))
        });
        let (tensor, grid_frame) =
            st_grid_counts(&rows.collect::<DfResult<Vec<_>>>()?, config, true)?;
        Ok((tensor.expect("asked for the tensor"), grid_frame))
    }
}

/// Above this many table entries per input row, the frame-only entry point
/// counts by sorting linear keys instead of filling a dense table. Measured
/// at 20 k and 500 k rows on a 12×16 grid: up to 8 entries per row the table
/// is no slower than the sort, at 16 they tie, and from 32 the table's
/// zeroing, summing and scanning cost 1.5–25× the sort (DESIGN §3.5).
const DENSE_ENTRIES_PER_ROW: usize = 8;

fn invalid<T>(msg: impl Into<String>) -> PreprocessResult<T> {
    Err(PreprocessError::InvalidInput(msg.into()))
}

/// A zeroed vector of `len` elements, or an error if it cannot be allocated.
fn try_zeroed<T: Clone + Default>(len: usize) -> PreprocessResult<Vec<T>> {
    let mut v = Vec::new();
    if let Err(e) = v.try_reserve_exact(len) {
        return invalid(format!(
            "a grid of {len} time-step cells cannot be allocated: {e}"
        ));
    }
    v.resize(len, T::default());
    Ok(v)
}

/// Fold the rows of each worker's run of partitions into one accumulator
/// per worker, the workers in parallel.
fn fold_rows<P: Iterator + Clone + Sync, A: Send>(
    groups: &[&[P]],
    init: impl Fn() -> PreprocessResult<A> + Sync,
    row: impl Fn(&mut A, P::Item) + Sync,
) -> PreprocessResult<Vec<A>> {
    let fold = |group: &&[P]| {
        let mut acc = init()?;
        for part in group.iter() {
            part.clone().for_each(|item| row(&mut acc, item));
        }
        Ok(acc)
    };
    exec::par_map(groups, fold).into_iter().collect()
}

/// The grid-aggregation kernel behind both entry points: count events per
/// `(time_step, cell)` over `rows`, one iterator of `(point, timestamp)` per
/// partition. The linear key `time_step · cells + cell` orders exactly as
/// `(time_step, cell_id)`, so reading counts off in key order gives the
/// sorted sparse frame.
fn st_grid_counts<P: ExactSizeIterator<Item = (Point, i64)> + Clone + Sync>(
    rows: &[P],
    config: &StGridConfig,
    want_tensor: bool,
) -> PreprocessResult<(Option<Tensor>, StGridFrame)> {
    let step = config.step_duration_sec;
    if step <= 0 {
        return invalid("step_duration_sec must be positive");
    }
    let num_rows: usize = rows.iter().map(P::len).sum();
    if num_rows == 0 {
        return invalid("cannot build a grid from an empty DataFrame");
    }
    // Per-worker counts are u32 and are summed in u32.
    if u32::try_from(num_rows).is_err() {
        return invalid(format!("{num_rows} rows exceed the kernel's u32 counters"));
    }
    let groups: Vec<&[P]> = rows
        .chunks(rows.len().div_ceil(exec::parallelism()))
        .collect();

    let (nx, ny) = (config.partitions_x, config.partitions_y);
    let grid = match config.extent {
        Some(extent) => SpacePartition::generate_grid(extent, nx, ny)?,
        None => {
            let of_row = |extent: &mut Option<Envelope>, (p, _): (Point, i64)| {
                let of_point = Envelope::of_point(&p);
                *extent = Some(extent.map_or(of_point, |e| e.union(&of_point)));
            };
            let extents = fold_rows(&groups, || Ok(None), of_row)?
                .into_iter()
                .flatten();
            let extent = extents
                .reduce(|a, b| a.union(&b))
                .expect("at least one row");
            SpacePartition::grid_over(extent, nx, ny)?
        }
    };
    let cells = grid.num_cells();

    // Pass 1: the temporal origin is the minimum over all rows; the last
    // slot is set by the latest row inside the extent.
    let span_of_row = |(t0, last, seen): &mut (i64, i64, bool), (p, ts): (Point, i64)| {
        *t0 = ts.min(*t0);
        if grid.cell_of(&p).is_some() {
            *last = ts.max(*last);
            *seen = true;
        }
    };
    let (t0, last) = fold_rows(&groups, || Ok((i64::MAX, i64::MIN, false)), span_of_row)?
        .into_iter()
        .map(|(t0, last, seen)| (t0, seen.then_some(last)))
        .fold((i64::MAX, None), |a, b| (a.0.min(b.0), a.1.max(b.1)));
    let slots = |last: i64| {
        usize::try_from(last.checked_sub(t0)? / step)
            .ok()?
            .checked_add(1)
    };
    let sized = last
        .map_or(Some(0), slots)
        .and_then(|t| Some((t, t.checked_mul(cells)?)));
    let Some((num_steps, entries)) = sized else {
        return invalid(format!(
            "timestamps from {t0} in {step}-second slots over {cells} cells overflow the grid size"
        ));
    };
    // Pass 1 bounds every in-extent `ts - t0` by `last - t0`, which did not
    // overflow, and every key by `entries`. Out-of-extent rows have no key.
    let key_of = |(p, ts): (Point, i64)| {
        let cell = grid.cell_of(&p)?;
        Some(((ts - t0) / step) as usize * cells + cell)
    };

    // The sparse frame's columns, appended to in key order.
    let mut columns: [Vec<i64>; 3] = Default::default();
    let emit = |columns: &mut [Vec<i64>; 3], key: usize, count: usize| {
        columns[0].push((key / cells) as i64);
        columns[1].push((key % cells) as i64);
        columns[2].push(count as i64);
    };
    let mut tensor = None;
    if want_tensor || entries / DENSE_ENTRIES_PER_ROW <= num_rows {
        // Pass 2, dense: one table per worker, summed into the first.
        let count_row =
            |table: &mut Vec<u32>, row| key_of(row).into_iter().for_each(|key| table[key] += 1);
        let mut tables = fold_rows(&groups, || try_zeroed(entries), count_row)?.into_iter();
        let mut total = tables.next().expect("at least one worker");
        for table in tables {
            total.iter_mut().zip(&table).for_each(|(sum, n)| *sum += n);
        }
        if want_tensor {
            let mut data = try_zeroed::<f32>(entries)?;
            data.iter_mut()
                .zip(&total)
                .for_each(|(out, &n)| *out = n as f32);
            tensor = Some(Tensor::from_vec(data, &[num_steps, ny, nx, 1]));
        }
        // Sized up front: growing by doubling costs as much as the scan.
        let nonzero = total.iter().filter(|&&n| n != 0).count();
        columns.iter_mut().for_each(|c| c.reserve_exact(nonzero));
        for (key, &n) in total.iter().enumerate().filter(|(_, &n)| n != 0) {
            emit(&mut columns, key, n as usize);
        }
    } else {
        // Pass 2, sparse: sort the keys and run-length encode them.
        let keep_key = |keys: &mut Vec<usize>, row| keys.extend(key_of(row));
        let mut keys = fold_rows(&groups, || Ok(Vec::new()), keep_key)?.concat();
        keys.sort_unstable();
        for run in keys.chunk_by(|a, b| a == b) {
            emit(&mut columns, run[0], run.len());
        }
    }
    let frame = DataFrame::from_columns(
        ["time_step", "cell_id", "count"]
            .into_iter()
            .zip(columns)
            .map(|(name, values)| (name.to_string(), Column::I64(values.into())))
            .collect(),
    )?;
    let grid_frame = StGridFrame {
        frame,
        grid,
        num_steps,
        t0,
        step,
    };
    Ok((tensor, grid_frame))
}

/// Build the canonical trip-event DataFrame used throughout tests and
/// benches: columns `lat (f64)`, `lon (f64)`, `ts (Ts)`.
pub fn trips_dataframe(
    lats: Vec<f64>,
    lons: Vec<f64>,
    timestamps: Vec<i64>,
) -> PreprocessResult<DataFrame> {
    Ok(DataFrame::from_columns(vec![
        ("lat".to_string(), Column::F64(lats.into())),
        ("lon".to_string(), Column::F64(lons.into())),
        ("ts".to_string(), Column::Ts(timestamps.into())),
    ])?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> DataFrame {
        // 4 events: two in the same cell+slot, one in another cell, one in
        // a later slot.
        trips_dataframe(
            vec![0.25, 0.30, 0.75, 0.25],
            vec![0.25, 0.30, 0.75, 0.25],
            vec![0, 100, 200, 2000],
        )
        .unwrap()
    }

    fn config() -> StGridConfig {
        StGridConfig {
            partitions_x: 2,
            partitions_y: 2,
            step_duration_sec: 1800,
            extent: Some(Envelope::new(0.0, 0.0, 1.0, 1.0)),
        }
    }

    #[test]
    fn pipeline_counts_events_per_cell_and_step() {
        let (tensor, gf) = StManager::get_st_grid_array(&events(), "lat", "lon", "ts", &config())
            .unwrap();
        assert_eq!(tensor.shape(), &[2, 2, 2, 1]);
        // Slot 0: two events in cell (0,0), one in cell (1,1).
        assert_eq!(tensor.at(&[0, 0, 0, 0]), 2.0);
        assert_eq!(tensor.at(&[0, 1, 1, 0]), 1.0);
        assert_eq!(tensor.at(&[0, 0, 1, 0]), 0.0);
        // Slot 1: one event in cell (0,0).
        assert_eq!(tensor.at(&[1, 0, 0, 0]), 1.0);
        assert_eq!(gf.total_events().unwrap(), 4);
        assert_eq!(gf.num_steps, 2);
        assert_eq!(gf.t0, 0);
    }

    #[test]
    fn counts_conserved_under_partitioning() {
        let df = events().repartition(3).unwrap();
        let (tensor, gf) =
            StManager::get_st_grid_array(&df, "lat", "lon", "ts", &config()).unwrap();
        assert_eq!(tensor.sum(), 4.0);
        assert_eq!(gf.total_events().unwrap(), 4);
    }

    #[test]
    fn points_outside_extent_are_dropped() {
        let df = trips_dataframe(
            vec![0.5, 50.0], // second point far outside
            vec![0.5, 50.0],
            vec![0, 0],
        )
        .unwrap();
        let (tensor, gf) =
            StManager::get_st_grid_array(&df, "lat", "lon", "ts", &config()).unwrap();
        assert_eq!(tensor.sum(), 1.0);
        assert_eq!(gf.total_events().unwrap(), 1);
    }

    #[test]
    fn derived_extent_covers_all_points() {
        let df = trips_dataframe(
            vec![40.0, 41.0, 40.5, 40.7],
            vec![-74.0, -73.0, -73.5, -73.2],
            vec![0, 1800, 3600, 5400],
        )
        .unwrap();
        let mut cfg = StGridConfig::new(4, 4, 1800);
        cfg.extent = None;
        let (tensor, gf) = StManager::get_st_grid_array(&df, "lat", "lon", "ts", &cfg).unwrap();
        assert_eq!(tensor.sum(), 4.0);
        assert_eq!(gf.num_steps, 4);
    }

    #[test]
    fn derived_extents_of_non_point_geometries() {
        let boxes = [
            Envelope::new(0.0, 0.0, 2.0, 2.0),
            Envelope::new(4.0, 4.0, 8.0, 6.0),
        ];
        let df = DataFrame::from_columns(vec![
            (
                "zone".into(),
                Column::Geom(boxes.iter().map(|&e| Geometry::Envelope(e)).collect()),
            ),
            ("ts".into(), Column::Ts(vec![0, 0].into())),
        ])
        .unwrap();
        // The kernel counts each geometry at its representative point and
        // spans only those points...
        let gf = StManager::get_st_grid_dataframe(&df, "zone", "ts", &StGridConfig::new(2, 2, 60))
            .unwrap();
        assert_eq!(gf.grid.extent(), Envelope::new(1.0, 1.0, 6.0, 5.0));
        assert_eq!(gf.total_events().unwrap(), 2);
        // ...while `SpacePartition` covers the geometries' envelopes.
        let grid = SpacePartition::grid_from_dataframe(&df, "zone", 2, 2).unwrap();
        assert_eq!(grid.extent(), Envelope::new(0.0, 0.0, 8.0, 6.0));
    }

    #[test]
    fn timestamps_slot_correctly() {
        let df = trips_dataframe(
            vec![0.5; 3],
            vec![0.5; 3],
            vec![1000, 1000 + 1799, 1000 + 1800],
        )
        .unwrap();
        let (tensor, gf) =
            StManager::get_st_grid_array(&df, "lat", "lon", "ts", &config()).unwrap();
        // First two land in slot 0, third in slot 1 (t0 = 1000).
        assert_eq!(gf.t0, 1000);
        assert_eq!(tensor.shape()[0], 2);
        assert_eq!(tensor.index_axis(0, 0).sum(), 2.0);
        assert_eq!(tensor.index_axis(0, 1).sum(), 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let empty = trips_dataframe(vec![], vec![], vec![]).unwrap();
        assert!(StManager::get_st_grid_array(&empty, "lat", "lon", "ts", &config()).is_err());
        let mut cfg = config();
        cfg.step_duration_sec = 0;
        assert!(StManager::get_st_grid_array(&events(), "lat", "lon", "ts", &cfg).is_err());
        assert!(StManager::get_st_grid_array(&events(), "nope", "lon", "ts", &config()).is_err());
    }

    #[test]
    fn nan_coordinates_are_dropped_by_kernel_and_naive_alike() {
        use crate::geopandas_like::get_st_grid_dataframe_naive;
        let df = trips_dataframe(
            vec![0.25, f64::NAN, 0.75, f64::NAN],
            vec![0.25, 0.5, f64::NAN, f64::NAN],
            vec![0, 100, 200, 300],
        )
        .unwrap();
        let (tensor, array) =
            StManager::get_st_grid_array(&df, "lat", "lon", "ts", &config()).unwrap();
        let with_points = StManager::add_spatial_points(&df, "lat", "lon", "pt").unwrap();
        let frame = StManager::get_st_grid_dataframe(&with_points, "pt", "ts", &config()).unwrap();
        let naive = get_st_grid_dataframe_naive(&df, "lat", "lon", "ts", &config()).unwrap();
        assert_eq!(tensor.sum(), 1.0);
        assert_eq!(tensor.at(&[0, 0, 0, 0]), 1.0);
        for grid in [&array, &frame, &naive] {
            assert_eq!(grid.total_events().unwrap(), 1);
            assert_eq!(grid.to_tensor().unwrap(), tensor);
        }
    }

    #[test]
    fn no_event_in_the_extent_gives_zero_steps() {
        let df = trips_dataframe(vec![50.0], vec![50.0], vec![7]).unwrap();
        let (tensor, gf) =
            StManager::get_st_grid_array(&df, "lat", "lon", "ts", &config()).unwrap();
        assert_eq!(tensor.shape(), &[0, 2, 2, 1]);
        assert_eq!((gf.num_steps, gf.t0, gf.frame.num_rows()), (0, 7, 0));
    }

    #[test]
    fn spans_that_overflow_or_cannot_be_allocated_are_errors() {
        let rejected = |r: PreprocessResult<(Tensor, StGridFrame)>| {
            matches!(r, Err(PreprocessError::InvalidInput(_)))
        };
        let mut cfg = config();
        cfg.step_duration_sec = 1;
        // `ts - t0` overflows i64.
        let df = trips_dataframe(vec![0.5; 2], vec![0.5; 2], vec![i64::MIN, i64::MAX]).unwrap();
        assert!(rejected(StManager::get_st_grid_array(
            &df, "lat", "lon", "ts", &cfg
        )));
        // `T · H · W` overflows usize.
        let df = trips_dataframe(vec![0.5; 2], vec![0.5; 2], vec![0, i64::MAX]).unwrap();
        assert!(rejected(StManager::get_st_grid_array(
            &df, "lat", "lon", "ts", &cfg
        )));
        // 2^50 slots fit in usize but not in memory; the frame-only entry
        // point sorts two keys instead and succeeds.
        let df = trips_dataframe(vec![0.5; 2], vec![0.5; 2], vec![0, 1 << 50]).unwrap();
        assert!(rejected(StManager::get_st_grid_array(
            &df, "lat", "lon", "ts", &cfg
        )));
        let with_points = StManager::add_spatial_points(&df, "lat", "lon", "pt").unwrap();
        let gf = StManager::get_st_grid_dataframe(&with_points, "pt", "ts", &cfg).unwrap();
        assert_eq!(gf.num_steps, (1 << 50) + 1);
        assert_eq!(
            gf.frame.column("time_step").unwrap().i64s().unwrap(),
            &[0, 1 << 50]
        );
        // An out-of-extent row does not stretch the span.
        let df = trips_dataframe(vec![0.5, 50.0], vec![0.5, 50.0], vec![0, i64::MAX]).unwrap();
        let (tensor, gf) = StManager::get_st_grid_array(&df, "lat", "lon", "ts", &cfg).unwrap();
        assert_eq!((tensor.shape()[0], gf.num_steps), (1, 1));
    }
}
