//! Spatial operators: point construction and the uniform grid.
//!
//! These mirror the Sedona operations GeoTorchAI's preprocessing module
//! drives: building a geometry column from lat/lon columns and the uniform
//! grid (`SpacePartition.generate_grid`) that maps points straight to cell
//! ids without an index.

use std::borrow::Cow;

use crate::column::{Column, DType};
use crate::error::{DfError, DfResult};
use crate::exec;
use crate::frame::{DataFrame, Schema};
use crate::geometry::{Envelope, Geometry, Point};

/// Append a `Geom` point column built from two numeric columns.
///
/// Mirrors `STManager.add_spatial_points(df, lat_column, lon_column, ...)`
/// from the paper's Listing 8 (longitude becomes x, latitude y). Each
/// partition zips its coordinate slices into one geometry buffer, the
/// partitions in parallel; the existing columns are shared, not copied.
///
/// # Errors
/// `DuplicateColumn` if `alias` exists, `ColumnNotFound` for a missing
/// coordinate column, and `TypeMismatch` for one that is not f64, i64 or
/// timestamp (integers are cast to f64).
pub fn add_point_column(
    df: &DataFrame,
    lat_column: &str,
    lon_column: &str,
    alias: &str,
) -> DfResult<DataFrame> {
    let mut fields = df.schema().fields().to_vec();
    fields.push((alias.to_string(), DType::Geom));
    let schema = Schema::new(fields)?;
    let lat_idx = df.schema().index_of(lat_column)?;
    let lon_idx = df.schema().index_of(lon_column)?;
    let results = exec::par_map(df.partitions(), |part| {
        let lats = coordinates(&part[lat_idx], lat_column)?;
        let lons = coordinates(&part[lon_idx], lon_column)?;
        let points = lats
            .iter()
            .zip(lons.iter())
            .map(|(&lat, &lon)| Geometry::Point(Point::new(lon, lat)))
            .collect();
        let mut columns = part.clone();
        columns.push(Column::Geom(points));
        Ok(columns)
    });
    DataFrame::from_partitions(schema, results.into_iter().collect::<DfResult<_>>()?)
}

/// A coordinate column as f64s: borrowed when it is f64, cast when it holds
/// integers or timestamps.
fn coordinates<'a>(column: &'a Column, name: &str) -> DfResult<Cow<'a, [f64]>> {
    match column {
        Column::F64(v) => Ok(Cow::Borrowed(v)),
        Column::I64(v) | Column::Ts(v) => Ok(v.iter().map(|&x| x as f64).collect()),
        other => Err(DfError::TypeMismatch {
            column: name.to_string(),
            expected: "f64",
            found: other.dtype().name(),
        }),
    }
}

/// A uniform grid over an extent: `nx × ny` equal cells (the paper's
/// `SpacePartition.generate_grid`).
#[derive(Debug, Clone)]
pub struct UniformGrid {
    extent: Envelope,
    nx: usize,
    ny: usize,
}

impl UniformGrid {
    /// Partition `extent` into `nx` columns × `ny` rows.
    ///
    /// # Errors
    /// If either count is zero or the extent is degenerate.
    pub fn new(extent: Envelope, nx: usize, ny: usize) -> DfResult<UniformGrid> {
        if nx == 0 || ny == 0 {
            return Err(DfError::InvalidArgument(
                "grid partitions must be positive".into(),
            ));
        }
        if extent.width() <= 0.0 || extent.height() <= 0.0 {
            return Err(DfError::InvalidArgument(
                "grid extent must have positive area".into(),
            ));
        }
        Ok(UniformGrid { extent, nx, ny })
    }

    /// Grid columns.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid rows.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// The covered extent.
    pub fn extent(&self) -> Envelope {
        self.extent
    }

    /// Cell id (`row * nx + col`) containing the point, or `None` when the
    /// point lies outside the extent or has a NaN coordinate. The grid's
    /// right/top edges are inclusive so the extent is fully covered.
    #[inline] // per-row in the grid kernel, which lives in another crate
    pub fn cell_of(&self, p: &Point) -> Option<usize> {
        let e = &self.extent;
        // Containment, so that NaN, which fails every comparison, is
        // outside; `&` rather than `&&` leaves one branch to predict, not four.
        let inside = (p.x >= e.min_x) & (p.x <= e.max_x) & (p.y >= e.min_y) & (p.y <= e.max_y);
        if !inside {
            return None;
        }
        let fx = (p.x - e.min_x) / e.width();
        let fy = (p.y - e.min_y) / e.height();
        let col = ((fx * self.nx as f64) as usize).min(self.nx - 1);
        let row = ((fy * self.ny as f64) as usize).min(self.ny - 1);
        Some(row * self.nx + col)
    }

    /// The envelope of cell `id`.
    ///
    /// # Panics
    /// If `id >= num_cells()`.
    pub fn cell_envelope(&self, id: usize) -> Envelope {
        assert!(id < self.num_cells(), "cell id {id} out of range");
        let (row, col) = (id / self.nx, id % self.nx);
        let w = self.extent.width() / self.nx as f64;
        let h = self.extent.height() / self.ny as f64;
        Envelope::new(
            self.extent.min_x + col as f64 * w,
            self.extent.min_y + row as f64 * h,
            self.extent.min_x + (col + 1) as f64 * w,
            self.extent.min_y + (row + 1) as f64 * h,
        )
    }

    /// All cell envelopes as geometries, in cell-id order.
    pub fn cell_geometries(&self) -> Vec<Geometry> {
        (0..self.num_cells())
            .map(|id| Geometry::Envelope(self.cell_envelope(id)))
            .collect()
    }
}

/// The tight envelope of every geometry in a column.
pub fn column_extent(df: &DataFrame, geom_column: &str) -> DfResult<Option<Envelope>> {
    let idx = df.schema().index_of(geom_column)?;
    let partials: Vec<DfResult<Option<Envelope>>> = exec::par_map(df.partitions(), |part| {
        let geoms = part[idx].geoms()?;
        Ok(geoms
            .iter()
            .map(Geometry::envelope)
            .reduce(|a, b| a.union(&b)))
    });
    let mut acc: Option<Envelope> = None;
    for partial in partials {
        if let Some(env) = partial? {
            acc = Some(match acc {
                Some(a) => a.union(&env),
                None => env,
            });
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn points_df(coords: &[(f64, f64)]) -> DataFrame {
        // coords are (lon=x, lat=y)
        DataFrame::from_columns(vec![
            (
                "lon".into(),
                Column::F64(coords.iter().map(|c| c.0).collect()),
            ),
            (
                "lat".into(),
                Column::F64(coords.iter().map(|c| c.1).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn add_point_column_builds_geometry() {
        let df = points_df(&[(-73.9, 40.7), (0.0, 0.0)]);
        let with_pts = add_point_column(&df, "lat", "lon", "pt").unwrap();
        let geoms = with_pts.column("pt").unwrap();
        let g = geoms.geoms().unwrap();
        assert_eq!(g[0], Geometry::Point(Point::new(-73.9, 40.7)));
    }

    #[test]
    fn grid_cell_assignment() {
        let grid = UniformGrid::new(Envelope::new(0.0, 0.0, 4.0, 2.0), 4, 2).unwrap();
        assert_eq!(grid.num_cells(), 8);
        assert_eq!(grid.cell_of(&Point::new(0.5, 0.5)), Some(0));
        assert_eq!(grid.cell_of(&Point::new(3.5, 0.5)), Some(3));
        assert_eq!(grid.cell_of(&Point::new(0.5, 1.5)), Some(4));
        assert_eq!(grid.cell_of(&Point::new(5.0, 0.5)), None);
        // Max corner is inclusive and maps to the last cell.
        assert_eq!(grid.cell_of(&Point::new(4.0, 2.0)), Some(7));
    }

    #[test]
    fn nan_coordinates_are_outside_the_grid() {
        let grid = UniformGrid::new(Envelope::new(0.0, 0.0, 1.0, 1.0), 4, 4).unwrap();
        assert_eq!(grid.cell_of(&Point::new(f64::NAN, 0.5)), None);
        assert_eq!(grid.cell_of(&Point::new(0.5, f64::NAN)), None);
        assert_eq!(grid.cell_of(&Point::new(f64::NAN, f64::NAN)), None);
    }

    #[test]
    fn cell_envelopes_tile_extent() {
        let grid = UniformGrid::new(Envelope::new(0.0, 0.0, 3.0, 3.0), 3, 3).unwrap();
        let total_area: f64 = (0..grid.num_cells())
            .map(|id| grid.cell_envelope(id).area())
            .sum();
        assert!((total_area - 9.0).abs() < 1e-9);
        // cell_of agrees with envelope containment for interior points.
        let p = Point::new(1.5, 2.5);
        let id = grid.cell_of(&p).unwrap();
        assert!(grid.cell_envelope(id).contains_point(&p));
    }

    #[test]
    fn grid_rejects_degenerate_inputs() {
        assert!(UniformGrid::new(Envelope::new(0.0, 0.0, 1.0, 1.0), 0, 2).is_err());
        assert!(UniformGrid::new(Envelope::new(0.0, 0.0, 0.0, 1.0), 2, 2).is_err());
    }

    #[test]
    fn integer_and_timestamp_coordinates_give_the_points_f64_does() {
        let lats = [40, -3, 0];
        let lons = [-74, 12, 7];
        let column = |dtype, v: &[i64]| match dtype {
            DType::I64 => Column::I64(v.to_vec().into()),
            DType::Ts => Column::Ts(v.to_vec().into()),
            _ => Column::F64(v.iter().map(|&x| x as f64).collect()),
        };
        let points = |lat_dtype, lon_dtype| {
            let df = DataFrame::from_columns(vec![
                ("lat".into(), column(lat_dtype, &lats)),
                ("lon".into(), column(lon_dtype, &lons)),
            ])
            .unwrap()
            .repartition(2)
            .unwrap();
            add_point_column(&df, "lat", "lon", "pt")
                .unwrap()
                .column("pt")
                .unwrap()
        };
        let expected = points(DType::F64, DType::F64);
        assert_eq!(
            expected.geoms().unwrap()[0],
            Geometry::Point(Point::new(-74.0, 40.0))
        );
        for (lat, lon) in [
            (DType::I64, DType::Ts),
            (DType::Ts, DType::F64),
            (DType::F64, DType::I64),
        ] {
            assert_eq!(points(lat, lon), expected, "lat {lat:?}, lon {lon:?}");
        }
    }

    #[test]
    fn add_point_column_rejects_bad_columns() {
        let df = DataFrame::from_columns(vec![
            ("lat".into(), Column::F64(vec![1.0].into())),
            ("name".into(), Column::Str(vec!["a".into()].into())),
        ])
        .unwrap();
        assert_eq!(
            add_point_column(&df, "lat", "name", "pt").unwrap_err(),
            DfError::TypeMismatch {
                column: "name".into(),
                expected: "f64",
                found: "str",
            }
        );
        assert_eq!(
            add_point_column(&df, "lat", "lat", "name").unwrap_err(),
            DfError::DuplicateColumn("name".into())
        );
        assert_eq!(
            add_point_column(&df, "lat", "missing", "pt").unwrap_err(),
            DfError::ColumnNotFound("missing".into())
        );
    }

    #[test]
    fn column_extent_unions_partitions() {
        let df = add_point_column(
            &points_df(&[(0.0, 0.0), (5.0, -2.0), (3.0, 7.0)]),
            "lat",
            "lon",
            "pt",
        )
        .unwrap()
        .repartition(3)
        .unwrap();
        let ext = column_extent(&df, "pt").unwrap().unwrap();
        assert_eq!((ext.min_x, ext.max_x), (0.0, 5.0));
        assert_eq!((ext.min_y, ext.max_y), (-2.0, 7.0));
    }
}
