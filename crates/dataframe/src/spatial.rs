//! Spatial operators: point construction, spatial join, grid partitioning.
//!
//! These mirror the Sedona operations GeoTorchAI's preprocessing module
//! drives: building a geometry column from lat/lon columns, joining points
//! against a set of zone geometries, and the uniform-grid fast path that
//! maps points straight to cell ids without an index.

use crate::column::{DType, Value};
use crate::error::{DfError, DfResult};
use crate::exec;
use crate::frame::DataFrame;
use crate::geometry::{Envelope, Geometry, Point};
use crate::rtree::StrTree;

/// Append a `Geom` point column built from two numeric columns.
///
/// Mirrors `STManager.add_spatial_points(df, lat_column, lon_column, ...)`
/// from the paper's Listing 8 (longitude becomes x, latitude y).
pub fn add_point_column(
    df: &DataFrame,
    lat_column: &str,
    lon_column: &str,
    alias: &str,
) -> DfResult<DataFrame> {
    df.with_column(alias, DType::Geom, |row| {
        let lat = row.f64(lat_column)?;
        let lon = row.f64(lon_column)?;
        Ok(Value::Geom(Geometry::Point(Point::new(lon, lat))))
    })
}

/// Join each point in `df[point_column]` to the index of the first
/// geometry in `zones` containing it, appended as an i64 column
/// `zone_alias`. Points matching no zone get `-1`.
///
/// Uses an STR-tree over zone envelopes with an exact refinement step —
/// the filter/refine pattern of Sedona's spatial join. Runs partition-
/// parallel.
pub fn join_points_to_zones(
    df: &DataFrame,
    point_column: &str,
    zones: &[Geometry],
    zone_alias: &str,
) -> DfResult<DataFrame> {
    let envelopes: Vec<Envelope> = zones.iter().map(Geometry::envelope).collect();
    let tree = StrTree::build(&envelopes);
    df.with_column(zone_alias, DType::I64, |row| {
        let geom = row.geometry(point_column)?;
        let Geometry::Point(p) = geom else {
            return Err(DfError::TypeMismatch {
                column: point_column.to_string(),
                expected: "point geometry",
                found: "non-point geometry",
            });
        };
        let mut candidates = tree.query_point(&p);
        candidates.sort_unstable(); // deterministic "first zone wins"
        let hit = candidates
            .into_iter()
            .find(|&i| zones[i].contains_point(&p))
            .map(|i| i as i64)
            .unwrap_or(-1);
        Ok(Value::I64(hit))
    })
}

/// Reference implementation of [`join_points_to_zones`] that scans every
/// zone per point (no index). Used by tests and the index ablation bench.
pub fn join_points_to_zones_brute(
    df: &DataFrame,
    point_column: &str,
    zones: &[Geometry],
    zone_alias: &str,
) -> DfResult<DataFrame> {
    df.with_column(zone_alias, DType::I64, |row| {
        let geom = row.geometry(point_column)?;
        let Geometry::Point(p) = geom else {
            return Err(DfError::TypeMismatch {
                column: point_column.to_string(),
                expected: "point geometry",
                found: "non-point geometry",
            });
        };
        let hit = zones
            .iter()
            .position(|z| z.contains_point(&p))
            .map(|i| i as i64)
            .unwrap_or(-1);
        Ok(Value::I64(hit))
    })
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

/// Append an i64 `cell_alias` column mapping each point to its grid cell
/// (`-1` outside the extent). This is the O(1)-per-point fast path the
/// generic zone join is benchmarked against.
pub fn assign_grid_cells(
    df: &DataFrame,
    point_column: &str,
    grid: &UniformGrid,
    cell_alias: &str,
) -> DfResult<DataFrame> {
    df.with_column(cell_alias, DType::I64, |row| {
        let geom = row.geometry(point_column)?;
        let p = match geom {
            Geometry::Point(p) => p,
            other => other.representative_point(),
        };
        Ok(Value::I64(
            grid.cell_of(&p).map(|c| c as i64).unwrap_or(-1),
        ))
    })
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
    fn assign_grid_cells_column() {
        let df = points_df(&[(0.5, 0.5), (1.5, 0.5), (9.0, 9.0)]);
        let df = add_point_column(&df, "lat", "lon", "pt").unwrap();
        let grid = UniformGrid::new(Envelope::new(0.0, 0.0, 2.0, 1.0), 2, 1).unwrap();
        let out = assign_grid_cells(&df, "pt", &grid, "cell").unwrap();
        assert_eq!(
            out.column("cell").unwrap(),
            Column::I64(vec![0, 1, -1].into())
        );
    }

    #[test]
    fn zone_join_indexed_matches_brute_force() {
        let coords: Vec<(f64, f64)> = (0..200)
            .map(|i| ((i % 20) as f64 * 0.5 + 0.25, (i / 20) as f64 * 0.5 + 0.25))
            .collect();
        let df = add_point_column(&points_df(&coords), "lat", "lon", "pt").unwrap();
        let grid = UniformGrid::new(Envelope::new(0.0, 0.0, 10.0, 5.0), 5, 5).unwrap();
        let zones = grid.cell_geometries();
        let a = join_points_to_zones(&df, "pt", &zones, "z").unwrap();
        let b = join_points_to_zones_brute(&df, "pt", &zones, "z").unwrap();
        assert_eq!(a.column("z").unwrap(), b.column("z").unwrap());
        // Every point fell inside some zone.
        assert!(a.column("z").unwrap().i64s().unwrap().iter().all(|&v| v >= 0));
    }

    #[test]
    fn zone_join_flags_misses() {
        let df = add_point_column(&points_df(&[(100.0, 100.0)]), "lat", "lon", "pt").unwrap();
        let zones = vec![Geometry::Envelope(Envelope::new(0.0, 0.0, 1.0, 1.0))];
        let out = join_points_to_zones(&df, "pt", &zones, "z").unwrap();
        assert_eq!(out.column("z").unwrap(), Column::I64(vec![-1].into()));
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

    #[test]
    fn polygon_zones_respect_shape() {
        use crate::geometry::Polygon;
        // A triangle zone: only points inside the triangle join.
        let tri = Geometry::Polygon(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(0.0, 4.0),
            ])
            .unwrap(),
        );
        // (3.5, 3.5) is inside the bounding box but outside the triangle —
        // the refine step must reject it.
        let df = add_point_column(&points_df(&[(1.0, 1.0), (3.5, 3.5)]), "lat", "lon", "pt").unwrap();
        let out = join_points_to_zones(&df, "pt", &[tri], "z").unwrap();
        assert_eq!(out.column("z").unwrap(), Column::I64(vec![0, -1].into()));
    }
}
