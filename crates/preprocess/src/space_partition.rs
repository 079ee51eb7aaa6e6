//! Spatial grid generation (`geotorchai.preprocessing.grid.SpacePartition`).

use geotorch_dataframe::spatial::{column_extent, UniformGrid};
use geotorch_dataframe::{DataFrame, Envelope, Geometry};

use crate::error::{PreprocessError, PreprocessResult};

/// Generates uniform spatial grids over datasets or explicit extents.
pub struct SpacePartition;

impl SpacePartition {
    /// Grid of `partitions_x × partitions_y` cells over an explicit extent.
    pub fn generate_grid(
        extent: Envelope,
        partitions_x: usize,
        partitions_y: usize,
    ) -> PreprocessResult<UniformGrid> {
        Ok(UniformGrid::new(extent, partitions_x, partitions_y)?)
    }

    /// Grid covering the union of a geometry column's envelopes. (A grid
    /// `StManager::get_st_grid_dataframe` derives spans the geometries'
    /// representative points instead; see [`crate::StGridConfig::extent`].)
    ///
    /// # Errors
    /// If the column is missing, non-geometry, or empty.
    pub fn grid_from_dataframe(
        df: &DataFrame,
        geometry_column: &str,
        partitions_x: usize,
        partitions_y: usize,
    ) -> PreprocessResult<UniformGrid> {
        let extent = column_extent(df, geometry_column)?.ok_or_else(|| {
            PreprocessError::InvalidInput(format!(
                "cannot derive a grid from empty column {geometry_column}"
            ))
        })?;
        Self::grid_over(extent, partitions_x, partitions_y)
    }

    /// Grid over a data-derived extent: a degenerate one (all points
    /// identical) gets a tiny halo so the grid still has positive area.
    pub(crate) fn grid_over(
        extent: Envelope,
        partitions_x: usize,
        partitions_y: usize,
    ) -> PreprocessResult<UniformGrid> {
        let extent = if extent.width() <= 0.0 || extent.height() <= 0.0 {
            Envelope::new(
                extent.min_x - 0.5,
                extent.min_y - 0.5,
                extent.max_x + 0.5,
                extent.max_y + 0.5,
            )
        } else {
            extent
        };
        Ok(UniformGrid::new(extent, partitions_x, partitions_y)?)
    }

    /// The grid's cell envelopes in cell-id order (for exporting the
    /// partitioning).
    pub fn cell_geometries(grid: &UniformGrid) -> Vec<Geometry> {
        grid.cell_geometries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotorch_dataframe::spatial::add_point_column;
    use geotorch_dataframe::Column;

    #[test]
    fn explicit_grid() {
        let grid =
            SpacePartition::generate_grid(Envelope::new(0.0, 0.0, 12.0, 16.0), 12, 16).unwrap();
        assert_eq!(grid.num_cells(), 192);
        assert_eq!(SpacePartition::cell_geometries(&grid).len(), 192);
    }

    #[test]
    fn grid_from_dataframe_extent() {
        let df = DataFrame::from_columns(vec![
            ("lat".into(), Column::F64(vec![40.0, 41.0, 40.5].into())),
            ("lon".into(), Column::F64(vec![-74.0, -73.0, -73.5].into())),
        ])
        .unwrap();
        let df = add_point_column(&df, "lat", "lon", "pt").unwrap();
        let grid = SpacePartition::grid_from_dataframe(&df, "pt", 4, 4).unwrap();
        assert_eq!(grid.extent().min_x, -74.0);
        assert_eq!(grid.extent().max_y, 41.0);
    }

    #[test]
    fn degenerate_extent_gets_halo() {
        let df = DataFrame::from_columns(vec![
            ("lat".into(), Column::F64(vec![40.0, 40.0].into())),
            ("lon".into(), Column::F64(vec![-74.0, -74.0].into())),
        ])
        .unwrap();
        let df = add_point_column(&df, "lat", "lon", "pt").unwrap();
        let grid = SpacePartition::grid_from_dataframe(&df, "pt", 2, 2).unwrap();
        assert!(grid.extent().area() > 0.0);
        // The single point still lands in a cell.
        assert!(grid
            .cell_of(&geotorch_dataframe::Point::new(-74.0, 40.0))
            .is_some());
    }

    #[test]
    fn empty_column_errors() {
        let df = DataFrame::from_columns(vec![
            ("lat".into(), Column::F64(vec![].into())),
            ("lon".into(), Column::F64(vec![].into())),
        ])
        .unwrap();
        let df = add_point_column(&df, "lat", "lon", "pt").unwrap();
        assert!(SpacePartition::grid_from_dataframe(&df, "pt", 2, 2).is_err());
    }
}
