//! Property-based tests for DataFrame-engine invariants.

use proptest::prelude::*;

use geotorch_dataframe::spatial::{add_point_column, UniformGrid};
use geotorch_dataframe::{Column, DataFrame, Envelope, Geometry, Point};

fn int_frame(values: Vec<i64>) -> DataFrame {
    DataFrame::from_columns(vec![("v".to_string(), Column::I64(values.into()))]).unwrap()
}

proptest! {
    /// Repartitioning never changes row count or content order.
    #[test]
    fn repartition_preserves_rows(values in prop::collection::vec(-100i64..100, 0..200), parts in 1usize..10) {
        let df = int_frame(values.clone());
        let re = df.repartition(parts).unwrap();
        prop_assert_eq!(re.num_rows(), values.len());
        prop_assert_eq!(re.column("v").unwrap(), Column::I64(values.into()));
    }

    /// Every in-extent point maps to exactly one grid cell, and that
    /// cell's envelope contains it (interior points).
    #[test]
    fn grid_assignment_is_consistent(
        nx in 1usize..12,
        ny in 1usize..12,
        fx in 0.001f64..0.999,
        fy in 0.001f64..0.999,
    ) {
        let grid = UniformGrid::new(Envelope::new(0.0, 0.0, 10.0, 20.0), nx, ny).unwrap();
        let p = Point::new(10.0 * fx, 20.0 * fy);
        let cell = grid.cell_of(&p).expect("interior point");
        prop_assert!(cell < grid.num_cells());
        let env = grid.cell_envelope(cell);
        // Interior points (not on cell boundaries) are strictly inside.
        if !on_boundary(&grid, &p) {
            prop_assert!(env.contains_point(&p));
        }
    }

    /// Spatial cell assignment conserves in-extent points across
    /// partitionings.
    #[test]
    fn cell_assignment_conserves_points(
        coords in prop::collection::vec((0.0f64..4.0, 0.0f64..4.0), 1..80),
        parts in 1usize..6,
    ) {
        let df = DataFrame::from_columns(vec![
            ("lat".into(), Column::F64(coords.iter().map(|c| c.1).collect())),
            ("lon".into(), Column::F64(coords.iter().map(|c| c.0).collect())),
        ])
        .unwrap()
        .repartition(parts)
        .unwrap();
        let df = add_point_column(&df, "lat", "lon", "pt").unwrap();
        let grid = UniformGrid::new(Envelope::new(0.0, 0.0, 4.0, 4.0), 4, 4).unwrap();
        let pt = df.schema().index_of("pt").unwrap();
        let mut counts = vec![0usize; grid.num_cells()];
        for part in df.partitions() {
            for geom in part[pt].geoms().unwrap() {
                let Geometry::Point(p) = geom else { panic!("{geom:?} is not a point") };
                counts[grid.cell_of(p).expect("every point is in the extent")] += 1;
            }
        }
        let mut expected = vec![0usize; grid.num_cells()];
        for &(x, y) in &coords {
            expected[grid.cell_of(&Point::new(x, y)).unwrap()] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), coords.len());
        prop_assert_eq!(counts, expected);
    }

    /// WKT round-trips points exactly (f64 formatting is lossless for
    /// round-trip parsing).
    #[test]
    fn wkt_point_round_trip(x in -180.0f64..180.0, y in -90.0f64..90.0) {
        let g = Geometry::Point(Point::new(x, y));
        let back = Geometry::from_wkt(&g.to_wkt()).unwrap();
        prop_assert_eq!(back, g);
    }
}

fn on_boundary(grid: &UniformGrid, p: &Point) -> bool {
    let e = grid.extent();
    let cw = e.width() / grid.nx() as f64;
    let ch = e.height() / grid.ny() as f64;
    let fx = (p.x - e.min_x) / cw;
    let fy = (p.y - e.min_y) / ch;
    (fx - fx.round()).abs() < 1e-9 || (fy - fy.round()).abs() < 1e-9
}
