//! Property-based tests for DataFrame-engine invariants.

use proptest::prelude::*;

use geotorch_dataframe::groupby::Agg;
use geotorch_dataframe::rtree::StrTree;
use geotorch_dataframe::spatial::{add_point_column, assign_grid_cells, UniformGrid};
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

    /// filter ∘ union ≡ union ∘ filter.
    #[test]
    fn filter_commutes_with_union(
        a in prop::collection::vec(-50i64..50, 0..50),
        b in prop::collection::vec(-50i64..50, 0..50),
    ) {
        let da = int_frame(a);
        let db = int_frame(b);
        let pred = |row: geotorch_dataframe::frame::RowRef<'_>| Ok(row.i64("v")? % 2 == 0);
        let left = da.union(&db).unwrap().filter(pred).unwrap();
        let right = da.filter(pred).unwrap().union(&db.filter(pred).unwrap()).unwrap();
        prop_assert_eq!(left.column("v").unwrap(), right.column("v").unwrap());
    }

    /// Group-by COUNT totals always equal the row count, for any
    /// partitioning.
    #[test]
    fn groupby_count_conserves_rows(
        keys in prop::collection::vec(0i64..10, 1..200),
        parts in 1usize..8,
    ) {
        let df = int_frame(keys.clone()).repartition(parts).unwrap();
        let out = df.group_by(&["v"], &[Agg::Count("n".into())]).unwrap();
        let total: i64 = out.column("n").unwrap().i64s().unwrap().iter().sum();
        prop_assert_eq!(total as usize, keys.len());
        // Group count = distinct keys.
        let distinct: std::collections::HashSet<i64> = keys.into_iter().collect();
        prop_assert_eq!(out.num_rows(), distinct.len());
    }

    /// Sorting yields a non-decreasing column with the same multiset.
    #[test]
    fn sort_is_a_permutation(values in prop::collection::vec(-1000i64..1000, 0..200)) {
        let sorted = int_frame(values.clone()).sort_by("v").unwrap();
        let col = sorted.column("v").unwrap();
        let got = col.i64s().unwrap();
        prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(got, &expected[..]);
    }

    /// STR-tree point queries agree with a linear scan for random
    /// envelope sets.
    #[test]
    fn rtree_matches_linear_scan(
        boxes in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.1f64..3.0, 0.1f64..3.0), 1..60),
        px in 0.0f64..12.0,
        py in 0.0f64..12.0,
    ) {
        let envelopes: Vec<Envelope> = boxes
            .iter()
            .map(|&(x, y, w, h)| Envelope::new(x, y, x + w, y + h))
            .collect();
        let tree = StrTree::build(&envelopes);
        let p = Point::new(px, py);
        let mut hits = tree.query_point(&p);
        hits.sort_unstable();
        let mut expected: Vec<usize> = envelopes
            .iter()
            .enumerate()
            .filter(|(_, e)| e.contains_point(&p))
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(hits, expected);
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
        let out = assign_grid_cells(&df, "pt", &grid, "cell").unwrap();
        let cells = out.column("cell").unwrap();
        prop_assert!(cells.i64s().unwrap().iter().all(|&c| c >= 0));
        prop_assert_eq!(out.num_rows(), coords.len());
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
