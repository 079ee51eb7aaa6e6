//! Spatial-operator benchmarks: the STR-tree join vs brute force (why
//! Sedona-style indexing matters), the uniform-grid fast path vs the
//! generic zone join, and hash group-by throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use rand::SeedableRng;

use geotorch_dataframe::groupby::Agg;
use geotorch_dataframe::rtree::StrTree;
use geotorch_dataframe::spatial::{
    add_point_column, assign_grid_cells, join_points_to_zones, join_points_to_zones_brute,
    UniformGrid,
};
use geotorch_dataframe::{Column, DataFrame, Envelope, Point};

fn points_df(n: usize, seed: u64) -> DataFrame {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let lats: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..16.0)).collect();
    let lons: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..12.0)).collect();
    let df = DataFrame::from_columns(vec![
        ("lat".into(), Column::F64(lats.into())),
        ("lon".into(), Column::F64(lons.into())),
    ])
    .unwrap();
    add_point_column(&df, "lat", "lon", "pt").unwrap()
}

fn bench_zone_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("zone_join");
    group.sample_size(10);
    let grid = UniformGrid::new(Envelope::new(0.0, 0.0, 12.0, 16.0), 12, 16).unwrap();
    let zones = grid.cell_geometries();
    for &n in &[1_000usize, 10_000] {
        let df = points_df(n, 1);
        group.bench_with_input(BenchmarkId::new("rtree", n), &n, |bench, _| {
            bench.iter(|| join_points_to_zones(&df, "pt", &zones, "z").unwrap());
        });
        group.bench_with_input(BenchmarkId::new("brute", n), &n, |bench, _| {
            bench.iter(|| join_points_to_zones_brute(&df, "pt", &zones, "z").unwrap());
        });
        group.bench_with_input(BenchmarkId::new("grid_fastpath", n), &n, |bench, _| {
            bench.iter(|| assign_grid_cells(&df, "pt", &grid, "z").unwrap());
        });
    }
    group.finish();
}

fn bench_rtree_build_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000] {
        let grid_side = (n as f64).sqrt() as usize;
        let cells: Vec<Envelope> = (0..n)
            .map(|i| {
                let (r, col) = (i / grid_side, i % grid_side);
                Envelope::new(col as f64, r as f64, col as f64 + 1.0, r as f64 + 1.0)
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("build", n), &n, |bench, _| {
            bench.iter(|| StrTree::build(&cells));
        });
        let tree = StrTree::build(&cells);
        group.bench_with_input(BenchmarkId::new("query_point", n), &n, |bench, _| {
            let p = Point::new(grid_side as f64 / 2.0 + 0.5, grid_side as f64 / 2.0 + 0.5);
            bench.iter(|| tree.query_point(&p));
        });
    }
    group.finish();
}

fn bench_groupby(c: &mut Criterion) {
    let mut group = c.benchmark_group("groupby");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..256)).collect();
        let values: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let df = DataFrame::from_columns(vec![
            ("k".into(), Column::I64(keys.into())),
            ("v".into(), Column::F64(values.into())),
        ])
        .unwrap()
        .repartition(4)
        .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                df.group_by(
                    &["k"],
                    &[Agg::Count("n".into()), Agg::Sum("v".into(), "s".into())],
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_zone_join, bench_rtree_build_query, bench_groupby);
criterion_main!(benches);
