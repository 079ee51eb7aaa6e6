//! `prep_trips`: NYC-like trips → `trips_dataframe` → `repartition(8)` →
//! `StManager::get_st_grid_array` on the paper's 12×16 grid with 30-minute
//! slots (Listing 8).
//!
//! Why: `dataframe` and `preprocess` do all the work and `tensor`, `nn`
//! and `serve` none — the mechanism behind the paper's Fig. 8. A kernel
//! or serving change must not move it.

use std::path::Path;
use std::time::Instant;

use super::{fnv, repeat_for, Layers, Measured, Size, Workload};
use crate::seam::{
    get_st_grid_dataframe_naive, trips_dataframe, DataFrame, Envelope, StGridConfig, StManager,
    Tensor, TripGenerator,
};
use crate::trace::Tracer;

const PARTITIONS: usize = 8;
/// Rows of the subsample the naive reference implementation checks.
const SUBSAMPLE_ROWS: usize = 50_000;
/// Rows at which the naive-to-partitioned time ratio is taken (the
/// smallest size of the paper's Fig. 8 sweep where the gap is visible).
const RATIO_ROWS: usize = 140_000;

pub struct PrepTrips {
    frame: DataFrame,
    subsample: DataFrame,
    ratio_frame: DataFrame,
    config: StGridConfig,
    rows: usize,
    /// Trips inside the grid extent, counted from the generated trips.
    in_extent: i64,
    reference: Option<Tensor>,
}

/// The generator's extent pulled in by 0.02° on every side, so that some
/// trips fall outside the grid and the in-extent count is a real check.
fn extent(generator: &TripGenerator) -> Envelope {
    let (min_lon, min_lat, max_lon, max_lat) = generator.extent();
    Envelope::new(
        min_lon + 0.02,
        min_lat + 0.02,
        max_lon - 0.02,
        max_lat - 0.02,
    )
}

fn head(lats: &[f64], lons: &[f64], ts: &[i64], n: usize) -> DataFrame {
    let n = n.min(lats.len());
    trips_dataframe(lats[..n].to_vec(), lons[..n].to_vec(), ts[..n].to_vec()).expect("trip columns")
}

impl PrepTrips {
    fn grid_array(&self, frame: &DataFrame) -> Tensor {
        StManager::get_st_grid_array(frame, "lat", "lon", "ts", &self.config)
            .expect("get_st_grid_array on generated trips")
            .0
    }
}

impl Workload for PrepTrips {
    const NAME: &'static str = "prep_trips";

    fn setup(seed: u64, size: Size, _dir: &Path, tracer: &'static Tracer) -> PrepTrips {
        let rows = size.pick(2_000_000, 60_000);
        let generator = TripGenerator::nyc_like(seed);
        let trips = generator.generate(rows);
        let envelope = extent(&generator);
        let lats: Vec<f64> = trips.iter().map(|t| t.pickup_lat).collect();
        let lons: Vec<f64> = trips.iter().map(|t| t.pickup_lon).collect();
        let ts: Vec<i64> = trips.iter().map(|t| t.timestamp).collect();
        drop(trips);
        let in_extent = lats
            .iter()
            .zip(&lons)
            .filter(|(&lat, &lon)| {
                (envelope.min_x..envelope.max_x).contains(&lon)
                    && (envelope.min_y..envelope.max_y).contains(&lat)
            })
            .count() as i64;
        let subsample = head(&lats, &lons, &ts, SUBSAMPLE_ROWS);
        let ratio_frame = head(&lats, &lons, &ts, RATIO_ROWS);
        let frame = tracer.time("preprocess.trips_dataframe", 0, || {
            trips_dataframe(lats, lons, ts).expect("trip columns")
        });
        PrepTrips {
            frame,
            subsample,
            ratio_frame,
            config: StGridConfig {
                partitions_x: 12,
                partitions_y: 16,
                step_duration_sec: 1800,
                extent: Some(envelope),
            },
            rows,
            in_extent,
            reference: None,
        }
    }

    fn measure(&mut self, seconds: f64, tracer: &'static Tracer) -> Measured {
        let mut m = Measured::default();
        repeat_for(seconds, |pass| {
            let started = Instant::now();
            let parts = tracer.time("dataframe.repartition", pass, || {
                self.frame.repartition(PARTITIONS).expect("repartition")
            });
            let (tensor, grid) = tracer.time("preprocess.st_grid_array", pass, || {
                StManager::get_st_grid_array(&parts, "lat", "lon", "ts", &self.config)
                    .expect("get_st_grid_array on generated trips")
            });
            let wall = started.elapsed().as_secs_f64();
            m.attempted += 1;
            m.op_ms.push(wall * 1e3);
            m.end_pass(self.rows as f64, wall);
            let events = grid.total_events().expect("count column");
            if tensor.sum() as i64 != self.in_extent || events != self.in_extent {
                m.fail(1, format!(
                    "pass {pass}: tensor sum {} and total_events {events}, {} trips are in the extent",
                    tensor.sum(), self.in_extent
                ));
            }
            self.reference.get_or_insert(tensor);
        });
        m
    }

    fn replay(
        &mut self,
        seconds: f64,
        tracer: &'static Tracer,
        _measured: &Measured,
        layers: &mut Layers,
    ) -> Vec<String> {
        // The fused call, taken apart: points, sparse grid frame, dense tensor.
        let reference = self.reference.clone().expect("measure ran before replay");
        let parts = self.frame.repartition(PARTITIONS).expect("repartition");
        let mut mismatches = 0u64;
        repeat_for(seconds * 0.8, |pass| {
            let with_points = tracer.time("preprocess.add_points", pass, || {
                StManager::add_spatial_points(&parts, "lat", "lon", "geom").expect("add points")
            });
            let grid = tracer.time("preprocess.st_grid_frame", pass, || {
                StManager::get_st_grid_dataframe(&with_points, "geom", "ts", &self.config)
                    .expect("get_st_grid_dataframe")
            });
            let tensor = tracer.time("preprocess.to_tensor", pass, || {
                grid.to_tensor().expect("to_tensor")
            });
            if tensor != reference {
                mismatches += 1;
            }
        });

        // Fig. 8's ordering at its smallest size: the materialising
        // single-threaded baseline against the partitioned engine.
        let parts = self
            .ratio_frame
            .repartition(PARTITIONS)
            .expect("repartition");
        let time = |f: &mut dyn FnMut()| {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let fast = time(&mut || {
            tracer.time("probe.ratio_partitioned", 0, || {
                std::hint::black_box(self.grid_array(&parts))
            });
        });
        let naive = time(&mut || {
            tracer.time("probe.ratio_naive", 0, || {
                std::hint::black_box(
                    get_st_grid_dataframe_naive(
                        &self.ratio_frame,
                        "lat",
                        "lon",
                        "ts",
                        &self.config,
                    )
                    .expect("naive pipeline"),
                )
            });
        });
        layers.insert("preprocess.naive_ratio", naive / fast);
        if mismatches > 0 {
            return vec![format!(
                "{mismatches} decomposed passes differ from get_st_grid_array"
            )];
        }
        Vec::new()
    }

    fn verify(&mut self) -> Vec<String> {
        let fast = self.grid_array(&self.subsample.repartition(PARTITIONS).expect("repartition"));
        let naive = get_st_grid_dataframe_naive(&self.subsample, "lat", "lon", "ts", &self.config)
            .and_then(|grid| grid.to_tensor())
            .expect("naive pipeline");
        if fast == naive {
            Vec::new()
        } else {
            vec![format!(
                "the {}-row subsample differs from get_st_grid_dataframe_naive: sums {} and {}",
                self.subsample.num_rows(),
                fast.sum(),
                naive.sum()
            )]
        }
    }

    fn digest(&self) -> u64 {
        fnv(self
            .reference
            .iter()
            .flat_map(|t| t.as_slice())
            .map(|v| v.to_bits()))
    }
}
