//! `train_stream`: trips spilled in 16,384-row chunks (`SpillStore`),
//! then `SpillBatchStream → PrefetchLoader(depth 2) → Trainer::fit_stream`
//! of the 4→64→64→1 MLP, batch 512, two replicas.
//!
//! Why: the trainer of `train_grid` used differently — the kernels are
//! tiny, so what is left is per-step fixed cost: the tape, the optimizer,
//! the replica exchange, and whatever of spill read-back and `converter`
//! formatting the prefetcher does not hide (measured on the seed: it
//! hides nearly all of it, see README). It exercises `dataframe` by write
//! and read-back where `prep_trips` exercises it by group-by and aggregate.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use super::train_grid::check_report;
use super::{fnv, repeat_for, Layers, Measured, Size, Workload};
use crate::seam::{
    mse_loss, train_config, trip_mlp, Adam, BatchStream, Column, DataFrame, DfFormatter,
    FormattedFrame, Layer, LoaderError, Module, Optimizer, PrefetchLoader, RowTransformer,
    Sequential, SpillBatchStream, SpillStore, Tensor, Trainer, TripGenerator, TripRecord, Var,
};
use crate::stats::median;
use crate::trace::{totals, Tracer};

const FEATURES: [&str; 4] = ["lat", "lon", "hour", "dow"];
const LABEL: &str = "dist";
const BATCH: usize = 512;
const REPLICAS: usize = 2;
const LEARNING_RATE: f32 = 1e-3;
const PREFETCH_DEPTH: usize = 2;

pub struct TrainStream {
    store: Arc<SpillStore>,
    formatter: DfFormatter,
    epochs: usize,
    seed: u64,
    losses: Option<Vec<f32>>,
}

/// One chunk of the trip feature and label table: centred coordinates,
/// cyclic time features and the straight-line trip length, all of
/// order one.
fn chunk_columns(seed: u64, rows: usize) -> Vec<Column> {
    let trips = TripGenerator::nyc_like(seed).generate(rows);
    let column = |f: &dyn Fn(&TripRecord) -> f64| Column::F64(trips.iter().map(f).collect());
    vec![
        column(&|t| (t.pickup_lat - 40.75) * 10.0),
        column(&|t| (t.pickup_lon + 73.90) * 10.0),
        column(&|t| t.timestamp.rem_euclid(86_400) as f64 / 86_400.0),
        column(&|t| t.timestamp.div_euclid(86_400).rem_euclid(7) as f64 / 7.0),
        column(&|t| {
            let (dlat, dlon) = (t.dropoff_lat - t.pickup_lat, t.dropoff_lon - t.pickup_lon);
            (dlat * dlat + dlon * dlon).sqrt() * 10.0
        }),
    ]
}

/// Charges the time the trainer spends inside `next_batch` to the loader.
struct TimedStream {
    inner: Box<dyn BatchStream>,
    tracer: &'static Tracer,
}

impl BatchStream for TimedStream {
    fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError> {
        self.tracer
            .time("converter.loader_wait", 0, || self.inner.next_batch())
    }

    fn total_rows(&self) -> Option<usize> {
        self.inner.total_rows()
    }
}

impl Workload for TrainStream {
    const NAME: &'static str = "train_stream";
    const SETUP_REPEATS: usize = 15;

    fn setup(seed: u64, size: Size, dir: &Path, tracer: &'static Tracer) -> TrainStream {
        let (chunks, chunk_rows) = size.pick((8, 16_384), (2, 2_048));
        let names = FEATURES.iter().chain([&LABEL]).map(|n| n.to_string());
        let schema = DataFrame::from_columns(names.zip(chunk_columns(0, 1)).collect())
            .expect("trip schema")
            .schema()
            .clone();
        let mut store = SpillStore::create(dir.join("spill"), schema).expect("spill directory");
        for chunk in 0..chunks {
            let columns = chunk_columns(seed.wrapping_mul(1_000).wrapping_add(chunk), chunk_rows);
            tracer.time("dataframe.spill_write", chunk, || {
                store.spill(&columns).expect("spill chunk")
            });
        }
        TrainStream {
            store: Arc::new(store),
            formatter: DfFormatter::for_prediction(&FEATURES, &[4], &[LABEL], &[1])
                .expect("trip formatter"),
            epochs: size.pick(2, 2),
            seed,
            losses: None,
        }
    }

    fn measure(&mut self, seconds: f64, tracer: &'static Tracer) -> Measured {
        let mut m = Measured::default();
        let trainer = Trainer::new(train_config(
            self.epochs,
            BATCH,
            LEARNING_RATE,
            self.seed,
            REPLICAS,
        ));
        let rows = self.store.total_rows();
        let seed = self.seed;
        repeat_for(seconds, |pass| {
            let model = trip_mlp(seed);
            let transformer = Arc::new(RowTransformer::new(BATCH));
            let (store, formatter) = (Arc::clone(&self.store), self.formatter.clone());
            let mut make = move |_epoch: usize| -> Result<Box<dyn BatchStream>, LoaderError> {
                let spill = SpillBatchStream::new(
                    Arc::clone(&store),
                    formatter.clone(),
                    Arc::clone(&transformer),
                );
                let loader: Box<dyn BatchStream> =
                    Box::new(PrefetchLoader::new(Box::new(spill), PREFETCH_DEPTH));
                Ok(if tracer.enabled() {
                    Box::new(TimedStream {
                        inner: loader,
                        tracer,
                    })
                } else {
                    loader
                })
            };
            let started = Instant::now();
            let report = tracer.time("mono.fit_stream", pass, || {
                trainer.fit_stream(
                    &model,
                    &|replica| Box::new(trip_mlp(seed.wrapping_add(100 + replica as u64))),
                    &|m: &Sequential, x: &Var| m.forward(x),
                    &mut make,
                    &mut || 0.0,
                    None,
                )
            });
            let wall = started.elapsed().as_secs_f64();
            m.attempted += self.epochs as u64;
            let checked = match &report {
                Ok(report) => {
                    m.op_ms.extend(report.epoch_seconds.iter().map(|s| s * 1e3));
                    check_report(report, self.epochs, rows, &mut self.losses)
                }
                Err(e) => Err(format!("fit_stream failed: {e}")),
            };
            m.end_pass((self.epochs * rows) as f64, wall);
            if let Err(why) = checked {
                m.fail(self.epochs as u64, format!("pass {pass}: {why}"));
            }
        });
        m
    }

    fn replay(
        &mut self,
        seconds: f64,
        tracer: &'static Tracer,
        measured: &Measured,
        layers: &mut Layers,
    ) -> Vec<String> {
        // One worker, nothing overlapped: read a partition back, format
        // it, cut batches, and take a training step on each.
        let model = trip_mlp(self.seed);
        model.set_training(true);
        let mut optimizer = Adam::new(model.parameters(), LEARNING_RATE);
        let transformer = RowTransformer::new(BATCH);
        let mut scratch = Vec::new();
        let (mut samples, mut wall) = (0usize, 0.0);
        repeat_for(seconds * 0.8, |pass| {
            let partition = pass as usize % self.store.len();
            let started = Instant::now();
            let _partition = tracer.span("harness.replay_partition", pass);
            let columns = tracer.time("dataframe.spill_read", pass, || {
                self.store
                    .read_with(partition, &mut scratch)
                    .expect("read partition back")
            });
            let formatted = tracer.time("converter.format_partition", pass, || {
                self.formatter
                    .format_partition(self.store.schema(), &columns)
                    .expect("format partition")
            });
            let frame = FormattedFrame {
                partitions: vec![formatted],
                feature_shape: self.formatter.feature_shape().to_vec(),
                label_shape: self.formatter.label_shape().to_vec(),
            };
            let mut batches = transformer.batches(&frame);
            while let Some((x, y)) = tracer.time("converter.batches", pass, || batches.next()) {
                samples += x.shape()[0];
                let loss = tracer.time("nn.forward", pass, || {
                    mse_loss(&model.forward(&Var::constant(x)), &Var::constant(y))
                });
                tracer.time("nn.backward", pass, || loss.backward());
                drop(loss);
                tracer.time("nn.optim", pass, || {
                    optimizer.step();
                    optimizer.zero_grad();
                });
            }
            wall += started.elapsed().as_secs_f64();
        });
        let replay_sample_s = wall / samples as f64;
        let fit_sample_s = median(&measured.all_ops()) / 1e3 / self.store.total_rows() as f64;
        // Base for both: the median `fit_stream` epoch divided by its rows.
        layers.insert(
            "core.fit_unattributed_share",
            1.0 - replay_sample_s / fit_sample_s,
        );
        layers.insert(
            "core.replica_overhead_share",
            1.0 - replay_sample_s / REPLICAS as f64 / fit_sample_s,
        );
        let fit_wall: f64 = measured.passes.iter().map(|p| p.wall_s).sum();
        let waited = totals(&tracer.snapshot(), 0)
            .get("converter.loader_wait")
            .map_or(0.0, |t| t.total_s);
        layers.insert("converter.loader_wait_share", waited / fit_wall);
        layers.insert("dataframe.spill_bytes", self.store.spilled_bytes() as f64);
        Vec::new()
    }

    fn digest(&self) -> u64 {
        fnv(self.losses.iter().flatten().map(|l| l.to_bits()))
    }
}
