//! `pipeline`: the paper's pipeline as one user runs it — trips →
//! `get_st_grid_array` → `GridDatasetBuilder` (periodical) → `fit_grid`
//! DeepSTN+ → `checkpoint::save_named` → `Server::start` loading that
//! checkpoint with sync on → sequential HTTP `/predict` → fine-tune the
//! head one epoch → `Server::publish` → a second server `sync_from` the
//! first → `/predict` on the peer.
//!
//! Why: the one true end-to-end number, and the only workload where a
//! checkpoint write sits beside a checkpoint read and a delta publish
//! beside a delta fetch, so a codec change that speeds one and slows the
//! other shows.

use std::path::{Path, PathBuf};
use std::time::Instant;

use super::{fnv, max_abs_diff, repeat_for, start_server, Layers, Measured, Size, Workload};
use crate::http::Client;
use crate::seam::{
    checkpoint, chronological_split, deepstn, grid_io, mse_loss, no_grad, split_periodical,
    stack_periodical, tensor_from_json, tensor_to_json, train_config, trips_dataframe, Adam,
    Envelope, GridDatasetBuilder, GridModel, Module, Optimizer, PeriodicalServe, Registry, Server,
    StGridConfig, StGridDataset, StManager, Tensor, Trainer, TripGenerator, Var, GRID_MODEL, LENS,
};
use crate::stats::median;
use crate::trace::Tracer;

const BATCH: usize = 16;
const LEARNING_RATE: f32 = 5e-3;
const STEPS_PER_DAY: usize = 48;

pub struct Pipeline {
    lats: Vec<f64>,
    lons: Vec<f64>,
    timestamps: Vec<i64>,
    config: StGridConfig,
    dir: PathBuf,
    seed: u64,
    epochs: usize,
    predicts: usize,
    /// `(checkpoint bytes, delta bytes, fetched bytes)` of each pass;
    /// counts, so every pass of one seed must give the same.
    bytes: Vec<(u64, u64, u64)>,
}

/// A served DeepSTN+ whose weights come from `checkpoint`, with a delta
/// store under `store` so it can publish and sync.
fn start_node(
    checkpoint: &Path,
    store: PathBuf,
    (c, h, w): (usize, usize, usize),
    seed: u64,
    tracer: &'static Tracer,
    pass: u64,
) -> Server {
    let mut registry = Registry::new();
    registry.register(GRID_MODEL, Some(checkpoint.to_path_buf()), move || {
        Box::new(PeriodicalServe {
            model: deepstn(c, h, w, seed ^ 1),
            channels: c,
        })
    });
    assert!(
        registry.enable_sync(GRID_MODEL, store),
        "the model was just registered"
    );
    start_server(registry, tracer, pass)
}

/// Send each input in turn; every reply must be a 200 carrying `version`
/// (when one is expected) whose tensor is within 1e-5 of `expected`.
fn predict_all(
    server: &Server,
    bodies: &[String],
    expected: &[Tensor],
    version: Option<&str>,
    m: &mut Measured,
    tracer: &'static Tracer,
    pass: u64,
) {
    let _span = tracer.span("serve.predict_loop", pass);
    let path = format!("/predict/{GRID_MODEL}");
    let mut client = Client::connect(server.addr()).expect("connect to the node");
    for (body, expected) in bodies.iter().zip(expected) {
        m.attempted += 1;
        match client.post(&path, body) {
            Ok(reply) if reply.status == 200 => {
                m.op_ms.push(reply.total.as_secs_f64() * 1e3);
                let close = tensor_from_json(&reply.body)
                    .is_some_and(|t| max_abs_diff(t.as_slice(), expected.as_slice()) <= 1e-5);
                if !close {
                    m.fail(
                        1,
                        format!("pass {pass}: a reply differs from the in-process forward"),
                    );
                } else if version.is_some() && reply.version.as_deref() != version {
                    m.fail(
                        1,
                        format!(
                            "pass {pass}: reply carries version {:?}, expected {version:?}",
                            reply.version
                        ),
                    );
                }
            }
            Ok(reply) => m.fail(
                1,
                format!("pass {pass}: HTTP {}: {}", reply.status, reply.body),
            ),
            Err(e) => {
                m.fail(1, format!("pass {pass}: request dropped: {e}"));
                client = Client::connect(server.addr()).expect("reconnect to the node");
            }
        }
    }
}

/// What `model` answers in process, in eval mode, for each stacked input.
fn forward_all(
    model: &impl GridModel,
    inputs: &[Tensor],
    channels: usize,
    tracer: &'static Tracer,
    pass: u64,
) -> Vec<Tensor> {
    model.set_training(false);
    inputs
        .iter()
        .map(|x| {
            let batch = Var::constant(x.reshape(&[1, x.shape()[0], x.shape()[1], x.shape()[2]]));
            let y = tracer
                .time("nn.forward", pass, || {
                    no_grad(|| model.forward(&split_periodical(&batch, channels)))
                })
                .value();
            y.reshape(&y.shape()[1..])
        })
        .collect()
}

impl Pipeline {
    fn pass(&mut self, pass: u64, tracer: &'static Tracer, m: &mut Measured) -> Result<(), String> {
        let dir = self.dir.join(format!("pass-{pass}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

        // Trips in → the spatiotemporal tensor.
        let frame = tracer.time("preprocess.trips_dataframe", pass, || {
            trips_dataframe(
                self.lats.clone(),
                self.lons.clone(),
                self.timestamps.clone(),
            )
        });
        let frame = frame.map_err(|e| format!("trips_dataframe: {e}"))?;
        let parts = tracer
            .time("dataframe.repartition", pass, || frame.repartition(8))
            .map_err(|e| format!("repartition: {e}"))?;
        let (tensor, grid) = tracer
            .time("preprocess.st_grid_array", pass, || {
                StManager::get_st_grid_array(&parts, "lat", "lon", "ts", &self.config)
            })
            .map_err(|e| format!("get_st_grid_array: {e}"))?;
        if grid.total_events().ok() != Some(self.lats.len() as i64) {
            return Err("the grid lost trips".to_string());
        }

        // Tensor → dataset → trained model → checkpoint.
        let dataset: StGridDataset = tracer.time("datasets.build", pass, || {
            let mut dataset = GridDatasetBuilder::new(tensor)
                .name("trips")
                .steps_per_day(STEPS_PER_DAY)
                .build();
            dataset.set_periodical_representation(LENS.0, LENS.1, LENS.2);
            dataset
        });
        let (_, c, h, w) = dataset.dims();
        let (train, val, test) = chronological_split(dataset.len());
        let model = deepstn(c, h, w, self.seed);
        let trainer = Trainer::new(train_config(
            self.epochs,
            BATCH,
            LEARNING_RATE,
            self.seed,
            1,
        ));
        let report = tracer.time("core.fit_grid", pass, || {
            trainer.fit_grid(&model, &dataset, &train, &val)
        });
        let losses = &report.train_losses;
        if losses.iter().any(|l| !l.is_finite())
            || (self.epochs > 1 && losses[self.epochs - 1] >= losses[0])
        {
            return Err(format!(
                "fit_grid losses {losses:?} are not finite and falling"
            ));
        }
        let checkpoint_path = dir.join("deepstn.json");
        tracer
            .time("core.checkpoint_save", pass, || {
                checkpoint::save_named(&model, GRID_MODEL, &checkpoint_path)
            })
            .map_err(|e| format!("save_named: {e}"))?;
        let checkpoint_bytes = std::fs::metadata(&checkpoint_path)
            .map_err(|e| format!("stat checkpoint: {e}"))?
            .len();

        // The requests: held-out samples, lag groups stacked on the channel axis.
        let inputs: Vec<Tensor> = test
            .iter()
            .chain(&val)
            .cycle()
            .take(self.predicts)
            .map(|&i| {
                let x = stack_periodical(&dataset.batch(&[i]));
                x.reshape(&x.shape()[1..])
            })
            .collect();
        let bodies: Vec<String> = inputs.iter().map(tensor_to_json).collect();

        // Serve the checkpoint; replies must equal a forward of the saved file.
        let node_a = start_node(
            &checkpoint_path,
            dir.join("store-a"),
            (c, h, w),
            self.seed,
            tracer,
            pass,
        );
        let saved = deepstn(c, h, w, self.seed ^ 2);
        tracer
            .time("core.checkpoint_load", pass, || {
                checkpoint::load_named(&saved, GRID_MODEL, &checkpoint_path)
            })
            .map_err(|e| format!("load_named: {e}"))?;
        let expected = forward_all(&saved, &inputs, c, tracer, pass);
        predict_all(&node_a, &bodies, &expected, None, m, tracer, pass);

        // Fine-tune the head for one epoch and publish the delta.
        let parameters = model.parameters();
        let head = parameters[parameters.len() - 2..].to_vec();
        tracer.time("core.finetune", pass, || {
            model.set_training(true);
            let mut optimizer = Adam::new(head, LEARNING_RATE);
            for batch in train.chunks(BATCH) {
                let (input, target) = grid_io(&dataset.batch(batch));
                let loss = mse_loss(&model.forward(&input), &target);
                loss.backward();
                drop(loss);
                optimizer.step();
                parameters.iter().for_each(Var::zero_grad);
            }
        });
        let published = tracer
            .time("core.delta_publish", pass, || {
                node_a.publish(GRID_MODEL, &model.state_dict())
            })
            .map_err(|e| format!("publish: {e}"))?;
        let head_indices = vec![parameters.len() - 2, parameters.len() - 1];
        if published.changed != head_indices {
            return Err(format!(
                "publish changed tensors {:?}, the head is {head_indices:?}",
                published.changed
            ));
        }

        // A peer started from the same checkpoint pulls the delta.
        let node_b = start_node(
            &checkpoint_path,
            dir.join("store-b"),
            (c, h, w),
            self.seed,
            tracer,
            pass,
        );
        let peer = node_a.addr().to_string();
        let synced = tracer
            .time("serve.sync", pass, || node_b.sync_from(GRID_MODEL, &peer))
            .map_err(|e| format!("sync_from: {e}"))?;
        if !synced.advanced
            || synced.fetched_bytes != published.delta_bytes
            || synced.id != published.id
        {
            return Err(format!(
                "sync fetched {} bytes to head {}, publish wrote {} bytes as head {}",
                synced.fetched_bytes, synced.id, published.delta_bytes, published.id
            ));
        }
        if node_a.head_id(GRID_MODEL) != node_b.head_id(GRID_MODEL) {
            return Err("the two stores end with different head ids".to_string());
        }
        let expected = forward_all(&model, &inputs, c, tracer, pass);
        predict_all(
            &node_b,
            &bodies,
            &expected,
            Some(&published.id),
            m,
            tracer,
            pass,
        );
        tracer.time("serve.shutdown", pass, || {
            node_b.shutdown();
            node_a.shutdown();
        });
        std::fs::remove_dir_all(&dir).ok();

        let bytes = (
            checkpoint_bytes,
            published.delta_bytes,
            synced.fetched_bytes,
        );
        if self.bytes.first().is_some_and(|first| *first != bytes) {
            return Err(format!(
                "byte counts {bytes:?} differ from the first pass's {:?}",
                self.bytes[0]
            ));
        }
        self.bytes.push(bytes);
        Ok(())
    }
}

impl Workload for Pipeline {
    const NAME: &'static str = "pipeline";
    const SETUP_REPEATS: usize = 15;

    fn setup(seed: u64, size: Size, dir: &Path, _tracer: &'static Tracer) -> Pipeline {
        let (trips, days) = size.pick((200_000, 9), (20_000, 8));
        let generator = TripGenerator::nyc_like(seed).with_duration_days(days);
        let records = generator.generate(trips);
        let (min_lon, min_lat, max_lon, max_lat) = generator.extent();
        Pipeline {
            lats: records.iter().map(|t| t.pickup_lat).collect(),
            lons: records.iter().map(|t| t.pickup_lon).collect(),
            timestamps: records.iter().map(|t| t.timestamp).collect(),
            config: StGridConfig {
                partitions_x: 12,
                partitions_y: 16,
                step_duration_sec: 86_400 / STEPS_PER_DAY as i64,
                extent: Some(Envelope::new(min_lon, min_lat, max_lon, max_lat)),
            },
            dir: dir.to_path_buf(),
            seed,
            epochs: size.pick(2, 1),
            predicts: size.pick(100, 4),
            bytes: Vec::new(),
        }
    }

    fn measure(&mut self, seconds: f64, tracer: &'static Tracer) -> Measured {
        let mut m = Measured::default();
        let base = self.bytes.len() as u64;
        repeat_for(seconds, |pass| {
            let started = Instant::now();
            let outcome = tracer.time("harness.pipeline_pass", pass, || {
                self.pass(base + pass, tracer, &mut m)
            });
            m.end_pass(self.lats.len() as f64, started.elapsed().as_secs_f64());
            // The stages between the requests count as one more operation.
            m.attempted += 1;
            if let Err(why) = outcome {
                m.fail(1, format!("pass {pass}: {why}"));
            }
        });
        m
    }

    fn replay(
        &mut self,
        _seconds: f64,
        _tracer: &'static Tracer,
        measured: &Measured,
        layers: &mut Layers,
    ) -> Vec<String> {
        // Every stage is a public call of its own, so the traced passes
        // are already taken apart; only the counts remain to be set.
        if let Some(&(checkpoint, delta, fetched)) = self.bytes.last() {
            layers.insert("core.checkpoint_bytes", checkpoint as f64);
            layers.insert("core.delta_bytes", delta as f64);
            layers.insert("serve.sync_fetched_bytes", fetched as f64);
        }
        layers.insert("pipeline.pass_s", median(&measured.per_pass(|p| p.wall_s)));
        Vec::new()
    }

    fn digest(&self) -> u64 {
        fnv(self
            .bytes
            .first()
            .into_iter()
            .flat_map(|&(a, b, c)| [a as u32, b as u32, c as u32]))
    }
}
