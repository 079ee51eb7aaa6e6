//! The one epoch driver and its step executor — the trainer layer of the
//! `DataSource → Loader → Trainer` seam (DESIGN.md §14).
//!
//! # Architecture
//!
//! `fit` owns everything the paper's protocol fixes (§III-A2 update
//! cadence, §V-C early stopping on validation): the optimizer, update
//! cadence, cumulative `1/batches` scaling, report bookkeeping, early
//! stopping, best-state restore. One step deals up to K shards (K =
//! `config.replicas` for `fit_stream`, 1 for the in-memory fits, which
//! have no replica factory) and runs them like this:
//!
//! 1. with K > 1, the caller snapshots the canonical state dict (O(1)
//!    `Arc` clones per tensor) and hands replica `r ≥ 1` one stream batch
//!    of `n_r` samples with weight `w_r = n_r / N`. Each replica is a
//!    worker thread owning a private model instance (the autograd tape
//!    is `Rc`-based and cannot cross threads, so models are built *on*
//!    their threads by a `Sync` factory — the same pattern as the serving
//!    batcher's model-owner threads);
//! 2. meanwhile the caller runs shard 0 on the canonical model itself:
//!    forward, then `backward` seeded with `w_0`, so its gradients land
//!    on the canonical parameters pre-scaled;
//! 3. each worker loads the snapshot, forwards its shard, runs `backward`
//!    seeded with `w_r`, and ships the gradients back; the caller seeds
//!    them onto the canonical parameters **in slot order**.
//!
//! The driver then takes one pooled in-place Adam step. With K = 1 the
//! step is shard 0 alone with `w = n/n = 1.0`, the seed `backward()`
//! uses; `tests/replica_grad_prop.rs` proves K ∈ {2, 3, 4} bit-equal to
//! K = 1 on lattice inputs. A K-replica fit spawns K − 1 threads; a
//! panic in shard 0 unwinds to the caller, a worker's surfaces as
//! [`TrainError::Replica`].
//!
//! # Shard-assignment determinism
//!
//! Shards are consecutive stream batches, dealt to replicas in slot
//! order. No work stealing: the assignment is a pure function of the
//! stream order and K, so reruns are reproducible.
//!
//! Non-trainable parameters (batch-norm running statistics) produce no
//! gradients: shard 0's forward updates them in place on the canonical
//! model, which is why the workers' snapshot is taken before it.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::Instant;

use geotorch_converter::{BatchStream, LoaderError};
use geotorch_datasets::BatchIndices;
use geotorch_nn::optim::{Adam, Optimizer};
use geotorch_nn::{Module, Var};
use geotorch_tensor::{with_device, Device, Tensor};

use crate::trainer::{scale_grads, TrainConfig, TrainReport, UpdateMode};
use crate::StopReason;

/// Why a fit failed.
#[derive(Debug)]
pub enum TrainError {
    /// The batch source failed (spill read, prefetch fault, …).
    Loader(LoaderError),
    /// A replica worker failed (panic in the loss, bad state dict, …).
    Replica {
        /// Which replica slot failed.
        replica: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Loader(e) => write!(f, "loader: {e}"),
            TrainError::Replica { replica, message } => {
                write!(f, "replica {replica}: {message}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<LoaderError> for TrainError {
    fn from(e: LoaderError) -> TrainError {
        TrainError::Loader(e)
    }
}

/// Builds replica `r`'s private model on its worker thread.
pub(crate) type Factory<'a, M> = dyn Fn(usize) -> Box<M> + Sync + 'a;

/// Maps a model and one shard's payload to the loss node.
pub(crate) type LossFn<'a, M, P> = dyn Fn(&M, &P) -> Var + Sync + 'a;

/// Per-step work source: deals each step's payloads (with sample counts)
/// until the epoch is exhausted.
pub(crate) trait StepSource<P> {
    /// Reset for epoch `epoch` (rebuild streams, reshuffle indices).
    fn begin_epoch(&mut self, epoch: usize) -> Result<(), TrainError>;

    /// The next step's shards as `(payload, sample_count)` — at most
    /// `width`, one per replica slot, dealt in slot order — or `None` at
    /// epoch end.
    fn next_step(&mut self, width: usize) -> Result<Option<Vec<(P, usize)>>, TrainError>;
}

/// Deals each shuffled batch of sample indices as one step's single
/// shard, materialized by `batch_of` on the calling thread.
pub(crate) struct IndexStepSource<'a, F> {
    train_idx: &'a [usize],
    batch_size: usize,
    seed: u64,
    batch_of: F,
    iter: Option<BatchIndices>,
}

impl<'a, F> IndexStepSource<'a, F> {
    /// Steps over `train_idx` with `config`'s batch size and seed;
    /// `batch_of` materializes one batch.
    pub(crate) fn new(
        train_idx: &'a [usize],
        config: &TrainConfig,
        batch_of: F,
    ) -> IndexStepSource<'a, F> {
        IndexStepSource {
            train_idx,
            batch_size: config.batch_size,
            seed: config.seed,
            batch_of,
            iter: None,
        }
    }
}

impl<P, F: FnMut(&[usize]) -> P> StepSource<P> for IndexStepSource<'_, F> {
    fn begin_epoch(&mut self, epoch: usize) -> Result<(), TrainError> {
        self.iter = Some(BatchIndices::shuffled(
            self.train_idx,
            self.batch_size,
            self.seed.wrapping_add(epoch as u64),
        ));
        Ok(())
    }

    /// One shard per step: in-memory fits have no replica factory, so
    /// the width is always 1.
    fn next_step(&mut self, _width: usize) -> Result<Option<Vec<(P, usize)>>, TrainError> {
        let Some(batch) = self.iter.as_mut().and_then(Iterator::next) else {
            self.iter = None;
            return Ok(None);
        };
        Ok(Some(vec![((self.batch_of)(&batch), batch.len())]))
    }
}

/// Deals consecutive [`BatchStream`] batches to replica slots: step =
/// up to `width` stream batches, one per replica.
pub(crate) struct StreamStepSource<'a> {
    make: &'a mut dyn FnMut(usize) -> Result<Box<dyn BatchStream>, LoaderError>,
    stream: Option<Box<dyn BatchStream>>,
}

impl<'a> StreamStepSource<'a> {
    /// A source that rebuilds its stream via `make` at each epoch.
    pub(crate) fn new(
        make: &'a mut dyn FnMut(usize) -> Result<Box<dyn BatchStream>, LoaderError>,
    ) -> StreamStepSource<'a> {
        StreamStepSource { make, stream: None }
    }
}

impl StepSource<(Tensor, Tensor)> for StreamStepSource<'_> {
    fn begin_epoch(&mut self, epoch: usize) -> Result<(), TrainError> {
        self.stream = Some((self.make)(epoch)?);
        Ok(())
    }

    fn next_step(
        &mut self,
        width: usize,
    ) -> Result<Option<Vec<((Tensor, Tensor), usize)>>, TrainError> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(None);
        };
        let mut shards = Vec::with_capacity(width);
        for _ in 0..width {
            match stream.next_batch() {
                Ok(Some(batch)) => {
                    let n = batch.0.shape()[0];
                    shards.push((batch, n));
                }
                Ok(None) => {
                    self.stream = None;
                    break;
                }
                Err(e) => {
                    // Sticky failure: drop the stream so the epoch ends
                    // here either way.
                    self.stream = None;
                    return Err(e.into());
                }
            }
        }
        if shards.is_empty() {
            Ok(None)
        } else {
            Ok(Some(shards))
        }
    }
}

/// The step executor: runs forward and backward over one step's shards
/// (`n_total` samples in all), leaves the step's gradient on the
/// canonical parameters, and adds the sample-weighted shard losses to
/// the epoch's running loss in slot order.
type StepFn<'a, P> = dyn FnMut(Vec<(P, usize)>, usize, &mut f32) -> Result<(), TrainError> + 'a;

/// Train `model` under `config.device`: the single entry every `fit_*`
/// goes through. Shard 0 of every step runs on `model` on the calling
/// thread; with a `factory` and `config.replicas = K > 1`, K − 1 worker
/// threads run shards 1 and up. See the module docs.
pub(crate) fn fit<M, P>(
    config: &TrainConfig,
    model: &M,
    factory: Option<&Factory<M>>,
    loss_fn: &LossFn<M, P>,
    source: &mut dyn StepSource<P>,
    validate: &mut dyn FnMut() -> f32,
    on_improve: Option<&mut dyn FnMut(usize, f32)>,
) -> Result<TrainReport, TrainError>
where
    M: Module + ?Sized,
    P: Send,
{
    let params = model.parameters();
    with_device(config.device, || {
        std::thread::scope(|scope| {
            // Replica `r`'s job sender and result receiver sit at `r - 1`.
            let mut workers = Vec::new();
            if let Some(factory) = factory {
                for r in 1..config.replicas {
                    let (job_tx, job_rx) = mpsc::channel::<Job<P>>();
                    let (out_tx, out_rx) = mpsc::channel();
                    let device = config.device;
                    scope.spawn(move || {
                        replica_worker(r, device, factory, loss_fn, &job_rx, &out_tx)
                    });
                    workers.push((job_tx, out_rx));
                }
            }
            let mut step = |shards: Vec<(P, usize)>, n_total: usize, epoch_loss: &mut f32| {
                let mut shards = shards
                    .into_iter()
                    .map(|(payload, n)| (payload, n as f32 / n_total as f32));
                let (payload, weight) = shards.next().expect("a step deals at least one shard");
                // Snapshot before shard 0's forward moves the running
                // statistics: every worker starts from the pre-step state.
                let state = if shards.len() > 0 { model.state_dict() } else { Vec::new() };
                let mut dealt = Vec::with_capacity(shards.len());
                for ((job_tx, out_rx), (payload, weight)) in workers.iter().zip(shards) {
                    let job = Job {
                        state: state.clone(),
                        payload,
                        weight,
                    };
                    job_tx.send(job).map_err(|_| TrainError::Replica {
                        replica: dealt.len() + 1,
                        message: "replica worker exited before dispatch".into(),
                    })?;
                    dealt.push((out_rx, weight));
                }
                *epoch_loss += weight * run_shard(model, loss_fn, &payload, weight);
                // Weighted step loss: Σ (n_r/N)·loss_r is the N-sample mean
                // for mean-style losses. Gradients arrive pre-scaled by
                // `n_r/N`, so the merge is a plain sum in slot order.
                for (slot, (out_rx, weight)) in dealt.into_iter().enumerate() {
                    let result = out_rx.recv().unwrap_or_else(|_| Err("exited mid-step".into()));
                    let out = match result {
                        Ok(out) => out,
                        Err(message) => {
                            // The fit fails: leave no half-merged gradient behind.
                            params.iter().for_each(Var::zero_grad);
                            return Err(TrainError::Replica {
                                replica: slot + 1,
                                message,
                            });
                        }
                    };
                    *epoch_loss += weight * out.loss;
                    for (p, g) in params.iter().zip(out.grads) {
                        if let Some(g) = g {
                            p.seed_grad(g);
                        }
                    }
                }
                Ok(())
            };
            // Returning drops every job sender; the workers drain and the
            // scope joins them — on the error and panic paths too, so a
            // failed epoch never leaks threads or deadlocks.
            run_epochs(config, model, workers.len() + 1, source, validate, on_improve, &mut step)
        })
    })
}

/// The epoch driver — the only place an epoch is driven.
fn run_epochs<M, P>(
    config: &TrainConfig,
    model: &M,
    width: usize,
    source: &mut dyn StepSource<P>,
    validate: &mut dyn FnMut() -> f32,
    mut on_improve: Option<&mut dyn FnMut(usize, f32)>,
    step: &mut StepFn<P>,
) -> Result<TrainReport, TrainError>
where
    M: Module + ?Sized,
{
    let mut optimizer = Adam::new(model.parameters(), config.learning_rate);
    let mut report = TrainReport {
        train_losses: Vec::new(),
        val_metrics: Vec::new(),
        epochs_run: 0,
        epoch_seconds: Vec::new(),
        samples_per_sec: Vec::new(),
        stop_reason: StopReason::MaxEpochs,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool_high_water_bytes: 0,
    };
    let mut best = f32::INFINITY;
    let mut best_state: Option<Vec<Tensor>> = None;
    let mut stale = 0usize;
    for epoch in 0..config.epochs {
        model.set_training(true);
        let start = Instant::now();
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        let mut samples = 0usize;
        {
            let _epoch_t = geotorch_telemetry::scope!("core.trainer.epoch");
            source.begin_epoch(epoch)?;
            while let Some(shards) = source.next_step(width)? {
                let n_total: usize = shards.iter().map(|(_, n)| *n).sum();
                if n_total == 0 {
                    continue;
                }
                step(shards, n_total, &mut epoch_loss)?;
                batches += 1;
                samples += n_total;
                if config.update_mode == UpdateMode::Incremental {
                    clip_and_step(config, &mut optimizer);
                }
            }
            if config.update_mode == UpdateMode::Cumulative && batches > 0 {
                // The parameters hold a gradient *sum* over all batches;
                // average it so the single step matches the magnitude of
                // an Incremental step instead of scaling with the number
                // of batches in the epoch.
                scale_grads(optimizer.parameters(), 1.0 / batches as f32);
                clip_and_step(config, &mut optimizer);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        report.epoch_seconds.push(secs);
        report
            .samples_per_sec
            .push(if secs > 0.0 { samples as f64 / secs } else { 0.0 });
        report
            .train_losses
            .push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
        report.epochs_run = epoch + 1;
        geotorch_telemetry::count!("core.trainer.epochs", 1);
        geotorch_telemetry::count!("core.trainer.samples", samples);

        let val = validate();
        report.val_metrics.push(val);
        if val + 1e-6 < best {
            best = val;
            best_state = Some(model.state_dict());
            stale = 0;
            // The canonical model holds the post-step weights here — the
            // hook point for atomic checkpoints.
            if let Some(hook) = on_improve.as_deref_mut() {
                hook(epoch + 1, val);
            }
        } else if val.is_finite() {
            stale += 1;
            if let Some(patience) = config.early_stopping_patience {
                if stale >= patience {
                    report.stop_reason = StopReason::EarlyStopped {
                        epoch: epoch + 1,
                        patience,
                    };
                    break;
                }
            }
        }
        // A non-finite metric (no validation samples) is no evidence
        // either way: it neither improves nor counts as stale.
    }
    // Restore the best-on-validation weights (the paper's protocol
    // evaluates the converged model, not the last epoch).
    if let Some(state) = best_state {
        model
            .load_state_dict(&state)
            .expect("state dict snapshot of the same model always matches");
    }
    report.pool_high_water_bytes = geotorch_tensor::pool::stats().high_water_bytes;
    Ok(report)
}

/// Clip (if configured), step, and clear gradients.
fn clip_and_step(config: &TrainConfig, optimizer: &mut Adam) {
    if let Some(max_norm) = config.gradient_clip {
        geotorch_nn::schedule::clip_grad_norm(optimizer.parameters(), max_norm);
    }
    optimizer.step();
    optimizer.zero_grad();
}

/// Forward `payload` through `model` and run `backward` seeded with
/// `weight`, so the shard's gradients accumulate on `model`'s parameters
/// pre-scaled by `n_r/N`. Returns the unweighted loss.
fn run_shard<M, P>(model: &M, loss_fn: &LossFn<M, P>, payload: &P, weight: f32) -> f32
where
    M: Module + ?Sized,
{
    let loss = loss_fn(model, payload);
    let value = loss.value();
    loss.backward_with(Tensor::full(value.shape(), weight));
    // `loss` drops here, before the driver steps: graph nodes hold clones
    // of the parameter values, and while those are alive the optimizer's
    // in-place update has to copy-on-write every parameter buffer.
    value.item()
}

// ------------------------------------------------------ replica workers

/// One dispatched shard of work.
struct Job<P> {
    state: Vec<Tensor>,
    payload: P,
    weight: f32,
}

/// What a replica returns per job.
struct StepOut {
    loss: f32,
    grads: Vec<Option<Tensor>>,
}

/// A replica worker: build the private model once, then serve jobs until
/// the caller hangs up. Exactly one result is sent per job — panics in
/// the factory or the loss surface as `Err` results, never a hang.
fn replica_worker<M, P>(
    replica: usize,
    device: Device,
    factory: &Factory<M>,
    loss_fn: &LossFn<M, P>,
    jobs: &mpsc::Receiver<Job<P>>,
    results: &mpsc::Sender<Result<StepOut, String>>,
) where
    M: Module + ?Sized,
    P: Send,
{
    let model = std::panic::catch_unwind(AssertUnwindSafe(|| factory(replica)))
        .map_err(|panic| format!("replica factory panicked: {}", panic_message(&panic)));
    for job in jobs.iter() {
        let outcome = match &model {
            Err(message) => Err(message.clone()),
            Ok(model) => std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_job(&**model, loss_fn, device, &job)
            }))
            .unwrap_or_else(|panic| {
                Err(format!("replica step panicked: {}", panic_message(&panic)))
            }),
        };
        if results.send(outcome).is_err() {
            break;
        }
    }
}

fn run_job<M, P>(
    model: &M,
    loss_fn: &LossFn<M, P>,
    device: Device,
    job: &Job<P>,
) -> Result<StepOut, String>
where
    M: Module + ?Sized,
    P: Send,
{
    with_device(device, || {
        model
            .load_state_dict(&job.state)
            .map_err(|e| format!("broadcast state rejected: {e}"))?;
        model.set_training(true);
        let params = model.parameters();
        let loss = run_shard(model, loss_fn, &job.payload, job.weight);
        let grads: Vec<Option<Tensor>> = params.iter().map(Var::grad).collect();
        for p in &params {
            p.zero_grad();
        }
        Ok(StepOut { loss, grads })
    })
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}
