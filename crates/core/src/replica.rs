//! The one epoch driver and its two step executors — the trainer layer
//! of the `DataSource → Loader → Trainer` seam (DESIGN.md §14).
//!
//! # Architecture
//!
//! [`fit`] owns everything the paper's protocol fixes (§III-A2 update
//! cadence, §V-C early stopping on validation): the optimizer, update
//! cadence, cumulative `1/batches` scaling, report bookkeeping, early
//! stopping, best-state restore. The only thing that varies is *who runs
//! one step's forward and backward*:
//!
//! - **in-thread** (`config.replicas <= 1`, or an entry point with no
//!   replica factory): `loss_fn(model, &payload).backward()` on the
//!   canonical model. No factory call, no thread, no state broadcast, no
//!   gradient shipping.
//! - **workers** (`config.replicas = K > 1` and a factory): K replica
//!   threads each own a private model instance (the autograd tape is
//!   `Rc`-based and cannot cross threads, so models are built *on* their
//!   threads by a `Sync` factory — the same pattern as the serving
//!   batcher's model-owner threads). One step is:
//!
//!   1. master broadcasts its state dict (O(1) `Arc` clones per tensor)
//!      and deals each replica `r` a shard of `n_r` samples with weight
//!      `w_r = n_r / N`;
//!   2. replica `r` forwards its shard, runs `backward` seeded with
//!      `w_r` (so its gradients arrive pre-scaled), and ships the
//!      gradients back;
//!   3. master sums the shard gradients **in replica order** and seeds
//!      them onto the canonical parameters.
//!
//! Either way the driver then takes one pooled in-place Adam step. With
//! one worker `w = n/n = 1.0` exactly and the merge is a single-term
//! sum, so the two executors walk the same trajectory bit for bit (unit
//! test below, down to checkpoint bytes); `tests/replica_grad_prop.rs`
//! extends that to K ∈ {2, 3, 4} on lattice inputs.
//!
//! # Shard-assignment determinism
//!
//! Shards are contiguous slices of the shuffled batch (index path) or
//! consecutive stream batches (stream path), dealt to replicas in slot
//! order. No work stealing: the assignment is a pure function of
//! `(seed, epoch, step, K)`, so reruns are reproducible.
//!
//! Non-trainable parameters (batch-norm running statistics) produce no
//! gradients; the master adopts their post-forward values from the
//! lowest-numbered replica that ran. In-thread they update in place.

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

/// Shards each shuffled batch of sample indices contiguously across
/// replica slots and turns each index shard into its payload on the
/// master, so replica workers never touch the (non-`Sync`) dataset.
pub(crate) struct IndexStepSource<'a, F> {
    train_idx: &'a [usize],
    batch_size: usize,
    seed: u64,
    batch_of: F,
    iter: Option<BatchIndices>,
}

impl<'a, F> IndexStepSource<'a, F> {
    /// Steps over `train_idx` with `config`'s batch size and seed;
    /// `batch_of` materializes one index shard.
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

    fn next_step(&mut self, width: usize) -> Result<Option<Vec<(P, usize)>>, TrainError> {
        let Some(batch) = self.iter.as_mut().and_then(Iterator::next) else {
            self.iter = None;
            return Ok(None);
        };
        // Contiguous balanced split: the first `rem` shards get one
        // extra sample. Deterministic in (batch, K); empty shards are
        // never dealt (a ragged batch smaller than K uses fewer
        // replicas).
        let k = width.min(batch.len()).max(1);
        let base = batch.len() / k;
        let rem = batch.len() % k;
        let mut shards = Vec::with_capacity(k);
        let mut start = 0;
        for r in 0..k {
            let len = base + usize::from(r < rem);
            shards.push(((self.batch_of)(&batch[start..start + len]), len));
            start += len;
        }
        Ok(Some(shards))
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

/// A step executor: runs forward and backward over one step's shards
/// (`n_total` samples in all), leaves the step's gradient on the
/// canonical parameters, and adds the sample-weighted shard losses to
/// the epoch's running loss in slot order.
type StepFn<'a, P> = dyn FnMut(Vec<(P, usize)>, usize, &mut f32) -> Result<(), TrainError> + 'a;

/// Train `model` under `config.device`: the single entry every `fit_*`
/// goes through. Steps run in-thread on `model` itself unless there is
/// both a `factory` to build replicas from and `config.replicas > 1`;
/// see the module docs.
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
    with_device(config.device, || match factory {
        Some(factory) if config.replicas > 1 => fit_on_workers(
            config,
            model,
            factory,
            loss_fn,
            source,
            validate,
            on_improve,
        ),
        _ => run_epochs(
            config,
            model,
            1,
            source,
            validate,
            on_improve,
            &mut |mut shards, _n_total, epoch_loss| {
                let (payload, _) = shards.pop().expect("a width-1 source deals one shard");
                let loss = loss_fn(model, &payload);
                *epoch_loss += loss.value().item();
                loss.backward();
                // `loss` drops here, before the driver steps: graph nodes
                // hold clones of the parameter values, and while those are
                // alive the optimizer's in-place update has to
                // copy-on-write every parameter buffer.
                Ok(())
            },
        ),
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

// ------------------------------------------------------ worker executor

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
    state: Vec<Tensor>,
}

struct RepResult {
    replica: usize,
    outcome: Result<StepOut, String>,
}

/// Drive the epochs with `config.replicas` (at least one) replica worker
/// threads executing the steps.
fn fit_on_workers<M, P>(
    config: &TrainConfig,
    model: &M,
    factory: &Factory<M>,
    loss_fn: &LossFn<M, P>,
    source: &mut dyn StepSource<P>,
    validate: &mut dyn FnMut() -> f32,
    on_improve: Option<&mut dyn FnMut(usize, f32)>,
) -> Result<TrainReport, TrainError>
where
    M: Module + ?Sized,
    P: Send,
{
    let k = config.replicas.max(1);
    let params = model.parameters();
    std::thread::scope(|scope| {
        let (res_tx, res_rx) = mpsc::channel::<RepResult>();
        let mut job_txs = Vec::with_capacity(k);
        for r in 0..k {
            let (tx, rx) = mpsc::channel::<Job<P>>();
            job_txs.push(tx);
            let res_tx = res_tx.clone();
            let device = config.device;
            scope.spawn(move || replica_worker(r, device, factory, loss_fn, &rx, &res_tx));
        }
        drop(res_tx);
        let mut step = |shards: Vec<(P, usize)>, n_total: usize, epoch_loss: &mut f32| {
            let state = model.state_dict();
            let mut dealt: Vec<(usize, f32)> = Vec::with_capacity(shards.len());
            for (slot, (payload, n)) in shards.into_iter().enumerate() {
                let weight = n as f32 / n_total as f32;
                job_txs[slot]
                    .send(Job {
                        state: state.clone(),
                        payload,
                        weight,
                    })
                    .map_err(|_| TrainError::Replica {
                        replica: slot,
                        message: "replica worker exited before dispatch".into(),
                    })?;
                dealt.push((slot, weight));
            }
            let mut outs: Vec<Option<StepOut>> = (0..k).map(|_| None).collect();
            for _ in 0..dealt.len() {
                let res = res_rx.recv().map_err(|_| TrainError::Replica {
                    replica: 0,
                    message: "all replica workers exited mid-step".into(),
                })?;
                match res.outcome {
                    Ok(out) => outs[res.replica] = Some(out),
                    Err(message) => {
                        return Err(TrainError::Replica {
                            replica: res.replica,
                            message,
                        })
                    }
                }
            }
            // Weighted step loss: Σ (n_r/N)·loss_r is the N-sample mean
            // for mean-style losses.
            for (slot, weight) in &dealt {
                *epoch_loss += weight * outs[*slot].as_ref().expect("recorded").loss;
            }
            merge_step(&params, &outs, &dealt);
            Ok(())
        };
        // Returning drops every job sender; replica workers drain and
        // the scope joins them — on the error path too, so a failed
        // epoch never leaks threads or deadlocks.
        run_epochs(config, model, k, source, validate, on_improve, &mut step)
    })
}

/// Merge one step's replica results into the canonical parameters:
/// gradients summed in replica order (they arrive pre-scaled by
/// `n_r/N`), gradient-less parameters (running statistics) adopted from
/// the lowest dispatched replica.
fn merge_step(params: &[Var], outs: &[Option<StepOut>], dealt: &[(usize, f32)]) {
    let first = dealt[0].0;
    for (i, p) in params.iter().enumerate() {
        let mut total: Option<Tensor> = None;
        for (slot, _) in dealt {
            let out = outs[*slot].as_ref().expect("recorded");
            if let Some(g) = &out.grads[i] {
                match &mut total {
                    None => total = Some(g.clone()),
                    Some(t) => t.add_(g),
                }
            }
        }
        match total {
            Some(t) => p.seed_grad(t),
            None => p.assign(outs[first].as_ref().expect("recorded").state[i].clone()),
        }
    }
}

/// A replica worker: build the private model once, then serve jobs until
/// the master hangs up. Exactly one result is sent per job — panics in
/// the factory or the loss surface as `Err` results, never a hang.
fn replica_worker<M, P>(
    replica: usize,
    device: Device,
    factory: &Factory<M>,
    loss_fn: &LossFn<M, P>,
    jobs: &mpsc::Receiver<Job<P>>,
    results: &mpsc::Sender<RepResult>,
) where
    M: Module + ?Sized,
    P: Send,
{
    let built = std::panic::catch_unwind(AssertUnwindSafe(|| factory(replica)));
    let model: Option<Box<M>> = match built {
        Ok(m) => Some(m),
        Err(panic) => {
            let _ = results.send(RepResult {
                replica,
                outcome: Err(format!(
                    "replica factory panicked: {}",
                    panic_message(&panic)
                )),
            });
            None
        }
    };
    for job in jobs.iter() {
        let outcome = match &model {
            None => Err("replica model was never built".to_string()),
            Some(model) => {
                std::panic::catch_unwind(AssertUnwindSafe(|| run_job(&**model, loss_fn, device, &job)))
                    .unwrap_or_else(|panic| {
                        Err(format!("replica step panicked: {}", panic_message(&panic)))
                    })
            }
        };
        if results.send(RepResult { replica, outcome }).is_err() {
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
        let loss = loss_fn(model, &job.payload);
        let value = loss.value();
        let item = value.item();
        // Seeding backward with w_r scales every gradient by n_r/N at
        // the source, so the master's merge is a plain sum. With one
        // worker w = 1.0, the seed `loss.backward()` uses.
        let seed = Tensor::from_vec(vec![job.weight; value.len()], value.shape());
        loss.backward_with(seed);
        drop(loss);
        let grads: Vec<Option<Tensor>> = params.iter().map(Var::grad).collect();
        for p in &params {
            p.zero_grad();
        }
        Ok(StepOut {
            loss: item,
            grads,
            state: model.state_dict(),
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{grid_loss, Trainer};
    use crate::{checkpoint, UpdateMode};
    use geotorch_datasets::{chronological_split, StGridDataset};
    use geotorch_models::grid::PeriodicalCnn;
    use geotorch_models::GridModel;
    use rand::SeedableRng;

    fn cnn() -> PeriodicalCnn {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        PeriodicalCnn::new(2, (2, 1, 1), 8, &mut rng)
    }

    /// One grid fit on the chosen executor: the report and the final
    /// weights as `checkpoint::save` writes them.
    fn run(name: &str, config: &TrainConfig, one_worker: bool) -> (TrainReport, Vec<u8>) {
        let mut ds = StGridDataset::bike_nyc_deepstn(10, 3);
        ds.set_periodical_representation(2, 1, 1);
        let (train, val, _) = chronological_split(ds.len());
        let concrete = cnn();
        let model: &dyn GridModel = &concrete;
        let factory = |_replica: usize| -> Box<dyn GridModel> { Box::new(cnn()) };
        let trainer = Trainer::new(config.clone());
        let mut source = IndexStepSource::new(&train, config, |idx: &[usize]| ds.batch(idx));
        let mut validate = || trainer.evaluate_grid(model, &ds, &val).0;
        let report = if one_worker {
            with_device(config.device, || {
                fit_on_workers(
                    config,
                    model,
                    &factory,
                    &grid_loss,
                    &mut source,
                    &mut validate,
                    None,
                )
            })
        } else {
            fit(
                config,
                model,
                None,
                &grid_loss,
                &mut source,
                &mut validate,
                None,
            )
        }
        .expect("fit succeeds");
        let path = std::env::temp_dir().join(format!(
            "geotorch_executor_parity_{}_{name}_{one_worker}.json",
            std::process::id()
        ));
        checkpoint::save(&concrete, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        (report, bytes)
    }

    /// The worker executor with one worker and the in-thread executor
    /// must walk the same trajectory: exact f32 equality of every epoch
    /// figure and byte-identical checkpoints. Any reordering of float
    /// ops on either side shows up here.
    #[test]
    fn one_worker_bit_identical_to_in_thread() {
        let base = TrainConfig {
            epochs: 3,
            batch_size: 8,
            learning_rate: 3e-3,
            early_stopping_patience: None,
            ..TrainConfig::default()
        };
        let cases = [
            ("incremental", base.clone()),
            (
                "cumulative",
                TrainConfig {
                    epochs: 2,
                    update_mode: UpdateMode::Cumulative,
                    ..base.clone()
                },
            ),
            (
                // A learning rate too small to move the metric: stops
                // after `patience` stale epochs, restoring epoch 1.
                "early_stopped",
                TrainConfig {
                    epochs: 6,
                    learning_rate: 1e-12,
                    early_stopping_patience: Some(2),
                    ..base
                },
            ),
        ];
        for (name, config) in &cases {
            let (in_thread, in_thread_bytes) = run(name, config, false);
            let (worker, worker_bytes) = run(name, config, true);
            assert_eq!(in_thread.train_losses, worker.train_losses, "{name}");
            assert_eq!(in_thread.val_metrics, worker.val_metrics, "{name}");
            assert_eq!(in_thread.epochs_run, worker.epochs_run, "{name}");
            assert_eq!(in_thread.stop_reason, worker.stop_reason, "{name}");
            assert_eq!(in_thread_bytes, worker_bytes, "{name}: checkpoints differ");
            if *name == "early_stopped" {
                assert_eq!(
                    in_thread.stop_reason,
                    StopReason::EarlyStopped {
                        epoch: 3,
                        patience: 2
                    }
                );
            }
        }
    }
}
