//! `train_grid`: `Trainer::fit_grid` of DeepSTN+ (16 filters, periodical
//! 3/4/1) on `StGridDataset::bike_nyc_deepstn`, batch 16, one worker.
//!
//! Why: the compute-bound single-worker baseline — `tensor` conv/GEMM,
//! the `nn` tape and the optimizer dominate; the loader is in memory and
//! negligible. A preprocessing or serving change must not move it.

use std::path::Path;
use std::time::Instant;

use super::{conv3x3_gflops, fnv, matmul_gflops, repeat_for, Layers, Measured, Size, Workload};
use crate::seam::{
    chronological_split, deepstn, grid_io, mse_loss, train_config, Adam, GridModel, Module,
    Optimizer, StGridDataset, Trainer, LENS,
};
use crate::stats::{mean, median};
use crate::trace::Tracer;

pub const BATCH: usize = 16;
pub const LEARNING_RATE: f32 = 5e-3;

pub struct TrainGrid {
    dataset: StGridDataset,
    train: Vec<usize>,
    val: Vec<usize>,
    epochs: usize,
    seed: u64,
    /// Per-epoch losses of the first fit; every later fit of the same
    /// seed must reproduce them bit for bit.
    losses: Option<Vec<f32>>,
}

/// What a fit must have done, whatever it trained: every epoch ran over
/// every sample, the losses are finite and fell, and they repeat.
pub fn check_report(
    report: &crate::seam::TrainReport,
    epochs: usize,
    samples: usize,
    first: &mut Option<Vec<f32>>,
) -> Result<(), String> {
    let seen: f64 = report
        .samples_per_sec
        .iter()
        .zip(&report.epoch_seconds)
        .map(|(r, s)| (r * s).round())
        .sum();
    if report.epochs_run != epochs || seen as usize != samples * epochs {
        return Err(format!(
            "{} epochs saw {seen} samples, expected {epochs} × {samples}",
            report.epochs_run
        ));
    }
    let losses = &report.train_losses;
    if losses.iter().any(|l| !l.is_finite()) {
        return Err(format!("non-finite loss in {losses:?}"));
    }
    if epochs > 1 && losses[epochs - 1] >= losses[0] {
        return Err(format!("loss did not fall: {losses:?}"));
    }
    let first = first.get_or_insert_with(|| losses.clone());
    if first
        .iter()
        .map(|l| l.to_bits())
        .ne(losses.iter().map(|l| l.to_bits()))
    {
        return Err(format!(
            "losses {losses:?} differ from the first fit's {first:?}"
        ));
    }
    Ok(())
}

impl Workload for TrainGrid {
    const NAME: &'static str = "train_grid";
    const SETUP_REPEATS: usize = 15;

    fn setup(seed: u64, size: Size, _dir: &Path, _tracer: &'static Tracer) -> TrainGrid {
        let mut dataset = StGridDataset::bike_nyc_deepstn(size.pick(21, 9), seed);
        dataset.set_periodical_representation(LENS.0, LENS.1, LENS.2);
        let (train, val, _) = chronological_split(dataset.len());
        // Warm-up: one step fills the tensor pool's size classes.
        let (_, c, h, w) = dataset.dims();
        Trainer::new(train_config(1, BATCH, LEARNING_RATE, seed, 1)).fit_grid(
            &deepstn(c, h, w, seed),
            &dataset,
            &train[..BATCH.min(train.len())],
            &val[..1],
        );
        TrainGrid {
            train: train[..size.pick(48, 32).min(train.len())].to_vec(),
            val: val[..size.pick(16, 2).min(val.len())].to_vec(),
            dataset,
            epochs: size.pick(2, 3),
            seed,
            losses: None,
        }
    }

    fn measure(&mut self, seconds: f64, tracer: &'static Tracer) -> Measured {
        let mut m = Measured::default();
        let (_, c, h, w) = self.dataset.dims();
        let trainer = Trainer::new(train_config(
            self.epochs,
            BATCH,
            LEARNING_RATE,
            self.seed,
            1,
        ));
        repeat_for(seconds, |pass| {
            let model = deepstn(c, h, w, self.seed);
            let started = Instant::now();
            let report = tracer.time("mono.fit_grid", pass, || {
                trainer.fit_grid(&model, &self.dataset, &self.train, &self.val)
            });
            let wall = started.elapsed().as_secs_f64();
            m.attempted += self.epochs as u64;
            m.op_ms.extend(report.epoch_seconds.iter().map(|s| s * 1e3));
            m.end_pass((self.epochs * self.train.len()) as f64, wall);
            if let Err(why) = check_report(&report, self.epochs, self.train.len(), &mut self.losses)
            {
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
        // One fit step, taken apart: batch assembly, forward and loss,
        // backward, optimizer.
        let (_, c, h, w) = self.dataset.dims();
        let model = deepstn(c, h, w, self.seed);
        model.set_training(true);
        let mut optimizer = Adam::new(model.parameters(), LEARNING_RATE);
        let batches: Vec<&[usize]> = self.train.chunks(BATCH).collect();
        let mut step_s = Vec::new();
        repeat_for(seconds * 0.8, |step| {
            let started = Instant::now();
            let _step = tracer.span("harness.replay_step", step);
            let (input, target) = tracer.time("datasets.batch", step, || {
                grid_io(&self.dataset.batch(batches[step as usize % batches.len()]))
            });
            let loss = tracer.time("nn.forward", step, || {
                mse_loss(&model.forward(&input), &target)
            });
            tracer.time("nn.backward", step, || loss.backward());
            // As the trainer does: the tape holds clones of the parameter
            // values, so it goes before the in-place update.
            drop(loss);
            tracer.time("nn.optim", step, || {
                optimizer.step();
                optimizer.zero_grad();
            });
            step_s.push(started.elapsed().as_secs_f64());
        });
        let fit_step_s = median(&measured.all_ops()) / 1e3 / batches.len() as f64;
        // Base: the median `fit_grid` epoch divided by its steps.
        layers.insert(
            "core.fit_unattributed_share",
            1.0 - mean(&step_s) / fit_step_s,
        );
        layers.insert("tensor.matmul_gflops", matmul_gflops(tracer));
        layers.insert(
            "tensor.conv3x3_gflops",
            conv3x3_gflops(tracer, BATCH, 16, 16, h, w),
        );
        Vec::new()
    }

    fn digest(&self) -> u64 {
        fnv(self.losses.iter().flatten().map(|l| l.to_bits()))
    }
}
