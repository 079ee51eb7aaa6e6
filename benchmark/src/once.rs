//! One run of one workload in this process: what the driver invokes and
//! what `run` spawns once per repeat.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::seam::pool;
use crate::spec::PER_LAYER;
use crate::stats::{highest, lowest, median, percentile};
use crate::trace::{self, Tracer};
use crate::workloads::pipeline::Pipeline;
use crate::workloads::prep_trips::PrepTrips;
use crate::workloads::serve_predict::ServePredict;
use crate::workloads::serve_tiles::ServeTiles;
use crate::workloads::train_grid::TrainGrid;
use crate::workloads::train_stream::TrainStream;
use crate::workloads::{Layers, Measured, Size, Workload};

/// Where traces and each run's scratch files go, under the directory
/// the benchmark is started in.
const OUT_DIR: &str = "benchmark/out";

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` of every end-to-end metric, or of every per-layer
    /// metric when traced.
    pub metrics: Vec<(&'static str, f64)>,
    pub errors: Vec<String>,
}

/// A directory of this process's own, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        Scratch(dir)
    }

    fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    match config.workload.as_str() {
        PrepTrips::NAME => Ok(run_workload::<PrepTrips>(config)),
        TrainGrid::NAME => Ok(run_workload::<TrainGrid>(config)),
        TrainStream::NAME => Ok(run_workload::<TrainStream>(config)),
        ServePredict::NAME => Ok(run_workload::<ServePredict>(config)),
        ServeTiles::NAME => Ok(run_workload::<ServeTiles>(config)),
        Pipeline::NAME => Ok(run_workload::<Pipeline>(config)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn run_workload<W: Workload>(config: &Config) -> Outcome {
    let scratch = Scratch::new();
    if config.trace {
        traced::<W>(config, &scratch)
    } else {
        untraced::<W>(config, &scratch)
    }
}

/// Fold a measured phase and the end-of-run checks into counts: each
/// failed check is one more operation attempted and failed.
fn counts(measured: &[&Measured], checks: Vec<String>) -> (u64, u64, Vec<String>) {
    let attempted: u64 = measured.iter().map(|m| m.attempted).sum();
    let failed: u64 = measured.iter().map(|m| m.failed).sum();
    let mut errors: Vec<String> = measured
        .iter()
        .flat_map(|m| m.errors.iter().cloned())
        .collect();
    let extra = checks.len() as u64;
    errors.extend(checks);
    (attempted + extra, failed + extra, errors)
}

fn untraced<W: Workload>(config: &Config, scratch: &Scratch) -> Outcome {
    let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new(false)));
    let mut setup_s = Vec::new();
    let mut state = None;
    for i in 0..W::SETUP_REPEATS {
        // The previous set-up's servers and files go before the next starts.
        drop(state.take());
        let started = Instant::now();
        state = Some(W::setup(
            config.seed,
            config.size,
            &scratch.sub(&format!("setup-{i}")),
            tracer,
        ));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    // One pass of fixed work warms caches and pools; memory is read after
    // it, so that it does not depend on how many passes the time allows.
    let warm_up = state.measure(0.0, tracer);
    let peak_rss_mb = peak_rss_mb();
    let measured = state.measure(config.seconds, tracer);
    let checks = state.verify();
    eprintln!("digest: {:016x}", state.digest());
    drop(state);
    let (attempted, failed, errors) = counts(&[&warm_up, &measured], checks);
    let values = [
        ("work_per_s", best_rate(&measured)),
        (
            "op_p50_ms",
            lowest(&measured.per_pass(|p| median(&p.op_ms))),
        ),
        (
            "op_p95_ms",
            lowest(&measured.per_pass(|p| percentile(&p.op_ms, 95.0))),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", median(&setup_s)),
    ];
    Outcome {
        attempted,
        failed,
        metrics: values.to_vec(),
        errors,
    }
}

/// A run reports the best value any of its passes reached: on a shared
/// host interference only ever adds time, so the best pass is the one
/// that says most about the code and least about the neighbours.
fn best_rate(measured: &Measured) -> f64 {
    highest(&measured.per_pass(|p| p.rate()))
}

/// The layer a span belongs to, unless it is the benchmark's own loop,
/// a wait for spanned worker threads, a monolith the replay explains, or
/// a probe off the workload's path (a kernel rate, a forward alone).
fn layer_of(span: &str) -> Option<&str> {
    let layer = span.split('.').next().unwrap_or(span);
    (!matches!(layer, "harness" | "wait" | "mono" | "probe")).then_some(layer)
}

fn traced<W: Workload>(config: &Config, scratch: &Scratch) -> Outcome {
    let off: &'static Tracer = Box::leak(Box::new(Tracer::new(false)));
    let on: &'static Tracer = Box::leak(Box::new(Tracer::new(true)));
    let mut state = on.time("harness.setup", 0, || {
        W::setup(config.seed, config.size, &scratch.sub("setup"), on)
    });
    let pool_before = pool::stats();

    // An untraced stretch first: the reference the traced stretch's rate
    // is compared with.
    let reference = state.measure(config.seconds * 0.25, off);
    let window_from = on.now_ns();
    let window = Instant::now();
    let measured = state.measure(config.seconds * 0.45, on);
    let mut layers = Layers::new();
    let mut checks = state.replay(config.seconds * 0.3, on, &measured, &mut layers);
    let window_s = window.elapsed().as_secs_f64();
    checks.extend(state.verify());
    eprintln!("digest: {:016x}", state.digest());
    drop(state);
    let pool_after = pool::stats();

    let spans = on.snapshot();
    // Mean self seconds per call, for every `<span>_s` metric.
    for (name, total) in trace::totals(&spans, 0) {
        if let Some(metric) = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix("_s") == Some(name))
        {
            layers.insert(metric.name, total.self_s / total.count as f64);
        }
    }
    // Within the traced window: each layer's share of the attributed self
    // time, and the share of the wall the main thread spent attributed.
    let in_window = trace::totals(&spans, window_from);
    let attributed: f64 = in_window
        .iter()
        .filter(|(name, _)| layer_of(name).is_some())
        .map(|(_, t)| t.self_s)
        .sum();
    for metric in PER_LAYER.iter().filter(|m| m.name.starts_with("share.")) {
        let layer = &metric.name["share.".len()..];
        let own: f64 = in_window
            .iter()
            .filter(|(name, _)| layer_of(name) == Some(layer))
            .map(|(_, t)| t.self_s)
            .sum();
        layers.insert(
            metric.name,
            if attributed > 0.0 {
                own / attributed
            } else {
                0.0
            },
        );
    }
    let main = trace::this_thread();
    let covered: u64 = spans
        .iter()
        .zip(trace::self_ns(&spans))
        .filter(|(s, _)| {
            s.thread == main && s.start_ns >= window_from && !s.name.starts_with("harness.")
        })
        .map(|(_, own)| own)
        .sum();
    layers.insert("trace.coverage_share", covered as f64 / 1e9 / window_s);
    layers.insert(
        "trace.overhead_share",
        best_rate(&reference) / best_rate(&measured) - 1.0,
    );
    layers.insert(
        "tensor.pool_miss",
        (pool_after.misses - pool_before.misses) as f64,
    );
    layers.insert(
        "tensor.pool_high_water_mb",
        pool_after.high_water_bytes as f64 / 1e6,
    );
    layers.insert("run.op_count", measured.all_ops().len() as f64);

    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", W::NAME));
    if let Err(e) = std::fs::write(&path, trace::to_json(W::NAME, &spans, on.dropped())) {
        checks.push(format!("write {}: {e}", path.display()));
    }
    let (attempted, failed, errors) = counts(&[&reference, &measured], checks);
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
        errors,
    }
}
