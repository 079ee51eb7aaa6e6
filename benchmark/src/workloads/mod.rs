//! The six workloads and what they share.
//!
//! A workload is set up from a seed, measured for a number of seconds
//! as repeated passes of fixed work, and verified. A traced run also
//! replays monolithic calls through the step-level public calls, so
//! that each layer gets its own line.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::trace::Tracer;

pub mod pipeline;
pub mod prep_trips;
pub mod serve_predict;
pub mod serve_tiles;
pub mod train_grid;
pub mod train_stream;

/// Input sizes: the calibrated ones, or the tiny ones of `check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Check,
}

impl Size {
    /// `full` at the calibrated sizes, `check` in smoke mode.
    pub fn pick<T>(self, full: T, check: T) -> T {
        match self {
            Size::Full => full,
            Size::Check => check,
        }
    }
}

/// One pass of a workload's fixed work.
#[derive(Debug)]
pub struct Pass {
    /// Units of work done.
    pub work: f64,
    pub wall_s: f64,
    /// Wall time of each operation of the pass as its caller saw it.
    pub op_ms: Vec<f64>,
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations started; an operation is what `op_ms` times.
    pub attempted: u64,
    /// Operations refused, answered wrongly, or part of a pass whose
    /// check failed.
    pub failed: u64,
    pub passes: Vec<Pass>,
    /// Operation times of the pass in progress, until `end_pass`.
    pub op_ms: Vec<f64>,
    /// Why operations failed, one line each.
    pub errors: Vec<String>,
}

impl Measured {
    /// Record a failed check: `ops` operations of this pass are failed.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.errors.len() < 16 {
            self.errors.push(why);
        }
    }

    /// Close the pass in progress: it did `work` units in `wall_s` seconds
    /// and owns the operation times recorded since the last pass.
    pub fn end_pass(&mut self, work: f64, wall_s: f64) {
        let op_ms = std::mem::take(&mut self.op_ms);
        self.passes.push(Pass {
            work,
            wall_s,
            op_ms,
        });
    }

    /// One value per pass.
    pub fn per_pass(&self, f: impl Fn(&Pass) -> f64) -> Vec<f64> {
        self.passes.iter().map(f).collect()
    }

    /// Every operation time of every pass.
    pub fn all_ops(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.op_ms.iter().copied())
            .collect()
    }
}

impl Pass {
    /// Units of work per second.
    pub fn rate(&self) -> f64 {
        self.work / self.wall_s.max(1e-9)
    }
}

/// Per-layer values a workload sets itself; span-derived ones are added
/// by the driver.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Set-ups per untraced run, of which `setup_s` is the median. A
    /// constant, so that the memory high-water mark read afterwards is
    /// that of fixed work; more where a set-up takes well under 100 ms
    /// and five of them are too few to time it steadily.
    const SETUP_REPEATS: usize = 5;

    /// Everything before the measured phase: inputs from the seed,
    /// spills, models, servers, warm-up. `dir` is private to this call.
    fn setup(seed: u64, size: Size, dir: &Path, tracer: &'static Tracer) -> Self;

    /// Repeat passes of the workload's fixed work until `seconds` have
    /// gone by; always at least one pass.
    fn measure(&mut self, seconds: f64, tracer: &'static Tracer) -> Measured;

    /// Traced runs only: run the same work through the step-level
    /// public calls and set the derived per-layer values. Each line
    /// returned is a failed check.
    fn replay(
        &mut self,
        seconds: f64,
        tracer: &'static Tracer,
        measured: &Measured,
        layers: &mut Layers,
    ) -> Vec<String>;

    /// Checks made once per run, after the measured phase, by workloads
    /// that have some beyond their per-pass checks. Each line returned is
    /// a failed check.
    fn verify(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// A hash of the outputs that must repeat exactly for one seed; `run`
    /// compares it between the repeats of a seed.
    fn digest(&self) -> u64;
}

/// FNV-1a over 32-bit words.
pub fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    words
        .into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Run `pass` until `seconds` have gone by, at least once.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut(u64)) {
    let started = Instant::now();
    let mut index = 0;
    loop {
        pass(index);
        index += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// `2·n³` floating-point operations of an `n×n` by `n×n` product per
/// second, in GFLOP/s: the best of a few runs, as kernel rates are
/// bounded above by the hardware and only disturbed downwards.
pub fn matmul_gflops(tracer: &'static Tracer) -> f64 {
    use crate::seam::random_tensor;
    const N: usize = 512;
    let (a, b) = (random_tensor(&[N, N], 1), random_tensor(&[N, N], 2));
    let mut best = f64::INFINITY;
    for i in 0..4 {
        let started = Instant::now();
        let c = tracer.time("probe.matmul", i, || a.matmul(&b));
        best = best.min(started.elapsed().as_secs_f64());
        std::hint::black_box(c);
    }
    2.0 * (N * N * N) as f64 / best / 1e9
}

/// Computed operations per second of a stride-1, pad-1 3×3 convolution
/// of `[b, c, h, w]` to `o` channels, in GFLOP/s; best of a few runs.
pub fn conv3x3_gflops(
    tracer: &'static Tracer,
    b: usize,
    c: usize,
    o: usize,
    h: usize,
    w: usize,
) -> f64 {
    use crate::seam::{conv2d, random_tensor};
    let input = random_tensor(&[b, c, h, w], 3);
    let weight = random_tensor(&[o, c, 3, 3], 4);
    let mut best = f64::INFINITY;
    for i in 0..4 {
        let started = Instant::now();
        let out = tracer.time("probe.conv3x3", i, || conv2d(&input, &weight, None, 1, 1));
        best = best.min(started.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    2.0 * (b * o * h * w * c * 9) as f64 / best / 1e9
}

/// Largest distance in units in the last place between two f32 slices.
pub fn max_ulp(a: &[f32], b: &[f32]) -> u32 {
    fn key(x: f32) -> i32 {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            i32::MIN - bits
        } else {
            bits
        }
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| key(x).abs_diff(key(y)))
        .max()
        .unwrap_or(0)
}

/// Largest absolute difference between two f32 slices of one length.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// `Server::start` on an ephemeral local port, timed until `/healthz`
/// first answers 200.
pub fn start_server(
    registry: crate::seam::Registry,
    tracer: &'static Tracer,
    op: u64,
) -> crate::seam::Server {
    let _span = tracer.span("serve.start", op);
    let server = crate::seam::Server::start("127.0.0.1:0", registry, crate::seam::serve_config())
        .expect("server starts on an ephemeral port");
    let mut probe =
        crate::http::Client::connect(server.addr()).expect("connect to the started server");
    let health = probe.get("/healthz").expect("healthz answers");
    assert_eq!(
        health.status, 200,
        "a freshly started server is healthy: {}",
        health.body
    );
    server
}
