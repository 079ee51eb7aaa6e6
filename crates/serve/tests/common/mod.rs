//! A latch model for deterministic batching tests: every forward reports
//! its batch size and then blocks until the test releases it, so a test
//! decides what is queued while a forward runs instead of racing a timer.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use geotorch_nn::{Module, Var};
use geotorch_serve::{BatchConfig, ModelWorker, ServeModel};
use geotorch_tensor::Tensor;

/// Scales its input by one learnable weight (so hot-swaps are visible in
/// the output), gated by the test through a [`Latch`].
struct Latched {
    weight: Var,
    entered: mpsc::Sender<usize>,
    release: Arc<Mutex<mpsc::Receiver<()>>>,
}

impl Module for Latched {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone()]
    }
}

impl ServeModel for Latched {
    fn predict(&self, batch: &Var) -> Var {
        self.entered.send(batch.shape()[0]).ok();
        // A dropped `Latch` releases every later forward at once, so
        // shutdown never hangs on a forgotten release.
        self.release.lock().unwrap().recv().ok();
        batch.mul_scalar(self.weight.value().as_slice()[0])
    }
}

/// The test's end of the latch.
pub struct Latch {
    entered: mpsc::Receiver<usize>,
    release: mpsc::Sender<()>,
}

impl Latch {
    /// Block until the next forward has started; returns its batch size.
    pub fn entered(&self) -> usize {
        self.entered
            .recv_timeout(Duration::from_secs(10))
            .expect("a forward must start")
    }

    /// Let the forward that is (or next will be) blocked finish.
    pub fn release(&self) {
        self.release.send(()).expect("the latched model is alive");
    }
}

/// A single-replica worker around the latch model (weight 2.0).
pub fn latched_worker(name: &str, config: BatchConfig) -> (ModelWorker, Latch) {
    assert_eq!(config.replicas, 1, "one latch gates one replica");
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let worker = ModelWorker::spawn(name, config, move || {
        Ok(Box::new(Latched {
            weight: Var::parameter(Tensor::from_vec(vec![2.0], &[1])),
            entered: entered_tx.clone(),
            release: Arc::clone(&release_rx),
        }) as Box<dyn ServeModel>)
    })
    .expect("latched worker starts");
    let latch = Latch {
        entered: entered_rx,
        release: release_tx,
    };
    (worker, latch)
}

/// Spin until `n` requests are routed to the replica and unanswered
/// (queued, mid-`send`, or in the running forward) — the count the
/// batcher's flush rule reads, so what the test staged is what the next
/// gather sees.
pub fn wait_for_routed(worker: &ModelWorker, n: usize) {
    let client = worker.client();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.replica_depths() != [n] {
        assert!(
            std::time::Instant::now() < deadline,
            "replica depth stuck at {:?} waiting for {n}",
            client.replica_depths()
        );
        std::thread::yield_now();
    }
}
