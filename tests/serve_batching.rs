//! Tier-1 smoke for the serving batcher, through the `geotorchai::serve`
//! facade: a lone caller pays one forward (no batch window), and under
//! concurrency every request gets exactly one, correct response. The
//! full suites live in `crates/serve/tests`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use geotorchai::nn::{Module, Var};
use geotorchai::serve::{BatchConfig, ModelWorker, ServeModel};
use geotorchai::tensor::Tensor;

/// Doubles its input after a fixed sleep, logging each forward's batch
/// size.
struct SleepyDoubler {
    forward: Duration,
    batches: Arc<Mutex<Vec<usize>>>,
}

impl Module for SleepyDoubler {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for SleepyDoubler {
    fn predict(&self, batch: &Var) -> Var {
        std::thread::sleep(self.forward);
        self.batches.lock().unwrap().push(batch.shape()[0]);
        batch.mul_scalar(2.0)
    }
}

fn worker(forward: Duration, replicas: usize) -> (ModelWorker, Arc<Mutex<Vec<usize>>>) {
    let batches = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&batches);
    let config = BatchConfig {
        max_batch: 4,
        replicas,
        ..BatchConfig::default()
    };
    let worker = ModelWorker::spawn("doubler", config, move || {
        Ok(Box::new(SleepyDoubler {
            forward,
            batches: Arc::clone(&log),
        }) as Box<dyn ServeModel>)
    })
    .expect("worker starts");
    (worker, batches)
}

#[test]
fn lone_caller_pays_one_forward_and_no_window() {
    const FORWARD: Duration = Duration::from_millis(4);
    let (worker, batches) = worker(FORWARD, 1);
    let client = worker.client();
    // Best of ten: interference only ever adds time, while a batch
    // window would add its length to every single call.
    let best = (0..10)
        .map(|i| {
            let started = Instant::now();
            let out = client
                .predict(Tensor::from_vec(vec![i as f32], &[1]))
                .expect("prediction succeeds");
            assert_eq!(out.as_slice(), &[2.0 * i as f32]);
            started.elapsed()
        })
        .min()
        .unwrap();
    worker.shutdown();
    assert!(
        best < FORWARD + Duration::from_millis(1),
        "a lone request took {best:?} against a {FORWARD:?} forward"
    );
    assert_eq!(*batches.lock().unwrap(), vec![1; 10], "one forward per lone request");
}

#[test]
fn concurrent_callers_get_exactly_one_correct_response_each() {
    const CALLERS: usize = 4;
    const REQUESTS: usize = 50;
    let (worker, batches) = worker(Duration::from_micros(200), 2);
    std::thread::scope(|scope| {
        for c in 0..CALLERS {
            let client = worker.client();
            scope.spawn(move || {
                for seq in 0..REQUESTS {
                    let value = (c * 1000 + seq) as f32;
                    let out = client
                        .predict(Tensor::from_vec(vec![value; 3], &[3]))
                        .expect("prediction succeeds");
                    assert_eq!(out.as_slice(), &[2.0 * value; 3], "caller {c} request {seq}");
                }
            });
        }
    });
    worker.shutdown();
    let batches = batches.lock().unwrap();
    assert_eq!(batches.iter().sum::<usize>(), CALLERS * REQUESTS, "each request ran once");
    assert!(batches.iter().all(|&b| (1..=4).contains(&b)), "max_batch respected: {batches:?}");
}
