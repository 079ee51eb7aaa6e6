//! Scheduler correctness: batched serving must be indistinguishable
//! from one-at-a-time no-grad forwards, regardless of how requests
//! interleave or how ragged their shapes are.

mod common;

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use geotorch_models::raster::Fcn;
use geotorch_models::Segmenter;
use geotorch_nn::{no_grad, Module, Var};
use geotorch_serve::{BatchConfig, ModelWorker, SegmenterServe, ServeModel};
use geotorch_tensor::Tensor;
use rand::SeedableRng;

use common::{latched_worker, wait_for_routed};

/// One replica: the scheduler under test is one replica's gather, and
/// one latch gates one replica.
fn cpu_config(max_batch: usize) -> BatchConfig {
    BatchConfig {
        max_batch,
        replicas: 1,
        ..BatchConfig::default()
    }
}

fn fcn() -> Fcn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    Fcn::new(2, 1, 4, &mut rng)
}

/// Sample-shaped inputs with *ragged* spatial extents (all divisible by
/// 8 for the FCN), deterministic per index.
fn ragged_samples(n: usize) -> Vec<Tensor> {
    let sizes = [(16, 16), (24, 16), (16, 24), (32, 32)];
    (0..n)
        .map(|i| {
            let (h, w) = sizes[i % sizes.len()];
            let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + i as u64);
            Tensor::rand_uniform(&[2, h, w], -1.0, 1.0, &mut rng)
        })
        .collect()
}

#[test]
fn concurrent_ragged_requests_match_sequential_no_grad_forwards() {
    const K: usize = 12;
    let samples = ragged_samples(K);

    // Reference: the same model (same seed), eval mode, one no-grad
    // forward per sample with an explicit batch axis of 1.
    let reference_model = fcn();
    reference_model.set_training(false);
    let expected: Vec<Tensor> = samples
        .iter()
        .map(|s| {
            let mut shape = vec![1];
            shape.extend_from_slice(s.shape());
            let x = Var::constant(s.reshape(&shape));
            no_grad(|| reference_model.forward(&x).value().index_axis(0, 0))
        })
        .collect();

    let worker = ModelWorker::spawn("fcn", cpu_config(8), || {
        Ok(Box::new(SegmenterServe(fcn())) as Box<dyn ServeModel>)
    })
    .expect("worker starts");

    // Fire all K requests at once so the scheduler actually has to
    // batch and shape-partition them.
    let barrier = Arc::new(Barrier::new(K));
    let results: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .iter()
            .map(|sample| {
                let client = worker.client();
                let barrier = Arc::clone(&barrier);
                let sample = sample.clone();
                scope.spawn(move || {
                    barrier.wait();
                    client.predict(sample).expect("prediction succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        assert_eq!(got.shape(), want.shape(), "request {i} shape");
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "request {i}: batched output must be byte-identical to a sequential forward"
        );
    }
    worker.shutdown();
}

/// A trivial model that logs every forward's batch size, for observing
/// the scheduler's grouping decisions.
struct Doubler {
    log: Arc<Mutex<Vec<usize>>>,
}

impl Module for Doubler {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for Doubler {
    fn predict(&self, batch: &Var) -> Var {
        self.log
            .lock()
            .unwrap()
            .push(batch.shape()[0]);
        batch.mul_scalar(2.0)
    }
}

fn sample(v: f32) -> Tensor {
    Tensor::from_vec(vec![v], &[1])
}

#[test]
fn lone_request_flushes_at_once() {
    // max_batch far larger than the traffic: nothing but the flush rule
    // (replica depth == batch length) can start the forward.
    let (worker, latch) = latched_worker("lone", cpu_config(64));
    let client = worker.client();
    // Submit → forward start, best of a few rounds: interference only
    // ever adds time, and a batch window of any length would add it to
    // every round.
    let mut best = Duration::MAX;
    for i in 0..10 {
        let started = Instant::now();
        let caller = std::thread::spawn({
            let client = client.clone();
            move || client.predict(sample(i as f32))
        });
        assert_eq!(latch.entered(), 1, "a lone request runs alone");
        best = best.min(started.elapsed());
        latch.release();
        let out = caller.join().unwrap().expect("prediction succeeds");
        assert_eq!(out.as_slice(), &[2.0 * i as f32]);
    }
    assert!(
        best < Duration::from_millis(1),
        "a lone request must reach its forward without waiting for company, took {best:?}"
    );
    worker.shutdown();
}

#[test]
fn arrivals_during_a_forward_ride_the_next_batch() {
    const K: usize = 8;
    let (worker, latch) = latched_worker("ride", cpu_config(K));
    std::thread::scope(|scope| {
        let caller = |i: usize| {
            let client = worker.client();
            scope.spawn(move || {
                let out = client.predict(sample(i as f32)).expect("prediction succeeds");
                assert_eq!(out.as_slice(), &[2.0 * i as f32], "scatter order");
            })
        };
        caller(0);
        assert_eq!(latch.entered(), 1, "the first arrival does not wait for the rest");
        // K−1 more arrive while forward 1 is held: its run time is
        // their accumulation window.
        for i in 1..K {
            caller(i);
        }
        wait_for_routed(&worker, K);
        latch.release();
        assert_eq!(latch.entered(), K - 1, "everything queued shares forward 2");
        latch.release();
    });
    worker.shutdown();
}

#[test]
fn max_batch_caps_what_a_gather_takes() {
    let (worker, latch) = latched_worker("cap", cpu_config(4));
    std::thread::scope(|scope| {
        let caller = || {
            let client = worker.client();
            scope.spawn(move || client.predict(sample(1.0)).expect("prediction succeeds"));
        };
        caller();
        assert_eq!(latch.entered(), 1);
        (0..6).for_each(|_| caller());
        wait_for_routed(&worker, 7);
        latch.release();
        assert_eq!(latch.entered(), 4, "six queued, four slots");
        latch.release();
        assert_eq!(latch.entered(), 2, "the remainder, without waiting for more");
        latch.release();
    });
    worker.shutdown();
}

#[test]
fn swap_lands_strictly_between_two_batches() {
    let (worker, latch) = latched_worker("swap", cpu_config(4));
    let client = worker.client();
    std::thread::scope(|scope| {
        let caller = || {
            let client = client.clone();
            scope.spawn(move || {
                let (out, version) = client.predict_versioned(sample(1.0), None).expect("served");
                (out.as_slice()[0], version.to_string())
            })
        };
        let a = caller();
        assert_eq!(latch.entered(), 1);
        // Queue order behind the running forward: B, the swap nudge, C.
        let b = caller();
        wait_for_routed(&worker, 2);
        client
            .install_weights("v1", vec![Tensor::from_vec(vec![3.0], &[1])])
            .expect("staged");
        let c = caller();
        wait_for_routed(&worker, 3);
        latch.release();
        assert_eq!(
            a.join().unwrap(),
            (2.0, "v0".to_string()),
            "a batch that started on the old weights finishes on them"
        );
        assert_eq!(latch.entered(), 2, "a nudge mid-queue neither splits nor stalls the gather");
        latch.release();
        for reply in [b, c] {
            assert_eq!(reply.join().unwrap(), (3.0, "v1".to_string()));
        }
    });
    worker.shutdown();
}

#[test]
fn max_batch_one_serves_every_request_alone() {
    const K: usize = 5;
    let log = Arc::new(Mutex::new(Vec::new()));
    let log_clone = Arc::clone(&log);
    let worker = ModelWorker::spawn("doubler", cpu_config(1), move || {
        Ok(Box::new(Doubler { log: Arc::clone(&log_clone) }) as Box<dyn ServeModel>)
    })
    .expect("worker starts");
    std::thread::scope(|scope| {
        for i in 0..K {
            let client = worker.client();
            scope.spawn(move || {
                client
                    .predict(Tensor::from_vec(vec![i as f32], &[1]))
                    .unwrap();
            });
        }
    });
    worker.shutdown();
    let batches = log.lock().unwrap().clone();
    assert_eq!(batches, vec![1; K], "max_batch=1 disables stacking");
}

#[test]
fn init_failure_propagates_out_of_spawn() {
    let result = ModelWorker::spawn("broken", cpu_config(4), || {
        Err(geotorch_serve::ServeError::ModelLoad("bad checkpoint".into()))
    });
    match result {
        Err(geotorch_serve::ServeError::ModelLoad(_)) => {}
        Err(other) => panic!("expected ModelLoad, got {other}"),
        Ok(_) => panic!("init error must surface"),
    }
}

#[test]
fn forward_panic_becomes_an_error_and_worker_survives() {
    struct Panicker;
    impl Module for Panicker {
        fn parameters(&self) -> Vec<Var> {
            Vec::new()
        }
    }
    impl ServeModel for Panicker {
        fn predict(&self, batch: &Var) -> Var {
            if batch.shape().contains(&13) {
                panic!("unlucky shape");
            }
            batch.mul_scalar(1.0)
        }
    }
    let worker = ModelWorker::spawn("panicker", cpu_config(1), || {
        Ok(Box::new(Panicker) as Box<dyn ServeModel>)
    })
    .expect("worker starts");
    let client = worker.client();
    let err = client
        .predict(Tensor::zeros(&[13]))
        .expect_err("panic must become an error");
    assert!(matches!(err, geotorch_serve::ServeError::Internal(_)));
    // The worker thread must still be alive to serve the next request.
    let ok = client.predict(Tensor::from_vec(vec![5.0], &[1])).unwrap();
    assert_eq!(ok.as_slice(), &[5.0]);
    worker.shutdown();
}
