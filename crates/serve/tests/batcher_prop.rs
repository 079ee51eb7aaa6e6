//! Property tests for the micro-batching scheduler's core invariants,
//! over random arrival patterns (per-caller stagger, per-request jitter),
//! batch sizes, replica counts, and ragged shapes:
//!
//! 1. every submitted request gets exactly one response;
//! 2. each response equals the sequential no-grad forward of its own
//!    sample (the doubler makes that an exact, closed-form check);
//! 3. blocking per-connection submission preserves per-connection order;
//! 4. no forward ever exceeds `max_batch` rows, and the rows add up to
//!    the number of requests.

use std::sync::{Arc, Barrier, Mutex};

use geotorch_nn::{Module, Var};
use geotorch_serve::{BatchConfig, ModelWorker, ServeModel};
use geotorch_tensor::Tensor;
use proptest::prelude::*;

/// Doubles every element and logs each forward's batch size.
struct Doubler {
    batches: Arc<Mutex<Vec<usize>>>,
}

impl Module for Doubler {
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

impl ServeModel for Doubler {
    fn predict(&self, batch: &Var) -> Var {
        self.batches.lock().unwrap().push(batch.shape()[0]);
        batch.mul_scalar(2.0)
    }
}

const SHAPES: [&[usize]; 4] = [&[3], &[2, 2], &[5], &[1, 2, 2]];

/// A request: which ragged shape it uses and a value to fill it with
/// (derived from client and sequence number, so every request is
/// distinguishable in its response).
fn sample_for(client: usize, seq: usize, shape_idx: u8) -> Tensor {
    let shape = SHAPES[shape_idx as usize % SHAPES.len()];
    let value = (client * 100 + seq) as f32 + 1.0;
    let len: usize = shape.iter().product();
    Tensor::from_vec(vec![value; len], shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_request_gets_exactly_one_correct_response_in_order(
        max_batch in 1usize..6,
        clients in 1usize..5,
        per_client in 1usize..5,
        replicas in 1usize..=4,
        shape_sel in prop::collection::vec(0u8..4, 16..=16),
        jitter in prop::collection::vec(0u64..3, 16..=16),
        // Per-caller start offset in µs: with no batch window, *when*
        // callers arrive relative to a running forward is what decides
        // batch composition.
        stagger_us in prop::collection::vec(0u64..2_000, 4..=4),
    ) {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let batches_clone = Arc::clone(&batches);
        // Every replica builds its own Doubler, but they all log into
        // the same batch journal — so the partition invariant (4) is
        // checked across the whole replica set.
        let worker = ModelWorker::spawn(
            "doubler",
            BatchConfig {
                max_batch,
                queue_bound: 256,
                replicas,
            },
            move || Ok(Box::new(Doubler { batches: Arc::clone(&batches_clone) }) as Box<dyn ServeModel>),
        )
        .expect("worker starts");
        prop_assert_eq!(worker.replicas(), replicas);

        let barrier = Arc::new(Barrier::new(clients));
        let per_client_results: Vec<Vec<(Tensor, Tensor)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let client = worker.client();
                    let barrier = Arc::clone(&barrier);
                    let shape_sel = shape_sel.clone();
                    let jitter = jitter.clone();
                    let stagger = std::time::Duration::from_micros(stagger_us[c]);
                    scope.spawn(move || {
                        barrier.wait();
                        std::thread::sleep(stagger);
                        // Blocking submission: response i must come back
                        // before request i+1 goes out — per-connection
                        // order is part of the client contract.
                        (0..per_client)
                            .map(|seq| {
                                let idx = (c * per_client + seq) % 16;
                                std::thread::sleep(
                                    std::time::Duration::from_millis(jitter[idx]),
                                );
                                let sample = sample_for(c, seq, shape_sel[idx]);
                                let out = client
                                    .predict(sample.clone())
                                    .expect("prediction succeeds");
                                (sample, out)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        worker.shutdown();

        // (1) exactly one response per request.
        let total: usize = per_client_results.iter().map(Vec::len).sum();
        prop_assert_eq!(total, clients * per_client);

        // (2) + (3): responses equal the sequential no-grad forward of
        // their own sample, in submission order per connection.
        for (c, results) in per_client_results.iter().enumerate() {
            for (seq, (sample, out)) in results.iter().enumerate() {
                let expected_value = 2.0 * ((c * 100 + seq) as f32 + 1.0);
                prop_assert_eq!(out.shape(), sample.shape());
                for &got in out.as_slice() {
                    prop_assert_eq!(got, expected_value, "client {} seq {}", c, seq);
                }
            }
        }

        // (4) forwards partition the requests without oversized batches.
        let batches = batches.lock().unwrap();
        prop_assert_eq!(batches.iter().sum::<usize>(), clients * per_client);
        prop_assert!(batches.iter().all(|&b| b >= 1 && b <= max_batch),
            "batch sizes {:?} exceed max_batch {}", &*batches, max_batch);
    }
}
