//! `serve_predict`: `Server::start` with `ServeConfig::default()` except
//! one responder per core, one SatCNN (3×32×32 → 10) loaded from a
//! checkpoint, and a closed loop of one keep-alive HTTP client per core —
//! callers that each wait for their reply, as scoring jobs and tile
//! clients do — each sending JSON `/predict` requests drawn from a seeded
//! pool of 64 distinct images.
//!
//! Why: many small requests — the epoll front, HTTP parsing, JSON decode
//! and encode, and batcher admission and queueing dominate; the forward
//! is small. A kernel change moves it little, an HTTP-path change a lot.

use std::path::Path;
use std::time::Instant;

use super::{
    fnv, matmul_gflops, max_abs_diff, repeat_for, start_server, Layers, Measured, Size, Workload,
};
use crate::http::Client;
use crate::seam::{
    checkpoint, no_grad, nproc, random_tensor, satcnn, tensor_from_json, tensor_to_json,
    ModelClient, Module, RasterClassifier, Registry, Server, Tensor, Var, CLASSIFIER,
};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

const POOL: usize = 64;
const WARM_UP_REQUESTS: usize = 10;

pub struct ServePredict {
    // Declared before the server so that connections close first.
    clients: Vec<Client>,
    embedded: ModelClient,
    server: Server,
    images: Vec<Tensor>,
    bodies: Vec<String>,
    checkpoint: std::path::PathBuf,
    seed: u64,
    per_round: usize,
    path: String,
    /// Request fully written → first response byte, every request.
    wait_ms: Vec<f64>,
    shed: u64,
    non_200: u64,
    first_reply_checked: bool,
    a_reply: String,
}

struct Answer {
    image: usize,
    status: Option<u16>,
    total_ms: f64,
    wait_ms: f64,
    body: String,
}

/// Which pooled image request `k` of `client` in `round` sends.
fn pick(seed: u64, round: u64, client: usize, k: usize) -> usize {
    let mut x = seed ^ (round << 32) ^ ((client as u64) << 16) ^ k as u64;
    // splitmix64 finaliser: consecutive counters land far apart.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % POOL as u64) as usize
}

impl ServePredict {
    /// One closed-loop round: every client sends its requests back to back.
    fn round(&mut self, round: u64, tracer: &'static Tracer) -> Vec<Vec<Answer>> {
        let parent = tracer.current();
        let (seed, per_round, path, bodies) = (self.seed, self.per_round, &self.path, &self.bodies);
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        (0..per_round)
                            .map(|k| {
                                let image = pick(seed, round, c, k);
                                let _span = tracer.span_under("serve.http_request", round, parent);
                                match client.post(path, &bodies[image]) {
                                    Ok(reply) => Answer {
                                        image,
                                        status: Some(reply.status),
                                        total_ms: reply.total.as_secs_f64() * 1e3,
                                        wait_ms: reply.wait.as_secs_f64() * 1e3,
                                        body: reply.body,
                                    },
                                    Err(e) => Answer {
                                        image,
                                        status: None,
                                        total_ms: 0.0,
                                        wait_ms: 0.0,
                                        body: e.to_string(),
                                    },
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .collect()
        })
    }
}

impl Workload for ServePredict {
    const NAME: &'static str = "serve_predict";

    fn setup(seed: u64, size: Size, dir: &Path, tracer: &'static Tracer) -> ServePredict {
        let images: Vec<Tensor> = (0..POOL)
            .map(|i| random_tensor(&[3, 32, 32], seed.wrapping_mul(POOL as u64) + i as u64))
            .collect();
        let bodies: Vec<String> = images.iter().map(tensor_to_json).collect();
        let checkpoint_path = dir.join("satcnn.json");
        checkpoint::save_named(&satcnn(seed), CLASSIFIER, &checkpoint_path)
            .expect("save the served checkpoint");
        let mut registry = Registry::new();
        // Built from another seed: the answers are right only if the
        // checkpoint was loaded.
        registry.register_classifier(CLASSIFIER, Some(checkpoint_path.clone()), move || {
            satcnn(seed ^ 1)
        });
        let server = start_server(registry, tracer, 0);
        let path = format!("/predict/{CLASSIFIER}");
        let mut clients: Vec<Client> = (0..nproc())
            .map(|_| Client::connect(server.addr()).expect("connect a client"))
            .collect();
        for client in &mut clients {
            for body in bodies.iter().cycle().take(WARM_UP_REQUESTS) {
                let reply = client.post(&path, body).expect("warm-up request");
                assert_eq!(reply.status, 200, "warm-up request refused: {}", reply.body);
            }
        }
        ServePredict {
            clients,
            embedded: server.client(CLASSIFIER).expect("the registered model"),
            server,
            images,
            bodies,
            checkpoint: checkpoint_path,
            seed,
            per_round: size.pick(100, 4),
            path,
            wait_ms: Vec::new(),
            shed: 0,
            non_200: 0,
            first_reply_checked: false,
            a_reply: String::new(),
        }
    }

    fn measure(&mut self, seconds: f64, tracer: &'static Tracer) -> Measured {
        let mut m = Measured::default();
        let addr = self.server.addr();
        repeat_for(seconds, |round| {
            let started = Instant::now();
            let answers = tracer.time("wait.load_round", round, || self.round(round, tracer));
            let wall = started.elapsed().as_secs_f64();
            let mut answered = 0u64;
            for (c, answers) in answers.iter().enumerate() {
                for (k, answer) in answers.iter().enumerate() {
                    m.attempted += 1;
                    match answer.status {
                        Some(200) => {
                            answered += 1;
                            m.op_ms.push(answer.total_ms);
                            self.wait_ms.push(answer.wait_ms);
                        }
                        Some(status) => {
                            self.non_200 += 1;
                            self.shed += u64::from(status == 429);
                            m.fail(1, format!("round {round}: HTTP {status}: {}", answer.body));
                        }
                        None => {
                            m.fail(
                                1,
                                format!("round {round}: request dropped: {}", answer.body),
                            );
                            self.clients[c] = Client::connect(addr).expect("reconnect a client");
                        }
                    }
                    // Each client's first reply against the batcher's own answer.
                    if !self.first_reply_checked && k == 0 && answer.status == Some(200) {
                        let direct = self.embedded.predict(self.images[answer.image].clone());
                        let same = match (tensor_from_json(&answer.body), &direct) {
                            (Some(http), Ok(direct)) => {
                                max_abs_diff(http.as_slice(), direct.as_slice()) <= 1e-5
                            }
                            _ => false,
                        };
                        if !same {
                            m.fail(
                                1,
                                format!(
                                    "client {c}: first reply differs from ModelClient::predict: {}",
                                    answer.body
                                ),
                            );
                        }
                        self.a_reply = answer.body.clone();
                    }
                }
            }
            self.first_reply_checked = true;
            m.end_pass(answered as f64, wall);
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
        // The same inputs at the same concurrency, without HTTP or JSON:
        // what is left is admission, queueing, gathering and the forward.
        let mut embedded_ms = Vec::new();
        let (seed, per_round, embedded, images) =
            (self.seed, self.per_round, &self.embedded, &self.images);
        repeat_for(seconds * 0.5, |round| {
            let _round = tracer.span("wait.embedded_round", round);
            let parent = tracer.current();
            let latencies: Vec<Vec<f64>> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..nproc())
                    .map(|c| {
                        scope.spawn(move || {
                            (0..per_round)
                                .map(|k| {
                                    let input = images[pick(seed, round, c, k)].clone();
                                    let _span =
                                        tracer.span_under("serve.embedded_predict", round, parent);
                                    let started = Instant::now();
                                    embedded.predict(input).expect("embedded predict");
                                    started.elapsed().as_secs_f64() * 1e3
                                })
                                .collect()
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("embedded client thread"))
                    .collect()
            });
            embedded_ms.extend(latencies.into_iter().flatten());
        });

        // The forward alone, on a model loaded from the same checkpoint.
        let model = satcnn(self.seed ^ 1);
        let started = Instant::now();
        tracer.time("probe.checkpoint_load", 0, || {
            checkpoint::load_named(&model, CLASSIFIER, &self.checkpoint)
                .expect("load the served checkpoint")
        });
        layers.insert("core.checkpoint_load_s", started.elapsed().as_secs_f64());
        model.set_training(false);
        let forward_ms = |name: &'static str, batch: usize| {
            let refs: Vec<&Tensor> = self.images[..batch].iter().collect();
            let input = Var::constant(Tensor::stack(&refs));
            let samples: Vec<f64> = (0..20)
                .map(|i| {
                    let started = Instant::now();
                    std::hint::black_box(
                        tracer.time(name, i, || no_grad(|| model.forward(&input, None))),
                    );
                    started.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&samples)
        };
        let (forward_b1, forward_b8) = (
            forward_ms("probe.forward_b1", 1),
            forward_ms("probe.forward_b8", 8),
        );

        // The load generator's own JSON cost, so it is not charged to the server.
        let time_ms = |f: &dyn Fn()| {
            median(
                &(0..20)
                    .map(|_| {
                        let t = Instant::now();
                        f();
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let serialize_ms = time_ms(&|| {
            std::hint::black_box(tensor_to_json(&self.images[0]));
        });
        let parse_ms = time_ms(&|| {
            std::hint::black_box(tensor_from_json(&self.a_reply));
        });

        let http_ms = measured.all_ops();
        let http_p50 = median(&http_ms);
        let embedded_p50 = median(&embedded_ms);
        layers.insert("serve.client_serialize_ms", serialize_ms);
        layers.insert("serve.client_parse_ms", parse_ms);
        layers.insert("serve.http_wait_ms", median(&self.wait_ms));
        layers.insert("serve.http_p99_ms", percentile(&http_ms, 99.0));
        layers.insert("serve.embedded_p50_ms", embedded_p50);
        layers.insert("serve.http_overhead_ms", http_p50 - embedded_p50);
        layers.insert("serve.batch_wait_ms", embedded_p50 - forward_b1);
        layers.insert("models.forward_b1_ms", forward_b1);
        layers.insert("models.forward_b8_ms", forward_b8);
        layers.insert("serve.shed_count", self.shed as f64);
        layers.insert("serve.http_non200", self.non_200 as f64);
        layers.insert("tensor.matmul_gflops", matmul_gflops(tracer));
        Vec::new()
    }

    fn digest(&self) -> u64 {
        fnv(self.a_reply.bytes().map(u32::from))
    }
}
