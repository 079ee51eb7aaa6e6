//! The dynamic micro-batching scheduler, sharded across model replicas.
//!
//! Each served model is owned by `replicas` dedicated worker threads —
//! the autograd graph (`Rc`-based [`Var`]) is single-threaded by design,
//! so every replica builds and runs its own copy of the model entirely on
//! its own thread. The copies share their weight buffers: the registry
//! reads a model's state dict once and every replica loads it (tensor
//! storage is `Arc`-backed, and weights are immutable between
//! hot-swaps). Callers talk to the shard through a cloneable
//! [`ModelClient`]: `predict` routes a sample-shaped tensor to the
//! least-loaded live replica's queue and blocks on a one-shot reply.
//!
//! Each replica batches *continuously*, with no timer: the first request
//! opens a batch, everything already routed to this replica joins it
//! without sleeping, and the batch flushes once it holds `max_batch`
//! samples or equals the replica's own in-flight count (the model-global
//! count would include work routed to siblings). A lone caller pays one
//! forward, not a window; under load the previous forward is the window.
//! Same-shaped samples are stacked into one `[K, ...]` tensor and run
//! through a single no-grad forward on the configured device (conv and
//! matmul kernels split over the batch axis on `Device::Parallel`, which
//! is where micro-batching beats one-forward-per-request); the output rows
//! are scattered back to the callers. Ragged shapes are legal — a batch is
//! partitioned into per-shape groups, one forward each, so every caller
//! gets exactly what a sequential forward would have produced.
//!
//! # Robustness
//!
//! Three production concerns are enforced here rather than at the HTTP
//! edge, so they also protect embedded users of [`ModelClient`]:
//!
//! * **Bounded admission.** At most [`BatchConfig::queue_bound`]
//!   requests may be admitted-but-unanswered per model (summed across
//!   its replicas); the next one is shed with [`ServeError::Overloaded`]
//!   (HTTP 429) instead of growing the queues without limit. Crossing
//!   the high watermark (¾ of the bound) flips the model into a
//!   *pressured* state — reported by `/healthz` as `degraded` and by the
//!   `serve.backpressure` gauge — which clears only once the depth falls
//!   below the low watermark (¼), so health does not flap at the
//!   boundary.
//! * **Deadlines.** Every request can carry a deadline. Expired
//!   requests are answered with [`ServeError::DeadlineExceeded`] (HTTP
//!   504) at admission, when popped from the queue, and again right
//!   before the forward — an expired request never occupies a batch
//!   slot. The caller also stops waiting at its deadline, so no thread
//!   blocks forever on a wedged forward.
//! * **Graceful drain with a hard timeout.** Shutdown enqueues a FIFO
//!   sentinel per replica: every request admitted before it is still
//!   served, then the replica exits and is joined — but the join gives
//!   up after the drain timeout (counted as `serve.drain.timeout`) so a
//!   wedged model cannot block process exit.
//! * **Replica fail-over.** A replica whose thread dies (a panic escaped
//!   the per-batch isolation) is taken out of the routing set; the
//!   surviving replicas keep serving. `/healthz` reports the model as
//!   `dead` only once *every* replica is gone.
//!
//! Per-replica queue depths are exported as
//! `serve.replica_depth.<model>.<i>` gauges so an operator can see the
//! least-loaded routing do its job from `/metrics`.
//!
//! Fault points for chaos tests: `serve.batcher.forward` (before the
//! batched forward — a panic here kills the replica thread, which
//! `/healthz` must report) and `serve.batcher.model` (inside the
//! panic-isolated model call — a panic here fails one batch and the
//! replica survives).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use geotorch_nn::{no_grad, Var};
use geotorch_tensor::{with_device, Device, Tensor};
use geotorch_telemetry::Stat;

use crate::{ServeError, ServeModel};

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most samples stacked into one forward. `1` disables micro-batching
    /// (every request runs alone — the baseline the load generator
    /// compares against).
    pub max_batch: usize,
    /// Device the batched forward runs on.
    pub device: Device,
    /// Most admitted-but-unanswered requests per model, summed across
    /// its replicas. The next request past the bound is shed with
    /// [`ServeError::Overloaded`] instead of queueing without limit.
    pub queue_bound: usize,
    /// Replica worker threads per model. Each replica owns its own copy
    /// of the model (built by the registered constructor on the replica
    /// thread, sharing the weights the registry read) and its own batch
    /// queue; requests are routed to the least-loaded live replica. `1`
    /// (the default) reproduces the single-owner-thread behaviour
    /// exactly.
    pub replicas: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            device: Device::parallel(),
            queue_bound: 64,
            replicas: 1,
        }
    }
}

/// Process-wide queue depth across every live model worker, exported as
/// the `serve.queue_depth` gauge.
static GLOBAL_DEPTH: AtomicU64 = AtomicU64::new(0);
/// Number of workers currently past their high watermark, exported as
/// the `serve.backpressure` gauge.
static GLOBAL_PRESSURED: AtomicU64 = AtomicU64::new(0);

fn register_gauges() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        geotorch_telemetry::register_gauge("serve.queue_depth", || {
            GLOBAL_DEPTH.load(Ordering::Relaxed)
        });
        geotorch_telemetry::register_gauge("serve.backpressure", || {
            GLOBAL_PRESSURED.load(Ordering::Relaxed)
        });
    });
}

/// A full weight set staged for hot-swap, shared read-only across the
/// replica threads (tensor storage is `Arc`-backed, so the share is
/// O(parameter count), not O(bytes)).
struct SwapPayload {
    label: Arc<str>,
    state: Vec<Tensor>,
}

/// The hot-swap mailbox: [`ModelClient::install_weights`] stages a new
/// weight set here and bumps the generation; each replica notices the
/// bump *between batches*, loads the staged state dict into its own
/// model copy, and starts tagging replies with the new version label.
/// In-flight batches always complete on the weights they started with —
/// the swap happens on the replica thread, which is never mid-forward
/// when it checks.
struct SwapCell {
    gen: AtomicU64,
    staged: Mutex<Option<Arc<SwapPayload>>>,
}

impl SwapCell {
    fn new() -> SwapCell {
        SwapCell {
            gen: AtomicU64::new(0),
            staged: Mutex::new(None),
        }
    }
}

/// One replica's routing state: in-flight count and liveness.
pub(crate) struct ReplicaState {
    /// Requests routed to this replica and not yet answered.
    depth: AtomicUsize,
    alive: AtomicBool,
    died: AtomicBool,
}

impl ReplicaState {
    fn new() -> ReplicaState {
        ReplicaState {
            depth: AtomicUsize::new(0),
            alive: AtomicBool::new(true),
            died: AtomicBool::new(false),
        }
    }
}

/// Shared between a model's replicas, its clients, and `/healthz`:
/// model-global admission accounting plus per-replica liveness/load.
pub(crate) struct WorkerState {
    depth: AtomicUsize,
    bound: usize,
    pressured: AtomicBool,
    replicas: Vec<ReplicaState>,
    swap: SwapCell,
}

impl WorkerState {
    fn new(bound: usize, replicas: usize) -> WorkerState {
        register_gauges();
        WorkerState {
            depth: AtomicUsize::new(0),
            bound: bound.max(1),
            pressured: AtomicBool::new(false),
            replicas: (0..replicas.max(1)).map(|_| ReplicaState::new()).collect(),
            swap: SwapCell::new(),
        }
    }

    fn high_watermark(&self) -> usize {
        (self.bound * 3 / 4).max(1)
    }

    fn low_watermark(&self) -> usize {
        self.bound / 4
    }

    /// Whether any replica is still serving.
    fn is_alive(&self) -> bool {
        self.replicas.iter().any(|r| r.alive.load(Ordering::SeqCst))
    }

    /// Whether every replica is gone and at least one died abnormally.
    /// A partially dead shard keeps serving on the survivors; `/healthz`
    /// only reports `dead` once nothing is left to route to.
    fn has_died(&self) -> bool {
        !self.is_alive() && self.replicas.iter().any(|r| r.died.load(Ordering::SeqCst))
    }

    fn mark_stopped(&self, replica: usize, died: bool) {
        self.replicas[replica].alive.store(false, Ordering::SeqCst);
        if died {
            self.replicas[replica].died.store(true, Ordering::SeqCst);
        }
    }
}

/// Decrements the admission accounting when the request it rides on is
/// answered (or dropped), whichever thread that happens on.
struct AdmitGuard {
    state: Arc<WorkerState>,
}

impl AdmitGuard {
    fn admit(state: &Arc<WorkerState>) -> Result<AdmitGuard, ServeError> {
        let prev = state.depth.fetch_add(1, Ordering::SeqCst);
        if prev >= state.bound {
            state.depth.fetch_sub(1, Ordering::SeqCst);
            geotorch_telemetry::count!("serve.shed", 1);
            return Err(ServeError::Overloaded(format!(
                "queue is full ({} admitted, bound {})",
                prev, state.bound
            )));
        }
        GLOBAL_DEPTH.fetch_add(1, Ordering::Relaxed);
        if prev + 1 >= state.high_watermark()
            && state
                .pressured
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            GLOBAL_PRESSURED.fetch_add(1, Ordering::Relaxed);
        }
        Ok(AdmitGuard {
            state: Arc::clone(state),
        })
    }
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        let now = self.state.depth.fetch_sub(1, Ordering::SeqCst) - 1;
        GLOBAL_DEPTH.fetch_sub(1, Ordering::Relaxed);
        if now <= self.state.low_watermark()
            && self
                .state
                .pressured
                .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            GLOBAL_PRESSURED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Holds one replica's in-flight slot; picked least-loaded at submission
/// and released (on whichever thread answers) when the request is done.
struct ReplicaSlot {
    state: Arc<WorkerState>,
    idx: usize,
}

impl ReplicaSlot {
    /// Route to the live replica with the fewest in-flight requests
    /// (ties go to the lowest index). `None` when every replica is gone.
    fn take(state: &Arc<WorkerState>) -> Option<ReplicaSlot> {
        let idx = state
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive.load(Ordering::SeqCst))
            .min_by_key(|(_, r)| r.depth.load(Ordering::SeqCst))?
            .0;
        state.replicas[idx].depth.fetch_add(1, Ordering::SeqCst);
        Some(ReplicaSlot {
            state: Arc::clone(state),
            idx,
        })
    }
}

impl Drop for ReplicaSlot {
    fn drop(&mut self) {
        self.state.replicas[self.idx]
            .depth
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a successful prediction carries back: the output row plus the
/// label of the model version that produced it (so every response is
/// attributable to exactly one published checkpoint).
type Reply = Result<(Tensor, Arc<str>), ServeError>;

struct Request {
    input: Tensor,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Reply>,
    /// Held until the request is answered or dropped; releases the
    /// admission slot either way.
    _admit: AdmitGuard,
    /// Same lifecycle for the routed replica's in-flight count.
    _slot: ReplicaSlot,
}

/// Queue messages. `Shutdown` is an explicit sentinel (sent by
/// [`ModelWorker::shutdown`]/drop, one per replica) so a replica can
/// stop even while [`ModelClient`] clones — which keep the channel
/// connected — are still alive. Each queue is FIFO, so every request
/// enqueued before the sentinel is still served; requests sent after it
/// fail.
enum Msg {
    Predict(Request),
    /// Nudge: new weights were staged in the [`SwapCell`]. Wakes a
    /// parked replica so an idle model still swaps promptly; carries no
    /// data (the cell does).
    Swap,
    Shutdown,
}

/// One replica's owner thread plumbing.
struct ReplicaHandle {
    tx: Option<mpsc::Sender<Msg>>,
    join: Option<JoinHandle<()>>,
    done_rx: mpsc::Receiver<()>,
}

/// Handle to a model's replica shard. Dropping (or calling
/// [`ModelWorker::shutdown`]) stops every replica after its queue
/// drains.
pub struct ModelWorker {
    name: String,
    replicas: Vec<ReplicaHandle>,
    state: Arc<WorkerState>,
}

/// Cheap, cloneable submission handle for one served model. Routes each
/// request to the least-loaded live replica.
#[derive(Clone)]
pub struct ModelClient {
    name: String,
    txs: Vec<mpsc::Sender<Msg>>,
    state: Arc<WorkerState>,
}

impl ModelWorker {
    /// Spawn the replica threads for one model.
    ///
    /// `init` runs once *on each replica thread* (models are not `Send`,
    /// so every replica constructs its own copy); the first error — e.g.
    /// a state dict of the wrong architecture — is propagated back out of
    /// `spawn` and the already-started replicas are torn down, so a
    /// server never starts half-broken. Every replica is switched to eval
    /// mode before its first request.
    pub fn spawn<F>(name: &str, config: BatchConfig, init: F) -> Result<ModelWorker, ServeError>
    where
        F: Fn() -> Result<Box<dyn ServeModel>, ServeError> + Send + Sync + 'static,
    {
        ModelWorker::spawn_versioned(name, config, "v0", init)
    }

    /// Like [`ModelWorker::spawn`], with an explicit label for the
    /// weight set the replicas start serving (e.g. the manifest id of
    /// the checkpoint loaded at init). Replies are tagged with the
    /// label until a hot-swap installs a newer one.
    pub fn spawn_versioned<F>(
        name: &str,
        config: BatchConfig,
        initial_version: &str,
        init: F,
    ) -> Result<ModelWorker, ServeError>
    where
        F: Fn() -> Result<Box<dyn ServeModel>, ServeError> + Send + Sync + 'static,
    {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        let n = config.replicas.max(1);
        let initial_version: Arc<str> = Arc::from(initial_version);
        let state = Arc::new(WorkerState::new(config.queue_bound, n));
        let init: Arc<F> = Arc::new(init);
        let mut replicas = Vec::with_capacity(n);
        let mut readies = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = mpsc::channel::<Msg>();
            let (ready_tx, ready_rx) = mpsc::channel::<Result<(), ServeError>>();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let thread_state = Arc::clone(&state);
            let init = Arc::clone(&init);
            let stat_name = name.to_string();
            let version = Arc::clone(&initial_version);
            let join = std::thread::Builder::new()
                .name(format!("serve-{name}-r{i}"))
                .spawn(move || {
                    let model = match init() {
                        Ok(model) => model,
                        Err(e) => {
                            thread_state.mark_stopped(i, false);
                            ready_tx.send(Err(e)).ok();
                            return;
                        }
                    };
                    // Serving is inference: running statistics frozen,
                    // dropout off. Do it here, once, so no request can
                    // ever observe a train-mode forward.
                    model.set_training(false);
                    ready_tx.send(Ok(())).ok();
                    let model_stat = geotorch_telemetry::register_dynamic(format!(
                        "serve.model.{stat_name}"
                    ));
                    // A panic past this point (e.g. an injected fault
                    // outside the per-batch isolation) kills only this
                    // replica: routing skips it, and `/healthz` flips
                    // the model to dead once no replica is left.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        serve_loop(model.as_ref(), &rx, config, model_stat, &thread_state, i, version)
                    }));
                    thread_state.mark_stopped(i, outcome.is_err());
                    if outcome.is_err() {
                        geotorch_telemetry::count!("serve.worker.died", 1);
                    }
                    done_tx.send(()).ok();
                })
                .map_err(|e| ServeError::Internal(format!("spawn failed: {e}")))?;
            replicas.push(ReplicaHandle {
                tx: Some(tx),
                join: Some(join),
                done_rx,
            });
            readies.push(ready_rx);
        }
        let mut worker = ModelWorker {
            name: name.to_string(),
            replicas,
            state,
        };
        for ready_rx in &readies {
            let ready = ready_rx.recv().unwrap_or_else(|_| {
                Err(ServeError::Internal(
                    "model worker died during initialisation".to_string(),
                ))
            });
            if let Err(e) = ready {
                // Tear the healthy replicas down before reporting: drop
                // every queue (the replica loops exit on disconnect) and
                // join the threads.
                worker.stop(Duration::from_secs(30));
                return Err(e);
            }
        }
        for i in 0..n {
            let state = Arc::clone(&worker.state);
            geotorch_telemetry::register_gauge_dynamic(
                format!("serve.replica_depth.{name}.{i}"),
                move || state.replicas[i].depth.load(Ordering::Relaxed) as u64,
            );
        }
        Ok(worker)
    }

    /// The model name this worker serves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of replica threads serving this model.
    pub fn replicas(&self) -> usize {
        self.state.replicas.len()
    }

    /// A new submission handle.
    pub fn client(&self) -> ModelClient {
        ModelClient {
            name: self.name.clone(),
            txs: self
                .replicas
                .iter()
                .map(|r| r.tx.as_ref().expect("worker is running").clone())
                .collect(),
            state: Arc::clone(&self.state),
        }
    }

    /// Whether any replica is still serving. `false` after a clean
    /// shutdown *or* once every replica died — see
    /// [`ModelWorker::has_died`].
    pub fn is_alive(&self) -> bool {
        self.state.is_alive()
    }

    /// Whether the model is gone because of abnormal exits: no replica
    /// is serving and at least one died (a panic escaped the per-batch
    /// isolation).
    pub fn has_died(&self) -> bool {
        self.state.has_died()
    }

    /// Stop every replica: requests already enqueued are still served,
    /// then the replica threads exit and are joined. Requests submitted
    /// after this call fail, even through [`ModelClient`] clones that
    /// outlive the worker. Waits up to 30 s — use
    /// [`ModelWorker::shutdown_within`] to pick the hard timeout.
    pub fn shutdown(mut self) {
        self.stop(Duration::from_secs(30));
    }

    /// Like [`ModelWorker::shutdown`] with an explicit hard timeout
    /// shared across the replicas. Returns `false` when the drain timed
    /// out on any replica: its sentinel is still queued so it exits when
    /// it unwedges, but the thread is detached instead of joined (and
    /// `serve.drain.timeout` counts it).
    pub fn shutdown_within(mut self, timeout: Duration) -> bool {
        self.stop(timeout)
    }

    fn stop(&mut self, timeout: Duration) -> bool {
        for replica in &mut self.replicas {
            if let Some(tx) = replica.tx.take() {
                tx.send(Msg::Shutdown).ok();
            }
        }
        let deadline = Instant::now() + timeout;
        let mut drained = true;
        for replica in &mut self.replicas {
            let Some(join) = replica.join.take() else {
                continue;
            };
            let left = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            match replica.done_rx.recv_timeout(left) {
                // Normal exit (or the replica was already gone): the
                // thread is past its loop, so this join returns
                // immediately.
                Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                    join.join().ok();
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    geotorch_telemetry::count!("serve.drain.timeout", 1);
                    drop(join);
                    drained = false;
                }
            }
        }
        drained
    }
}

impl Drop for ModelWorker {
    fn drop(&mut self) {
        self.stop(Duration::from_secs(30));
    }
}

impl std::fmt::Debug for ModelWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelWorker")
            .field("name", &self.name)
            .field("replicas", &self.replicas.len())
            .field("running", &self.replicas.iter().any(|r| r.tx.is_some()))
            .field("alive", &self.is_alive())
            .field("queue_depth", &self.state.depth.load(Ordering::SeqCst))
            .finish()
    }
}

impl ModelClient {
    /// The model name requests go to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Admitted-but-unanswered requests right now, across all replicas.
    pub fn queue_depth(&self) -> usize {
        self.state.depth.load(Ordering::SeqCst)
    }

    /// The admission bound this model was spawned with.
    pub fn queue_bound(&self) -> usize {
        self.state.bound
    }

    /// Number of replica threads serving this model.
    pub fn replicas(&self) -> usize {
        self.state.replicas.len()
    }

    /// In-flight requests per replica — what least-loaded routing sees.
    pub fn replica_depths(&self) -> Vec<usize> {
        self.state
            .replicas
            .iter()
            .map(|r| r.depth.load(Ordering::SeqCst))
            .collect()
    }

    /// Whether the queue is past its high watermark (and has not yet
    /// fallen back below the low watermark).
    pub fn is_pressured(&self) -> bool {
        self.state.pressured.load(Ordering::SeqCst)
    }

    /// Whether any replica is still serving.
    pub fn is_alive(&self) -> bool {
        self.state.is_alive()
    }

    /// Whether every replica is gone and at least one exited abnormally.
    pub fn has_died(&self) -> bool {
        self.state.has_died()
    }

    /// Predict one sample (shaped like a single batch row, e.g.
    /// `[C, H, W]`) with no deadline. Blocks until the scheduler has
    /// batched, run, and scattered the forward. Subject to admission
    /// control: sheds with [`ServeError::Overloaded`] when the queue
    /// bound is reached.
    pub fn predict(&self, sample: Tensor) -> Result<Tensor, ServeError> {
        self.predict_with_deadline(sample, None)
    }

    /// Like [`ModelClient::predict`], but give the request `budget` to
    /// complete. An expired request is answered with
    /// [`ServeError::DeadlineExceeded`] — checked at admission, when the
    /// scheduler pops it, before the forward, and by this caller while
    /// it waits — and never occupies a batch slot once expired.
    pub fn predict_with_deadline(
        &self,
        sample: Tensor,
        budget: Option<Duration>,
    ) -> Result<Tensor, ServeError> {
        self.predict_versioned(sample, budget).map(|(t, _)| t)
    }

    /// Like [`ModelClient::predict_with_deadline`], additionally
    /// returning the label of the model version that produced the
    /// prediction (the checkpoint/manifest id the serving replica had
    /// installed when the batch ran). Every successful response is
    /// attributable to exactly one published weight set.
    pub fn predict_versioned(
        &self,
        sample: Tensor,
        budget: Option<Duration>,
    ) -> Result<(Tensor, Arc<str>), ServeError> {
        self.submit(sample, budget)?.wait()
    }

    /// Admit `sample`, route it to the least-loaded live replica and
    /// return without waiting: the non-blocking half of
    /// [`ModelClient::predict_versioned`], which lets one thread keep
    /// several requests in flight. Sheds, deadline and routing errors
    /// surface here; the answer comes from [`Pending::wait`].
    pub(crate) fn submit(
        &self,
        sample: Tensor,
        budget: Option<Duration>,
    ) -> Result<Pending<'_>, ServeError> {
        if !self.state.is_alive() {
            return Err(self.gone_error());
        }
        let admit = AdmitGuard::admit(&self.state)?;
        let now = Instant::now();
        let deadline = budget.map(|b| now + b);
        if budget == Some(Duration::ZERO) {
            geotorch_telemetry::count!("serve.expired", 1);
            return Err(ServeError::DeadlineExceeded(
                "deadline expired before admission".to_string(),
            ));
        }
        let Some(slot) = ReplicaSlot::take(&self.state) else {
            return Err(self.gone_error());
        };
        let replica = slot.idx;
        let (reply_tx, reply) = mpsc::channel();
        self.txs[replica]
            .send(Msg::Predict(Request {
                input: sample,
                enqueued: now,
                deadline,
                reply: reply_tx,
                _admit: admit,
                _slot: slot,
            }))
            .map_err(|_| self.gone_error())?;
        Ok(Pending {
            client: self,
            reply,
            deadline,
        })
    }

    /// Stage a new weight set and ask every replica to hot-swap to it
    /// *between batches*. Returns as soon as the payload is staged: each
    /// replica applies it before opening its next batch (a parked
    /// replica is woken by a nudge message), in-flight requests complete
    /// on the weights they were batched with, and no request is dropped.
    /// `label` tags all subsequent replies (and the HTTP
    /// `X-Model-Version` header) so responses stay attributable.
    ///
    /// The staged state dict is validated per-replica by
    /// `load_state_dict`, which checks every shape before assigning
    /// anything — a mismatched payload leaves the old weights serving.
    pub fn install_weights(&self, label: &str, state: Vec<Tensor>) -> Result<(), ServeError> {
        if !self.state.is_alive() {
            return Err(self.gone_error());
        }
        let payload = Arc::new(SwapPayload {
            label: Arc::from(label),
            state,
        });
        *self
            .state
            .swap
            .staged
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(payload);
        self.state.swap.gen.fetch_add(1, Ordering::Release);
        // Wake parked replicas so an idle model swaps promptly. A dead
        // replica's closed channel is fine — the nudge just goes nowhere.
        for tx in &self.txs {
            tx.send(Msg::Swap).ok();
        }
        Ok(())
    }

    fn gone_error(&self) -> ServeError {
        if self.state.has_died() {
            ServeError::Unavailable(format!("model worker `{}` died", self.name))
        } else if !self.state.is_alive() {
            ServeError::Unavailable(format!("model worker `{}` has shut down", self.name))
        } else {
            ServeError::Internal("model worker dropped the request".to_string())
        }
    }
}

/// A submitted request whose answer has not been taken yet. The
/// admission slot and the replica's in-flight count travel with the
/// request itself and are released when the replica answers, whether or
/// not anyone waits.
pub(crate) struct Pending<'a> {
    client: &'a ModelClient,
    reply: mpsc::Receiver<Reply>,
    deadline: Option<Instant>,
}

impl Pending<'_> {
    /// Block for the answer. With a deadline, give up once it passes —
    /// the replica may still answer later (e.g. a wedged forward), into a
    /// dropped channel, but no caller outlives its own deadline. An
    /// answer already delivered when this is called is returned whatever
    /// the clock says.
    pub(crate) fn wait(self) -> Reply {
        let received = match self.deadline {
            None => self.reply.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            Some(deadline) => self
                .reply
                .recv_timeout(deadline.saturating_duration_since(Instant::now())),
        };
        match received {
            Ok(reply) => reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                geotorch_telemetry::count!("serve.expired", 1);
                Err(ServeError::DeadlineExceeded(
                    "deadline expired while waiting for the model".to_string(),
                ))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.client.gone_error()),
        }
    }
}

static REQUESTS: OnceLock<&'static Stat> = OnceLock::new();
static BATCHES: OnceLock<&'static Stat> = OnceLock::new();
static BATCH_SIZE: OnceLock<&'static Stat> = OnceLock::new();
static QUEUE_WAIT: OnceLock<&'static Stat> = OnceLock::new();
static GATHER_WAIT: OnceLock<&'static Stat> = OnceLock::new();

/// Longest single park of a gather whose next sender is caught between
/// `ReplicaSlot::take` and `tx.send`; the depth is re-read after each.
const SEND_GRACE: Duration = Duration::from_micros(100);

/// Deliver a request's answer, releasing its admission slot and replica
/// in-flight count *before* the reply is sent. The order matters on a
/// busy host: if the reply lands first and this thread is preempted,
/// the caller can observe the response, come back with a new request,
/// and get shed by a slot that is still accounted to the old one.
fn answer(request: Request, result: Reply) {
    let Request {
        reply,
        _admit: admit,
        _slot: slot,
        ..
    } = request;
    drop(admit);
    drop(slot);
    reply.send(result).ok();
}

/// Answer an expired request with 504 and drop it (releasing its
/// admission slot). Returns the request back when it still has time on
/// the clock.
fn reject_if_expired(request: Request) -> Option<Request> {
    match request.deadline {
        Some(deadline) if Instant::now() >= deadline => {
            geotorch_telemetry::count!("serve.expired", 1);
            answer(
                request,
                Err(ServeError::DeadlineExceeded(
                    "deadline expired in the batch queue".to_string(),
                )),
            );
            None
        }
        _ => Some(request),
    }
}

/// Apply a staged hot-swap if the generation moved. Runs on the replica
/// thread *between batches only*, so a batch that already started its
/// forward always completes on the weights it began with.
///
/// Failure semantics: an injected `registry.sync.swap` fault leaves the
/// generation unacknowledged, so the swap is retried before the next
/// batch — the replica keeps serving (and labelling) the old weights
/// until a retry succeeds. A structural failure (state dict mismatch)
/// can never succeed, so it is counted and acknowledged; the publish
/// path validates shapes before staging, making that path unreachable
/// in normal operation.
fn maybe_swap(
    model: &dyn ServeModel,
    state: &WorkerState,
    seen_gen: &mut u64,
    version: &mut Arc<str>,
) {
    let gen = state.swap.gen.load(Ordering::Acquire);
    if gen == *seen_gen {
        return;
    }
    let staged = state.swap.staged.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let Some(staged) = staged else {
        *seen_gen = gen;
        return;
    };
    // Chaos hook for the swap window: a failed swap must leave the old
    // weights serving byte-identically, and the retry (next batch, or
    // the next Msg::Swap nudge) must converge once the fault clears.
    if let Err(msg) = geotorch_telemetry::fault_point!("registry.sync.swap") {
        let _ = msg;
        geotorch_telemetry::count!("serve.swap.failed", 1);
        return;
    }
    match model.load_state_dict(&staged.state) {
        Ok(()) => {
            *version = Arc::clone(&staged.label);
            *seen_gen = gen;
            geotorch_telemetry::count!("serve.swap.applied", 1);
        }
        Err(e) => {
            // load_state_dict validates every shape before assigning
            // anything, so the model is untouched here.
            let _ = e;
            *seen_gen = gen;
            geotorch_telemetry::count!("serve.swap.failed", 1);
        }
    }
}

fn serve_loop(
    model: &dyn ServeModel,
    rx: &mpsc::Receiver<Msg>,
    config: BatchConfig,
    model_stat: &'static Stat,
    state: &WorkerState,
    replica: usize,
    mut version: Arc<str>,
) {
    let depth = &state.replicas[replica].depth;
    let mut seen_gen = 0u64;
    let mut batch: Vec<Request> = Vec::with_capacity(config.max_batch);
    let mut stopping = false;
    while !stopping {
        // Between batches is the only place weights may change.
        maybe_swap(model, state, &mut seen_gen, &mut version);
        // Block for the head of the next batch; a request that expired
        // while queued is answered with 504 and never opens one.
        match rx.recv() {
            Ok(Msg::Predict(r)) => batch.extend(reject_if_expired(r)),
            // Re-run the swap check, then park again.
            Ok(Msg::Swap) => {}
            Ok(Msg::Shutdown) | Err(_) => return,
        }
        if batch.is_empty() {
            continue;
        }
        let opened = Instant::now();
        // `depth` counts every request routed here and unanswered, so
        // `depth > batch.len()` means company exists: queued (`recv`
        // returns at once) or mid-`send` (it parks for `SEND_GRACE`).
        while batch.len() < config.max_batch && depth.load(Ordering::SeqCst) > batch.len() {
            match rx.recv_timeout(SEND_GRACE) {
                Ok(Msg::Predict(r)) => batch.extend(reject_if_expired(r)),
                // Applied after this batch completes — never mid-batch.
                Ok(Msg::Swap) | Err(mpsc::RecvTimeoutError::Timeout) => {}
                Ok(Msg::Shutdown) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                    stopping = true;
                    break;
                }
            }
        }
        run_batch(model, &mut batch, config, model_stat, &version, opened);
    }
}

/// One stacked forward per same-shape group of `batch` (arrival order
/// kept within a group), rows scattered back; leaves `batch` empty.
fn run_batch(
    model: &dyn ServeModel,
    batch: &mut Vec<Request>,
    config: BatchConfig,
    model_stat: &'static Stat,
    version: &Arc<str>,
    opened: Instant,
) {
    // Last deadline check before the forward: a request that expired
    // while the gather parked for a sender must not take a batch slot.
    let now = Instant::now();
    for r in batch.extract_if(.., |r| r.deadline.is_some_and(|d| now >= d)) {
        reject_if_expired(r);
    }
    if batch.is_empty() {
        return;
    }
    if geotorch_telemetry::enabled() {
        geotorch_telemetry::stat(&REQUESTS, "serve.requests").add(batch.len() as u64);
        geotorch_telemetry::stat(&BATCHES, "serve.batches").add(1);
        geotorch_telemetry::stat(&BATCH_SIZE, "serve.batch_size").add(batch.len() as u64);
        let wait = geotorch_telemetry::stat(&QUEUE_WAIT, "serve.queue_wait");
        for r in batch.iter() {
            wait.record_ns(now.duration_since(r.enqueued).as_nanos() as u64);
        }
        geotorch_telemetry::stat(&GATHER_WAIT, "serve.gather_wait")
            .record_ns(now.duration_since(opened).as_nanos() as u64);
        model_stat.add(batch.len() as u64);
    }

    // Answer same-shaped `members` with their output rows or the error.
    let run_group = |members: &mut Vec<Request>| {
        let outcome = forward(model, members, config, model_stat);
        for (i, request) in members.drain(..).enumerate() {
            let row = outcome.as_ref().map(|out| (out.index_axis(0, i), Arc::clone(version)));
            answer(request, row.map_err(ServeError::clone));
        }
    };
    // One shape is the common case; groups are built only for a second.
    if batch.windows(2).all(|w| w[0].input.shape() == w[1].input.shape()) {
        return run_group(batch);
    }
    let mut groups: Vec<Vec<Request>> = Vec::new();
    for request in batch.drain(..) {
        match groups.iter_mut().find(|g| g[0].input.shape() == request.input.shape()) {
            Some(members) => members.push(request),
            None => groups.push(vec![request]),
        }
    }
    groups.iter_mut().for_each(run_group);
}

/// The stacked, panic-isolated forward of one same-shape group.
fn forward(
    model: &dyn ServeModel,
    members: &[Request],
    config: BatchConfig,
    model_stat: &'static Stat,
) -> Result<Tensor, ServeError> {
    // Chaos hook *outside* the panic isolation: an injected error
    // fails this group cleanly, an injected panic kills the replica
    // thread (the scenario `/healthz` must surface as degraded).
    if let Err(msg) = geotorch_telemetry::fault_point!("serve.batcher.forward") {
        return Err(ServeError::Internal(format!("injected batcher fault: {msg}")));
    }
    let inputs: Vec<&Tensor> = members.iter().map(|r| &r.input).collect();
    let stacked = Tensor::stack(&inputs);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Chaos hook *inside* the isolation: behaves like a model
        // bug — the batch fails, the replica survives.
        if let Err(msg) = geotorch_telemetry::fault_point!("serve.batcher.model") {
            panic!("injected model fault: {msg}");
        }
        with_device(config.device, || {
            no_grad(|| model.predict(&Var::constant(stacked)).value())
        })
    }));
    if geotorch_telemetry::enabled() {
        model_stat.record_ns(start.elapsed().as_nanos() as u64);
    }
    match result {
        Ok(output) if output.shape().first() == Some(&members.len()) => Ok(output),
        Ok(output) => Err(ServeError::Internal(format!(
            "model returned batch axis {:?} for {} inputs of shape {:?}",
            output.shape().first(),
            members.len(),
            members[0].input.shape()
        ))),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "forward pass panicked".to_string());
            Err(ServeError::Internal(format!("forward pass panicked: {msg}")))
        }
    }
}
