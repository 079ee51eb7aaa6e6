//! A hand-rolled HTTP/1.1 layer over `std::net`.
//!
//! No external HTTP dependency: requests are parsed with a small
//! incremental byte-scanner (`try_parse`: request line → headers →
//! `Content-Length` body) fed by the event-driven epoll front
//! (non-blocking sockets, partial buffers). The parsed request keeps the
//! raw receive buffer and hands the body out as a slice — no copy between
//! socket and JSON decoder. HTTP/1.1 keep-alive is honored (including
//! pipelined requests already sitting in the buffer); `Connection:
//! close` and HTTP/1.0 defaults behave per spec.
//!
//! | Endpoint | Method | Body | Response |
//! |---|---|---|---|
//! | `/predict/<model>` | POST | `{"shape": [...], "data": [...]}` (one sample, no batch axis) | `{"model": ..., "shape": [...], "data": [...]}` + `X-Model-Version` header |
//! | `/healthz` | GET | — | `{"status": "ok"\|"degraded"\|"draining", "models": [...], "model_status": {...}, "queue_depth": n}` |
//! | `/metrics` | GET | — | `geotorch-telemetry` snapshot (`serve.*` stats included) |
//! | `/models/<m>/manifest` | GET | — | head [`Manifest`](geotorch_core::Manifest) JSON (sync-enabled models) |
//! | `/models/<m>/tensors/<idx>@<ver>-<hash>` | GET | — | one stored tensor payload, verbatim |
//! | `/models/<m>/publish` | POST | classic checkpoint JSON (full state dict) | `{"model", "id", "changed", "delta_bytes"}`; hot-swaps replicas |
//! | `/models/<m>/sync` | POST | `{"peer": "host:port"}` | `{"model", "id", "changed", "fetched", "fetched_bytes", "advanced"}`; hot-swaps if advanced |
//!
//! Status codes: `200` success, `400` malformed request, `404` unknown
//! model/route, `408` client too slow, `413` body over the limit, `429`
//! shed by admission control (with `Retry-After`), `500` model failure,
//! `503` draining or dead worker, `504` deadline exceeded. A request may
//! carry `X-Deadline-Ms` to override the server's default deadline.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use geotorch_core::checkpoint::CheckpointError;
use geotorch_core::delta::is_content_hash;
use geotorch_core::{DeltaStore, IntegrateReport, PublishReport, TensorVersion};
use geotorch_tensor::{json, Tensor};
use serde::{Serialize, Value};

use crate::batcher::{BatchConfig, ModelClient, ModelWorker};
use crate::front::Front;
use crate::sync::{sync_store, SyncClient};
use crate::{Registry, ServeError};

/// The default request-body limit, and the most a sync reads from a
/// peer in one response.
pub(crate) const MAX_BODY: usize = 64 << 20;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Micro-batching and admission knobs shared by every served model.
    pub batch: BatchConfig,
    /// Responder threads behind the event loop: they run routing, the
    /// (blocking) model call, and the response write for complete
    /// requests. Slow clients never occupy one.
    pub http_workers: usize,
    /// Default per-request deadline in milliseconds, used when the
    /// client sends no `X-Deadline-Ms` header. `0` disables the default
    /// (requests then only time out if the client asks for one).
    pub default_deadline_ms: u64,
    /// Per-connection idle/read budget in milliseconds, enforced by the
    /// event loop's timer sweep. A client that stalls mid-request is
    /// answered with 408 and disconnected; an idle keep-alive
    /// connection is closed silently.
    pub socket_timeout_ms: u64,
    /// Largest accepted request body in bytes; larger bodies get 413.
    pub max_body: usize,
    /// Hard cap in milliseconds on the graceful drain: how long
    /// [`Server::shutdown`] waits for in-flight batches to flush before
    /// detaching a wedged model thread.
    pub drain_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch: BatchConfig::default(),
            http_workers: 4,
            default_deadline_ms: 30_000,
            socket_timeout_ms: 10_000,
            max_body: MAX_BODY,
            drain_timeout_ms: 30_000,
        }
    }
}

/// A running inference server: model replica threads plus the
/// event-driven HTTP front.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    front: Arc<FrontState>,
    front_handle: Option<Front>,
    workers: BTreeMap<String, ModelWorker>,
    drain_timeout: Duration,
}

/// Everything the front (event loop + responders) needs, shared.
pub(crate) struct FrontState {
    pub(crate) clients: BTreeMap<String, ModelClient>,
    /// Delta stores of sync-enabled models (see
    /// [`Registry::enable_sync`]): backing state for the
    /// `/models/<name>/...` registry routes and in-process
    /// publish/sync.
    pub(crate) stores: BTreeMap<String, Arc<Mutex<DeltaStore>>>,
    /// Set by [`Server::begin_drain`]: `/healthz` flips to `draining`
    /// (status 503) and predictions are refused, while the listener
    /// stays up so load balancers see the state change.
    pub(crate) draining: AtomicBool,
    /// Set by shutdown proper: the event loop and responders exit.
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) default_deadline: Option<Duration>,
    pub(crate) socket_timeout: Duration,
    pub(crate) max_body: usize,
}

impl Server {
    /// Build every registered model (loading checkpoints, eval mode),
    /// bind `addr` (use port 0 for an ephemeral port), turn on
    /// `geotorch-telemetry` recording so `/metrics` has data, and start
    /// serving. Any model that fails to build or load aborts startup
    /// with the error.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Registry,
        config: ServeConfig,
    ) -> Result<Server, ServeError> {
        geotorch_telemetry::set_enabled(true);
        let (workers, stores) = registry.spawn_all(config.batch)?;
        let clients: BTreeMap<String, ModelClient> = workers
            .iter()
            .map(|(name, w)| (name.clone(), w.client()))
            .collect();
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Internal(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Internal(format!("local_addr failed: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = Arc::new(FrontState {
            clients,
            stores,
            draining: AtomicBool::new(false),
            stop: Arc::clone(&shutdown),
            default_deadline: match config.default_deadline_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            socket_timeout: Duration::from_millis(config.socket_timeout_ms.max(1)),
            max_body: config.max_body,
        });
        let front_handle = Front::start(listener, Arc::clone(&front), config.http_workers)?;
        Ok(Server {
            addr,
            shutdown,
            front,
            front_handle: Some(front_handle),
            workers,
            drain_timeout: Duration::from_millis(config.drain_timeout_ms.max(1)),
        })
    }

    /// The bound address (resolves the actual port when started on 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Names of the models being served.
    pub fn models(&self) -> Vec<String> {
        self.workers.keys().cloned().collect()
    }

    /// An in-process submission handle to a served model's batcher —
    /// the embedded path for drivers (e.g. tiled inference) that live in
    /// the same process as the server and should share its admission
    /// control, replicas, and deadlines without the HTTP hop.
    pub fn client(&self, model: &str) -> Option<ModelClient> {
        self.workers.get(model).map(|w| w.client())
    }

    /// Publish a full state dict for a sync-enabled model: diff it
    /// against the store head (writing only changed tensor payloads),
    /// then hot-swap every serving replica to the new weights between
    /// batches. In-flight requests complete on the old weights; no
    /// request is dropped. The same operation is reachable over HTTP as
    /// `POST /models/<name>/publish` with a classic checkpoint body.
    pub fn publish(&self, model: &str, state: &[Tensor]) -> Result<PublishReport, ServeError> {
        publish_state(&self.front, model, state)
    }

    /// Pull `model`'s head from a peer node (`host:port`) and, if the
    /// local head advanced, hot-swap the serving replicas to it. The
    /// same operation is reachable over HTTP as
    /// `POST /models/<name>/sync` with body `{"peer": "host:port"}`.
    /// On any failure the old weights keep serving and a retry
    /// converges once the fault clears.
    pub fn sync_from(&self, model: &str, peer: &str) -> Result<IntegrateReport, ServeError> {
        sync_from_peer(&self.front, model, peer)
    }

    /// The head manifest id of a sync-enabled model's store — the label
    /// replies carry until the next publish/sync.
    pub fn head_id(&self, model: &str) -> Option<String> {
        let store = self.front.stores.get(model)?;
        let store = store.lock().unwrap_or_else(|e| e.into_inner());
        store.head().map(|h| h.id.clone())
    }

    /// Enter the draining state without stopping: `/healthz` reports
    /// `draining` with status 503 (so load balancers stop routing here)
    /// and new predictions are refused with 503, but connections are
    /// still accepted and in-flight work completes. Call
    /// [`Server::shutdown`] to finish.
    pub fn begin_drain(&self) {
        self.front.draining.store(true, Ordering::SeqCst);
    }

    /// Stop accepting connections, answer every request already read,
    /// flush in-flight batches, join every thread — giving up on a
    /// wedged model thread after the configured drain hard timeout.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.front.draining.store(true, Ordering::SeqCst);
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The front first: the event loop exits (503-ing half-read
        // requests), then the responders finish everything already
        // queued — the model workers are still alive for them.
        if let Some(mut front) = self.front_handle.take() {
            front.stop();
        }
        // Now drain each model queue and join the replica threads,
        // spending at most the hard timeout across all of them.
        let deadline = Instant::now() + self.drain_timeout;
        for (_, worker) in std::mem::take(&mut self.workers) {
            let left = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            worker.shutdown_within(left);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-status error counters (`serve.error.*`), asserted by the
/// error-path test suite.
pub(crate) fn count_error_status(status: u16) {
    match status {
        400 => geotorch_telemetry::count!("serve.error.bad_request", 1),
        404 => geotorch_telemetry::count!("serve.error.not_found", 1),
        408 => geotorch_telemetry::count!("serve.error.slow_client", 1),
        413 => geotorch_telemetry::count!("serve.error.too_large", 1),
        429 => geotorch_telemetry::count!("serve.error.overloaded", 1),
        500 => geotorch_telemetry::count!("serve.error.internal", 1),
        503 => geotorch_telemetry::count!("serve.error.unavailable", 1),
        504 => geotorch_telemetry::count!("serve.error.deadline", 1),
        _ => {}
    }
}

/// One parsed request. Owns its receive buffer, cut down to the body —
/// handed to the JSON decoder without a copy.
pub(crate) struct HttpRequest {
    pub(crate) method: String,
    pub(crate) path: String,
    /// Parsed `X-Deadline-Ms` header, unvalidated.
    pub(crate) deadline_ms: Option<String>,
    /// Whether the connection may serve another request after this one
    /// (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection`
    /// header wins either way).
    pub(crate) keep_alive: bool,
    body: String,
}

impl HttpRequest {
    /// The request body (utf-8, validated once at parse time).
    pub(crate) fn body(&self) -> &str {
        &self.body
    }
}

/// Outcome of feeding buffered bytes to the incremental parser.
pub(crate) enum Parsed {
    /// Not a full request yet; keep the buffer and read more.
    NeedMore,
    /// One complete request, plus any pipelined bytes that followed it
    /// (the start of the next request on a keep-alive connection).
    Complete(Box<HttpRequest>, Vec<u8>),
    /// Unparseable: answer with this status and message, then close.
    Invalid(u16, String),
    /// `Content-Length` over the limit. The caller should discard up to
    /// `discard` more bytes (so the close doesn't RST the unread data
    /// off the wire) and then answer 413.
    TooLarge {
        content_length: usize,
        discard: usize,
    },
}

/// Try to parse one request out of `buf`. On [`Parsed::Complete`] the
/// buffer is consumed (moved into the request); on every other outcome
/// it is left for the caller — untouched except [`Parsed::TooLarge`],
/// which clears it.
pub(crate) fn try_parse(buf: &mut Vec<u8>, max_body: usize) -> Parsed {
    let Some(header_end) = find_header_end(buf) else {
        if buf.len() > 64 << 10 {
            return Parsed::Invalid(400, "headers too large".to_string());
        }
        return Parsed::NeedMore;
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Parsed::Invalid(400, format!("malformed request line `{request_line}`"));
    }
    let mut content_length = 0usize;
    let mut deadline_ms = None;
    let mut connection: Option<String> = None;
    for line in lines {
        if let Some((key, value)) = line.split_once(':') {
            let key = key.trim();
            if key.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => {
                        return Parsed::Invalid(
                            400,
                            format!("bad content-length `{}`", value.trim()),
                        );
                    }
                };
            } else if key.eq_ignore_ascii_case("x-deadline-ms") {
                deadline_ms = Some(value.trim().to_string());
            } else if key.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    let body_start = header_end + 4;
    if content_length > max_body {
        // How much of the oversized body is still in flight, bounded by
        // 2x the limit so a hostile Content-Length can't make us read
        // forever.
        let discard = content_length
            .saturating_sub(buf.len().saturating_sub(body_start))
            .min(2 * max_body);
        buf.clear();
        return Parsed::TooLarge {
            content_length,
            discard,
        };
    }
    let total = body_start + content_length;
    if buf.len() < total {
        return Parsed::NeedMore;
    }
    let keep_alive = if version.eq_ignore_ascii_case("HTTP/1.0") {
        connection.as_deref() == Some("keep-alive")
    } else {
        connection.as_deref() != Some("close")
    };
    let leftover = buf.split_off(total);
    let mut raw = std::mem::take(buf);
    raw.drain(..body_start);
    let Ok(body) = String::from_utf8(raw) else {
        return Parsed::Invalid(400, "body is not utf-8".to_string());
    };
    Parsed::Complete(
        Box::new(HttpRequest {
            method,
            path,
            deadline_ms,
            keep_alive,
            body,
        }),
        leftover,
    )
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

pub(crate) type Response = (u16, Vec<(&'static str, String)>, String);

fn respond(status: u16, body: String) -> Response {
    (status, Vec::new(), body)
}

fn status_for(err: &ServeError) -> u16 {
    match err {
        ServeError::ModelNotFound(_) => 404,
        ServeError::BadRequest(_) => 400,
        ServeError::PayloadTooLarge(_) => 413,
        ServeError::Overloaded(_) => 429,
        ServeError::DeadlineExceeded(_) => 504,
        ServeError::Unavailable(_) => 503,
        ServeError::ModelLoad(_) | ServeError::Internal(_) => 500,
    }
}

pub(crate) fn route(request: &HttpRequest, front: &FrontState) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(front),
        ("GET", "/metrics") => respond(200, geotorch_telemetry::snapshot_json()),
        ("POST", path) if path.starts_with("/predict/") => {
            let name = &path["/predict/".len()..];
            if front.draining.load(Ordering::SeqCst) {
                return respond(503, error_json("server is draining"));
            }
            match front.clients.get(name) {
                None => respond(
                    404,
                    error_json(&ServeError::ModelNotFound(name.to_string()).to_string()),
                ),
                Some(client) => match predict(client, name, request, front) {
                    Ok((json, version)) => {
                        (200, vec![("X-Model-Version", version)], json)
                    }
                    Err(e) => {
                        let status = status_for(&e);
                        let mut headers = Vec::new();
                        if status == 429 {
                            // A full queue drains within a forward or
                            // two; tell clients when to come back.
                            headers.push(("Retry-After", "1".to_string()));
                        }
                        (status, headers, error_json(&e.to_string()))
                    }
                },
            }
        }
        ("GET", path) if path.starts_with("/models/") => {
            registry_get(&path["/models/".len()..], front)
        }
        ("POST", path) if path.starts_with("/models/") => {
            registry_post(&path["/models/".len()..], request, front)
        }
        (method, path) => respond(404, error_json(&format!("no route for {method} {path}"))),
    }
}

/// `GET /models/<name>/manifest` and
/// `GET /models/<name>/tensors/<idx>@<ver>-<hash>`: the read half of
/// the sync wire protocol — what a peer's [`SyncClient`] calls.
fn registry_get(rest: &str, front: &FrontState) -> Response {
    let Some((name, tail)) = rest.split_once('/') else {
        return respond(404, error_json(&format!("no route for /models/{rest}")));
    };
    let Some(store) = front.stores.get(name) else {
        return respond(404, error_json(&format!("model `{name}` has no delta store")));
    };
    let store = store.lock().unwrap_or_else(|e| e.into_inner());
    if tail == "manifest" {
        return match store.head() {
            Some(head) => respond(200, head.to_json()),
            None => respond(404, error_json(&format!("model `{name}` has no published head"))),
        };
    }
    if let Some(spec) = tail.strip_prefix("tensors/") {
        let Some((idx, entry)) = parse_tensor_spec(spec) else {
            return respond(
                400,
                error_json(&format!("bad tensor spec `{spec}` (want <idx>@<ver>-<hash>)")),
            );
        };
        return match store.payload_bytes(idx, &entry) {
            Ok(bytes) => respond(200, String::from_utf8_lossy(&bytes).into_owned()),
            Err(_) => respond(
                404,
                error_json(&format!("no payload {idx}@{}-{}", entry.ver, entry.hash)),
            ),
        };
    }
    respond(404, error_json(&format!("no route for /models/{name}/{tail}")))
}

/// `POST /models/<name>/publish` (body: a checkpoint file's JSON holding
/// the *full* state dict) and
/// `POST /models/<name>/sync` (body: `{"peer": "host:port"}`).
fn registry_post(rest: &str, request: &HttpRequest, front: &FrontState) -> Response {
    let Some((name, tail)) = rest.split_once('/') else {
        return respond(404, error_json(&format!("no route for /models/{rest}")));
    };
    if front.draining.load(Ordering::SeqCst) {
        return respond(503, error_json("server is draining"));
    }
    let result = match tail {
        "publish" => publish_body(front, name, request.body()),
        "sync" => sync_body(front, name, request.body()),
        _ => {
            return respond(404, error_json(&format!("no route for /models/{name}/{tail}")));
        }
    };
    match result {
        Ok(json) => respond(200, json),
        Err(e) => respond(status_for(&e), error_json(&e.to_string())),
    }
}

/// `<idx>@<ver>-<hash>`; the hash becomes part of a file name, so it
/// must be a content hash and nothing else.
fn parse_tensor_spec(spec: &str) -> Option<(usize, TensorVersion)> {
    let (idx, rest) = spec.split_once('@')?;
    let (ver, hash) = rest.split_once('-')?;
    if !is_content_hash(hash) {
        return None;
    }
    Some((
        idx.parse().ok()?,
        TensorVersion {
            ver: ver.parse().ok()?,
            hash: hash.to_string(),
        },
    ))
}

fn publish_body(front: &FrontState, name: &str, body: &str) -> Result<String, ServeError> {
    let (_, state) = geotorch_core::checkpoint::parse_bytes(body, Some(name))
        .map_err(|e| ServeError::BadRequest(format!("checkpoint body: {e}")))?;
    let report = publish_state(front, name, &state)?;
    Ok(render(&Value::Object(vec![
        ("model".to_string(), name.to_value()),
        ("id".to_string(), report.id.to_value()),
        ("changed".to_string(), report.changed.to_value()),
        ("delta_bytes".to_string(), report.delta_bytes.to_value()),
    ])))
}

fn sync_body(front: &FrontState, name: &str, body: &str) -> Result<String, ServeError> {
    let value: Value = serde_json::from_str(body)
        .map_err(|e| ServeError::BadRequest(format!("sync body: {e}")))?;
    let peer = value
        .get("peer")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::BadRequest("sync body needs `peer`".to_string()))?;
    let report = sync_from_peer(front, name, peer)?;
    Ok(render(&Value::Object(vec![
        ("model".to_string(), name.to_value()),
        ("id".to_string(), report.id.to_value()),
        ("changed".to_string(), report.changed.to_value()),
        ("fetched".to_string(), report.fetched.to_value()),
        ("fetched_bytes".to_string(), report.fetched_bytes.to_value()),
        ("advanced".to_string(), Value::Bool(report.advanced)),
    ])))
}

/// Shared by the HTTP route and [`Server::publish`]: diff-publish into
/// the store, then stage the hot-swap. Publishing identical content is
/// a no-op (no swap churn).
pub(crate) fn publish_state(
    front: &FrontState,
    model: &str,
    state: &[Tensor],
) -> Result<PublishReport, ServeError> {
    let store = front
        .stores
        .get(model)
        .ok_or_else(|| ServeError::ModelNotFound(format!("{model} (no delta store)")))?;
    let client = front
        .clients
        .get(model)
        .ok_or_else(|| ServeError::ModelNotFound(model.to_string()))?;
    let mut store = store.lock().unwrap_or_else(|e| e.into_inner());
    let report = store.publish(state).map_err(|e| match e {
        CheckpointError::Io(e) => ServeError::Internal(format!("publish: {e}")),
        other => ServeError::BadRequest(format!("publish: {other}")),
    })?;
    if !report.changed.is_empty() {
        client.install_weights(&report.id, state.to_vec())?;
    }
    Ok(report)
}

/// Shared by the HTTP route and [`Server::sync_from`]: pull the peer's
/// head, and hot-swap only when the local head advanced. The store
/// lock is held across the pull, serialising publishes and syncs for
/// one model (predictions never take it).
pub(crate) fn sync_from_peer(
    front: &FrontState,
    model: &str,
    peer: &str,
) -> Result<IntegrateReport, ServeError> {
    let store = front
        .stores
        .get(model)
        .ok_or_else(|| ServeError::ModelNotFound(format!("{model} (no delta store)")))?;
    let client = front
        .clients
        .get(model)
        .ok_or_else(|| ServeError::ModelNotFound(model.to_string()))?;
    let peer = SyncClient::new(peer);
    let mut store = store.lock().unwrap_or_else(|e| e.into_inner());
    let report = sync_store(&mut store, &peer, model)?;
    if report.advanced {
        let state = store
            .materialize()
            .map_err(|e| ServeError::Internal(format!("materialize: {e}")))?;
        client.install_weights(&report.id, state)?;
    }
    Ok(report)
}

/// Aggregate health: `draining` once a drain began, `degraded` while any
/// model worker is dead or past its backpressure high watermark, `ok`
/// otherwise. Per-model readiness rides along so an operator can see
/// *which* model is the problem.
fn healthz(front: &FrontState) -> Response {
    let draining = front.draining.load(Ordering::SeqCst);
    let mut degraded = false;
    let mut model_status = Vec::new();
    let mut queue_depth = 0usize;
    for (name, client) in &front.clients {
        let state = if client.has_died() {
            degraded = true;
            "dead"
        } else if !client.is_alive() {
            degraded = true;
            "stopped"
        } else if client.is_pressured() {
            degraded = true;
            "pressured"
        } else {
            "ok"
        };
        queue_depth += client.queue_depth();
        model_status.push((name.clone(), state.to_value()));
    }
    let status = if draining {
        "draining"
    } else if degraded {
        "degraded"
    } else {
        "ok"
    };
    let models = Value::Array(
        front
            .clients
            .keys()
            .map(|name| Value::String(name.clone()))
            .collect(),
    );
    let payload = Value::Object(vec![
        ("status".to_string(), status.to_value()),
        ("models".to_string(), models),
        ("model_status".to_string(), Value::Object(model_status)),
        ("queue_depth".to_string(), (queue_depth as u64).to_value()),
    ]);
    // Load balancers treat non-2xx as "stop routing here" — exactly
    // what draining means. Degraded still serves.
    let http_status = if draining { 503 } else { 200 };
    (http_status, Vec::new(), render(&payload))
}

fn predict(
    client: &ModelClient,
    name: &str,
    request: &HttpRequest,
    front: &FrontState,
) -> Result<(String, String), ServeError> {
    let deadline = match &request.deadline_ms {
        None => front.default_deadline,
        Some(raw) => {
            let ms: u64 = raw.trim().parse().map_err(|_| {
                ServeError::BadRequest(format!("X-Deadline-Ms: `{raw}` is not a number"))
            })?;
            Some(Duration::from_millis(ms))
        }
    };
    let sample = json::from_str(request.body())
        .map_err(|e| ServeError::BadRequest(format!("tensor payload: {e}")))?;
    let (output, version) = client.predict_versioned(sample, deadline)?;
    // `{"model":..,"shape":..,"data":..}`: the tensor's members written
    // straight into the reply, no `Value` tree.
    let mut body = String::from("{\"model\":");
    serde_json::write_string(name, &mut body);
    body.push(',');
    json::write_members(&output, &mut body);
    body.push('}');
    Ok((body, version.to_string()))
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| error_json(&e.to_string()))
}

pub(crate) fn error_json(msg: &str) -> String {
    render(&Value::Object(vec![(
        "error".to_string(),
        msg.to_value(),
    )]))
}

/// Write one response (chaos hook: `serve.http.write` — an injected
/// fault closes the connection without writing). Returns whether the
/// full response went out; the caller closes the connection when it
/// didn't, or when `keep_alive` is false.
pub(crate) fn send_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&'static str, String)],
    body: &str,
    keep_alive: bool,
) -> bool {
    if let Err(msg) = geotorch_telemetry::fault_point!("serve.http.write") {
        // Simulate a broken response path: close without writing.
        let _ = msg;
        return false;
    }
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let mut headers = String::new();
    for (key, value) in extra_headers {
        headers.push_str(&format!("{key}: {value}\r\n"));
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n{headers}Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    let ok = stream.write_all(response.as_bytes()).is_ok();
    stream.flush().ok();
    ok
}
