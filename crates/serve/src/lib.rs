//! # geotorch-serve
//!
//! The inference serving subsystem of GeoTorch-RS — the piece that turns
//! a trained checkpoint into something that answers prediction requests,
//! closing the training → deployment gap the geospatial-ML library
//! surveys keep pointing at.
//!
//! Three layers, each usable on its own:
//!
//! * [`registry`] — a [`registry::Registry`] maps model names to
//!   constructors for the existing raster/grid models plus an optional
//!   checkpoint path; loading validates the checkpoint header (model
//!   name, tensor shapes) and flips the model to eval mode.
//! * [`batcher`] — a dynamic micro-batching scheduler. Each model gets a
//!   dedicated owner thread (the autograd [`Var`] graph is deliberately
//!   single-threaded, so the model never crosses threads); whatever is
//!   queued when a forward ends (up to `max_batch`; no timer) is stacked
//!   into the next batched no-grad forward on the configured device, and
//!   the rows of the output are scattered back to the callers.
//! * [`http`] — a hand-rolled HTTP/1.1 layer with JSON bodies: `POST
//!   /predict/<model>`, `GET /healthz`, and `GET /metrics` (a
//!   `geotorch-telemetry` snapshot including the `serve.*` stats). The
//!   front is event-driven: one epoll readiness loop (raw syscalls,
//!   still zero-dep) owns every idle or half-read connection with
//!   incremental parsing, keep-alive, and per-connection idle timers,
//!   while a responder pool runs the blocking model calls — so a slow
//!   client costs a buffer, not a thread.
//!
//! Models can additionally be sharded across N replica threads
//! ([`BatchConfig::replicas`]) with least-loaded routing; the replicas
//! share the one copy of the weights the registry read, which is
//! immutable between hot-swaps.
//!
//! The crate builds on Linux x86_64 and aarch64 only: the front calls
//! epoll through raw syscalls.
//!
//! ```no_run
//! use geotorch_serve::{Registry, ServeConfig, Server};
//! use geotorch_models::raster::SatCnn;
//! use rand::SeedableRng;
//!
//! let mut registry = Registry::new();
//! registry.register_classifier("satcnn", None, || {
//!     let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//!     SatCnn::new(3, 32, 32, 10, &mut rng)
//! });
//! let server = Server::start("127.0.0.1:0", registry, ServeConfig::default()).unwrap();
//! println!("serving on {}", server.addr());
//! ```

#![warn(missing_docs)]

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "geotorch-serve needs Linux on x86_64 or aarch64: its front calls epoll through raw syscalls"
);

pub mod batcher;
mod epoll;
mod front;
pub mod http;
pub mod registry;
pub mod sync;
pub mod tiling;

pub use batcher::{BatchConfig, ModelClient, ModelWorker};
pub use http::{ServeConfig, Server};
pub use registry::Registry;
pub use sync::{sync_store, SyncClient};
pub use tiling::{run_mosaic, MosaicStats, TileConfig};

use geotorch_models::{GridInput, GridModel, RasterClassifier, Segmenter};
use geotorch_nn::{Module, Var};

/// A model as the serving layer sees it: one batched tensor in, one
/// batched tensor out, with the leading axis as the batch axis on both
/// sides. The registry adapts the three model families of
/// `geotorch-models` onto this.
pub trait ServeModel: Module {
    /// Run a batched forward pass (`[B, ...] → [B, ...]`).
    fn predict(&self, batch: &Var) -> Var;
}

/// Anything that can go wrong between a request arriving and a
/// prediction leaving. String-based so it can cross the channel between
/// HTTP workers and model owner threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No model registered under the requested name.
    ModelNotFound(String),
    /// The model could not be constructed or its checkpoint refused to
    /// load (wrong architecture, wrong name, corrupt file).
    ModelLoad(String),
    /// The request body was not a valid tensor payload.
    BadRequest(String),
    /// The request body exceeds the configured size limit (HTTP 413).
    PayloadTooLarge(String),
    /// Shed by admission control: the model's queue of
    /// admitted-but-unanswered requests is at its bound (HTTP 429).
    Overloaded(String),
    /// The request's deadline expired before a prediction was produced
    /// (HTTP 504). The request never occupies a batch slot once expired.
    DeadlineExceeded(String),
    /// The worker for this model is draining, has shut down, or died
    /// (HTTP 503).
    Unavailable(String),
    /// The forward pass panicked or the worker dropped the request.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ModelNotFound(name) => write!(f, "no model named `{name}`"),
            ServeError::ModelLoad(msg) => write!(f, "model failed to load: {msg}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::PayloadTooLarge(msg) => write!(f, "payload too large: {msg}"),
            ServeError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            ServeError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            ServeError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// [`ServeModel`] adapter for a [`RasterClassifier`] (served without the
/// optional handcrafted-feature input).
pub struct ClassifierServe<M: RasterClassifier>(pub M);

impl<M: RasterClassifier> Module for ClassifierServe<M> {
    fn parameters(&self) -> Vec<Var> {
        self.0.parameters()
    }

    fn set_training(&self, training: bool) {
        self.0.set_training(training);
    }
}

impl<M: RasterClassifier> ServeModel for ClassifierServe<M> {
    fn predict(&self, batch: &Var) -> Var {
        self.0.forward(batch, None)
    }
}

/// [`ServeModel`] adapter for a [`Segmenter`].
pub struct SegmenterServe<M: Segmenter>(pub M);

impl<M: Segmenter> Module for SegmenterServe<M> {
    fn parameters(&self) -> Vec<Var> {
        self.0.parameters()
    }

    fn set_training(&self, training: bool) {
        self.0.set_training(training);
    }
}

impl<M: Segmenter> ServeModel for SegmenterServe<M> {
    fn predict(&self, batch: &Var) -> Var {
        self.0.forward(batch)
    }
}

/// [`ServeModel`] adapter for a [`GridModel`] served in the basic
/// (single-frame `[B, C, H, W]`) representation.
pub struct GridServe<M: GridModel>(pub M);

impl<M: GridModel> Module for GridServe<M> {
    fn parameters(&self) -> Vec<Var> {
        self.0.parameters()
    }

    fn set_training(&self, training: bool) {
        self.0.set_training(training);
    }
}

impl<M: GridModel> ServeModel for GridServe<M> {
    fn predict(&self, batch: &Var) -> Var {
        self.0.forward(&GridInput::Basic(batch.clone()))
    }
}
