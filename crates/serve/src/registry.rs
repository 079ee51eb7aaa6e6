//! The model registry: name → constructor (+ optional checkpoint).
//!
//! A [`Registry`] is the declarative half of the serving subsystem: it
//! records how to *build* each model and where its trained weights live.
//! [`Registry::spawn_all`] (called by [`crate::Server::start`]) reads
//! each model's weights once, on the calling thread — the store head of
//! a sync-enabled model, otherwise its checkpoint file, whose header
//! must name the registered model — and turns every entry into a
//! [`ModelWorker`]: each replica runs the constructor on its own thread
//! and loads that one shared state dict, so a wrong-architecture or
//! wrong-model checkpoint aborts startup with an error instead of a
//! panic, and the model is flipped to eval mode before the first
//! request.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use geotorch_core::DeltaStore;
use geotorch_models::{GridModel, RasterClassifier, Segmenter};
use geotorch_tensor::Tensor;

use crate::batcher::{BatchConfig, ModelWorker};
use crate::{ClassifierServe, GridServe, SegmenterServe, ServeError, ServeModel};

type Builder = Arc<dyn Fn() -> Box<dyn ServeModel> + Send + Sync>;

struct Entry {
    builder: Builder,
    checkpoint: Option<PathBuf>,
    /// Root directory of this model's [`DeltaStore`], when the model
    /// participates in the replicated registry (publish/sync/hot-swap).
    sync_dir: Option<PathBuf>,
}

/// Named model constructors with optional checkpoints.
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<String, Entry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a model under `name`. `build` runs on the serving
    /// thread; seed any RNG inside it so rebuilds are deterministic.
    /// When `checkpoint` is given, the file is loaded (with header
    /// validation against `name`) right after construction.
    pub fn register<F>(&mut self, name: &str, checkpoint: Option<PathBuf>, build: F)
    where
        F: Fn() -> Box<dyn ServeModel> + Send + Sync + 'static,
    {
        self.entries.insert(
            name.to_string(),
            Entry {
                builder: Arc::new(build),
                checkpoint,
                sync_dir: None,
            },
        );
    }

    /// Turn on the replicated registry for `name`: the model's weights
    /// live in a [`DeltaStore`] rooted at `dir` (created if missing),
    /// replicas load the store head at startup, and the server exposes
    /// the publish/manifest/tensor/sync routes for it. When the store is
    /// empty it is seeded from the entry's checkpoint file (if any) or
    /// from the freshly built model's state dict, so the head always
    /// exists by the time replicas spawn.
    ///
    /// Returns `false` when no model named `name` is registered.
    pub fn enable_sync(&mut self, name: &str, dir: impl Into<PathBuf>) -> bool {
        match self.entries.get_mut(name) {
            Some(entry) => {
                entry.sync_dir = Some(dir.into());
                true
            }
            None => false,
        }
    }

    /// Register a [`RasterClassifier`] (served without the optional
    /// handcrafted-feature input).
    pub fn register_classifier<M, F>(&mut self, name: &str, checkpoint: Option<PathBuf>, build: F)
    where
        M: RasterClassifier + 'static,
        F: Fn() -> M + Send + Sync + 'static,
    {
        self.register(name, checkpoint, move || Box::new(ClassifierServe(build())));
    }

    /// Register a [`Segmenter`].
    pub fn register_segmenter<M, F>(&mut self, name: &str, checkpoint: Option<PathBuf>, build: F)
    where
        M: Segmenter + 'static,
        F: Fn() -> M + Send + Sync + 'static,
    {
        self.register(name, checkpoint, move || Box::new(SegmenterServe(build())));
    }

    /// Register a [`GridModel`] served in the basic `[B, C, H, W]`
    /// representation.
    pub fn register_grid<M, F>(&mut self, name: &str, checkpoint: Option<PathBuf>, build: F)
    where
        M: GridModel + 'static,
        F: Fn() -> M + Send + Sync + 'static,
    {
        self.register(name, checkpoint, move || Box::new(GridServe(build())));
    }

    /// The registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Spawn one [`ModelWorker`] per entry, opening (and seeding, if
    /// empty) the [`DeltaStore`] of every sync-enabled entry. Sync
    /// entries serve the store head, labelled with its manifest id, so
    /// every reply is attributable from the very first request. The
    /// first model that fails to build or load aborts the whole call
    /// (already-spawned workers shut down cleanly on drop).
    #[allow(clippy::type_complexity)]
    pub fn spawn_all(
        &self,
        config: BatchConfig,
    ) -> Result<
        (
            BTreeMap<String, ModelWorker>,
            BTreeMap<String, Arc<Mutex<DeltaStore>>>,
        ),
        ServeError,
    > {
        let mut workers = BTreeMap::new();
        let mut stores = BTreeMap::new();
        for (name, entry) in &self.entries {
            let (label, state) = resolve(name, entry, &mut stores)?;
            let builder = Arc::clone(&entry.builder);
            let model_name = name.clone();
            let worker = ModelWorker::spawn_versioned(name, config, &label, move || {
                let model = builder();
                if let Some(state) = &state {
                    model
                        .load_state_dict(state)
                        .map_err(|e| ServeError::ModelLoad(format!("{model_name}: {e}")))?;
                }
                Ok(model)
            })?;
            workers.insert(name.clone(), worker);
        }
        Ok((workers, stores))
    }
}

/// Read an entry's weights once: the label replies carry and the state
/// dict every replica loads (`None`: serve the freshly built weights).
/// A sync entry's store is opened — and seeded, if empty, from the
/// checkpoint file or the built model — and handed over in `stores`.
fn resolve(
    name: &str,
    entry: &Entry,
    stores: &mut BTreeMap<String, Arc<Mutex<DeltaStore>>>,
) -> Result<(String, Option<Vec<Tensor>>), ServeError> {
    if entry.checkpoint.is_none() && entry.sync_dir.is_none() {
        return Ok(("v0".to_string(), None));
    }
    if let Err(msg) = geotorch_telemetry::fault_point!("serve.registry.load") {
        return Err(ServeError::ModelLoad(format!(
            "{name}: injected load fault: {msg}"
        )));
    }
    let load_error = |e: geotorch_core::checkpoint::CheckpointError| {
        ServeError::ModelLoad(format!("{name}: {e}"))
    };
    let Some(dir) = &entry.sync_dir else {
        let path = entry.checkpoint.as_deref().expect("an entry with weights");
        return Ok(("v0".to_string(), Some(read_checkpoint(name, path)?)));
    };
    let mut store = DeltaStore::open(dir, Some(name)).map_err(load_error)?;
    if store.head().is_none() {
        let state = match &entry.checkpoint {
            Some(path) => read_checkpoint(name, path)?,
            None => (entry.builder)().state_dict(),
        };
        store.publish(&state).map_err(load_error)?;
    }
    let label = store.head().expect("the store was seeded").id.clone();
    let state = store.materialize().map_err(load_error)?;
    stores.insert(name.to_string(), Arc::new(Mutex::new(store)));
    Ok((label, Some(state)))
}

/// A checkpoint file's state dict; its header must name `name`.
fn read_checkpoint(name: &str, path: &Path) -> Result<Vec<Tensor>, ServeError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| ServeError::ModelLoad(format!("{name}: {}: {e}", path.display())))?;
    geotorch_core::checkpoint::parse_bytes(&json, Some(name))
        .map(|(_, state)| state)
        .map_err(|e| ServeError::ModelLoad(format!("{name}: {e}")))
}
