//! Delta-versioned checkpoint store: per-tensor content versions, a
//! checkpoint-history DAG, and coordination-free GC.
//!
//! A [`DeltaStore`] is a directory holding three kinds of files:
//!
//! * `head.json` — the current head [`Manifest`], replaced atomically
//!   (tmp + rename) on every publish/integrate.
//! * `m-<id>.json` — one immutable file per manifest ever adopted, the
//!   checkpoint-history DAG ([`Manifest::parents`] are manifest ids).
//! * `t<idx>@<ver>-<hash>.json` — one tensor payload per *version* of a
//!   parameter, in the same JSON encoding the classic single-file
//!   checkpoint uses for each tensor.
//!
//! [`DeltaStore::publish`] diffs a new full state dict against the head:
//! unchanged tensors (same content hash) keep their `(version, hash)`
//! entry and write **nothing**; changed tensors get `version + 1` and a
//! new payload file. A fine-tune that touches only head tensors
//! therefore costs O(changed tensors) bytes on disk and on the wire —
//! the column-versioned replication idea, applied to parameters.
//!
//! # Convergence
//!
//! Two nodes that publish concurrently resolve deterministically and
//! symmetrically, with no coordinator:
//!
//! * per tensor, the higher version wins; equal versions with different
//!   content tie-break to the **lexicographically smaller hash**;
//! * if the merged entries equal one side's, that manifest is adopted
//!   verbatim (fast-forward) — both nodes end on the same manifest id;
//! * a true conflict creates a merge manifest whose parents are the two
//!   head ids, sorted; since the id is a pure function of
//!   `(model, parents, shapes, entries)`, both nodes derive the *same*
//!   merge manifest independently;
//! * equal entries under different ids (same content reached by
//!   different histories) tie-break to the lexicographically smaller
//!   manifest id.
//!
//! Any interleaving of publishes and pairwise syncs therefore converges
//! to one head id and one set of payload bytes on every node.
//!
//! # GC safety
//!
//! [`DeltaStore::gc`] deletes payload files *strictly dominated* by the
//! head: older versions of a tensor, or same-version conflict losers.
//! It never touches the head's own payloads, and versions `>=` the head
//! (e.g. fetched mid-sync before the head flips) survive, so a node can
//! GC on its own schedule without coordinating with peers — the worst
//! case is a peer re-fetching a payload this node no longer serves,
//! which the sync protocol treats as a retryable failure.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use geotorch_nn::Module;
use geotorch_tensor::{json, Tensor};
use serde::{Deserialize, Serialize, Value};

use crate::checkpoint::{check_finite, CheckpointError, FORMAT_MARKER};

/// The checkpoint format version used by manifest files (version 1 is
/// the classic inline single-file format).
pub const MANIFEST_VERSION: u64 = 2;

/// Payload files currently retained by open stores, exported as the
/// `registry.tensor_versions` gauge.
static RETAINED: AtomicU64 = AtomicU64::new(0);

fn register_gauge() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        geotorch_telemetry::register_gauge("registry.tensor_versions", || {
            RETAINED.load(Ordering::Relaxed)
        });
    });
}

/// FNV-1a over a byte stream; cheap, dependency-free, and identical on
/// every node — content hashes only need to *detect change*, not resist
/// an adversary.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Content hash of one tensor: shape dims then element bit patterns.
pub fn tensor_hash(t: &Tensor) -> String {
    let mut h = Fnv::new();
    h.write(&(t.shape().len() as u64).to_le_bytes());
    for &d in t.shape() {
        h.write(&(d as u64).to_le_bytes());
    }
    for &x in t.as_slice() {
        h.write(&x.to_bits().to_le_bytes());
    }
    h.hex()
}

/// Whether `s` has the form of a content hash or manifest id: 16
/// lowercase hex digits, what [`tensor_hash`] writes. These strings
/// become file names, so a manifest or request carrying anything else
/// is rejected before it reaches a path.
pub fn is_content_hash(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// One tensor's version coordinates within a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorVersion {
    /// Monotonic per-tensor counter: bumped every time the content hash
    /// changes in a publish.
    pub ver: u64,
    /// Content hash (16 hex chars) of the payload.
    pub hash: String,
}

impl TensorVersion {
    /// Whether `self` supersedes `other` under the symmetric order:
    /// higher version, or equal version with equal hash (identical).
    fn dominates(&self, other: &TensorVersion) -> bool {
        self.ver > other.ver || (self.ver == other.ver && self.hash == other.hash)
    }

    /// The deterministic winner of two entries for the same tensor:
    /// higher version; equal versions tie-break to the lexicographic
    /// minimum hash. Symmetric: `winner(a, b) == winner(b, a)`.
    fn winner<'a>(a: &'a TensorVersion, b: &'a TensorVersion) -> &'a TensorVersion {
        match a.ver.cmp(&b.ver) {
            std::cmp::Ordering::Greater => a,
            std::cmp::Ordering::Less => b,
            std::cmp::Ordering::Equal => {
                if a.hash <= b.hash {
                    a
                } else {
                    b
                }
            }
        }
    }
}

/// A versioned checkpoint manifest: what the model *is* (shapes, model
/// name) plus per-tensor `(version, hash)` coordinates and the DAG
/// edges to the manifests it was derived from. Carries no tensor data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Content-derived id (16 hex chars): a pure function of model,
    /// parents, shapes, and entries — equal manifests built on
    /// different nodes get equal ids.
    pub id: String,
    /// Model name the tensors belong to, if known.
    pub model: Option<String>,
    /// Manifest ids this one was derived from: one parent for a plain
    /// publish, two (sorted) for a merge, none for the first publish.
    pub parents: Vec<String>,
    /// Shape of every tensor, in parameter order.
    pub shapes: Vec<Vec<usize>>,
    /// Per-tensor version coordinates, in parameter order.
    pub entries: Vec<TensorVersion>,
}

impl Manifest {
    fn compute_id(
        model: Option<&str>,
        parents: &[String],
        shapes: &[Vec<usize>],
        entries: &[TensorVersion],
    ) -> String {
        let mut h = Fnv::new();
        h.write(model.unwrap_or("").as_bytes());
        h.write(b"\0");
        for p in parents {
            h.write(p.as_bytes());
            h.write(b"\0");
        }
        for (shape, e) in shapes.iter().zip(entries) {
            for &d in shape {
                h.write(&(d as u64).to_le_bytes());
            }
            h.write(&e.ver.to_le_bytes());
            h.write(e.hash.as_bytes());
            h.write(b"\0");
        }
        h.hex()
    }

    fn build(
        model: Option<String>,
        parents: Vec<String>,
        shapes: Vec<Vec<usize>>,
        entries: Vec<TensorVersion>,
    ) -> Manifest {
        let id = Manifest::compute_id(model.as_deref(), &parents, &shapes, &entries);
        Manifest {
            id,
            model,
            parents,
            shapes,
            entries,
        }
    }

    /// Serialise to the on-disk / on-wire JSON form: the checkpoint
    /// header fields (`format`, `version` [`MANIFEST_VERSION`], `model`,
    /// `shapes`) plus the id, parents and entries.
    pub fn to_json(&self) -> String {
        let entries = Value::Array(
            self.entries
                .iter()
                .map(|e| {
                    Value::Object(vec![
                        ("ver".to_string(), e.ver.to_value()),
                        ("hash".to_string(), e.hash.to_value()),
                    ])
                })
                .collect(),
        );
        let value = Value::Object(vec![
            ("format".to_string(), FORMAT_MARKER.to_value()),
            ("version".to_string(), MANIFEST_VERSION.to_value()),
            (
                "model".to_string(),
                self.model
                    .as_deref()
                    .map_or(Value::Null, |m| m.to_value()),
            ),
            ("id".to_string(), self.id.to_value()),
            ("parents".to_string(), self.parents.to_value()),
            ("shapes".to_string(), self.shapes.to_value()),
            ("entries".to_string(), entries),
        ]);
        serde_json::to_string(&value).expect("manifest serialisation is infallible")
    }

    /// Parse a manifest from its JSON form, re-deriving and verifying
    /// the content id (a corrupted or tampered manifest is rejected).
    pub fn from_json(json: &str) -> Result<Manifest, CheckpointError> {
        let value: Value = serde_json::from_str(json)
            .map_err(|e| CheckpointError::Format(format!("manifest: {e}")))?;
        let bad = |msg: &str| CheckpointError::Format(format!("manifest: {msg}"));
        let marker = value.get("format").and_then(Value::as_str);
        if marker != Some(FORMAT_MARKER) {
            return Err(bad("missing or wrong `format` marker"));
        }
        let version = value
            .get("version")
            .map(u64::from_value)
            .transpose()
            .map_err(|e| bad(&format!("`version`: {e}")))?
            .unwrap_or(0);
        if version != MANIFEST_VERSION {
            return Err(bad(&format!(
                "version {version} is not a manifest (expected {MANIFEST_VERSION})"
            )));
        }
        let model = match value.get("model") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| bad("`model` must be a string"))?
                    .to_string(),
            ),
        };
        let id = value
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing `id`"))?
            .to_string();
        let parents = value
            .get("parents")
            .map(Vec::<String>::from_value)
            .transpose()
            .map_err(|e| bad(&e.to_string()))?
            .ok_or_else(|| bad("missing `parents`"))?;
        let shapes = value
            .get("shapes")
            .map(Vec::<Vec<usize>>::from_value)
            .transpose()
            .map_err(|e| bad(&e.to_string()))?
            .ok_or_else(|| bad("missing `shapes`"))?;
        let raw_entries = match value.get("entries") {
            Some(Value::Array(items)) => items,
            _ => return Err(bad("missing `entries`")),
        };
        if raw_entries.len() != shapes.len() {
            return Err(bad(&format!(
                "{} entries but {} shapes",
                raw_entries.len(),
                shapes.len()
            )));
        }
        let mut entries = Vec::with_capacity(raw_entries.len());
        for item in raw_entries {
            let ver = item
                .get("ver")
                .map(u64::from_value)
                .transpose()
                .map_err(|e| bad(&format!("entry `ver`: {e}")))?
                .ok_or_else(|| bad("entry missing `ver`"))?;
            // JSON numbers hold integers exactly only below 2^53.
            if ver >= 1 << 53 {
                return Err(bad(&format!("entry `ver`: {ver} is not below 2^53")));
            }
            let hash = item
                .get("hash")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("entry missing `hash`"))?
                .to_string();
            entries.push(TensorVersion { ver, hash });
        }
        let hashes = entries.iter().map(|e| &e.hash);
        if let Some(s) = std::iter::once(&id)
            .chain(&parents)
            .chain(hashes)
            .find(|s| !is_content_hash(s))
        {
            return Err(bad(&format!("`{s}` is not a 16-hex-digit id or hash")));
        }
        let expected = Manifest::compute_id(model.as_deref(), &parents, &shapes, &entries);
        if expected != id {
            return Err(bad(&format!(
                "content id mismatch: manifest claims {id}, content hashes to {expected}"
            )));
        }
        Ok(Manifest {
            id,
            model,
            parents,
            shapes,
            entries,
        })
    }

    /// Whether every entry of `self` supersedes-or-equals the matching
    /// entry of `other` (the entrywise partial order behind
    /// fast-forward detection).
    pub fn dominates(&self, other: &Manifest) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.dominates(b))
    }
}

/// What one publish did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishReport {
    /// The new head manifest id.
    pub id: String,
    /// Indices of the tensors whose content changed (payloads written).
    pub changed: Vec<usize>,
    /// Payload bytes written (manifest bytes excluded).
    pub delta_bytes: u64,
}

/// What one integrate (sync apply) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrateReport {
    /// The head manifest id after integration.
    pub id: String,
    /// Indices whose winning entry came from the remote manifest.
    pub changed: Vec<usize>,
    /// Indices whose payloads had to be fetched (not already local).
    pub fetched: Vec<usize>,
    /// Payload bytes fetched through the callback.
    pub fetched_bytes: u64,
    /// Whether the head manifest id changed.
    pub advanced: bool,
}

/// A directory of versioned tensor payloads plus a manifest DAG.
pub struct DeltaStore {
    root: PathBuf,
    model: Option<String>,
    head: Option<Manifest>,
    /// Payload files currently on disk (mirrors the gauge contribution).
    retained: u64,
}

impl DeltaStore {
    /// Open (creating if needed) a store rooted at `root`. `model` is
    /// recorded in every manifest published here and validated against
    /// manifests integrated from peers.
    pub fn open(root: impl AsRef<Path>, model: Option<&str>) -> Result<DeltaStore, CheckpointError> {
        register_gauge();
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(CheckpointError::Io)?;
        let head_path = root.join("head.json");
        let head = if head_path.exists() {
            let json = std::fs::read_to_string(&head_path).map_err(CheckpointError::Io)?;
            Some(Manifest::from_json(&json)?)
        } else {
            None
        };
        if let (Some(expected), Some(saved)) =
            (model, head.as_ref().and_then(|h| h.model.as_deref()))
        {
            if expected != saved {
                return Err(CheckpointError::WrongModel {
                    saved: saved.to_string(),
                    expected: expected.to_string(),
                });
            }
        }
        let mut store = DeltaStore {
            root,
            model: model.map(str::to_string),
            head,
            retained: 0,
        };
        store.retained = store.payload_files()?.len() as u64;
        RETAINED.fetch_add(store.retained, Ordering::Relaxed);
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The current head manifest, if anything was ever published.
    pub fn head(&self) -> Option<&Manifest> {
        self.head.as_ref()
    }

    fn head_path(&self) -> PathBuf {
        self.root.join("head.json")
    }

    fn payload_path(&self, idx: usize, entry: &TensorVersion) -> PathBuf {
        self.root
            .join(format!("t{idx}@{}-{}.json", entry.ver, entry.hash))
    }

    /// Whether the payload for `(idx, entry)` is on disk locally.
    pub fn has_payload(&self, idx: usize, entry: &TensorVersion) -> bool {
        self.payload_path(idx, entry).exists()
    }

    /// Raw bytes of a stored payload (what the sync wire protocol
    /// ships verbatim, so payload files stay byte-identical on every
    /// node that holds them).
    pub fn payload_bytes(
        &self,
        idx: usize,
        entry: &TensorVersion,
    ) -> Result<Vec<u8>, CheckpointError> {
        std::fs::read(self.payload_path(idx, entry)).map_err(CheckpointError::Io)
    }

    fn write_payload(
        &mut self,
        idx: usize,
        entry: &TensorVersion,
        bytes: &[u8],
    ) -> Result<(), CheckpointError> {
        let path = self.payload_path(idx, entry);
        if path.exists() {
            return Ok(());
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, bytes).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            CheckpointError::Io(e)
        })?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            CheckpointError::Io(e)
        })?;
        self.retained += 1;
        RETAINED.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Adopt `manifest` as the new head: record it in the DAG, then flip
    /// `head.json` atomically (same tmp + rename dance — and the same
    /// `core.checkpoint.rename` fault point — as the classic save, so a
    /// crash never leaves a store without a loadable head).
    fn adopt(&mut self, manifest: Manifest) -> Result<(), CheckpointError> {
        let json = manifest.to_json();
        let dag_path = self.root.join(format!("m-{}.json", manifest.id));
        if !dag_path.exists() {
            std::fs::write(&dag_path, &json).map_err(CheckpointError::Io)?;
        }
        let head_path = self.head_path();
        let tmp = self.root.join("head.json.tmp");
        if let Err(e) = std::fs::write(&tmp, &json) {
            std::fs::remove_file(&tmp).ok();
            return Err(CheckpointError::Io(e));
        }
        if let Err(msg) = geotorch_telemetry::fault_point!("core.checkpoint.rename") {
            std::fs::remove_file(&tmp).ok();
            return Err(CheckpointError::Format(format!(
                "injected fault between staging write and head flip: {msg}"
            )));
        }
        std::fs::rename(&tmp, &head_path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            CheckpointError::Io(e)
        })?;
        self.head = Some(manifest);
        Ok(())
    }

    /// Publish a full state dict: hash every tensor, bump the version of
    /// (and write payloads for) only the tensors whose content changed,
    /// and adopt the new manifest as head. The first publish writes
    /// everything. A state holding NaN or an infinity is a
    /// [`CheckpointError::Format`] error before any file is written: its
    /// payload would never load on a peer.
    pub fn publish(&mut self, state: &[Tensor]) -> Result<PublishReport, CheckpointError> {
        check_finite(state)?;
        if let Some(head) = &self.head {
            if head.entries.len() != state.len() {
                return Err(CheckpointError::Format(format!(
                    "publish of {} tensors against a head of {}",
                    state.len(),
                    head.entries.len()
                )));
            }
            for (i, (shape, t)) in head.shapes.iter().zip(state).enumerate() {
                if shape.as_slice() != t.shape() {
                    return Err(CheckpointError::Format(format!(
                        "tensor {i}: publish shape {:?} does not match head shape {shape:?}",
                        t.shape()
                    )));
                }
            }
        }
        let mut entries = Vec::with_capacity(state.len());
        let mut changed = Vec::new();
        for (i, t) in state.iter().enumerate() {
            let hash = tensor_hash(t);
            let prev = self.head.as_ref().map(|h| &h.entries[i]);
            match prev {
                Some(p) if p.hash == hash => entries.push(p.clone()),
                _ => {
                    let ver = prev
                        .map_or(Some(1), |p| p.ver.checked_add(1))
                        .ok_or_else(|| {
                            CheckpointError::Format(format!("tensor {i}: version counter overflow"))
                        })?;
                    entries.push(TensorVersion { ver, hash });
                    changed.push(i);
                }
            }
        }
        let mut delta_bytes = 0u64;
        for &i in &changed {
            let bytes = json::to_string(&state[i]);
            delta_bytes += bytes.len() as u64;
            self.write_payload(i, &entries[i], bytes.as_bytes())?;
        }
        let shapes: Vec<Vec<usize>> = state.iter().map(|t| t.shape().to_vec()).collect();
        let parents = self.head.as_ref().map(|h| vec![h.id.clone()]).unwrap_or_default();
        let manifest = Manifest::build(self.model.clone(), parents, shapes, entries);
        let unchanged_head = self.head.as_ref().is_some_and(|h| {
            h.entries == manifest.entries && changed.is_empty()
        });
        if unchanged_head {
            // Republishing identical content is a no-op: the head
            // already describes these exact bytes.
            return Ok(PublishReport {
                id: self.head.as_ref().unwrap().id.clone(),
                changed,
                delta_bytes: 0,
            });
        }
        let id = manifest.id.clone();
        self.adopt(manifest)?;
        geotorch_telemetry::count!("registry.publish", 1);
        Ok(PublishReport {
            id,
            changed,
            delta_bytes,
        })
    }

    /// [`DeltaStore::publish`] of a module's current state dict.
    pub fn publish_module(&mut self, model: &dyn Module) -> Result<PublishReport, CheckpointError> {
        self.publish(&model.state_dict())
    }

    /// Integrate a peer's manifest. `fetch` is called for every winning
    /// entry whose payload is not already local and must return the
    /// payload bytes as stored on the peer; fetched payloads are
    /// verified against the entry's content hash before anything is
    /// adopted. On any error the head is untouched.
    pub fn integrate<F>(
        &mut self,
        remote: &Manifest,
        mut fetch: F,
    ) -> Result<IntegrateReport, CheckpointError>
    where
        F: FnMut(usize, &TensorVersion) -> Result<Vec<u8>, CheckpointError>,
    {
        if let (Some(expected), Some(saved)) = (self.model.as_deref(), remote.model.as_deref()) {
            if expected != saved {
                return Err(CheckpointError::WrongModel {
                    saved: saved.to_string(),
                    expected: expected.to_string(),
                });
            }
        }
        if let Some(head) = &self.head {
            if head.shapes != remote.shapes {
                return Err(CheckpointError::Format(
                    "remote manifest has different tensor shapes".to_string(),
                ));
            }
        }
        // Entrywise winners under the symmetric order.
        let merged: Vec<TensorVersion> = match &self.head {
            None => remote.entries.clone(),
            Some(head) => head
                .entries
                .iter()
                .zip(&remote.entries)
                .map(|(a, b)| TensorVersion::winner(a, b).clone())
                .collect(),
        };
        let changed: Vec<usize> = match &self.head {
            None => (0..merged.len()).collect(),
            Some(head) => merged
                .iter()
                .enumerate()
                .filter(|(i, e)| head.entries[*i] != **e)
                .map(|(i, _)| i)
                .collect(),
        };
        // Fetch (and verify) every winning payload we do not hold.
        let mut fetched = Vec::new();
        let mut fetched_bytes = 0u64;
        let mut pending: Vec<(usize, Vec<u8>)> = Vec::new();
        for (i, entry) in merged.iter().enumerate() {
            if self.has_payload(i, entry) {
                continue;
            }
            let bytes = fetch(i, entry)?;
            let text = std::str::from_utf8(&bytes).map_err(|e| {
                CheckpointError::Format(format!("fetched tensor {i} is not utf-8: {e}"))
            })?;
            let tensor = json::from_str(text)
                .map_err(|e| CheckpointError::Format(format!("fetched tensor {i}: {e}")))?;
            let hash = tensor_hash(&tensor);
            if hash != entry.hash {
                return Err(CheckpointError::Format(format!(
                    "fetched tensor {i}@{} hashes to {hash}, manifest says {}",
                    entry.ver, entry.hash
                )));
            }
            if tensor.shape() != remote.shapes[i].as_slice() {
                return Err(CheckpointError::Format(format!(
                    "fetched tensor {i} has shape {:?}, manifest says {:?}",
                    tensor.shape(),
                    remote.shapes[i]
                )));
            }
            fetched_bytes += bytes.len() as u64;
            fetched.push(i);
            pending.push((i, bytes));
        }
        let entries_for = |i: usize| &merged[i];
        for (i, bytes) in &pending {
            self.write_payload(*i, entries_for(*i), bytes)?;
        }
        // Decide the new head.
        let report = |store: &DeltaStore, advanced: bool, changed: Vec<usize>| IntegrateReport {
            id: store.head.as_ref().expect("head exists after integrate").id.clone(),
            changed,
            fetched: fetched.clone(),
            fetched_bytes,
            advanced,
        };
        match &self.head {
            None => {
                self.adopt(remote.clone())?;
                return Ok(report(self, true, changed));
            }
            Some(head) if merged == head.entries => {
                if merged == remote.entries && remote.id < head.id {
                    // Same content reached through a different history:
                    // tie-break to the lexicographically smaller id so
                    // both sides settle on one manifest.
                    self.adopt(remote.clone())?;
                    return Ok(report(self, true, changed));
                }
                return Ok(report(self, false, changed));
            }
            Some(_) if merged == remote.entries => {
                // Fast-forward: adopt the remote manifest verbatim.
                self.adopt(remote.clone())?;
                return Ok(report(self, true, changed));
            }
            Some(head) => {
                // True conflict: build the deterministic merge node.
                let mut parents = vec![head.id.clone(), remote.id.clone()];
                parents.sort();
                parents.dedup();
                let manifest = Manifest::build(
                    self.model.clone().or_else(|| remote.model.clone()),
                    parents,
                    remote.shapes.clone(),
                    merged,
                );
                self.adopt(manifest)?;
            }
        }
        Ok(report(self, true, changed))
    }

    /// Read the head's full state dict from payload files, verifying
    /// shapes (hash verification happens at fetch time; local payloads
    /// were verified when written).
    pub fn materialize(&self) -> Result<Vec<Tensor>, CheckpointError> {
        let head = self.head.as_ref().ok_or_else(|| {
            CheckpointError::Format("store has no head manifest".to_string())
        })?;
        let mut tensors = Vec::with_capacity(head.entries.len());
        for (i, entry) in head.entries.iter().enumerate() {
            let text = std::fs::read_to_string(self.payload_path(i, entry))
                .map_err(CheckpointError::Io)?;
            let tensor = json::from_str(&text)
                .map_err(|e| CheckpointError::Format(format!("payload {i}: {e}")))?;
            if tensor.shape() != head.shapes[i].as_slice() {
                return Err(CheckpointError::Format(format!(
                    "payload {i} has shape {:?}, manifest says {:?}",
                    tensor.shape(),
                    head.shapes[i]
                )));
            }
            tensors.push(tensor);
        }
        Ok(tensors)
    }

    fn payload_files(&self) -> Result<Vec<(PathBuf, usize, TensorVersion)>, CheckpointError> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(CheckpointError::Io)? {
            let entry = entry.map_err(CheckpointError::Io)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(parsed) = parse_payload_name(name) else {
                continue;
            };
            files.push((entry.path(), parsed.0, parsed.1));
        }
        Ok(files)
    }

    /// Delete payload files strictly dominated by the head (older
    /// versions, or same-version conflict losers) and manifest DAG
    /// nodes no longer reachable from the head. Safe to run any time on
    /// any node: the head's own payloads are never candidates, and
    /// not-yet-adopted fetches carry versions `>=` the head's, which
    /// also survive.
    pub fn gc(&mut self) -> Result<u64, CheckpointError> {
        let Some(head) = self.head.clone() else {
            return Ok(0);
        };
        let mut removed = 0u64;
        for (path, idx, entry) in self.payload_files()? {
            let dominated = match head.entries.get(idx) {
                // A payload for an index the model does not have (e.g.
                // left over from a differently sized past architecture).
                None => true,
                Some(h) => entry.ver < h.ver || (entry.ver == h.ver && entry.hash != h.hash),
            };
            if dominated && std::fs::remove_file(&path).is_ok() {
                removed += 1;
                self.retained = self.retained.saturating_sub(1);
                RETAINED.fetch_sub(1, Ordering::Relaxed);
            }
        }
        // Prune DAG nodes unreachable from the head so history stays
        // proportional to the head's ancestry, not to everything ever
        // seen.
        let reachable = self.reachable_ids(&head);
        for entry in std::fs::read_dir(&self.root).map_err(CheckpointError::Io)? {
            let entry = entry.map_err(CheckpointError::Io)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_prefix("m-").and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            if !reachable.contains(id) {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        Ok(removed)
    }

    fn reachable_ids(&self, head: &Manifest) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![head.clone()];
        seen.insert(head.id.clone());
        while let Some(m) = stack.pop() {
            for parent in &m.parents {
                if seen.insert(parent.clone()) {
                    if let Ok(pm) = self.manifest_by_id(parent) {
                        stack.push(pm);
                    }
                }
            }
        }
        seen
    }

    /// Read one manifest out of the DAG by id.
    pub fn manifest_by_id(&self, id: &str) -> Result<Manifest, CheckpointError> {
        let json = std::fs::read_to_string(self.root.join(format!("m-{id}.json")))
            .map_err(CheckpointError::Io)?;
        Manifest::from_json(&json)
    }

    /// The head's ancestry (head first, then parents breadth-first, as
    /// far as the local DAG reaches).
    pub fn history(&self) -> Vec<Manifest> {
        let Some(head) = self.head.clone() else {
            return Vec::new();
        };
        let mut out = vec![head.clone()];
        let mut seen: BTreeSet<String> = [head.id.clone()].into();
        let mut queue = std::collections::VecDeque::from([head]);
        while let Some(m) = queue.pop_front() {
            for parent in &m.parents {
                if seen.insert(parent.clone()) {
                    if let Ok(pm) = self.manifest_by_id(parent) {
                        out.push(pm.clone());
                        queue.push_back(pm);
                    }
                }
            }
        }
        out
    }

    /// Number of payload files this store currently retains.
    pub fn retained_payloads(&self) -> u64 {
        self.retained
    }
}

impl Drop for DeltaStore {
    fn drop(&mut self) {
        RETAINED.fetch_sub(self.retained, Ordering::Relaxed);
    }
}

/// Parse `t<idx>@<ver>-<hash>.json` back into its coordinates.
fn parse_payload_name(name: &str) -> Option<(usize, TensorVersion)> {
    let rest = name.strip_prefix('t')?.strip_suffix(".json")?;
    let (idx, rest) = rest.split_once('@')?;
    let (ver, hash) = rest.split_once('-')?;
    Some((
        idx.parse().ok()?,
        TensorVersion {
            ver: ver.parse().ok()?,
            hash: hash.to_string(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A manifest JSON whose single entry carries `ver` verbatim, with
    /// the id the content hashes to — so only the `ver` check can refuse
    /// it.
    fn manifest_json(ver: &str, as_u64: u64) -> String {
        let hash = tensor_hash(&Tensor::zeros(&[2]));
        let entry = TensorVersion {
            ver: as_u64,
            hash: hash.clone(),
        };
        let id = Manifest::compute_id(None, &[], &[vec![2]], &[entry]);
        format!(
            r#"{{"format":"{FORMAT_MARKER}","version":{MANIFEST_VERSION},"model":null,"id":"{id}","parents":[],"shapes":[[2]],"entries":[{{"ver":{ver},"hash":"{hash}"}}]}}"#
        )
    }

    #[test]
    fn manifest_versions_must_be_exact_integers_below_2_pow_53() {
        let ok = Manifest::from_json(&manifest_json("7", 7)).expect("a plain version parses");
        assert_eq!(ok.entries[0].ver, 7);
        for (ver, as_u64) in [
            ("-1", 0),
            ("1.5", 1),
            ("1e300", u64::MAX),
            ("9007199254740992", 1 << 53),
        ] {
            let err = Manifest::from_json(&manifest_json(ver, as_u64));
            assert!(
                matches!(&err, Err(CheckpointError::Format(m)) if m.contains("entry `ver`")),
                "ver {ver}: {err:?}"
            );
        }
    }

    #[test]
    fn manifest_format_version_must_be_an_exact_integer() {
        let good = manifest_json("7", 7);
        let field = format!("\"version\":{MANIFEST_VERSION},");
        assert!(good.contains(&field));
        Manifest::from_json(&good).expect("the written version parses");
        for version in ["2.9", "1.5", "-1", "1e300", "\"2\"", "null"] {
            let json = good.replace(&field, &format!("\"version\":{version},"));
            let err = Manifest::from_json(&json);
            assert!(
                matches!(&err, Err(CheckpointError::Format(m)) if m.contains("version")),
                "version {version}: {err:?}"
            );
        }
    }

    #[test]
    fn publish_refuses_a_non_finite_weight_and_keeps_its_head() {
        let dir = std::env::temp_dir().join(format!("geotorch_delta_nan_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = DeltaStore::open(&dir, None).unwrap();
        let state = vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[4])];
        store.publish(&state).unwrap();
        let head = store.head().cloned();
        let files = |dir: &Path| {
            let mut names: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = files(&dir);

        let mut bad = state.clone();
        bad[1].as_mut_slice()[2] = f32::NAN;
        let err = store
            .publish(&bad)
            .expect_err("a NaN weight must not be published");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("parameter 1")),
            "{err:?}"
        );
        assert_eq!(store.head().cloned(), head, "the head moved");
        assert_eq!(files(&dir), before, "a payload was written");
        drop(store);
        let store = DeltaStore::open(&dir, None).unwrap();
        assert_eq!(store.materialize().unwrap(), state);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_ids_parents_and_hashes_must_be_content_hashes() {
        let good = Manifest::build(
            None,
            vec!["0123456789abcdef".into()],
            vec![vec![2]],
            vec![TensorVersion {
                ver: 1,
                hash: tensor_hash(&Tensor::zeros(&[2])),
            }],
        );
        Manifest::from_json(&good.to_json()).expect("a well-formed manifest parses");
        for parent in ["../../head", "0123456789ABCDEF", "0123456789abcdef0", ""] {
            let evil = Manifest::build(
                None,
                vec![parent.into()],
                good.shapes.clone(),
                good.entries.clone(),
            );
            let err = Manifest::from_json(&evil.to_json());
            assert!(
                matches!(&err, Err(CheckpointError::Format(m)) if m.contains("16-hex-digit")),
                "parent {parent:?}: {err:?}"
            );
        }
        let evil = Manifest::build(
            None,
            vec![],
            good.shapes.clone(),
            vec![TensorVersion {
                ver: 1,
                hash: "../t0".into(),
            }],
        );
        assert!(Manifest::from_json(&evil.to_json()).is_err());
    }
}
