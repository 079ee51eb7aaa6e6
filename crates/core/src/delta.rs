//! Delta-versioned checkpoint store: per-tensor content versions, one
//! head manifest, and GC on every head change.
//!
//! A [`DeltaStore`] is a directory holding two kinds of files:
//!
//! * `head.json` — the current head [`Manifest`], replaced atomically
//!   (tmp + rename) whenever a publish or integrate changes it.
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
//! A manifest's id is a pure function of its content — model name,
//! shapes and entries — so two nodes holding the same entries hold the
//! same manifest, byte for byte. [`DeltaStore::integrate`] takes the
//! entrywise winner of the local head and a peer's manifest:
//!
//! * per tensor, the higher version wins;
//! * equal versions with different content tie-break to the
//!   **lexicographically smaller hash**.
//!
//! The winner rule is commutative, associative and idempotent, so after
//! one pull each way both nodes hold the winners of both heads: the same
//! entries, hence the same head id and the same payload bytes, with no
//! coordinator.
//!
//! # GC on every head change
//!
//! Every head change deletes, best effort, the payload files the new
//! head dominates: older versions of a tensor, same-version conflict
//! losers, and indices the model does not have. The head's own payloads
//! are never candidates, and versions above the head (staged by a sync
//! whose head flip failed) survive. A removal that fails leaves the file
//! until the next head change; it never fails the publish or integrate
//! that moved the head. A peer that asks for a payload this node has
//! dropped gets a 404, which the sync protocol treats as a retryable
//! failure.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use geotorch_tensor::{json, Tensor};
use serde::{Deserialize, Serialize, Value};

use crate::checkpoint::{check_finite, CheckpointError, FORMAT_MARKER};

/// The checkpoint format version used by manifest files (version 1 is
/// the classic inline single-file format; version 2 manifests carried
/// a history DAG and are refused).
pub const MANIFEST_VERSION: u64 = 3;

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

    /// Whether the head entry `head` dominates `self` for the same
    /// tensor: `self` is an older version or a same-version loser.
    fn dominated_by(&self, head: &TensorVersion) -> bool {
        self.ver < head.ver || (self.ver == head.ver && self.hash != head.hash)
    }
}

/// A versioned checkpoint manifest: what the model *is* (shapes, model
/// name) plus per-tensor `(version, hash)` coordinates. Carries no
/// tensor data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Content-derived id (16 hex chars): a pure function of model,
    /// shapes, and entries — equal manifests built on different nodes
    /// get equal ids.
    pub id: String,
    /// Model name the tensors belong to.
    pub model: String,
    /// Shape of every tensor, in parameter order.
    pub shapes: Vec<Vec<usize>>,
    /// Per-tensor version coordinates, in parameter order.
    pub entries: Vec<TensorVersion>,
}

impl Manifest {
    fn compute_id(model: &str, shapes: &[Vec<usize>], entries: &[TensorVersion]) -> String {
        let mut h = Fnv::new();
        h.write(model.as_bytes());
        h.write(b"\0");
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

    fn build(model: String, shapes: Vec<Vec<usize>>, entries: Vec<TensorVersion>) -> Manifest {
        let id = Manifest::compute_id(&model, &shapes, &entries);
        Manifest {
            id,
            model,
            shapes,
            entries,
        }
    }

    /// Serialise to the on-disk / on-wire JSON form: the checkpoint
    /// header fields (`format`, `version` [`MANIFEST_VERSION`], `model`,
    /// `shapes`) plus the id and entries.
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
            ("model".to_string(), self.model.to_value()),
            ("id".to_string(), self.id.to_value()),
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
        let model = value
            .get("model")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("`model` must be a string"))?
            .to_string();
        let id = value
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing `id`"))?
            .to_string();
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
        if let Some(s) = std::iter::once(&id).chain(hashes).find(|s| !is_content_hash(s)) {
            return Err(bad(&format!("`{s}` is not a 16-hex-digit id or hash")));
        }
        let expected = Manifest::compute_id(&model, &shapes, &entries);
        if expected != id {
            return Err(bad(&format!(
                "content id mismatch: manifest claims {id}, content hashes to {expected}"
            )));
        }
        Ok(Manifest {
            id,
            model,
            shapes,
            entries,
        })
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

/// A directory of versioned tensor payloads plus one head manifest.
pub struct DeltaStore {
    root: PathBuf,
    model: String,
    head: Option<Manifest>,
    /// Payload files currently on disk (mirrors the gauge contribution).
    retained: u64,
}

impl DeltaStore {
    /// Open (creating if needed) a store rooted at `root`. `model` is
    /// recorded in every manifest published here and must match the
    /// saved head and every manifest integrated from peers.
    pub fn open(root: impl AsRef<Path>, model: &str) -> Result<DeltaStore, CheckpointError> {
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
        if let Some(saved) = head.as_ref().filter(|h| h.model != model) {
            return Err(CheckpointError::WrongModel {
                saved: saved.model.clone(),
                expected: model.to_string(),
            });
        }
        let mut store = DeltaStore {
            root,
            model: model.to_string(),
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

    fn payload_path(&self, idx: usize, entry: &TensorVersion) -> PathBuf {
        self.root
            .join(format!("t{idx}@{}-{}.json", entry.ver, entry.hash))
    }

    fn has_payload(&self, idx: usize, entry: &TensorVersion) -> bool {
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

    /// Adopt `manifest` as the new head: flip `head.json` atomically
    /// (same tmp + rename dance — and the same `core.checkpoint.rename`
    /// fault point — as the classic save, so a crash never leaves a
    /// store without a loadable head), then remove the payloads the new
    /// head dominates.
    fn adopt(&mut self, manifest: Manifest) -> Result<(), CheckpointError> {
        let tmp = self.root.join("head.json.tmp");
        if let Err(e) = std::fs::write(&tmp, manifest.to_json()) {
            std::fs::remove_file(&tmp).ok();
            return Err(CheckpointError::Io(e));
        }
        if let Err(msg) = geotorch_telemetry::fault_point!("core.checkpoint.rename") {
            std::fs::remove_file(&tmp).ok();
            return Err(CheckpointError::Format(format!(
                "injected fault between staging write and head flip: {msg}"
            )));
        }
        std::fs::rename(&tmp, self.root.join("head.json")).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            CheckpointError::Io(e)
        })?;
        self.remove_dominated(&manifest);
        self.head = Some(manifest);
        Ok(())
    }

    /// Best effort: delete every payload file `head` dominates — older
    /// versions, same-version losers, and indices the model does not
    /// have. A file that fails to go stays until the next head change.
    fn remove_dominated(&mut self, head: &Manifest) {
        let Ok(files) = self.payload_files() else {
            return;
        };
        for (path, idx, entry) in files {
            let dominated = head.entries.get(idx).is_none_or(|h| entry.dominated_by(h));
            if dominated && std::fs::remove_file(&path).is_ok() {
                self.retained -= 1;
                RETAINED.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Publish a full state dict: hash every tensor, bump the version of
    /// (and write payloads for) only the tensors whose content changed,
    /// and adopt the new manifest as head. The first publish writes
    /// everything; republishing the head's content writes nothing. A
    /// state holding NaN or an infinity is a [`CheckpointError::Format`]
    /// error before any file is written: its payload would never load
    /// on a peer.
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
        if let Some(head) = self.head.as_ref().filter(|_| changed.is_empty()) {
            // The head already describes these exact bytes.
            return Ok(PublishReport {
                id: head.id.clone(),
                changed,
                delta_bytes: 0,
            });
        }
        let mut delta_bytes = 0u64;
        for &i in &changed {
            let bytes = json::to_string(&state[i]);
            delta_bytes += bytes.len() as u64;
            self.write_payload(i, &entries[i], bytes.as_bytes())?;
        }
        let shapes: Vec<Vec<usize>> = state.iter().map(|t| t.shape().to_vec()).collect();
        let manifest = Manifest::build(self.model.clone(), shapes, entries);
        let id = manifest.id.clone();
        self.adopt(manifest)?;
        geotorch_telemetry::count!("registry.publish", 1);
        Ok(PublishReport {
            id,
            changed,
            delta_bytes,
        })
    }

    /// Integrate a peer's manifest: the head becomes the entrywise
    /// winners of the local head and `remote`. `fetch` is called for
    /// every winning entry whose payload is not already local and must
    /// return the payload bytes as stored on the peer; fetched payloads
    /// are verified against the entry's content hash before anything is
    /// adopted. On any error the head is untouched.
    pub fn integrate<F>(
        &mut self,
        remote: &Manifest,
        mut fetch: F,
    ) -> Result<IntegrateReport, CheckpointError>
    where
        F: FnMut(usize, &TensorVersion) -> Result<Vec<u8>, CheckpointError>,
    {
        if remote.model != self.model {
            return Err(CheckpointError::WrongModel {
                saved: remote.model.clone(),
                expected: self.model.clone(),
            });
        }
        // Entrywise winners under the symmetric order.
        let merged: Vec<TensorVersion> = match &self.head {
            None => remote.entries.clone(),
            Some(head) if head.shapes != remote.shapes => {
                return Err(CheckpointError::Format(
                    "remote manifest has different tensor shapes".to_string(),
                ));
            }
            Some(head) => head
                .entries
                .iter()
                .zip(&remote.entries)
                .map(|(a, b)| TensorVersion::winner(a, b).clone())
                .collect(),
        };
        let changed: Vec<usize> = (0..merged.len())
            .filter(|&i| self.head.as_ref().is_none_or(|h| h.entries[i] != merged[i]))
            .collect();
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
        for (i, bytes) in &pending {
            self.write_payload(*i, &merged[*i], bytes)?;
        }
        let advanced = self.head.as_ref().is_none_or(|h| h.entries != merged);
        if advanced {
            self.adopt(Manifest::build(
                self.model.clone(),
                remote.shapes.clone(),
                merged,
            ))?;
        }
        Ok(IntegrateReport {
            id: self.head.as_ref().expect("head exists after integrate").id.clone(),
            changed,
            fetched,
            fetched_bytes,
            advanced,
        })
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

    /// Serialises the tests that open stores, so the process-wide
    /// `registry.tensor_versions` gauge counts one test's stores only.
    fn stores_lock() -> std::sync::MutexGuard<'static, ()> {
        static STORES: std::sync::Mutex<()> = std::sync::Mutex::new(());
        STORES.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geotorch_delta_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The sorted file names in `dir`.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// The file name of the head's payload for tensor `i`.
    fn head_payload(store: &DeltaStore, i: usize) -> String {
        let e = &store.head().unwrap().entries[i];
        format!("t{i}@{}-{}.json", e.ver, e.hash)
    }

    /// What a store holds when nothing is left to collect: `head.json`
    /// plus exactly one payload per head entry.
    fn head_files(store: &DeltaStore) -> Vec<String> {
        let n = store.head().unwrap().entries.len();
        let mut names: Vec<String> = (0..n).map(|i| head_payload(store, i)).collect();
        names.push("head.json".to_string());
        names.sort();
        names
    }

    fn tensor_versions_gauge() -> u64 {
        geotorch_telemetry::snapshot()
            .into_iter()
            .find(|s| s.name == "registry.tensor_versions")
            .expect("the gauge is registered once a store opens")
            .count
    }

    fn payload_count(dirs: &[&Path]) -> u64 {
        dirs.iter()
            .flat_map(|d| files(d))
            .filter(|n| parse_payload_name(n).is_some())
            .count() as u64
    }

    /// A manifest JSON whose single entry carries `ver` verbatim, with
    /// the id the content hashes to — so only the `ver` check can refuse
    /// it.
    fn manifest_json(ver: &str, as_u64: u64) -> String {
        let hash = tensor_hash(&Tensor::zeros(&[2]));
        let entry = TensorVersion {
            ver: as_u64,
            hash: hash.clone(),
        };
        let id = Manifest::compute_id("m", &[vec![2]], &[entry]);
        format!(
            r#"{{"format":"{FORMAT_MARKER}","version":{MANIFEST_VERSION},"model":"m","id":"{id}","shapes":[[2]],"entries":[{{"ver":{ver},"hash":"{hash}"}}]}}"#
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
        let _g = stores_lock();
        let dir = fresh_dir("nan");
        let mut store = DeltaStore::open(&dir, "m").unwrap();
        let state = vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[4])];
        store.publish(&state).unwrap();
        let head = store.head().cloned();
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
        let store = DeltaStore::open(&dir, "m").unwrap();
        assert_eq!(store.materialize().unwrap(), state);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_ids_and_hashes_must_be_content_hashes() {
        let good = Manifest::build(
            "m".into(),
            vec![vec![2]],
            vec![TensorVersion {
                ver: 1,
                hash: tensor_hash(&Tensor::zeros(&[2])),
            }],
        );
        Manifest::from_json(&good.to_json()).expect("a well-formed manifest parses");
        for id in ["../../head", "0123456789ABCDEF", "0123456789abcdef0", ""] {
            let evil = Manifest {
                id: id.into(),
                ..good.clone()
            };
            let err = Manifest::from_json(&evil.to_json());
            assert!(
                matches!(&err, Err(CheckpointError::Format(m)) if m.contains("16-hex-digit")),
                "id {id:?}: {err:?}"
            );
        }
        let evil = Manifest::build(
            "m".into(),
            good.shapes.clone(),
            vec![TensorVersion {
                ver: 1,
                hash: "../t0".into(),
            }],
        );
        assert!(Manifest::from_json(&evil.to_json()).is_err());
    }

    #[test]
    fn every_head_change_removes_the_payloads_it_dominates() {
        let _g = stores_lock();
        let (dir_a, dir_b) = (fresh_dir("gc_a"), fresh_dir("gc_b"));
        let mut a = DeltaStore::open(&dir_a, "m").unwrap();
        let base = vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[4])];
        a.publish(&base).unwrap();
        let superseded = head_payload(&a, 1);
        assert!(superseded.starts_with("t1@1-"), "{superseded}");
        assert_eq!(tensor_versions_gauge(), payload_count(&[&dir_a]));

        // A publish that changes one tensor drops that tensor's old payload.
        let mut tuned = base.clone();
        tuned[1] = tuned[1].add_scalar(1.0);
        a.publish(&tuned).unwrap();
        assert_eq!(files(&dir_a), head_files(&a));
        assert!(!files(&dir_a).contains(&superseded));
        assert_eq!(tensor_versions_gauge(), payload_count(&[&dir_a]));

        // B bootstraps from A, then both publish a same-version conflict
        // on tensor 1; one pull each way leaves each store with its head's
        // payloads only, so the local loser is gone wherever it was.
        let mut b = DeltaStore::open(&dir_b, "m").unwrap();
        b.integrate(&a.head().unwrap().clone(), |i, e| a.payload_bytes(i, e))
            .unwrap();
        let mut on_a = tuned.clone();
        on_a[1] = on_a[1].add_scalar(1.0);
        let mut on_b = tuned.clone();
        on_b[1] = on_b[1].add_scalar(2.0);
        a.publish(&on_a).unwrap();
        b.publish(&on_b).unwrap();
        let losers = [&a, &b].map(|s| head_payload(s, 1));
        assert_eq!(tensor_versions_gauge(), payload_count(&[&dir_a, &dir_b]));
        b.integrate(&a.head().unwrap().clone(), |i, e| a.payload_bytes(i, e))
            .unwrap();
        a.integrate(&b.head().unwrap().clone(), |i, e| b.payload_bytes(i, e))
            .unwrap();
        assert_eq!(a.head(), b.head());
        let winner = head_payload(&a, 1);
        assert!(losers.contains(&winner));
        for (store, dir) in [(&a, &dir_a), (&b, &dir_b)] {
            assert_eq!(files(dir), head_files(store));
        }
        assert_eq!(tensor_versions_gauge(), payload_count(&[&dir_a, &dir_b]));

        drop((a, b));
        assert_eq!(tensor_versions_gauge(), 0);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
