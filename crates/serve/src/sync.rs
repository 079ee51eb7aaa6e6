//! Delta checkpoint sync between serving nodes.
//!
//! The wire protocol is three HTTP routes on the peer (served by this
//! crate's own front, so any two servers can sync from each other):
//!
//! * `GET /models/<name>/manifest` — the peer's head [`Manifest`] JSON.
//! * `GET /models/<name>/tensors/<idx>@<ver>-<hash>` — one tensor
//!   payload, the exact bytes the peer's [`DeltaStore`] holds (shipped
//!   verbatim so payload files stay byte-identical across nodes).
//! * `POST /models/<name>/sync` — ask a node to pull from a peer.
//!
//! [`sync_store`] drives one pull: fetch the peer's manifest, then let
//! [`DeltaStore::integrate`] decide the winners and fetch only the
//! payloads that are missing locally — O(changed tensors) bytes, not
//! O(checkpoint). Every fetched payload is hash- and shape-verified
//! before the head moves; on any failure the local head (and therefore
//! the serving model) is untouched, and a retry after the fault clears
//! converges.
//!
//! Fault points for chaos tests: `registry.sync.manifest` (manifest
//! fetch), `registry.sync.tensor` (each payload fetch), and
//! `registry.sync.apply` (the integrate window). The swap window has
//! its own hook (`registry.sync.swap`) in the batcher.
//!
//! Bytes pulled over the wire (manifests + payloads) are counted as
//! `registry.sync_bytes`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use geotorch_core::checkpoint::CheckpointError;
use geotorch_core::{DeltaStore, IntegrateReport, Manifest, TensorVersion};

use crate::ServeError;

/// Per-request read and write timeout of a [`SyncClient`].
const TIMEOUT: Duration = Duration::from_secs(10);

/// A minimal HTTP/1.1 client for the sync routes of one peer node.
pub struct SyncClient {
    addr: String,
}

impl SyncClient {
    /// A client for the peer at `addr` (`host:port`) with a 10 s
    /// per-request timeout.
    pub fn new(addr: &str) -> SyncClient {
        SyncClient {
            addr: addr.to_string(),
        }
    }

    /// The peer address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn get(&self, path: &str) -> Result<(u16, Vec<u8>), ServeError> {
        let unavailable =
            |e: std::io::Error| ServeError::Unavailable(format!("peer {}: {e}", self.addr));
        let mut stream = TcpStream::connect(&self.addr).map_err(unavailable)?;
        stream.set_read_timeout(Some(TIMEOUT)).ok();
        stream.set_write_timeout(Some(TIMEOUT)).ok();
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n", self.addr);
        stream.write_all(request.as_bytes()).map_err(unavailable)?;
        // `Connection: close` means the body ends at EOF — no chunked
        // parsing needed for a same-crate peer.
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(unavailable)?;
        let header_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| {
                ServeError::Unavailable(format!("peer {}: truncated HTTP response", self.addr))
            })?;
        let head = String::from_utf8_lossy(&raw[..header_end]);
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                ServeError::Unavailable(format!("peer {}: bad status line", self.addr))
            })?;
        Ok((status, raw[header_end + 4..].to_vec()))
    }

    /// Fetch the peer's head manifest for `model`. Chaos hook:
    /// `registry.sync.manifest`.
    pub fn fetch_manifest(&self, model: &str) -> Result<Manifest, ServeError> {
        if let Err(msg) = geotorch_telemetry::fault_point!("registry.sync.manifest") {
            return Err(ServeError::Unavailable(format!(
                "injected manifest-fetch fault: {msg}"
            )));
        }
        let (status, body) = self.get(&format!("/models/{model}/manifest"))?;
        if status != 200 {
            return Err(ServeError::Unavailable(format!(
                "peer {} answered {status} for {model} manifest",
                self.addr
            )));
        }
        geotorch_telemetry::count!("registry.sync_bytes", body.len() as u64);
        let text = std::str::from_utf8(&body).map_err(|e| {
            ServeError::Internal(format!("peer manifest is not utf-8: {e}"))
        })?;
        Manifest::from_json(text)
            .map_err(|e| ServeError::Internal(format!("peer manifest: {e}")))
    }

    /// Fetch one tensor payload (the peer's exact stored bytes). Chaos
    /// hook: `registry.sync.tensor`.
    pub fn fetch_tensor(
        &self,
        model: &str,
        idx: usize,
        entry: &TensorVersion,
    ) -> Result<Vec<u8>, ServeError> {
        if let Err(msg) = geotorch_telemetry::fault_point!("registry.sync.tensor") {
            return Err(ServeError::Unavailable(format!(
                "injected tensor-fetch fault: {msg}"
            )));
        }
        let (status, body) = self.get(&format!(
            "/models/{model}/tensors/{idx}@{}-{}",
            entry.ver, entry.hash
        ))?;
        if status != 200 {
            return Err(ServeError::Unavailable(format!(
                "peer {} answered {status} for {model} tensor {idx}@{}-{}",
                self.addr, entry.ver, entry.hash
            )));
        }
        geotorch_telemetry::count!("registry.sync_bytes", body.len() as u64);
        Ok(body)
    }
}

/// Pull the peer's head into `store`: fetch the manifest, integrate it
/// (fetching only the payloads missing locally), and return what moved.
/// On any failure the local head is untouched — the caller keeps
/// serving the old weights and may simply retry. Chaos hook on the
/// integrate window: `registry.sync.apply`.
pub fn sync_store(
    store: &mut DeltaStore,
    peer: &SyncClient,
    model: &str,
) -> Result<IntegrateReport, ServeError> {
    let remote = peer.fetch_manifest(model)?;
    if let Err(msg) = geotorch_telemetry::fault_point!("registry.sync.apply") {
        return Err(ServeError::Unavailable(format!(
            "injected sync-apply fault: {msg}"
        )));
    }
    store
        .integrate(&remote, |idx, entry| {
            peer.fetch_tensor(model, idx, entry)
                .map_err(|e| CheckpointError::Format(e.to_string()))
        })
        .map_err(|e| ServeError::Internal(format!("integrate from {}: {e}", peer.addr())))
}
