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
//! A fetch that fails — the peer is down, answers a non-200, or sends a
//! response over the 64 MiB cap — is [`ServeError::Unavailable`]
//! (HTTP 503), a retryable failure. That includes the 404 a peer
//! answers for a payload its own head change has just removed: the
//! retry reads the peer's new manifest. A payload that fails
//! verification is [`ServeError::Internal`].
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

use crate::http::MAX_BODY;
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
        // parsing needed for a same-crate peer. Reading one byte past the
        // cap tells an oversized response from one that fits exactly.
        let mut raw = Vec::new();
        stream
            .take(MAX_BODY as u64 + 1)
            .read_to_end(&mut raw)
            .map_err(unavailable)?;
        if raw.len() > MAX_BODY {
            return Err(ServeError::Unavailable(format!(
                "peer {}: response exceeds the {MAX_BODY} byte cap",
                self.addr
            )));
        }
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
/// serving the old weights and may simply retry. A failed fetch returns
/// the fetch's own error. Chaos hook on the integrate window:
/// `registry.sync.apply`.
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
    let mut fetch_error = None;
    store
        .integrate(&remote, |idx, entry| {
            peer.fetch_tensor(model, idx, entry).map_err(|e| {
                let msg = e.to_string();
                fetch_error = Some(e);
                CheckpointError::Format(msg)
            })
        })
        .map_err(|e| {
            fetch_error.unwrap_or_else(|| {
                ServeError::Internal(format!("integrate from {}: {e}", peer.addr()))
            })
        })
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    #[test]
    fn a_response_over_the_cap_fails_the_fetch_as_unavailable() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        // A peer that answers 200 with one body byte more than the cap.
        let peer = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            let mut request = Vec::new();
            let mut byte = [0u8; 1];
            while !request.ends_with(b"\r\n\r\n") && conn.read(&mut byte)? == 1 {
                request.push(byte[0]);
            }
            let mut left = MAX_BODY + 1;
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {left}\r\n\r\n");
            conn.write_all(head.as_bytes())?;
            let chunk = vec![b'0'; 1 << 16];
            while left > 0 {
                let n = left.min(chunk.len());
                conn.write_all(&chunk[..n])?;
                left -= n;
            }
            Ok(())
        });
        let entry = TensorVersion {
            ver: 1,
            hash: "0123456789abcdef".to_string(),
        };
        let err = SyncClient::new(&addr)
            .fetch_tensor("m", 0, &entry)
            .expect_err("an oversized response must fail the fetch");
        assert!(
            matches!(&err, ServeError::Unavailable(m) if m.contains(&MAX_BODY.to_string())),
            "{err}"
        );
        // The client hangs up mid-body, so the peer's last writes may fail.
        peer.join().expect("peer thread").ok();
    }
}
