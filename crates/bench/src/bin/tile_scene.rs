//! `tile_scene` — end-to-end large-scene tiled inference scenario.
//!
//! ```sh
//! cargo run --release -p geotorch-bench --bin tile_scene -- [--quick]
//! ```
//!
//! Generates a 4096×4096 three-band synthetic scene, serves a seeded
//! UNet segmenter behind the replica-sharded micro-batcher, and runs the
//! same overlapping tile grid through it twice:
//!
//! * **Phase A (embedded)** — [`geotorch_serve::run_mosaic`] drives the
//!   in-process [`ModelClient`]: bounded in-flight tile submission,
//!   halo-trimmed cores, reorder-buffer stitching into one mosaic.
//! * **Phase B (HTTP)** — per-tile keep-alive `POST /predict/unet`
//!   requests from concurrent clients, with client-side stitching
//!   through the same [`MosaicAccumulator`] geometry.
//!
//! The run fails (non-zero exit) if any tile is shed (429) or misses its
//! deadline (504), if the two mosaics disagree beyond 4 ulps, if the
//! pool high-water mark grows past the configured bound while tiling
//! (the streaming pipeline must not buffer the scene), or if `/metrics`
//! does not expose the `serve.tile.*` series. Throughput and per-tile
//! latency go to `results/tiled_inference.md`.
//!
//! `--quick` keeps the full-size scene but restricts the region of
//! interest to an interior 1024×1024 window (121 tiles instead of
//! ~1850) — the CI smoke configuration.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::SeedableRng;

use geotorch_bench::{markdown_table, LatencySummary};
use geotorch_datasets::synth::RasterScene;
use geotorch_datasets::GridSampler;
use geotorch_models::raster::UNet;
use geotorch_raster::{core_of, BlendMode, MosaicAccumulator, Raster, Window};
use geotorch_serve::{BatchConfig, Registry, ServeConfig, Server, TileConfig};
use geotorch_tensor::{pool, Device, Tensor};

const MODEL: &str = "unet";
const SCENE_SIZE: usize = 4096;
const BANDS: usize = 3;
const TILE: usize = 128;
const STRIDE: usize = 96;
const HALO: usize = 16;
const HTTP_CLIENTS: usize = 4;

/// The tiling pipeline must stream, not buffer: admitting at most
/// `max_in_flight` tiles bounds its working set to the mosaic planes
/// plus a few tiles' worth of scratch, far below the scene itself.
/// 256 MiB gives the batcher's activations ~3x headroom while still
/// catching any regression that accumulates per-tile buffers.
const POOL_GROWTH_BOUND: u64 = 256 << 20;

fn registry() -> Registry {
    let mut registry = Registry::new();
    registry.register_segmenter(MODEL, None, || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        UNet::new(BANDS, 1, 4, &mut rng)
    });
    registry
}

fn tile_config() -> TileConfig {
    TileConfig {
        tile: TILE,
        stride: STRIDE,
        halo: HALO,
        alignment: 4,
        classes: 1,
        max_in_flight: 4,
        tile_deadline: Some(Duration::from_secs(60)),
        blend: BlendMode::Cosine,
    }
}

/// Monotone integer key for f32 ulp distances.
fn ulp_key(x: f32) -> i32 {
    let bits = x.to_bits() as i32;
    if bits < 0 {
        i32::MIN - bits
    } else {
        bits
    }
}

fn max_ulp(a: &[f32], b: &[f32]) -> u32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ulp_key(x).abs_diff(ulp_key(y)))
        .max()
        .unwrap_or(0)
}

/// A keep-alive HTTP/1.1 client: one connection, many requests.
struct KeepAliveClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> KeepAliveClient {
        let stream = TcpStream::connect(addr).expect("connect to server");
        KeepAliveClient { stream, buf: Vec::new() }
    }

    /// POST `body`, reusing the connection; returns (status, body).
    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).expect("send request");
        // Read until the header block is complete, then drain the body
        // by Content-Length, leaving any pipelined leftovers in `buf`.
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 16 << 10];
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let content_length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("Content-Length header");
        while self.buf.len() < header_end + content_length {
            let mut chunk = [0u8; 16 << 10];
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "server closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[header_end..header_end + content_length])
            .to_string();
        self.buf.drain(..header_end + content_length);
        (status, body)
    }
}

struct PhaseResult {
    tiles: usize,
    elapsed: f64,
    latency: LatencySummary,
    mosaic: Raster,
}

/// Phase B: fetch every tile over HTTP with keep-alive clients, then
/// stitch client-side in deterministic window order.
fn run_http_phase(
    addr: SocketAddr,
    scene: &Raster,
    roi: Window,
    cfg: &TileConfig,
) -> PhaseResult {
    let sampler = GridSampler::new(roi, (cfg.tile, cfg.tile), (cfg.stride, cfg.stride))
        .expect("grid geometry");
    let windows: Vec<Window> = sampler.windows().collect();
    let path = format!("/predict/{MODEL}");
    let next = AtomicUsize::new(0);
    type FetchedTile = Option<(Vec<f32>, f64)>;
    let preds: Vec<Mutex<FetchedTile>> = windows.iter().map(|_| Mutex::new(None)).collect();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..HTTP_CLIENTS.min(windows.len()) {
            scope.spawn(|| {
                let mut client = KeepAliveClient::connect(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(window) = windows.get(i) else { break };
                    let tile = scene.read_window_tensor(window).expect("tile read");
                    let payload = serde_json::to_string(&tile).expect("serialize tile");
                    let sent = Instant::now();
                    let (status, body) = client.post(&path, &payload);
                    let secs = sent.elapsed().as_secs_f64();
                    assert_eq!(
                        status, 200,
                        "tile {i} got HTTP {status} — shed or deadline-expired under the \
                         quick-mode tile budget: {body}"
                    );
                    // The response is `{"model": ..., "shape": ..., "data":
                    // ...}`; `Tensor`'s value-based decoder reads the two
                    // tensor fields and ignores the rest.
                    let parsed: Tensor =
                        serde_json::from_str(&body).expect("prediction payload");
                    assert_eq!(parsed.shape(), &[cfg.classes, cfg.tile, cfg.tile]);
                    *preds[i].lock().unwrap() = Some((parsed.as_slice().to_vec(), secs));
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut acc = MosaicAccumulator::new(cfg.classes, roi.height, roi.width, cfg.blend);
    let mut latencies = Vec::with_capacity(windows.len());
    for (window, slot) in windows.iter().zip(&preds) {
        let (data, secs) = slot.lock().unwrap().take().expect("tile fetched");
        latencies.push(secs);
        let pred = Tensor::from_vec(data, &[cfg.classes, cfg.tile, cfg.tile]);
        let core = core_of(window, &roi, cfg.halo);
        acc.add_tile(&window.relative_to(&roi), &core.relative_to(&roi), &pred)
            .expect("stitch tile");
    }
    let mosaic = acc.finalize().expect("full coverage");
    PhaseResult {
        tiles: windows.len(),
        elapsed,
        latency: LatencySummary::from_secs(&latencies),
        mosaic,
    }
}

fn fetch_metrics(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect for metrics");
    let request = format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send metrics request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read metrics");
    response
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    for arg in &args {
        if arg != "--quick" {
            eprintln!("unknown argument `{arg}` (expected --quick)");
            std::process::exit(2);
        }
    }

    pool::set_enabled(true);
    println!("generating {SCENE_SIZE}x{SCENE_SIZE} {BANDS}-band scene...");
    let scene_started = Instant::now();
    let (scene, _) = RasterScene::new(BANDS, SCENE_SIZE, SCENE_SIZE, 11).segmentation_image(1);
    println!("scene ready in {:.1}s", scene_started.elapsed().as_secs_f64());

    let roi = if quick {
        // Interior window: exercises non-zero anchors and clamped edges.
        Window::new(512, 512, 1024, 1024)
    } else {
        scene.extent()
    };
    let cfg = tile_config();
    cfg.validate(&roi).expect("tile geometry");

    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 4,
            device: Device::parallel(),
            queue_bound: 64,
            replicas: 2,
        },
        http_workers: HTTP_CLIENTS,
        enable_telemetry: true,
        default_deadline_ms: 60_000,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry(), config).expect("server starts");
    let addr = server.addr();
    let client = server.client(MODEL).expect("registered model");

    // Warm-up: one small mosaic populates the pool's size classes and
    // the per-replica scratch, so the high-water window below measures
    // the steady-state streaming pipeline, not first-touch growth.
    let warm_roi = Window::new(roi.row, roi.col, 256, 256);
    geotorch_serve::run_mosaic(&client, &scene, warm_roi, cfg).expect("warm-up mosaic");
    let high_water_before = pool::stats().high_water_bytes;

    println!(
        "phase A (embedded): {}x{} roi, tile {TILE}/stride {STRIDE}/halo {HALO}...",
        roi.height, roi.width
    );
    let (mosaic_a, stats_a) =
        geotorch_serve::run_mosaic(&client, &scene, roi, cfg).expect("embedded mosaic");
    let latency_a = LatencySummary::from_secs(
        &stats_a.tile_latencies.iter().map(|d| d.as_secs_f64()).collect::<Vec<_>>(),
    );

    println!("phase B (HTTP): {HTTP_CLIENTS} keep-alive clients, client-side stitching...");
    let phase_b = run_http_phase(addr, &scene, roi, &cfg);

    let high_water_after = pool::stats().high_water_bytes;
    let growth = high_water_after.saturating_sub(high_water_before);

    let metrics = fetch_metrics(addr);
    server.shutdown();

    // --- acceptance gates ---
    let ulp = max_ulp(mosaic_a.as_slice(), phase_b.mosaic.as_slice());
    assert_eq!(mosaic_a.bands(), cfg.classes);
    assert_eq!(
        (mosaic_a.height(), mosaic_a.width()),
        (roi.height, roi.width),
        "mosaic extent must match the roi"
    );
    assert!(
        ulp <= 4,
        "embedded and HTTP mosaics disagree by {ulp} ulps — the pipeline is \
         no longer batch-order independent"
    );
    assert!(
        growth <= POOL_GROWTH_BOUND,
        "pool high-water grew {:.1} MiB while tiling (bound {:.0} MiB) — the \
         streaming pipeline is buffering instead of recycling",
        mib(growth),
        mib(POOL_GROWTH_BOUND)
    );
    for series in ["serve.tile.in_flight", "serve.tile.requests", "serve.tile.stitched"] {
        assert!(
            metrics.contains(series),
            "/metrics is missing `{series}`; got: {metrics}"
        );
    }

    // --- report ---
    let mode = if quick { "quick" } else { "full" };
    let row = |phase: &str, tiles: usize, elapsed: f64, latency: &LatencySummary| {
        vec![
            phase.to_string(),
            tiles.to_string(),
            format!("{:.1}", tiles as f64 / elapsed),
            format!("{:.1}", latency.p50_ms),
            format!("{:.1}", latency.p95_ms),
        ]
    };
    let table = markdown_table(
        &["phase", "tiles", "tiles/s", "tile p50 (ms)", "tile p95 (ms)"],
        &[
            row("A: embedded `run_mosaic`", stats_a.tiles, stats_a.elapsed.as_secs_f64(), &latency_a),
            row("B: HTTP keep-alive + client stitch", phase_b.tiles, phase_b.elapsed, &phase_b.latency),
        ],
    );
    let report = format!(
        "# Tiled inference over a {SCENE_SIZE}x{SCENE_SIZE} scene ({mode} mode)\n\n\
         Scene: {BANDS} bands; roi {}x{} at ({}, {}); tile {TILE}, stride {STRIDE}, halo {HALO}, \
         cosine blending; UNet(base 4) behind the batcher (max_batch 4, 2 replicas, \
         {} in flight).\n\n{table}\n\
         Peak pool bytes: {:.1} MiB total, +{:.1} MiB during tiling \
         (bound {:.0} MiB). Embedded and HTTP mosaics agree within {ulp} ulps.\n",
        roi.height, roi.width, roi.row, roi.col, cfg.max_in_flight,
        mib(high_water_after), mib(growth), mib(POOL_GROWTH_BOUND),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    let report = format!("{report}{}", geotorch_bench::host_stamp());
    std::fs::write("results/tiled_inference.md", &report).expect("write report");
    println!("\n{report}");
    println!("wrote results/tiled_inference.md");
}
