//! Server lifecycle: twenty cycles of start a `Server` with the tile UNet →
//! `run_mosaic` over a small scene → shutdown leave nothing behind. After
//! every cycle the process has the threads and file descriptors it had
//! after the first, and after the last the tensor pool holds no more idle
//! bytes than after the first. Exact counts, no RSS thresholds. One test,
//! alone in its binary, because all three counts are process-global.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use geotorch_datasets::synth::RasterScene;
use geotorch_models::raster::UNet;
use geotorch_raster::{BlendMode, Window};
use geotorch_serve::{run_mosaic, Registry, ServeConfig, Server, TileConfig};
use geotorch_tensor::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(threads, open file descriptors)` of this process.
fn threads_and_fds() -> (usize, usize) {
    let count = |dir: &str| std::fs::read_dir(dir).expect("procfs").count();
    (count("/proc/self/task"), count("/proc/self/fd"))
}

/// One set-up → serve → shutdown, as a user runs it. The scene is the
/// caller's own vector (3·96² floats, not a power of two), dropped at the
/// end of the cycle like any input a user hands in.
fn cycle() {
    let mut registry = Registry::new();
    registry.register_segmenter("unet", None, || {
        UNet::new(3, 1, 4, &mut StdRng::seed_from_u64(7))
    });
    let server =
        Server::start("127.0.0.1:0", registry, ServeConfig::default()).expect("server starts");
    let client = server.client("unet").expect("the registered model");
    let (scene, _) = RasterScene::new(3, 96, 96, 11).segmentation_image(1);
    let config = TileConfig {
        tile: 64,
        stride: 32,
        halo: 16,
        alignment: 4,
        classes: 1,
        max_in_flight: 1,
        tile_deadline: None,
        blend: BlendMode::Cosine,
    };
    let (mosaic, stats) =
        run_mosaic(&client, &scene, Window::new(0, 0, 96, 96), config).expect("mosaic");
    assert_eq!((mosaic.height(), mosaic.width(), stats.tiles), (96, 96, 4));
    drop(client);
    server.shutdown();
}

#[test]
fn twenty_server_cycles_leave_no_threads_fds_or_idle_pool_bytes_behind() {
    // The first cycle starts what outlives a server by design (the
    // parallel device's worker pool) and fills the pool's shelves.
    cycle();
    let baseline = threads_and_fds();
    let pooled = pool::stats().pooled_bytes;
    for i in 2..=20 {
        cycle();
        // A joined thread leaves `/proc/self/task` a moment after `join`
        // returns, so the counts may take that moment to settle.
        let deadline = Instant::now() + Duration::from_secs(5);
        while threads_and_fds() != baseline && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            threads_and_fds(),
            baseline,
            "(threads, fds) after cycle {i} differ from after cycle 1"
        );
    }
    let after = pool::stats().pooled_bytes;
    assert!(
        after <= pooled,
        "idle pool bytes grew from {pooled} after cycle 1 to {after} after cycle 20"
    );
}
