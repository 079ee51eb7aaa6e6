//! Steady-state allocation regression for the transform pipeline,
//! mirroring the training/serving budgets of `geotorch-core`'s
//! `alloc_regression.rs`: after a
//! warm-up pass populates the pool's size classes, a chained augment +
//! index pipeline must run entirely from recycled buffers. The small
//! budget absorbs one-off wobble; it fails loudly if a transform
//! regresses to fresh allocation per call.
//!
//! Pool stats are process-wide, so every test here takes the `serial()`
//! gate: a concurrent test's acquisitions would count against another's.
//!
//! Geometry note: the raster is 3 bands of 64×64 (12288 floats) and the
//! append/delete steps briefly grow it to 4 bands (16384 floats) — both
//! sizes are served by the same pow2 size class (2^14), so the chained
//! pipeline can be literally allocation-free once warm.

use geotorch_raster::transforms::{
    AppendNormalizedDifferenceIndex, ChannelJitter, Compose, DeleteBand, HorizontalFlip,
    NormalizeAll, RasterTransform, Rotate90, VerticalFlip,
};
use geotorch_raster::{Raster, Window};
use geotorch_tensor::pool;
use std::sync::{Mutex, MutexGuard};

const MISS_BUDGET: u64 = 8;

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn scene() -> Raster {
    let (bands, h, w) = (3usize, 64usize, 64usize);
    let data: Vec<f32> = (0..bands * h * w)
        .map(|i| ((i as f32 * 0.37).sin() + 1.5) * 0.25)
        .collect();
    Raster::new(data, bands, h, w).unwrap()
}

fn pipeline() -> Compose {
    Compose::new()
        .add(AppendNormalizedDifferenceIndex::new(0, 1))
        .add(NormalizeAll)
        .add(DeleteBand::new(3))
        .add(HorizontalFlip)
        .add(VerticalFlip)
        .add(Rotate90::new(1))
        .add(Rotate90::new(3))
        .add(ChannelJitter::new(42, 0.05))
}

#[test]
fn chained_transform_pipeline_is_steady_state_allocation_free() {
    let _g = serial();
    let chain = pipeline();
    let mut raster = scene();

    // Warm-up: two passes populate every size class the chain touches
    // (band-grown raster, normalized-difference scratch, rotation
    // scratch, the clone made by `apply`).
    for _ in 0..2 {
        chain.apply_mut(&mut raster).unwrap();
        let _ = chain.apply(&raster).unwrap();
    }

    let before = pool::stats();
    for _ in 0..32 {
        chain.apply_mut(&mut raster).unwrap();
    }
    let after = pool::stats();

    let misses = after.misses - before.misses;
    let hits = after.hits - before.hits;
    eprintln!("transform steady state: {hits} pool hits, {misses} misses (budget {MISS_BUDGET})");
    assert!(
        misses <= MISS_BUDGET,
        "steady-state transform chain allocated fresh buffers {misses} times \
         (budget {MISS_BUDGET}, hits {hits}) — a transform stopped recycling"
    );
    // The budget only means something if the chain actually recycles.
    assert!(
        hits >= 32,
        "expected the chain to acquire scratch from the pool every pass, saw {hits} hits"
    );
    assert_eq!(raster.bands(), 3);
    assert_eq!((raster.height(), raster.width()), (64, 64));
}

#[test]
fn cloning_apply_path_recycles_the_clone() {
    let _g = serial();
    let chain = pipeline();
    let raster = scene();

    for _ in 0..2 {
        let _ = chain.apply(&raster).unwrap();
    }

    let before = pool::stats();
    for _ in 0..16 {
        // `apply` clones (pooled), runs the chain in place, and the
        // result's Drop shelves the buffer for the next iteration.
        let out = chain.apply(&raster).unwrap();
        assert_eq!(out.bands(), raster.bands());
    }
    let after = pool::stats();

    let misses = after.misses - before.misses;
    assert!(
        misses <= MISS_BUDGET,
        "apply() clone path allocated fresh buffers {misses} times (budget {MISS_BUDGET})"
    );
}

/// A tile read moves its pooled window buffer into the tensor: one pool
/// acquisition per call, not a buffer plus a copy of it.
#[test]
fn read_window_tensor_takes_one_pool_buffer_per_call() {
    let _g = serial();
    const CALLS: u64 = 16;
    let raster = Raster::new(vec![0.25; 3 * 192 * 192], 3, 192, 192).unwrap();
    let window = Window::new(32, 48, 128, 128);
    for _ in 0..2 {
        raster.read_window_tensor(&window).unwrap();
    }

    let before = pool::stats();
    for _ in 0..CALLS {
        let tile = raster.read_window_tensor(&window).unwrap();
        assert_eq!(tile.shape(), &[3, 128, 128]);
    }
    let after = pool::stats();

    let taken = (after.hits + after.misses) - (before.hits + before.misses);
    assert_eq!(
        taken, CALLS,
        "{CALLS} warmed 3x128x128 window reads took {taken} pool buffers; one each expected"
    );
}
