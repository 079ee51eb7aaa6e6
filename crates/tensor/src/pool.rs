//! A thread-safe size-class buffer pool — the caching-allocator analogue
//! PyTorch uses to keep training loops off `malloc`.
//!
//! Every tensor buffer in this crate is a [`Buffer`] wrapping a
//! `Vec<f32>`. Buffers are acquired through [`alloc_uninit`] /
//! [`alloc_zeroed`] / [`alloc_filled`] and, when the last `Arc<Buffer>`
//! handle drops, their backing vector is *released* back to the pool
//! instead of freed. The pool keeps freed vectors on power-of-two
//! size-class shelves: a request for `len` elements rounds up to the
//! next class and pops that shelf, so any recycled vector is guaranteed
//! to have enough capacity. Only a vector whose capacity *is* a class
//! size is shelved — any other, typically a caller's own `vec!`, is
//! freed, since no request for its own length would ever find it. After a training loop
//! or serving pipeline has warmed up, steady-state allocation becomes
//! shelf pop + `resize` — no heap traffic.
//!
//! Safety: recycling never touches uninitialised memory. A recycled
//! vector is re-lengthed with safe `Vec::resize`/`truncate` calls, so
//! "uninit" allocation merely means *stale but valid* `f32` contents;
//! callers of [`alloc_uninit`] must overwrite every element (the kernels
//! that use it write the full output), while [`alloc_zeroed`] /
//! [`alloc_filled`] always produce defined contents.
//!
//! The pool is global and lock-striped per size class (one short-lived
//! `Mutex` around a shelf `Vec`), so worker threads recycle without
//! contending on a single lock. Idle bytes are capped
//! ([`MAX_POOLED_BYTES`]): past the cap, released vectors are simply
//! freed.
//!
//! Counters ([`stats`]) are always-on relaxed atomics; they are also
//! registered as `geotorch-telemetry` gauges (`alloc.pool_hit`,
//! `alloc.pool_miss`, `alloc.bytes`, `alloc.bytes_in_use`,
//! `alloc.high_water_bytes`, `alloc.pooled_bytes`) so profile snapshots
//! and serve's `/metrics` endpoint report allocator health without any
//! extra wiring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

/// Shelves cover classes `2^0 ..= 2^MAX_CLASS_LOG2` elements. Larger
/// allocations (256 Mi elements = 1 GiB) bypass the pool.
const MAX_CLASS_LOG2: u32 = 28;
const NUM_CLASSES: usize = MAX_CLASS_LOG2 as usize + 1;

/// Cap on *idle* pooled bytes across all shelves. Releases past the cap
/// free their vector instead of shelving it.
const MAX_POOLED_BYTES: u64 = 1 << 30;

static SHELVES: [Mutex<Vec<Vec<f32>>>; NUM_CLASSES] =
    [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes of fresh (non-recycled) vector allocations.
static FRESH_BYTES: AtomicU64 = AtomicU64::new(0);
/// Capacity bytes currently held by live [`Buffer`]s.
static BYTES_IN_USE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`BYTES_IN_USE`].
static HIGH_WATER: AtomicU64 = AtomicU64::new(0);
/// Capacity bytes sitting idle on the shelves.
static POOLED_BYTES: AtomicU64 = AtomicU64::new(0);

static REGISTER_GAUGES: Once = Once::new();

/// A snapshot of the pool counters (see [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served by recycling a shelved vector.
    pub hits: u64,
    /// Allocations that had to touch the heap.
    pub misses: u64,
    /// Cumulative bytes of fresh heap allocations.
    pub fresh_bytes: u64,
    /// Capacity bytes currently held by live buffers.
    pub bytes_in_use: u64,
    /// High-water mark of `bytes_in_use`.
    pub high_water_bytes: u64,
    /// Capacity bytes idle on the shelves, ready for reuse.
    pub pooled_bytes: u64,
}

/// Current pool counters. Hit/miss/fresh-byte counts are cumulative
/// (never reset by recycling); `bytes_in_use` tracks live buffers.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        fresh_bytes: FRESH_BYTES.load(Ordering::Relaxed),
        bytes_in_use: BYTES_IN_USE.load(Ordering::Relaxed),
        high_water_bytes: HIGH_WATER.load(Ordering::Relaxed),
        pooled_bytes: POOLED_BYTES.load(Ordering::Relaxed),
    }
}

fn cap_bytes(v: &Vec<f32>) -> u64 {
    (v.capacity() * std::mem::size_of::<f32>()) as u64
}

/// Size class an allocation of `len` elements is served from: the
/// smallest power of two ≥ `len`. `None` for huge requests that bypass
/// the pool.
fn class_for_len(len: usize) -> Option<usize> {
    if len > 1 << MAX_CLASS_LOG2 {
        return None;
    }
    let class = len.max(1).next_power_of_two().trailing_zeros();
    Some(class as usize)
}

/// Shelf a freed vector of `capacity` elements belongs on: `log2` of a
/// power-of-two capacity — every vector the pool makes has one — so a
/// vector on shelf `c` serves exactly the requests of class `c`, its own
/// length's among them. `None` for any other capacity: shelved by
/// `floor(log2)` a foreign vector would sit one class below its own
/// length's, where no request of that length looks, so it is freed.
fn class_for_capacity(capacity: usize) -> Option<usize> {
    let class = capacity.trailing_zeros();
    (capacity.is_power_of_two() && class <= MAX_CLASS_LOG2).then_some(class as usize)
}

fn note_fresh(len: usize) {
    MISSES.fetch_add(1, Ordering::Relaxed);
    FRESH_BYTES.fetch_add((len * std::mem::size_of::<f32>()) as u64, Ordering::Relaxed);
}

/// Pop a recycled vector for `len` elements, or `None` on a pool miss.
/// The returned vector has length exactly `len` and stale contents.
fn try_recycle(len: usize) -> Option<Vec<f32>> {
    let class = class_for_len(len)?;
    let mut v = {
        let mut shelf = SHELVES[class].lock().unwrap_or_else(|e| e.into_inner());
        shelf.pop()?
    };
    POOLED_BYTES.fetch_sub(cap_bytes(&v), Ordering::Relaxed);
    HITS.fetch_add(1, Ordering::Relaxed);
    debug_assert!(v.capacity() >= len);
    // Safe re-length: shrink with truncate, grow (within capacity) with
    // resize. The fill value is only written to grown elements.
    if v.len() > len {
        v.truncate(len);
    } else {
        v.resize(len, 0.0);
    }
    Some(v)
}

/// A vector of `len` elements with *unspecified* (stale but valid)
/// contents. Callers must overwrite every element. Falls back to a
/// zero-filled fresh vector on a pool miss.
pub fn alloc_uninit(len: usize) -> Vec<f32> {
    if let Some(v) = try_recycle(len) {
        return v;
    }
    note_fresh(len);
    fresh_vec(len, 0.0)
}

/// A vector of `len` zeros.
pub fn alloc_zeroed(len: usize) -> Vec<f32> {
    alloc_filled(len, 0.0)
}

/// A vector of `len` copies of `value`.
pub fn alloc_filled(len: usize, value: f32) -> Vec<f32> {
    if let Some(mut v) = try_recycle(len) {
        v.fill(value);
        return v;
    }
    note_fresh(len);
    fresh_vec(len, value)
}

/// A pooled copy of `src`.
pub fn alloc_copy(src: &[f32]) -> Vec<f32> {
    if let Some(mut v) = try_recycle(src.len()) {
        v.copy_from_slice(src);
        return v;
    }
    note_fresh(src.len());
    let mut v = fresh_with_capacity(src.len());
    v.extend_from_slice(src);
    v
}

/// Fresh vector rounded up to its size class so it recycles cleanly.
fn fresh_vec(len: usize, value: f32) -> Vec<f32> {
    let mut v = fresh_with_capacity(len);
    v.resize(len, value);
    v
}

fn fresh_with_capacity(len: usize) -> Vec<f32> {
    let capacity = match class_for_len(len) {
        Some(class) => 1usize << class,
        None => len,
    };
    Vec::with_capacity(capacity)
}

/// Return a vector to the pool, or free it: its capacity is not a power
/// of two (a vector the pool did not make) or is oversized, or the
/// idle-byte cap is reached.
pub fn release(v: Vec<f32>) {
    let Some(class) = class_for_capacity(v.capacity()) else {
        return;
    };
    let bytes = cap_bytes(&v);
    if POOLED_BYTES.load(Ordering::Relaxed) + bytes > MAX_POOLED_BYTES {
        return;
    }
    POOLED_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let mut shelf = SHELVES[class].lock().unwrap_or_else(|e| e.into_inner());
    shelf.push(v);
}

fn track_live_add(capacity: usize) {
    let bytes = (capacity * std::mem::size_of::<f32>()) as u64;
    let now = BYTES_IN_USE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    HIGH_WATER.fetch_max(now, Ordering::Relaxed);
}

fn track_live_sub(capacity: usize) {
    let bytes = (capacity * std::mem::size_of::<f32>()) as u64;
    BYTES_IN_USE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Register the pool counters as telemetry gauges (idempotent; called
/// from every `Buffer` constructor so any tensor-using binary gets the
/// stats in its snapshots).
fn register_gauges() {
    REGISTER_GAUGES.call_once(|| {
        geotorch_telemetry::register_gauge("alloc.pool_hit", || {
            HITS.load(Ordering::Relaxed)
        });
        geotorch_telemetry::register_gauge("alloc.pool_miss", || {
            MISSES.load(Ordering::Relaxed)
        });
        geotorch_telemetry::register_gauge("alloc.bytes", || {
            FRESH_BYTES.load(Ordering::Relaxed)
        });
        geotorch_telemetry::register_gauge("alloc.bytes_in_use", || {
            BYTES_IN_USE.load(Ordering::Relaxed)
        });
        geotorch_telemetry::register_gauge("alloc.high_water_bytes", || {
            HIGH_WATER.load(Ordering::Relaxed)
        });
        geotorch_telemetry::register_gauge("alloc.pooled_bytes", || {
            POOLED_BYTES.load(Ordering::Relaxed)
        });
    });
}

/// The storage behind every [`crate::Tensor`]: a `Vec<f32>` whose
/// lifecycle routes through the size-class pool. Dropping a `Buffer`
/// shelves its vector for reuse; cloning one (the copy-on-write path
/// under `Arc::make_mut`) fills a recycled vector instead of a fresh
/// allocation.
pub struct Buffer {
    data: Vec<f32>,
}

impl Buffer {
    /// Wrap an existing vector (e.g. caller-built data). The vector
    /// joins the pool's lifecycle: its capacity is tracked as live and
    /// it is shelved on drop.
    pub fn from_vec(data: Vec<f32>) -> Buffer {
        register_gauges();
        track_live_add(data.capacity());
        Buffer { data }
    }

    /// A buffer of `len` elements with unspecified contents (see
    /// [`alloc_uninit`]).
    pub fn uninit(len: usize) -> Buffer {
        Buffer::from_vec(alloc_uninit(len))
    }

    /// A zero-filled buffer.
    pub fn zeroed(len: usize) -> Buffer {
        Buffer::from_vec(alloc_zeroed(len))
    }

    /// A buffer of `len` copies of `value`.
    pub fn filled(len: usize, value: f32) -> Buffer {
        Buffer::from_vec(alloc_filled(len, value))
    }

    /// A pooled copy of a slice.
    pub fn copied_from(src: &[f32]) -> Buffer {
        Buffer::from_vec(alloc_copy(src))
    }

    /// Extract the vector, removing it from the pool's lifecycle (it
    /// will not be shelved when the caller drops it).
    pub fn into_vec(mut self) -> Vec<f32> {
        let v = std::mem::take(&mut self.data);
        track_live_sub(v.capacity());
        v
    }

    /// Mutable view of the elements.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        let v = std::mem::take(&mut self.data);
        track_live_sub(v.capacity());
        release(v);
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Buffer {
        geotorch_telemetry::count!("alloc.cow_copy", 1);
        Buffer::copied_from(&self.data)
    }
}

impl std::ops::Deref for Buffer {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Buffer")
            .field("len", &self.data.len())
            .field("capacity", &self.data.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_trip() {
        assert_eq!(class_for_len(1), Some(0));
        assert_eq!(class_for_len(2), Some(1));
        assert_eq!(class_for_len(3), Some(2));
        assert_eq!(class_for_len(1024), Some(10));
        assert_eq!(class_for_len(1025), Some(11));
        assert_eq!(class_for_len(usize::MAX), None);
        assert_eq!(class_for_capacity(0), None);
        assert_eq!(class_for_capacity(1), Some(0));
        assert_eq!(class_for_capacity(1023), None);
        assert_eq!(class_for_capacity(1024), Some(10));
        assert_eq!(class_for_capacity(1 << (MAX_CLASS_LOG2 + 1)), None);
        // Invariant: a vector shelved by capacity class always has
        // enough room for any request routed to that class.
        for len in [1usize, 2, 3, 7, 100, 1 << 12] {
            let shelf = class_for_len(len).unwrap();
            assert!(1usize << shelf >= len);
        }
    }

    #[test]
    fn recycles_and_counts() {
        let before = stats();
        let v = alloc_zeroed(4000);
        let cap = v.capacity();
        assert!(cap >= 4000);
        release(v);
        // Same class round-trips through the shelf.
        let v2 = alloc_uninit(3000);
        assert_eq!(v2.len(), 3000);
        let after = stats();
        assert!(v2.capacity() >= 4096);
        assert!(after.hits > before.hits);
        drop(v2);
    }

    #[test]
    fn alloc_filled_overwrites_stale_contents() {
        let mut v = alloc_zeroed(256);
        v.fill(7.0);
        release(v);
        let v2 = alloc_filled(200, 1.5);
        assert!(v2.iter().all(|&x| x == 1.5));
        let v3 = alloc_zeroed(100);
        assert!(v3.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn buffer_lifecycle_tracks_live_bytes() {
        let b = Buffer::zeroed(512);
        let used = stats().bytes_in_use;
        assert!(used >= 512 * 4);
        assert_eq!(b.len(), 512);
        drop(b);
        assert!(stats().bytes_in_use < used);
    }

    #[test]
    fn into_vec_escapes_pool() {
        let b = Buffer::filled(64, 2.0);
        let v = b.into_vec();
        assert_eq!(v.len(), 64);
        assert!(v.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn only_vectors_the_pool_can_hand_back_are_shelved() {
        let shelved = |pred: &dyn Fn(&Vec<f32>) -> bool| {
            SHELVES
                .iter()
                .any(|s| s.lock().unwrap_or_else(|e| e.into_inner()).iter().any(pred))
        };
        // A scene built by its caller: shelved by `floor(log2)` it would sit
        // on class 23, while a request for its own length asks class 24.
        let len = 3 * 2048 * 2048;
        let foreign: Vec<f32> = Vec::with_capacity(len);
        let cap = foreign.capacity();
        assert!(!cap.is_power_of_two());
        drop(Buffer::from_vec(foreign));
        assert!(
            !shelved(&|v| v.capacity() == cap),
            "a foreign vector was shelved"
        );
        // A vector the pool made for the same length comes back to it.
        let made = Buffer::uninit(len);
        let ptr = made.as_ptr();
        drop(made);
        let again = alloc_uninit(len);
        assert_eq!(again.as_ptr(), ptr, "a pool-made vector did not round-trip");
    }

    #[test]
    fn zero_capacity_release_is_ignored() {
        release(Vec::new());
        let empty = Buffer::from_vec(Vec::new());
        drop(empty);
    }
}
