//! Regression check that disarmed fault points are actually free: no
//! heap allocation and no measurable latency. This file is its own test
//! binary so the `#[global_allocator]` accounting is not polluted by
//! unrelated tests running in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Tracks live and peak heap bytes for this test binary.
struct CountingAllocator {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAllocator {
    /// Peak live bytes since the last reset.
    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the peak to the current live size and return the live size.
    fn reset_peak(&self) -> usize {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = self.live.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

#[test]
fn disarmed_fault_points_allocate_nothing_and_cost_nanoseconds() {
    // Make sure nothing armed the registry earlier in this process.
    geotorch_telemetry::fault::clear();
    assert!(!geotorch_telemetry::fault::armed());

    // Touch the macro once so any lazy one-time setup is outside the
    // measured window.
    let _ = geotorch_telemetry::fault_point!("bench.fault.overhead");

    let live_before = ALLOC.reset_peak();
    let started = Instant::now();
    for _ in 0..1_000_000 {
        let r = geotorch_telemetry::fault_point!("bench.fault.overhead");
        assert!(r.is_ok());
    }
    let elapsed = started.elapsed();
    let peak_growth = ALLOC.peak().saturating_sub(live_before);

    // A disarmed point is one relaxed atomic load; a million of them is
    // sub-millisecond on any modern core. 500 ms leaves two orders of
    // magnitude of headroom for slow CI.
    assert!(
        elapsed < Duration::from_millis(500),
        "1M disarmed fault points took {elapsed:?}"
    );
    // The loop itself must not allocate. The test harness may touch the
    // heap from its own bookkeeping, so allow a small fixed tolerance
    // rather than demanding exactly zero.
    assert!(
        peak_growth <= 16 << 10,
        "disarmed fault points grew the heap by {peak_growth} bytes"
    );
}
