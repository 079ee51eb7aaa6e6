//! Execution-device selection and the persistent data-parallel worker pool.
//!
//! GeoTorchAI's evaluation compares CPU against GPU training. This
//! reproduction has no GPU, so the same axis is modelled as *serial* versus
//! *data-parallel multicore* execution: [`Device::Cpu`] runs every kernel on
//! the calling thread, while [`Device::Parallel`] fans heavy kernels out
//! across a **persistent worker pool**. The substitution preserves the
//! property under test (a data-parallel backend amortises per-sample work),
//! which is what Figure 9 of the paper measures.
//!
//! # The worker pool
//!
//! Parallel dispatch used to spawn `n` fresh OS threads per kernel call,
//! which priced small kernels out of the parallel path entirely. Instead,
//! a process-wide pool is initialized lazily on the first parallel
//! dispatch and reused for every subsequent one:
//!
//! - **Sizing.** `Device::Parallel(n)` requests `n`-way splitting; the pool
//!   grows on demand to the largest concurrent demand it has seen, capped
//!   at [`MAX_POOL_WORKERS`]. Workers are plain parked threads — idle cost
//!   is one blocked thread each, no spinning.
//! - **Dispatch.** `parallel_for` splits `0..tasks` into contiguous
//!   ranges, *claims* idle workers with a lock-free flag, hands each one a
//!   range, and runs the first range (plus any range it could not claim a
//!   worker for) inline on the calling thread. Claimed workers are woken by
//!   a condvar; dispatch cost is a wakeup, not a thread spawn, and no heap
//!   allocation: the ranges are computed, each worker gets its job as it
//!   is claimed, and the completion count lives on the caller's stack,
//!   which parks until the last job unparks it (`kernel_regression`'s
//!   `parallel_dispatch_allocates_no_more_than_serial`).
//! - **Nesting / deadlock freedom.** Claiming never blocks: if every worker
//!   is busy (for example inside a nested `parallel_for`, or when several
//!   trainer threads dispatch concurrently) the caller simply runs all
//!   ranges serially. Worker threads themselves default to [`Device::Cpu`],
//!   so kernels nested inside a parallel region stay serial rather than
//!   re-entering the pool.
//! - **Panics.** A panicking kernel closure is caught on the worker, the
//!   dispatch drains normally, and the payload is re-thrown on the calling
//!   thread. Workers survive panics and return to the idle set, so the pool
//!   stays usable for the next dispatch.
//!
//! Elementwise kernels guard the parallel path with
//! [`PARALLEL_THRESHOLD`]: tensors with fewer elements than the
//! threshold stay serial because even a wakeup costs more than the work
//! itself. The blocked GEMM and the conv kernels carry their own
//! flop-based cutoffs instead (`ops::matmul::GEMM_PARALLEL_FLOPS`,
//! `ops::conv::CONV_PARALLEL_FLOPS`) — for those kernels the work per
//! element scales with the inner/kernel dimensions, so an element count
//! is the wrong predictor of when fan-out pays off.
//!
//! # Reaching the output
//!
//! One rule: a kernel reaches its output through the split,
//! `for_each_part`. It cuts the output into fixed-length parts — or two
//! buffers in step, each with its own part length, such as a value buffer
//! and its argmax or a conv's output and its per-image scratch — and hands
//! each task its own `&mut` parts: in order on the calling thread when the
//! kernel stays serial, in `parallel_for`'s contiguous ranges when it fans
//! out. So one body serves both devices and no kernel writes through a raw
//! pointer. `device.rs`'s unit tests pin the split, `kernel_oracle` and
//! `device_parity` hold every kernel on `Device::Parallel` to its serial
//! bits, and `device_gradcheck` checks the conv gradients on both devices.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Where tensor kernels execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Serial execution on the calling thread (the paper's "CPU").
    Cpu,
    /// Data-parallel execution over `n` pool workers (the paper's "GPU").
    Parallel(usize),
}

impl Device {
    /// A parallel device sized to the machine's available cores.
    pub fn parallel() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Device::Parallel(n.max(1))
    }

    /// Number of ways this device splits a kernel (caller + pool workers).
    pub fn threads(self) -> usize {
        match self {
            Device::Cpu => 1,
            Device::Parallel(n) => n.max(1),
        }
    }

    /// The device kernels on the current thread will use.
    pub fn current() -> Self {
        CURRENT.with(|c| c.get())
    }

    /// Set the device for the current thread (prefer [`with_device`]).
    pub fn set_current(device: Device) {
        CURRENT.with(|c| c.set(device));
    }
}

thread_local! {
    static CURRENT: Cell<Device> = const { Cell::new(Device::Cpu) };
}

/// Run `f` with `device` as the current execution device, restoring the
/// previous device afterwards (also on panic).
pub fn with_device<T>(device: Device, f: impl FnOnce() -> T) -> T {
    struct Restore(Device);
    impl Drop for Restore {
        fn drop(&mut self) {
            Device::set_current(self.0);
        }
    }
    let _restore = Restore(Device::current());
    Device::set_current(device);
    f()
}

/// Minimum number of elements before elementwise kernels bother going
/// parallel; below this the dispatch overhead dominates. Matmul and
/// conv use per-kernel flop thresholds instead (see module docs).
pub const PARALLEL_THRESHOLD: usize = 16 * 1024;

/// Hard cap on pool size; demand beyond this runs inline on callers.
pub const MAX_POOL_WORKERS: usize = 64;

// ------------------------------------------------------------------ pool

/// A contiguous range of task indices plus the (lifetime-erased) kernel
/// closure to run it with and the dispatch to report back to.
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    start: usize,
    end: usize,
    /// Lifetime-erased too: it lives on the dispatching caller's stack,
    /// which the caller does not leave before every job has finished.
    dispatch: &'static Dispatch,
}

/// Per-dispatch completion accounting shared by caller and workers, on
/// the caller's stack: a dispatch allocates nothing.
struct Dispatch {
    /// Jobs handed to workers and not yet finished.
    remaining: AtomicUsize,
    /// The dispatching thread, unparked by the last job to finish.
    caller: std::thread::Thread,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl Dispatch {
    fn new() -> Self {
        Dispatch {
            remaining: AtomicUsize::new(0),
            caller: std::thread::current(),
            panic: Mutex::new(None),
        }
    }

    fn finish_one(&self) {
        // Once `remaining` reads 0 the caller may return and free the
        // dispatch, so the handle is cloned first and nothing of `self` is
        // touched after the decrement.
        let caller = self.caller.clone();
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }

    /// Block until every job has finished (a park may wake spuriously, or
    /// on a token an earlier dispatch's last job left: both re-check).
    fn wait(&self) {
        while self.remaining.load(Ordering::Acquire) > 0 {
            std::thread::park();
        }
    }
}

/// One parked pool thread: a claim flag plus a condvar-guarded job slot.
struct Worker {
    /// `true` while a dispatcher owns this worker or it is running a job.
    claimed: AtomicBool,
    slot: Mutex<Option<Job>>,
    wake: Condvar,
    /// Telemetry accumulator for this worker's busy (job-running) time.
    busy: &'static geotorch_telemetry::Stat,
}

impl Worker {
    fn run(self: Arc<Self>) {
        loop {
            let job = {
                let mut slot = lock(&self.slot);
                loop {
                    if let Some(job) = slot.take() {
                        break job;
                    }
                    slot = self.wake.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            };
            let busy_since = geotorch_telemetry::enabled().then(std::time::Instant::now);
            let result = catch_unwind(AssertUnwindSafe(|| {
                for i in job.start..job.end {
                    (job.f)(i);
                }
            }));
            if let Some(start) = busy_since {
                self.busy.record_ns(start.elapsed().as_nanos() as u64);
            }
            if let Err(payload) = result {
                let mut panic = lock(&job.dispatch.panic);
                // First panic wins; later ones are dropped like in
                // `std::thread::scope`.
                panic.get_or_insert(payload);
            }
            // Return to the idle set *before* signalling completion so a
            // dispatch that immediately follows can re-claim this worker.
            self.claimed.store(false, Ordering::Release);
            job.dispatch.finish_one();
        }
    }

    fn submit(&self, job: Job) {
        let mut slot = lock(&self.slot);
        debug_assert!(slot.is_none(), "claimed worker already has a job");
        *slot = Some(job);
        self.wake.notify_one();
    }
}

/// The process-wide worker set. Grows lazily, never shrinks.
struct Pool {
    workers: Mutex<Vec<Arc<Worker>>>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool { workers: Mutex::new(Vec::new()) })
}

impl Pool {
    /// Claim up to `want` idle workers, spawning new ones while under the
    /// cap, handing each to `take` as it is claimed; returns how many.
    /// Never blocks on busy workers — may claim fewer than `want`
    /// (including zero), in which case the caller runs those ranges inline.
    fn claim(&self, want: usize, mut take: impl FnMut(&Worker)) -> usize {
        let mut claimed = 0;
        let mut workers = lock(&self.workers);
        for worker in workers.iter() {
            if claimed == want {
                break;
            }
            if worker
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                take(worker);
                claimed += 1;
            }
        }
        while claimed < want && workers.len() < MAX_POOL_WORKERS {
            let worker = Arc::new(Worker {
                claimed: AtomicBool::new(true),
                slot: Mutex::new(None),
                wake: Condvar::new(),
                busy: geotorch_telemetry::register_dynamic(format!(
                    "device.pool.worker{}.busy",
                    workers.len()
                )),
            });
            let handle = Arc::clone(&worker);
            std::thread::Builder::new()
                .name(format!("geotorch-pool-{}", workers.len()))
                .spawn(move || handle.run())
                .expect("spawn pool worker");
            take(&worker);
            workers.push(worker);
            claimed += 1;
        }
        claimed
    }

    fn size(&self) -> usize {
        lock(&self.workers).len()
    }
}

/// Number of worker threads the pool has spawned so far (diagnostics;
/// the count only grows, proving dispatches reuse workers).
pub fn worker_pool_size() -> usize {
    pool().size()
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fan `f` out over `ways` contiguous ranges of `0..tasks` using the pool.
/// Blocks until every range has completed; panics from `f` (on any thread)
/// are re-thrown here after the dispatch has fully drained. No heap
/// allocation: the ranges are computed, claimed workers take their jobs
/// as they are claimed, and the completion count lives on this stack.
fn pool_dispatch(tasks: usize, ways: usize, f: &(dyn Fn(usize) + Sync)) {
    let chunk = tasks.div_ceil(ways);
    let ranges = tasks.div_ceil(chunk);
    let range = |t: usize| (t * chunk, ((t + 1) * chunk).min(tasks));
    let dispatch = Dispatch::new();
    // Waits for every handed-out job when dropped: on return, and on an
    // unwind out of this function (a worker spawn failing midway through
    // the claims), so no job outlives what it borrows.
    struct Drain<'a>(&'a Dispatch);
    impl Drop for Drain<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }
    let drain = Drain(&dispatch);
    // SAFETY: the erased references only live in `Job`s belonging to this
    // dispatch, and `drain` keeps this function from returning or
    // unwinding before every job has finished — `f` and `dispatch` outlive
    // all use.
    let (f_erased, dispatch_erased) = unsafe {
        (
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f),
            std::mem::transmute::<&Dispatch, &'static Dispatch>(&dispatch),
        )
    };
    // The caller always keeps the first range for itself, so a dispatch
    // costs at most `ranges - 1` wakeups and zero thread spawns. Workers
    // take the last ranges, from the back.
    let mut next = ranges;
    let workers = pool().claim(ranges - 1, |worker| {
        next -= 1;
        let (start, end) = range(next);
        // Relaxed: the count publishes nothing, and the job reaches its
        // worker through the slot's mutex, after this increment. The
        // worker's `AcqRel` decrement pairs with `wait`'s `Acquire` load,
        // which is what makes the job's writes visible to the caller.
        dispatch.remaining.fetch_add(1, Ordering::Relaxed);
        let dispatch = dispatch_erased;
        worker.submit(Job { f: f_erased, start, end, dispatch });
    });
    let inline = ranges - workers;
    geotorch_telemetry::count!("device.pool.dispatches", 1);
    geotorch_telemetry::count!("device.pool.tasks", tasks);
    // Ranges beyond the caller's own first range that found no idle worker
    // and fell back to inline execution.
    geotorch_telemetry::count!("device.pool.inline_fallbacks", inline.saturating_sub(1));
    let inline_result = catch_unwind(AssertUnwindSafe(|| {
        for t in 0..inline {
            let (start, end) = range(t);
            (start..end).for_each(f);
        }
    }));
    drop(drain);
    let worker_panic = lock(&dispatch.panic).take();
    if let Err(payload) = inline_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Run `f(task_index)` for every index in `0..tasks`, fanned out over the
/// current device's share of the worker pool. Tasks are distributed in
/// contiguous ranges; `f` must be safe to call concurrently for distinct
/// indices.
fn parallel_for(tasks: usize, f: impl Fn(usize) + Sync) {
    let ways = Device::current().threads().min(tasks.max(1));
    if ways <= 1 || tasks <= 1 {
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    pool_dispatch(tasks, ways, &f);
}

/// Apply `f` to contiguous chunks of `out`, in parallel on the current
/// device. `f` receives the element offset of the chunk and the chunk
/// itself. Chunks are at least `min_chunk` elements, so slices smaller
/// than `2 * min_chunk` stay on the calling thread.
pub fn parallel_chunks_mut(out: &mut [f32], min_chunk: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    let (ways, len) = (Device::current().threads(), out.len());
    let serial = ways <= 1 || len < min_chunk.max(1) * 2;
    let chunk = if serial { len } else { len.div_ceil(ways).max(min_chunk) };
    for_each_part(out, chunk, true, |i, part| f(i * chunk, part));
}

// ------------------------------------------------------------ the split

/// An output [`for_each_part`] cuts into per-task parts: one slice, or two
/// cut in step, each by its own part length (a value buffer and its
/// argmax, a conv's output and its per-image scratch). A buffer that runs
/// out first — an empty argmax, say — is empty in every later part, so one
/// kernel body serves with and without it.
pub(crate) trait Parts: Default + Send {
    /// The length of one part: one per buffer.
    type Len: Copy + Sync;
    /// Parts of `len` in the buffer, the last maybe short.
    fn count(&self, len: Self::Len) -> usize;
    /// The first `n` parts of `len`, and the rest.
    fn split(self, len: Self::Len, n: usize) -> (Self, Self);
}

impl<T: Send> Parts for &mut [T] {
    type Len = usize;

    fn count(&self, len: usize) -> usize {
        assert!(len > 0 || self.is_empty(), "a non-empty buffer needs a positive part length");
        self.len().div_ceil(len.max(1))
    }

    fn split(self, len: usize, n: usize) -> (Self, Self) {
        let mid = (len * n).min(self.len());
        self.split_at_mut(mid)
    }
}

impl<A: Parts, B: Parts> Parts for (A, B) {
    type Len = (A::Len, B::Len);

    fn count(&self, (la, lb): Self::Len) -> usize {
        self.0.count(la).max(self.1.count(lb))
    }

    fn split(self, (la, lb): Self::Len, n: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.split(la, n), self.1.split(lb, n));
        ((a0, b0), (a1, b1))
    }
}

/// Cut `buf` into parts of `part_len` and run `f(part_index, part)` on
/// each, every part exactly once; an empty buffer visits nothing. With
/// `parallel` false, on a one-way device, or with one part, the parts run
/// in order on the calling thread. Otherwise they are dealt in exactly the
/// contiguous ranges [`parallel_for`] deals `0..parts` in: each range runs
/// on one thread, its parts in order.
///
/// This is the one way a kernel reaches the pool: each task owns its
/// `&mut` parts, so no kernel needs a raw pointer to its output.
pub(crate) fn for_each_part<P: Parts>(
    buf: P,
    part_len: P::Len,
    parallel: bool,
    f: impl Fn(usize, P) + Sync,
) {
    let parts = buf.count(part_len);
    let ways = if parallel { Device::current().threads().min(parts) } else { 1 };
    if ways <= 1 {
        return run_parts(buf, part_len, 0, &f);
    }
    // `parallel_for(parts)`'s ranges, one dispatched task each: each task
    // claims the next range from the front of the unclaimed tail.
    let per_range = parts.div_ceil(ways);
    let tail = Mutex::new((0, buf));
    parallel_for(parts.div_ceil(per_range), |_| {
        let (first, range) = {
            let mut tail = lock(&tail);
            let (first, rest) = std::mem::take(&mut *tail);
            let (range, after) = rest.split(part_len, per_range);
            *tail = (first + per_range, after);
            (first, range)
        };
        run_parts(range, part_len, first, &f);
    });
}

/// Run `f` on each part of `buf` in order, numbering them from `first`.
fn run_parts<P: Parts>(mut buf: P, part_len: P::Len, first: usize, f: &impl Fn(usize, P)) {
    for index in first..first + buf.count(part_len) {
        let (part, rest) = buf.split(part_len, 1);
        f(index, part);
        buf = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Held by the tests that grow the global worker pool past
    /// `Parallel(4)` and by the one asserting it does not grow, so they
    /// never race in one test process.
    static POOL_GROWTH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn default_device_is_cpu() {
        assert_eq!(Device::current(), Device::Cpu);
    }

    #[test]
    fn with_device_restores() {
        assert_eq!(Device::current(), Device::Cpu);
        with_device(Device::Parallel(4), || {
            assert_eq!(Device::current(), Device::Parallel(4));
            with_device(Device::Cpu, || {
                assert_eq!(Device::current(), Device::Cpu);
            });
            assert_eq!(Device::current(), Device::Parallel(4));
        });
        assert_eq!(Device::current(), Device::Cpu);
    }

    #[test]
    fn with_device_restores_on_panic() {
        let result = std::panic::catch_unwind(|| {
            with_device(Device::Parallel(2), || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(Device::current(), Device::Cpu);
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        for device in [Device::Cpu, Device::Parallel(4)] {
            with_device(device, || {
                let hits = AtomicUsize::new(0);
                parallel_for(1000, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.load(Ordering::Relaxed), 1000);
            });
        }
    }

    #[test]
    fn parallel_for_handles_edge_counts() {
        let _g = POOL_GROWTH.lock().unwrap_or_else(|e| e.into_inner());
        with_device(Device::Parallel(8), || {
            for tasks in [0usize, 1, 2, 7, 8, 9] {
                let hits = AtomicUsize::new(0);
                parallel_for(tasks, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.load(Ordering::Relaxed), tasks);
            }
        });
    }

    #[test]
    fn parallel_chunks_cover_whole_slice() {
        with_device(Device::Parallel(4), || {
            let mut data = vec![0.0f32; 100_000];
            parallel_chunks_mut(&mut data, 1024, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (offset + i) as f32;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as f32);
            }
        });
    }

    /// The `(part index, part contents)` pairs `for_each_part` visits, in
    /// index order, over a buffer holding `0..len`.
    fn visits(len: usize, part_len: usize) -> Vec<(usize, Vec<usize>)> {
        let mut buf: Vec<usize> = (0..len).collect();
        let seen = Mutex::new(Vec::new());
        for_each_part(&mut buf[..], part_len, true, |i, part| {
            lock(&seen).push((i, part.to_vec()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        seen
    }

    /// As `visits`, over two buffers holding `0..lens.0` and `100..100 +
    /// lens.1`, cut in step by `part_lens`.
    fn visits_in_step(
        lens: (usize, usize),
        part_lens: (usize, usize),
    ) -> Vec<(usize, Vec<usize>, Vec<usize>)> {
        let mut a: Vec<usize> = (0..lens.0).collect();
        let mut b: Vec<usize> = (100..100 + lens.1).collect();
        let seen = Mutex::new(Vec::new());
        for_each_part((&mut a[..], &mut b[..]), part_lens, true, |i, (a, b)| {
            lock(&seen).push((i, a.to_vec(), b.to_vec()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        seen
    }

    #[test]
    fn split_visits_every_part_once_with_its_slice() {
        for device in [Device::Cpu, Device::Parallel(4)] {
            with_device(device, || {
                let seen = visits(10, 4);
                let want = vec![(0, vec![0, 1, 2, 3]), (1, vec![4, 5, 6, 7]), (2, vec![8, 9])];
                assert_eq!(seen, want, "{device:?}: the last part is shorter");
                for (len, part_len) in [(1000, 1), (1000, 7), (64, 64), (65, 64)] {
                    let seen = visits(len, part_len);
                    assert_eq!(seen.len(), len.div_ceil(part_len));
                    for (k, (i, part)) in seen.iter().enumerate() {
                        let want: Vec<usize> = (k * part_len..((k + 1) * part_len).min(len)).collect();
                        assert_eq!((*i, part), (k, &want), "{device:?} {len}/{part_len}");
                    }
                }
            });
        }
        // Two buffers in step, parts of 3 and of 5: both full, a short last
        // part in either, and an empty second buffer that stays empty.
        for device in [Device::Cpu, Device::Parallel(3)] {
            with_device(device, || {
                for lens in [(12, 20), (10, 20), (12, 18), (10, 0), (400, 665)] {
                    let seen = visits_in_step(lens, (3, 5));
                    assert_eq!(seen.len(), lens.0.div_ceil(3).max(lens.1.div_ceil(5)));
                    for (k, (i, a, b)) in seen.iter().enumerate() {
                        let want_a: Vec<usize> = (k * 3..((k + 1) * 3).min(lens.0)).collect();
                        let want_b: Vec<usize> = (100 + k * 5..100 + ((k + 1) * 5).min(lens.1)).collect();
                        assert_eq!((*i, a, b), (k, &want_a, &want_b), "{device:?} {lens:?}");
                    }
                }
            });
        }
    }

    #[test]
    fn split_of_an_empty_buffer_visits_nothing() {
        with_device(Device::Parallel(4), || {
            for part_len in [0, 1, 5] {
                let hits = AtomicUsize::new(0);
                for_each_part(&mut [0u8; 0][..], part_len, true, |_, _| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.load(Ordering::Relaxed), 0);
            }
        });
    }

    #[test]
    fn serial_split_runs_in_order_on_the_caller() {
        with_device(Device::Parallel(4), || {
            let caller = std::thread::current().id();
            let order = Mutex::new(Vec::new());
            for_each_part(&mut [0f32; 100][..], 3, false, |i, _| {
                assert_eq!(std::thread::current().id(), caller);
                lock(&order).push(i);
            });
            assert_eq!(order.into_inner().unwrap(), (0..34).collect::<Vec<_>>());
        });
    }

    #[test]
    fn two_buffers_split_in_step() {
        for device in [Device::Cpu, Device::Parallel(4)] {
            with_device(device, || {
                let mut vals: Vec<f32> = (0..22).map(|v| v as f32).collect();
                let mut args: Vec<usize> = (100..122).collect();
                for_each_part((&mut vals[..], &mut args[..]), (5, 5), true, |i, (v, a)| {
                    assert_eq!(v.len(), a.len());
                    assert_eq!(v.len(), if i == 4 { 2 } else { 5 });
                    for (v, a) in v.iter_mut().zip(a.iter_mut()) {
                        assert_eq!(*a, *v as usize + 100, "part {i} out of step");
                        (*v, *a) = (-*v, i);
                    }
                });
                assert!(vals.iter().enumerate().all(|(k, &v)| v == -(k as f32)));
                assert!(args.iter().enumerate().all(|(k, &a)| a == k / 5));

                // The no-argmax case: an empty second buffer stays empty.
                let hits = AtomicUsize::new(0);
                for_each_part((&mut vals[..], &mut [0usize; 0][..]), (5, 5), true, |i, (v, a)| {
                    assert!(a.is_empty());
                    assert_eq!(v[0], -(5.0 * i as f32));
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.load(Ordering::Relaxed), 5);
            });
        }
    }

    /// Which thread ran each of `tasks` tasks under `parallel_for`, and
    /// under `for_each_part` with one-element parts.
    fn thread_per_task(tasks: usize) -> (Vec<std::thread::ThreadId>, Vec<std::thread::ThreadId>) {
        let by_for = Mutex::new(vec![None; tasks]);
        parallel_for(tasks, |i| lock(&by_for)[i] = Some(std::thread::current().id()));
        let mut by_part = vec![None; tasks];
        for_each_part(&mut by_part[..], 1, true, |_, slot| {
            slot[0] = Some(std::thread::current().id());
        });
        let unwrap = |ids: Vec<Option<_>>| ids.into_iter().map(Option::unwrap).collect();
        (unwrap(by_for.into_inner().unwrap()), unwrap(by_part))
    }

    #[test]
    fn parallel_split_deals_parallel_for_ranges() {
        with_device(Device::Parallel(4), || {
            for tasks in [4usize, 9, 26, 103] {
                let chunk = tasks.div_ceil(4);
                let (by_for, by_part) = thread_per_task(tasks);
                for ids in [&by_for, &by_part] {
                    // Every range runs whole on one thread...
                    for range in ids.chunks(chunk) {
                        assert!(range.iter().all(|id| *id == range[0]), "{tasks}: {ids:?}");
                    }
                }
                // ...and the split spreads them as widely as `parallel_for`
                // did: a range only shares a thread when no worker was idle.
                let distinct = |ids: &[std::thread::ThreadId]| {
                    ids.iter().collect::<std::collections::HashSet<_>>().len()
                };
                assert!(distinct(&by_part) <= tasks.div_ceil(chunk));
                assert!(distinct(&by_for) <= tasks.div_ceil(chunk));
            }
        });
    }

    #[test]
    fn device_thread_counts() {
        assert_eq!(Device::Cpu.threads(), 1);
        assert_eq!(Device::Parallel(6).threads(), 6);
        assert_eq!(Device::Parallel(0).threads(), 1);
        assert!(Device::parallel().threads() >= 1);
    }

    #[test]
    fn pool_reuses_workers_across_dispatches() {
        let _g = POOL_GROWTH.lock().unwrap_or_else(|e| e.into_inner());
        with_device(Device::Parallel(4), || {
            // Warm the pool, then check that repeated dispatches do not
            // grow it: the same parked workers serve every call.
            parallel_for(100, |_| {});
            let size_after_first = worker_pool_size();
            assert!(size_after_first >= 1, "first dispatch must populate the pool");
            for _ in 0..50 {
                parallel_for(100, |_| {});
            }
            assert_eq!(
                worker_pool_size(),
                size_after_first,
                "steady-state dispatches must not spawn threads"
            );
        });
    }

    #[test]
    fn pool_never_exceeds_cap() {
        let _g = POOL_GROWTH.lock().unwrap_or_else(|e| e.into_inner());
        with_device(Device::Parallel(MAX_POOL_WORKERS * 4), || {
            parallel_for(MAX_POOL_WORKERS * 8, |_| {});
            assert!(worker_pool_size() <= MAX_POOL_WORKERS);
        });
    }

    #[test]
    fn panic_propagates_and_pool_stays_usable() {
        with_device(Device::Parallel(4), || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_for(1000, |i| {
                    if i == 977 {
                        panic!("kernel exploded on task {i}");
                    }
                });
            }));
            let payload = result.expect_err("panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("kernel exploded"), "payload: {msg}");

            // The pool must keep working after the panic: every worker
            // returned to the idle set.
            for _ in 0..10 {
                let hits = AtomicUsize::new(0);
                parallel_for(1000, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.load(Ordering::Relaxed), 1000);
            }
        });
    }

    #[test]
    fn panic_on_caller_range_still_drains_workers() {
        with_device(Device::Parallel(4), || {
            // Task 0 always lands on the calling thread.
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_for(1000, |i| {
                    if i == 0 {
                        panic!("inline range panicked");
                    }
                });
            }));
            assert!(result.is_err());
            let hits = AtomicUsize::new(0);
            parallel_for(64, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        });
    }

    #[test]
    fn nested_parallel_for_completes() {
        with_device(Device::Parallel(4), || {
            let hits = AtomicUsize::new(0);
            parallel_for(8, |_| {
                // Workers default to Device::Cpu, so this inner call is
                // serial — but it must not deadlock or double-count even
                // when the caller's inline range re-enters parallel_for.
                with_device(Device::Parallel(2), || {
                    parallel_for(16, |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
            assert_eq!(hits.load(Ordering::Relaxed), 8 * 16);
        });
    }

    #[test]
    fn telemetry_counts_are_exact_under_parallel_dispatch() {
        // Uses a key unique to this test so concurrently running tests
        // (which share the process-global registry) cannot interfere.
        with_device(Device::Parallel(4), || {
            geotorch_telemetry::set_enabled(true);
            for _ in 0..20 {
                parallel_for(250, |_| {
                    geotorch_telemetry::count!("test.device.par_hits", 1);
                });
            }
            geotorch_telemetry::set_enabled(false);
        });
        let snap = geotorch_telemetry::snapshot();
        let hits = snap
            .iter()
            .find(|s| s.name == "test.device.par_hits")
            .expect("counter registered");
        assert_eq!(hits.count, 20 * 250, "no lost or duplicated counts");
        // The dispatch path itself is counted...
        assert!(snap.iter().any(|s| s.name == "device.pool.dispatches" && s.count >= 1));
        // ...and across 20 dispatches of 4 ways, at least one range must
        // have landed on a pool worker and recorded busy time.
        assert!(
            snap.iter()
                .any(|s| s.name.starts_with("device.pool.worker") && s.calls > 0),
            "no worker busy time recorded: {snap:?}"
        );
    }

    #[test]
    fn telemetry_disabled_records_no_pool_stats() {
        // Telemetry defaults to off; a dispatch must leave no trace. Use a
        // reset-free check (other tests may have recorded already): compare
        // the dispatch counter before and after.
        let dispatches = |snap: &[geotorch_telemetry::StatSnapshot]| {
            snap.iter()
                .find(|s| s.name == "device.pool.dispatches")
                .map_or(0, |s| s.count)
        };
        // Only meaningful while telemetry is globally off; if another test
        // in this process has it enabled right now, skip the assertion
        // rather than flake.
        if geotorch_telemetry::enabled() {
            return;
        }
        let before = dispatches(&geotorch_telemetry::snapshot());
        with_device(Device::Parallel(4), || {
            parallel_for(500, |_| {});
        });
        if geotorch_telemetry::enabled() {
            return;
        }
        let after = dispatches(&geotorch_telemetry::snapshot());
        assert_eq!(before, after, "disabled telemetry must not record dispatches");
    }

    #[test]
    fn concurrent_dispatches_from_many_threads() {
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    with_device(Device::Parallel(4), || {
                        for _ in 0..20 {
                            let hits = AtomicUsize::new(0);
                            parallel_for(500, |_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                            assert_eq!(hits.load(Ordering::Relaxed), 500);
                        }
                    });
                });
            }
        });
    }
}
