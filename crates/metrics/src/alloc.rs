//! Peak-memory tracking allocator.
//!
//! The paper reports *peak memory* — "the maximal memory for storing
//! aggregates, events, and event sequences" for the executors and "the
//! maximal memory for storing the SHARON graph and the sharing plans" for
//! the optimizers (Section 8.1). [`TrackingAllocator`] wraps the system
//! allocator with atomic current/peak counters; the benchmark rig and the
//! allocation-regression tests install it as the `#[global_allocator]`
//! and read peak deltas and allocation counts around measured regions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live allocated bytes.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Total number of allocation calls (including growing reallocs) —
/// the counter behind the zero-allocation hot-path regression tests.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's share of [`ALLOCS`]: what [`measure_allocs`] reads, so
    /// a measured region sees the calling thread's allocations and not
    /// those of whatever else the process is running (the test harness, a
    /// runtime thread still joining). Const-initialised and without a
    /// destructor, so touching it from inside the allocator never
    /// allocates or registers anything.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// A `#[global_allocator]` wrapper that tracks current and peak heap use.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sharon_metrics::TrackingAllocator = sharon_metrics::TrackingAllocator;
/// ```
pub struct TrackingAllocator;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
    let cur = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // lock-free peak update
    let mut peak = PEAK.load(Ordering::Relaxed);
    while cur > peak {
        match PEAK.compare_exchange_weak(peak, cur, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

fn on_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: delegates all allocation to `System`, only adding counter
// bookkeeping around it.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Currently allocated bytes.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak allocated bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the peak to the current level and return the new baseline.
pub fn reset_peak() -> usize {
    let cur = CURRENT.load(Ordering::Relaxed);
    PEAK.store(cur, Ordering::Relaxed);
    cur
}

/// Total allocation calls so far, process-wide (growing reallocs count as
/// one).
pub fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation calls the calling thread has made so far.
fn thread_alloc_count() -> usize {
    THREAD_ALLOCS.with(Cell::get)
}

/// Count the allocation calls the **calling thread** performs while
/// running `f`; other threads' allocations are not seen.
///
/// Meaningful only when [`TrackingAllocator`] is installed as the global
/// allocator; otherwise returns 0. Used by the allocation-regression
/// tests that pin the steady-state hot paths at zero allocations.
pub fn measure_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = thread_alloc_count();
    let out = f();
    (out, thread_alloc_count() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is NOT installed in unit tests (that would
    // affect every test binary); these tests exercise the counter logic
    // directly.

    /// The byte counters are process-wide and the exact checks below read
    /// them twice: every test that moves them holds this lock.
    static BYTES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn bytes_lock() -> std::sync::MutexGuard<'static, ()> {
        BYTES.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_move() {
        let _bytes = bytes_lock();
        let base = current_bytes();
        on_alloc(1000);
        assert_eq!(current_bytes(), base + 1000);
        assert!(peak_bytes() >= base + 1000);
        on_dealloc(1000);
        assert_eq!(current_bytes(), base);
    }

    #[test]
    fn reset_peak_rebases() {
        let _bytes = bytes_lock();
        on_alloc(5000);
        on_dealloc(5000);
        let base = reset_peak();
        assert_eq!(peak_bytes(), base);
        on_alloc(10);
        assert!(peak_bytes() >= base + 10);
        on_dealloc(10);
    }

    #[test]
    fn alloc_counter_moves() {
        // other tests in this binary may bump the global counters
        // concurrently, so assert lower bounds only
        let _bytes = bytes_lock();
        let before = alloc_count();
        on_alloc(16);
        on_dealloc(16);
        assert!(alloc_count() > before, "frees do not count");
        let ((), n) = measure_allocs(|| on_alloc(8));
        assert_eq!(n, 1, "the thread-local count sees this thread only");
        on_dealloc(8);
    }

    #[test]
    fn measure_allocs_ignores_other_threads() {
        let _bytes = bytes_lock();
        let ((), n) = measure_allocs(|| {
            std::thread::spawn(|| on_alloc(8))
                .join()
                .expect("bump thread");
        });
        assert_eq!(n, 0, "another thread's allocation must not be counted");
        on_dealloc(8);
    }
}
