//! Counting-allocator support for allocation-contract tests and benches.
//!
//! Several harnesses in this workspace assert "this hot path performs N
//! heap allocations" (the factor-graph engine, the symbolize→filter→detect
//! pipeline, BENCH_4). They share this one implementation so the counting
//! semantics — every `alloc` *and* `realloc` increments, `dealloc` does
//! not, `Relaxed` ordering — cannot drift between them. Each binary or
//! test crate still has to install it itself:
//!
//! ```ignore
//! use simnet::alloc_count::{allocations, CountingAllocator};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAllocator = CountingAllocator;
//!
//! let (allocs, result) = allocations(|| hot_path());
//! assert_eq!(allocs, 0);
//! ```
//!
//! [`total`] and [`allocations`] are process-global: measurements from
//! parallel test threads interleave, so serialize tests that measure (see
//! the users for the mutex pattern), and count this way whenever the
//! measured work runs on another thread. [`thread_allocations`] counts
//! only the calling thread, so the test harness's own threads cannot leak
//! into a measurement of single-threaded work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation in the process (when
/// installed via `#[global_allocator]`); delegates to [`System`].
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and drop-free: touching it never allocates, so
    // the allocator itself can bump it.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations observed in the process so far (0 unless
/// [`CountingAllocator`] is the installed global allocator).
pub fn total() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Run `f`, returning how many allocations it performed alongside its
/// result.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = total();
    let out = f();
    (total() - before, out)
}

/// Run `f`, returning how many allocations the calling thread performed
/// during it alongside its result. Other threads' allocations are not
/// counted.
pub fn thread_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let out = f();
    (THREAD_ALLOCATIONS.with(Cell::get) - before, out)
}
