//! A counting `#[global_allocator]` for allocation-ceiling tests.
//!
//! Wraps the system allocator and counts every allocation entry point
//! (alloc, alloc_zeroed, realloc) made by the current thread.
//! Deallocations are not counted. The count is per thread because the
//! test harness allocates on its own threads (reporting a finished test,
//! spawning the next) while a probe runs; everything a probe measures
//! runs on the probing thread.
//!
//! Test targets include this file with `#[path]`; a binary can install
//! only one global allocator, so each target includes it at most once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the current thread has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the only addition is a thread-local counter, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `GlobalAlloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `GlobalAlloc` contract is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;
