//! A global allocator that counts, shared by the test binaries that
//! hold a hot path to an allocation budget (`gradient_alloc`,
//! `transition_alloc`) or a decoder to an allocation size bound
//! (`checkpoint_codec`). Each is its own binary because the counter is
//! the process's global allocator; only allocations of the calling
//! thread are counted, so the harness's own threads may allocate
//! whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are const-initialised thread-local `Cell`s with no destructor, so
// touching them neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        LARGEST.with(|m| m.set(m.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        LARGEST.with(|m| m.set(m.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations this thread has made so far.
#[allow(dead_code)] // not every binary sharing this module reads it
pub fn allocations() -> u64 {
    ALLOCATIONS.get()
}

/// Runs `f` and returns its result with the size in bytes of the
/// largest single allocation or reallocation this thread made in it.
#[allow(dead_code)] // not every binary sharing this module reads it
pub fn largest_allocation_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.set(0);
    let out = f();
    (out, LARGEST.get())
}
