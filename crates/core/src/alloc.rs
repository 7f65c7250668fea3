//! A counting global allocator for allocation-freedom tests.
//!
//! The orchestrator's steady-state decision path claims to make zero
//! heap allocations. Claims like that rot silently, so this module
//! provides [`CountingAllocator`]: a transparent wrapper around the
//! system allocator that counts allocations on the current thread while
//! a window opened by [`start_counting`] and not yet closed by
//! [`stop_counting`] is active. A test binary installs it with `#[global_allocator]` and
//! asserts the count over a hot loop is zero.
//!
//! Counting is thread-local and disabled by default, so installing the
//! allocator does not perturb the rest of the test binary (the harness,
//! other threads, setup code) beyond one relaxed TLS read per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] that forwards to [`System`] and counts
/// allocations made on threads that called [`start_counting`].
///
/// # Examples
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: adrias_core::alloc::CountingAllocator =
///     adrias_core::alloc::CountingAllocator;
///
/// adrias_core::alloc::start_counting();
/// hot_path();
/// let (allocs, _bytes) = adrias_core::alloc::stop_counting();
/// assert_eq!(allocs, 0);
/// ```
pub struct CountingAllocator;

/// Begins counting allocations on the current thread (resets counters).
pub fn start_counting() {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
}

/// Stops counting on the current thread and returns
/// `(allocation_count, bytes_allocated)` since [`start_counting`].
pub fn stop_counting() -> (u64, u64) {
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

fn note(size: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counting side-channel only touches
// thread-local `Cell`s and never observes or alters the returned
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows is a fresh allocation as far as an
        // allocation-freedom assertion is concerned.
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counting allocator is not installed in this crate's own test
    // binary, so only the bookkeeping side is testable here; the
    // orchestrator's `alloc_free` integration test installs it for real.
    #[test]
    fn counters_reset_and_accumulate() {
        start_counting();
        note(64);
        note(16);
        let (n, b) = stop_counting();
        assert_eq!(n, 2);
        assert_eq!(b, 80);
        start_counting();
        let (n, b) = stop_counting();
        assert_eq!((n, b), (0, 0));
    }

    #[test]
    fn counting_is_off_by_default() {
        note(128);
        start_counting();
        note(8);
        let (n, _) = stop_counting();
        assert_eq!(n, 1, "only the in-window note must count");
        note(4);
        let (n2, _) = stop_counting();
        assert_eq!(n2, 1, "notes after stop must not count");
    }
}
