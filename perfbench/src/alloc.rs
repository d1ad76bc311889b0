//! A counting global allocator: live heap bytes and their peak.
//!
//! It wraps [`System`] and keeps two process-wide counters, so
//! `query_peak_heap_mb` can be read around one `Algorithm::run` call
//! without any instrumentation inside the measured crates. The counters
//! see every thread's allocations, the engine's workers included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The allocator installed by `main.rs` as `#[global_allocator]`.
pub struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The counters are statistics: they publish no other data, so `Relaxed`
// suffices throughout.
fn grow(n: usize) {
    let now = CURRENT.fetch_add(n, Relaxed) + n;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrink(n: usize) {
    CURRENT.fetch_sub(n, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter updates
// touch only atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Live heap bytes right now.
pub fn current() -> usize {
    CURRENT.load(Relaxed)
}

/// The highest live heap bytes since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Starts a new peak window at the current live heap.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    const BLOCK: usize = 32 << 20;
    /// Tests run on parallel threads, so the global counters also move by
    /// what other tests allocate and free meanwhile: far less than this.
    const SLACK: usize = BLOCK / 4;

    #[test]
    fn sees_a_known_allocation_and_resets_between_iterations() {
        for _ in 0..2 {
            reset_peak();
            let before = current();
            let block = black_box(vec![1u8; BLOCK]);
            assert!(
                current() + SLACK >= before + BLOCK,
                "live heap misses the block"
            );
            assert!(peak() + SLACK >= before + BLOCK, "peak misses the block");
            drop(block);
            reset_peak();
            assert!(peak() + SLACK < before + BLOCK, "peak survived the reset");
        }
    }
}
