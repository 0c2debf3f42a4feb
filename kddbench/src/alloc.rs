//! Heap accounting for `mem_mb`: a pass-through global allocator that
//! tracks live bytes and their high-water mark.
//!
//! The benchmark is single-threaded, so plain relaxed loads and stores
//! suffice (no read-modify-write on the allocation path); under
//! concurrent callers (the self-test harness) the figures are merely
//! approximate, never unsound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn grow(bytes: usize) {
    let now = LIVE.load(Relaxed).wrapping_add(bytes);
    LIVE.store(now, Relaxed);
    if now > PEAK.load(Relaxed) {
        PEAK.store(now, Relaxed);
    }
}

#[inline]
fn shrink(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed).wrapping_sub(bytes), Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// side bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes now.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Restart the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
