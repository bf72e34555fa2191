//! A counting global allocator: live heap bytes and their high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live-size and peak tracking, split from the allocator so tests can
/// drive a private instance while the process allocator keeps counting.
pub struct HeapCounter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl HeapCounter {
    pub const fn new() -> Self {
        HeapCounter { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
    }

    // Relaxed: both values are statistics and publish no other data.
    fn grow(&self, by: usize) {
        let live = self.live.fetch_add(by, Ordering::Relaxed) + by;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, by: usize) {
        self.live.fetch_sub(by, Ordering::Relaxed);
    }

    /// Restarts the high-water mark at the current live size and returns
    /// that size, the baseline of the next [`peak_since`](Self::peak_since).
    pub fn start(&self) -> usize {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    /// Largest live size above `baseline` since [`start`](Self::start).
    pub fn peak_since(&self, baseline: usize) -> usize {
        self.peak.load(Ordering::Relaxed).saturating_sub(baseline)
    }
}

/// The process heap counter behind [`Counting`].
pub static HEAP: HeapCounter = HeapCounter::new();

/// Forwards to the system allocator, counting requested bytes in [`HEAP`].
pub struct Counting;

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counting on
// the side touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP.grow(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP.grow(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HEAP.shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            HEAP.grow(new_size - layout.size());
        } else {
            HEAP.shrink(layout.size() - new_size);
        }
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_above_baseline() {
        let h = HeapCounter::new();
        h.grow(100);
        let base = h.start();
        assert_eq!(base, 100);
        h.grow(50);
        h.grow(30);
        h.shrink(70);
        h.grow(10);
        // live went 100 -> 150 -> 180 -> 110 -> 120: high water 180
        assert_eq!(h.peak_since(base), 80);
    }

    #[test]
    fn start_forgets_earlier_peaks() {
        let h = HeapCounter::new();
        h.grow(1000);
        h.shrink(900);
        let base = h.start();
        h.grow(5);
        assert_eq!(h.peak_since(base), 5);
    }

    #[test]
    fn the_process_allocator_counts_a_live_buffer() {
        // other test threads allocate too, so only a lower bound holds
        let base = HEAP.start();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        assert!(HEAP.peak_since(base) >= 1 << 20);
        drop(v);
    }
}
