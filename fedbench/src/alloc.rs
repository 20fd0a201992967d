//! Counting global allocator: bytes and calls requested, live bytes and
//! their high-water mark. Always installed, so both sides of a comparison
//! pay the same.
//!
//! The counters are thread-local plain integers, not atomics: the benchmark
//! is one thread, and at 15 000–60 000 allocations per query four locked
//! read-modify-writes per call were a fifth of the time being measured.
//! Each thread counts what it allocates and frees itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The process allocator: [`System`] plus four counters per thread.
pub struct Counting;

#[derive(Clone, Copy)]
struct Counters {
    bytes: u64,
    calls: u64,
    live: u64,
    peak: u64,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor registers anything.
    static COUNTERS: Cell<Counters> =
        const { Cell::new(Counters { bytes: 0, calls: 0, live: 0, peak: 0 }) };
}

fn update(f: impl FnOnce(&mut Counters)) {
    COUNTERS.with(|cell| {
        let mut c = cell.get();
        f(&mut c);
        cell.set(c);
    });
}

fn grew(c: &mut Counters, by: u64) {
    c.calls += 1;
    c.bytes += by;
    c.live += by;
    c.peak = c.peak.max(c.live);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters never influence
// the pointers handed out, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            update(|c| grew(c, layout.size() as u64));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // A block freed by another thread than its allocator may take that
        // thread's count below zero; saturate rather than wrap.
        update(|c| c.live = c.live.saturating_sub(layout.size() as u64));
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Only growth counts as newly allocated bytes.
            update(|c| match (new_size as u64).checked_sub(layout.size() as u64) {
                Some(by) => grew(c, by),
                None => {
                    c.calls += 1;
                    c.live = c.live.saturating_sub((layout.size() - new_size) as u64);
                }
            });
        }
        p
    }
}

/// Cumulative bytes and calls this thread requested since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub bytes: u64,
    pub calls: u64,
}

impl Snapshot {
    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot { bytes: self.bytes - earlier.bytes, calls: self.calls - earlier.calls }
    }
}

impl std::ops::AddAssign for Snapshot {
    fn add_assign(&mut self, other: Snapshot) {
        self.bytes += other.bytes;
        self.calls += other.calls;
    }
}

pub fn snapshot() -> Snapshot {
    let c = COUNTERS.with(Cell::get);
    Snapshot { bytes: c.bytes, calls: c.calls }
}

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    update(|c| c.peak = c.live);
}

/// High-water live bytes since the last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    COUNTERS.with(Cell::get).peak
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_bytes_calls_and_peak() {
        // Exact: the counters are this test thread's own.
        let before = snapshot();
        reset_peak();
        let floor = peak_live_bytes();
        let mut v: Vec<u8> = Vec::with_capacity(1000);
        assert_eq!(snapshot().since(before), Snapshot { bytes: 1000, calls: 1 });
        assert_eq!(peak_live_bytes(), floor + 1000);
        v.reserve_exact(3000);
        assert_eq!(snapshot().since(before), Snapshot { bytes: 3000, calls: 2 }, "growth only");
        drop(v);
        assert_eq!(peak_live_bytes(), floor + 3000, "the peak survives the free");
        reset_peak();
        assert_eq!(peak_live_bytes(), floor);
    }
}
