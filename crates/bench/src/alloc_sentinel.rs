//! A counting global allocator: the dynamic half of the zero-alloc
//! hot-path invariant.
//!
//! `ssmc-lint`'s H1 rule rejects allocation-prone *calls* in hot-path
//! functions statically, but a token rule cannot see through helper
//! functions or container growth. [`CountingAlloc`] closes that gap at
//! run time: the throughput bench installs it as `#[global_allocator]`
//! and, in `--alloc-guard` mode, asserts that a steady-state replay
//! window performs **zero** heap allocations (see
//! `benches/simulator.rs`). Deallocations are counted but not asserted
//! on — dropping a previously allocated buffer in steady state is
//! harmless; acquiring a new one is the regression.
//!
//! Its unsafe code is confined to delegating the `GlobalAlloc` contract
//! to [`System`]. The workspace's only other unsafe site is the call
//! in `ssmc_storage::crc::crc32` into its carry-less kernel, behind a
//! CPU-feature check. `ssmc-storage` is `#![deny(unsafe_code)]` for that
//! one call, and every other library crate is `#![forbid(unsafe_code)]`.

// This file is D3-exempt (see ssmc-lint's rule table): allocator
// counters must be updatable through &self from any thread per the
// GlobalAlloc contract, so they have to be atomics, not Cells.
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation counters observed by the alloc-guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`/`alloc_zeroed` that returned non-null.
    pub allocs: u64,
    /// Calls to `realloc` that moved or resized a block.
    pub reallocs: u64,
    /// Calls to `dealloc`.
    pub deallocs: u64,
    /// Total bytes requested by counted allocations.
    pub bytes: u64,
}

impl AllocCounts {
    /// Allocation *events* — the quantity the guard asserts is zero
    /// across a steady-state window. A realloc acquires memory just
    /// like a fresh alloc, so both count; deallocs do not.
    pub fn events(&self) -> u64 {
        self.allocs + self.reallocs
    }
}

/// A `GlobalAlloc` that delegates to [`System`] and counts traffic.
pub struct CountingAlloc {
    allocs: AtomicU64,
    reallocs: AtomicU64,
    deallocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter set; `const` so it can back a static.
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Reads the counters. Relaxed ordering suffices: the guard reads
    /// on the same thread that allocates, and there is no cross-thread
    /// happens-before to establish.
    pub fn counts(&self) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.load(Ordering::Relaxed),
            reallocs: self.reallocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds
// the GlobalAlloc contract; the added atomic increments neither
// allocate nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller obligations (valid layout) are forwarded to System
    // unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through untouched.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    // SAFETY: caller obligations (p from this allocator, matching
    // layout) are forwarded to System unchanged.
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        self.deallocs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `p`/`layout` are the caller's, passed through untouched.
        unsafe { System.dealloc(p, layout) }
    }

    // SAFETY: caller obligations are forwarded to System unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through untouched.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    // SAFETY: caller obligations (p from this allocator, matching
    // layout, valid new_size) are forwarded to System unchanged.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: arguments are the caller's, passed through untouched.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            self.reallocs.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests exercise the counters directly (not via
    // #[global_allocator], which only the bench binary installs —
    // installing it for every test binary would tax the whole suite).

    #[test]
    fn counts_alloc_and_dealloc_events() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: layout is valid (non-zero size, power-of-two align);
        // the pointer is deallocated below with the same layout.
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        // SAFETY: p came from `a.alloc` with this exact layout.
        unsafe { a.dealloc(p, layout) };
        let c = a.counts();
        assert_eq!((c.allocs, c.deallocs), (1, 1));
        assert_eq!(c.bytes, 64);
        assert_eq!(c.events(), 1);
    }

    #[test]
    fn realloc_counts_as_an_event() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(32, 8).unwrap();
        // SAFETY: valid layout; block is grown then freed with the
        // grown layout, per the GlobalAlloc contract.
        unsafe {
            let p = a.alloc(layout);
            let q = a.realloc(p, layout, 128);
            a.dealloc(q, Layout::from_size_align(128, 8).unwrap());
        }
        let c = a.counts();
        assert_eq!((c.allocs, c.reallocs, c.deallocs), (1, 1, 1));
        assert_eq!(c.events(), 2);
    }
}
