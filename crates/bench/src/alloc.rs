//! A counting global allocator for allocation budgets.
//!
//! The data-path work of this workspace is judged by *allocator traffic*:
//! how many heap allocations (and how many bytes) one EM run performs.
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation; `tests/alloc_budget.rs` installs it as the
//! `#[global_allocator]` and samples the counters around each measured
//! run.
//!
//! The counters are process-global statics, so they read zero in any
//! binary that did not install the allocator (e.g. `reproduce`) —
//! callers must treat zero counts as "not measured", not "no traffic".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicU64 = AtomicU64::new(0);

/// Allocation counters sampled at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap allocations performed (allocs + reallocs; frees not counted).
    pub allocs: u64,
    /// Total bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocStats {
    /// Counter delta from `earlier` to `self`.
    pub fn since(&self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// Sample the global allocation counters.
pub fn snapshot() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// True if a [`CountingAlloc`] has served at least one allocation (i.e.
/// it is installed as the global allocator of this process).
pub fn counting_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// System allocator wrapper that counts allocations and bytes.
///
/// Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: cgmio_bench::alloc::CountingAlloc = cgmio_bench::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter updates are
// lock-free atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(1, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(1, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_subtract() {
        let a = AllocStats { allocs: 10, bytes: 100 };
        let b = AllocStats { allocs: 25, bytes: 400 };
        assert_eq!(b.since(a), AllocStats { allocs: 15, bytes: 300 });
    }
}
