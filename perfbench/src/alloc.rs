//! Counting global allocator, compiled in only with the `stats` feature,
//! so the untraced build runs on the plain system allocator.

/// Heap allocations: calls to `alloc`/`alloc_zeroed`/`realloc` and the
/// bytes they asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls.
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Allocs {
    /// Allocations made since `earlier`.
    pub fn since(&self, earlier: &Allocs) -> Allocs {
        Allocs {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Process-wide allocation totals so far (zero without `stats`).
pub fn snapshot() -> Allocs {
    #[cfg(feature = "stats")]
    {
        counting::snapshot()
    }
    #[cfg(not(feature = "stats"))]
    {
        Allocs::default()
    }
}

#[cfg(feature = "stats")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNT: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    fn count(size: usize) {
        // Statistics only: the counters publish no other data.
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged, so `System`'s guarantees are passed through;
    // the counting touches only two atomics and never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
            // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
            // and `ptr` came from this allocator, i.e. from `System`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, i.e. from `System`,
            // with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    pub(super) fn snapshot() -> super::Allocs {
        super::Allocs {
            count: COUNT.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }
}
