#![warn(missing_docs)]

//! GC-free memory reclamation and atomically swappable [`std::sync::Arc`] cells.
//!
//! The CQS paper assumes a garbage-collected runtime (the JVM): segments of
//! the waiter queue are unlinked with plain pointer manipulation and the
//! collector frees them once unreachable. A Rust reproduction must supply the
//! reclamation story itself. This crate does it with one **owned-slot**
//! scheme that exploits CQS structure: every value an [`AtomicArc`]
//! operation returns is an owned `Arc`, so the only window that needs
//! protection is the few instructions inside [`AtomicArc::load`] between
//! reading the raw pointer and incrementing the strong count. Loads cover
//! that window with a striped borrow counter; a displaced reference is
//! dropped on the spot when no load is mid-window, and otherwise parks in a
//! small limbo list until one is not.
//!
//! Consequently a [`Guard`] from [`pin`] is a free, zero-sized token, and a
//! thread that stalls while holding one delays no reclamation at all.
//! [`flush`] returns only after everything retired before the call has been
//! released.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cqs_reclaim::{pin, AtomicArc};
//!
//! let cell = AtomicArc::new(Some(Arc::new(1)));
//! let guard = pin();
//! let old = cell.swap(Some(Arc::new(2)), &guard);
//! assert_eq!(*old.unwrap(), 1);
//! assert_eq!(*cell.load(&guard).unwrap(), 2);
//! ```

mod atomic_arc;
mod guard;
mod owned;

pub use atomic_arc::AtomicArc;
pub use guard::Guard;
pub use owned::{flush, pin};

/// Read-only descriptor of the reclamation scheme, for reports and
/// gauges that name it. There is exactly one scheme; this is not a
/// selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Backend;

impl Backend {
    /// The scheme's name as it appears in reports: `"owned"`.
    pub fn name(self) -> &'static str {
        "owned"
    }
}

/// The reclamation scheme in use (always the owned-slot one).
pub fn default_reclaimer() -> Backend {
    Backend
}

/// Same as [`flush`]; kept for report tooling that names the backend.
pub fn flush_reclaimer(_: Backend) {
    flush()
}

/// Approximate number of retired-but-unreclaimed objects (the limbo
/// length). This is the gauge `cqs-watch` publishes so garbage growth is
/// observable.
pub fn retired_approx(_: Backend) -> usize {
    owned::retired_approx()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicArc<u32>>();
    }

    #[test]
    fn deferred_drop_runs_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let guard = pin();
            let drops = Arc::clone(&drops);
            guard.defer(move || {
                drops.fetch_add(1, Ordering::SeqCst);
            });
        }
        flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn descriptor_names_the_owned_scheme() {
        assert_eq!(default_reclaimer().name(), "owned");
    }
}
