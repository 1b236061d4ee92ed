//! The classic CLH queue lock (Craig; Landin & Hagersten), one of the
//! Fig. 7 baselines. Each thread spins on its *predecessor's* flag, giving
//! FIFO handoff with only local spinning on cache-coherent machines.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cqs_reclaim::{pin, AtomicArc};

#[derive(Debug)]
struct ClhNode {
    locked: AtomicBool,
}

/// A CLH spin lock. Acquisition returns a guard that must be used to
/// release, carrying the thread's queue node.
///
/// # Example
///
/// ```
/// use cqs_baseline::ClhLock;
///
/// let lock = ClhLock::new();
/// let guard = lock.lock();
/// // critical section
/// drop(guard);
/// ```
#[derive(Debug)]
pub struct ClhLock {
    tail: AtomicArc<ClhNode>,
}

impl ClhLock {
    /// Creates an unlocked CLH lock.
    pub fn new() -> Self {
        let sentinel = Arc::new(ClhNode {
            locked: AtomicBool::new(false),
        });
        ClhLock {
            tail: AtomicArc::new(Some(sentinel)),
        }
    }

    /// Acquires the lock, spinning until the predecessor releases.
    pub fn lock(&self) -> ClhGuard<'_> {
        let node = Arc::new(ClhNode {
            locked: AtomicBool::new(true),
        });
        let guard = pin();
        let pred = self
            .tail
            .swap(Some(Arc::clone(&node)), &guard)
            .expect("CLH tail is never null");
        let mut spins = 0u32;
        while pred.locked.load(Ordering::Acquire) {
            spins += 1;
            if spins.is_multiple_of(128) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        ClhGuard { _lock: self, node }
    }
}

impl Default for ClhLock {
    fn default() -> Self {
        Self::new()
    }
}

/// Holds the CLH lock; releasing happens on drop.
#[derive(Debug)]
pub struct ClhGuard<'a> {
    _lock: &'a ClhLock,
    node: Arc<ClhNode>,
}

impl Drop for ClhGuard<'_> {
    fn drop(&mut self) {
        self.node.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn mutual_exclusion_stress() {
        const THREADS: usize = 8;
        const OPS: usize = 5_000;
        let lock = Arc::new(ClhLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let inside = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            let inside = Arc::clone(&inside);
            joins.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    let g = lock.lock();
                    assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                    counter.fetch_add(1, Ordering::SeqCst);
                    inside.fetch_sub(1, Ordering::SeqCst);
                    drop(g);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), THREADS * OPS);
    }
}
