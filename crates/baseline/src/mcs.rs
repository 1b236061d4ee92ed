//! The classic MCS queue lock (Mellor-Crummey & Scott 1991), one of the
//! Fig. 7 baselines. Threads spin on their *own* node's flag; the releaser
//! writes directly to its successor.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cqs_reclaim::{pin, AtomicArc};

#[derive(Debug)]
struct McsNode {
    locked: AtomicBool,
    next: AtomicArc<McsNode>,
}

/// An MCS spin lock. Acquisition returns a guard that must be used to
/// release, carrying the thread's queue node.
///
/// # Example
///
/// ```
/// use cqs_baseline::McsLock;
///
/// let lock = McsLock::new();
/// let guard = lock.lock();
/// // critical section
/// drop(guard);
/// ```
#[derive(Debug)]
pub struct McsLock {
    tail: AtomicArc<McsNode>,
}

impl McsLock {
    /// Creates an unlocked MCS lock.
    pub fn new() -> Self {
        McsLock {
            tail: AtomicArc::null(),
        }
    }

    /// Acquires the lock, spinning on the local node until handed over.
    pub fn lock(&self) -> McsGuard<'_> {
        let node = Arc::new(McsNode {
            locked: AtomicBool::new(true),
            next: AtomicArc::null(),
        });
        let guard = pin();
        let pred = self.tail.swap(Some(Arc::clone(&node)), &guard);
        if let Some(pred) = pred {
            pred.next.store(Some(Arc::clone(&node)), &guard);
            let mut spins = 0u32;
            while node.locked.load(Ordering::Acquire) {
                spins += 1;
                if spins.is_multiple_of(128) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        McsGuard { lock: self, node }
    }

    fn unlock(&self, node: &Arc<McsNode>) {
        let guard = pin();
        if node.next.load_ptr(&guard).is_null() {
            // No known successor: try to swing the tail back to empty.
            if self
                .tail
                .compare_exchange(Arc::as_ptr(node), None, &guard)
                .is_ok()
            {
                return;
            }
            // A successor is mid-enqueue; wait for its link.
            let mut spins = 0u32;
            while node.next.load_ptr(&guard).is_null() {
                spins += 1;
                if spins.is_multiple_of(128) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        let next = node.next.load(&guard).expect("successor observed non-null");
        next.locked.store(false, Ordering::Release);
        // Unlink to keep the retired node from pinning its successor.
        node.next.store(None, &guard);
    }
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

/// Holds the MCS lock; releasing happens on drop.
#[derive(Debug)]
pub struct McsGuard<'a> {
    lock: &'a McsLock,
    node: Arc<McsNode>,
}

impl Drop for McsGuard<'_> {
    fn drop(&mut self) {
        self.lock.unlock(&self.node);
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
        let lock = Arc::new(McsLock::new());
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

    #[test]
    fn sequential_reuse() {
        let lock = McsLock::new();
        for _ in 0..100 {
            let g = lock.lock();
            drop(g);
        }
    }
}
