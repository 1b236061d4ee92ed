//! The GC-free **owned-slot** reclamation scheme.
//!
//! CQS structure makes almost all reclamation trivial: a segment is
//! physically freed by the unique thread that unlinks it (the refcounted
//! `prev`/`next` unlink already proves exclusivity — `Arc::get_mut` in the
//! segment freelist is the witness), and every displaced `AtomicArc`
//! reference is just one strong-count decrement away from being settled.
//! The only genuinely unsafe window in the whole stack is the handful of
//! instructions inside `AtomicArc::load` between reading the raw pointer
//! and incrementing the strong count: if the cell's own reference is
//! dropped right then, the increment touches freed memory.
//!
//! This scheme protects exactly that window and nothing else. Guard
//! acquisition is a no-op (counted as `guard_elisions`); each load instead
//! holds a **striped borrow counter** for the duration of the window. A
//! retirer that displaces a reference scans the stripes once: if all are
//! zero, *no load anywhere in the process is mid-window*, so the displaced
//! reference is dropped immediately — no global lock, no per-item closure
//! allocation. Otherwise the reference parks in a small limbo list that is
//! drained the next time the stripes read zero.
//!
//! # Why the stripe scan is sound (store-buffer / Dekker argument)
//!
//! Loader: `W_b` (stripe `fetch_add`, SeqCst) → `R_p` (pointer load,
//! SeqCst). Retirer: `W_p` (pointer swap, SeqCst) → `R_b` (stripe loads,
//! SeqCst). All four are SeqCst, so they occur in one total order `S`
//! consistent with program order. If the loader read the *old* pointer,
//! then `R_p <S W_p`, hence `W_b <S R_p <S W_p <S R_b`: the scan observes
//! the loader's increment (the stripe is only ever written by SeqCst RMWs,
//! so the SeqCst read returns the running sum including `W_b`). The
//! matching `fetch_sub` happens only after the strong count was taken, so
//! either the scan sees a non-zero stripe (and defers to limbo) or the
//! loader already owns a reference (and dropping the cell's reference is a
//! plain decrement, never a free-under-reader). Loads that enter their
//! window after the scan can only read the *new* pointer — `W_p <S W_b`
//! implies `W_p <S R_p` — so they never see the retired one.
//!
//! The argument is per stripe: each stripe read is its own `R_b`, so the
//! stripes need not read zero *simultaneously*. [`flush`] relies on this —
//! it waits for each stripe to be seen at zero once, in turn, which loads
//! that start after the call cannot postpone.
//!
//! An address recycled by the allocator cannot bite either: the limbo/
//! immediate drop only releases the *cell's* reference; memory is freed
//! only when the strong count hits zero, which the scan has just proven no
//! in-window reader can be about to increment.

use crate::guard::Guard;
use cqs_stats::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// Number of borrow-counter stripes. Loads pick a per-thread home stripe,
/// so up to this many threads can sit in load windows without contending
/// on one cache line; the retire-side scan reads all of them.
const STRIPES: usize = 8;

/// A retire that finds an active borrow parks the entry in limbo; once the
/// limbo reaches this length, every subsequent retire also attempts a
/// drain (bounding limbo growth to the duration of the overlapping loads,
/// which are nanoseconds — not guard lifetimes).
const LIMBO_DRAIN_THRESHOLD: usize = 32;

/// A type-erased retired object: a thin pointer plus the monomorphized
/// function that releases it. Two machine words, no allocation for
/// displaced `Arc` references.
pub(crate) struct Retired {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: a `Retired` is a closed package of (pointer, releaser) whose
// pointee is always `Send + Sync` (it is either an `Arc` payload that the
// originating `AtomicArc<T: Send + Sync>` owned, or a boxed `FnOnce + Send`
// closure), so shipping it to whichever thread performs the reclamation is
// sound.
unsafe impl Send for Retired {}

impl Retired {
    /// Packages `ptr` with its releaser.
    ///
    /// # Safety
    ///
    /// `drop_fn(ptr)` must be sound to call exactly once, from any thread,
    /// at any later time no protected reader overlaps.
    pub(crate) unsafe fn new(ptr: *mut (), drop_fn: unsafe fn(*mut ())) -> Self {
        Retired { ptr, drop_fn }
    }

    /// Wraps a deferred closure as a retired object (double-boxed so the
    /// erased pointer is thin).
    pub(crate) fn from_closure(f: Box<dyn FnOnce() + Send>) -> Self {
        unsafe fn run(p: *mut ()) {
            // SAFETY: `p` came from `Box::into_raw` below and is consumed
            // exactly once.
            let f = unsafe { Box::from_raw(p as *mut Box<dyn FnOnce() + Send>) };
            f();
        }
        let thin = Box::into_raw(Box::new(f));
        Retired {
            ptr: thin as *mut (),
            drop_fn: run,
        }
    }

    /// Releases the object.
    ///
    /// # Safety
    ///
    /// No load from before the object was retired may still be inside its
    /// pointer-read → strong-count-increment window.
    unsafe fn reclaim(self) {
        // SAFETY: forwarded contract; `new`/`from_closure` guarantee the
        // (ptr, drop_fn) pairing is the original one.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

struct OwnedDomain {
    stripes: [CachePadded<AtomicUsize>; STRIPES],
    limbo: Mutex<Vec<Retired>>,
    /// Mirror of `limbo.len()` readable without the lock, for the cheap
    /// "anything to drain?" check and the watchdog gauge.
    limbo_len: AtomicUsize,
    /// Held by a drain from taking the limbo until its entries are
    /// reclaimed or put back, so [`flush`] never overlooks entries another
    /// thread has taken out but not yet released.
    drain: Mutex<()>,
}

#[allow(clippy::declare_interior_mutable_const)]
const STRIPE_ZERO: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));

static DOMAIN: OwnedDomain = OwnedDomain {
    stripes: [STRIPE_ZERO; STRIPES],
    limbo: Mutex::new(Vec::new()),
    limbo_len: AtomicUsize::new(0),
    drain: Mutex::new(()),
};

/// Round-robin assignment of home stripes to threads.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home stripe; `usize::MAX` until first use.
    static HOME_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn home_stripe() -> usize {
    HOME_STRIPE
        .try_with(|s| {
            let v = s.get();
            if v != usize::MAX {
                v
            } else {
                let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
                s.set(v);
                v
            }
        })
        // TLS teardown: stripe 0 still participates in every scan.
        .unwrap_or(0)
}

/// The limbo list, surviving a panic in some other holder (a reclaimed
/// destructor never runs under this lock, so the list is always intact).
fn limbo() -> MutexGuard<'static, Vec<Retired>> {
    DOMAIN.limbo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a guard. Free: no atomic operation, no thread registration.
/// Protection lives in each `AtomicArc::load` (see the module docs).
pub fn pin() -> Guard {
    cqs_stats::bump!(guard_elisions);
    Guard::new()
}

/// RAII borrow of the calling thread's home stripe, held across the
/// pointer-load → strong-count-increment window of one `AtomicArc::load`.
pub(crate) struct Borrow {
    stripe: &'static CachePadded<AtomicUsize>,
}

pub(crate) fn borrow() -> Borrow {
    let stripe = &DOMAIN.stripes[home_stripe()];
    // SeqCst (invariant): `W_b` of the Dekker pairing documented on the
    // module — must precede the pointer load in the single total order.
    stripe.fetch_add(1, Ordering::SeqCst);
    Borrow { stripe }
}

impl Drop for Borrow {
    fn drop(&mut self) {
        // SeqCst (invariant): the release must not be observable before
        // the strong-count increment it orders after; see module docs.
        self.stripe.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `R_b` of the Dekker pairing: true only if no load anywhere is
/// currently mid-window (or, for loads racing this scan, provably unable
/// to have observed any pointer retired before the scan).
fn stripes_all_zero() -> bool {
    DOMAIN.stripes.iter().all(|s| s.load(Ordering::SeqCst) == 0)
}

/// Retires a displaced reference (or deferred closure). Fast path: no
/// active borrow → reclaim immediately, allocation-free. Slow path: park
/// in limbo until the stripes read zero.
pub(crate) fn retire(entry: Retired) {
    cqs_chaos::inject!("reclaim.owned.retire.pre-scan");
    if stripes_all_zero() {
        // SAFETY: per the module's Dekker argument, no reader that could
        // still dereference this pointer without owning a reference is in
        // flight; the retire call itself happens after the displacing
        // SeqCst swap in program order.
        unsafe { entry.reclaim() };
        cqs_stats::bump!(retired_reclaimed);
        if DOMAIN.limbo_len.load(Ordering::Relaxed) > 0 {
            try_drain();
        }
    } else {
        let mut limbo = limbo();
        limbo.push(entry);
        DOMAIN.limbo_len.store(limbo.len(), Ordering::Relaxed);
        let drain_now = limbo.len() >= LIMBO_DRAIN_THRESHOLD;
        drop(limbo);
        cqs_stats::bump!(epoch_defers);
        if drain_now {
            try_drain();
        }
    }
}

/// Takes the whole limbo out. The caller must hold `DOMAIN.drain`.
///
/// Taking the entries first is what makes a subsequent stripe scan sound
/// for them: an entry in limbo at take time had its displacing swap
/// ordered (via the limbo mutex) before that scan, so the module's Dekker
/// argument applies with the scan playing `R_b`.
fn take_limbo() -> Vec<Retired> {
    let mut limbo = limbo();
    DOMAIN.limbo_len.store(0, Ordering::Relaxed);
    std::mem::take(&mut *limbo)
}

/// Reclaims entries taken out of the limbo, *outside* the limbo lock:
/// reclamation can cascade (dropping a segment drops a queue's cells,
/// which may retire further references) and the limbo mutex is not
/// reentrant.
///
/// # Safety
///
/// Every stripe must have been observed at zero after `taken` was taken.
unsafe fn reclaim_all(taken: Vec<Retired>) {
    let _n = taken.len();
    for entry in taken {
        // SAFETY: forwarded contract.
        unsafe { entry.reclaim() };
    }
    cqs_stats::bump!(retired_reclaimed, _n);
}

/// Opportunistic drain: frees the limbo if no load is mid-window right
/// now, else leaves it for a later retire. Never blocks — if another
/// drain (or a [`flush`], or a cascade of this thread's own drain) is in
/// progress, it simply returns.
fn try_drain() {
    let _drain = match DOMAIN.drain.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => return,
    };
    let taken = take_limbo();
    if taken.is_empty() {
        return;
    }
    if stripes_all_zero() {
        // SAFETY: the scan above followed the take.
        unsafe { reclaim_all(taken) };
    } else {
        // A load is mid-window somewhere: put everything back untouched.
        let mut limbo = limbo();
        limbo.extend(taken);
        DOMAIN.limbo_len.store(limbo.len(), Ordering::Relaxed);
    }
}

/// Reclaims every object retired before the call. On return, each
/// displaced `AtomicArc` reference and each [`Guard::defer`] closure
/// whose retirement finished before `flush` was called has been released.
///
/// Blocks only while some thread is inside an `AtomicArc::load` window
/// that was already open when the limbo was taken — each stripe is waited
/// for, in turn, until it is seen at zero once, so loads that start after
/// the call cannot starve it. Holding a [`Guard`] never delays it.
///
/// Must not be called from a destructor that a reclamation runs (it would
/// wait for itself).
pub fn flush() {
    let _drain = DOMAIN.drain.lock().unwrap_or_else(PoisonError::into_inner);
    // A drain that took entries before us has released them by now
    // (reclaimed or put back), so everything retired before the call is
    // in the limbo.
    let taken = take_limbo();
    if taken.is_empty() {
        return;
    }
    for stripe in &DOMAIN.stripes {
        while stripe.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }
    // SAFETY: every stripe was observed at zero after the take, which the
    // per-stripe form of the module's Dekker argument makes sufficient.
    unsafe { reclaim_all(taken) };
}

/// Number of retired objects currently parked in limbo.
pub(crate) fn retired_approx() -> usize {
    DOMAIN.limbo_len.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    /// The stripes and limbo are process-global, so tests that assert on
    /// limbo occupancy serialize against each other. Unrelated tests in
    /// the same binary only ever take *transient* (nanosecond) borrows.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count_entry(flag: &Arc<AtomicBool>) -> Retired {
        let flag = Arc::clone(flag);
        Retired::from_closure(Box::new(move || flag.store(true, Ordering::SeqCst)))
    }

    /// Holds a borrow on a fresh thread until the returned release flag is
    /// set; returns once the borrow is taken.
    fn remote_borrow() -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let hold = Arc::new(AtomicBool::new(true));
        let held = Arc::new(AtomicBool::new(false));
        let t = {
            let hold = Arc::clone(&hold);
            let held = Arc::clone(&held);
            std::thread::spawn(move || {
                let b = borrow();
                held.store(true, Ordering::SeqCst);
                while hold.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                drop(b);
            })
        };
        while !held.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        (hold, t)
    }

    #[test]
    fn retire_without_borrows_reclaims_immediately() {
        let _serial = serial();
        // A transient borrow from a concurrent test can park any single
        // attempt; an immediate free must happen within a few tries.
        for _ in 0..100 {
            let freed = Arc::new(AtomicBool::new(false));
            retire(count_entry(&freed));
            if freed.load(Ordering::SeqCst) {
                return;
            }
            flush();
            assert!(freed.load(Ordering::SeqCst), "flush left the entry");
        }
        panic!("retire never took the immediate-reclaim fast path");
    }

    #[test]
    fn retire_under_borrow_parks_until_release() {
        let _serial = serial();
        let freed = Arc::new(AtomicBool::new(false));
        let window = borrow();
        retire(count_entry(&freed));
        assert!(
            !freed.load(Ordering::SeqCst),
            "active borrow must park the entry in limbo"
        );
        assert!(retired_approx() >= 1);
        drop(window);
        flush();
        assert!(freed.load(Ordering::SeqCst));
    }

    #[test]
    fn borrow_on_another_thread_blocks_reclaim() {
        let _serial = serial();
        let freed = Arc::new(AtomicBool::new(false));
        let (hold, t) = remote_borrow();
        retire(count_entry(&freed));
        assert!(
            !freed.load(Ordering::SeqCst),
            "remote borrow must block reclamation"
        );
        hold.store(false, Ordering::SeqCst);
        t.join().unwrap();
        flush();
        assert!(freed.load(Ordering::SeqCst));
    }

    #[test]
    fn flush_waits_out_a_remote_borrow() {
        let _serial = serial();
        let freed = Arc::new(AtomicBool::new(false));
        let (hold, t) = remote_borrow();
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            hold.store(false, Ordering::SeqCst);
        });
        retire(count_entry(&freed));
        flush();
        assert!(
            freed.load(Ordering::SeqCst),
            "flush returned before reclaiming an entry retired before it"
        );
        release.join().unwrap();
        t.join().unwrap();
    }

    #[test]
    // Explicit drops of the inert token are the behavior under test.
    #[allow(clippy::drop_non_drop)]
    fn guard_token_is_free_and_stacks() {
        let _serial = serial();
        let g1 = pin();
        let g2 = pin();
        drop(g1);
        drop(g2);
        // Tokens carry no protection; a held guard does not park retires.
        let freed = Arc::new(AtomicBool::new(false));
        let _g3 = pin();
        retire(count_entry(&freed));
        flush();
        assert!(freed.load(Ordering::SeqCst));
    }
}
