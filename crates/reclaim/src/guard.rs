//! The [`Guard`] token every [`crate::AtomicArc`] operation demands.
//!
//! A guard is a zero-sized witness: acquiring one performs no atomic
//! operation at all (see `guard_elisions` in `cqs-stats`), and holding one
//! protects nothing. Protection is *per pointer load* instead: each
//! `AtomicArc::load` takes a striped borrow that is held only for the few
//! instructions between reading the raw pointer and incrementing the
//! strong count (see `crate::owned`). A stalled guard therefore delays no
//! reclamation; only a thread stalled *inside* a load does.
//!
//! This is sound for the CQS stack because of an invariant the whole
//! workspace upholds: **every value an `AtomicArc` operation returns is an
//! owned `Arc`**, so nothing needs protection beyond the in-operation
//! window. Two consequences for callers:
//!
//! * a raw pointer from `load_ptr` must never be dereferenced — it is good
//!   for identity checks only;
//! * the expected pointer of a `compare_exchange` must be null or the
//!   address of an `Arc` the caller owns. An owned `Arc` keeps its
//!   allocation alive, so the address cannot be freed and reused by a
//!   different object between the caller's read and its CAS (no ABA).
//!   Every caller in the workspace (`cqs-core`'s segment list, the pool
//!   backends, `cqs-watch`'s registry and the AQS/CLH/MCS/legacy
//!   baselines) compares only against `Arc::as_ptr` of a reference it
//!   holds, or against null.

/// Witness that the current thread may operate on [`crate::AtomicArc`]
/// cells. Obtain one from [`crate::pin`]; it is free to create, drop and
/// hold for any length of time (see the module documentation).
#[derive(Debug)]
pub struct Guard {
    _token: (),
}

impl Guard {
    pub(crate) const fn new() -> Self {
        Guard { _token: () }
    }

    /// Defers `f` until no load that could have observed state from
    /// before this call is still mid-window; [`crate::flush`] runs it at
    /// the latest. Guards themselves never delay it.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        crate::owned::retire(crate::owned::Retired::from_closure(Box::new(f)));
    }
}
