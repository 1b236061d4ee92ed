//! A sharded counting semaphore: N per-shard CQS instances behind one
//! logical permit pool.
//!
//! The single-queue [`Semaphore`] funnels every contended acquire and every
//! release through one `fetch_add` pair and — worse, under oversubscription
//! — hands each released permit *irrevocably* to the parked FIFO head, so
//! throughput degenerates to the scheduler's wake-up latency (a lock
//! convoy). [`ShardedSemaphore`] splits the permit bank across N shards,
//! each a full CQS-backed [`Semaphore`]:
//!
//! * **local fast path** — each thread has a home shard
//!   ([`cqs_core::shard::home_shard`]); an acquire first CASes the home
//!   shard's bank ([`Semaphore::try_acquire_weak`]), touching no shared
//!   hot word and no queue;
//! * **bounded steal** — on a local miss, one ring pass over the sibling
//!   banks;
//! * **per-shard FIFO suspension** — on a global miss the acquirer parks
//!   in its home shard's CQS, with cancellation, timeouts, close and
//!   poisoning flowing through the ordinary per-shard paths;
//! * **batched rebalance** — releases bank locally and migrate credit to
//!   starving shards in batches (one [`Semaphore::release_n`] /
//!   `Cqs::resume_n` traversal per recipient) every
//!   [`rebalance interval`](ShardedSemaphore::with_shards_and_interval)-th
//!   banking release, plus immediately whenever the released permit would
//!   otherwise go idle (see below).
//!
//! # Fairness and liveness, precisely
//!
//! Global FIFO is deliberately relaxed — that relaxation *is* the
//! throughput win:
//!
//! * waiters are FIFO **within a shard**, not across shards;
//! * a banked permit may be claimed by any barging acquirer (local hit or
//!   steal) ahead of parked waiters on *other* shards, for at most
//!   `rebalance_interval` consecutive banking releases per shard — after
//!   that a rebalance pulse migrates banked credit to starving shards;
//! * **no permit idles while a waiter is parked**: a release that banks
//!   the *last* outstanding permit (no holders remain anywhere) always
//!   runs a full rebalance sweep, and a suspending acquirer re-scans every
//!   sibling bank after registering (cancelling its request if the re-scan
//!   wins). Together these close the bank-vs-suspend race — each side's
//!   write precedes its read of the other's word (SeqCst), so at least one
//!   of them observes the other. Whether a release banked is decided by
//!   its own `fetch_add` (never by a `waiting()` snapshot, which a
//!   concurrent cancellation can invalidate), and the quiescence check
//!   also runs after a served handoff, because the recipient's
//!   cancellation can refuse the in-flight resume and re-bank the permit.
//!   A refusal can even settle on the *cancelling* thread after the
//!   releaser returned (the resume delegates its permit to a mid-flight
//!   canceller), so each shard additionally reports settled refusals
//!   through a hook that re-runs the sweep from the cancelling thread.
//!
//! Under a steady stream of releases, a parked waiter is therefore served
//! after at most `rebalance_interval` overtakes; at quiescence it is served
//! as soon as the last holder releases. What is given up relative to
//! [`Semaphore`] is only *short-term ordering*: an acquirer that arrived
//! later may complete first.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use cqs_core::{Cancelled, CqsFuture};
use cqs_stats::CachePadded;

use crate::semaphore::{RefusalHook, Semaphore};

/// Default cap on [`ShardedSemaphore::new`]'s shard count; see
/// [`cqs_core::shard::default_shard_count`].
pub const MAX_DEFAULT_SHARDS: usize = 8;

/// Default number of consecutive banking releases a shard may absorb before
/// its next release runs a rebalance pulse.
pub const DEFAULT_REBALANCE_INTERVAL: u64 = 64;

/// A fair-enough, abortable counting semaphore sharded over N per-shard
/// CQS instances. See the module docs above for the protocol and the
/// precise fairness contract.
///
/// # Example
///
/// ```
/// use cqs_sync::ShardedSemaphore;
///
/// let semaphore = ShardedSemaphore::with_shards(2, 4);
/// let a = semaphore.acquire_blocking().unwrap();
/// let b = semaphore.acquire_blocking().unwrap();
/// assert_eq!(semaphore.available_permits(), 0);
/// drop((a, b));
/// assert_eq!(semaphore.available_permits(), 2);
/// ```
#[derive(Debug)]
pub struct ShardedSemaphore {
    /// The shards and rebalance machinery live behind an `Arc` so each
    /// shard's refusal hook can hold a `Weak` back-reference: a refusal can
    /// settle on the *cancelling* thread after the releasing thread already
    /// swept and returned (the resume delegated its permit to the
    /// mid-flight canceller), making the canceller the only thread that can
    /// still run the no-idle-permit sweep.
    inner: Arc<SemInner>,
}

#[derive(Debug)]
struct SemInner {
    shards: Box<[Semaphore]>,
    /// Per-shard count of consecutive banking releases since the last
    /// rebalance pulse from that shard (padded: each is hammered by the
    /// release path of one shard's threads).
    bank_streak: Box<[CachePadded<AtomicU64>]>,
    permits: usize,
    rebalance_interval: u64,
}

impl SemInner {
    fn available_permits(&self) -> usize {
        self.shards.iter().map(Semaphore::available_permits).sum()
    }

    fn waiting(&self) -> usize {
        self.shards.iter().map(Semaphore::waiting).sum()
    }

    /// Migrates banked credit from `home`'s bank to starving sibling
    /// shards, a batch per recipient, until the bank runs dry or no sibling
    /// is starving. Returns the number of permits migrated.
    fn rebalance_from(&self, home: usize) -> usize {
        let n = self.shards.len();
        let mut moved = 0;
        for d in 1..n {
            let victim = &self.shards[(home + d) % n];
            let starving = victim.waiting();
            if starving == 0 {
                continue;
            }
            cqs_chaos::inject!("sharded.rebalance.window");
            // Reclaim a batch of credit from our own bank. Racing local
            // acquirers may drain it first — then the credit went to a
            // completed operation instead, which is equally conservative.
            let got = self.shards[home].try_acquire_many_weak(starving);
            if got == 0 {
                break;
            }
            cqs_stats::bump!(shard_rebalances, got);
            victim.release_n(got);
            moved += got;
        }
        moved
    }

    fn rebalance(&self) -> usize {
        (0..self.shards.len())
            .map(|home| self.rebalance_from(home))
            .sum()
    }

    /// The no-idle-permit guarantee: if no permit is held anywhere (every
    /// permit is banked) while waiters are parked, they have no future
    /// release to serve them — migrate banked credit toward them now,
    /// from *every* shard's bank, until the system stops moving. The loop
    /// matters: a migration batch can itself be outrun by a cancelling
    /// recipient (whose refusal re-banks the credit at the recipient
    /// shard), so a single pass is not enough.
    ///
    /// `sum(positive states) == permits` is exactly "no holders": each
    /// holder subtracts one from the signed total while waiters' negative
    /// contributions are excluded from the sum. Away from quiescence the
    /// first comparison fails and this is a handful of loads.
    ///
    /// Runs from every release and, through each shard's refusal hook,
    /// from every settled refusal — the latter covers re-banks that land
    /// on a cancelling thread after the releaser already swept.
    fn quiescence_sweep(&self) {
        while self.available_permits() == self.permits && self.waiting() > 0 && self.rebalance() > 0
        {
        }
    }
}

impl ShardedSemaphore {
    /// Creates a sharded semaphore with `permits` total permits and the
    /// default shard count: the machine's available parallelism, capped at
    /// [`MAX_DEFAULT_SHARDS`].
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new(permits: usize) -> Self {
        Self::with_shards(
            permits,
            cqs_core::shard::default_shard_count(MAX_DEFAULT_SHARDS),
        )
    }

    /// Creates a sharded semaphore with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `permits` or `shards` is zero.
    pub fn with_shards(permits: usize, shards: usize) -> Self {
        Self::with_shards_and_interval(permits, shards, DEFAULT_REBALANCE_INTERVAL)
    }

    /// Creates a sharded semaphore with an explicit shard count and
    /// rebalance interval: how many consecutive banking releases one shard
    /// may absorb before its next release migrates banked credit to
    /// starving siblings. `1` rebalances on every banking release
    /// (tightest fairness, no barging window); larger values trade
    /// short-term fairness for throughput.
    ///
    /// # Panics
    ///
    /// Panics if `permits`, `shards` or `interval` is zero.
    pub fn with_shards_and_interval(permits: usize, shards: usize, interval: u64) -> Self {
        Self::build(permits, shards, interval)
    }

    fn build(permits: usize, shards: usize, interval: u64) -> Self {
        assert!(permits > 0, "a semaphore needs at least one permit");
        assert!(shards > 0, "a sharded semaphore needs at least one shard");
        assert!(interval > 0, "the rebalance interval must be positive");
        // Divide the default freelist bound across the shards. Each shard
        // keeps at least one slot — recycling off entirely would re-toll
        // the allocator on every churn wave — so the idle segments pinned
        // by the whole primitive are bounded by
        // `max(DEFAULT_FREELIST_SLOTS, shards)`: the single-queue envelope
        // up to 4 shards, one segment per shard beyond that.
        let slots = (cqs_core::CqsConfig::DEFAULT_FREELIST_SLOTS / shards).max(1);
        let inner = Arc::new_cyclic(|weak: &Weak<SemInner>| {
            let shard_vec: Vec<Semaphore> = (0..shards)
                .map(|i| {
                    let share = permits / shards + usize::from(i < permits % shards);
                    // With siblings to strand a waiter on, each shard
                    // reports settled refusals back so the wrapper can
                    // re-run the quiescence sweep from the cancelling
                    // thread (the weak upgrade only fails when the whole
                    // primitive is already gone — nothing left to sweep).
                    let on_refusal: Option<RefusalHook> = (shards > 1).then(|| {
                        let weak = Weak::clone(weak);
                        Box::new(move || {
                            if let Some(inner) = weak.upgrade() {
                                inner.quiescence_sweep();
                            }
                        }) as RefusalHook
                    });
                    Semaphore::with_initial(
                        permits,
                        share,
                        "sharded-semaphore.shard",
                        slots,
                        on_refusal,
                    )
                })
                .collect();
            SemInner {
                shards: shard_vec.into_boxed_slice(),
                bank_streak: (0..shards)
                    .map(|_| CachePadded::new(AtomicU64::new(0)))
                    .collect(),
                permits,
                rebalance_interval: interval,
            }
        });
        ShardedSemaphore { inner }
    }

    /// The number of permits this semaphore was created with.
    pub fn permits(&self) -> usize {
        self.inner.permits
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The calling thread's home shard index.
    pub fn home(&self) -> usize {
        cqs_core::shard::home_shard(self.inner.shards.len())
    }

    /// A snapshot of the permits currently banked across all shards (zero
    /// does not imply waiters exist; see [`waiting`](Self::waiting)).
    pub fn available_permits(&self) -> usize {
        self.inner.available_permits()
    }

    /// A snapshot of the waiters currently queued across all shards.
    pub fn waiting(&self) -> usize {
        self.inner.waiting()
    }

    /// Total live queue segments across all shards (diagnostics; the soak
    /// scenario tracks this to prove memory stays bounded).
    pub fn live_segments(&self) -> usize {
        self.inner.shards.iter().map(Semaphore::live_segments).sum()
    }

    /// Acquires a permit routed through the calling thread's home shard.
    pub fn acquire(&self) -> CqsFuture<()> {
        self.acquire_at(self.home())
    }

    /// Acquires a permit routed through shard `home % shards` — the
    /// deterministic core of [`acquire`](Self::acquire), also used by the
    /// model-checking programs to pin shard routing independently of TLS.
    ///
    /// Completes immediately on a banked permit (home shard first, then one
    /// steal pass over the siblings); otherwise parks in the home shard's
    /// FIFO queue. Cancel the returned future to abort waiting.
    pub fn acquire_at(&self, home: usize) -> CqsFuture<()> {
        let shards = &self.inner.shards;
        let n = shards.len();
        let home = home % n;
        if shards[home].is_closed() {
            return CqsFuture::cancelled();
        }
        if shards[home].try_acquire_weak() {
            cqs_stats::bump!(shard_local_hits);
            return CqsFuture::immediate(());
        }
        for d in 1..n {
            cqs_chaos::inject!("sharded.steal.window");
            if shards[(home + d) % n].try_acquire_weak() {
                cqs_stats::bump!(shard_steals);
                return CqsFuture::immediate(());
            }
        }
        // Global miss: park in the home shard's FIFO queue...
        let f = shards[home].acquire();
        if f.is_immediate() {
            return f;
        }
        // ...then re-scan the sibling banks. A release that banked its
        // permit between our steal pass and our registration cannot have
        // seen us waiting; one side of that race must notice the other
        // (its bank-write precedes its waiter-scan, our register-write
        // precedes this re-scan — SeqCst store-buffering), and this is our
        // side. On a hit we abort the queued request; if the abort loses to
        // an in-flight grant we hold one permit too many and return it.
        for d in 1..n {
            cqs_chaos::inject!("sharded.steal.window");
            if shards[(home + d) % n].try_acquire_weak() {
                if f.cancel() {
                    cqs_stats::bump!(shard_steals);
                    return CqsFuture::immediate(());
                }
                self.release_at((home + d) % n);
                return f;
            }
        }
        f
    }

    /// Blocking convenience: acquires a permit and returns a guard that
    /// releases it (through the acquiring thread's home shard) on drop.
    ///
    /// # Errors
    ///
    /// Fails with [`Cancelled`] only if the semaphore is closed.
    pub fn acquire_blocking(&self) -> Result<ShardedSemaphoreGuard<'_>, Cancelled> {
        let home = self.home();
        self.acquire_at(home).wait()?;
        Ok(ShardedSemaphoreGuard {
            semaphore: self,
            home,
        })
    }

    /// Blocking convenience with a deadline: acquires a permit or aborts
    /// the queued request after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the timeout elapsed first (or the
    /// semaphore is closed).
    pub fn acquire_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<ShardedSemaphoreGuard<'_>, Cancelled> {
        let home = self.home();
        self.acquire_at(home).wait_timeout(timeout)?;
        Ok(ShardedSemaphoreGuard {
            semaphore: self,
            home,
        })
    }

    /// Returns a permit through the calling thread's home shard.
    pub fn release(&self) {
        self.release_at(self.home());
    }

    /// Returns a permit through shard `home % shards` — the deterministic
    /// core of [`release`](Self::release).
    ///
    /// Serves the home shard's FIFO queue if it has waiters; otherwise
    /// banks the permit locally and then (a) runs a rebalance pulse if this
    /// shard's banking streak reached the interval, or (b) runs a full
    /// sweep if no permit is held anywhere — the no-idle-permit guarantee.
    pub fn release_at(&self, home: usize) {
        let inner = &*self.inner;
        let n = inner.shards.len();
        let home = home % n;
        // Whether the permit banked or served the local FIFO head is
        // decided by the release's own `fetch_add`, not by a `waiting()`
        // snapshot taken beforehand: a waiter the snapshot counted can
        // cancel concurrently (its `on_cancellation` increments the state
        // word first), turning the would-be handoff into a bank that a
        // snapshot-guided early return would leave unswept — a lost
        // wakeup for a waiter parked on a sibling shard.
        let banked = inner.shards[home].release_reporting();
        if n == 1 {
            // Single shard: the bank serves its own FIFO queue directly.
            return;
        }
        if banked {
            let streak = inner.bank_streak[home].fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= inner.rebalance_interval {
                inner.bank_streak[home].store(0, Ordering::Relaxed);
                inner.rebalance_from(home);
            }
        }
        // Quiescence guard — on *both* paths: even a committed handoff can
        // be voided by the waiter's cancellation refusing the in-flight
        // resume, which re-banks the permit. When the refusal settles
        // before this release returns, this sweep catches it; when the
        // resume delegated its permit to a mid-flight canceller, the
        // refusal settles on the cancelling thread *after* we return, and
        // that shard's refusal hook re-runs the sweep from there.
        inner.quiescence_sweep();
    }

    /// Returns `k` permits through shard `home % shards`: suspended waiters
    /// anywhere are served first (home shard, then ring order), one batched
    /// [`Semaphore::release_n`] traversal per recipient shard, and the
    /// remainder is banked at home (followed by the same quiescence sweep
    /// as [`release_at`](Self::release_at)).
    pub fn release_n_at(&self, home: usize, k: usize) {
        if k == 0 {
            return;
        }
        let inner = &*self.inner;
        let n = inner.shards.len();
        let home = home % n;
        let mut left = k;
        for d in 0..n {
            if left == 0 {
                break;
            }
            let idx = (home + d) % n;
            let shard = &inner.shards[idx];
            let waiters = shard.waiting().min(left);
            if waiters > 0 {
                if d > 0 {
                    cqs_chaos::inject!("sharded.rebalance.window");
                    cqs_stats::bump!(shard_rebalances, waiters);
                }
                let banked = shard.release_n_reporting(waiters);
                left -= waiters;
                if banked > 0 && d > 0 {
                    // Waiters counted by the snapshot cancelled under us:
                    // part of the credit landed in this *foreign* shard's
                    // bank. Clear its streak and sweep from it right away
                    // so the credit reaches waiters parked elsewhere
                    // instead of stranding.
                    inner.bank_streak[idx].store(0, Ordering::Relaxed);
                    inner.rebalance_from(idx);
                }
            }
        }
        // No early return above: every batched release ends with the home
        // sweep and the quiescence check, even when the waiter count it
        // served against consumed all `k` permits — those counts were
        // snapshots and may have over-promised.
        inner.shards[home].release_n(left);
        inner.bank_streak[home].store(0, Ordering::Relaxed);
        inner.rebalance_from(home);
        inner.quiescence_sweep();
    }

    /// Returns `k` permits through the calling thread's home shard; see
    /// [`release_n_at`](Self::release_n_at).
    pub fn release_n(&self, k: usize) {
        self.release_n_at(self.home(), k);
    }

    /// Runs a rebalance sweep from every shard's bank toward starving
    /// shards. Normally unnecessary (releases rebalance on their own
    /// cadence); exposed for tests, drains, and operators reacting to a
    /// watchdog report.
    pub fn rebalance(&self) -> usize {
        self.inner.rebalance()
    }

    /// Closes the semaphore: every queued acquirer on every shard is woken
    /// with [`Cancelled`] and subsequent acquires fail fast. Permits
    /// already handed out stay valid and may still be released.
    pub fn close(&self) {
        for shard in self.inner.shards.iter() {
            shard.close();
        }
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.inner.shards[0].is_closed()
    }

    /// Poisons every shard: marks the queues poisoned and closes them. Use
    /// when a permit holder crashed and the guarded resource may be
    /// inconsistent.
    pub fn poison(&self) {
        for shard in self.inner.shards.iter() {
            shard.poison();
        }
    }

    /// Whether any shard was poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.inner.shards.iter().any(Semaphore::is_poisoned)
    }

    /// Publishes per-shard depth and live-segment gauges to the watchdog
    /// (`shard_depth`, `live_segments`, keyed by each shard's primitive
    /// id). No-op without the `watch` feature.
    pub fn publish_gauges(&self) {
        for shard in self.inner.shards.iter() {
            cqs_watch::gauge!(shard.watch_id(), "shard_depth", shard.waiting() as i64);
            cqs_watch::gauge!(
                shard.watch_id(),
                "live_segments",
                shard.live_segments() as i64
            );
            let _ = shard;
        }
    }
}

/// RAII guard returned by [`ShardedSemaphore::acquire_blocking`]; releases
/// the permit through the acquiring thread's home shard when dropped.
#[derive(Debug)]
pub struct ShardedSemaphoreGuard<'a> {
    semaphore: &'a ShardedSemaphore,
    home: usize,
}

impl Drop for ShardedSemaphoreGuard<'_> {
    fn drop(&mut self) {
        self.semaphore.release_at(self.home);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn permits_are_distributed_and_conserved() {
        let s = ShardedSemaphore::with_shards(5, 3);
        assert_eq!(s.permits(), 5);
        assert_eq!(s.shards(), 3);
        assert_eq!(s.available_permits(), 5);
        let mut futures = Vec::new();
        for i in 0..5 {
            let f = s.acquire_at(i);
            assert!(f.is_immediate(), "acquire {i} must hit a bank");
            futures.push(f);
        }
        assert_eq!(s.available_permits(), 0);
        for i in 0..5 {
            s.release_at(i);
        }
        assert_eq!(s.available_permits(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        let _ = ShardedSemaphore::with_shards(0, 2);
    }

    #[test]
    fn steal_crosses_shards() {
        // One permit, two shards: the permit banks at shard 0, the acquire
        // routed at shard 1 must steal it.
        let s = ShardedSemaphore::with_shards(1, 2);
        let f = s.acquire_at(1);
        assert!(f.is_immediate(), "steal pass must find shard 0's bank");
        s.release_at(1);
        // The permit is now banked at shard 1; shard 0 steals it back.
        let f = s.acquire_at(0);
        assert!(f.is_immediate());
        s.release_at(0);
    }

    #[test]
    fn release_serves_parked_waiter_on_other_shard() {
        // The quiescence guard: the last holder's release must reach a
        // waiter parked on a different shard even though the rebalance
        // interval is far away.
        let s = Arc::new(ShardedSemaphore::with_shards(1, 2));
        let f = s.acquire_at(0);
        assert!(f.is_immediate());
        let waiter = s.acquire_at(1);
        assert!(!waiter.is_immediate(), "no permit is banked; must park");
        s.release_at(0);
        assert_eq!(waiter.wait(), Ok(()));
        s.release_at(1);
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn rebalance_interval_bounds_barging() {
        // With interval 1 every banking release migrates immediately.
        let s = ShardedSemaphore::with_shards_and_interval(1, 2, 1);
        let f = s.acquire_at(0);
        assert!(f.is_immediate());
        let waiter = s.acquire_at(1);
        assert!(!waiter.is_immediate());
        s.release_at(0);
        assert_eq!(waiter.wait(), Ok(()));
        s.release_at(1);
    }

    #[test]
    fn release_n_serves_waiters_across_shards_then_banks() {
        let s = ShardedSemaphore::with_shards(4, 2);
        let _held: Vec<_> = (0..4).map(|i| s.acquire_at(i)).collect();
        let w0 = s.acquire_at(0);
        let w1 = s.acquire_at(1);
        assert!(!w0.is_immediate() && !w1.is_immediate());
        // 4 permits from shard 0: two wake the waiters (one per shard, the
        // cross-shard one through a batched release_n), two bank.
        s.release_n_at(0, 4);
        assert_eq!(w0.wait(), Ok(()));
        assert_eq!(w1.wait(), Ok(()));
        assert_eq!(s.available_permits(), 2);
    }

    #[test]
    fn fifo_is_preserved_within_a_shard() {
        let s = Arc::new(ShardedSemaphore::with_shards(1, 2));
        let _hold = s.acquire_at(0);
        let waiters: Vec<_> = (0..4).map(|_| s.acquire_at(1)).collect();
        let order = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for (i, f) in waiters.into_iter().enumerate() {
            let order = Arc::clone(&order);
            let s = Arc::clone(&s);
            joins.push(std::thread::spawn(move || {
                f.wait().unwrap();
                let at = order.fetch_add(1, Ordering::SeqCst);
                assert_eq!(at, i, "per-shard FIFO violated: waiter {i} ran {at}th");
                s.release_at(1);
            }));
        }
        s.release_at(0);
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn cancellation_flows_through_the_shard_queue() {
        let s = ShardedSemaphore::with_shards(1, 2);
        let _hold = s.acquire_at(0);
        let f1 = s.acquire_at(1);
        let f2 = s.acquire_at(1);
        assert!(f1.cancel());
        s.release_at(0);
        assert_eq!(f2.wait(), Ok(()));
        s.release_at(1);
        assert_eq!(s.available_permits(), 1);
        assert_eq!(s.waiting(), 0);
    }

    #[test]
    fn close_wakes_all_shards() {
        let s = Arc::new(ShardedSemaphore::with_shards(1, 3));
        let _hold = s.acquire_at(0);
        let waiters: Vec<_> = (0..3).map(|i| s.acquire_at(i)).collect();
        s.close();
        assert!(s.is_closed());
        for w in waiters {
            assert_eq!(w.wait(), Err(Cancelled));
        }
        assert_eq!(s.acquire_at(1).wait(), Err(Cancelled));
        assert!(s.acquire_blocking().is_err());
        // Closing loses no permits: the held one can still come back.
        s.release_at(0);
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn poison_marks_every_shard() {
        let s = ShardedSemaphore::with_shards(2, 2);
        assert!(!s.is_poisoned());
        s.poison();
        assert!(s.is_poisoned() && s.is_closed());
        assert_eq!(s.acquire_at(0).wait(), Err(Cancelled));
    }

    #[test]
    fn guard_releases_on_drop() {
        let s = ShardedSemaphore::with_shards(1, 2);
        {
            let _g = s.acquire_blocking().unwrap();
            assert_eq!(s.available_permits(), 0);
        }
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn acquire_timeout_expires_and_recovers() {
        let s = ShardedSemaphore::with_shards(1, 2);
        let held = s.acquire_blocking().unwrap();
        assert!(s.acquire_timeout(Duration::from_millis(10)).is_err());
        drop(held);
        let g = s.acquire_timeout(Duration::from_millis(200)).unwrap();
        drop(g);
        assert_eq!(s.available_permits(), 1);
    }

    /// The paper's key invariant lifted to the sharded protocol: never more
    /// than K holders, permits conserved at quiescence, under threads
    /// hammering every path (local hits, steals, parks, cancellations,
    /// rebalance pulses) with a tiny interval to force frequent migration.
    #[test]
    fn mutual_exclusion_under_sharded_storm() {
        const K: usize = 2;
        const THREADS: usize = 8;
        const OPS: usize = 500;
        for interval in [1u64, 3, DEFAULT_REBALANCE_INTERVAL] {
            let s = Arc::new(ShardedSemaphore::with_shards_and_interval(K, 4, interval));
            let inside = Arc::new(AtomicUsize::new(0));
            let mut joins = Vec::new();
            for t in 0..THREADS {
                let s = Arc::clone(&s);
                let inside = Arc::clone(&inside);
                joins.push(std::thread::spawn(move || {
                    for i in 0..OPS {
                        let f = s.acquire_at(t + i);
                        if (i + t) % 7 == 0 && f.cancel() {
                            continue;
                        }
                        f.wait().unwrap();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(now <= K, "sharded semaphore admitted {now} > {K}");
                        inside.fetch_sub(1, Ordering::SeqCst);
                        if i % 11 == 0 {
                            s.release_n_at(t + i, 1);
                        } else {
                            s.release_at(t + i + 1); // release via a foreign shard
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(
                s.available_permits(),
                K,
                "permits lost or duplicated (interval {interval})"
            );
            assert_eq!(s.waiting(), 0);
        }
    }

    /// Counter proof that the fast paths actually fire (stats feature on).
    #[cfg(feature = "stats")]
    #[test]
    fn fast_paths_are_counted() {
        let before = cqs_stats::CqsStats::snapshot();
        let s = ShardedSemaphore::with_shards(1, 2);
        assert!(s.acquire_at(0).is_immediate()); // local hit
        s.release_at(0);
        assert!(s.acquire_at(1).is_immediate()); // steal
                                                 // Park a waiter at shard 0, then release at shard 1 until a pulse
                                                 // or the quiescence sweep migrates (single permit: the sweep fires
                                                 // immediately because the release banks the only permit).
        let w = s.acquire_at(0);
        assert!(!w.is_immediate());
        s.release_at(1);
        assert_eq!(w.wait(), Ok(()));
        s.release_at(0);
        let delta = cqs_stats::CqsStats::snapshot().delta(&before);
        assert!(delta.shard_local_hits >= 1, "local hit not counted");
        assert!(delta.shard_steals >= 1, "steal not counted");
        assert!(delta.shard_rebalances >= 1, "rebalance not counted");
    }
}
