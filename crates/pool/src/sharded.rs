//! A sharded blocking pool: N per-shard CQS-backed [`BlockingPool`]s
//! behind one logical element store.
//!
//! Mirrors `cqs-sync`'s `ShardedSemaphore`: each thread routes through a
//! home shard ([`cqs_core::shard::home_shard`]), takes hit the home store
//! first ([`BlockingPool::try_take_weak`]), miss into one bounded steal
//! pass over the sibling stores, and park in the home shard's FIFO taker
//! queue only on a global miss. Cancellation, timeouts and close flow
//! through the ordinary per-shard CQS paths.
//!
//! Elements — unlike semaphore credit — cannot be deferred: a stored
//! element next to a parked remote taker is a lost wake-up, and a pool has
//! no "holder count" telling a put that more puts are coming. Every put
//! that stores locally therefore runs a migration scan immediately:
//! starving sibling shards are served from the home store in one
//! [`BlockingPool::put_many`] batch each (the `Cqs::resume_n` machinery).
//! Whether a put stored is decided by its own `fetch_add` on the size
//! word (never by a `waiting_takers()` snapshot, which a concurrent
//! taker cancellation can invalidate), and a settle check also runs
//! after a served handoff, because the taker's cancellation can refuse
//! the in-flight resume and re-store the element. A refusal can even
//! settle on the *cancelling* thread after the putter returned (the
//! resume delegates its element to a mid-flight canceller), so each
//! shard additionally reports settled refusals through a hook that
//! re-runs the scan from the cancelling thread. Combined with the
//! taker-side re-scan after parking, the bank-vs-park race always
//! resolves (each side's write precedes its read of the other's word,
//! SeqCst) — no element idles while a taker waits.
//!
//! # Fairness, precisely
//!
//! Takers are FIFO **within a shard**, not across shards; a stored element
//! may be claimed by a barging local take or a steal ahead of takers
//! parked on other shards only inside the put-to-migration race window.
//! Pools are unordered by contract, so element identity never depends on
//! routing.

use std::sync::{Arc, Weak};

use cqs_core::{Cancelled, CqsFuture};

use crate::{BlockingPool, PoolBackend, QueueBackend, RefusalHook, StackBackend};

/// Default cap on [`ShardedPool::new`]'s shard count; see
/// [`cqs_core::shard::default_shard_count`].
pub const MAX_DEFAULT_SHARDS: usize = 8;

/// A sharded pool over the queue backend.
pub type ShardedQueuePool<E> = ShardedPool<E, QueueBackend<E>>;

/// A sharded pool over the stack backend (hottest element first, per
/// shard).
pub type ShardedStackPool<E> = ShardedPool<E, StackBackend<E>>;

/// A blocking pool sharded over N per-shard CQS instances. See the
/// module docs above for the protocol and fairness contract.
///
/// # Example
///
/// ```
/// use cqs_pool::ShardedQueuePool;
///
/// let pool: ShardedQueuePool<String> = ShardedQueuePool::with_shards(4);
/// pool.put("conn-a".to_string());
/// let conn = pool.take().wait().unwrap();
/// pool.put(conn);
/// ```
pub struct ShardedPool<E: Send + 'static, B: PoolBackend<E>> {
    /// The shards live behind an `Arc` so each shard's refusal hook can
    /// hold a `Weak` back-reference: a refusal can settle on the
    /// *cancelling* thread after the putting thread already scanned and
    /// returned (the resume delegated its element to the mid-flight
    /// canceller), making the canceller the only thread that can still run
    /// the no-idle-element scan.
    inner: Arc<PoolInner<E, B>>,
}

struct PoolInner<E: Send + 'static, B: PoolBackend<E>> {
    shards: Box<[BlockingPool<E, B>]>,
}

impl<E: Send + 'static, B: PoolBackend<E>> PoolInner<E, B> {
    fn len(&self) -> usize {
        self.shards.iter().map(BlockingPool::len).sum()
    }

    fn waiting_takers(&self) -> usize {
        self.shards.iter().map(BlockingPool::waiting_takers).sum()
    }

    /// Migrates stored elements from `home`'s store to starving sibling
    /// shards, one batched [`BlockingPool::put_many`] per recipient, until
    /// the store runs dry or no sibling is starving. Returns the number of
    /// elements migrated.
    fn rebalance_from(&self, home: usize) -> usize {
        let n = self.shards.len();
        let mut moved = 0;
        for d in 1..n {
            let victim = &self.shards[(home + d) % n];
            let starving = victim.waiting_takers();
            if starving == 0 {
                continue;
            }
            cqs_chaos::inject!("sharded.rebalance.window");
            // Reclaim a batch from our own store. Racing local takers may
            // drain it first — then the elements went to completed
            // operations instead, which is equally conservative.
            let batch: Vec<E> = (0..starving)
                .map_while(|_| self.shards[home].try_take_weak())
                .collect();
            if batch.is_empty() {
                break;
            }
            cqs_stats::bump!(shard_rebalances, batch.len());
            moved += batch.len();
            victim.put_many(batch);
        }
        moved
    }

    fn rebalance(&self) -> usize {
        (0..self.shards.len())
            .map(|home| self.rebalance_from(home))
            .sum()
    }

    /// The no-idle-element guarantee: while elements sit stored anywhere
    /// and takers are parked anywhere, migrate toward them — from *every*
    /// shard's store, until the system stops moving. The loop matters: a
    /// migration batch can itself be outrun by a cancelling recipient
    /// (whose refusal re-stores the elements at the recipient shard), so
    /// a single pass is not enough. An element and a taker can never
    /// coexist on the *same* shard (the signed size word is one or the
    /// other), so `rebalance` always makes progress while the condition
    /// holds; away from it this is a handful of loads.
    ///
    /// Runs from every put and, through each shard's refusal hook, from
    /// every settled refusal — the latter covers re-stores that land on a
    /// cancelling thread after the putter already scanned.
    fn settle(&self) {
        while self.len() > 0 && self.waiting_takers() > 0 && self.rebalance() > 0 {}
    }
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> ShardedPool<E, B> {
    /// Creates an empty sharded pool with the default shard count: the
    /// machine's available parallelism, capped at [`MAX_DEFAULT_SHARDS`](crate::MAX_DEFAULT_SHARDS).
    pub fn new() -> Self {
        Self::with_shards(cqs_core::shard::default_shard_count(MAX_DEFAULT_SHARDS))
    }

    /// Creates an empty sharded pool with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        Self::build(shards)
    }

    fn build(shards: usize) -> Self {
        assert!(shards > 0, "a sharded pool needs at least one shard");
        // Divide the default freelist bound across the shards; each keeps
        // at least one slot, so the whole primitive pins at most
        // `max(DEFAULT_FREELIST_SLOTS, shards)` idle segments (the
        // single-queue envelope up to 4 shards, one per shard beyond).
        let slots = (cqs_core::CqsConfig::DEFAULT_FREELIST_SLOTS / shards).max(1);
        let inner = Arc::new_cyclic(|weak: &Weak<PoolInner<E, B>>| PoolInner {
            shards: (0..shards)
                .map(|_| {
                    // With siblings to strand a taker on, each shard
                    // reports settled refusals back so the wrapper can
                    // re-run the settle scan from the cancelling thread
                    // (the weak upgrade only fails when the whole primitive
                    // is already gone — nothing left to serve).
                    let on_refusal: Option<RefusalHook> = (shards > 1).then(|| {
                        let weak = Weak::clone(weak);
                        Box::new(move || {
                            if let Some(inner) = weak.upgrade() {
                                inner.settle();
                            }
                        }) as RefusalHook
                    });
                    BlockingPool::with_backend_config(
                        B::default(),
                        "sharded-pool.take",
                        slots,
                        on_refusal,
                    )
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        });
        ShardedPool { inner }
    }
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> Default for ShardedPool<E, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Send + 'static, B: PoolBackend<E>> ShardedPool<E, B> {
    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The calling thread's home shard index.
    pub fn home(&self) -> usize {
        cqs_core::shard::home_shard(self.inner.shards.len())
    }

    /// A racy snapshot of the number of stored elements across all shards.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no elements are currently stored on any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A racy snapshot of the takers queued across all shards.
    pub fn waiting_takers(&self) -> usize {
        self.inner.waiting_takers()
    }

    /// Total live queue segments across all shards (diagnostics).
    pub fn live_segments(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(BlockingPool::live_segments)
            .sum()
    }

    /// Retrieves an element routed through the calling thread's home shard.
    pub fn take(&self) -> CqsFuture<E> {
        self.take_at(self.home())
    }

    /// Retrieves an element routed through shard `home % shards` — the
    /// deterministic core of [`take`](Self::take), also used by the
    /// model-checking programs to pin routing independently of TLS.
    pub fn take_at(&self, home: usize) -> CqsFuture<E> {
        let shards = &self.inner.shards;
        let n = shards.len();
        let home = home % n;
        if shards[home].is_closed() {
            return CqsFuture::cancelled();
        }
        if let Some(element) = shards[home].try_take_weak() {
            cqs_stats::bump!(shard_local_hits);
            return CqsFuture::immediate(element);
        }
        for d in 1..n {
            cqs_chaos::inject!("sharded.steal.window");
            if let Some(element) = shards[(home + d) % n].try_take_weak() {
                cqs_stats::bump!(shard_steals);
                return CqsFuture::immediate(element);
            }
        }
        // Global miss: park in the home shard's FIFO taker queue...
        let f = shards[home].take();
        if f.is_immediate() {
            return f;
        }
        // ...then re-scan the sibling stores: a put that stored its element
        // between our steal pass and our registration cannot have seen us
        // waiting; this re-scan is our side of that race (see module docs).
        // On a hit we abort the queued request; if the abort loses to an
        // in-flight grant we hold one element too many and return it.
        for d in 1..n {
            cqs_chaos::inject!("sharded.steal.window");
            if let Some(element) = shards[(home + d) % n].try_take_weak() {
                if f.cancel() {
                    cqs_stats::bump!(shard_steals);
                    return CqsFuture::immediate(element);
                }
                self.put_at((home + d) % n, element);
                return f;
            }
        }
        f
    }

    /// Blocking convenience: retrieves an element, waiting if necessary.
    ///
    /// # Errors
    ///
    /// Fails with [`Cancelled`] only if the pool is closed.
    pub fn take_blocking(&self) -> Result<E, Cancelled> {
        self.take().wait()
    }

    /// Returns `element` through the calling thread's home shard.
    pub fn put(&self, element: E) {
        self.put_at(self.home(), element);
    }

    /// Returns `element` through shard `home % shards` — the deterministic
    /// core of [`put`](Self::put).
    ///
    /// Hands it to the home shard's first waiting taker if there is one;
    /// otherwise stores it locally and immediately migrates stored
    /// elements to any starving sibling shards (see the module docs for
    /// why pool migration cannot be deferred).
    pub fn put_at(&self, home: usize, element: E) {
        let inner = &*self.inner;
        let n = inner.shards.len();
        let home = home % n;
        // Whether the element was stored or handed to a local taker is
        // decided by the put's own `fetch_add`, not by a
        // `waiting_takers()` snapshot taken beforehand: a taker the
        // snapshot counted can cancel concurrently (its `on_cancellation`
        // increments the size word first), turning the would-be handoff
        // into a store that a snapshot-guided early return would leave
        // unmigrated — a lost wakeup for a taker parked on a sibling.
        let stored = inner.shards[home].put_reporting(element);
        if n == 1 {
            // Single shard: the store serves its own FIFO queue directly.
            return;
        }
        if stored {
            inner.rebalance_from(home);
        }
        // On *both* paths: even a committed handoff can be voided by the
        // taker's cancellation refusing the in-flight resume, which
        // re-stores the element. When the refusal settles before this put
        // returns, this scan catches it; when the resume delegated its
        // element to a mid-flight canceller, the refusal settles on the
        // cancelling thread *after* we return, and that shard's refusal
        // hook re-runs the scan from there.
        inner.settle();
    }

    /// Returns a batch of elements through shard `home % shards`: waiting
    /// takers anywhere are served first (home shard, then ring order), one
    /// batched [`BlockingPool::put_many`] traversal per recipient shard,
    /// and the remainder is stored at home (followed by the same migration
    /// scan as [`put_at`](Self::put_at)).
    pub fn put_many_at(&self, home: usize, elements: impl IntoIterator<Item = E>) {
        let mut elements: Vec<E> = elements.into_iter().collect();
        if elements.is_empty() {
            return;
        }
        let inner = &*self.inner;
        let n = inner.shards.len();
        let home = home % n;
        for d in 0..n {
            if elements.is_empty() {
                break;
            }
            let idx = (home + d) % n;
            let shard = &inner.shards[idx];
            let waiters = shard.waiting_takers().min(elements.len());
            if waiters > 0 {
                if d > 0 {
                    cqs_chaos::inject!("sharded.rebalance.window");
                    cqs_stats::bump!(shard_rebalances, waiters);
                }
                let stored = shard.put_many_reporting(elements.drain(..waiters));
                if stored > 0 && d > 0 {
                    // Takers counted by the snapshot cancelled under us:
                    // part of the batch landed in this *foreign* shard's
                    // store. Sweep from it right away so the elements
                    // reach takers parked elsewhere instead of stranding.
                    inner.rebalance_from(idx);
                }
            }
        }
        // No early return above: every batched put ends with the home
        // migration scan and the settle check, even when the taker counts
        // it served against consumed the whole batch — those counts were
        // snapshots and may have over-promised.
        if !elements.is_empty() {
            inner.shards[home].put_many(elements);
        }
        inner.rebalance_from(home);
        inner.settle();
    }

    /// Returns a batch of elements through the calling thread's home shard;
    /// see [`put_many_at`](Self::put_many_at).
    pub fn put_many(&self, elements: impl IntoIterator<Item = E>) {
        self.put_many_at(self.home(), elements);
    }

    /// Runs a migration sweep from every shard's store toward starving
    /// shards. Normally unnecessary (puts migrate on their own); exposed
    /// for tests and operators reacting to a watchdog report.
    pub fn rebalance(&self) -> usize {
        self.inner.rebalance()
    }

    /// Closes the pool: every waiting taker on every shard is woken with
    /// [`Cancelled`] and subsequent takes fail fast. Stored elements stay,
    /// and [`put`](Self::put) keeps working for orderly teardown.
    pub fn close(&self) {
        for shard in self.inner.shards.iter() {
            shard.close();
        }
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.inner.shards[0].is_closed()
    }

    /// Publishes per-shard depth and live-segment gauges to the watchdog
    /// (`shard_depth`, `live_segments`, keyed by each shard's primitive
    /// id). No-op without the `watch` feature.
    pub fn publish_gauges(&self) {
        for shard in self.inner.shards.iter() {
            cqs_watch::gauge!(
                shard.watch_id(),
                "shard_depth",
                shard.waiting_takers() as i64
            );
            cqs_watch::gauge!(
                shard.watch_id(),
                "live_segments",
                shard.live_segments() as i64
            );
            let _ = shard;
        }
    }
}

impl<E: Send + 'static, B: PoolBackend<E>> std::fmt::Debug for ShardedPool<E, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPool")
            .field("shards", &self.inner.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn put_take_roundtrip_across_shards() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(3);
        assert!(pool.is_empty());
        for e in 0..6 {
            pool.put_at(e as usize, e);
        }
        assert_eq!(pool.len(), 6);
        let mut seen = HashSet::new();
        for i in 0..6 {
            let f = pool.take_at(i + 1); // route through a foreign shard
            assert!(f.is_immediate(), "take {i} must hit a store or steal");
            seen.insert(f.wait().unwrap());
        }
        assert_eq!(seen.len(), 6, "elements lost or duplicated");
        assert!(pool.is_empty());
    }

    #[test]
    fn steal_crosses_shards() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        pool.put_at(0, 7);
        let f = pool.take_at(1);
        assert!(f.is_immediate(), "steal pass must find shard 0's store");
        assert_eq!(f.wait(), Ok(7));
    }

    #[test]
    fn put_reaches_taker_parked_on_other_shard() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        let waiter = pool.take_at(1);
        assert!(!waiter.is_immediate(), "empty pool: taker must park");
        pool.put_at(0, 42);
        assert_eq!(waiter.wait(), Ok(42), "migration must reach the taker");
        assert!(pool.is_empty());
    }

    #[test]
    fn put_many_serves_takers_across_shards_then_stores() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        let w0 = pool.take_at(0);
        let w1 = pool.take_at(1);
        assert!(!w0.is_immediate() && !w1.is_immediate());
        pool.put_many_at(0, [1, 2, 3, 4]);
        let got: HashSet<u64> = [w0.wait().unwrap(), w1.wait().unwrap()].into();
        assert_eq!(got.len(), 2);
        assert_eq!(pool.len(), 2, "leftovers are stored");
    }

    #[test]
    fn takers_are_fifo_within_a_shard() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        let f1 = pool.take_at(1);
        let f2 = pool.take_at(1);
        pool.put_at(1, 10);
        pool.put_at(1, 11);
        assert_eq!(f1.wait(), Ok(10), "per-shard FIFO violated");
        assert_eq!(f2.wait(), Ok(11));
    }

    #[test]
    fn cancelled_taker_is_skipped() {
        let pool: ShardedStackPool<u64> = ShardedStackPool::with_shards(2);
        let f1 = pool.take_at(0);
        let f2 = pool.take_at(0);
        assert!(f1.cancel());
        pool.put_at(1, 9);
        assert_eq!(f2.wait(), Ok(9));
    }

    #[test]
    fn close_wakes_takers_on_all_shards_and_keeps_elements() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(3);
        let waiters: Vec<_> = (0..3).map(|i| pool.take_at(i)).collect();
        pool.close();
        assert!(pool.is_closed());
        for w in waiters {
            assert!(w.wait().is_err());
        }
        assert!(
            pool.take_at(0).wait().is_err(),
            "take after close fails fast"
        );
        pool.put_at(0, 5);
        assert_eq!(pool.len(), 1, "elements survive close");
    }

    /// Elements are conserved under threads hammering every path: local
    /// hits, steals, parks, cancellations, migrations, batched puts.
    #[test]
    fn elements_conserved_under_sharded_storm() {
        const THREADS: usize = 8;
        const ELEMENTS: u64 = 3;
        const OPS: usize = 800;
        let pool: Arc<ShardedQueuePool<u64>> = Arc::new(ShardedQueuePool::with_shards(4));
        for e in 0..ELEMENTS {
            pool.put_at(e as usize, e);
        }
        let held = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            let held = Arc::clone(&held);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    let f = pool.take_at(t + i);
                    if (i + t) % 7 == 0 && f.cancel() {
                        continue;
                    }
                    let e = f.wait().unwrap();
                    let now = held.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= ELEMENTS as usize, "more elements in use than exist");
                    held.fetch_sub(1, Ordering::SeqCst);
                    if i % 13 == 0 {
                        pool.put_many_at(t + i, [e]);
                    } else {
                        pool.put_at(t + i + 1, e); // return via a foreign shard
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut back = HashSet::new();
        for i in 0..ELEMENTS {
            back.insert(pool.take_at(i as usize).wait().unwrap());
        }
        assert_eq!(back.len(), ELEMENTS as usize, "elements lost or duplicated");
        assert!(pool.is_empty());
        assert_eq!(pool.waiting_takers(), 0);
    }
}
