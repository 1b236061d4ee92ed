//! A sharded blocking pool: N per-shard CQS-backed [`BlockingPool`]s
//! behind one logical element store.
//!
//! Runs the sharded-bank protocol of [`cqs_core::shard`] (see there for the
//! precise fairness contract) — the same one as `cqs-sync`'s
//! `ShardedSemaphore`, since a semaphore is a pool of unit permits — with
//! the pool's policy. Elements, unlike semaphore credit, cannot be
//! deferred: a stored element next to a parked remote taker is a lost
//! wake-up, and a pool has no "holder count" telling a put that more puts
//! are coming. So the pool's `Shard` impl states that every put that
//! stores migrates immediately (rebalance interval 1), and that the
//! no-idle-element sweep runs whenever any element is stored (sweep
//! threshold 1). Pools are unordered by contract,
//! so element identity never depends on routing.

use std::sync::atomic::Ordering;

use cqs_core::shard::{RefusalHook, Shard, ShardBank};
use cqs_core::CqsFuture;

use crate::{BlockingPool, PoolBackend, QueueBackend, StackBackend};

impl<E: Send + 'static, B: PoolBackend<E> + Default> Shard for BlockingPool<E, B> {
    type Item = E;
    type Init = ();

    /// No later put is guaranteed, so every storing put migrates at once.
    const REBALANCE_INTERVAL: u64 = 1;

    /// A single stored element next to a parked taker already idles.
    fn sweep_threshold((): &()) -> usize {
        1
    }

    fn new_shard(
        (): &(),
        _index: usize,
        _shards: usize,
        freelist_slots: usize,
        on_refusal: Option<RefusalHook>,
    ) -> Self {
        BlockingPool::with_backend_config(
            B::default(),
            "sharded-pool.take",
            freelist_slots,
            on_refusal,
        )
    }

    /// CASes the size word downward while it is positive, then retrieves.
    /// When the CAS wins but the paired insert broke (the backend's restart
    /// protocol), the loop simply runs again: the racing `put` restarts
    /// with a fresh size increment, so the accounting stays balanced.
    fn try_take_weak(&self) -> Option<E> {
        let size = &self.shared.size;
        loop {
            let mut s = size.load(Ordering::SeqCst);
            loop {
                if s <= 0 {
                    return None;
                }
                match size.compare_exchange(s, s - 1, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(_) => break,
                    Err(actual) => s = actual,
                }
            }
            cqs_watch::gauge!(self.shared.cqs.watch_id(), "size", s - 1);
            if let Some(element) = self.shared.backend.try_retrieve() {
                return Some(element);
            }
        }
    }

    fn park(&self) -> CqsFuture<E> {
        self.take()
    }

    fn give(&self, element: E) -> bool {
        self.shared.put(element)
    }

    fn give_many(&self, elements: Vec<E>) -> usize {
        self.shared.put_many(elements)
    }

    fn stored(&self) -> usize {
        self.len()
    }

    fn waiting(&self) -> usize {
        self.waiting_takers()
    }

    fn close(&self) {
        self.shared.cqs.close();
    }

    fn poison(&self) {
        self.shared.cqs.poison();
    }

    fn is_closed(&self) -> bool {
        self.shared.cqs.is_closed()
    }

    fn is_poisoned(&self) -> bool {
        self.shared.cqs.is_poisoned()
    }

    fn live_segments(&self) -> usize {
        self.shared.cqs.live_segments()
    }

    fn watch_id(&self) -> u64 {
        self.shared.cqs.watch_id()
    }
}

/// A sharded pool over the queue backend.
pub type ShardedQueuePool<E> = ShardedPool<E, QueueBackend<E>>;

/// A sharded pool over the stack backend (hottest element first, per
/// shard).
pub type ShardedStackPool<E> = ShardedPool<E, StackBackend<E>>;

/// A blocking pool sharded over N per-shard CQS instances: a typed facade
/// over [`ShardBank<BlockingPool>`](ShardBank).
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
    bank: ShardBank<BlockingPool<E, B>>,
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> ShardedPool<E, B> {
    /// Creates an empty sharded pool with the default shard count: the
    /// machine's available parallelism, capped at
    /// [`MAX_DEFAULT_SHARDS`](cqs_core::shard::MAX_DEFAULT_SHARDS).
    pub fn new() -> Self {
        Self::with_shards(cqs_core::shard::default_shard_count(
            cqs_core::shard::MAX_DEFAULT_SHARDS,
        ))
    }

    /// Creates an empty sharded pool with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        ShardedPool {
            bank: ShardBank::new(shards, ()),
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.bank.shards()
    }

    /// The calling thread's home shard index.
    pub fn home(&self) -> usize {
        self.bank.home()
    }

    /// A racy snapshot of the number of stored elements across all shards.
    pub fn len(&self) -> usize {
        self.bank.stored()
    }

    /// Whether no elements are currently stored on any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A racy snapshot of the takers queued across all shards.
    pub fn waiting_takers(&self) -> usize {
        self.bank.waiting()
    }

    /// Total live queue segments across all shards.
    pub fn live_segments(&self) -> usize {
        self.bank.live_segments()
    }

    /// Retrieves an element routed through the calling thread's home shard.
    pub fn take(&self) -> CqsFuture<E> {
        self.take_at(self.home())
    }

    /// Retrieves an element routed through shard `home % shards` (see
    /// [`ShardBank::take_at`]); the model-checking programs use it to pin
    /// routing independently of TLS.
    pub fn take_at(&self, home: usize) -> CqsFuture<E> {
        self.bank.take_at(home)
    }

    /// Returns `element` through the calling thread's home shard.
    pub fn put(&self, element: E) {
        self.put_at(self.home(), element);
    }

    /// Returns `element` through shard `home % shards` (see
    /// [`ShardBank::give_at`]).
    pub fn put_at(&self, home: usize, element: E) {
        self.bank.give_at(home, element);
    }

    /// Returns a batch of elements through shard `home % shards` in
    /// batched traversals (see [`ShardBank::give_many_at`]).
    pub fn put_many_at(&self, home: usize, elements: impl IntoIterator<Item = E>) {
        self.bank.give_many_at(home, elements.into_iter().collect());
    }

    /// Returns a batch of elements through the calling thread's home shard;
    /// see [`put_many_at`](Self::put_many_at).
    pub fn put_many(&self, elements: impl IntoIterator<Item = E>) {
        self.put_many_at(self.home(), elements);
    }

    /// Closes every shard: parked takers settle cancelled and later takes
    /// fail fast. Stored elements stay; puts keep working.
    pub fn close(&self) {
        self.bank.close();
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.bank.is_closed()
    }

    /// Publishes per-shard gauges to the watchdog (see
    /// [`ShardBank::publish_gauges`]).
    pub fn publish_gauges(&self) {
        self.bank.publish_gauges();
    }
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> Default for ShardedPool<E, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> std::fmt::Debug for ShardedPool<E, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPool")
            .field("shards", &self.shards())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_core::FutureState;

    #[test]
    fn put_reaches_taker_parked_on_other_shard() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        let mut waiter = pool.take_at(1);
        assert!(!waiter.is_immediate(), "empty pool: taker must park");
        pool.put_at(0, 42);
        assert_eq!(
            waiter.try_get(),
            FutureState::Ready(42),
            "migration must reach the taker"
        );
        assert!(pool.is_empty());
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
}
