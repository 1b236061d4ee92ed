//! A sharded counting semaphore: N per-shard [`Semaphore`]s behind one
//! logical permit pool.
//!
//! The single-queue [`Semaphore`] funnels every contended acquire and every
//! release through one `fetch_add` pair and — worse, under oversubscription
//! — hands each released permit *irrevocably* to the parked FIFO head, so
//! throughput degenerates to the scheduler's wake-up latency (a lock
//! convoy). [`ShardedSemaphore`] splits the permit bank across N shards and
//! runs the sharded-bank protocol of [`cqs_core::shard`] over them (see
//! there for the precise fairness contract) with the semaphore's policy
//! (stated by its `Shard` impl): a rebalance pulse every 64 banking
//! releases per shard, and the no-idle-permit sweep when the last holder
//! releases. A parked waiter is
//! therefore served after at most 64 overtakes under a steady stream of
//! releases, and as soon as the last holder releases at quiescence.

use cqs_core::shard::ShardBank;
use cqs_core::{Cancelled, CqsFuture};

use crate::semaphore::Semaphore;

/// A fair-enough, abortable counting semaphore sharded over N per-shard
/// CQS instances: a typed facade over [`ShardBank<Semaphore>`].
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
    bank: ShardBank<Semaphore>,
}

impl ShardedSemaphore {
    /// Creates a sharded semaphore with `permits` total permits and the
    /// default shard count: the machine's available parallelism, capped at
    /// [`MAX_DEFAULT_SHARDS`](cqs_core::shard::MAX_DEFAULT_SHARDS).
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new(permits: usize) -> Self {
        Self::with_shards(
            permits,
            cqs_core::shard::default_shard_count(cqs_core::shard::MAX_DEFAULT_SHARDS),
        )
    }

    /// Creates a sharded semaphore with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `permits` or `shards` is zero.
    pub fn with_shards(permits: usize, shards: usize) -> Self {
        ShardedSemaphore {
            bank: ShardBank::new(shards, permits),
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

    /// A snapshot of the permits currently banked across all shards (zero
    /// does not imply waiters exist; see [`waiting`](Self::waiting)).
    pub fn available_permits(&self) -> usize {
        self.bank.stored()
    }

    /// A snapshot of the acquirers parked across all shards.
    pub fn waiting(&self) -> usize {
        self.bank.waiting()
    }

    /// Total live queue segments across all shards.
    pub fn live_segments(&self) -> usize {
        self.bank.live_segments()
    }

    /// Acquires a permit routed through the calling thread's home shard.
    pub fn acquire(&self) -> CqsFuture<()> {
        self.acquire_at(self.home())
    }

    /// Acquires a permit routed through shard `home % shards` (see
    /// [`ShardBank::take_at`]); the model-checking programs use it to pin
    /// shard routing independently of TLS. Cancel the returned future to
    /// abort waiting.
    pub fn acquire_at(&self, home: usize) -> CqsFuture<()> {
        self.bank.take_at(home)
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

    /// Returns a permit through shard `home % shards` (see
    /// [`ShardBank::give_at`]).
    pub fn release_at(&self, home: usize) {
        self.bank.give_at(home, ());
    }

    /// Returns `k` permits through shard `home % shards` in batched
    /// traversals (see [`ShardBank::give_many_at`]).
    pub fn release_n_at(&self, home: usize, k: usize) {
        self.bank.give_many_at(home, vec![(); k]);
    }

    /// Returns `k` permits through the calling thread's home shard; see
    /// [`release_n_at`](Self::release_n_at).
    pub fn release_n(&self, k: usize) {
        self.release_n_at(self.home(), k);
    }

    /// Closes every shard: parked acquirers settle cancelled and later
    /// acquires fail fast; releases keep working.
    pub fn close(&self) {
        self.bank.close();
    }

    /// Whether [`close`](Self::close) (or [`poison`](Self::poison)) was
    /// called.
    pub fn is_closed(&self) -> bool {
        self.bank.is_closed()
    }

    /// Poisons (and closes) every shard.
    pub fn poison(&self) {
        self.bank.poison();
    }

    /// Whether any shard was poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.bank.is_poisoned()
    }

    /// Publishes per-shard gauges to the watchdog (see
    /// [`ShardBank::publish_gauges`]).
    pub fn publish_gauges(&self) {
        self.bank.publish_gauges();
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
    use cqs_core::FutureState;
    use std::time::Duration;

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        let _ = ShardedSemaphore::with_shards(0, 2);
    }

    #[test]
    fn release_serves_parked_waiter_on_other_shard() {
        // The quiescence sweep: the last holder's release must reach a
        // waiter parked on a different shard even though the rebalance
        // interval is far away.
        let s = ShardedSemaphore::with_shards(1, 2);
        assert!(s.acquire_at(0).is_immediate());
        let mut waiter = s.acquire_at(1);
        assert!(!waiter.is_immediate(), "no permit is banked; must park");
        s.release_at(0);
        assert_eq!(waiter.try_get(), FutureState::Ready(()));
        s.release_at(1);
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn rebalance_interval_bounds_barging() {
        // Two permits, one held elsewhere, so only a pulse can migrate:
        // with interval 1 every banking release pulses immediately.
        let s: ShardBank<Semaphore> = ShardBank::with_interval(2, 2, 1);
        assert!(s.take_at(0).is_immediate());
        assert!(s.take_at(0).is_immediate());
        let waiter = s.take_at(1);
        assert!(!waiter.is_immediate());
        s.give_at(0, ());
        assert_eq!(waiter.wait(), Ok(()));
        assert_eq!(s.stored(), 0);
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
        s.close();
        assert!(
            s.acquire_blocking().is_err(),
            "acquire after close fails fast"
        );
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
                                                 // Park a waiter at shard 0, then release at shard 1: with a single
                                                 // permit the sweep migrates it at once (no holder is left).
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
