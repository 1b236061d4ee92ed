//! Sharding: thread-to-shard affinity and the one sharded-bank protocol
//! behind `cqs-sync`'s `ShardedSemaphore` and `cqs-pool`'s `ShardedPool`.
//!
//! # Routing
//!
//! A sharded primitive splits one logical queue into N per-shard CQS
//! instances and routes each thread to a *home* shard, so uncontended
//! traffic never touches a shared hot word. The scheme reuses the TLS
//! home-stripe pattern of `cqs-reclaim`'s borrow counters: each OS thread
//! draws a process-wide ordinal from a global counter the first time it
//! asks, caches it in a `thread_local`, and every sharded primitive derives
//! the thread's home shard as `ordinal % shards`. Drawing the ordinal once
//! per thread (instead of hashing `ThreadId` per operation) keeps the fast
//! path to a single TLS read, and consecutive ordinals spread a pool of
//! worker threads evenly across any shard count.
//!
//! # The bank
//!
//! A semaphore is a pool of unit permits (paper, §4.3–4.4), so both sharded
//! primitives run one protocol, [`ShardBank`], over a small per-shard
//! trait, [`Shard`]: a signed bank word (`> 0` stored items, `< 0` parked
//! waiters) in front of a CQS waiter queue.
//!
//! * **local fast path** — a take first claims a stored item from its home
//!   shard ([`Shard::try_take_weak`]), touching no shared hot word and no
//!   queue;
//! * **bounded steal** — on a local miss, one ring pass over the siblings;
//! * **per-shard FIFO suspension** — on a global miss the taker parks in
//!   its home shard's CQS, with cancellation, timeouts, close and poisoning
//!   flowing through the ordinary per-shard paths;
//! * **batched rebalance** — gives store locally and migrate stored items
//!   to starving shards in batches (one [`Shard::give_many`], i.e. one
//!   `Cqs::resume_n` traversal, per recipient) every `rebalance_interval`-th
//!   storing give, plus the quiescence sweep below.
//!
//! The two primitives differ in one policy, which each shard type states
//! through the trait rather than a caller passing it in: the **rebalance
//! interval** ([`Shard::REBALANCE_INTERVAL`]: the semaphore defers
//! migration for 64 storing releases; a pool migrates on every storing
//! put, because a stored element next to a parked remote taker has no
//! later release to rescue it) and the **sweep threshold**
//! ([`Shard::sweep_threshold`]) — how many items must be stored before the
//! no-idle-item sweep runs (the semaphore's full permit count, i.e. no
//! holder is left to release; a pool's `1`). The threshold is a liveness
//! condition, not a tuning knob: any larger value can strand a waiter.
//!
//! # Fairness and liveness, precisely
//!
//! Global FIFO is deliberately relaxed — that relaxation *is* the
//! throughput win:
//!
//! * waiters are FIFO **within a shard**, not across shards;
//! * a stored item may be claimed by a barging taker (local hit or steal)
//!   ahead of waiters parked on *other* shards, for at most
//!   `rebalance_interval` consecutive storing gives per shard — then a
//!   rebalance pulse migrates stored items to starving shards;
//! * **no item idles while a waiter is parked** once the sweep threshold is
//!   met: a give that leaves at least `sweep_threshold` items stored runs a
//!   full sweep, and a parking taker re-scans every sibling after
//!   registering (cancelling its request if the re-scan wins). Together
//!   these close the store-vs-park race — each side's write precedes its
//!   read of the other's word (SeqCst), so at least one of them observes
//!   the other. Whether a give stored is decided by its own `fetch_add`
//!   (never by a waiter-count snapshot, which a concurrent cancellation can
//!   invalidate), and the sweep also runs after a served handoff, because
//!   the recipient's cancellation can refuse the in-flight resume and
//!   re-store the item. A refusal can even settle on the *cancelling*
//!   thread after the giver returned (the resume delegates its item to a
//!   mid-flight canceller), so each shard reports settled refusals through
//!   a [`RefusalHook`] that re-runs the sweep from the cancelling thread.
//!
//! What is given up relative to one FIFO queue is only *short-term
//! ordering*: a taker that arrived later may complete first.
//!
//! # Crashes
//!
//! A panic escaping a cross-shard hand-over (a crash inside the recipient's
//! batched resume) has already poisoned the recipient shard; the bank then
//! poisons every shard before re-raising, so the primitive is either fully
//! operational or poisoned as a whole — never half-closed with takes on
//! the open shards stealing from the poisoned one.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use cqs_stats::CachePadded;

use crate::{CqsConfig, CqsFuture};

/// Process-wide source of thread ordinals. Monotonically increasing; never
/// recycled on thread exit — a stale ordinal only skews shard balance, it
/// cannot alias two live threads onto "the same thread".
static NEXT_ORDINAL: AtomicUsize = AtomicUsize::new(0);

const UNASSIGNED: usize = usize::MAX;

thread_local! {
    static ORDINAL: std::cell::Cell<usize> = const { std::cell::Cell::new(UNASSIGNED) };
}

/// Default cap on a sharded primitive's shard count; see
/// [`default_shard_count`].
pub const MAX_DEFAULT_SHARDS: usize = 8;

/// Hook a [`ShardBank`] installs on each of its shards to learn that a
/// cancellation refused an in-flight resume and re-stored its item there.
/// The shard calls it once the refusal has fully settled (item back in the
/// shard's bank), possibly on the cancelling thread after the giver already
/// returned.
pub type RefusalHook = Box<dyn Fn() + Send + Sync>;

/// This thread's process-wide ordinal, assigned on first call and stable
/// for the thread's lifetime.
///
/// # Example
///
/// ```
/// let a = cqs_core::shard::thread_ordinal();
/// assert_eq!(a, cqs_core::shard::thread_ordinal());
/// let b = std::thread::spawn(cqs_core::shard::thread_ordinal)
///     .join()
///     .unwrap();
/// assert_ne!(a, b);
/// ```
pub fn thread_ordinal() -> usize {
    ORDINAL.with(|cell| {
        let mut ordinal = cell.get();
        if ordinal == UNASSIGNED {
            ordinal = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
            cell.set(ordinal);
        }
        ordinal
    })
}

/// The home shard for the calling thread in a primitive with `shards`
/// shards: `thread_ordinal() % shards`.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn home_shard(shards: usize) -> usize {
    thread_ordinal() % shards
}

/// The default shard count for a sharded primitive: the machine's available
/// parallelism, clamped to `[1, cap]`. More shards than cores cannot add
/// throughput but still multiplies idle segments, so the cap keeps the
/// memory envelope tight on large machines while a knob on the primitive
/// (`with_shards`) overrides it for experiments.
pub fn default_shard_count(cap: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    cores.clamp(1, cap.max(1))
}

/// One shard of a [`ShardBank`]: a signed bank word in front of a CQS
/// waiter queue. `cqs-sync`'s `Semaphore` (unit items) and `cqs-pool`'s
/// `BlockingPool` implement it.
pub trait Shard: Send + Sync + 'static {
    /// What a take hands out: `()` for a permit, an element for a pool.
    type Item: Send + 'static;

    /// Construction input shared by every shard of a bank (the
    /// semaphore's total permit count; nothing for a pool).
    type Init;

    /// Consecutive storing gives one shard absorbs before its next storing
    /// give runs a rebalance pulse toward starving siblings: the bound on
    /// how long a barging taker can hold off a waiter parked elsewhere.
    const REBALANCE_INTERVAL: u64;

    /// How many items must be stored, across the bank built from `init`,
    /// before a give runs the no-idle-item sweep: the fewest stored items
    /// at which no later give is guaranteed to come and serve a waiter.
    fn sweep_threshold(init: &Self::Init) -> usize;

    /// Builds shard `index` of a bank of `shards`. `freelist_slots` is the
    /// shard's share of the single-queue segment freelist; `on_refusal` is
    /// the hook to call after every settled refusal (`None` for a single
    /// shard, which has no sibling to strand a waiter on).
    fn new_shard(
        init: &Self::Init,
        index: usize,
        shards: usize,
        freelist_slots: usize,
        on_refusal: Option<RefusalHook>,
    ) -> Self
    where
        Self: Sized;

    /// Claims one *stored* item without queuing; `None` when none is
    /// visible (weak: an item a racing give announced but has not stored
    /// yet is missed).
    fn try_take_weak(&self) -> Option<Self::Item>;

    /// Like [`try_take_weak`](Shard::try_take_weak), but claims up to `max`
    /// items (one at a time unless the shard can claim a batch at once).
    fn try_take_many_weak(&self, max: usize) -> Vec<Self::Item> {
        (0..max).map_while(|_| self.try_take_weak()).collect()
    }

    /// The shard's own take: immediate on a stored item, otherwise parks in
    /// the shard's FIFO queue.
    fn park(&self) -> CqsFuture<Self::Item>;

    /// Returns `item`, serving the first parked waiter if there is one.
    /// Reports whether the item was *stored*, decided by the give's own
    /// `fetch_add` on the bank word.
    fn give(&self, item: Self::Item) -> bool;

    /// Returns a batch in one `fetch_add` and one batched resume traversal;
    /// reports how many items were stored rather than handed to waiters.
    fn give_many(&self, items: Vec<Self::Item>) -> usize;

    /// A snapshot of the stored items (zero while waiters are parked).
    fn stored(&self) -> usize;

    /// A snapshot of the parked waiters (zero while items are stored).
    fn waiting(&self) -> usize;

    /// Closes the shard: parked waiters settle cancelled, takes fail fast.
    fn close(&self);

    /// Poisons (and closes) the shard.
    fn poison(&self);

    /// Whether the shard was closed.
    fn is_closed(&self) -> bool;

    /// Whether the shard was poisoned.
    fn is_poisoned(&self) -> bool;

    /// Live segments of the shard's waiter queue.
    fn live_segments(&self) -> usize;

    /// The shard's watchdog id (`0` without the `watch` feature).
    fn watch_id(&self) -> u64;
}

/// N [`Shard`]s behind one logical bank of items, with home-shard routing,
/// bounded steal, batched rebalance and the no-idle-item sweep (see the
/// module docs for the protocol and its fairness contract).
///
/// `ShardedSemaphore` and `ShardedPool` are typed facades over this; tests
/// drive it directly to cover both with one program, and through
/// [`with_interval`](Self::with_interval) to choose other rebalance
/// intervals.
#[derive(Debug)]
pub struct ShardBank<S> {
    /// The shards and rebalance state live behind an `Arc` so each shard's
    /// refusal hook can hold a `Weak` back-reference: a refusal can settle
    /// on the *cancelling* thread after the giving thread already swept and
    /// returned (the resume delegated its item to the mid-flight
    /// canceller), making the canceller the only thread that can still run
    /// the no-idle-item sweep.
    inner: Arc<BankInner<S>>,
}

#[derive(Debug)]
struct BankInner<S> {
    shards: Box<[S]>,
    /// Per-shard count of consecutive storing gives since the last
    /// rebalance pulse from that shard (padded: each is hammered by the
    /// give path of one shard's threads).
    streak: Box<[CachePadded<AtomicU64>]>,
    rebalance_interval: u64,
    sweep_threshold: usize,
}

impl<S: Shard> ShardBank<S> {
    /// Builds a bank of `shards` shards, each built by
    /// [`Shard::new_shard`] from `init`, under the shard type's policy.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, init: S::Init) -> Self {
        Self::with_interval(shards, init, S::REBALANCE_INTERVAL)
    }

    /// Like [`new`](Self::new), but runs a rebalance pulse every
    /// `rebalance_interval`-th storing give per shard instead of every
    /// [`Shard::REBALANCE_INTERVAL`]-th, for tests that exercise other
    /// pulse cadences.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `rebalance_interval` is zero.
    pub fn with_interval(shards: usize, init: S::Init, rebalance_interval: u64) -> Self {
        assert!(shards > 0, "a sharded primitive needs at least one shard");
        assert!(
            rebalance_interval > 0,
            "the rebalance interval must be positive"
        );
        // Divide the default freelist bound across the shards. Each shard
        // keeps at least one slot — recycling off entirely would re-toll
        // the allocator on every churn wave — so the idle segments pinned
        // by the whole primitive are bounded by
        // `max(DEFAULT_FREELIST_SLOTS, shards)`: the single-queue envelope
        // up to 4 shards, one segment per shard beyond that.
        let slots = (CqsConfig::DEFAULT_FREELIST_SLOTS / shards).max(1);
        let sweep_threshold = S::sweep_threshold(&init);
        let inner = Arc::new_cyclic(|weak: &Weak<BankInner<S>>| BankInner {
            shards: (0..shards)
                .map(|index| {
                    // The weak upgrade only fails when the whole primitive
                    // is already gone — nothing left to sweep.
                    let on_refusal = (shards > 1).then(|| {
                        let weak = Weak::clone(weak);
                        Box::new(move || {
                            if let Some(inner) = weak.upgrade() {
                                inner.sweep();
                            }
                        }) as RefusalHook
                    });
                    S::new_shard(&init, index, shards, slots, on_refusal)
                })
                .collect(),
            streak: (0..shards)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            rebalance_interval,
            sweep_threshold,
        });
        ShardBank { inner }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The calling thread's home shard index.
    pub fn home(&self) -> usize {
        home_shard(self.inner.shards.len())
    }

    /// A snapshot of the items stored across all shards.
    pub fn stored(&self) -> usize {
        self.inner.stored()
    }

    /// A snapshot of the waiters parked across all shards.
    pub fn waiting(&self) -> usize {
        self.inner.waiting()
    }

    /// Total live queue segments across all shards.
    pub fn live_segments(&self) -> usize {
        self.inner.shards.iter().map(S::live_segments).sum()
    }

    /// Takes an item routed through shard `home % shards`: completes
    /// immediately on a stored item (home shard first, then one steal pass
    /// over the siblings); otherwise parks in the home shard's FIFO queue.
    /// Cancel the returned future to abort waiting.
    pub fn take_at(&self, home: usize) -> CqsFuture<S::Item> {
        let shards = &self.inner.shards;
        let home = home % shards.len();
        if shards[home].is_closed() {
            return CqsFuture::cancelled();
        }
        if let Some(item) = shards[home].try_take_weak() {
            cqs_stats::bump!(shard_local_hits);
            return CqsFuture::immediate(item);
        }
        if let Some((_, item)) = self.inner.steal(home) {
            cqs_stats::bump!(shard_steals);
            return CqsFuture::immediate(item);
        }
        // Global miss: park in the home shard's FIFO queue...
        let f = shards[home].park();
        if f.is_immediate() {
            return f;
        }
        // ...then re-scan the siblings. A give that stored its item between
        // our steal pass and our registration cannot have seen us waiting;
        // one side of that race must notice the other (its store-write
        // precedes its waiter-scan, our register-write precedes this
        // re-scan — SeqCst store-buffering), and this is our side. On a hit
        // we abort the queued request; if the abort loses to an in-flight
        // grant we hold one item too many and give it back.
        if let Some((from, item)) = self.inner.steal(home) {
            if f.cancel() {
                cqs_stats::bump!(shard_steals);
                return CqsFuture::immediate(item);
            }
            self.give_at(from, item);
        }
        f
    }

    /// Gives `item` back through shard `home % shards`.
    ///
    /// Serves the home shard's FIFO queue if it has waiters; otherwise
    /// stores the item locally and then (a) runs a rebalance pulse if this
    /// shard's storing streak reached the interval, and (b) runs the sweep
    /// if at least the sweep threshold is stored anywhere.
    pub fn give_at(&self, home: usize, item: S::Item) {
        let inner = &*self.inner;
        let n = inner.shards.len();
        let home = home % n;
        // Whether the item was stored or served the local FIFO head is
        // decided by the give's own `fetch_add`, not by a waiter snapshot
        // taken beforehand: a waiter the snapshot counted can cancel
        // concurrently (its `on_cancellation` increments the bank word
        // first), turning the would-be handoff into a store that a
        // snapshot-guided early return would leave unswept — a lost wakeup
        // for a waiter parked on a sibling shard.
        let stored = inner.shards[home].give(item);
        if n == 1 {
            // Single shard: the bank serves its own FIFO queue directly.
            return;
        }
        if stored && inner.pulse_due(home) {
            inner.rebalance_from(home);
        }
        // The sweep runs on *both* paths: even a committed handoff can be
        // voided by the waiter's cancellation refusing the in-flight
        // resume, which re-stores the item. When the refusal settles
        // before this give returns, this sweep catches it; when the resume
        // delegated its item to a mid-flight canceller, the refusal settles
        // on the cancelling thread *after* we return, and that shard's
        // refusal hook re-runs the sweep from there.
        inner.sweep();
    }

    /// Gives a batch back through shard `home % shards`: parked waiters
    /// anywhere are served first (home shard, then ring order), one
    /// batched [`Shard::give_many`] traversal per recipient shard, and the
    /// remainder is stored at home, followed by a rebalance pulse from home
    /// and the sweep.
    pub fn give_many_at(&self, home: usize, mut items: Vec<S::Item>) {
        if items.is_empty() {
            return;
        }
        let inner = &*self.inner;
        let n = inner.shards.len();
        let home = home % n;
        for d in 0..n {
            if items.is_empty() {
                break;
            }
            let idx = (home + d) % n;
            let waiters = inner.shards[idx].waiting().min(items.len());
            if waiters == 0 {
                continue;
            }
            if d > 0 {
                cqs_chaos::inject!("sharded.rebalance.window");
                cqs_stats::bump!(shard_rebalances, waiters);
            }
            let rest = items.split_off(waiters);
            let batch = std::mem::replace(&mut items, rest);
            if inner.hand_over(idx, batch) > 0 && d > 0 {
                // Waiters counted by the snapshot cancelled under us: part
                // of the batch was stored at this *foreign* shard. Sweep
                // from it right away so it reaches waiters parked elsewhere
                // instead of stranding.
                inner.streak[idx].store(0, Ordering::Relaxed);
                inner.rebalance_from(idx);
            }
        }
        // No early return above: every batched give ends with the home
        // pulse and the sweep, even when the waiter counts it served
        // against consumed the whole batch — those counts were snapshots
        // and may have over-promised.
        if !items.is_empty() {
            inner.hand_over(home, items);
        }
        inner.streak[home].store(0, Ordering::Relaxed);
        inner.rebalance_from(home);
        inner.sweep();
    }

    /// Closes every shard: parked waiters everywhere settle cancelled and
    /// subsequent takes fail fast. Stored and handed-out items stay valid;
    /// gives keep working.
    pub fn close(&self) {
        self.inner.shards.iter().for_each(S::close);
    }

    /// Whether [`close`](Self::close) (or [`poison`](Self::poison)) was
    /// called.
    pub fn is_closed(&self) -> bool {
        self.inner.shards[0].is_closed()
    }

    /// Poisons (and closes) every shard.
    pub fn poison(&self) {
        self.inner.poison();
    }

    /// Whether any shard was poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.inner.shards.iter().any(S::is_poisoned)
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

impl<S: Shard> BankInner<S> {
    fn stored(&self) -> usize {
        self.shards.iter().map(S::stored).sum()
    }

    fn waiting(&self) -> usize {
        self.shards.iter().map(S::waiting).sum()
    }

    fn poison(&self) {
        self.shards.iter().for_each(S::poison);
    }

    /// One ring pass over `home`'s siblings; the first stored item found,
    /// with the shard it came from.
    fn steal(&self, home: usize) -> Option<(usize, S::Item)> {
        let n = self.shards.len();
        (1..n).find_map(|d| {
            cqs_chaos::inject!("sharded.steal.window");
            let idx = (home + d) % n;
            self.shards[idx].try_take_weak().map(|item| (idx, item))
        })
    }

    /// Counts one storing give at `home`; `true` (and the streak reset)
    /// when it completes a rebalance interval. An interval of one makes
    /// every storing give a pulse, so no streak is kept.
    fn pulse_due(&self, home: usize) -> bool {
        if self.rebalance_interval == 1 {
            return true;
        }
        let streak = self.streak[home].fetch_add(1, Ordering::Relaxed) + 1;
        if streak < self.rebalance_interval {
            return false;
        }
        self.streak[home].store(0, Ordering::Relaxed);
        true
    }

    /// [`Shard::give_many`] on shard `idx`, poisoning the whole bank if it
    /// panics (see "Crashes" in the module docs).
    fn hand_over(&self, idx: usize, batch: Vec<S::Item>) -> usize {
        let shard = &self.shards[idx];
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shard.give_many(batch)))
            .unwrap_or_else(|panic| {
                self.poison();
                std::panic::resume_unwind(panic)
            })
    }

    /// Migrates stored items from `home`'s bank to starving sibling
    /// shards, a batch per recipient, until the bank runs dry or no
    /// sibling is starving. Returns the number of items migrated.
    fn rebalance_from(&self, home: usize) -> usize {
        let n = self.shards.len();
        let mut moved = 0;
        for d in 1..n {
            let victim = (home + d) % n;
            let starving = self.shards[victim].waiting();
            if starving == 0 {
                continue;
            }
            cqs_chaos::inject!("sharded.rebalance.window");
            // Reclaim a batch from our own bank. Racing local takers may
            // drain it first — then the items went to completed operations
            // instead, which is equally conservative.
            let batch = self.shards[home].try_take_many_weak(starving);
            if batch.is_empty() {
                break;
            }
            cqs_stats::bump!(shard_rebalances, batch.len());
            moved += batch.len();
            self.hand_over(victim, batch);
        }
        moved
    }

    fn rebalance(&self) -> usize {
        (0..self.shards.len())
            .map(|home| self.rebalance_from(home))
            .sum()
    }

    /// The no-idle-item guarantee: while at least `sweep_threshold` items
    /// are stored and waiters are parked, migrate stored items toward them
    /// — from *every* shard's bank, until the system stops moving. The loop
    /// matters: a migration batch can itself be outrun by a cancelling
    /// recipient (whose refusal re-stores the items at the recipient
    /// shard), so a single pass is not enough. An item and a waiter never
    /// coexist on one shard (the bank word is one or the other), so
    /// `rebalance` makes progress while the condition holds; away from it
    /// this is a handful of loads.
    ///
    /// For the semaphore the threshold is the permit count, so
    /// `stored >= permits` is exactly "no holders": each holder subtracts
    /// one from the signed total while waiters' negative contributions are
    /// excluded from the sum.
    ///
    /// Runs from every give and, through each shard's refusal hook, from
    /// every settled refusal — the latter covers re-stores that land on a
    /// cancelling thread after the giver already swept.
    fn sweep(&self) {
        while self.stored() >= self.sweep_threshold && self.waiting() > 0 && self.rebalance() > 0 {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinal_is_stable_and_distinct_across_threads() {
        let mine = thread_ordinal();
        assert_eq!(mine, thread_ordinal());
        let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(thread_ordinal)).collect();
        let mut seen: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        seen.push(mine);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5, "ordinals must be unique per thread");
    }

    #[test]
    fn home_shard_is_in_range() {
        for shards in 1..8 {
            assert!(home_shard(shards) < shards);
        }
    }

    #[test]
    fn default_shard_count_is_clamped() {
        assert!(default_shard_count(8) >= 1);
        assert!(default_shard_count(8) <= 8);
        assert_eq!(default_shard_count(1), 1);
        // A zero cap is treated as one, never zero shards.
        assert_eq!(default_shard_count(0), 1);
    }
}
