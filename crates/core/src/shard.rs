//! Thread-to-shard affinity for sharded primitives.
//!
//! Sharded primitives (`cqs-sync`'s `ShardedSemaphore`, `cqs-pool`'s
//! `ShardedPool`) split one logical queue into N per-shard CQS instances and
//! route each thread to a *home* shard so uncontended traffic never touches
//! a shared hot word. The routing key lives here, in the core crate both
//! primitives already depend on.
//!
//! The scheme reuses the TLS home-stripe pattern of `cqs-reclaim`'s
//! borrow counters: each OS thread draws a process-wide ordinal from a global
//! counter the first time it asks, caches it in a `thread_local`, and every
//! sharded primitive derives the thread's home shard as `ordinal % shards`.
//! Drawing the ordinal once per thread (instead of hashing `ThreadId` per
//! operation) keeps the fast path to a single TLS read, and consecutive
//! ordinals spread a pool of worker threads evenly across any shard count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide source of thread ordinals. Monotonically increasing; never
/// recycled on thread exit — a stale ordinal only skews shard balance, it
/// cannot alias two live threads onto "the same thread".
static NEXT_ORDINAL: AtomicUsize = AtomicUsize::new(0);

const UNASSIGNED: usize = usize::MAX;

thread_local! {
    static ORDINAL: std::cell::Cell<usize> = const { std::cell::Cell::new(UNASSIGNED) };
}

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
