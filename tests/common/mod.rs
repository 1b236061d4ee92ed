//! The two sharded types as one test fixture: tests written once over the
//! sharded bank run on the semaphore and on the (queue) pool.

#![allow(dead_code)] // each test binary uses a different part

use std::fmt::Debug;
use std::sync::Arc;

use cqs::{QueuePool, Semaphore};
use cqs_core::shard::{Shard, ShardBank};

/// The pool's element type: an `Arc` so tests can count the elements still
/// alive (a lost element is a dropped one).
pub type Element = Arc<u64>;

/// The sharded pool's shard type.
pub type Pool = QueuePool<Element>;

/// A sharded type under test. Banks are built as the facades build them,
/// under the shard type's own policy, unless a test picks another
/// rebalance interval.
pub trait Kind: Shard<Item: Clone + Debug + PartialEq> + Sized {
    /// The bank's construction input for `items` items.
    fn init(items: usize) -> Self::Init;

    /// Stores `items` fresh items in `bank` if its construction did not
    /// (the pool's puts them round-robin from shard 0, which gives the
    /// semaphore's share layout).
    fn fill(bank: &ShardBank<Self>, items: usize);

    /// A bank of `shards` shards storing `items` items, shard `i` holding
    /// `items / shards` plus one for the first `items % shards` shards.
    fn bank(items: usize, shards: usize) -> ShardBank<Self> {
        let bank = ShardBank::new(shards, Self::init(items));
        Self::fill(&bank, items);
        bank
    }

    /// Like [`bank`](Self::bank), pulsing every `interval`-th storing give.
    fn bank_every(items: usize, shards: usize, interval: u64) -> ShardBank<Self> {
        let bank = ShardBank::with_interval(shards, Self::init(items), interval);
        Self::fill(&bank, items);
        bank
    }

    /// The plain (unsharded) primitive storing the same `items` items.
    fn plain(items: usize) -> Self;

    /// A bank whose `items` items are all held by the caller (taken
    /// through shard 0).
    fn held(items: usize, shards: usize) -> (ShardBank<Self>, Vec<Self::Item>) {
        let bank = Self::bank(items, shards);
        let held = (0..items)
            .map(|_| match bank.take_at(0).try_get() {
                cqs::FutureState::Ready(item) => item,
                other => panic!("setup: a stored item was not free: {other:?}"),
            })
            .collect();
        (bank, held)
    }

    /// Whether `all` is exactly the `items` items the bank started with.
    fn conserved(all: &[Self::Item], items: usize) -> bool;

    /// How many of `items` are still alive (`None` for permits, which are
    /// not values).
    fn alive(items: &[Self::Item]) -> Option<Box<dyn Fn() -> usize>>;
}

impl Kind for Semaphore {
    fn init(items: usize) -> usize {
        items
    }

    fn fill(_: &ShardBank<Self>, _: usize) {}

    fn plain(items: usize) -> Self {
        Semaphore::new(items)
    }

    fn conserved(all: &[()], items: usize) -> bool {
        all.len() == items
    }

    fn alive(_: &[()]) -> Option<Box<dyn Fn() -> usize>> {
        None
    }
}

impl Kind for Pool {
    fn init(_items: usize) {}

    fn fill(bank: &ShardBank<Self>, items: usize) {
        for e in 0..items {
            bank.give_at(e, Arc::new(e as u64));
        }
    }

    fn plain(items: usize) -> Self {
        let pool = QueuePool::new();
        for e in 0..items {
            pool.put(Arc::new(e as u64));
        }
        pool
    }

    fn conserved(all: &[Element], items: usize) -> bool {
        let mut ids: Vec<u64> = all.iter().map(|e| **e).collect();
        ids.sort_unstable();
        ids == (0..items as u64).collect::<Vec<_>>()
    }

    fn alive(items: &[Element]) -> Option<Box<dyn Fn() -> usize>> {
        let weak: Vec<_> = items.iter().map(Arc::downgrade).collect();
        Some(Box::new(move || {
            weak.iter().filter(|w| w.strong_count() > 0).count()
        }))
    }
}
