//! Property-based tests for the sharded bank behind [`cqs::ShardedSemaphore`]
//! and [`cqs::ShardedQueuePool`]: random operation sequences executed
//! single-threaded, once per type, against
//!
//! 1. an exact sequential reference model of the sharded protocol
//!    (per-shard banks + FIFO queues, rebalance pulses every
//!    `interval`-th storing give, the sweep once the shard type's
//!    threshold of items is stored), checking outcome agreement and global item
//!    conservation after every step, and
//! 2. the plain primitive when `shards == 1`, where the sharded bank must
//!    be observationally identical (same immediate/pending outcomes, same
//!    FIFO wake order, same values, same stored count).
//!
//! A semaphore is a pool of unit permits, so the model is written once
//! over permit/element counts; only the sweep threshold differs (all
//! permits banked for the semaphore, one stored element for the pool).

mod common;

use std::collections::VecDeque;
use std::fmt::Debug;

use proptest::prelude::*;

use common::{Kind, Pool};
use cqs::{CqsFuture, FutureState, Semaphore};

#[derive(Debug, Clone)]
enum Op {
    /// `take_at(home)`.
    Acquire(usize),
    /// `give_at(home)` — skipped when nothing is held.
    Release(usize),
    /// `give_many_at(home, k)` with `k` clamped to the held count.
    ReleaseN(usize, usize),
    /// Cancel the pending waiter with this (wrapped) index.
    Cancel(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..8).prop_map(Op::Acquire),
        3 => (0usize..8).prop_map(Op::Release),
        1 => ((0usize..8), (1usize..4)).prop_map(|(h, k)| Op::ReleaseN(h, k)),
        1 => (0usize..32).prop_map(Op::Cancel),
    ]
}

fn configs() -> impl Strategy<Value = (usize, usize, u64, Vec<Op>)> {
    (
        1usize..6, // items (permits / elements)
        1usize..5, // shards
        1u64..5,   // rebalance interval
        prop::collection::vec(op_strategy(), 0..120),
    )
}

/// Exact sequential model of the sharded protocol. Conservation is
/// structural: every item is either in some shard's bank or held.
struct Model {
    banks: Vec<usize>,
    waiters: Vec<VecDeque<usize>>,
    streak: Vec<u64>,
    held: usize,
    interval: u64,
    threshold: usize,
}

impl Model {
    fn new(items: usize, shards: usize, interval: u64, threshold: usize) -> Self {
        let banks = (0..shards)
            .map(|i| items / shards + usize::from(i < items % shards))
            .collect();
        Model {
            banks,
            waiters: vec![VecDeque::new(); shards],
            streak: vec![0; shards],
            held: 0,
            interval,
            threshold,
        }
    }

    fn shards(&self) -> usize {
        self.banks.len()
    }

    /// `Some(())` = immediate grant, `None` = parked on `home`'s queue.
    fn acquire_at(&mut self, home: usize, id: usize) -> Option<()> {
        let n = self.shards();
        let home = home % n;
        for d in 0..n {
            let s = (home + d) % n;
            if self.banks[s] > 0 {
                self.banks[s] -= 1;
                self.held += 1;
                return Some(());
            }
        }
        self.waiters[home].push_back(id);
        None
    }

    /// Returns the waiter ids served by this give, in wake order.
    fn release_at(&mut self, home: usize) -> Vec<usize> {
        let n = self.shards();
        let home = home % n;
        self.held -= 1;
        if let Some(id) = self.waiters[home].pop_front() {
            self.held += 1; // FIFO handoff: the waiter holds it now
            return vec![id];
        }
        self.banks[home] += 1;
        if n == 1 {
            return Vec::new();
        }
        let mut served = Vec::new();
        self.streak[home] += 1;
        if self.streak[home] >= self.interval {
            self.streak[home] = 0;
            served.extend(self.rebalance_from(home));
        }
        served.extend(self.sweep());
        served
    }

    fn release_n_at(&mut self, home: usize, k: usize) -> Vec<usize> {
        let n = self.shards();
        let home = home % n;
        self.held -= k;
        let mut served = Vec::new();
        let mut left = k;
        for d in 0..n {
            if left == 0 {
                break;
            }
            let s = (home + d) % n;
            let w = self.waiters[s].len().min(left);
            for _ in 0..w {
                served.push(self.waiters[s].pop_front().unwrap());
            }
            self.held += w;
            left -= w;
        }
        // No early return: like the real batched give, the trailing home
        // rebalance and the sweep run even when waiters consumed all `k`
        // items — earlier storing gives may have left idle items at home
        // next to waiters parked elsewhere.
        self.banks[home] += left;
        self.streak[home] = 0;
        served.extend(self.rebalance_from(home));
        served.extend(self.sweep());
        served
    }

    /// One all-shards rebalance pass once the threshold is stored: the
    /// sequential shadow of the real sweep. (The real sweep loops until
    /// nothing moves, but sequentially one pass either drains every bank
    /// or serves every waiter — so exactly one pass ever moves items.)
    fn sweep(&mut self) -> Vec<usize> {
        let mut served = Vec::new();
        if self.available() < self.threshold {
            return served;
        }
        for home in 0..self.shards() {
            served.extend(self.rebalance_from(home));
        }
        served
    }

    fn rebalance_from(&mut self, home: usize) -> Vec<usize> {
        let n = self.shards();
        let mut served = Vec::new();
        for d in 1..n {
            let victim = (home + d) % n;
            let starving = self.waiters[victim].len();
            if starving == 0 {
                continue;
            }
            let got = self.banks[home].min(starving);
            if got == 0 {
                break;
            }
            self.banks[home] -= got;
            for _ in 0..got {
                served.push(self.waiters[victim].pop_front().unwrap());
            }
            self.held += got;
        }
        served
    }

    fn cancel(&mut self, id: usize) {
        for q in &mut self.waiters {
            q.retain(|w| *w != id);
        }
    }

    fn available(&self) -> usize {
        self.banks.iter().sum()
    }

    fn waiting(&self) -> usize {
        self.waiters.iter().map(VecDeque::len).sum()
    }
}

/// The value of a future that must already be complete.
fn ready<T: Debug>(mut f: CqsFuture<T>) -> Result<T, TestCaseError> {
    match f.try_get() {
        FutureState::Ready(v) => Ok(v),
        other => Err(TestCaseError::fail(format!(
            "expected Ready, got {other:?}"
        ))),
    }
}

/// Pop the tracked future with this id; it must now be `Ready`.
fn expect_served<T: Debug>(
    real: &mut Vec<(usize, CqsFuture<T>)>,
    id: usize,
) -> Result<T, TestCaseError> {
    let (_, f) = real
        .iter()
        .position(|(i, _)| *i == id)
        .map(|i| real.remove(i))
        .ok_or_else(|| TestCaseError::fail(format!("served waiter {id} not tracked")))?;
    ready(f)
}

/// The real bank agrees with the sequential model on every operation
/// outcome, and items are conserved after every step.
fn matches_model<S: Kind>(
    items: usize,
    shards: usize,
    interval: u64,
    ops: Vec<Op>,
) -> Result<(), TestCaseError> {
    let bank = S::bank_every(items, shards, interval);
    let threshold = S::sweep_threshold(&S::init(items));
    let mut model = Model::new(items, shards, interval, threshold);
    let mut held: Vec<S::Item> = Vec::new();
    let mut real: Vec<(usize, CqsFuture<S::Item>)> = Vec::new();
    let mut next_id = 0usize;

    for op in ops {
        match op {
            Op::Acquire(home) => {
                let f = bank.take_at(home);
                match model.acquire_at(home, next_id) {
                    Some(()) => {
                        prop_assert!(f.is_immediate(), "model grants immediately, real parked");
                        held.push(ready(f)?);
                    }
                    None => {
                        prop_assert!(!f.is_immediate(), "model parks, real granted immediately");
                        real.push((next_id, f));
                    }
                }
                next_id += 1;
            }
            Op::Release(home) => {
                let Some(item) = held.pop() else {
                    continue; // never give back what we do not hold
                };
                bank.give_at(home, item);
                for id in model.release_at(home) {
                    held.push(expect_served(&mut real, id)?);
                }
            }
            Op::ReleaseN(home, k) => {
                let k = k.min(held.len());
                if k == 0 {
                    continue;
                }
                bank.give_many_at(home, held.split_off(held.len() - k));
                for id in model.release_n_at(home, k) {
                    held.push(expect_served(&mut real, id)?);
                }
            }
            Op::Cancel(k) => {
                if real.is_empty() {
                    continue;
                }
                let (id, f) = real.remove(k % real.len());
                prop_assert!(f.cancel());
                model.cancel(id);
            }
        }
        // Conservation + bookkeeping agreement after every step.
        prop_assert_eq!(model.available() + model.held, items);
        prop_assert_eq!(held.len(), model.held);
        prop_assert_eq!(bank.stored(), model.available());
        prop_assert_eq!(bank.waiting(), model.waiting());
    }

    // Whatever remains parked is still pending; drain everything and the
    // full item set must come back.
    for (_, mut f) in real.drain(..) {
        prop_assert_eq!(f.try_get(), FutureState::Pending);
        prop_assert!(f.cancel());
    }
    for item in held.drain(..) {
        bank.give_at(0, item);
    }
    prop_assert_eq!(bank.stored(), items);
    prop_assert_eq!(bank.waiting(), 0);
    let all = (0..items)
        .map(|_| ready(bank.take_at(0)))
        .collect::<Result<Vec<_>, _>>()?;
    prop_assert!(S::conserved(&all, items), "items lost or duplicated");
    Ok(())
}

/// With a single shard the bank is observationally identical to the plain
/// primitive: same immediate/pending outcomes, same wake order and values,
/// same stored count, for every op sequence.
fn single_shard_matches_plain<S: Kind>(items: usize, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let sharded = S::bank(items, 1);
    let plain = S::plain(items);
    let mut held: Vec<(S::Item, S::Item)> = Vec::new();
    let mut pairs: Vec<[CqsFuture<S::Item>; 2]> = Vec::new();

    for op in ops {
        match op {
            Op::Acquire(home) => {
                let a = sharded.take_at(home);
                let b = plain.park();
                prop_assert_eq!(a.is_immediate(), b.is_immediate());
                if a.is_immediate() {
                    let (x, y) = (ready(a)?, ready(b)?);
                    prop_assert_eq!(&x, &y);
                    held.push((x, y));
                } else {
                    pairs.push([a, b]);
                }
            }
            Op::Release(home) | Op::ReleaseN(home, _) => {
                let Some((x, y)) = held.pop() else {
                    continue;
                };
                // Exercise both give entry points on the sharded side.
                if matches!(op, Op::Release(_)) {
                    sharded.give_at(home, x);
                } else {
                    sharded.give_many_at(home, vec![x]);
                }
                plain.give(y);
                // A handoff serves the front waiter (FIFO on both sides).
                if !pairs.is_empty() {
                    let [a, b] = pairs.remove(0);
                    let (x, y) = (ready(a)?, ready(b)?);
                    prop_assert_eq!(&x, &y);
                    held.push((x, y));
                }
            }
            Op::Cancel(k) => {
                if pairs.is_empty() {
                    continue;
                }
                let [a, b] = pairs.remove(k % pairs.len());
                prop_assert!(a.cancel());
                prop_assert!(b.cancel());
            }
        }
        prop_assert_eq!(sharded.stored(), plain.stored());
        prop_assert_eq!(sharded.waiting(), plain.waiting());
    }

    for [mut a, mut b] in pairs {
        prop_assert_eq!(a.try_get(), FutureState::Pending);
        prop_assert_eq!(b.try_get(), FutureState::Pending);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sharded_semaphore_matches_sequential_model(
        (items, shards, interval, ops) in configs()
    ) {
        matches_model::<Semaphore>(items, shards, interval, ops)?;
    }

    #[test]
    fn sharded_pool_matches_sequential_model(
        (items, shards, interval, ops) in configs()
    ) {
        matches_model::<Pool>(items, shards, interval, ops)?;
    }

    #[test]
    fn single_shard_is_equivalent_to_plain_semaphore(
        (items, ops) in (1usize..5, prop::collection::vec(op_strategy(), 0..120))
    ) {
        single_shard_matches_plain::<Semaphore>(items, ops)?;
    }

    #[test]
    fn single_shard_is_equivalent_to_plain_pool(
        (items, ops) in (1usize..5, prop::collection::vec(op_strategy(), 0..120))
    ) {
        single_shard_matches_plain::<Pool>(items, ops)?;
    }
}
