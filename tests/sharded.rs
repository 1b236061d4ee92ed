//! The sharded-bank protocol, tested once and run on both sharded types
//! (`ShardedSemaphore`'s and `ShardedPool`'s banks, each under its shard
//! type's policy): close, poison and a multi-threaded conservation storm. Routing,
//! stealing, cross-shard service, per-shard FIFO, batched gives and
//! cancellation are checked step by step against the sequential model in
//! `tests/proptest_sharded.rs`.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{Kind, Pool};
use cqs::{Cancelled, Semaphore};

fn close_and_poison_reach_every_shard<S: Kind>() {
    let (bank, mut held) = S::held(1, 3);
    let waiters: Vec<_> = (0..3).map(|i| bank.take_at(i)).collect();
    bank.close();
    assert!(bank.is_closed() && !bank.is_poisoned());
    for w in waiters {
        assert_eq!(w.wait().err(), Some(Cancelled));
    }
    assert!(
        bank.take_at(1).wait().is_err(),
        "take after close fails fast"
    );
    // Closing loses no items: the held one can still come back.
    bank.give_at(0, held.pop().unwrap());
    assert_eq!(bank.stored(), 1);

    let bank = S::bank(2, 2);
    bank.poison();
    assert!(bank.is_poisoned() && bank.is_closed());
    for home in 0..2 {
        assert!(bank.take_at(home).wait().is_err());
    }
}

#[test]
fn close_and_poison_reach_every_shard_on_both() {
    close_and_poison_reach_every_shard::<Semaphore>();
    close_and_poison_reach_every_shard::<Pool>();
}

/// The paper's key invariant lifted to the sharded protocol: never more
/// than K items in use, items conserved at quiescence, under threads
/// hammering every path (local hits, steals, parks, cancellations,
/// batched and foreign-shard gives, rebalance pulses) — at the type's
/// interval and at tiny ones that force frequent migration.
fn conservation_storm<S: Kind>() {
    const K: usize = 2;
    const THREADS: usize = 8;
    const OPS: usize = 500;
    for interval in [1, 3, S::REBALANCE_INTERVAL] {
        let bank = Arc::new(S::bank_every(K, 4, interval));
        let in_use = Arc::new(AtomicUsize::new(0));
        let joins: Vec<_> = (0..THREADS)
            .map(|t| {
                let (bank, in_use) = (Arc::clone(&bank), Arc::clone(&in_use));
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        let f = bank.take_at(t + i);
                        if (i + t) % 7 == 0 && f.cancel() {
                            continue;
                        }
                        let item = f.wait().unwrap();
                        let now = in_use.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(now <= K, "{now} > {K} items in use");
                        in_use.fetch_sub(1, Ordering::SeqCst);
                        if i % 11 == 0 {
                            bank.give_many_at(t + i, vec![item]);
                        } else {
                            bank.give_at(t + i + 1, item); // via a foreign shard
                        }
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(bank.waiting(), 0);
        let all: Vec<S::Item> = (0..K).map(|i| bank.take_at(i).wait().unwrap()).collect();
        assert!(
            S::conserved(&all, K),
            "items lost or duplicated (interval {interval})"
        );
        assert_eq!(bank.stored(), 0);
    }
}

#[test]
fn conservation_storm_on_both() {
    conservation_storm::<Semaphore>();
    conservation_storm::<Pool>();
}
