//! `handoff`: the uncontended suspend → resume → take path on one thread.
//!
//! Each burst parks 1–32 waiters and resumes them. Most bursts park on a
//! drained `Semaphore` and are resumed by `release()` in FIFO order; smaller
//! seeded shares park on an empty `QueuePool` (resumed by `put`), on a
//! drained 2-shard `ShardedSemaphore` or on an empty 2-shard
//! `ShardedQueuePool`. Every waiter of a sharded burst has a fixed, seeded
//! home shard. A sharded semaphore waiter is resumed through its home
//! shard, then returns its permit there, and the benchmark (which holds
//! every permit between bursts) takes it back through a seeded shard: a
//! local hit or a steal. A sharded pool element is put through a seeded
//! shard, so it reaches a taker parked on the other shard by migration; the
//! takers return the elements through their homes and the benchmark takes
//! them back through seeded shards. Nothing else runs, so the burst time is
//! the library's own cost plus the loop around it.

use std::sync::Arc;

use cqs_future::{CqsFuture, FutureState};
use cqs_pool::{QueuePool, ShardedQueuePool};
use cqs_sync::{Semaphore, ShardedSemaphore};

use crate::trace::{Event, Span, Tracer};
use crate::{
    drained_semaphore, now_ns, ramp, report, set_up, Checks, Config, Gauges, Hists, Latencies,
    MemoryCheck, Outcome, PhaseStart, Report, Rng, Setups,
};

/// Distinct bursts generated per seed; the timed loop cycles through them.
const INPUT_BURSTS: usize = 4096;
/// Bursts run after set-up, untimed, before the timed phase.
const WARMUP_BURSTS: usize = 1024;
/// Shares of bursts (per mille) on the pool, the sharded semaphore and the
/// sharded pool; the rest use the semaphore.
const POOL_PERMILLE: u64 = 200;
const SHARDED_SEMAPHORE_PERMILLE: u64 = 125;
const SHARDED_POOL_PERMILLE: u64 = 125;
/// Shards of the sharded primitives.
const SHARDS: usize = 2;
/// Permits of the sharded semaphore, all held by the benchmark between
/// bursts: enough to resume the largest burst.
const SHARDED_PERMITS: usize = 32;
/// Span records kept for the span file.
const SPAN_RECORDS: usize = 1 << 16;
/// The library spans whose self times should add up to a semaphore burst.
const RECON_SPANS: [Span; 3] = [Span::SyncAcquire, Span::SyncRelease, Span::FutureTake];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Semaphore,
    Pool,
    ShardedSemaphore,
    ShardedPool,
}

#[derive(Clone, Copy)]
struct Burst {
    waiters: u64,
    kind: Kind,
    /// Bit `i`: home shard of waiter `i` (sharded bursts).
    homes: u32,
    /// Bit `i`: shard of the `i`-th put and of the `i`-th take-back
    /// (sharded bursts).
    routes: u32,
}

fn bit(mask: u32, i: usize) -> usize {
    (mask >> i & 1) as usize
}

struct Env {
    semaphore: Semaphore,
    pool: QueuePool<u64>,
    sharded_semaphore: ShardedSemaphore,
    sharded_pool: ShardedQueuePool<u64>,
    bursts: Vec<Burst>,
    next_value: u64,
    acquires: Vec<CqsFuture<()>>,
    takes: Vec<CqsFuture<u64>>,
    parked_at: Vec<u64>,
}

impl Env {
    /// Set-up: the seeded inputs and the four primitives, drained.
    fn build(seed: u64, checks: &mut Checks) -> Env {
        let mut rng = Rng::new(seed, 0x4841_4E44);
        let bursts = (0..INPUT_BURSTS)
            .map(|_| {
                let waiters = 1 + rng.below(32);
                let pick = rng.below(1000);
                let kind = if pick < SHARDED_POOL_PERMILLE {
                    Kind::ShardedPool
                } else if pick < SHARDED_POOL_PERMILLE + SHARDED_SEMAPHORE_PERMILLE {
                    Kind::ShardedSemaphore
                } else if pick < SHARDED_POOL_PERMILLE + SHARDED_SEMAPHORE_PERMILLE + POOL_PERMILLE
                {
                    Kind::Pool
                } else {
                    Kind::Semaphore
                };
                Burst {
                    waiters,
                    kind,
                    homes: rng.next() as u32,
                    routes: rng.next() as u32,
                }
            })
            .collect();
        let sharded_semaphore = ShardedSemaphore::with_shards(SHARDED_PERMITS, SHARDS);
        for i in 0..SHARDED_PERMITS {
            if !sharded_semaphore.acquire_at(i % SHARDS).is_immediate() {
                checks.fail(1, "a fresh sharded permit was not free");
            }
        }
        Env {
            semaphore: drained_semaphore(),
            pool: QueuePool::new(),
            sharded_semaphore,
            sharded_pool: ShardedQueuePool::with_shards(SHARDS),
            bursts,
            next_value: 0,
            acquires: Vec::with_capacity(32),
            takes: Vec::with_capacity(32),
            parked_at: Vec::with_capacity(32),
        }
    }

    fn warm_up(&mut self, checks: &mut Checks) {
        let (mut tracer, hists) = (Tracer::off(), Hists::default());
        for i in 0..WARMUP_BURSTS {
            let burst = self.bursts[i];
            checks.attempted += burst.waiters;
            self.burst(burst, &mut tracer, &hists, checks);
        }
    }

    fn burst(&mut self, burst: Burst, t: &mut Tracer, hists: &Hists, checks: &mut Checks) {
        match burst.kind {
            Kind::Semaphore => self.semaphore_burst(burst, t, hists, checks),
            Kind::Pool => self.pool_burst(burst, t, hists, checks),
            Kind::ShardedSemaphore => self.sharded_semaphore_burst(burst, t, hists, checks),
            Kind::ShardedPool => self.sharded_pool_burst(burst, t, hists, checks),
        }
        self.parked_at.clear();
    }

    /// Stamps a park in traced runs, for the wait histograms.
    fn parked(&mut self, t: &Tracer) {
        if t.is_on() {
            self.parked_at.push(now_ns());
        }
    }

    /// Records the wait of the `i`-th parked waiter, resumed just now.
    fn resumed(&self, t: &Tracer, hist: &crate::trace::Hist, i: usize) {
        if t.is_on() {
            hist.record(now_ns() - self.parked_at[i]);
        }
    }

    fn semaphore_burst(
        &mut self,
        burst: Burst,
        t: &mut Tracer,
        hists: &Hists,
        checks: &mut Checks,
    ) {
        for _ in 0..burst.waiters {
            let f = t.call(Span::SyncAcquire, || self.semaphore.acquire());
            if f.is_immediate() {
                checks.fail(1, "acquire on a drained semaphore completed at once");
            } else {
                t.event(Event::AcquireSuspended);
            }
            self.parked(t);
            self.acquires.push(f);
        }
        for i in 0..burst.waiters as usize {
            t.call(Span::SyncRelease, || self.semaphore.release());
            self.resumed(t, &hists.sync_wait, i);
        }
        self.take_acquires(t, checks);
    }

    fn pool_burst(&mut self, burst: Burst, t: &mut Tracer, hists: &Hists, checks: &mut Checks) {
        for _ in 0..burst.waiters {
            let f = t.call(Span::PoolTake, || self.pool.take());
            if f.is_immediate() {
                checks.fail(1, "take on an empty pool completed at once");
            } else {
                t.event(Event::TakeSuspended);
            }
            self.parked(t);
            self.takes.push(f);
        }
        let first = self.next_value;
        for i in 0..burst.waiters {
            t.call(Span::PoolPut, || self.pool.put(first + i));
            self.resumed(t, &hists.pool_wait, i as usize);
        }
        self.next_value += burst.waiters;
        for (i, mut f) in self.takes.drain(..).enumerate() {
            match t.call(Span::FutureTake, || f.try_get()) {
                FutureState::Ready(v) if v == first + i as u64 => {}
                FutureState::Ready(_) => checks.fail(1, "a taker got another taker's element"),
                _ => checks.fail(1, "a parked taker was not resumed by put"),
            }
        }
    }

    fn sharded_semaphore_burst(
        &mut self,
        burst: Burst,
        t: &mut Tracer,
        hists: &Hists,
        checks: &mut Checks,
    ) {
        let n = burst.waiters as usize;
        for i in 0..n {
            let home = bit(burst.homes, i);
            let f = t.call(Span::ShardedAcquire, || {
                self.sharded_semaphore.acquire_at(home)
            });
            if f.is_immediate() {
                checks.fail(
                    1,
                    "acquire on a drained sharded semaphore completed at once",
                );
            }
            self.parked(t);
            self.acquires.push(f);
        }
        // Per-shard FIFO: the release through waiter i's home resumes it.
        for i in 0..n {
            t.call(Span::ShardedRelease, || {
                self.sharded_semaphore.release_at(bit(burst.homes, i))
            });
            self.resumed(t, &hists.sharded_wait, i);
        }
        self.take_acquires(t, checks);
        for i in 0..n {
            t.call(Span::ShardedRelease, || {
                self.sharded_semaphore.release_at(bit(burst.homes, i))
            });
        }
        for i in 0..n {
            let f = t.call(Span::ShardedAcquire, || {
                self.sharded_semaphore.acquire_at(bit(burst.routes, i))
            });
            if !f.is_immediate() {
                checks.fail(1, "a banked sharded permit could not be taken back");
                f.cancel();
            }
        }
    }

    fn sharded_pool_burst(
        &mut self,
        burst: Burst,
        t: &mut Tracer,
        hists: &Hists,
        checks: &mut Checks,
    ) {
        let n = burst.waiters as usize;
        for i in 0..n {
            let home = bit(burst.homes, i);
            let f = t.call(Span::ShardedTake, || self.sharded_pool.take_at(home));
            if f.is_immediate() {
                checks.fail(1, "take on an empty sharded pool completed at once");
            }
            self.parked(t);
            self.takes.push(f);
        }
        let first = self.next_value;
        self.next_value += n as u64;
        for i in 0..n {
            t.call(Span::ShardedPut, || {
                self.sharded_pool
                    .put_at(bit(burst.routes, i), first + i as u64)
            });
            self.resumed(t, &hists.sharded_wait, i);
        }
        // Which taker gets which element depends on migration; each must
        // get exactly one of this burst's elements.
        let mut seen = 0u32;
        for (i, mut f) in self.takes.drain(..).enumerate() {
            match t.call(Span::FutureTake, || f.try_get()) {
                FutureState::Ready(v) if v.wrapping_sub(first) < n as u64 => {
                    let b = 1u32 << (v - first);
                    if seen & b != 0 {
                        checks.fail(1, "two takers got the same element");
                    }
                    seen |= b;
                    t.call(Span::ShardedPut, || {
                        self.sharded_pool.put_at(bit(burst.homes, i), v)
                    });
                }
                FutureState::Ready(_) => checks.fail(1, "a taker got another burst's element"),
                _ => checks.fail(1, "a parked taker was not resumed by put"),
            }
        }
        let mut back = 0u32;
        for i in 0..n {
            let mut f = t.call(Span::ShardedTake, || {
                self.sharded_pool.take_at(bit(burst.routes, i))
            });
            match f.try_get() {
                FutureState::Ready(v) if v.wrapping_sub(first) < n as u64 => {
                    back |= 1 << (v - first)
                }
                FutureState::Ready(_) => checks.fail(1, "a stored element came from another burst"),
                _ => {
                    checks.fail(1, "a stored sharded element could not be taken back");
                    f.cancel();
                }
            }
        }
        if back != seen {
            checks.fail(1, "stored sharded elements lost or duplicated");
        }
    }

    fn take_acquires(&mut self, t: &mut Tracer, checks: &mut Checks) {
        for mut f in self.acquires.drain(..) {
            if !matches!(
                t.call(Span::FutureTake, || f.try_get()),
                FutureState::Ready(())
            ) {
                checks.fail(1, "a parked acquirer was not resumed by release");
            }
        }
    }

    /// Conservation: every permit and element handed over, nobody parked.
    fn check_idle(&self, checks: &mut Checks) {
        if self.semaphore.available_permits() != 0 || self.semaphore.waiting() != 0 {
            checks.fail(1, "semaphore left with permits or waiters");
        }
        if !self.pool.is_empty() || self.pool.waiting_takers() != 0 {
            checks.fail(1, "pool left with elements or takers");
        }
        let sharded = &self.sharded_semaphore;
        if sharded.available_permits() != 0 || sharded.waiting() != 0 {
            checks.fail(1, "sharded semaphore left with permits or waiters");
        }
        if !self.sharded_pool.is_empty() || self.sharded_pool.waiting_takers() != 0 {
            checks.fail(1, "sharded pool left with elements or takers");
        }
    }

    fn live_segments(&self) -> usize {
        self.semaphore.live_segments()
            + self.pool.live_segments()
            + self.sharded_semaphore.live_segments()
            + self.sharded_pool.live_segments()
    }
}

pub(crate) fn run(config: &Config) -> Report {
    let mut checks = Checks::default();
    let ramp = ramp(config.seed, &mut checks, &mut Tracer::off());
    // One set-up now; `Setups` times the rest during the phase.
    let (mut env, setup_s) = set_up(
        1,
        &mut checks,
        |checks| Env::build(config.seed, checks),
        |env, checks| env.check_idle(checks),
    );
    env.warm_up(&mut checks);
    let mut t = Tracer::new(config.trace, SPAN_RECORDS);
    let hists = Arc::new(Hists::default());
    let mut gauges = Gauges::default();
    let mut latencies = Latencies::default();
    let (mut recon_ns, mut recon_waiters, mut recon_attributed) = (0u64, 0u64, 0u64);
    let mut ops = 0u64;
    let phase_start = PhaseStart::now();
    let (op_budget, deadline) = config.budget.limits(phase_start.start_ns());
    let mut setups = Setups::new(!config.trace);
    let mut memory = MemoryCheck::start();
    for i in 0.. {
        setups.between(
            i,
            &mut checks,
            |checks| Env::build(config.seed, checks),
            |env, checks| env.check_idle(checks),
        );
        let burst = env.bursts[i % INPUT_BURSTS];
        let attributed_before = t.self_ns_of(&RECON_SPANS);
        t.open(Span::Burst);
        let start = now_ns();
        env.burst(burst, &mut t, &hists, &mut checks);
        let end = now_ns();
        t.close();
        let ns = end - start;
        latencies.push(ns as f64 / burst.waiters as f64);
        ops += burst.waiters;
        if t.is_on() {
            if burst.kind == Kind::Semaphore {
                recon_ns += ns;
                recon_waiters += burst.waiters;
                recon_attributed += t.self_ns_of(&RECON_SPANS) - attributed_before;
            }
            if i % 64 == 0 {
                gauges.sample(env.live_segments());
            }
        }
        if ops >= op_budget
            || end >= deadline.saturating_add(setups.paused_ns())
            || memory.exceeded(i, &mut checks)
        {
            break;
        }
    }
    let phase = phase_start.finish(ops, setups.paused_ns());
    let setup_s = setups.setup_s(setup_s);
    checks.attempted += ops;
    env.check_idle(&mut checks);
    if t.is_on() && !memory.tripped() {
        gauges.flush(&mut t);
        gauges.recon = Some((
            recon_ns as f64 / recon_waiters.max(1) as f64,
            recon_attributed as f64 / recon_waiters.max(1) as f64,
        ));
    }
    report(Outcome {
        checks,
        setup_s,
        phase,
        latencies,
        rss_per_waiter_b: ramp.rss_per_waiter_b,
        tracers: vec![t],
        hists,
        gauges,
    })
}
