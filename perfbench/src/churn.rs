//! `abort-churn`: mass cancellation on one thread.
//!
//! The timed phase opens with the memory ramp (10⁵ waiters parked on a
//! drained `Semaphore`, a seeded 90% cancelled in seeded order, the rest
//! resumed), then runs bursts of 1–32 waiters of which a seeded 75% are
//! cancelled; the releases that follow must skip every cancelled cell.

use std::sync::Arc;

use cqs_future::{CqsFuture, FutureState};
use cqs_sync::Semaphore;

use crate::trace::{Event, Span, Tracer};
use crate::{
    drained_semaphore, now_ns, ramp, report, set_up, Checks, Config, Gauges, Hists, Latencies,
    MemoryCheck, Outcome, PhaseStart, Report, Rng, Setups, RAMP_WAITERS,
};

/// Distinct bursts generated per seed; the timed loop cycles through them.
const INPUT_BURSTS: usize = 4096;
/// Bursts run after set-up, untimed, before the timed phase.
const WARMUP_BURSTS: usize = 1024;
/// Share of burst waiters that are cancelled.
const CANCEL_PERMILLE: u64 = 750;
/// Span records kept for the span file.
const SPAN_RECORDS: usize = 1 << 16;

#[derive(Clone, Copy)]
struct Burst {
    waiters: u64,
    /// Bit `i` set: waiter `i` is cancelled.
    cancel: u32,
}

impl Burst {
    fn cancelled(self, i: usize) -> bool {
        self.cancel & (1 << i) != 0
    }
}

struct Env {
    semaphore: Semaphore,
    bursts: Vec<Burst>,
    waiters: Vec<CqsFuture<()>>,
    parked_at: Vec<u64>,
}

impl Env {
    /// Set-up: the seeded inputs and the drained semaphore.
    fn build(seed: u64) -> Env {
        let mut rng = Rng::new(seed, 0x4348_5552);
        let bursts = (0..INPUT_BURSTS)
            .map(|_| {
                let waiters = 1 + rng.below(32);
                let cancel = (0..waiters)
                    .filter(|_| rng.chance(CANCEL_PERMILLE))
                    .fold(0u32, |mask, i| mask | 1 << i);
                Burst { waiters, cancel }
            })
            .collect();
        Env {
            semaphore: drained_semaphore(),
            bursts,
            waiters: Vec::with_capacity(32),
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
        for _ in 0..burst.waiters {
            let f = t.call(Span::SyncAcquire, || self.semaphore.acquire());
            if f.is_immediate() {
                checks.fail(1, "acquire on a drained semaphore completed at once");
            } else {
                t.event(Event::AcquireSuspended);
            }
            if t.is_on() {
                self.parked_at.push(now_ns());
            }
            self.waiters.push(f);
        }
        for (i, f) in self.waiters.iter().enumerate() {
            if burst.cancelled(i) {
                if t.call(Span::SyncCancel, || f.cancel()) {
                    t.event(Event::CancelWon);
                } else {
                    checks.fail(1, "cancelling a parked waiter lost to nothing");
                }
            }
        }
        // Each release must resume the oldest waiter still live.
        for i in (0..burst.waiters as usize).filter(|&i| !burst.cancelled(i)) {
            t.call(Span::SyncRelease, || self.semaphore.release());
            if t.is_on() {
                hists.sync_wait.record(now_ns() - self.parked_at[i]);
            }
        }
        for (i, mut f) in self.waiters.drain(..).enumerate() {
            if burst.cancelled(i) {
                if f.try_get() != FutureState::Cancelled {
                    checks.fail(1, "a cancelled waiter was resumed");
                }
            } else if t.call(Span::FutureTake, || f.try_get()) != FutureState::Ready(()) {
                checks.fail(1, "a live waiter was not resumed by release");
            }
        }
        self.parked_at.clear();
    }

    fn check_idle(&self, checks: &mut Checks) {
        if self.semaphore.available_permits() != 0 || self.semaphore.waiting() != 0 {
            checks.fail(1, "semaphore left with permits or waiters");
        }
    }
}

pub(crate) fn run(config: &Config) -> Report {
    let mut checks = Checks::default();
    // One set-up now; `Setups` times the rest during the phase.
    let (mut env, setup_s) = set_up(
        1,
        &mut checks,
        |_| Env::build(config.seed),
        |env, checks| env.check_idle(checks),
    );
    env.warm_up(&mut checks);
    let mut t = Tracer::new(config.trace, SPAN_RECORDS);
    let hists = Arc::new(Hists::default());
    let mut gauges = Gauges::default();
    let mut latencies = Latencies::default();
    let phase_start = PhaseStart::now();
    let (op_budget, deadline) = config.budget.limits(phase_start.start_ns());
    let start = now_ns();
    let ramp = ramp(config.seed, &mut checks, &mut t);
    let end = now_ns();
    latencies.push((end - start) as f64 / RAMP_WAITERS as f64);
    if t.is_on() {
        gauges.sample(ramp.peak_live_segments);
    }
    let mut ops = RAMP_WAITERS as u64;
    let mut setups = Setups::new(!config.trace);
    let mut memory = MemoryCheck::start();
    for i in 0.. {
        setups.between(
            i,
            &mut checks,
            |_| Env::build(config.seed),
            |env, checks| env.check_idle(checks),
        );
        let burst = env.bursts[i % INPUT_BURSTS];
        t.open(Span::Burst);
        let start = now_ns();
        env.burst(burst, &mut t, &hists, &mut checks);
        let end = now_ns();
        t.close();
        latencies.push((end - start) as f64 / burst.waiters as f64);
        ops += burst.waiters;
        checks.attempted += burst.waiters;
        if t.is_on() && i % 64 == 0 {
            gauges.sample(env.semaphore.live_segments());
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
    env.check_idle(&mut checks);
    if t.is_on() && !memory.tripped() {
        gauges.flush(&mut t);
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
