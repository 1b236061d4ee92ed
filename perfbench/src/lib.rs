//! The repository benchmark: workloads that drive the public API of the
//! CQS crates from outside, under the library's default reclamation
//! backend. Run one with
//! `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! from the repository root; `BENCHMARK.json` lists the gated workloads
//! and metrics.
//!
//! | workload | shape | layers it stresses |
//! |---|---|---|
//! | `handoff` | 1 thread, closed loop of seeded bursts (1–32 waiters) parked on a drained `Semaphore`, or (smaller shares) an empty `QueuePool`, a drained 2-shard `ShardedSemaphore` or an empty 2-shard `ShardedQueuePool` with fixed per-waiter homes, then resumed and taken | `core` cells/segments, `future` request alloc + completion, `reclaim` guard, `sync::sharded`/`pool::sharded` |
//! | `abort-churn` | 1 thread: a 10⁵-waiter ramp with a seeded 90% cancelled, then bursts with 75% cancelled at seeded positions | `core` smart cancellation, segment removal, `reclaim` retire/defer |
//! | `service-fifo` | 256 client coroutines on a 2-carrier `Executor`: `Semaphore(32)` admission, one of 8 connections from a `QueuePool`, one yield of simulated I/O, work, response on a bounded `CqsChannel(16)` to one collector; a seeded 10% of clients give up when no connection is ready | `exec`, `future` wakers, contended `sync`/`pool`, `channel`, cancel-vs-resume races |
//!
//! `abort-churn` is not in `BENCHMARK.json`. On some seeds (43, 206 and
//! 209 among them) the library stops freeing segments a few seconds into
//! the burst churn: resident memory grows by about 30 MB/s while live
//! segments stay flat, so the run slows down as it goes, and collecting the
//! retained chain overflows the stack. The memory check (`MemoryCheck`)
//! fails such runs. The workload stays runnable by hand.
//!
//! Every workload first parks 10⁵ waiters on a drained `Semaphore` to
//! measure resident memory per parked waiter (the paper's "memory grows
//! with live waiters" claim). In `abort-churn` that ramp is the first part
//! of the timed phase; elsewhere it runs before set-up and is not timed.
//!
//! `setup_s` is the median time of one set-up. On `handoff` and
//! `abort-churn` a set-up builds the seeded inputs and the drained
//! primitives (the warm-up bursts that follow are not timed), and set-ups
//! are timed between the bursts of the timed phase (see `Setups`). On
//! `service-fifo` it builds the primitives, starts the executor and its
//! coroutines, and serves the warm-up requests.
//!
//! `op_p50_us` and `op_p99_us` are percentiles over every latency sample of
//! the timed phase: a waiter's cost amortised over its burst, or a served
//! request's time from the admission call until the channel accepts the
//! response.
//!
//! The untraced run reports the end-to-end metrics. The traced run (a
//! `--features stats` build) wraps each call into a crate's public
//! functions in a span named `<layer>.<fn>`, reads the library's public
//! counters, and counts heap allocations. Which end-to-end metric each
//! per-layer metric should move, and on which workload:
//!
//! | layer | should move |
//! |---|---|
//! | `sync.*` | `ops_per_s`/`op_p50_us` on `handoff`; `op_p99_us` on `service-fifo` |
//! | `future.*` | `ops_per_s` on `handoff`; carrier idle time on `service-fifo` |
//! | `core.*` | `ops_per_s`/`op_p99_us` on `abort-churn`; `rss_per_waiter_b` everywhere |
//! | `reclaim.*` | `op_p99_us` on `abort-churn` and `handoff` |
//! | `alloc.*` | `ops_per_s` on `handoff`; `rss_per_waiter_b` everywhere |
//! | `pool.*` | `ops_per_s`/`op_p50_us` on `service-fifo` |
//! | `channel.*` | `ops_per_s` on `service-fifo` |
//! | `exec.*` | `op_p50_us`/`op_p99_us` on `service-fifo` |
//! | `sharded.*` | `ops_per_s`/`op_p99_us` on `handoff`; nothing on `service-fifo` |
//!
//! A layer a workload does not exercise reads 0. `recon.*` splits the
//! traced `handoff` per-waiter time into the self times of `sync.acquire`,
//! `sync.release` and `future.take` and the unattributed rest.

pub mod alloc;
mod churn;
mod handoff;
mod service;
pub mod trace;

use std::time::Instant;

use cqs_future::{CqsFuture, FutureState};
use cqs_stats::CqsStats;
use cqs_sync::Semaphore;

use trace::{Event, Hist, Span, Tracer};

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uncontended suspend → resume → take bursts on one thread.
    Handoff,
    /// Mass cancellation on one thread: a 10⁵-waiter ramp, then churn.
    AbortChurn,
    /// Coroutine service on single-queue primitives.
    ServiceFifo,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Handoff,
        Workload::AbortChurn,
        Workload::ServiceFifo,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Handoff => "handoff",
            Workload::AbortChurn => "abort-churn",
            Workload::ServiceFifo => "service-fifo",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long the timed phase lasts.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Wall-clock seconds (the benchmark's `--seconds`).
    Seconds(f64),
    /// At least this many operations (tests: exactly repeatable work).
    Ops(u64),
}

impl Budget {
    /// The phase ends once `ops` operations are done or the clock
    /// ([`now_ns`]) passes the deadline, whichever this budget sets.
    pub(crate) fn limits(self, start_ns: u64) -> (u64, u64) {
        match self {
            Budget::Seconds(s) => (u64::MAX, start_ns + (s * 1e9) as u64),
            Budget::Ops(n) => (n, u64::MAX),
        }
    }
}

/// A deliberately planted defect, used by the benchmark's own tests to
/// prove its output checks catch it. Only the service workloads plant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plant {
    /// No defect.
    None,
    /// One client counts a response as sent without sending it.
    DropResponse,
    /// One client releases its admission permit twice.
    ExtraRelease,
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub budget: Budget,
    /// Record spans and per-layer metrics.
    pub trace: bool,
    /// Defect to plant (tests only).
    pub plant: Plant,
}

/// A measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `ops_per_s` or `sync.acquire_ns`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit, e.g. `1/s`, `us`, `B`, `ratio`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted (waiter life cycles or client requests).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end metrics (reported by the untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
    /// Sample counts behind the percentiles, as `(metric, samples)`.
    pub samples: Vec<(&'static str, u64)>,
    /// Library counter deltas over the timed phase (zero without `stats`).
    pub stats: CqsStats,
    /// Heap allocations over the timed phase (zero without `stats`).
    pub allocs: alloc::Allocs,
    /// Every tracer of the run, for writing the span records out.
    pub tracers: Vec<Tracer>,
}

/// Runs one workload and checks its outputs.
pub fn run(config: &Config) -> Report {
    match config.workload {
        Workload::Handoff => handoff::run(config),
        Workload::AbortChurn => churn::run(config),
        Workload::ServiceFifo => service::run(config),
    }
}

/// Waiters parked by the memory ramp.
pub(crate) const RAMP_WAITERS: usize = 100_000;

/// Share of the ramp's waiters that are cancelled.
pub(crate) const RAMP_CANCEL_PERMILLE: u64 = 900;

/// Nanoseconds since the first call in this process.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// `true` with probability `permille / 1000`.
    pub(crate) fn chance(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }

    /// Geometric iteration count with the given mean (at least 1).
    pub(crate) fn geometric(&mut self, mean: f64) -> u64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let u = u.max(f64::EPSILON);
        (u.ln() / (1.0 - 1.0 / mean).ln()).ceil().max(1.0) as u64
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Spins for a seeded number of iterations: the request's own work.
pub(crate) fn work(iterations: u64) {
    let mut acc = 0u64;
    for i in 0..iterations {
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(acc);
}

/// Failure bookkeeping shared by every workload.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) failures: Vec<String>,
}

impl Checks {
    /// Records `count` failed operations with a reason.
    pub(crate) fn fail(&mut self, count: u64, reason: impl Into<String>) {
        self.failed += count;
        if self.failures.len() < 16 {
            self.failures.push(reason.into());
        }
    }

    pub(crate) fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(16);
    }
}

/// The timed phase's per-operation latencies (ns), kept exactly.
#[derive(Debug, Default)]
pub(crate) struct Latencies(pub(crate) Vec<f32>);

impl Latencies {
    pub(crate) fn push(&mut self, latency_ns: f64) {
        self.0.push(latency_ns as f32);
    }
}

/// Nearest-rank percentile of sorted values, in microseconds.
fn percentile_us(sorted: &[f32], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            f64::from(sorted[rank - 1]) / 1000.0
        }
    }
}

/// Median of a non-empty sample.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Resident set size from `/proc/self/status` (Linux).
pub(crate) fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line["VmRSS:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// A semaphore whose only permit is held, so every acquire parks.
pub(crate) fn drained_semaphore() -> Semaphore {
    let semaphore = Semaphore::new(1);
    assert!(semaphore.acquire().is_immediate(), "a fresh permit is free");
    semaphore
}

/// Output check on resident memory over a single-threaded timed phase, in
/// which at most one burst of waiters (32) is live at a time: memory may
/// grow by the phase's own latency samples, not with the waiters completed.
/// A run that outgrows [`MemoryCheck::LIMIT_B`] fails and stops at once.
pub(crate) struct MemoryCheck {
    base: u64,
    tripped: bool,
}

impl MemoryCheck {
    /// Allowed growth: a 60 s phase's latency samples take under 64 MiB.
    const LIMIT_B: u64 = 256 << 20;
    /// Resident memory is read every this many bursts.
    const EVERY: usize = 4096;

    pub(crate) fn start() -> MemoryCheck {
        MemoryCheck {
            base: rss_bytes().unwrap_or(0),
            tripped: false,
        }
    }

    /// Whether memory outgrew the limit, read if due at `burst`; the first
    /// time it has, records the failure.
    pub(crate) fn exceeded(&mut self, burst: usize, checks: &mut Checks) -> bool {
        if !self.tripped && burst.is_multiple_of(Self::EVERY) {
            let grown = rss_bytes().unwrap_or(0).saturating_sub(self.base);
            if grown > Self::LIMIT_B {
                self.tripped = true;
                checks.fail(
                    1,
                    format!(
                        "resident memory grew by {} MiB with at most 32 waiters live: \
                         completed waiters' memory is not freed",
                        grown >> 20
                    ),
                );
            }
        }
        self.tripped
    }

    /// Whether the check failed. The traced run then skips its final
    /// flush: collecting the retained garbage can overflow the stack.
    pub(crate) fn tripped(&self) -> bool {
        self.tripped
    }
}

/// What the memory ramp measured.
pub(crate) struct Ramp {
    pub(crate) rss_per_waiter_b: f64,
    pub(crate) peak_live_segments: usize,
}

/// Parks [`RAMP_WAITERS`] waiters on a drained primitive, cancels a seeded
/// 90% in seeded order and resumes the rest, checking every outcome.
/// Resident memory is sampled just before the first park and at the peak.
pub(crate) fn ramp(seed: u64, checks: &mut Checks, tracer: &mut Tracer) -> Ramp {
    let semaphore = drained_semaphore();
    let mut rng = Rng::new(seed, 0x5241_4D50);
    let mut order: Vec<u32> = (0..RAMP_WAITERS as u32).collect();
    rng.shuffle(&mut order);
    let cancelled = RAMP_WAITERS * RAMP_CANCEL_PERMILLE as usize / 1000;
    // Touch the slots before the baseline so only the library's memory
    // counts as growth.
    let mut waiters: Vec<Option<CqsFuture<()>>> = (0..RAMP_WAITERS).map(|_| None).collect();
    checks.attempted += RAMP_WAITERS as u64;
    let before = rss_bytes().unwrap_or(0);
    for slot in waiters.iter_mut() {
        let f = tracer.call(Span::SyncAcquire, || semaphore.acquire());
        if f.is_immediate() {
            checks.fail(1, "ramp: acquire on a drained semaphore completed at once");
        } else {
            tracer.event(Event::AcquireSuspended);
        }
        *slot = Some(f);
    }
    let peak = rss_bytes().unwrap_or(0);
    let peak_live_segments = if tracer.is_on() {
        semaphore.live_segments()
    } else {
        0
    };
    let mut is_cancelled = vec![false; RAMP_WAITERS];
    for &i in &order[..cancelled] {
        is_cancelled[i as usize] = true;
        let f = waiters[i as usize].as_ref().expect("slot filled above");
        if tracer.call(Span::SyncCancel, || f.cancel()) {
            tracer.event(Event::CancelWon);
        } else {
            checks.fail(1, "ramp: cancelling a parked waiter lost to nothing");
        }
    }
    for _ in is_cancelled.iter().filter(|&&c| !c) {
        tracer.call(Span::SyncRelease, || semaphore.release());
    }
    for (i, slot) in waiters.iter_mut().enumerate() {
        let mut f = slot.take().expect("slot filled above");
        if is_cancelled[i] {
            if f.try_get() != FutureState::Cancelled {
                checks.fail(1, "ramp: a cancelled waiter was resumed");
            }
        } else if tracer.call(Span::FutureTake, || f.try_get()) != FutureState::Ready(()) {
            checks.fail(1, "ramp: a live waiter was not resumed");
        }
    }
    if semaphore.available_permits() != 0 || semaphore.waiting() != 0 {
        checks.fail(1, "ramp: permits or waiters left over");
    }
    // Reclaim the probe's garbage here, on the thread that built it:
    // collecting it takes a deep stack, and left to whichever thread
    // collects next it overflowed the 2 MiB stack of an executor carrier.
    drop(semaphore);
    cqs_reclaim::flush_reclaimer(cqs_reclaim::default_reclaimer());
    Ramp {
        rss_per_waiter_b: peak.saturating_sub(before) as f64 / RAMP_WAITERS as f64,
        peak_live_segments,
    }
}

/// Runs `build` `reps` times, tearing down every result but the last with
/// `teardown`; returns the last and the median set-up time.
pub(crate) fn set_up<E>(
    reps: usize,
    checks: &mut Checks,
    mut build: impl FnMut(&mut Checks) -> E,
    mut teardown: impl FnMut(E, &mut Checks),
) -> (E, f64) {
    let mut times = Vec::with_capacity(reps);
    for _ in 1..reps {
        let start = Instant::now();
        let built = build(checks);
        times.push(start.elapsed().as_secs_f64());
        teardown(built, checks);
    }
    let start = Instant::now();
    let built = build(checks);
    times.push(start.elapsed().as_secs_f64());
    (built, median(&mut times))
}

/// Set-ups of a single-threaded workload, timed one at a time between the
/// bursts of its timed phase, with the phase clock paused.
///
/// A set-up takes tens of microseconds, and the speed of a core shared with
/// another tenant can change by 2x for a second or more at a time, so
/// set-ups timed back to back all read the speed of one moment. Spread over
/// the phase they see the same mix of speeds as the phase's throughput.
/// Only the untraced run, which reports `setup_s`, times them; the traced
/// run's counters cover the workload alone.
pub(crate) struct Setups {
    on: bool,
    times: Vec<f64>,
    paused_ns: u64,
}

impl Setups {
    /// One set-up every this many bursts.
    const EVERY: usize = 1024;
    /// Groups whose mean set-up times `setup_s` takes the median of.
    const GROUPS: usize = 9;

    pub(crate) fn new(on: bool) -> Setups {
        Setups {
            on,
            times: Vec::new(),
            paused_ns: 0,
        }
    }

    /// Times one set-up and tears it down, if one is due before `burst`.
    pub(crate) fn between<E>(
        &mut self,
        burst: usize,
        checks: &mut Checks,
        build: impl FnOnce(&mut Checks) -> E,
        teardown: impl FnOnce(E, &mut Checks),
    ) {
        if !self.on || burst % Self::EVERY != Self::EVERY - 1 {
            return;
        }
        let start = now_ns();
        let built = build(checks);
        self.times.push((now_ns() - start) as f64 / 1e9);
        teardown(built, checks);
        self.paused_ns += now_ns() - start;
    }

    /// Time spent in set-ups so far, to leave out of the phase.
    pub(crate) fn paused_ns(&self) -> u64 {
        self.paused_ns
    }

    /// The set-ups are dealt round-robin into [`Setups::GROUPS`] groups,
    /// so each group spans the whole phase; this is the median of the
    /// groups' mean set-up times. A plain median would jump between the
    /// machine's fast and slow speeds whenever the phase spent about half
    /// its time at each. Falls back to `before` (the set-up timed before
    /// the phase) when too few were timed during it.
    pub(crate) fn setup_s(self, before: f64) -> f64 {
        let per_group = self.times.len() / Self::GROUPS;
        if per_group == 0 {
            return before;
        }
        let mut means: Vec<f64> = (0..Self::GROUPS)
            .map(|g| {
                let group = self.times.iter().skip(g).step_by(Self::GROUPS);
                group.take(per_group).sum::<f64>() / per_group as f64
            })
            .collect();
        median(&mut means)
    }
}

/// Everything a workload measured, turned into a [`Report`] by
/// [`report`].
pub(crate) struct Outcome {
    pub(crate) checks: Checks,
    pub(crate) setup_s: f64,
    pub(crate) phase: Phase,
    pub(crate) latencies: Latencies,
    pub(crate) rss_per_waiter_b: f64,
    pub(crate) tracers: Vec<Tracer>,
    pub(crate) hists: std::sync::Arc<Hists>,
    pub(crate) gauges: Gauges,
}

pub(crate) fn report(o: Outcome) -> Report {
    let mut merged = Tracer::off();
    for t in &o.tracers {
        merged.absorb(t);
    }
    let traced = o.tracers.iter().any(Tracer::is_on);
    let samples = vec![
        ("op_p50_us/op_p99_us", o.latencies.0.len() as u64),
        (
            "sync.wait_p50_us/sync.wait_p99_us",
            o.hists.sync_wait.count(),
        ),
        (
            "pool.wait_p50_us/pool.wait_p99_us",
            o.hists.pool_wait.count(),
        ),
        ("sharded.wait_p99_us", o.hists.sharded_wait.count()),
        (
            "exec.wake_to_run_p50_us/exec.wake_to_run_p99_us",
            o.hists.wake_to_run.count(),
        ),
    ];
    let end_to_end = end_to_end(o.setup_s, &o.phase, o.latencies, o.rss_per_waiter_b);
    let per_layer = if traced {
        let ops_per_s = end_to_end[1].value;
        per_layer(&o.phase, ops_per_s, &merged, &o.hists, &o.gauges)
    } else {
        Vec::new()
    };
    Report {
        attempted: o.checks.attempted.max(1),
        failed: o.checks.failed,
        failures: o.checks.failures,
        end_to_end,
        per_layer,
        samples,
        stats: o.phase.stats,
        allocs: o.phase.allocs,
        tracers: o.tracers,
    }
}

/// The timed phase's totals, the inputs of every ratio.
pub(crate) struct Phase {
    pub(crate) ops: u64,
    pub(crate) secs: f64,
    pub(crate) stats: CqsStats,
    pub(crate) allocs: alloc::Allocs,
}

/// Library counters and allocations, snapshotted at the start of a phase.
pub(crate) struct PhaseStart {
    stats: CqsStats,
    allocs: alloc::Allocs,
    start_ns: u64,
}

impl PhaseStart {
    pub(crate) fn now() -> PhaseStart {
        // Garbage left by set-up would be reclaimed inside the phase and
        // make the reclamation counts depend on what ran before.
        cqs_reclaim::flush_reclaimer(cqs_reclaim::default_reclaimer());
        PhaseStart {
            stats: CqsStats::snapshot(),
            allocs: alloc::snapshot(),
            start_ns: now_ns(),
        }
    }

    pub(crate) fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Ends the phase; `paused_ns` of it did not count.
    pub(crate) fn finish(&self, ops: u64, paused_ns: u64) -> Phase {
        let secs = (now_ns() - self.start_ns - paused_ns) as f64 / 1e9;
        Phase {
            ops,
            secs,
            stats: CqsStats::snapshot().delta(&self.stats),
            allocs: alloc::snapshot().since(&self.allocs),
        }
    }
}

/// Wait-time histograms filled by the traced run.
#[derive(Debug, Default)]
pub(crate) struct Hists {
    pub(crate) sync_wait: Hist,
    pub(crate) pool_wait: Hist,
    pub(crate) sharded_wait: Hist,
    pub(crate) wake_to_run: Hist,
}

/// Layer-level observations that are not spans or counters.
#[derive(Debug, Default)]
pub(crate) struct Gauges {
    pub(crate) live_segments_max: usize,
    pub(crate) retired_backlog_max: usize,
    pub(crate) flush_ms: f64,
    /// `(measured, attributed)` nanoseconds per waiter on `handoff`.
    pub(crate) recon: Option<(f64, f64)>,
}

impl Gauges {
    pub(crate) fn sample(&mut self, live_segments: usize) {
        self.live_segments_max = self.live_segments_max.max(live_segments);
        let backlog = cqs_reclaim::retired_approx(cqs_reclaim::default_reclaimer());
        self.retired_backlog_max = self.retired_backlog_max.max(backlog);
    }

    /// Times a full flush of the default backend's garbage.
    pub(crate) fn flush(&mut self, tracer: &mut Tracer) {
        let start = Instant::now();
        tracer.call(Span::ReclaimFlush, || {
            cqs_reclaim::flush_reclaimer(cqs_reclaim::default_reclaimer())
        });
        self.flush_ms = start.elapsed().as_secs_f64() * 1e3;
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Each covers the
/// whole timed phase: the percentiles are over every latency sample.
pub(crate) fn end_to_end(
    setup_s: f64,
    phase: &Phase,
    latencies: Latencies,
    rss_per_waiter_b: f64,
) -> Vec<Metric> {
    let mut all = latencies.0;
    all.sort_unstable_by(f32::total_cmp);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", phase.ops as f64 / phase.secs, "1/s"),
        metric("op_p50_us", percentile_us(&all, 0.5), "us"),
        metric("op_p99_us", percentile_us(&all, 0.99), "us"),
        metric("rss_per_waiter_b", rss_per_waiter_b, "B"),
    ]
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics. Every workload reports all of them; a layer the
/// workload does not exercise reads 0. `ops_per_s` is the traced run's
/// throughput, computed like the end-to-end one.
pub(crate) fn per_layer(
    phase: &Phase,
    ops_per_s: f64,
    t: &Tracer,
    hists: &Hists,
    g: &Gauges,
) -> Vec<Metric> {
    let ops = phase.ops as f64;
    let s = &phase.stats;
    let mean_self = |span: Span| ratio(t.totals(span).self_ns as f64, t.totals(span).count as f64);
    let count = |span: Span| t.totals(span).count as f64;
    let layer_self = |spans: &[Span]| {
        ratio(
            spans.iter().map(|&sp| t.totals(sp).self_ns as f64).sum(),
            ops,
        )
    };
    let us = |h: &Hist, q: f64| h.quantile_ns(q) / 1000.0;
    let (measured, attributed) = g.recon.unwrap_or((0.0, 0.0));
    let sharded_calls = count(Span::ShardedAcquire) + count(Span::ShardedTake);
    let handoffs = s.channel_direct_handoffs + s.channel_buffered_handoffs;
    vec![
        metric("sync.acquire_ns", mean_self(Span::SyncAcquire), "ns"),
        metric("sync.release_ns", mean_self(Span::SyncRelease), "ns"),
        metric("sync.cancel_ns", mean_self(Span::SyncCancel), "ns"),
        metric(
            "sync.acquire_suspend_frac",
            ratio(
                t.events(Event::AcquireSuspended) as f64,
                count(Span::SyncAcquire),
            ),
            "ratio",
        ),
        metric(
            "sync.cancel_won_frac",
            ratio(t.events(Event::CancelWon) as f64, count(Span::SyncCancel)),
            "ratio",
        ),
        metric("sync.wait_p50_us", us(&hists.sync_wait, 0.5), "us"),
        metric("sync.wait_p99_us", us(&hists.sync_wait, 0.99), "us"),
        metric(
            "sync.self_ns_per_op",
            layer_self(&[Span::SyncAcquire, Span::SyncRelease, Span::SyncCancel]),
            "ns",
        ),
        metric("future.take_ns", mean_self(Span::FutureTake), "ns"),
        metric("future.on_ready_ns", mean_self(Span::FutureOnReady), "ns"),
        metric("future.parks_per_op", ratio(s.parks as f64, ops), "1/op"),
        metric(
            "future.self_ns_per_op",
            layer_self(&[Span::FutureTake, Span::FutureOnReady]),
            "ns",
        ),
        metric(
            "core.live_segments_max",
            g.live_segments_max as f64,
            "count",
        ),
        metric(
            "core.segments_allocated_per_kop",
            ratio(s.segments_allocated as f64 * 1e3, ops),
            "1/kop",
        ),
        metric(
            "core.segments_recycled_per_kop",
            ratio(s.segments_recycled as f64 * 1e3, ops),
            "1/kop",
        ),
        metric(
            "core.cancels_smart_skipped_per_op",
            ratio(s.cancels_smart_skipped as f64, ops),
            "1/op",
        ),
        metric(
            "core.cancels_refused_per_op",
            ratio(s.cancels_refused as f64, ops),
            "1/op",
        ),
        metric(
            "core.elim_hits_per_op",
            ratio(s.elim_hits as f64, ops),
            "1/op",
        ),
        metric(
            "reclaim.retired_backlog_max",
            g.retired_backlog_max as f64,
            "count",
        ),
        metric(
            "reclaim.defers_per_op",
            ratio(s.epoch_defers as f64, ops),
            "1/op",
        ),
        metric(
            "reclaim.reclaimed_per_op",
            ratio((s.epoch_collects + s.retired_reclaimed) as f64, ops),
            "1/op",
        ),
        metric("reclaim.flush_ms", g.flush_ms, "ms"),
        metric(
            "alloc.count_per_op",
            ratio(phase.allocs.count as f64, ops),
            "1/op",
        ),
        metric(
            "alloc.bytes_per_op",
            ratio(phase.allocs.bytes as f64, ops),
            "B/op",
        ),
        metric("pool.take_ns", mean_self(Span::PoolTake), "ns"),
        metric("pool.put_ns", mean_self(Span::PoolPut), "ns"),
        metric(
            "pool.take_suspend_frac",
            ratio(t.events(Event::TakeSuspended) as f64, count(Span::PoolTake)),
            "ratio",
        ),
        metric(
            "pool.abort_frac",
            ratio(t.events(Event::TakeAborted) as f64, count(Span::PoolTake)),
            "ratio",
        ),
        metric("pool.wait_p50_us", us(&hists.pool_wait, 0.5), "us"),
        metric("pool.wait_p99_us", us(&hists.pool_wait, 0.99), "us"),
        metric(
            "pool.self_ns_per_op",
            layer_self(&[Span::PoolTake, Span::PoolPut, Span::PoolCancel]),
            "ns",
        ),
        metric("channel.send_ns", mean_self(Span::ChannelSend), "ns"),
        metric("channel.recv_ns", mean_self(Span::ChannelRecv), "ns"),
        metric(
            "channel.send_blocked_frac",
            ratio(
                t.events(Event::SendBlocked) as f64,
                count(Span::ChannelSend),
            ),
            "ratio",
        ),
        metric(
            "channel.direct_handoff_frac",
            ratio(s.channel_direct_handoffs as f64, handoffs as f64),
            "ratio",
        ),
        metric(
            "channel.self_ns_per_op",
            layer_self(&[Span::ChannelSend, Span::ChannelRecv]),
            "ns",
        ),
        metric("exec.wake_to_run_p50_us", us(&hists.wake_to_run, 0.5), "us"),
        metric(
            "exec.wake_to_run_p99_us",
            us(&hists.wake_to_run, 0.99),
            "us",
        ),
        metric(
            "exec.steps_per_op",
            ratio(t.events(Event::Step) as f64, ops),
            "1/op",
        ),
        metric("sharded.acquire_ns", mean_self(Span::ShardedAcquire), "ns"),
        metric("sharded.release_ns", mean_self(Span::ShardedRelease), "ns"),
        metric("sharded.take_ns", mean_self(Span::ShardedTake), "ns"),
        metric("sharded.put_ns", mean_self(Span::ShardedPut), "ns"),
        metric("sharded.wait_p99_us", us(&hists.sharded_wait, 0.99), "us"),
        metric(
            "sharded.local_hit_frac",
            ratio(s.shard_local_hits as f64, sharded_calls),
            "ratio",
        ),
        metric(
            "sharded.steals_per_kop",
            ratio(s.shard_steals as f64 * 1e3, ops),
            "1/kop",
        ),
        metric(
            "sharded.rebalances_per_kop",
            ratio(s.shard_rebalances as f64 * 1e3, ops),
            "1/kop",
        ),
        metric(
            "sharded.self_ns_per_op",
            layer_self(&[
                Span::ShardedAcquire,
                Span::ShardedRelease,
                Span::ShardedTake,
                Span::ShardedPut,
            ]),
            "ns",
        ),
        metric("recon.measured_ns", measured, "ns"),
        metric("recon.attributed_ns", attributed, "ns"),
        metric("recon.unattributed_ns", measured - attributed, "ns"),
        metric("trace.ops_per_s", ops_per_s, "1/s"),
    ]
}
