//! Production-traffic scenario benches.
//!
//! The paper's figures measure closed-loop microbenchmarks: every thread
//! fires its next operation the instant the previous one finishes. Real
//! services see different shapes — scheduled arrivals that do not wait for
//! completions, bursts landing on a sea of suspended waiters, slow ramps
//! that park hundreds of thousands of requests, and long steady-state runs
//! where leaks compound. Each scenario here reproduces one of those shapes
//! against the CQS primitives, and the memory-sensitive ones attach
//! [`ResourceSample`] snapshots (process RSS + live queue segments) to
//! their figure so a report bounds space as well as time.
//!
//! The headline comparison is [`contended`]: the single-queue
//! [`Semaphore`] against [`ShardedSemaphore`] under permit starvation,
//! where strict global FIFO costs a parked-thread handoff per operation
//! and shard-local banking avoids it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqs_harness::report::ResourceSample;
use cqs_harness::{measure_per_op_repeated, rss_bytes, Repeats, Series};
use cqs_sync::{Semaphore, ShardedSemaphore};

use crate::Scale;

/// Shard count the scenarios pin explicitly: the sharded structures
/// default to the machine's parallelism, which on a small CI box is 1 and
/// would silently benchmark a sharded semaphore against itself.
fn shard_count(threads: usize) -> usize {
    threads.clamp(1, cqs_core::shard::MAX_DEFAULT_SHARDS)
}

/// Contended-acquire throughput, single-queue vs sharded, at
/// `P = ceil(T/2)` permits so half the threads are always waiting.
///
/// Each operation acquires, yields once while holding (forcing the
/// scheduler's hand: a strictly fair semaphore must now hand the permit to
/// the parked FIFO head, one context switch per operation), and releases.
/// The sharded semaphore banks the release on the home shard and the
/// releasing thread re-acquires it with one CAS; parked waiters elsewhere
/// are fed by the rebalance pulse and the quiescence sweep instead of by
/// every single release.
pub fn contended(scale: Scale, threads: &[usize], repeats: Repeats) -> ScenarioResult {
    let total = scale.ops();
    let mut single = Series::new("single-queue");
    let mut sharded = Series::new("sharded");

    for &n in threads {
        let permits = n.div_ceil(2);
        let per_thread = total / n as u64;
        let ops = per_thread * n as u64;

        let s = Arc::new(Semaphore::new(permits));
        single.push(
            n as u64,
            measure_per_op_repeated(n, ops, repeats, |_| {
                for _ in 0..per_thread {
                    s.acquire().wait().expect("scenario never cancels");
                    std::thread::yield_now();
                    s.release();
                }
            }),
        );

        let s = Arc::new(ShardedSemaphore::with_shards(permits, shard_count(n)));
        sharded.push(
            n as u64,
            measure_per_op_repeated(n, ops, repeats, |_| {
                for _ in 0..per_thread {
                    s.acquire().wait().expect("scenario never cancels");
                    std::thread::yield_now();
                    s.release();
                }
            }),
        );
    }

    (vec![single, sharded], Vec::new())
}

/// `(series, resource snapshots)` — what every scenario returns.
pub type ScenarioResult = (Vec<Series>, Vec<ResourceSample>);

/// Lateness budget for [`open_loop`]: an arrival this far behind its
/// schedule is dropped instead of served, as an overloaded service would
/// shed it.
const LATENESS_BUDGET: Duration = Duration::from_micros(100);

/// Open-loop arrivals: each generator thread follows a seeded schedule of
/// jittered inter-arrival gaps that does *not* wait for completions.
/// On-time arrivals acquire/release through the sharded semaphore; late
/// ones (beyond `LATENESS_BUDGET`, 100 µs) are shed and counted in the
/// `scenario_arrivals_dropped` stats counter, which lands in each point's
/// counter block when built with `--features stats`. Per-op time includes
/// schedule idle — the series tracks offered-load behaviour, not raw
/// primitive latency.
pub fn open_loop(scale: Scale, threads: &[usize], repeats: Repeats) -> ScenarioResult {
    let gap_ns: u64 = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 1_000,
    };
    let total = scale.ops() / 4; // wall time is schedule-bound, keep it short
    let mut series = Series::new("sharded open-loop");

    for &n in threads {
        let per_thread = total / n as u64;
        let permits = n.div_ceil(2);
        let s = Arc::new(ShardedSemaphore::with_shards(permits, shard_count(n)));
        series.push(
            n as u64,
            measure_per_op_repeated(n, per_thread * n as u64, repeats, |t| {
                // Splitmix-style per-thread jitter; seeded, so every repeat
                // replays the identical arrival schedule.
                let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (t as u64).wrapping_mul(0xDEAD_BEEF);
                let start = Instant::now();
                let mut sched_ns = 0u64;
                for _ in 0..per_thread {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    sched_ns += gap_ns / 2 + state % gap_ns; // mean = gap_ns
                    let sched = Duration::from_nanos(sched_ns);
                    loop {
                        let now = start.elapsed();
                        if now >= sched {
                            break;
                        }
                        if sched - now > Duration::from_micros(50) {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    if start.elapsed() > sched + LATENESS_BUDGET {
                        cqs_stats::bump!(scenario_arrivals_dropped);
                        continue;
                    }
                    s.acquire().wait().expect("scenario never cancels");
                    s.release();
                }
            }),
        );
    }

    (vec![series], Vec::new())
}

/// Bursty fan-out: suspend a burst of B waiters, wake them with one
/// `release_n(B)`, and charge the whole suspend+wake cycle per waiter.
/// Compares the single queue's batched resume against the sharded
/// semaphore's ring distribution of the same batch.
pub fn burst(scale: Scale, repeats: Repeats) -> ScenarioResult {
    let bursts: &[usize] = match scale {
        Scale::Quick => &[64, 256],
        Scale::Full => &[256, 1024, 4096],
    };
    let mut single = Series::new("single-queue release_n");
    let mut sharded = Series::new("sharded release_n");

    for &b in bursts {
        single.push(
            b as u64,
            measure_per_op_repeated(1, b as u64, repeats, |_| {
                let s = Semaphore::new(b);
                let held: Vec<_> = (0..b).map(|_| s.acquire()).collect();
                debug_assert!(held.iter().all(|f| f.is_immediate()));
                let waiters: Vec<_> = (0..b).map(|_| s.acquire()).collect();
                s.release_n(b);
                for w in waiters {
                    w.wait().expect("burst wake must reach every waiter");
                }
            }),
        );

        let shards = shard_count(4);
        sharded.push(
            b as u64,
            measure_per_op_repeated(1, b as u64, repeats, |_| {
                let s = ShardedSemaphore::with_shards(b, shards);
                let held: Vec<_> = (0..b).map(|i| s.acquire_at(i)).collect();
                debug_assert!(held.iter().all(|f| f.is_immediate()));
                let waiters: Vec<_> = (0..b).map(|i| s.acquire_at(i)).collect();
                s.release_n(b);
                for w in waiters {
                    w.wait().expect("burst wake must reach every waiter");
                }
            }),
        );
    }

    (vec![single, sharded], Vec::new())
}

/// Waiter ramp: park an ever-growing population of suspended acquires on a
/// drained sharded semaphore, snapshotting RSS and live segments at each
/// level, then cancel the lot and snapshot once more (at `x = 0`) to show
/// the segments were reclaimed. The series record per-waiter suspend and
/// cancel cost; the snapshots are the point — memory must grow linearly
/// with the live population and fall back after the mass cancellation.
pub fn ramp(scale: Scale) -> ScenarioResult {
    let levels: &[usize] = match scale {
        Scale::Quick => &[1_000, 10_000],
        Scale::Full => &[10_000, 100_000],
    };
    let shards = shard_count(4);
    let sem = ShardedSemaphore::with_shards(1, shards);
    let gate = sem.acquire_at(0);
    assert!(gate.is_immediate(), "draining the single permit");

    let mut suspend = Series::new("suspend ns/waiter");
    let mut cancel = Series::new("cancel ns/waiter");
    let mut samples = Vec::new();
    let mut futures = Vec::with_capacity(*levels.last().unwrap_or(&0));

    for &level in levels {
        let begin = Instant::now();
        for i in futures.len()..level {
            futures.push(sem.acquire_at(i));
        }
        let grew = level - suspend.points.last().map_or(0, |(x, _)| *x as usize);
        suspend.push_scalar(
            level as u64,
            begin.elapsed().as_nanos() as f64 / grew.max(1) as f64,
        );
        samples.push(ResourceSample {
            x: level as u64,
            rss_bytes: rss_bytes(),
            live_segments: sem.live_segments() as u64,
        });
    }

    let population = futures.len();
    let begin = Instant::now();
    for f in futures.drain(..) {
        assert!(f.cancel(), "no permits in flight, every cancel must win");
    }
    cancel.push_scalar(
        population as u64,
        begin.elapsed().as_nanos() as f64 / population.max(1) as f64,
    );
    samples.push(ResourceSample {
        x: 0,
        rss_bytes: rss_bytes(),
        live_segments: sem.live_segments() as u64,
    });

    (vec![suspend, cancel], samples)
}

/// Long-run soak: worker threads hammer acquire/yield/release on a sharded
/// semaphore for a fixed wall-clock window while the main thread samples
/// RSS and live segments on a steady cadence. A leak (futures, segments,
/// freelist growth) shows up as a drifting sample line; the single series
/// point is overall ns/op for the whole window.
pub fn soak(scale: Scale, threads: &[usize]) -> ScenarioResult {
    let (window, cadence) = match scale {
        Scale::Quick => (Duration::from_millis(1_000), Duration::from_millis(200)),
        Scale::Full => (Duration::from_millis(8_000), Duration::from_millis(500)),
    };
    let n = threads.iter().copied().max().unwrap_or(4);
    let permits = n.div_ceil(2);
    let sem = Arc::new(ShardedSemaphore::with_shards(permits, shard_count(n)));
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));

    let mut samples = Vec::new();
    let begin = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..n {
            let sem = Arc::clone(&sem);
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    sem.acquire().wait().expect("soak never cancels");
                    std::thread::yield_now();
                    sem.release();
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        while begin.elapsed() < window {
            std::thread::sleep(cadence);
            sem.publish_gauges();
            samples.push(ResourceSample {
                x: begin.elapsed().as_millis() as u64,
                rss_bytes: rss_bytes(),
                live_segments: sem.live_segments() as u64,
            });
        }
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = begin.elapsed();

    let total = ops.load(Ordering::Relaxed);
    let mut series = Series::new("sharded soak ns/op");
    series.push_scalar(
        elapsed.as_millis() as u64,
        elapsed.as_nanos() as f64 / total.max(1) as f64,
    );
    (vec![series], samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_repeats() -> Repeats {
        Repeats::once()
    }

    #[test]
    fn contended_produces_both_series() {
        let (series, samples) = contended(Scale::Quick, &[1, 2], quick_repeats());
        assert_eq!(series.len(), 2);
        assert!(samples.is_empty());
        for s in &series {
            assert_eq!(s.points.len(), 2, "{} missing points", s.name);
            assert!(s.points.iter().all(|(_, p)| p.median > 0.0));
        }
    }

    #[test]
    fn open_loop_sheds_or_serves_every_arrival() {
        let (series, _) = open_loop(Scale::Quick, &[2], quick_repeats());
        assert_eq!(series[0].points.len(), 1);
    }

    #[test]
    fn burst_wakes_every_waiter() {
        let (series, _) = burst(Scale::Quick, quick_repeats());
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].points.len(), series[1].points.len());
    }

    #[test]
    fn ramp_samples_grow_then_reclaim() {
        let (series, samples) = ramp(Scale::Quick);
        assert_eq!(series.len(), 2);
        // One snapshot per level plus the post-cancel one.
        assert_eq!(samples.len(), 3);
        let peak = &samples[samples.len() - 2];
        let after = samples.last().unwrap();
        assert!(
            peak.live_segments > after.live_segments,
            "mass cancellation must reclaim segments: {} -> {}",
            peak.live_segments,
            after.live_segments
        );
    }

    #[test]
    fn soak_makes_progress_and_samples() {
        let (series, samples) = soak(Scale::Quick, &[2]);
        assert!(!samples.is_empty());
        let (_, p) = &series[0].points[0];
        assert!(p.median.is_finite() && p.median > 0.0);
    }
}
