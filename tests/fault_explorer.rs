//! Exhaustive crash-placement exploration (run with `--features chaos`).
//!
//! The `cqs-check` [`FaultExplorer`] forces a panic at exactly one
//! (label, occurrence) placement per run and replays a scenario until the
//! placement space is exhausted. The scenarios here assert the hardening
//! contract at every placement: a crash at any fault-eligible window
//! leaves the primitive either **fully operational** (the panic surfaced
//! after the protocol finished, e.g. inside a waker) or **cleanly
//! poisoned** (every parked waiter settles promptly with an error, and
//! subsequent operations fail fast) — never a hung waiter, never a lost
//! or duplicated value.
//!
//! Built with the TEST-ONLY `planted-unguarded` feature, the poison
//! recovery around the batched resume traversals is compiled out and the
//! explorer must *find* the stranded-waiter counterexample — CI runs that
//! build to prove the explorer detects real unguarded windows.

mod common;

#[cfg(feature = "chaos")]
mod enabled {
    #[cfg(not(feature = "planted-unguarded"))]
    use crate::common::Pool;
    use cqs::{Cancelled, Cqs, CqsConfig, SimpleCancellation};
    use cqs_check::FaultExplorer;
    use std::sync::{Arc, Mutex as StdMutex, OnceLock};
    use std::time::{Duration, Instant};

    /// Waiters per scenario (and the ceiling on meaningful occurrences).
    const W: usize = 4;
    /// A waiter parked this long is called stranded.
    const HANG: Duration = Duration::from_secs(3);
    /// Settling later than this counts as "until the timeout" (margin for
    /// scheduling noise below `HANG`).
    const STRANDED: Duration = Duration::from_secs(2);

    /// The global chaos scheduler slot is process-wide; explorations must
    /// not interleave with each other (or with seeded storms).
    fn serial_lock() -> &'static StdMutex<()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
    }

    /// Silences the panic hook while `f` runs: every placement injects a
    /// deliberate panic and the default hook would spray backtraces.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        // Deliberate (injected) panics stay quiet; real failures print.
        std::panic::set_hook(Box::new(|info| {
            let quiet = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected crash fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected crash fault"))
                })
                .unwrap_or(false);
            if !quiet {
                eprintln!("panic: {info}");
            }
        }));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        match out {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())
    }

    type Queue = Arc<Cqs<u64, SimpleCancellation>>;
    type WaiterJoin = std::thread::JoinHandle<(Result<u64, Cancelled>, Duration)>;

    fn new_queue() -> Queue {
        Arc::new(Cqs::new(
            CqsConfig::new().segment_size(2),
            SimpleCancellation,
        ))
    }

    /// Suspends `W` waiters from the scenario thread (FIFO cell order is
    /// then the suspend order, making placements deterministic) and parks
    /// each on its own thread with the hang deadline.
    fn park_waiters(cqs: &Queue) -> Vec<WaiterJoin> {
        (0..W)
            .map(|_| {
                let f = cqs.suspend().expect_future();
                std::thread::spawn(move || {
                    let start = Instant::now();
                    (f.wait_timeout(HANG), start.elapsed())
                })
            })
            .collect()
    }

    /// Joins the waiters and enforces the aftermath contract: no waiter
    /// strands until its timeout, no value is delivered twice, and the
    /// queue is poisoned iff a panic interrupted the protocol *before*
    /// every waiter was served. Returns the delivered values.
    fn check_aftermath(
        cqs: &Queue,
        joins: Vec<WaiterJoin>,
        crashed: bool,
    ) -> Result<Vec<u64>, String> {
        let mut got = Vec::new();
        for (i, j) in joins.into_iter().enumerate() {
            let (r, elapsed) = j.join().map_err(|_| format!("waiter {i} panicked"))?;
            // A waiter served only at its timeout was really stranded and
            // merely rescued by the deadline poll — flag it whatever the
            // result was.
            if elapsed >= STRANDED {
                return Err(format!(
                    "waiter {i} was parked until its timeout (result {r:?}, crashed={crashed})"
                ));
            }
            if let Ok(v) = r {
                got.push(v);
            }
        }
        let mut unique = got.clone();
        unique.sort_unstable();
        unique.dedup();
        if unique.len() != got.len() {
            return Err(format!("duplicate delivery: {got:?}"));
        }
        if crashed {
            // Fully operational (the panic surfaced after every waiter was
            // served — e.g. a waker crash) or cleanly poisoned; nothing in
            // between.
            if !cqs.is_poisoned() && got.len() != W {
                return Err(format!(
                    "crash left the queue unpoisoned with only {}/{W} waiters served",
                    got.len()
                ));
            }
        } else {
            if cqs.is_poisoned() {
                return Err("no crash, but the queue reports poisoned".to_string());
            }
            if got.len() != W {
                return Err(format!(
                    "no crash, but only {}/{W} waiters served",
                    got.len()
                ));
            }
        }
        if crashed && cqs.is_poisoned() {
            // Post-fault operations must fail fast, not hang.
            let start = Instant::now();
            let r = cqs.suspend().expect_future().wait_timeout(STRANDED);
            if r.is_ok() || start.elapsed() >= STRANDED {
                return Err("post-poison suspend did not fail fast".to_string());
            }
        }
        Ok(got)
    }

    /// Runs `batch` under `catch_unwind`; `Ok(true)` means the injected
    /// fault crashed it, `Err` means something *else* panicked.
    fn run_crashable(batch: impl FnOnce() + std::panic::UnwindSafe) -> Result<bool, String> {
        match std::panic::catch_unwind(batch) {
            Ok(()) => Ok(false),
            Err(p) => {
                let message = payload_message(p.as_ref());
                if message.contains("injected crash fault") {
                    Ok(true)
                } else {
                    Err(format!("unexpected panic: {message}"))
                }
            }
        }
    }

    fn resume_n_scenario() -> Result<(), String> {
        let cqs = new_queue();
        let joins = park_waiters(&cqs);
        let resumer = {
            let cqs = Arc::clone(&cqs);
            std::thread::spawn(move || {
                run_crashable(std::panic::AssertUnwindSafe(|| {
                    let _failed = cqs.resume_n(0..W as u64, W);
                }))
            })
        };
        let crashed = resumer.join().map_err(|_| "resumer double-panicked")??;
        check_aftermath(&cqs, joins, crashed).map(|_| ())
    }

    #[cfg(not(feature = "planted-unguarded"))]
    fn resume_all_scenario() -> Result<(), String> {
        let cqs = new_queue();
        let joins = park_waiters(&cqs);
        let broadcaster = {
            let cqs = Arc::clone(&cqs);
            std::thread::spawn(move || {
                run_crashable(std::panic::AssertUnwindSafe(|| {
                    let _delivered = cqs.resume_all(7);
                }))
            })
        };
        let crashed = broadcaster
            .join()
            .map_err(|_| "broadcaster double-panicked")??;
        // Broadcast clones one value, so delivered values may repeat:
        // bypass the uniqueness check by validating values first.
        let cqs2 = Arc::clone(&cqs);
        let mut got = Vec::new();
        for (i, j) in joins.into_iter().enumerate() {
            let (r, elapsed) = j.join().map_err(|_| format!("waiter {i} panicked"))?;
            if elapsed >= STRANDED {
                return Err(format!(
                    "waiter {i} was parked until its timeout (result {r:?}, crashed={crashed})"
                ));
            }
            match r {
                Ok(v) if v == 7 => got.push(v),
                Ok(v) => return Err(format!("waiter {i} got {v}, expected the broadcast 7")),
                Err(Cancelled) => {}
            }
        }
        if crashed {
            if !cqs2.is_poisoned() && got.len() != W {
                return Err(format!(
                    "crash left the broadcast unpoisoned with only {}/{W} served",
                    got.len()
                ));
            }
        } else if got.len() != W {
            return Err(format!(
                "no crash, but only {}/{W} got the broadcast",
                got.len()
            ));
        }
        Ok(())
    }

    #[cfg(not(feature = "planted-unguarded"))]
    fn close_scenario() -> Result<(), String> {
        let cqs = new_queue();
        let joins = park_waiters(&cqs);
        let closer = {
            let cqs = Arc::clone(&cqs);
            std::thread::spawn(move || run_crashable(std::panic::AssertUnwindSafe(|| cqs.close())))
        };
        let crashed = closer.join().map_err(|_| "closer double-panicked")??;
        for (i, j) in joins.into_iter().enumerate() {
            let (r, elapsed) = j.join().map_err(|_| format!("waiter {i} panicked"))?;
            match r {
                Ok(v) => return Err(format!("waiter {i} got value {v} from a pure close")),
                Err(Cancelled) => {
                    if elapsed >= STRANDED {
                        return Err(format!(
                            "waiter {i} hung through the close (crashed={crashed})"
                        ));
                    }
                }
            }
        }
        if !cqs.is_closed() {
            return Err("close returned but the queue is not closed".to_string());
        }
        if crashed && !cqs.is_poisoned() {
            return Err("a crash interrupted the close sweep without poisoning".to_string());
        }
        Ok(())
    }

    #[cfg(not(feature = "planted-unguarded"))]
    fn channel_deliver_scenario() -> Result<(), String> {
        use cqs::CqsChannel;
        use cqs_channel::SendError;
        let ch: CqsChannel<u64> = CqsChannel::unbounded();
        let mut crashed = false;
        let mut returned = 0usize;
        for v in [1u64, 2] {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ch.send(v).wait())) {
                Ok(Ok(())) => {}
                Ok(Err(SendError::Poisoned(_))) if crashed => returned += 1,
                Ok(Err(e)) => return Err(format!("send {v} failed unexpectedly: {e}")),
                Err(p) => {
                    let message = payload_message(p.as_ref());
                    if !message.contains("injected crash fault") {
                        return Err(format!("unexpected panic: {message}"));
                    }
                    crashed = true;
                }
            }
        }
        if crashed {
            if !ch.is_poisoned() {
                return Err("crash in deliver left the channel unpoisoned".to_string());
            }
            let start = Instant::now();
            match ch.receive().wait_timeout(STRANDED) {
                Err(_) if start.elapsed() < STRANDED => {}
                other => return Err(format!("post-poison receive did not fail fast: {other:?}")),
            }
            // Conservation: both elements in exactly one sink — the
            // crashed delivery's element is recovered into the orphan
            // list, accepted ones come back from the close sweep.
            let drained = ch.drain().len();
            if drained + returned != 2 {
                return Err(format!(
                    "conservation violated: drained {drained} + returned {returned} != 2"
                ));
            }
        } else {
            if ch.receive().wait() != Ok(1) || ch.receive().wait() != Ok(2) {
                return Err("FIFO broken without a crash".to_string());
            }
            ch.close();
        }
        Ok(())
    }

    /// Crash placements inside the sharded bank's cross-shard hand-overs,
    /// written once and run on the sharded semaphore and the sharded pool
    /// (each a 2-shard bank under its shard type's policy).
    #[cfg(not(feature = "planted-unguarded"))]
    pub(super) mod sharded {
        use super::*;
        use crate::common::{Kind, Pool};
        use cqs::Semaphore;
        use cqs_check::CountdownFault;
        use cqs_core::shard::ShardBank;
        use std::sync::atomic::{AtomicBool, Ordering};

        /// The window every scenario aims at: a recipient shard's batched
        /// resume, reached through the bank's cross-shard hand-overs.
        pub const MID_BATCH: &str = "cqs.resume-n.fault.mid-batch";

        type Alive = Option<Box<dyn Fn() -> usize>>;
        type Join<T> = std::thread::JoinHandle<(Result<T, Cancelled>, Duration)>;

        /// The bank with `n` items, all held by the caller, and a probe of
        /// how many of them are still alive.
        fn held<S: Kind>(n: usize) -> (Arc<ShardBank<S>>, Vec<S::Item>, Alive) {
            let (bank, items) = S::held(n, 2);
            let alive = S::alive(&items);
            (Arc::new(bank), items, alive)
        }

        /// Parks `n` takers on shard `home` from the scenario thread (so
        /// the FIFO order is the park order) and waits on each from its own
        /// thread with the hang deadline.
        fn park_takers<S: Kind>(bank: &ShardBank<S>, home: usize, n: usize) -> Vec<Join<S::Item>> {
            (0..n)
                .map(|_| {
                    let f = bank.take_at(home);
                    assert!(!f.is_immediate(), "setup: the taker must park");
                    std::thread::spawn(move || {
                        let start = Instant::now();
                        (f.wait_timeout(HANG), start.elapsed())
                    })
                })
                .collect()
        }

        /// The aftermath contract: no taker strands until its timeout; a
        /// crash leaves the bank fully operational (every taker served) or
        /// poisoned as a whole (takes through *every* shard fail fast); and
        /// each of the `total` items is delivered or stored exactly once —
        /// counted by the bank and, for elements, by how many are alive.
        fn check_aftermath<S: Kind>(
            bank: &ShardBank<S>,
            joins: Vec<Join<S::Item>>,
            crashed: bool,
            total: usize,
            alive: Alive,
        ) -> Result<(), String> {
            let takers = joins.len();
            let mut delivered = Vec::new();
            for (i, j) in joins.into_iter().enumerate() {
                let (r, elapsed) = j.join().map_err(|_| format!("taker {i} panicked"))?;
                if elapsed >= STRANDED {
                    return Err(format!(
                        "taker {i} was parked until its timeout (crashed={crashed})"
                    ));
                }
                delivered.extend(r.ok());
            }
            let poisoned = bank.is_poisoned();
            let served = delivered.len();
            // Operational means every taker served; poisoned needs a crash.
            if (!poisoned && served != takers) || (poisoned && !crashed) {
                return Err(format!(
                    "crashed={crashed}, poisoned={poisoned}, {served}/{takers} takers served"
                ));
            }
            for home in (0..bank.shards()).filter(|_| poisoned) {
                let start = Instant::now();
                if bank.take_at(home).wait_timeout(STRANDED).is_ok() || start.elapsed() >= STRANDED
                {
                    return Err(format!(
                        "post-poison take through shard {home} did not fail fast"
                    ));
                }
            }
            let stored = bank.stored();
            if served + stored != total {
                return Err(format!(
                    "{served} delivered + {stored} stored != {total} items"
                ));
            }
            match alive.map(|alive| alive()) {
                Some(n) if n != total => Err(format!("{} of {total} elements dropped", total - n)),
                _ => Ok(()),
            }
        }

        /// Every item is given back in one batch through shard 0 while as
        /// many takers wait on shard 1: the batched give's serve pass hands
        /// the batch over to shard 1 in one batched resume.
        pub fn batched_give<S: Kind>() -> Result<(), String> {
            let (bank, items, alive) = held::<S>(W);
            let joins = park_takers(&bank, 1, W);
            let crashed = run_crashable(std::panic::AssertUnwindSafe(|| {
                bank.give_many_at(0, items);
            }))?;
            check_aftermath(&bank, joins, crashed, W, alive)
        }

        /// Every item is given back one at a time through shard 0 while as
        /// many takers wait on shard 1. The semaphore banks each permit
        /// until the last holder's release sweeps, whose rebalance
        /// migration hands all of them over in one batched resume. (The
        /// pool migrates each stored element at once, a single resume with
        /// no batch window, so this is a placement for the semaphore only.)
        pub fn give_one_by_one<S: Kind>() -> Result<(), String> {
            let (bank, items, alive) = held::<S>(W);
            let joins = park_takers(&bank, 1, W);
            let mut crashed = false;
            for item in items {
                crashed |= run_crashable(std::panic::AssertUnwindSafe(|| bank.give_at(0, item)))?;
            }
            check_aftermath(&bank, joins, crashed, W, alive)
        }

        /// Forces one crash placement like the explorer's
        /// [`CountdownFault`], and also runs `action` once, on the thread
        /// that first crosses `cqs.resume.pre-counter`: inside a give that
        /// already committed to a parked waiter but has not resumed it.
        struct FaultWithAction {
            fault: Arc<CountdownFault>,
            action: StdMutex<Option<Box<dyn FnOnce() + Send>>>,
        }

        impl cqs_chaos::Scheduler for FaultWithAction {
            fn at_point(&self, label: &'static str) {
                if label == "cqs.resume.pre-counter" {
                    let action = self.action.lock().unwrap().take();
                    if let Some(action) = action {
                        action();
                    }
                }
            }

            fn at_fault(&self, label: &'static str) -> bool {
                self.fault.at_fault(label)
            }
        }

        /// A refusal whose hook sweep migrates a batch: two items held,
        /// waiter X parked on shard 0 and two takers on shard 1. The first
        /// give at shard 0 commits to X; inside that give (before its
        /// resume) the second item is given at shard 0 too and X cancels,
        /// refusing the in-flight resume. The resume then settles the
        /// refusal, whose hook sweeps. For the semaphore both permits are
        /// now banked (no holder left), so the sweep migrates both in one
        /// batched resume; the pool has already migrated the second
        /// element on its own put, so its sweep moves the refused element
        /// alone (a single resume).
        fn refusal_hook_sweep<S: Kind>(fault: Arc<CountdownFault>) -> Result<(), String> {
            let (bank, mut items, alive) = held::<S>(2);
            let x = bank.take_at(0);
            assert!(!x.is_immediate(), "setup: waiter X must park");
            let joins = park_takers(&bank, 1, 2);
            let x_cancelled = Arc::new(AtomicBool::new(false));
            let action = {
                let (bank, x_cancelled) = (Arc::clone(&bank), Arc::clone(&x_cancelled));
                let second = items.pop().expect("two items");
                Box::new(move || {
                    bank.give_at(0, second);
                    x_cancelled.store(x.cancel(), Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            };
            let scheduler = FaultWithAction {
                fault,
                action: StdMutex::new(Some(action)),
            };
            let crashed = {
                let _guard = cqs_chaos::scoped_scheduler(Arc::new(scheduler));
                let first = items.pop().expect("two items");
                run_crashable(std::panic::AssertUnwindSafe(|| bank.give_at(0, first)))?
            };
            if !x_cancelled.load(Ordering::SeqCst) {
                return Err("X's cancellation did not win: no refusal happened".to_string());
            }
            check_aftermath(&bank, joins, crashed, 2, alive)
        }

        /// Explores every crossing of [`MID_BATCH`] in the refusal-hook
        /// scenario (the explorer's loop, with [`FaultWithAction`] in place
        /// of a bare countdown); returns the number of injections.
        fn explore_refusal_hook_sweep<S: Kind>() -> usize {
            for occurrence in 1..=W + 2 {
                let fault = Arc::new(CountdownFault::new(MID_BATCH, occurrence));
                refusal_hook_sweep::<S>(Arc::clone(&fault))
                    .unwrap_or_else(|e| panic!("[refusal hook, crossing #{occurrence}] {e}"));
                if !fault.fired() {
                    return occurrence - 1;
                }
            }
            W + 2
        }

        /// The refusal-hook sweep recovers or poisons at every crash
        /// placement on both sharded types, and the semaphore's sweep
        /// really crosses the batch window.
        #[test]
        fn refusal_hook_sweep_recovers_or_poisons() {
            let _serial = serial_lock().lock().unwrap();
            with_quiet_panics(|| {
                let injections = explore_refusal_hook_sweep::<Semaphore>();
                assert!(
                    injections >= 2,
                    "the hook sweep must migrate a batch, injected {injections}"
                );
                explore_refusal_hook_sweep::<Pool>();
            });
        }
    }

    /// A crash scenario: runs a protocol round and reports the contract
    /// violation (if any) as a counterexample message.
    #[cfg(not(feature = "planted-unguarded"))]
    type Scenario = fn() -> Result<(), String>;

    /// Scenario × label pairs: each label is explored against the
    /// scenario whose protocol crosses its window.
    #[cfg(not(feature = "planted-unguarded"))]
    fn placements() -> Vec<(&'static str, Scenario)> {
        vec![
            ("cqs.resume-n.fault.mid-batch", resume_n_scenario),
            ("cqs.resume-all.fault.pre-clone", resume_all_scenario),
            ("cqs.resume-n.fault.mid-batch", resume_all_scenario),
            ("future.wake.fault.pre-fire", resume_n_scenario),
            ("cqs.close.fault.mid-sweep", close_scenario),
            ("channel.deliver.fault.pre-count", channel_deliver_scenario),
            (sharded::MID_BATCH, sharded::batched_give::<cqs::Semaphore>),
            (sharded::MID_BATCH, sharded::batched_give::<Pool>),
            (
                sharded::MID_BATCH,
                sharded::give_one_by_one::<cqs::Semaphore>,
            ),
        ]
    }

    /// The hardening proof: with the recovery paths compiled in, *every*
    /// crash placement in every fault-eligible window leaves the primitive
    /// operational or cleanly poisoned.
    #[cfg(not(feature = "planted-unguarded"))]
    #[test]
    fn every_crash_placement_recovers_or_poisons() {
        let _serial = serial_lock().lock().unwrap();
        with_quiet_panics(|| {
            for (label, scenario) in placements() {
                let report = FaultExplorer::with_labels(vec![label])
                    .max_occurrences(W + 2)
                    .explore(scenario)
                    .unwrap_or_else(|cex| panic!("[{label}] {cex}"));
                assert!(
                    report.injections >= 1,
                    "label {label} was never crossed by its scenario \
                     ({} cases run) — the window is dead",
                    report.cases_run
                );
            }
        });
    }

    /// The detector proof: with the poison recovery compiled out
    /// (TEST-ONLY `planted-unguarded`), the explorer must find the
    /// stranded-waiter counterexample in the mid-batch window.
    #[cfg(feature = "planted-unguarded")]
    #[test]
    fn explorer_detects_the_planted_unguarded_window() {
        let _serial = serial_lock().lock().unwrap();
        with_quiet_panics(|| {
            let cex = FaultExplorer::with_labels(vec!["cqs.resume-n.fault.mid-batch"])
                .max_occurrences(W)
                .explore(resume_n_scenario)
                .expect_err("the planted unguarded window must produce a counterexample");
            assert!(
                cex.message.contains("parked")
                    || cex.message.contains("hung")
                    || cex.message.contains("unpoisoned"),
                "unexpected counterexample shape: {cex}"
            );
        });
    }
}

#[cfg(not(feature = "chaos"))]
mod disabled {
    /// Without the `chaos` feature no fault window exists: the explorer
    /// visits every registered label once (its first crossing is never
    /// reached) and injects nothing.
    #[test]
    fn fault_exploration_is_inert_without_chaos() {
        let report = cqs_check::FaultExplorer::new()
            .explore(|| Ok(()))
            .expect("no placement can fail when none fires");
        assert_eq!(report.injections, 0);
        assert_eq!(report.cases_run, cqs_chaos::FAULT_LABELS.len());
    }
}
