//! A deterministic interleaving explorer over the chaos-labelled race
//! windows (a loom-style, CHESS-style schedule searcher).
//!
//! The explorer runs a small multi-threaded [`Program`] under **serialized
//! execution**: exactly one program thread runs at a time, and control is
//! handed over only at *schedule points* — the `cqs_chaos::inject!`
//! labelled race windows (bridged in via the [`cqs_chaos::Scheduler`]
//! trait), or explicit [`schedule_point`] calls in unit tests. At every
//! point where more than one thread could run next, the explorer records a
//! decision; across repeated runs it backtracks depth-first through those
//! decisions, enumerating all interleavings up to
//! [`Explorer::preemption_bound`] involuntary context switches (CHESS-style
//! preemption bounding: most concurrency bugs need very few preemptions,
//! and the schedule space shrinks from exponential to polynomial).
//!
//! On failure the explorer returns the exact decision [`Trace`]; feeding it
//! to [`Explorer::replay`] re-executes that one schedule deterministically.
//!
//! Programs must only perform **non-blocking** operations on their
//! controlled threads (`suspend`/`resume`/`cancel`/`close`/`resume_n`,
//! `try_get`): a thread that parks outside a schedule point would stall the
//! serialized run. Assertions on final state belong in the program's
//! `check` closure, which runs after every thread has finished.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Label shown for a thread that has not yet taken its first step.
const SPAWN_LABEL: &str = "<spawn>";

// ---------------------------------------------------------------------
// Program under test
// ---------------------------------------------------------------------

/// A small concurrent program for the explorer: two or three thread
/// bodies plus a final check over the shared state they leave behind.
pub struct Program {
    threads: Vec<Box<dyn FnOnce() + Send>>,
    check: Box<dyn FnOnce() -> Result<(), String>>,
}

impl Program {
    /// Creates an empty program (add threads with [`Program::thread`]).
    pub fn new() -> Self {
        Program {
            threads: Vec::new(),
            check: Box::new(|| Ok(())),
        }
    }

    /// Adds a controlled thread. Thread ordinals follow insertion order.
    pub fn thread(mut self, body: impl FnOnce() + Send + 'static) -> Self {
        self.threads.push(Box::new(body));
        self
    }

    /// Sets the final-state check, run on the explorer's own thread after
    /// all program threads have finished. Returning `Err` (or a panic in
    /// any thread body) makes the current schedule a counterexample.
    pub fn check(mut self, check: impl FnOnce() -> Result<(), String> + 'static) -> Self {
        self.check = Box::new(check);
        self
    }
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------

/// One recorded scheduling decision (only points with a real choice are
/// recorded; forced continuations are not decisions).
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Ordinal of the thread scheduled next.
    pub chosen: usize,
    /// The label the chosen thread was parked at when it was picked
    /// (`"<spawn>"` before its first step).
    pub label: &'static str,
    /// How many other threads could have been scheduled instead.
    pub alternatives: usize,
    /// Whether this decision preempted a thread that could have continued.
    pub preemption: bool,
}

/// A replayable schedule: the sequence of decisions taken at every
/// branching schedule point of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The recorded decisions, in schedule order.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// The raw decision list, suitable for [`Explorer::replay`].
    pub fn choices(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.chosen).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule trace ({} decisions):", self.steps.len())?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "  #{i:<3} run t{} from {}{}  [{} alternative{}]",
                step.chosen,
                step.label,
                if step.preemption {
                    "  (preemption)"
                } else {
                    ""
                },
                step.alternatives,
                if step.alternatives == 1 { "" } else { "s" },
            )?;
        }
        Ok(())
    }
}

/// A failing schedule: the check error (or thread panic) plus the decision
/// trace that reproduces it via [`Explorer::replay`].
#[derive(Debug)]
pub struct CounterExample {
    /// The check failure or panic message.
    pub error: String,
    /// The schedule that produced it.
    pub trace: Trace,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample: {}", self.error)?;
        write!(f, "{}", self.trace)
    }
}

/// Summary of a bounded exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Number of schedules executed.
    pub runs: usize,
    /// Whether the bounded schedule space was fully enumerated (false when
    /// `max_runs` or `time_budget` stopped the search early).
    pub exhausted: bool,
    /// Runs cut short by `max_steps` (their tails ran unbranched).
    pub truncated_runs: usize,
    /// Forced decisions that no longer matched a runnable thread on
    /// replay; nonzero values mean the program has schedule-independent
    /// nondeterminism and coverage is best-effort for those prefixes.
    pub divergences: usize,
    /// The first failing schedule found, if any.
    pub counterexample: Option<CounterExample>,
}

// ---------------------------------------------------------------------
// Scheduler internals
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Waiting,
    Running,
    Done,
}

/// A decision point with the not-yet-explored alternatives (the DFS
/// stack's element).
struct StepRecord {
    chosen: usize,
    untried: Vec<usize>,
}

struct RunState {
    slots: Vec<Slot>,
    /// Per thread: the label it is currently parked at.
    labels: Vec<&'static str>,
    registered: usize,
    current: Option<usize>,
    /// Decision prefix to follow (from the DFS stack).
    forced: Vec<usize>,
    /// Index of the next branching decision (into `forced` while
    /// replaying, beyond it while exploring).
    cursor: usize,
    /// Decisions taken beyond the forced prefix this run.
    new_steps: Vec<StepRecord>,
    /// Printable record of every branching decision this run.
    trace: Vec<TraceStep>,
    preemptions: usize,
    steps: u64,
    truncated: bool,
    divergences: usize,
    /// Abandon serialization: all threads run freely to completion (set on
    /// participant panic or stall so the run can be joined and reported).
    free_run: bool,
    failure: Option<String>,
}

struct Shared {
    state: Mutex<RunState>,
    cv: Condvar,
    preemption_bound: usize,
    max_steps: u64,
}

impl Shared {
    fn new(n: usize, forced: Vec<usize>, explorer: &Explorer) -> Self {
        Shared {
            state: Mutex::new(RunState {
                slots: vec![Slot::Waiting; n],
                labels: vec![SPAWN_LABEL; n],
                registered: 0,
                current: None,
                forced,
                cursor: 0,
                new_steps: Vec::new(),
                trace: Vec::new(),
                preemptions: 0,
                steps: 0,
                truncated: false,
                divergences: 0,
                free_run: false,
                failure: None,
            }),
            cv: Condvar::new(),
            preemption_bound: explorer.preemption_bound,
            max_steps: explorer.max_steps,
        }
    }

    fn all_done(state: &RunState) -> bool {
        state.slots.iter().all(|s| *s == Slot::Done)
    }

    /// Picks the next thread to run. `prev` is the thread that just
    /// yielded at a schedule point (`None` when a thread finished or at
    /// run start, where switching costs no preemption).
    fn pick_next(&self, st: &mut RunState, prev: Option<usize>) {
        if st.free_run {
            self.cv.notify_all();
            return;
        }
        // Candidate order: continue the previous thread first (the
        // fewest-context-switches schedule is explored first), then the
        // remaining runnable threads by ordinal.
        let mut candidates: Vec<usize> = Vec::new();
        if let Some(p) = prev {
            candidates.push(p);
        }
        for (t, slot) in st.slots.iter().enumerate() {
            if *slot == Slot::Waiting && Some(t) != prev {
                candidates.push(t);
            }
        }
        if candidates.is_empty() {
            // All threads done: wake the driver.
            st.current = None;
            self.cv.notify_all();
            return;
        }
        // Preemption bounding: once the budget is spent, a thread that can
        // continue must continue. Step truncation stops branching too.
        if prev.is_some() && st.preemptions >= self.preemption_bound {
            candidates.truncate(1);
        }
        if st.steps > self.max_steps {
            st.truncated = true;
            candidates.truncate(1);
        }

        let chosen = if candidates.len() == 1 {
            candidates[0]
        } else if st.cursor < st.forced.len() {
            let want = st.forced[st.cursor];
            st.cursor += 1;
            if candidates.contains(&want) {
                want
            } else {
                // The program behaved differently than when this prefix
                // was recorded (schedule-independent nondeterminism, e.g.
                // a global allocator or collector threshold). Fall back
                // deterministically and count it.
                st.divergences += 1;
                candidates[0]
            }
        } else {
            st.cursor += 1;
            st.new_steps.push(StepRecord {
                chosen: candidates[0],
                untried: candidates[1..].to_vec(),
            });
            candidates[0]
        };
        if candidates.len() > 1 {
            st.trace.push(TraceStep {
                chosen,
                label: st.labels[chosen],
                alternatives: candidates.len() - 1,
                preemption: prev.is_some_and(|p| p != chosen),
            });
        }
        if prev.is_some_and(|p| p != chosen) {
            st.preemptions += 1;
        }
        st.current = Some(chosen);
        self.cv.notify_all();
    }

    /// A controlled thread reached the labelled schedule point: yield the
    /// schedule and block until picked again.
    fn point(&self, me: usize, label: &'static str) {
        let mut st = self.state.lock().unwrap();
        if st.free_run {
            return;
        }
        st.steps += 1;
        st.slots[me] = Slot::Waiting;
        st.labels[me] = label;
        self.pick_next(&mut st, Some(me));
        while !st.free_run && st.current != Some(me) {
            st = self.cv.wait(st).unwrap();
        }
        if !st.free_run {
            st.slots[me] = Slot::Running;
        }
    }

    /// Registration gate: announce readiness, then block until scheduled
    /// for the first time.
    fn register_and_wait(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        st.registered += 1;
        self.cv.notify_all();
        while !st.free_run && st.current != Some(me) {
            st = self.cv.wait(st).unwrap();
        }
        if !st.free_run {
            st.slots[me] = Slot::Running;
        }
    }

    fn finish(&self, me: usize, panic_message: Option<String>) {
        let mut st = self.state.lock().unwrap();
        st.slots[me] = Slot::Done;
        if let Some(message) = panic_message {
            if st.failure.is_none() {
                st.failure = Some(message);
            }
            // Let every other thread run to completion unserialized so the
            // run can be joined and the trace reported.
            st.free_run = true;
            self.cv.notify_all();
            return;
        }
        self.pick_next(&mut st, None);
    }
}

thread_local! {
    /// The explorer this thread belongs to (participants only).
    static PARTICIPANT: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
}

/// Explicit schedule point for programs driven without the `chaos`
/// feature (unit tests of the explorer itself). On a thread not owned by
/// a running exploration this is a no-op, so it is always safe to call.
pub fn schedule_point(label: &'static str) {
    let participant = PARTICIPANT.try_with(|p| p.borrow().clone()).ok().flatten();
    if let Some((shared, me)) = participant {
        shared.point(me, label);
    }
}

/// Routes the `cqs_chaos::inject!` windows into the explorer: installed
/// as the global chaos scheduler for the duration of a run, it forwards
/// every labelled window on a participant thread to [`schedule_point`].
struct ChaosBridge;

impl cqs_chaos::Scheduler for ChaosBridge {
    fn at_point(&self, label: &'static str) {
        schedule_point(label);
    }
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

/// Bounded depth-first schedule explorer (see module docs).
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Maximum involuntary context switches per schedule (CHESS bound).
    pub preemption_bound: usize,
    /// Maximum schedule points per run; beyond it the run finishes on a
    /// single deterministic tail (counted in `truncated_runs`).
    pub max_steps: u64,
    /// Hard cap on the number of schedules to execute.
    pub max_runs: usize,
    /// Wall-clock budget for the whole exploration.
    pub time_budget: Duration,
    /// How long a single run may go without completing before it is
    /// declared stalled (a program thread blocked outside a schedule
    /// point) and failed.
    pub stall_timeout: Duration,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            preemption_bound: 2,
            max_steps: 5_000,
            max_runs: 200_000,
            time_budget: Duration::from_secs(120),
            stall_timeout: Duration::from_secs(30),
        }
    }
}

struct RunOutcome {
    result: Result<(), String>,
    new_steps: Vec<StepRecord>,
    trace: Trace,
    truncated: bool,
    divergences: usize,
}

impl Explorer {
    /// Explores the schedule space of `setup`'s program depth-first up to
    /// the configured bounds. `setup` is called once per run and must
    /// build a fresh, equivalent program each time.
    pub fn explore(&self, mut setup: impl FnMut() -> Program) -> Exploration {
        let started = Instant::now();
        let mut stack: Vec<StepRecord> = Vec::new();
        let mut runs = 0;
        let mut truncated_runs = 0;
        let mut divergences = 0;
        loop {
            let forced: Vec<usize> = stack.iter().map(|s| s.chosen).collect();
            let outcome = self.run_once(setup(), forced);
            runs += 1;
            truncated_runs += usize::from(outcome.truncated);
            divergences += outcome.divergences;
            if let Err(error) = outcome.result {
                return Exploration {
                    runs,
                    exhausted: false,
                    truncated_runs,
                    divergences,
                    counterexample: Some(CounterExample {
                        error,
                        trace: outcome.trace,
                    }),
                };
            }
            stack.extend(outcome.new_steps);
            // Depth-first backtrack: redirect the deepest decision that
            // still has an unexplored alternative.
            let exhausted = loop {
                match stack.last_mut() {
                    None => break true,
                    Some(last) if last.untried.is_empty() => {
                        stack.pop();
                    }
                    Some(last) => {
                        last.chosen = last.untried.remove(0);
                        break false;
                    }
                }
            };
            if exhausted || runs >= self.max_runs || started.elapsed() > self.time_budget {
                return Exploration {
                    runs,
                    exhausted,
                    truncated_runs,
                    divergences,
                    counterexample: None,
                };
            }
        }
    }

    /// Re-executes one schedule from a recorded decision list (see
    /// [`Trace::choices`]) and returns the program check's verdict.
    pub fn replay(&self, setup: impl FnOnce() -> Program, choices: &[usize]) -> Result<(), String> {
        self.run_once(setup(), choices.to_vec()).result
    }

    fn run_once(&self, program: Program, forced: Vec<usize>) -> RunOutcome {
        let n = program.threads.len();
        assert!(n > 0, "explorer programs need at least one thread");
        let shared = Arc::new(Shared::new(n, forced, self));
        // Take over the chaos-labelled windows for the duration of the
        // run. Without the `chaos` feature this guard is inert and only
        // explicit `schedule_point` calls are controlled.
        let _guard = cqs_chaos::scoped_scheduler(Arc::new(ChaosBridge));

        let handles: Vec<_> = program
            .threads
            .into_iter()
            .enumerate()
            .map(|(ordinal, body)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    PARTICIPANT.with(|p| *p.borrow_mut() = Some((Arc::clone(&shared), ordinal)));
                    shared.register_and_wait(ordinal);
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(body));
                    PARTICIPANT.with(|p| *p.borrow_mut() = None);
                    shared.finish(ordinal, outcome.err().map(panic_text));
                })
            })
            .collect();

        // Drive the run: wait for the registration gate, make the first
        // decision, then wait for completion (or a stall).
        {
            let mut st = shared.state.lock().unwrap();
            while st.registered < n {
                st = shared.cv.wait(st).unwrap();
            }
            shared.pick_next(&mut st, None);
            let (mut st, timeout) = shared
                .cv
                .wait_timeout_while(st, self.stall_timeout, |st| !Shared::all_done(st))
                .unwrap();
            if timeout.timed_out() && !Shared::all_done(&st) {
                st.free_run = true;
                if st.failure.is_none() {
                    st.failure = Some(format!(
                        "run stalled for {:?}: a program thread blocked outside a schedule point",
                        self.stall_timeout
                    ));
                }
                shared.cv.notify_all();
            }
        }
        for handle in handles {
            let _ = handle.join();
        }

        let mut st = shared.state.lock().unwrap();
        let trace = Trace {
            steps: std::mem::take(&mut st.trace),
        };
        let new_steps = std::mem::take(&mut st.new_steps);
        let truncated = st.truncated;
        let divergences = st.divergences;
        let failure = st.failure.take();
        drop(st);
        drop(shared);

        let result = match failure {
            Some(message) => Err(message),
            None => (program.check)(),
        };
        RunOutcome {
            result,
            new_steps,
            trace,
            truncated,
            divergences,
        }
    }

    /// Convenience wrapper asserting the bounded space is clean: panics
    /// with the printable counterexample if one is found, or if the
    /// bounds stopped the search before it was exhaustive.
    pub fn check_exhaustive(&self, setup: impl FnMut() -> Program) -> Exploration {
        let exploration = self.explore(setup);
        if let Some(cx) = &exploration.counterexample {
            panic!("model check failed after {} runs\n{cx}", exploration.runs);
        }
        assert!(
            exploration.exhausted,
            "exploration stopped early after {} runs (raise max_runs/time_budget)",
            exploration.runs
        );
        exploration
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("thread panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("thread panicked: {s}")
    } else {
        "thread panicked (non-string payload)".to_string()
    }
}

// Used by unit tests below and by integration tests to assert distinct
// schedules were actually exercised.
#[doc(hidden)]
pub fn __distinct_schedules(traces: &[Vec<usize>]) -> usize {
    traces.iter().collect::<HashSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    /// Explorations install a process-global chaos scheduler; keep them
    /// from overlapping across the test harness's worker threads.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Two threads, two schedule points each, appending to a shared log:
    /// unbounded exploration must enumerate exactly C(4,2) = 6 distinct
    /// orders.
    #[test]
    fn enumerates_all_interleavings_of_two_threads() {
        let _serial = serial();
        let orders = Arc::new(StdMutex::new(HashSet::new()));
        let explorer = Explorer {
            preemption_bound: 8,
            ..Explorer::default()
        };
        let exploration = explorer.check_exhaustive(|| {
            let log = Arc::new(StdMutex::new(Vec::new()));
            let orders = Arc::clone(&orders);
            let mut program = Program::new();
            for id in 0..2usize {
                let log = Arc::clone(&log);
                program = program.thread(move || {
                    schedule_point("toy.first");
                    log.lock().unwrap().push(id);
                    schedule_point("toy.second");
                    log.lock().unwrap().push(id);
                });
            }
            program.check(move || {
                orders.lock().unwrap().insert(log.lock().unwrap().clone());
                Ok(())
            })
        });
        assert!(exploration.exhausted);
        assert_eq!(
            orders.lock().unwrap().len(),
            6,
            "expected all interleavings"
        );
    }

    /// A classic check-then-act race: both threads can pass the flag test
    /// before either sets it. The explorer must find it, produce a trace,
    /// and the trace must replay to the same failure.
    #[test]
    fn finds_check_then_act_race_and_replays_it() {
        let _serial = serial();
        let explorer = Explorer::default();
        let make = || {
            let flag = Arc::new(AtomicUsize::new(0));
            let inside = Arc::new(AtomicUsize::new(0));
            let mut program = Program::new();
            for _ in 0..2 {
                let flag = Arc::clone(&flag);
                let inside = Arc::clone(&inside);
                program = program.thread(move || {
                    if flag.load(Ordering::SeqCst) == 0 {
                        schedule_point("toy.race-window");
                        flag.store(1, Ordering::SeqCst);
                        inside.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            program.check(move || {
                if inside.load(Ordering::SeqCst) > 1 {
                    Err("two threads entered the critical section".into())
                } else {
                    Ok(())
                }
            })
        };
        let exploration = explorer.explore(make);
        let cx = exploration
            .counterexample
            .expect("the race must be found within the bound");
        assert!(!cx.trace.steps.is_empty());
        let verdict = explorer.replay(make, &cx.trace.choices());
        assert_eq!(
            verdict,
            Err("two threads entered the critical section".to_string()),
            "replaying the counterexample trace must reproduce the failure"
        );
        // The full decision trace prints (smoke-check the Display path).
        assert!(format!("{cx}").contains("schedule trace"));
    }

    /// Preemption bounding prunes: bound 0 explores only voluntary
    /// switches (each thread runs to completion once scheduled).
    #[test]
    fn preemption_bound_zero_prunes_to_thread_orderings() {
        let _serial = serial();
        let explorer = Explorer {
            preemption_bound: 0,
            ..Explorer::default()
        };
        let exploration = explorer.check_exhaustive(|| {
            let mut program = Program::new();
            for _ in 0..2 {
                program = program.thread(|| {
                    schedule_point("toy.a");
                    schedule_point("toy.b");
                });
            }
            program
        });
        // With no preemptions the only choices are which thread starts
        // first and which continues when one finishes: 2 schedules.
        assert!(exploration.exhausted);
        assert_eq!(exploration.runs, 2);
    }

    /// Panics in program threads are captured as counterexamples instead
    /// of tearing down the harness.
    #[test]
    fn thread_panic_becomes_counterexample() {
        let _serial = serial();
        let explorer = Explorer::default();
        let exploration = explorer.explore(|| {
            Program::new()
                .thread(|| {
                    schedule_point("toy.pre-panic");
                    panic!("boom");
                })
                .thread(|| schedule_point("toy.bystander"))
        });
        let cx = exploration.counterexample.expect("panic must surface");
        assert!(cx.error.contains("boom"), "got: {}", cx.error);
    }
}
