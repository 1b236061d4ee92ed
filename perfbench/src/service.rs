//! `service-fifo`: a coroutine service in the shape of the paper's
//! coroutine runtime.
//!
//! 256 client coroutines run a closed loop on a 2-carrier executor. A
//! request acquires admission (32 permits), takes one of 8 connections,
//! holds it across one yield (simulated I/O) and a seeded amount of work,
//! returns both, and sends its response on a bounded channel (capacity 16)
//! drained by one collector coroutine, which checks that every response
//! arrives exactly once. A seeded 10% of the clients give up a take with
//! `cancel()` when no connection is ready.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use cqs_channel::{ChannelRecv, ChannelSend, CqsChannel};
use cqs_exec::{CoroStep, CoroWaker, Coroutine, Executor};
use cqs_future::{CqsFuture, FutureState};
use cqs_pool::QueuePool;
use cqs_sync::Semaphore;

use crate::trace::{Event, Span, Tracer};
use crate::{
    now_ns, ramp, report, set_up, work, Budget, Checks, Config, Gauges, Hists, Latencies, Outcome,
    Phase, PhaseStart, Plant, Report, Rng,
};

const CARRIERS: usize = 2;
const CLIENTS: usize = 256;
const ADMISSION_PERMITS: usize = 32;
const CONNECTIONS: u32 = 8;
const CHANNEL_CAPACITY: usize = 16;
const WORK_MEAN: f64 = 200.0;
const GIVE_UP_PERMILLE: usize = 100;
/// Times the set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Requests served by each set-up before timing starts.
const WARMUP_REQUESTS: u64 = 4096;
/// How long a set-up, an ops budget or a drain may take before the run
/// counts as hung.
const HANG_DEADLINE: Duration = Duration::from_secs(5);
/// Span records kept per coroutine for the span file.
const SPAN_RECORDS: usize = 256;
/// The sequence number at which a planted defect fires.
const PLANT_SEQ: u32 = 2;
/// The last client's end-of-stream marker.
const SENTINEL: u64 = u64::MAX;

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

struct Shared {
    admission: Semaphore,
    pool: QueuePool<u32>,
    channel: CqsChannel<u64>,
    phase: AtomicU8,
    /// Requests served since start, warm-up included.
    served: AtomicU64,
    clients_left: AtomicUsize,
    trace: bool,
    plant: Plant,
    /// The client that plants the defect (one that never gives up).
    planter: usize,
    hists: Arc<Hists>,
    clients: Mutex<Vec<ClientOut>>,
    collector: Mutex<Option<CollectorOut>>,
}

struct ClientOut {
    id: usize,
    sent: u32,
    served: u64,
    latencies: Latencies,
    checks: Checks,
    tracer: Tracer,
}

struct CollectorOut {
    /// Next expected sequence number per client.
    next: Vec<u32>,
    checks: Checks,
    tracer: Tracer,
    gauges: Gauges,
}

/// Wakes a coroutine from a `std::task::Waker` (channel futures), stamping
/// the wake-up time in traced runs.
struct WakeCoroutine {
    waker: CoroWaker,
    stamp: Option<Arc<AtomicU64>>,
}

impl Wake for WakeCoroutine {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref()
    }
    fn wake_by_ref(self: &Arc<Self>) {
        if let Some(stamp) = &self.stamp {
            stamp.store(now_ns(), Ordering::Release);
        }
        self.waker.wake()
    }
}

fn std_waker(waker: &CoroWaker, stamp: &Arc<AtomicU64>, trace: bool) -> Waker {
    Waker::from(Arc::new(WakeCoroutine {
        waker: waker.clone(),
        stamp: trace.then(|| Arc::clone(stamp)),
    }))
}

/// Reads and clears the wake-up stamp, recording wake-to-run time.
fn woke(stamp: &AtomicU64, hists: &Hists) -> u64 {
    let at = stamp.swap(0, Ordering::Acquire);
    if at != 0 {
        hists.wake_to_run.record(now_ns().saturating_sub(at));
    }
    at
}

enum State {
    Idle,
    Admitting(CqsFuture<()>),
    Taking(CqsFuture<u32>),
    Io(u32),
    Working(u32),
    Sending(ChannelSend<u64>),
    Closing(ChannelSend<u64>),
}

struct Client {
    id: usize,
    shared: Arc<Shared>,
    rng: Rng,
    gives_up: bool,
    state: State,
    seq: u32,
    sent: u32,
    served: u64,
    started_at: u64,
    measured: bool,
    parked_at: u64,
    stamp: Arc<AtomicU64>,
    latencies: Latencies,
    checks: Checks,
    tracer: Tracer,
}

impl Coroutine for Client {
    fn step(&mut self, waker: &CoroWaker) -> CoroStep {
        self.tracer.event(Event::Step);
        let woke_at = if self.shared.trace {
            woke(&self.stamp, &self.shared.hists)
        } else {
            0
        };
        loop {
            let next = match std::mem::replace(&mut self.state, State::Idle) {
                State::Idle => self.start(waker),
                State::Admitting(f) => self.admitted(f, woke_at, waker),
                State::Taking(f) => self.took(f, woke_at, waker),
                State::Io(conn) => {
                    self.state = State::Working(conn);
                    Some(CoroStep::Yield)
                }
                State::Working(conn) => self.respond(conn, waker),
                State::Sending(send) => self.poll_send(send, waker),
                State::Closing(send) => Some(self.poll_close(send, waker)),
            };
            if let Some(step) = next {
                return step;
            }
        }
    }
}

impl Client {
    fn new(id: usize, shared: &Arc<Shared>, seed: u64, gives_up: bool) -> Self {
        Client {
            id,
            shared: Arc::clone(shared),
            rng: Rng::new(seed, 0x434C_0000 + id as u64),
            gives_up,
            state: State::Idle,
            seq: 0,
            sent: 0,
            served: 0,
            started_at: 0,
            measured: false,
            parked_at: 0,
            stamp: Arc::new(AtomicU64::new(0)),
            latencies: Latencies::default(),
            checks: Checks::default(),
            tracer: Tracer::new(shared.trace, SPAN_RECORDS),
        }
    }

    fn start(&mut self, waker: &CoroWaker) -> Option<CoroStep> {
        match self.shared.phase.load(Ordering::SeqCst) {
            STOP => return Some(self.finish(waker)),
            phase => self.measured = phase == MEASURE,
        }
        self.started_at = now_ns();
        self.checks.attempted += 1;
        self.tracer.set_request(self.id as u32, self.seq);
        self.tracer.open(Span::Request);
        let f = self
            .tracer
            .call(Span::SyncAcquire, || self.shared.admission.acquire());
        if f.is_immediate() {
            return self.take(waker);
        }
        self.tracer.event(Event::AcquireSuspended);
        Some(self.park(f, State::Admitting, waker))
    }

    /// Arms a wake-up on `f` and suspends the coroutine.
    fn park<V>(
        &mut self,
        f: CqsFuture<V>,
        state: fn(CqsFuture<V>) -> State,
        waker: &CoroWaker,
    ) -> CoroStep {
        let stamp = self.shared.trace.then(|| Arc::clone(&self.stamp));
        if stamp.is_some() {
            self.parked_at = now_ns();
        }
        let waker = waker.clone();
        self.tracer.call(Span::FutureOnReady, || {
            f.on_ready(move || {
                if let Some(stamp) = stamp {
                    stamp.store(now_ns(), Ordering::Release);
                }
                waker.wake()
            })
        });
        self.state = state(f);
        CoroStep::Pending
    }

    fn record_wait(&self, woke_at: u64, pool: bool) {
        if woke_at != 0 {
            let hists = &self.shared.hists;
            let hist = if pool {
                &hists.pool_wait
            } else {
                &hists.sync_wait
            };
            hist.record(woke_at.saturating_sub(self.parked_at));
        }
    }

    /// Ends the current request without a response.
    fn abandon(&mut self) -> Option<CoroStep> {
        self.tracer.close();
        self.state = State::Idle;
        None
    }

    fn admitted(
        &mut self,
        mut f: CqsFuture<()>,
        woke_at: u64,
        waker: &CoroWaker,
    ) -> Option<CoroStep> {
        match self.tracer.call(Span::FutureTake, || f.try_get()) {
            FutureState::Ready(()) => {
                self.record_wait(woke_at, false);
                self.take(waker)
            }
            FutureState::Pending => Some(self.park(f, State::Admitting, waker)),
            FutureState::Cancelled => {
                self.checks.fail(1, "an admission acquire was cancelled");
                self.abandon()
            }
        }
    }

    fn take(&mut self, waker: &CoroWaker) -> Option<CoroStep> {
        let mut f = self.tracer.call(Span::PoolTake, || self.shared.pool.take());
        if !f.is_immediate() {
            self.tracer.event(Event::TakeSuspended);
            if !self.gives_up {
                return Some(self.park(f, State::Taking, waker));
            }
            if self.tracer.call(Span::PoolCancel, || f.cancel()) {
                self.tracer.event(Event::TakeAborted);
                self.tracer
                    .call(Span::SyncRelease, || self.shared.admission.release());
                self.abandon();
                return Some(CoroStep::Yield);
            }
            // The cancel lost to a put: the connection is ours.
        }
        match f.try_get() {
            FutureState::Ready(conn) => self.state = State::Io(conn),
            _ => {
                self.checks.fail(1, "a completed take had no connection");
                self.tracer
                    .call(Span::SyncRelease, || self.shared.admission.release());
                return self.abandon();
            }
        }
        None
    }

    fn took(&mut self, mut f: CqsFuture<u32>, woke_at: u64, waker: &CoroWaker) -> Option<CoroStep> {
        match self.tracer.call(Span::FutureTake, || f.try_get()) {
            FutureState::Ready(conn) => {
                self.record_wait(woke_at, true);
                self.state = State::Io(conn);
                None
            }
            FutureState::Pending => Some(self.park(f, State::Taking, waker)),
            FutureState::Cancelled => {
                self.checks.fail(1, "a connection take was cancelled");
                self.tracer
                    .call(Span::SyncRelease, || self.shared.admission.release());
                self.abandon()
            }
        }
    }

    fn respond(&mut self, conn: u32, waker: &CoroWaker) -> Option<CoroStep> {
        work(self.rng.geometric(WORK_MEAN));
        let shared = &self.shared;
        self.tracer.call(Span::PoolPut, || shared.pool.put(conn));
        self.tracer
            .call(Span::SyncRelease, || shared.admission.release());
        let planted = self.id == shared.planter && self.seq == PLANT_SEQ;
        if planted && shared.plant == Plant::ExtraRelease {
            shared.admission.release();
        }
        if planted && self.shared.plant == Plant::DropResponse {
            return self.delivered();
        }
        let response = (self.id as u64) << 32 | self.seq as u64;
        let send = self
            .tracer
            .call(Span::ChannelSend, || self.shared.channel.send(response));
        if send.is_immediate() {
            return self.delivered();
        }
        self.tracer.event(Event::SendBlocked);
        self.poll_send(send, waker)
    }

    fn poll_send(&mut self, mut send: ChannelSend<u64>, waker: &CoroWaker) -> Option<CoroStep> {
        let std_waker = std_waker(waker, &self.stamp, self.shared.trace);
        match Pin::new(&mut send).poll(&mut Context::from_waker(&std_waker)) {
            Poll::Ready(Ok(())) => self.delivered(),
            Poll::Ready(Err(_)) => {
                self.checks.fail(1, "a response send failed");
                self.abandon()
            }
            Poll::Pending => {
                self.state = State::Sending(send);
                Some(CoroStep::Pending)
            }
        }
    }

    fn delivered(&mut self) -> Option<CoroStep> {
        let end = now_ns();
        self.seq += 1;
        self.sent += 1;
        if self.measured && self.shared.phase.load(Ordering::Relaxed) == MEASURE {
            self.latencies.push((end - self.started_at) as f64);
            self.served += 1;
        }
        self.shared.served.fetch_add(1, Ordering::Relaxed);
        self.tracer.close();
        None
    }

    fn finish(&mut self, waker: &CoroWaker) -> CoroStep {
        self.shared
            .clients
            .lock()
            .expect("a client panicked while reporting")
            .push(ClientOut {
                id: self.id,
                sent: self.sent,
                served: self.served,
                latencies: std::mem::take(&mut self.latencies),
                checks: std::mem::take(&mut self.checks),
                tracer: std::mem::replace(&mut self.tracer, Tracer::off()),
            });
        if self.shared.clients_left.fetch_sub(1, Ordering::SeqCst) != 1 {
            return CoroStep::Done;
        }
        let send = self.shared.channel.send(SENTINEL);
        self.poll_close(send, waker)
    }

    /// Sends the end-of-stream marker (the last client to finish).
    fn poll_close(&mut self, mut send: ChannelSend<u64>, waker: &CoroWaker) -> CoroStep {
        let std_waker = std_waker(waker, &self.stamp, false);
        match Pin::new(&mut send).poll(&mut Context::from_waker(&std_waker)) {
            Poll::Ready(Ok(())) => CoroStep::Done,
            Poll::Ready(Err(_)) => panic!("the end-of-stream send failed"),
            Poll::Pending => {
                self.state = State::Closing(send);
                CoroStep::Pending
            }
        }
    }
}

struct Collector {
    shared: Arc<Shared>,
    pending: Option<ChannelRecv<u64>>,
    received: u64,
    stamp: Arc<AtomicU64>,
    out: Option<CollectorOut>,
}

impl Collector {
    fn accept(&mut self, response: u64) {
        let out = self.out.as_mut().expect("collector still running");
        let (client, seq) = ((response >> 32) as usize, response as u32);
        self.received += 1;
        if self.shared.trace && self.received.is_multiple_of(1024) {
            let shared = &self.shared;
            out.gauges
                .sample(shared.admission.live_segments() + shared.pool.live_segments());
        }
        match out.next.get_mut(client) {
            None => out.checks.fail(1, "a response from an unknown client"),
            Some(next) if seq == *next => *next += 1,
            Some(next) if seq < *next => out.checks.fail(1, "a duplicated response"),
            Some(next) => {
                out.checks.fail((seq - *next) as u64, "a lost response");
                *next = seq + 1;
            }
        }
    }

    /// Takes whatever is still buffered after the end-of-stream marker.
    fn drain(&mut self) {
        loop {
            let mut r = self.shared.channel.receive();
            if !r.is_immediate() && r.cancel() {
                return;
            }
            match r.try_get() {
                FutureState::Ready(response) => self.accept(response),
                _ => return,
            }
        }
    }
}

impl Coroutine for Collector {
    fn step(&mut self, waker: &CoroWaker) -> CoroStep {
        let out = self.out.as_mut().expect("collector still running");
        out.tracer.event(Event::Step);
        if self.shared.trace {
            woke(&self.stamp, &self.shared.hists);
        }
        let std_waker = std_waker(waker, &self.stamp, self.shared.trace);
        let mut cx = Context::from_waker(&std_waker);
        loop {
            let mut r = match self.pending.take() {
                Some(r) => r,
                None => {
                    let out = self.out.as_mut().expect("collector still running");
                    let channel = &self.shared.channel;
                    out.tracer.call(Span::ChannelRecv, || channel.receive())
                }
            };
            match Pin::new(&mut r).poll(&mut cx) {
                Poll::Ready(Ok(SENTINEL)) => {
                    self.drain();
                    let out = self.out.take().expect("collector still running");
                    *self.shared.collector.lock().expect("reporting") = Some(out);
                    return CoroStep::Done;
                }
                Poll::Ready(Ok(response)) => self.accept(response),
                Poll::Ready(Err(_)) => panic!("the response channel failed"),
                Poll::Pending => {
                    self.pending = Some(r);
                    return CoroStep::Pending;
                }
            }
        }
    }
}

/// One set-up: the primitives, the executor and its coroutines, warmed up.
struct Running {
    shared: Arc<Shared>,
    executor: Executor,
}

/// Polls `done` until it holds or `deadline` passes.
fn wait_until(deadline: Instant, done: impl Fn() -> bool) -> bool {
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

fn start(config: &Config, checks: &mut Checks) -> Running {
    let mut rng = Rng::new(config.seed, 0x5345_5256);
    let mut gives_up: Vec<bool> = (0..CLIENTS)
        .map(|i| i < CLIENTS * GIVE_UP_PERMILLE / 1000)
        .collect();
    rng.shuffle(&mut gives_up);
    let pool = QueuePool::new();
    pool.put_many(0..CONNECTIONS);
    let shared = Arc::new(Shared {
        admission: Semaphore::new(ADMISSION_PERMITS),
        pool,
        channel: CqsChannel::bounded(CHANNEL_CAPACITY),
        phase: AtomicU8::new(WARMUP),
        served: AtomicU64::new(0),
        clients_left: AtomicUsize::new(CLIENTS),
        trace: config.trace,
        plant: config.plant,
        planter: gives_up.iter().position(|g| !g).expect("most clients stay"),
        hists: Arc::default(),
        clients: Mutex::new(Vec::with_capacity(CLIENTS)),
        collector: Mutex::new(None),
    });
    let executor = Executor::new(CARRIERS);
    executor.spawn(Collector {
        shared: Arc::clone(&shared),
        pending: None,
        received: 0,
        stamp: Arc::new(AtomicU64::new(0)),
        out: Some(CollectorOut {
            next: vec![0; CLIENTS],
            checks: Checks::default(),
            tracer: Tracer::new(config.trace, SPAN_RECORDS),
            gauges: Gauges::default(),
        }),
    });
    for (id, &gives_up) in gives_up.iter().enumerate() {
        executor.spawn(Client::new(id, &shared, config.seed, gives_up));
    }
    let deadline = Instant::now() + HANG_DEADLINE;
    if !wait_until(deadline, || {
        shared.served.load(Ordering::Relaxed) >= WARMUP_REQUESTS
    }) {
        checks.fail(1, "hang deadline: warm-up never completed");
    }
    Running { shared, executor }
}

/// Everything the coroutines reported once stopped and checked.
struct Stopped {
    clients: Vec<ClientOut>,
    collector: Option<CollectorOut>,
}

/// Stops the clients, waits for every coroutine to finish, and runs the
/// exactly-once and conservation checks.
fn stop(running: Running, checks: &mut Checks) -> Stopped {
    let Running { shared, executor } = running;
    shared.phase.store(STOP, Ordering::SeqCst);
    let drained = wait_until(Instant::now() + HANG_DEADLINE, || {
        executor.live_count() == 0
    });
    if !drained {
        checks.fail(
            executor.live_count() as u64,
            "hang deadline: coroutines never finished (a lost wake-up?)",
        );
    }
    if executor.panic_count() > 0 {
        checks.fail(executor.panic_count() as u64, "a coroutine panicked");
    }
    drop(executor);
    let mut clients = std::mem::take(&mut *shared.clients.lock().expect("clients reported"));
    clients.sort_by_key(|c| c.id);
    let collector = shared.collector.lock().expect("collector reported").take();
    for c in &mut clients {
        checks.absorb(std::mem::take(&mut c.checks));
    }
    if let Some(collector) = &collector {
        for c in &clients {
            let received = collector.next[c.id];
            if received != c.sent {
                checks.fail(
                    c.sent.abs_diff(received) as u64,
                    "responses sent and received differ",
                );
            }
        }
    }
    if drained {
        let admission = &shared.admission;
        if admission.available_permits() != ADMISSION_PERMITS || admission.waiting() != 0 {
            checks.fail(1, "admission permits not all returned");
        }
        if shared.pool.waiting_takers() != 0 {
            checks.fail(1, "connection takers still parked");
        }
        let mut conns: Vec<u32> = (0..shared.pool.len())
            .filter_map(|_| match shared.pool.take().try_get() {
                FutureState::Ready(conn) => Some(conn),
                _ => None,
            })
            .collect();
        conns.sort_unstable();
        if conns != (0..CONNECTIONS).collect::<Vec<_>>() {
            checks.fail(1, "connections lost or duplicated");
        }
    }
    Stopped { clients, collector }
}

pub(crate) fn run(config: &Config) -> Report {
    let mut checks = Checks::default();
    let ramp = ramp(config.seed, &mut checks, &mut Tracer::off());
    let (running, setup_s) = set_up(
        SETUP_REPS,
        &mut checks,
        |checks| start(config, checks),
        |running, checks| {
            stop(running, checks);
        },
    );
    let shared = Arc::clone(&running.shared);
    let phase_start = PhaseStart::now();
    shared.phase.store(MEASURE, Ordering::SeqCst);
    let served_before = shared.served.load(Ordering::Relaxed);
    match config.budget {
        Budget::Seconds(s) => std::thread::sleep(Duration::from_secs_f64(s)),
        Budget::Ops(n) => {
            if !wait_until(Instant::now() + HANG_DEADLINE, || {
                shared.served.load(Ordering::Relaxed) - served_before >= n
            }) {
                checks.fail(1, "hang deadline: the ops budget was never reached");
            }
        }
    }
    let mut phase: Phase = phase_start.finish(0, 0);
    let stopped = stop(running, &mut checks);
    let mut latencies = Latencies::default();
    let mut tracers = Vec::with_capacity(CLIENTS + 2);
    for c in stopped.clients {
        phase.ops += c.served;
        latencies.0.extend_from_slice(&c.latencies.0);
        tracers.push(c.tracer);
    }
    let mut gauges = Gauges::default();
    if let Some(collector) = stopped.collector {
        checks.absorb(collector.checks);
        tracers.push(collector.tracer);
        gauges = collector.gauges;
    }
    let mut main_tracer = Tracer::new(config.trace, 4);
    if config.trace {
        gauges.flush(&mut main_tracer);
    }
    tracers.push(main_tracer);
    report(Outcome {
        checks,
        setup_s,
        phase,
        latencies,
        rss_per_waiter_b: ramp.rss_per_waiter_b,
        tracers,
        hists: Arc::clone(&shared.hists),
        gauges,
    })
}
