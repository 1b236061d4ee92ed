//! Spans around the benchmark's calls into the library, kept in memory.
//!
//! Each [`Tracer`] belongs to one thread of control (the single-threaded
//! workload loop, or one coroutine), so recording takes no lock. A span's self
//! time is its duration minus the part its child spans cover. Totals per
//! span name are exact; the individual records are kept only up to a
//! preallocated capacity and written out when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::now_ns;

/// Span names: `<layer>.<fn>` for library calls, plus the benchmark's own
/// root spans (`burst`, `request`) that parent them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// One `handoff`/`abort-churn` burst.
    Burst,
    /// One service request, from admission to the accepted response.
    Request,
    SyncAcquire,
    SyncRelease,
    SyncCancel,
    FutureTake,
    FutureOnReady,
    PoolTake,
    PoolPut,
    PoolCancel,
    ChannelSend,
    ChannelRecv,
    ShardedAcquire,
    ShardedRelease,
    ShardedTake,
    ShardedPut,
    ReclaimFlush,
}

const SPANS: usize = 17;

impl Span {
    /// The span's name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Span::Burst => "burst",
            Span::Request => "request",
            Span::SyncAcquire => "sync.acquire",
            Span::SyncRelease => "sync.release",
            Span::SyncCancel => "sync.cancel",
            Span::FutureTake => "future.take",
            Span::FutureOnReady => "future.on_ready",
            Span::PoolTake => "pool.take",
            Span::PoolPut => "pool.put",
            Span::PoolCancel => "pool.cancel",
            Span::ChannelSend => "channel.send",
            Span::ChannelRecv => "channel.recv",
            Span::ShardedAcquire => "sharded.acquire",
            Span::ShardedRelease => "sharded.release",
            Span::ShardedTake => "sharded.take",
            Span::ShardedPut => "sharded.put",
            Span::ReclaimFlush => "reclaim.flush",
        }
    }
}

/// Outcomes counted where they happen, the numerators of the ratios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// An acquire returned a pending future.
    AcquireSuspended,
    /// A `cancel()` on a waiter won.
    CancelWon,
    /// A take returned a pending future.
    TakeSuspended,
    /// A pending take was given up with a winning `cancel()`.
    TakeAborted,
    /// A send had to wait for channel capacity.
    SendBlocked,
    /// A coroutine step.
    Step,
}

const EVENTS: usize = 6;

/// Exact totals for one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus child spans.
    pub self_ns: u64,
}

/// One recorded span. `parent` indexes the same tracer's records
/// (`u32::MAX` for a root or an unrecorded parent); `request` is the
/// client id in the high half and its sequence number in the low half.
#[derive(Clone, Copy, Debug)]
struct Record {
    span: Span,
    parent: u32,
    request: u64,
    start: u64,
    end: u64,
}

#[derive(Debug)]
struct Open {
    span: Span,
    record: u32,
    start: u64,
    child_ns: u64,
}

/// Span recorder for one thread of control; inert when created off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    request: u64,
    stack: Vec<Open>,
    totals: [Totals; SPANS],
    events: [u64; EVENTS],
    records: Vec<Record>,
}

impl Tracer {
    /// A tracer keeping up to `capacity` span records (allocated now).
    pub fn new(on: bool, capacity: usize) -> Tracer {
        Tracer {
            on,
            request: 0,
            stack: Vec::with_capacity(if on { 8 } else { 0 }),
            totals: [Totals::default(); SPANS],
            events: [0; EVENTS],
            records: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, 0)
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with a request id.
    pub fn set_request(&mut self, client: u32, seq: u32) {
        self.request = (client as u64) << 32 | seq as u64;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn call<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open(span);
        let result = f();
        self.close();
        result
    }

    /// Opens a span; the matching [`close`](Self::close) ends it.
    pub fn open(&mut self, span: Span) {
        if !self.on {
            return;
        }
        let start = now_ns();
        let record = if self.records.len() < self.records.capacity() {
            self.records.push(Record {
                span,
                parent: self.stack.last().map_or(u32::MAX, |p| p.record),
                request: self.request,
                start,
                end: start,
            });
            (self.records.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(Open {
            span,
            record,
            start,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = now_ns();
        let open = self.stack.pop().expect("close without open");
        let duration = end - open.start;
        let totals = &mut self.totals[open.span as usize];
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(record) = self.records.get_mut(open.record as usize) {
            record.end = end;
        }
    }

    /// Counts an outcome.
    #[inline]
    pub fn event(&mut self, event: Event) {
        if self.on {
            self.events[event as usize] += 1;
        }
    }

    /// Totals for one span name.
    pub fn totals(&self, span: Span) -> Totals {
        self.totals[span as usize]
    }

    /// How often an outcome was counted.
    pub fn events(&self, event: Event) -> u64 {
        self.events[event as usize]
    }

    /// Self time summed over `spans`.
    pub fn self_ns_of(&self, spans: &[Span]) -> u64 {
        spans.iter().map(|&s| self.totals(s).self_ns).sum()
    }

    /// Adds another tracer's totals and events to this one's.
    pub fn absorb(&mut self, other: &Tracer) {
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals.iter()) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
        }
        for (mine, theirs) in self.events.iter_mut().zip(other.events.iter()) {
            *mine += theirs;
        }
    }
}

/// Writes every tracer's records as CSV:
/// `tracer,index,parent,span,client,seq,start_ns,end_ns`.
pub fn write_spans(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "tracer,index,parent,span,client,seq,start_ns,end_ns")?;
    for (t, tracer) in tracers.iter().enumerate() {
        for (i, r) in tracer.records.iter().enumerate() {
            let parent = match r.parent {
                u32::MAX => String::new(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{t},{i},{parent},{},{},{},{},{}",
                r.span.name(),
                r.request >> 32,
                r.request as u32,
                r.start,
                r.end
            )?;
        }
    }
    out.flush()
}

/// Log-linear histogram of nanosecond durations (32 sub-buckets per power
/// of two, so a quantile is within about 3%). Shared between threads.
#[derive(Debug)]
pub struct Hist {
    buckets: Box<[AtomicU64]>,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: (0..(64 - SUB_BITS as usize + 1) * SUB as usize)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    fn midpoint(index: usize) -> f64 {
        let index = index as u64;
        if index < SUB {
            return index as f64;
        }
        let exp = (index / SUB) as u32 + SUB_BITS - 1;
        let width = 1u64 << (exp - SUB_BITS);
        ((SUB + index % SUB) * width) as f64 + width as f64 / 2.0
    }

    /// Records one duration.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Durations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Nearest-rank quantile (bucket midpoint), 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::midpoint(i);
            }
        }
        unreachable!("rank is at most the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, 4);
        t.open(Span::Burst);
        t.call(Span::SyncAcquire, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let burst = t.totals(Span::Burst);
        let acquire = t.totals(Span::SyncAcquire);
        assert_eq!(burst.total_ns, burst.self_ns + acquire.total_ns);
        assert!(acquire.self_ns >= 2_000_000);
        assert_eq!(t.records[1].parent, 0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let h = Hist::default();
        for ns in 1..=10_000u64 {
            h.record(ns * 100);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.04, "{p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.04, "{p99}");
        for ns in [0, 1, 31, 32, 33, 1 << 20, u64::MAX] {
            let mid = Hist::midpoint(Hist::index(ns));
            assert!(
                ns < 32 || (mid - ns as f64).abs() / ns as f64 <= 1.0 / 32.0,
                "{ns}"
            );
        }
    }
}
