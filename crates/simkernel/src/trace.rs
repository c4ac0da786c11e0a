//! End-to-end operation tracing with per-phase latency attribution.
//!
//! The paper's pitch is that a safe-language framework buys kernel file
//! systems userspace-grade debuggability without giving up performance
//! (§1, §4.9).  This module is that debuggability layer for the simulated
//! kernel: every logical operation (a load-generator op or a bare VFS
//! syscall) can carry a **span**, and the instrumented wait points across
//! the stack — namespace-lock waits ([`crate::nslock`]), journal
//! reservation/staging/commit waits (`crates/journal`), and block-device
//! service/backpressure time ([`crate::dev`], [`crate::queue`]) — attribute
//! their elapsed time to the span as **phases** ([`Phase`]).  A finished
//! span becomes a [`SpanRecord`]: total latency plus an exclusive-time
//! breakdown, so a p99 stops being a number and becomes "61% commit-wait,
//! 24% device".
//!
//! # Design
//!
//! * **Always compiled in, nearly free when off.**  Tracing is gated by one
//!   process-global counter; the disabled path of every hook is a single
//!   `Relaxed` atomic load and an early return ([`enabled`]).  The bound is
//!   CI-gated (see [`disabled_hook_cost_ns`] and the `load` experiment).
//! * **Thread-local spans, exclusive-time phases.**  A span lives in
//!   thread-local state; phase guards are strictly LIFO (RAII), and time is
//!   attributed to the *innermost* active phase.  Device I/O performed
//!   inside a group commit therefore counts as [`Phase::DevIo`], and the
//!   commit wait only keeps its non-device remainder — the per-phase sums
//!   never double-count, so `sum(phases) <= total` holds by construction
//!   and the un-instrumented remainder (`total - sum`) is reportable as
//!   "other".
//! * **Per-thread rings, global epoch.**  Finished records are pushed into
//!   a per-thread ring buffer (bounded, drop-oldest) registered in a global
//!   list, drainable with [`drain`].  [`reset`] bumps a global epoch:
//!   records from spans opened before the reset are discarded at finish, so
//!   consecutive measurement windows never bleed into each other.  (This
//!   crate forbids `unsafe`, so the rings are short-critical-section
//!   mutexed deques — uncontended except at drain time — rather than
//!   literal lock-free buffers; the *hot* disabled path is still just the
//!   one atomic load.)
//!
//! # Example
//!
//! ```
//! use simkernel::trace::{self, Phase};
//!
//! let _trace = trace::enable();
//! let span = trace::op_span("create");
//! {
//!     let _p = trace::phase(Phase::NsLock);
//!     // ... wait for the directory lock ...
//! }
//! let record = span.finish().expect("tracing is enabled");
//! assert_eq!(record.class, "create");
//! assert_eq!(record.phase_counts[Phase::NsLock.index()], 1);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// The instrumented wait/work phases an operation can pass through, in
/// stack order from the top (VFS) to the bottom (device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Waiting on a per-directory namespace lock ([`crate::nslock`]).
    NsLock,
    /// Waiting in the journal's `begin_op` for log-space reservation.
    LogReserve,
    /// Staging blocks into the journal's in-memory transaction
    /// (`log_write`).
    LogStage,
    /// Waiting for — or performing the non-I/O part of — a group commit,
    /// flush, or recovery replay.
    CommitWait,
    /// Block-device time: service cost and submission-queue backpressure
    /// waits ([`crate::dev`], [`crate::queue`]).
    DevIo,
}

impl Phase {
    /// Number of distinct phases.
    pub const COUNT: usize = 5;

    /// All phases, in reporting order.
    pub const ALL: [Phase; Phase::COUNT] =
        [Phase::NsLock, Phase::LogReserve, Phase::LogStage, Phase::CommitWait, Phase::DevIo];

    /// Stable label used in BENCH rows and drained traces.
    pub fn label(self) -> &'static str {
        match self {
            Phase::NsLock => "nslock",
            Phase::LogReserve => "log-reserve",
            Phase::LogStage => "log-stage",
            Phase::CommitWait => "commit-wait",
            Phase::DevIo => "dev-io",
        }
    }

    /// Index into the per-phase arrays of a [`SpanRecord`].
    pub fn index(self) -> usize {
        match self {
            Phase::NsLock => 0,
            Phase::LogReserve => 1,
            Phase::LogStage => 2,
            Phase::CommitWait => 3,
            Phase::DevIo => 4,
        }
    }
}

/// One finished span: a logical operation's end-to-end latency plus the
/// exclusive-time phase breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique operation id (monotone, assigned at span open).
    pub op_id: u64,
    /// Operation class label (an [`crate::vfs`] syscall name or a workload
    /// op-class label such as `"fsync"`).
    pub class: &'static str,
    /// The trace epoch this span was recorded under (see [`reset`]).
    pub epoch: u64,
    /// End-to-end wall time of the operation in nanoseconds.
    pub total_ns: u64,
    /// Exclusive nanoseconds attributed to each phase, indexed by
    /// [`Phase::index`].
    pub phase_ns: [u64; Phase::COUNT],
    /// How many times each phase was entered, indexed by [`Phase::index`].
    pub phase_counts: [u32; Phase::COUNT],
}

impl SpanRecord {
    /// Sum of the per-phase exclusive times (never exceeds
    /// [`SpanRecord::total_ns`] by construction, modulo clock granularity).
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Nanoseconds not attributed to any instrumented phase (path
    /// resolution, page-cache copies, driver bookkeeping).
    pub fn other_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.attributed_ns())
    }
}

/// Capacity of each per-thread ring; oldest records are dropped (and
/// counted, see [`dropped`]) once a thread outruns the drainer.
const RING_CAPACITY: usize = 4096;

/// Count of [`enable`] guards currently alive; tracing is on while nonzero.
static ENABLED: AtomicU64 = AtomicU64::new(0);
/// Global epoch; bumped by [`reset`] to invalidate in-flight spans.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Monotone operation-id source.
static NEXT_OP_ID: AtomicU64 = AtomicU64::new(1);

/// A per-thread ring of finished records, registered in [`rings`].
///
/// Each ring keeps its own overflow counter, so a drop storm can be
/// attributed to the thread that outran the drainer instead of vanishing
/// into a process-wide total.
struct SpanRing {
    records: Mutex<VecDeque<SpanRecord>>,
    /// Records this ring dropped to overflow since the last [`reset`].
    dropped: AtomicU64,
}

fn rings() -> &'static Mutex<Vec<Arc<SpanRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<SpanRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The span under construction on this thread.
struct ActiveSpan {
    op_id: u64,
    class: &'static str,
    epoch: u64,
    start: Instant,
    /// Instant attribution last switched phases.
    last_mark: Instant,
    /// Innermost-last stack of open phases.
    stack: Vec<Phase>,
    phase_ns: [u64; Phase::COUNT],
    phase_counts: [u32; Phase::COUNT],
}

struct Tls {
    active: Option<ActiveSpan>,
    ring: Option<Arc<SpanRing>>,
}

thread_local! {
    static TLS: RefCell<Tls> = const { RefCell::new(Tls { active: None, ring: None }) };
}

/// Whether tracing is currently enabled.  This is the entire disabled-path
/// cost of every hook: one `Relaxed` atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// RAII guard returned by [`enable`]; tracing stays on while any guard is
/// alive (guards nest — the flag is a counter, so concurrent measurement
/// windows cannot switch each other off).
#[derive(Debug)]
pub struct TraceGuard(());

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ENABLED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Turns tracing on until the returned guard is dropped.
#[must_use = "tracing turns back off when the guard drops"]
pub fn enable() -> TraceGuard {
    ENABLED.fetch_add(1, Ordering::Relaxed);
    TraceGuard(())
}

/// The current trace epoch (see [`reset`]).
pub fn epoch() -> u64 {
    EPOCH.load(Ordering::Relaxed)
}

/// Starts a new measurement window: bumps the global epoch (spans already
/// in flight are discarded when they finish), clears every ring, and zeroes
/// the overflow counter.
pub fn reset() {
    EPOCH.fetch_add(1, Ordering::Relaxed);
    for ring in rings().lock().iter() {
        ring.records.lock().clear();
        ring.dropped.store(0, Ordering::Relaxed);
    }
}

/// Records dropped to per-thread ring overflow since the last [`reset`]
/// (the sum of [`dropped_per_thread`]).
pub fn dropped() -> u64 {
    rings().lock().iter().map(|r| r.dropped.load(Ordering::Relaxed)).sum()
}

/// Per-thread drop counts since the last [`reset`], one entry per
/// registered ring (threads that never finished a span have no ring).
/// Ring order is registration order and stable for the process lifetime.
pub fn dropped_per_thread() -> Vec<u64> {
    rings().lock().iter().map(|r| r.dropped.load(Ordering::Relaxed)).collect()
}

/// Drains every thread's ring, returning all records finished under the
/// current epoch (oldest first per thread).
pub fn drain() -> Vec<SpanRecord> {
    let now = epoch();
    let mut out = Vec::new();
    for ring in rings().lock().iter() {
        out.extend(ring.records.lock().drain(..).filter(|r| r.epoch == now));
    }
    out
}

/// Drains every ring and returns only the `k` slowest records by total
/// latency, slowest first — the flight-recorder shape: on an alert, grab
/// the tail evidence without hauling the whole ring into the incident.
pub fn drain_slowest(k: usize) -> Vec<SpanRecord> {
    let mut all = drain();
    all.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    all.truncate(k);
    all
}

/// Keeps `rec` in `slowest` — at most `k` records, slowest first — when it
/// is among the `k` slowest seen so far: the running form of
/// [`drain_slowest`], for callers that watch spans go by.
pub fn keep_slowest(slowest: &mut Vec<SpanRecord>, rec: SpanRecord, k: usize) {
    if slowest.len() < k {
        slowest.push(rec);
    } else if slowest.last().is_some_and(|tail| rec.total_ns > tail.total_ns) {
        slowest.pop();
        slowest.push(rec);
    } else {
        return;
    }
    slowest.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
}

/// RAII root span for one logical operation.  Inert (all methods no-ops)
/// when tracing is disabled or another span is already active on this
/// thread — nested spans attribute to the outermost one, so a load
/// generator's per-op span subsumes the VFS syscall spans underneath it.
#[derive(Debug)]
pub struct OpSpan {
    armed: bool,
}

/// Opens a span for one logical operation of the given class.
pub fn op_span(class: &'static str) -> OpSpan {
    if !enabled() {
        return OpSpan { armed: false };
    }
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        if tls.active.is_some() {
            return OpSpan { armed: false };
        }
        let now = Instant::now();
        tls.active = Some(ActiveSpan {
            op_id: NEXT_OP_ID.fetch_add(1, Ordering::Relaxed),
            class,
            epoch: epoch(),
            start: now,
            last_mark: now,
            stack: Vec::new(),
            phase_ns: [0; Phase::COUNT],
            phase_counts: [0; Phase::COUNT],
        });
        OpSpan { armed: true }
    })
}

impl OpSpan {
    /// Whether this guard actually opened a span (tracing was enabled and
    /// no span was already active on this thread).
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Finishes the span, pushing the record into this thread's ring and
    /// returning it.  Returns `None` if the span was inert or the epoch
    /// changed mid-span ([`reset`] ran).
    pub fn finish(mut self) -> Option<SpanRecord> {
        self.finish_impl(None)
    }

    /// Like [`OpSpan::finish`] but relabels the record — for callers (the
    /// load generator) that only learn the op class after the op ran.
    pub fn finish_as(mut self, class: &'static str) -> Option<SpanRecord> {
        self.finish_impl(Some(class))
    }

    /// Discards the span without recording it (failed/aborted operations).
    pub fn cancel(mut self) {
        if self.armed {
            self.armed = false;
            TLS.with(|tls| tls.borrow_mut().active = None);
        }
    }

    fn finish_impl(&mut self, class: Option<&'static str>) -> Option<SpanRecord> {
        if !self.armed {
            return None;
        }
        self.armed = false;
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let mut span = tls.active.take()?;
            // Close any phase a panicking callee failed to unwind cleanly;
            // exclusive attribution still holds.
            let now = Instant::now();
            if let Some(&inner) = span.stack.last() {
                span.phase_ns[inner.index()] +=
                    now.duration_since(span.last_mark).as_nanos() as u64;
                span.stack.clear();
            }
            if span.epoch != epoch() {
                return None;
            }
            let record = SpanRecord {
                op_id: span.op_id,
                class: class.unwrap_or(span.class),
                epoch: span.epoch,
                total_ns: now.duration_since(span.start).as_nanos() as u64,
                phase_ns: span.phase_ns,
                phase_counts: span.phase_counts,
            };
            let ring = tls.ring.get_or_insert_with(|| {
                let ring = Arc::new(SpanRing {
                    records: Mutex::new(VecDeque::with_capacity(RING_CAPACITY)),
                    dropped: AtomicU64::new(0),
                });
                rings().lock().push(Arc::clone(&ring));
                ring
            });
            let mut records = ring.records.lock();
            if records.len() == RING_CAPACITY {
                records.pop_front();
                ring.dropped.fetch_add(1, Ordering::Relaxed);
            }
            records.push_back(record);
            Some(record)
        })
    }
}

impl Drop for OpSpan {
    fn drop(&mut self) {
        self.finish_impl(None);
    }
}

/// RAII guard for one phase interval; inert when tracing is disabled or no
/// span is active on this thread.
#[derive(Debug)]
pub struct PhaseGuard {
    phase: Phase,
    armed: bool,
}

/// Enters `phase` on the current thread's active span.  Phases nest with
/// exclusive-time attribution: entering a phase pauses the enclosing one,
/// so device I/O inside a commit counts as [`Phase::DevIo`], not twice.
#[inline]
pub fn phase(phase: Phase) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard { phase, armed: false };
    }
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        let Some(span) = tls.active.as_mut() else {
            return PhaseGuard { phase, armed: false };
        };
        let now = Instant::now();
        if let Some(&outer) = span.stack.last() {
            span.phase_ns[outer.index()] += now.duration_since(span.last_mark).as_nanos() as u64;
        }
        span.stack.push(phase);
        span.phase_counts[phase.index()] = span.phase_counts[phase.index()].saturating_add(1);
        span.last_mark = now;
        PhaseGuard { phase, armed: true }
    })
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let Some(span) = tls.active.as_mut() else {
                return;
            };
            // Guards are strictly LIFO; tolerate a mismatch (span replaced
            // under us after a reset) by doing nothing.
            if span.stack.last() != Some(&self.phase) {
                return;
            }
            let now = Instant::now();
            span.phase_ns[self.phase.index()] +=
                now.duration_since(span.last_mark).as_nanos() as u64;
            span.stack.pop();
            span.last_mark = now;
        });
    }
}

/// Measures the disabled-path hook cost: the mean nanoseconds per
/// [`phase`] call while tracing is off, best (median) of five batches so a
/// scheduler preemption mid-batch on a small container does not pollute
/// the figure.  This is the number the CI `obs-smoke` gate bounds.
pub fn disabled_hook_cost_ns(calls_per_batch: u32) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls_per_batch.max(1) {
                let _g = phase(Phase::DevIo);
            }
            start.elapsed().as_nanos() as f64 / f64::from(calls_per_batch.max(1))
        })
        .collect();
    batches.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    batches[batches.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    /// The global enable flag / epoch are process-wide; tests that assert
    /// on them serialize here so `cargo test`'s parallelism cannot
    /// interleave two measurement windows.
    fn serial() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _gate = serial();
        reset();
        let span = op_span("noop");
        assert!(!span.is_armed());
        {
            let _p = phase(Phase::DevIo);
        }
        assert!(span.finish().is_none());
        assert!(drain().is_empty());
    }

    #[test]
    fn span_attributes_phases_exclusively() {
        let _gate = serial();
        let _trace = enable();
        reset();
        let span = op_span("fsync");
        {
            let _commit = phase(Phase::CommitWait);
            thread::sleep(Duration::from_millis(2));
            {
                let _dev = phase(Phase::DevIo);
                thread::sleep(Duration::from_millis(2));
            }
        }
        let rec = span.finish().expect("enabled span must record");
        assert_eq!(rec.class, "fsync");
        assert_eq!(rec.phase_counts[Phase::CommitWait.index()], 1);
        assert_eq!(rec.phase_counts[Phase::DevIo.index()], 1);
        // Exclusive attribution: the nested device interval is not also
        // counted as commit-wait, and the sum never exceeds the total.
        assert!(rec.phase_ns[Phase::DevIo.index()] >= 1_000_000);
        assert!(rec.attributed_ns() <= rec.total_ns);
        assert!(rec.other_ns() <= rec.total_ns);
        // The record is also in the ring.
        let drained = drain();
        assert!(drained.iter().any(|r| r.op_id == rec.op_id));
    }

    #[test]
    fn nested_spans_attribute_to_the_outermost() {
        let _gate = serial();
        let _trace = enable();
        reset();
        let outer = op_span("op");
        let inner = op_span("write");
        assert!(outer.is_armed());
        assert!(!inner.is_armed());
        assert!(inner.finish().is_none());
        let rec = outer.finish_as("create").expect("outer span records");
        assert_eq!(rec.class, "create", "finish_as must relabel");
        assert_eq!(drain().len(), 1, "exactly one record for nested spans");
    }

    #[test]
    fn reset_discards_in_flight_spans() {
        let _gate = serial();
        let _trace = enable();
        reset();
        let span = op_span("stale");
        reset();
        assert!(span.finish().is_none(), "span opened before reset is stale");
        assert!(drain().is_empty());
    }

    #[test]
    fn cancel_discards_and_phases_need_a_span() {
        let _gate = serial();
        let _trace = enable();
        reset();
        op_span("failed").cancel();
        {
            // No active span: phase guards are inert, not panicking.
            let _p = phase(Phase::NsLock);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts_per_thread() {
        let _gate = serial();
        let _trace = enable();
        reset();
        for _ in 0..(RING_CAPACITY + 10) {
            let span = op_span("tiny");
            span.finish();
        }
        assert_eq!(dropped(), 10);
        // The overflow is attributed to exactly one ring (this thread's),
        // and the total is the per-thread sum.
        let per_thread = dropped_per_thread();
        assert_eq!(per_thread.iter().sum::<u64>(), 10);
        let hot: Vec<u64> = per_thread.into_iter().filter(|&n| n > 0).collect();
        assert_eq!(hot, vec![10]);
        assert_eq!(drain().len(), RING_CAPACITY);
        reset();
        assert_eq!(dropped(), 0, "reset clears the per-ring drop counters");
    }

    #[test]
    fn keep_slowest_holds_the_k_slowest_in_order() {
        let rec = |op_id: u64, total_ns: u64| SpanRecord {
            op_id,
            class: "mixed",
            epoch: 0,
            total_ns,
            phase_ns: [0; Phase::COUNT],
            phase_counts: [0; Phase::COUNT],
        };
        let mut slowest = Vec::new();
        for (op_id, total_ns) in [(1, 30), (2, 10), (3, 50), (4, 20), (5, 40), (6, 40)] {
            keep_slowest(&mut slowest, rec(op_id, total_ns), 3);
        }
        let kept: Vec<(u64, u64)> = slowest.iter().map(|r| (r.op_id, r.total_ns)).collect();
        assert_eq!(kept, vec![(3, 50), (5, 40), (6, 40)], "equal totals keep arrival order");
        keep_slowest(&mut slowest, rec(7, 5), 3);
        assert_eq!(slowest.len(), 3, "a faster span is not kept");
    }

    #[test]
    fn drain_slowest_returns_the_tail_in_order() {
        let _gate = serial();
        let _trace = enable();
        reset();
        for i in 0..8u64 {
            let span = op_span("mixed");
            if i % 2 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
            span.finish();
        }
        let slowest = drain_slowest(3);
        assert_eq!(slowest.len(), 3);
        assert!(slowest.windows(2).all(|w| w[0].total_ns >= w[1].total_ns), "slowest first");
        assert!(slowest[0].total_ns >= 1_000_000, "the slept spans dominate");
        assert!(drain().is_empty(), "drain_slowest consumes the rings");
    }

    #[test]
    fn records_merge_across_threads() {
        let _gate = serial();
        let _trace = enable();
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                thread::spawn(|| {
                    for _ in 0..8 {
                        let span = op_span("read");
                        let _p = phase(Phase::DevIo);
                        drop(_p);
                        span.finish();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let drained = drain();
        assert_eq!(drained.len(), 32);
        assert!(drained.iter().all(|r| r.phase_counts[Phase::DevIo.index()] == 1));
    }

    #[test]
    fn disabled_hook_cost_is_nanoseconds_not_microseconds() {
        let _gate = serial();
        // The CI-gated overhead bound: the disabled hook is one relaxed
        // atomic load, typically single-digit nanoseconds.  500 ns leaves
        // two orders of magnitude of headroom for a busy 1-CPU container.
        let ns = disabled_hook_cost_ns(200_000);
        assert!(ns < 500.0, "disabled trace hook costs {ns:.1} ns/call");
    }
}
