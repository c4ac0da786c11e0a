//! Closed-loop and open-loop load drivers with per-op-class latency
//! histograms and a windowed throughput timeline.
//!
//! * **Closed loop**: `workers` threads each issue one operation at a time,
//!   optionally separated by think time.  Offered load adapts to service
//!   rate — the classic benchmark shape, good for peak-throughput numbers.
//! * **Open loop**: operations *arrive* on a virtual clock at a target rate
//!   regardless of how fast the stack serves them, and each op's latency is
//!   measured from its **scheduled arrival**, not from when a worker got
//!   around to issuing it.  When the stack can't keep up, the backlog shows
//!   up as growing latency instead of silently throttled load — the
//!   coordinated-omission-free way to measure overload and tail latency.
//!
//! Every completed operation is recorded into a per-class
//! [`LatencyHistogram`] (merged across workers at the end) and into the
//! per-window throughput timeline.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::metrics::LatencyHistogram;
use simkernel::trace::{self, Phase, SpanRecord};
use simkernel::vfs::{OpenFlags, Vfs};
use workloads::UntarEntry;

use crate::spec::{OpKind, WorkloadSpec};
use crate::zipf::Zipfian;

/// How operations are offered to the stack.
#[derive(Debug, Clone, Copy)]
pub enum Driver {
    /// `workers` threads, each issuing the next op after the previous one
    /// completes plus `think` time.
    Closed {
        /// Number of worker threads.
        workers: usize,
        /// Per-op think time (zero = tight loop).
        think: Duration,
    },
    /// Operations arrive at `rate` ops/sec on a virtual clock, served by
    /// `workers` threads; latency includes time spent queued behind the
    /// backlog.
    Open {
        /// Number of serving threads.
        workers: usize,
        /// Target arrival rate in operations/second.
        rate: f64,
    },
}

impl Driver {
    /// Row label: `"closed-4w"` / `"open-500ops"`.
    pub fn label(&self) -> String {
        match self {
            Driver::Closed { workers, .. } => format!("closed-{workers}w"),
            Driver::Open { rate, .. } => format!("open-{rate:.0}ops"),
        }
    }

    fn workers(&self) -> usize {
        match *self {
            Driver::Closed { workers, .. } | Driver::Open { workers, .. } => workers.max(1),
        }
    }
}

/// What the driver does when an operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Abort the run on the first failed operation (the default: clean
    /// stacks must not fail ops).
    FailFast,
    /// Count the failure per op class and keep driving (fault-injection
    /// scenarios measure *how many* ops fail, so one EIO must not end the
    /// run).
    Count,
}

/// Knobs for one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Measured duration (replays may finish earlier).
    pub duration: Duration,
    /// Closed- or open-loop offering.
    pub driver: Driver,
    /// Abort or count on op failure.
    pub error_policy: ErrorPolicy,
    /// Throughput timeline window.
    pub window: Duration,
    /// Seed for all sampling (file popularity, sizes, offsets).
    pub seed: u64,
    /// Health monitor fed by every worker: each completed/failed op is
    /// observed (with its trace span when tracing is on), and the monitor
    /// closes its op-indexed windows as the observations cross window
    /// boundaries.  `None` costs nothing.
    pub monitor: Option<Arc<monitor::HealthMonitor>>,
}

impl LoadConfig {
    /// A closed-loop config with no think time.
    pub fn closed(workers: usize, duration: Duration) -> Self {
        LoadConfig {
            duration,
            driver: Driver::Closed { workers, think: Duration::ZERO },
            error_policy: ErrorPolicy::FailFast,
            window: Duration::from_millis(50),
            seed: 0x10ad_6e4e,
            monitor: None,
        }
    }

    /// An open-loop config at `rate` ops/sec.
    pub fn open(workers: usize, rate: f64, duration: Duration) -> Self {
        LoadConfig { driver: Driver::Open { workers, rate }, ..LoadConfig::closed(1, duration) }
    }

    /// Attaches a health monitor to the run.
    #[must_use]
    pub fn with_monitor(mut self, monitor: Arc<monitor::HealthMonitor>) -> Self {
        self.monitor = Some(monitor);
        self
    }
}

/// Completed/error counters plus the latency histogram for one op class.
#[derive(Debug, Clone)]
pub struct OpClassStats {
    /// Which op class.
    pub kind: OpKind,
    /// Operations completed successfully.
    pub completed: u64,
    /// Operations that failed (only nonzero under [`ErrorPolicy::Count`]).
    pub errors: u64,
    /// Latency of successful operations, ns.
    pub latency: LatencyHistogram,
}

/// How many of the slowest spans each op class keeps for tail forensics.
pub const SLOWEST_K: usize = 5;

/// Phase-attributed latency for one op class, aggregated from the trace
/// spans the driver opened around each operation (service time: issue to
/// completion, excluding open-loop queueing).  Populated only while
/// [`simkernel::trace`] is enabled; with tracing off every run leaves
/// [`LoadResult::traces`] empty at the cost of one atomic load per op.
#[derive(Debug, Clone)]
pub struct ClassPhaseTrace {
    /// Which op class.
    pub kind: OpKind,
    /// Spans aggregated (successful ops observed under tracing).
    pub spans: u64,
    /// End-to-end service latency, ns.
    pub total: LatencyHistogram,
    /// Per-phase exclusive latency, ns, indexed by [`Phase::index`]; a
    /// span contributes to a phase's histogram only when it entered that
    /// phase, so "how long is a commit wait *when one happens*" is not
    /// diluted by ops that never waited.
    pub per_phase: Vec<LatencyHistogram>,
    /// Total exclusive ns attributed to each phase across all spans.
    pub phase_sum_ns: [u64; Phase::COUNT],
    /// Sum of span totals, ns (the reconciliation denominator).
    pub total_sum_ns: u64,
    /// The [`SLOWEST_K`] slowest spans by total latency, slowest first —
    /// full per-phase breakdowns of exactly the ops a p99 debugger wants.
    pub slowest: Vec<SpanRecord>,
}

impl ClassPhaseTrace {
    fn new(kind: OpKind) -> Self {
        ClassPhaseTrace {
            kind,
            spans: 0,
            total: LatencyHistogram::new(),
            per_phase: (0..Phase::COUNT).map(|_| LatencyHistogram::new()).collect(),
            phase_sum_ns: [0; Phase::COUNT],
            total_sum_ns: 0,
            slowest: Vec::new(),
        }
    }

    fn observe(&mut self, rec: SpanRecord) {
        self.spans += 1;
        self.total.record(rec.total_ns);
        self.total_sum_ns += rec.total_ns;
        for p in Phase::ALL {
            let ns = rec.phase_ns[p.index()];
            self.phase_sum_ns[p.index()] += ns;
            if rec.phase_counts[p.index()] > 0 {
                self.per_phase[p.index()].record(ns);
            }
        }
        self.keep_if_slow(rec);
    }

    fn keep_if_slow(&mut self, rec: SpanRecord) {
        if self.slowest.len() < SLOWEST_K {
            self.slowest.push(rec);
        } else if self.slowest.last().is_some_and(|tail| rec.total_ns > tail.total_ns) {
            self.slowest.pop();
            self.slowest.push(rec);
        } else {
            return;
        }
        self.slowest.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    }

    fn merge(&mut self, other: &ClassPhaseTrace) {
        self.spans += other.spans;
        self.total.merge(&other.total);
        self.total_sum_ns += other.total_sum_ns;
        for i in 0..Phase::COUNT {
            self.phase_sum_ns[i] += other.phase_sum_ns[i];
            self.per_phase[i].merge(&other.per_phase[i]);
        }
        for &rec in &other.slowest {
            self.keep_if_slow(rec);
        }
    }

    /// Total exclusive ns attributed to instrumented phases.
    pub fn attributed_ns(&self) -> u64 {
        self.phase_sum_ns.iter().sum()
    }
}

/// The outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Personality name.
    pub spec: String,
    /// Driver label (`"closed-4w"` / `"open-500ops"`).
    pub driver: String,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Total operations completed.
    pub operations: u64,
    /// Total operations failed.
    pub errors: u64,
    /// Operations skipped because their target vanished under concurrency
    /// (e.g. a popular file deleted by another worker) — neither completed
    /// nor failed.
    pub skipped: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Per-class stats, reporting order, classes with no traffic omitted.
    pub per_op: Vec<OpClassStats>,
    /// All classes merged.
    pub overall: LatencyHistogram,
    /// Completed ops per [`LoadResult::window`].
    pub timeline: Vec<u64>,
    /// The timeline window width.
    pub window: Duration,
    /// Open loop only: the worst observed lag between an op's scheduled
    /// arrival and the moment a worker picked it up (zero when keeping up).
    pub max_backlog: Duration,
    /// Phase-attributed traces per op class (classes with no spans
    /// omitted).  Empty unless [`simkernel::trace`] was enabled for the
    /// run.
    pub traces: Vec<ClassPhaseTrace>,
}

impl LoadResult {
    /// Completed operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Overall latency percentile in microseconds.
    pub fn p_us(&self, p: f64) -> f64 {
        self.overall.percentile(p) as f64 / 1_000.0
    }

    /// Stats for one op class, if it saw traffic.
    pub fn class(&self, kind: OpKind) -> Option<&OpClassStats> {
        self.per_op.iter().find(|c| c.kind == kind)
    }

    /// Phase-attributed trace for one op class, if tracing captured any.
    pub fn trace_class(&self, kind: OpKind) -> Option<&ClassPhaseTrace> {
        self.traces.iter().find(|t| t.kind == kind)
    }

    /// A run is clean when it completed work and failed nothing.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && !self.overall.is_empty()
    }

    /// Min/mean/max completed-op rate in ops/sec over the run's *complete*
    /// timeline windows (the trailing partial window would bias the min
    /// low), or `None` when the run spanned less than one full window.
    pub fn window_rate_summary(&self) -> Option<(f64, f64, f64)> {
        let full = ((self.elapsed.as_nanos() / self.window.as_nanos().max(1)) as usize)
            .min(self.timeline.len());
        if full == 0 {
            return None;
        }
        let per_sec = 1.0 / self.window.as_secs_f64().max(1e-9);
        let rates = self.timeline[..full].iter().map(|&n| n as f64 * per_sec);
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let mut sum = 0.0;
        for rate in rates {
            min = min.min(rate);
            max = max.max(rate);
            sum += rate;
        }
        Some((min, sum / full as f64, max))
    }
}

/// Creates the spec's directory tree and pre-populates its files (sizes
/// drawn from the spec's distribution with `cfg.seed`), ending with a
/// `sync` so the measured phase starts from a quiesced stack.  Replay
/// personalities have no pre-population.
///
/// # Errors
///
/// Propagates file system errors.
pub fn prepare(vfs: &Arc<Vfs>, spec: &WorkloadSpec, cfg: &LoadConfig) -> KernelResult<()> {
    if spec.replay.is_some() {
        return Ok(());
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5e70_f11e);
    for dir in spec.fileset.dir_paths("/") {
        vfs.mkdir(&dir)?;
    }
    let scratch = vec![0xB7u8; spec.io_size.max(4096)];
    for path in spec.fileset.file_paths("/") {
        let fd = vfs.open(&path, OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
        let size = spec.fileset.size.sample(&mut rng);
        write_fully(vfs, fd, size, &scratch)?;
        vfs.close(fd)?;
    }
    vfs.sync()
}

/// Runs `spec` against `vfs` under `cfg` and returns the measured result.
/// The caller prepares the fileset first ([`prepare`]); replay
/// personalities need no preparation.
///
/// # Errors
///
/// Propagates op failures under [`ErrorPolicy::FailFast`], worker panics,
/// and setup errors.
pub fn run_load(vfs: &Arc<Vfs>, spec: &WorkloadSpec, cfg: &LoadConfig) -> KernelResult<LoadResult> {
    let workers = cfg.driver.workers();
    let files = Arc::new(spec.fileset.file_paths("/"));
    let zipf = if files.is_empty() {
        None
    } else {
        Some(Arc::new(Zipfian::new(files.len(), spec.zipf_theta)))
    };
    if spec.replay.is_none() && files.is_empty() {
        return Err(KernelError::with_context(
            Errno::Inval,
            "loadgen: mix personality with an empty fileset",
        ));
    }

    let windows = (cfg.duration.as_nanos() / cfg.window.as_nanos().max(1)) as usize + 2;
    let timeline: Arc<Vec<AtomicU64>> = Arc::new((0..windows).map(|_| AtomicU64::new(0)).collect());
    let arrivals = Arc::new(AtomicU64::new(0));
    let replay_cursor = Arc::new(AtomicUsize::new(0));
    let max_backlog_ns = Arc::new(AtomicU64::new(0));
    let merged: Arc<Mutex<Vec<OpClassStats>>> = Arc::new(Mutex::new(
        OpKind::all()
            .iter()
            .map(|&kind| OpClassStats {
                kind,
                completed: 0,
                errors: 0,
                latency: LatencyHistogram::new(),
            })
            .collect(),
    ));
    let merged_traces: Arc<Mutex<Vec<ClassPhaseTrace>>> = Arc::new(Mutex::new(
        OpKind::all().iter().map(|&kind| ClassPhaseTrace::new(kind)).collect(),
    ));
    let total_bytes = Arc::new(AtomicU64::new(0));
    let total_skipped = Arc::new(AtomicU64::new(0));
    let spec = Arc::new(spec.clone());
    let cfg = Arc::new(cfg.clone());

    let dirs = Arc::new(spec.fileset.dir_paths("/"));
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let mut handles = Vec::with_capacity(workers);
    for t in 0..workers {
        let vfs = Arc::clone(vfs);
        let spec = Arc::clone(&spec);
        let cfg = Arc::clone(&cfg);
        let files = Arc::clone(&files);
        let dirs = Arc::clone(&dirs);
        let zipf = zipf.clone();
        let timeline = Arc::clone(&timeline);
        let arrivals = Arc::clone(&arrivals);
        let replay_cursor = Arc::clone(&replay_cursor);
        let max_backlog_ns = Arc::clone(&max_backlog_ns);
        let merged = Arc::clone(&merged);
        let merged_traces = Arc::clone(&merged_traces);
        let total_bytes = Arc::clone(&total_bytes);
        let total_skipped = Arc::clone(&total_skipped);
        handles.push(std::thread::spawn(move || -> KernelResult<()> {
            let scratch_len = spec.io_size.max(spec.append_size).max(FSYNC_RECORD_BYTES).max(4096);
            let mut worker = Worker {
                vfs,
                spec,
                cfg: Arc::clone(&cfg),
                files,
                dirs,
                zipf,
                rng: SmallRng::seed_from_u64(cfg.seed.wrapping_add(0x9e37 * (t as u64 + 1))),
                worker_id: t,
                created: Vec::new(),
                next_name: 0,
                last_attempt: OpKind::Create,
                scratch: vec![0x6Cu8; scratch_len],
                stats: OpKind::all()
                    .iter()
                    .map(|&kind| OpClassStats {
                        kind,
                        completed: 0,
                        errors: 0,
                        latency: LatencyHistogram::new(),
                    })
                    .collect(),
                traces: OpKind::all().iter().map(|&kind| ClassPhaseTrace::new(kind)).collect(),
                bytes: 0,
                skipped: 0,
            };
            worker.drive(start, deadline, &timeline, &arrivals, &replay_cursor, &max_backlog_ns)?;
            let mut all = merged.lock();
            for (into, from) in all.iter_mut().zip(worker.stats.iter()) {
                into.completed += from.completed;
                into.errors += from.errors;
                into.latency.merge(&from.latency);
            }
            drop(all);
            let mut all_traces = merged_traces.lock();
            for (into, from) in all_traces.iter_mut().zip(worker.traces.iter()) {
                into.merge(from);
            }
            total_bytes.fetch_add(worker.bytes, Ordering::Relaxed);
            total_skipped.fetch_add(worker.skipped, Ordering::Relaxed);
            Ok(())
        }));
    }
    for handle in handles {
        handle
            .join()
            .map_err(|_| KernelError::with_context(Errno::Io, "loadgen worker panicked"))??;
    }
    let elapsed = start.elapsed();
    if let Some(mon) = &cfg.monitor {
        mon.finish(); // close the trailing partial window
    }

    let per_op: Vec<OpClassStats> = Arc::try_unwrap(merged)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone())
        .into_iter()
        .filter(|c| c.completed > 0 || c.errors > 0)
        .collect();
    let mut overall = LatencyHistogram::new();
    for class in &per_op {
        overall.merge(&class.latency);
    }
    let traces: Vec<ClassPhaseTrace> = Arc::try_unwrap(merged_traces)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone())
        .into_iter()
        .filter(|t| t.spans > 0)
        .collect();
    Ok(LoadResult {
        spec: spec.name.clone(),
        driver: cfg.driver.label(),
        elapsed,
        operations: per_op.iter().map(|c| c.completed).sum(),
        errors: per_op.iter().map(|c| c.errors).sum(),
        skipped: total_skipped.load(Ordering::Relaxed),
        bytes: total_bytes.load(Ordering::Relaxed),
        per_op,
        overall,
        timeline: timeline.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
        window: cfg.window,
        max_backlog: Duration::from_nanos(max_backlog_ns.load(Ordering::Relaxed)),
        traces,
    })
}

/// One op's outcome: what actually ran and how many payload bytes moved,
/// or `None` when the target vanished under a concurrent delete/rename.
type OpOutcome = Option<(OpKind, u64)>;

struct Worker {
    vfs: Arc<Vfs>,
    spec: Arc<WorkloadSpec>,
    cfg: Arc<LoadConfig>,
    files: Arc<Vec<String>>,
    /// Every fileset directory (empty for flat filesets): rename targets
    /// rotate through these, so renames cross directories and exercise the
    /// two-parent pair-locked namespace path.
    dirs: Arc<Vec<String>>,
    zipf: Option<Arc<Zipfian>>,
    rng: SmallRng,
    worker_id: usize,
    /// Files this worker created (delete/rename targets).
    created: Vec<String>,
    next_name: u64,
    /// The op class of the in-flight attempt (error attribution under
    /// [`ErrorPolicy::Count`]).
    last_attempt: OpKind,
    /// Reusable payload/read buffer, sized once at worker start so the
    /// timed window measures the file system, not per-op allocations.
    scratch: Vec<u8>,
    stats: Vec<OpClassStats>,
    /// Phase-attributed spans per class, populated only under tracing.
    traces: Vec<ClassPhaseTrace>,
    bytes: u64,
    skipped: u64,
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &mut self,
        start: Instant,
        deadline: Instant,
        timeline: &[AtomicU64],
        arrivals: &AtomicU64,
        replay_cursor: &AtomicUsize,
        max_backlog_ns: &AtomicU64,
    ) -> KernelResult<()> {
        let window_ns = self.cfg.window.as_nanos().max(1);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(());
            }
            // Under the open-loop driver the measured latency starts at the
            // op's *scheduled* arrival; under the closed loop, at issue.
            let measured_from = match self.cfg.driver {
                Driver::Closed { .. } => now,
                Driver::Open { rate, .. } => {
                    let k = arrivals.fetch_add(1, Ordering::Relaxed);
                    let scheduled = start + Duration::from_secs_f64(k as f64 / rate.max(1e-9));
                    if scheduled >= deadline {
                        return Ok(()); // do not admit arrivals past the run
                    }
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    } else {
                        let lag = (now - scheduled).as_nanos() as u64;
                        max_backlog_ns.fetch_max(lag, Ordering::Relaxed);
                    }
                    scheduled
                }
            };
            // The span measures service time (issue to completion) with the
            // per-phase breakdown; the class is only known afterwards, so it
            // opens generic and is relabelled at finish.  Inert (one atomic
            // load) when tracing is off.
            let span = trace::op_span("op");
            let outcome = self.one_op(replay_cursor);
            let completed_at = Instant::now();
            match outcome {
                Ok(Some((kind, bytes))) => {
                    let rec = span.finish_as(kind.label());
                    if let Some(rec) = rec {
                        self.traces[class_index(kind)].observe(rec);
                    }
                    let latency = completed_at.duration_since(measured_from);
                    if let Some(mon) = &self.cfg.monitor {
                        mon.observe(kind.label(), latency.as_nanos() as u64, false, rec.as_ref());
                    }
                    let stats = &mut self.stats[class_index(kind)];
                    stats.completed += 1;
                    stats.latency.record_duration(latency);
                    self.bytes += bytes;
                    let idx = ((completed_at.duration_since(start).as_nanos() / window_ns)
                        as usize)
                        .min(timeline.len() - 1);
                    timeline[idx].fetch_add(1, Ordering::Relaxed);
                }
                Ok(None) => {
                    span.cancel();
                    // Replay exhausted or a target vanished mid-op.
                    if self.spec.replay.is_some() {
                        return Ok(());
                    }
                    self.skipped += 1;
                }
                Err(e) => {
                    // Failed ops never record a latency sample, so they do
                    // not record a span either.
                    span.cancel();
                    match self.cfg.error_policy {
                        ErrorPolicy::FailFast => return Err(e),
                        ErrorPolicy::Count => {
                            // Attribute the failure to the class attempted.
                            let kind = self.last_attempt;
                            self.stats[class_index(kind)].errors += 1;
                            if let Some(mon) = &self.cfg.monitor {
                                mon.observe(kind.label(), 0, true, None);
                            }
                        }
                    }
                }
            }
            if let Driver::Closed { think, .. } = self.cfg.driver {
                if !think.is_zero() {
                    std::thread::sleep(think);
                }
            }
        }
    }

    fn one_op(&mut self, replay_cursor: &AtomicUsize) -> KernelResult<OpOutcome> {
        if self.spec.replay.is_some() {
            return self.replay_one(replay_cursor);
        }
        let kind = {
            let spec = Arc::clone(&self.spec);
            spec.mix.sample(&mut self.rng)
        };
        self.execute(kind)
    }

    fn replay_one(&mut self, cursor: &AtomicUsize) -> KernelResult<OpOutcome> {
        let spec = Arc::clone(&self.spec);
        let manifest = spec.replay.as_ref().expect("replay_one requires a manifest");
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(entry) = manifest.entries.get(i) else {
            return Ok(None); // manifest exhausted
        };
        // The shared cursor hands out manifest entries in order, but with
        // several workers entry i+1 can *execute* before entry i finishes —
        // so a child may arrive before its parent directory exists (NoEnt:
        // create the ancestors and retry) and a parent's own mkdir may find
        // another worker already created it on its child's behalf (Exist:
        // the directory is there, the entry's goal is achieved).
        match entry {
            UntarEntry::Dir(path) => {
                self.last_attempt = OpKind::Mkdir;
                let full = format!("/{path}");
                match self.vfs.mkdir(&full) {
                    Ok(()) => {}
                    Err(e) if e.errno() == Errno::Exist => {}
                    Err(e) if e.errno() == Errno::NoEnt => {
                        mkdir_p(&self.vfs, &full)?;
                    }
                    Err(e) => return Err(e),
                }
                Ok(Some((OpKind::Mkdir, 0)))
            }
            UntarEntry::File(path, size) => {
                self.last_attempt = OpKind::Create;
                let full = format!("/{path}");
                let flags = OpenFlags::WRONLY.with(OpenFlags::CREAT);
                let fd = match self.vfs.open(&full, flags) {
                    Ok(fd) => fd,
                    Err(e) if e.errno() == Errno::NoEnt => {
                        if let Some((parent, _)) = full.rsplit_once('/') {
                            mkdir_p(&self.vfs, parent)?;
                        }
                        self.vfs.open(&full, flags)?
                    }
                    Err(e) => return Err(e),
                };
                let scratch = std::mem::take(&mut self.scratch);
                let result = with_fd(&self.vfs, fd, |vfs| write_fully(vfs, fd, *size, &scratch));
                self.scratch = scratch;
                result?;
                Ok(Some((OpKind::Create, *size)))
            }
        }
    }

    /// Picks a popular file path.
    fn popular(&mut self) -> String {
        let zipf = self.zipf.as_ref().expect("mix personalities have files");
        let rank = zipf.sample(&mut self.rng);
        self.files[rank].clone()
    }

    /// The directory a popular file lives in.
    fn popular_dir(&mut self) -> String {
        let file = self.popular();
        file.rsplit_once('/').map(|(d, _)| d.to_string()).unwrap_or_else(|| "/".to_string())
    }

    /// An I/O-size-aligned offset within the mean file span.
    fn offset_in_span(&mut self, io: usize) -> u64 {
        let span = self.spec.fileset.size.mean().saturating_sub(io as u64).max(1);
        self.rng.gen_range(0..span) / io as u64 * io as u64
    }

    fn execute(&mut self, kind: OpKind) -> KernelResult<OpOutcome> {
        self.last_attempt = kind;
        match kind {
            OpKind::Create => self.op_create(),
            OpKind::Read => self.op_read(),
            OpKind::Write => self.op_write(),
            OpKind::Append => self.op_append(),
            OpKind::Fsync => self.op_fsync(),
            OpKind::Stat => self.op_stat(),
            // Delete and rename act on this worker's own created files so
            // the shared popularity population stays intact; with nothing
            // to act on yet they degrade to a create (which feeds them).
            OpKind::Delete => match self.created.pop() {
                Some(victim) => match self.vfs.unlink(&victim) {
                    Ok(()) => Ok(Some((OpKind::Delete, 0))),
                    Err(e) if e.errno() == Errno::NoEnt => Ok(None),
                    Err(e) => Err(e),
                },
                None => self.op_create(),
            },
            OpKind::Rename => match self.created.pop() {
                Some(old) => {
                    // Cross-directory when the fileset has directories:
                    // move the file into another fileset directory (the
                    // two-parent rename path, pair-locked by inum order in
                    // the xv6 stacks).  Flat filesets keep the old
                    // same-directory rename.
                    let new = if self.dirs.is_empty() {
                        format!("{old}.r")
                    } else {
                        let dir = &self.dirs[self.next_name as usize % self.dirs.len()];
                        self.next_name += 1;
                        format!("{dir}/mv-{}-{}", self.worker_id, self.next_name)
                    };
                    match self.vfs.rename(&old, &new) {
                        Ok(()) => {
                            self.remember(new);
                            Ok(Some((OpKind::Rename, 0)))
                        }
                        Err(e) if e.errno() == Errno::NoEnt => Ok(None),
                        Err(e) => Err(e),
                    }
                }
                None => self.op_create(),
            },
            OpKind::Mkdir => {
                let path = format!("/lg-dir-{}-{}", self.worker_id, self.next_name);
                self.next_name += 1;
                self.vfs.mkdir(&path)?;
                Ok(Some((OpKind::Mkdir, 0)))
            }
        }
    }

    fn remember(&mut self, path: String) {
        // Bound the per-worker created list; the overflow files simply stay
        // on the file system (they were real work).
        if self.created.len() < 4096 {
            self.created.push(path);
        }
    }

    fn op_create(&mut self) -> KernelResult<OpOutcome> {
        self.last_attempt = OpKind::Create;
        let dir = self.popular_dir();
        let path = format!("{dir}/n{}-{}", self.worker_id, self.next_name);
        self.next_name += 1;
        let size = {
            let spec = Arc::clone(&self.spec);
            spec.fileset.size.sample(&mut self.rng)
        };
        let fd = self.vfs.open(&path, OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
        with_fd(&self.vfs, fd, |vfs| write_fully(vfs, fd, size, &self.scratch))?;
        self.remember(path);
        Ok(Some((OpKind::Create, size)))
    }

    fn op_read(&mut self) -> KernelResult<OpOutcome> {
        let path = self.popular();
        let io = self.spec.io_size;
        let offset = self.offset_in_span(io);
        let fd = match self.vfs.open(&path, OpenFlags::RDONLY) {
            Ok(fd) => fd,
            Err(e) if e.errno() == Errno::NoEnt => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = with_fd(&self.vfs, fd, |vfs| vfs.pread(fd, &mut scratch[..io], offset));
        self.scratch = scratch;
        Ok(Some((OpKind::Read, result? as u64)))
    }

    fn op_write(&mut self) -> KernelResult<OpOutcome> {
        let path = self.popular();
        let io = self.spec.io_size;
        let offset = self.offset_in_span(io);
        let fd = match self.vfs.open(&path, OpenFlags::WRONLY) {
            Ok(fd) => fd,
            Err(e) if e.errno() == Errno::NoEnt => return Ok(None),
            Err(e) => return Err(e),
        };
        let n = with_fd(&self.vfs, fd, |vfs| vfs.pwrite(fd, &self.scratch[..io], offset))?;
        Ok(Some((OpKind::Write, n as u64)))
    }

    fn op_append(&mut self) -> KernelResult<OpOutcome> {
        let path = self.popular();
        let append = self.spec.append_size.max(1);
        let fd = match self.vfs.open(&path, OpenFlags::WRONLY.with(OpenFlags::APPEND)) {
            Ok(fd) => fd,
            Err(e) if e.errno() == Errno::NoEnt => return Ok(None),
            Err(e) => return Err(e),
        };
        let n = with_fd(&self.vfs, fd, |vfs| vfs.write(fd, &self.scratch[..append]))?;
        Ok(Some((OpKind::Append, n as u64)))
    }

    fn op_fsync(&mut self) -> KernelResult<OpOutcome> {
        // The durability flowop: append a small record and fsync it, like a
        // mail delivery or a commit log record.
        let path = self.popular();
        let fd = match self.vfs.open(&path, OpenFlags::WRONLY.with(OpenFlags::APPEND)) {
            Ok(fd) => fd,
            Err(e) if e.errno() == Errno::NoEnt => return Ok(None),
            Err(e) => return Err(e),
        };
        let n = with_fd(&self.vfs, fd, |vfs| {
            let n = vfs.write(fd, &self.scratch[..FSYNC_RECORD_BYTES])?;
            vfs.fsync(fd)?;
            Ok(n)
        })?;
        Ok(Some((OpKind::Fsync, n as u64)))
    }

    fn op_stat(&mut self) -> KernelResult<OpOutcome> {
        let path = self.popular();
        match self.vfs.stat(&path) {
            Ok(_) => Ok(Some((OpKind::Stat, 0))),
            Err(e) if e.errno() == Errno::NoEnt => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Index of `kind` in [`OpKind::all`] order (the per-class stats layout).
fn class_index(kind: OpKind) -> usize {
    OpKind::all().iter().position(|&k| k == kind).expect("all() covers every kind")
}

/// Size of the record the fsync op class appends before syncing.
const FSYNC_RECORD_BYTES: usize = 512;

/// Runs `f` against an open fd and closes it on both the success and the
/// error path — an op failing mid-flight (e.g. injected EIO) must not leak
/// its descriptor, or unmount reports Busy after a fault run.
fn with_fd<R>(vfs: &Vfs, fd: u64, f: impl FnOnce(&Vfs) -> KernelResult<R>) -> KernelResult<R> {
    let result = f(vfs);
    let closed = vfs.close(fd);
    match result {
        Ok(value) => closed.map(|()| value),
        Err(e) => {
            let _ = closed; // the op error is the interesting one
            Err(e)
        }
    }
}

/// Writes `total` payload bytes to `fd` in `scratch`-sized chunks — the one
/// chunked write-out loop shared by preparation, replay and the create op.
fn write_fully(vfs: &Vfs, fd: u64, total: u64, scratch: &[u8]) -> KernelResult<()> {
    let mut remaining = total;
    while remaining > 0 {
        let n = vfs.write(fd, &scratch[..(remaining as usize).min(scratch.len())])?;
        if n == 0 {
            return Err(KernelError::with_context(Errno::Io, "loadgen: zero-length write"));
        }
        remaining -= n as u64;
    }
    Ok(())
}

/// `mkdir -p`: creates `path` and any missing ancestors, tolerating
/// directories that already exist (racing workers create each other's
/// parents).
fn mkdir_p(vfs: &Vfs, path: &str) -> KernelResult<()> {
    let mut so_far = String::new();
    for part in path.split('/').filter(|p| !p.is_empty()) {
        so_far.push('/');
        so_far.push_str(part);
        match vfs.mkdir(&so_far) {
            Ok(()) => {}
            Err(e) if e.errno() == Errno::Exist => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
