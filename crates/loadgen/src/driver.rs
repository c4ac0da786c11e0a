//! The closed-loop load driver, with per-op-class latency histograms and a
//! windowed throughput timeline.
//!
//! Every run is bounded by an op count, never by a clock: each worker runs
//! a fixed-length script that [`WorkloadSpec::script`] generates from the
//! seed before the clock starts, so a fast stack finishes sooner instead of
//! doing more work.  A mix that creates and deletes deletes its own files
//! rather than outgrow the mount's free inodes and blocks; a run that would
//! outgrow them anyway is refused before it begins.
//!
//! `workers` threads each issue one operation at a time, the next as soon
//! as the previous one completes, until their script ends (a closed loop,
//! as filebench runs the paper's personalities): offered load adapts to
//! service rate, and each op's latency is its service time.
//!
//! Every completed operation is recorded into a per-class
//! [`LatencyHistogram`] (merged across workers at the end) and into the
//! per-window throughput timeline.  A failed op under
//! [`ErrorPolicy::FailFast`] ends the run with a [`LoadError`] that names
//! the worker, the op's index in its script, the op and the seed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::metrics::LatencyHistogram;
use simkernel::trace::{self, Phase, SpanRecord};
use simkernel::vfs::Vfs;
use workloads::op::{apply, apply_extracting, Fds, Op, OpKind, MAX_CHUNK};

use crate::spec::{Layout, WorkloadSpec};

/// What the driver does when an operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Abort the run on the first failed operation (the default: clean
    /// stacks must not fail ops).
    FailFast,
    /// Count the failure per op class and keep driving (fault-injection
    /// scenarios measure *how many* ops fail, so one EIO must not end the
    /// run).  An op whose target is missing (a delete or rename of a file
    /// whose create failed earlier) is skipped, not counted.
    Count,
}

/// Knobs for one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Measured ops per worker (the script length).  A replay runs its
    /// whole manifest instead.
    pub ops: u64,
    /// Worker threads, each running its own script closed-loop (at least
    /// one runs).
    pub workers: usize,
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
    /// A closed-loop config: `workers` workers, `ops` ops each.
    pub fn closed(workers: usize, ops: u64) -> Self {
        LoadConfig {
            ops,
            workers,
            error_policy: ErrorPolicy::FailFast,
            window: Duration::from_millis(50),
            seed: 0x10ad_6e4e,
            monitor: None,
        }
    }

    /// The number of worker threads that run (at least one).
    pub(crate) fn threads(&self) -> usize {
        self.workers.max(1)
    }

    /// Attaches a health monitor to the run.
    #[must_use]
    pub fn with_monitor(mut self, monitor: Arc<monitor::HealthMonitor>) -> Self {
        self.monitor = Some(monitor);
        self
    }
}

/// A failed load run, and where: the spec, driver and seed it ran with,
/// and for a failed op the worker, the op's index in that worker's script
/// and the op itself (regenerate the script from the seed to replay it).
#[derive(Debug, Clone)]
pub struct LoadError {
    /// The spec's name.
    pub spec: String,
    /// The driver label (`"closed-8w"`), which carries the thread count.
    pub driver: String,
    /// The run's seed.
    pub seed: u64,
    /// `(worker, index, op)` when an op failed; `None` for a setup,
    /// scenario or teardown failure.
    pub op: Option<Box<(usize, usize, Op)>>,
    /// What failed.
    pub error: KernelError,
}

impl LoadError {
    /// A failure of `spec` run under `cfg`.
    pub(crate) fn new(
        spec: &WorkloadSpec,
        cfg: &LoadConfig,
        op: Option<(usize, usize, Op)>,
        error: KernelError,
    ) -> Self {
        let op = op.map(Box::new);
        let driver = format!("closed-{}w", cfg.threads());
        LoadError { spec: spec.name.clone(), driver, seed: cfg.seed, op, error }
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} seed {:#x}", self.spec, self.driver, self.seed)?;
        if let Some((worker, index, op)) = self.op.as_deref() {
            write!(f, ", worker {worker} op #{index} {op:?}")?;
        }
        write!(f, ": {}", self.error)
    }
}

impl std::error::Error for LoadError {}

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
/// completion).  Populated only while [`simkernel::trace`] is enabled; with
/// tracing off every run leaves [`LoadResult::traces`] empty at the cost
/// of one atomic load per op.
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
        trace::keep_slowest(&mut self.slowest, rec, SLOWEST_K);
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
            trace::keep_slowest(&mut self.slowest, rec, SLOWEST_K);
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
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Total operations completed.
    pub operations: u64,
    /// Total operations failed.
    pub errors: u64,
    /// Operations skipped under [`ErrorPolicy::Count`] because their target
    /// was missing (its create failed earlier) — neither completed nor
    /// failed.
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
}

/// Creates the spec's directory tree and pre-populates its files (sizes
/// drawn from the spec's distribution with `cfg.seed`), reads back the
/// files a held-descriptor spec will use so they start in the page cache,
/// and ends with a `sync` so the measured phase starts from a quiesced
/// stack.  Replays have no pre-population.
///
/// # Errors
///
/// Propagates file system errors.
pub fn prepare(vfs: &Vfs, spec: &WorkloadSpec, cfg: &LoadConfig) -> KernelResult<()> {
    if let Layout::Replay(_) = spec.layout {
        return Ok(());
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5e70_f11e);
    let files = spec.fileset.file_paths("/");
    let mut ops: Vec<Op> = spec.fileset.dir_paths("/").into_iter().map(Op::Mkdir).collect();
    for path in &files {
        let len = spec.fileset.size.sample(&mut rng);
        ops.push(Op::Create { path: path.clone(), len, fill: 0xB7 });
    }
    if let Layout::Held(_) = spec.layout {
        for path in &files {
            for offset in (0..spec.fileset.size.max()).step_by(MAX_CHUNK as usize) {
                ops.push(Op::Read { path: path.clone(), offset, len: MAX_CHUNK });
            }
        }
    }
    let mut fds = Fds::default();
    for op in &ops {
        apply(vfs, &mut fds, op)?;
    }
    vfs.sync()
}

/// Runs `spec` against `vfs` under `cfg` and returns the measured result.
/// The caller prepares the fileset first ([`prepare`]); replays need no
/// preparation.
///
/// # Errors
///
/// The first failed op under [`ErrorPolicy::FailFast`], a worker panic, a
/// mix that samples files from an empty fileset, a run that creates more
/// files than the mount has room for (`ENOSPC` before any op runs), or a
/// setup error.
pub fn run_load(vfs: &Vfs, spec: &WorkloadSpec, cfg: &LoadConfig) -> Result<LoadResult, LoadError> {
    run_hooked(vfs, spec, cfg, None)
}

/// [`run_load`] calling `hook` with each op's global issue index (`0..`
/// the total op count) just before the op runs: the scenarios fire their
/// events at an op index through it.
pub(crate) fn run_hooked(
    vfs: &Vfs,
    spec: &WorkloadSpec,
    cfg: &LoadConfig,
    hook: Option<&(dyn Fn(u64) + Sync)>,
) -> Result<LoadResult, LoadError> {
    let fail = |op, error| LoadError::new(spec, cfg, op, error);
    let samples_files = [OpKind::Read, OpKind::Write, OpKind::Append, OpKind::Fsync, OpKind::Stat]
        .iter()
        .any(|&kind| spec.mix.weight(kind) > 0);
    if samples_files && spec.fileset.files == 0 && !matches!(spec.layout, Layout::Replay(_)) {
        return Err(fail(
            None,
            KernelError::with_context(Errno::Inval, "loadgen: mix samples an empty fileset"),
        ));
    }
    let workers = cfg.threads();
    let creates = create_budget(vfs, spec, workers).map_err(|e| fail(None, e))?;
    let scripts: Vec<_> =
        (0..workers).map(|t| spec.script(t, workers, cfg.ops, creates, cfg.seed)).collect();
    // A script the create budget cut short would measure less work than
    // asked for: refuse the run before any op runs.
    let cut = scripts.iter().any(|(_, body)| (body.len() as u64) < cfg.ops);
    if cut && !matches!(spec.layout, Layout::Replay(_)) {
        let why = "loadgen: the run creates more files than the mount has free inodes or blocks";
        return Err(fail(None, KernelError::with_context(Errno::NoSpc, why)));
    }
    let mut held = Vec::with_capacity(workers);
    for (t, (prologue, body)) in scripts.into_iter().enumerate() {
        // Prologues (a held descriptor's open) run before the clock starts.
        let mut fds = Fds::default();
        for (index, op) in prologue.iter().enumerate() {
            if let Err(e) = apply(vfs, &mut fds, op) {
                // The op error is the one to report.
                for (mut fds, _) in held.drain(..).chain([(fds, Vec::new())]) {
                    let _ = fds.close_all(vfs);
                }
                return Err(fail(Some((t, index, op.clone())), e));
            }
        }
        held.push((fds, body));
    }

    let run = Run { vfs, spec, cfg, hook, start: Instant::now(), issued: AtomicU64::new(0) };
    let tallies: Vec<Result<Tally, LoadError>> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = held
            .into_iter()
            .enumerate()
            .map(|(t, (fds, body))| scope.spawn(move || run.drive(t, fds, &body)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| {
                    Err(fail(None, KernelError::with_context(Errno::Io, "loadgen worker panicked")))
                })
            })
            .collect()
    });
    let elapsed = run.start.elapsed();
    if let Some(mon) = &cfg.monitor {
        mon.finish(); // close the trailing partial window
    }

    let mut total = Tally::new(false);
    for tally in tallies {
        total.merge(tally?);
    }
    let per_op: Vec<OpClassStats> =
        total.stats.into_iter().filter(|c| c.completed > 0 || c.errors > 0).collect();
    let mut overall = LatencyHistogram::new();
    for class in &per_op {
        overall.merge(&class.latency);
    }
    Ok(LoadResult {
        spec: spec.name.clone(),
        elapsed,
        operations: per_op.iter().map(|c| c.completed).sum(),
        errors: per_op.iter().map(|c| c.errors).sum(),
        skipped: total.skipped,
        bytes: total.bytes,
        per_op,
        overall,
        timeline: total.timeline,
        window: cfg.window,
        traces: total.traces.into_iter().filter(|t| t.spans > 0).collect(),
    })
}

/// How many files each of `workers` workers may leave behind: the mount's
/// free inodes, and its free blocks over the largest file the spec
/// creates (plus a block of metadata), shared evenly.
fn create_budget(vfs: &Vfs, spec: &WorkloadSpec, workers: usize) -> KernelResult<u64> {
    let fs = vfs.statfs("/")?;
    let blocks_per_file = spec.fileset.size.max().div_ceil(u64::from(fs.block_size).max(1)) + 1;
    Ok(fs.free_inodes.min(fs.free_blocks / blocks_per_file) / workers as u64)
}

/// What one run shares with its workers.
struct Run<'a> {
    vfs: &'a Vfs,
    spec: &'a WorkloadSpec,
    cfg: &'a LoadConfig,
    hook: Option<&'a (dyn Fn(u64) + Sync)>,
    start: Instant,
    issued: AtomicU64,
}

/// One worker's counts, merged into the result at the end.
struct Tally {
    stats: Vec<OpClassStats>,
    /// Phase-attributed spans per class; allocated only when tracing was
    /// on as the worker started, so an untraced run does not zero the
    /// per-phase histograms.
    traces: Vec<ClassPhaseTrace>,
    timeline: Vec<u64>,
    bytes: u64,
    skipped: u64,
}

impl Tally {
    fn new(traced: bool) -> Self {
        Tally {
            stats: OpKind::ALL
                .iter()
                .map(|&kind| OpClassStats {
                    kind,
                    completed: 0,
                    errors: 0,
                    latency: LatencyHistogram::new(),
                })
                .collect(),
            traces: match traced {
                true => OpKind::ALL.iter().map(|&kind| ClassPhaseTrace::new(kind)).collect(),
                false => Vec::new(),
            },
            timeline: Vec::new(),
            bytes: 0,
            skipped: 0,
        }
    }

    fn merge(&mut self, other: Tally) {
        for (into, from) in self.stats.iter_mut().zip(&other.stats) {
            into.completed += from.completed;
            into.errors += from.errors;
            into.latency.merge(&from.latency);
        }
        if self.traces.is_empty() {
            self.traces = other.traces;
        } else {
            for (into, from) in self.traces.iter_mut().zip(&other.traces) {
                into.merge(from);
            }
        }
        if self.timeline.len() < other.timeline.len() {
            self.timeline.resize(other.timeline.len(), 0);
        }
        for (into, from) in self.timeline.iter_mut().zip(&other.timeline) {
            *into += from;
        }
        self.bytes += other.bytes;
        self.skipped += other.skipped;
    }
}

impl Run<'_> {
    /// Runs worker `t`'s script to its end (or its first failure under
    /// [`ErrorPolicy::FailFast`]), then closes its descriptors.
    fn drive(&self, t: usize, mut fds: Fds, body: &[Op]) -> Result<Tally, LoadError> {
        let mut tally = Tally::new(trace::enabled());
        let window_ns = self.cfg.window.as_nanos().max(1);
        let extracting = matches!(self.spec.layout, Layout::Replay(_));
        for (index, op) in body.iter().enumerate() {
            let kind = op.kind();
            let issued_at = Instant::now();
            if let Some(hook) = self.hook {
                hook(self.issued.fetch_add(1, Ordering::Relaxed));
            }
            // The span measures service time (issue to completion) with the
            // per-phase breakdown.  Inert (one atomic load) when tracing is
            // off.
            let span = trace::op_span(kind.label());
            let result = if extracting {
                apply_extracting(self.vfs, &mut fds, op)
            } else {
                apply(self.vfs, &mut fds, op)
            };
            let completed_at = Instant::now();
            match result {
                Ok(bytes) => {
                    let rec = span.finish();
                    if let (Some(rec), Some(trace)) = (rec, tally.traces.get_mut(kind.index())) {
                        trace.observe(rec);
                    }
                    let latency = completed_at.duration_since(issued_at);
                    if let Some(mon) = &self.cfg.monitor {
                        mon.observe(kind.label(), latency.as_nanos() as u64, false, rec.as_ref());
                    }
                    let stats = &mut tally.stats[kind.index()];
                    stats.completed += 1;
                    stats.latency.record_duration(latency);
                    tally.bytes += bytes;
                    let window =
                        (completed_at.duration_since(self.start).as_nanos() / window_ns) as usize;
                    if tally.timeline.len() <= window {
                        tally.timeline.resize(window + 1, 0);
                    }
                    tally.timeline[window] += 1;
                }
                // Failed ops never record a latency sample, so they do not
                // record a span either.
                Err(e) => {
                    span.cancel();
                    match self.cfg.error_policy {
                        ErrorPolicy::FailFast => {
                            let _ = fds.close_all(self.vfs); // the op error is the one to report
                            let at = Some((t, index, op.clone()));
                            return Err(LoadError::new(self.spec, self.cfg, at, e));
                        }
                        ErrorPolicy::Count if e.errno() == Errno::NoEnt => tally.skipped += 1,
                        ErrorPolicy::Count => {
                            tally.stats[kind.index()].errors += 1;
                            if let Some(mon) = &self.cfg.monitor {
                                mon.observe(kind.label(), 0, true, None);
                            }
                        }
                    }
                }
            }
        }
        fds.close_all(self.vfs).map_err(|e| LoadError::new(self.spec, self.cfg, None, e))?;
        Ok(tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AccessPattern, FileSetSpec, OpMix, SizeDist};
    use simkernel::dev::RamDisk;
    use simkernel::memfs::MemFilesystemType;
    use simkernel::vfs::VfsConfig;

    fn memfs_vfs() -> Arc<Vfs> {
        let vfs = Arc::new(Vfs::new(VfsConfig::default()));
        vfs.register_filesystem(Arc::new(MemFilesystemType)).unwrap();
        vfs.mount("memfs", Arc::new(RamDisk::new(4096, 16)), "/").unwrap();
        vfs
    }

    fn run(vfs: &Vfs, spec: &WorkloadSpec, workers: usize, ops: u64) -> LoadResult {
        let cfg = LoadConfig::closed(workers, ops);
        prepare(vfs, spec, &cfg).unwrap();
        let result = run_load(vfs, spec, &cfg).unwrap();
        assert!(result.is_clean(), "{}", spec.name);
        result
    }

    fn files_in(vfs: &Vfs, dir: &str) -> usize {
        vfs.readdir(dir).unwrap().iter().filter(|e| e.name != "." && e.name != "..").count()
    }

    #[test]
    fn read_micro_reports_ops_and_bytes() {
        let vfs = memfs_vfs();
        let spec = WorkloadSpec::io(false, 1 << 20, 4096, AccessPattern::Random);
        let result = run(&vfs, &spec, 2, 500);
        assert_eq!(result.operations, 2 * 500);
        assert_eq!(result.bytes, result.operations * 4096);
        assert!(result.ops_per_sec() > 0.0);
        // Per-op latency rides along: one sample per completed op, ordered
        // percentiles.
        assert_eq!(result.overall.count(), result.operations);
        assert!(result.p_us(50.0) <= result.p_us(99.0));
        assert!(result.overall.max() > 0);
    }

    #[test]
    fn write_micro_sequential_and_random() {
        for pattern in [AccessPattern::Sequential, AccessPattern::Random] {
            let vfs = memfs_vfs();
            let spec = WorkloadSpec::io(true, 1 << 20, 32 * 1024, pattern);
            let result = run(&vfs, &spec, 2, 100);
            assert_eq!(result.class(OpKind::Write).unwrap().completed, 200, "{pattern:?}");
            assert_eq!(result.bytes, 200 * 32 * 1024);
            // Writes stay inside the preallocated file.
            assert_eq!(vfs.stat("/f0").unwrap().size, 1 << 20);
        }
    }

    #[test]
    fn disjoint_micros_report_ops_and_clean_up() {
        let vfs = memfs_vfs();
        for write in [false, true] {
            let spec =
                WorkloadSpec::io(write, 256 * 1024, 4096, AccessPattern::Random).with_files(4);
            let result = run(&vfs, &spec, 4, 200);
            assert_eq!(result.operations, 4 * 200);
            assert_eq!(result.bytes, result.operations * 4096);
        }
        // One private file per worker, and every held descriptor is closed.
        assert!(vfs.exists("/f3") && !vfs.exists("/f4"));
        assert_eq!(vfs.open_fd_count(), 0);
    }

    #[test]
    fn create_and_delete_micro() {
        let vfs = memfs_vfs();
        let created = run(&vfs, &WorkloadSpec::createfiles(4096, 2), 2, 50);
        assert_eq!(created.operations, 100);
        assert_eq!((files_in(&vfs, "/d0-0"), files_in(&vfs, "/d0-1")), (50, 50));
        // Deletes take exactly the precreated files, each once.
        let vfs = memfs_vfs();
        let deleted = run(&vfs, &WorkloadSpec::deletefiles(50, 1024, 2), 2, 50);
        assert_eq!(deleted.operations, 100);
        assert_eq!(deleted.class(OpKind::Delete).unwrap().completed, 100);
        assert_eq!((files_in(&vfs, "/d0-0"), files_in(&vfs, "/d0-1")), (0, 0));
    }

    #[test]
    fn crossdir_create_spreads_over_shared_directories() {
        let vfs = memfs_vfs();
        let result = run(&vfs, &WorkloadSpec::create_crossdir(1024, 4), 4, 60);
        assert_eq!(result.operations, 240);
        assert_eq!(result.bytes, result.operations * 1024);
        // Every directory of the shared pool of 8 gets files from several
        // workers.
        for d in 0..8 {
            let names: Vec<String> =
                vfs.readdir(&format!("/d0-{d}")).unwrap().into_iter().map(|e| e.name).collect();
            let workers = (0..4).filter(|t| names.iter().any(|n| n.starts_with(&format!("n{t}-"))));
            assert!(workers.count() >= 2, "pool dir {d}: {names:?}");
        }
    }

    #[test]
    fn rename_storm_chains_renames_without_losing_files() {
        let vfs = memfs_vfs();
        let spec = WorkloadSpec {
            name: "rename-storm".to_string(),
            fileset: FileSetSpec { dir_width: 4, depth: 1, files: 8, size: SizeDist::Fixed(64) },
            mix: OpMix::new(&[(OpKind::Create, 1), (OpKind::Rename, 6)]),
            ..WorkloadSpec::namespace_churn()
        };
        let result = run(&vfs, &spec, 4, 150);
        let creates = result.class(OpKind::Create).unwrap().completed;
        assert!(result.class(OpKind::Rename).unwrap().completed > 4 * 100);
        // Every file exists exactly once, somewhere in the pool — a lost or
        // duplicated file means a rename bug.
        let total: usize = (0..4).map(|d| files_in(&vfs, &format!("/d0-{d}"))).sum();
        assert_eq!(total as u64, 8 + creates);
    }

    #[test]
    fn a_failed_op_names_its_worker_index_op_and_seed() {
        let vfs = memfs_vfs();
        let spec = WorkloadSpec::deletefiles(3, 16, 2);
        let cfg = LoadConfig::closed(2, 3);
        prepare(&vfs, &spec, &cfg).unwrap();
        vfs.unlink("/d0-1/f1").unwrap(); // worker 1's first victim
        let err = run_load(&vfs, &spec, &cfg).unwrap_err();
        assert_eq!(err.error.errno(), Errno::NoEnt);
        let (worker, index, op) = err.op.as_deref().expect("an op failed").clone();
        assert_eq!((worker, index, op), (1, 2, Op::Unlink("/d0-1/f1".into())));
        let shown = err.to_string();
        for part in ["deletefiles", "closed-2w", "seed 0x10ad6e4e", "worker 1 op #2", "/d0-1/f1"] {
            assert!(shown.contains(part), "{shown:?} lacks {part:?}");
        }
        assert_eq!(vfs.open_fd_count(), 0);
    }

    #[test]
    fn varmail_and_fileserver_run() {
        for spec in [WorkloadSpec::varmail(), WorkloadSpec::fileserver()] {
            let vfs = memfs_vfs();
            let result = run(&vfs, &spec.with_files(20), 2, 200);
            assert_eq!(result.operations, 400, "{}", result.spec);
            assert!(result.bytes > 0);
        }
    }
}
