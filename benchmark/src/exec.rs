//! Executing op streams against a mounted stack: the closed-loop client,
//! the pass runner, and the namespace/content/fsck verification.
//!
//! Driver model: one client, no think time, each op issued when the previous
//! one returned.  An op's latency is an `Instant` around its syscalls only;
//! checking what it returned and advancing the model happen after the clock
//! stops, and throughput is ops over the *sum of op latencies*, so harness
//! bookkeeping is never counted as the program's time.

use std::sync::Arc;
use std::time::Instant;

use simkernel::cost::CostModel;
use simkernel::dev::RamDisk;
use simkernel::error::{KernelError, KernelResult};
use simkernel::trace::{self, Phase};
use simkernel::vfs::{FileType, OpenFlags, Vfs};

use crate::model::{Content, Namespace, Op, Pool, BIG_FILE, PAGE};
use crate::stacks::{self, Counters, Mounted, Stack};
use crate::workloads::{Generator, Workload};

/// Read chunk of `read_whole` and of verification.
const CHUNK: usize = 64 * 1024;
/// Scratch for one op's reads; `read_whole` files stay far below this.
const SCRATCH: usize = 1024 * 1024;

/// Operations attempted and failed, pooled over every stack and pass of a
/// run.  Verification, fsck and durability violations count as failed
/// operations, so any of them makes the run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 20 {
            eprintln!("FAILED: {what}");
            self.messages.push(what);
        }
    }

    /// Counts one check: passed if `result` is `Ok`.
    pub fn check(&mut self, context: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(1),
            Err(e) => self.fail(format!("{context}: {e}")),
        }
    }
}

/// The VFS entry points the workloads use, as recorded in call spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Open,
    Close,
    Read,
    Write,
    Fsync,
    Stat,
    Unlink,
    Rename,
    Mkdir,
    Rmdir,
    Readdir,
    Sync,
}

impl Call {
    pub const ALL: [Call; 12] = [
        Call::Open,
        Call::Close,
        Call::Read,
        Call::Write,
        Call::Fsync,
        Call::Stat,
        Call::Unlink,
        Call::Rename,
        Call::Mkdir,
        Call::Rmdir,
        Call::Readdir,
        Call::Sync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Open => "open",
            Call::Close => "close",
            Call::Read => "read",
            Call::Write => "write",
            Call::Fsync => "fsync",
            Call::Stat => "stat",
            Call::Unlink => "unlink",
            Call::Rename => "rename",
            Call::Mkdir => "mkdir",
            Call::Rmdir => "rmdir",
            Call::Readdir => "readdir",
            Call::Sync => "sync",
        }
    }
}

/// One call into `simkernel::vfs`, child of op span `op`.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    pub op: u32,
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One op of a traced pass, with the program's own phase attribution
/// (`simkernel::trace::SpanRecord::phase_ns`) for the op.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub phase_ns: [u64; Phase::COUNT],
}

/// Spans of one traced segment, kept in memory until the run ends.  Times
/// are nanoseconds since the segment's client was created.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub ops: Vec<OpSpan>,
    pub calls: Vec<CallSpan>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog { origin: Instant::now(), ops: Vec::new(), calls: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// The closed-loop client: turns ops into syscalls and checks the replies.
pub struct Client<'p> {
    pool: &'p Pool,
    scratch: Vec<u8>,
    big_fd: Option<u64>,
    /// Syscalls issued.
    pub calls: u64,
    /// Payload bytes handed to `write`.
    pub bytes_written: u64,
    /// Pages the stream's reads touched (denominator of the fill ratio).
    pub pages_read: u64,
    pub spans: Option<SpanLog>,
}

fn errstr(e: KernelError) -> String {
    e.to_string()
}

impl<'p> Client<'p> {
    pub fn new(pool: &'p Pool, traced: bool) -> Self {
        Client {
            pool,
            scratch: vec![0u8; SCRATCH],
            big_fd: None,
            calls: 0,
            bytes_written: 0,
            pages_read: 0,
            spans: traced.then(SpanLog::new),
        }
    }

    /// One call into the VFS; in a traced pass, one span around it.
    fn sys<T>(&mut self, vfs: &Vfs, call: Call, f: impl FnOnce(&Vfs, &mut [u8]) -> T) -> T {
        self.calls += 1;
        let Some(log) = &self.spans else {
            return f(vfs, &mut self.scratch);
        };
        let start_ns = log.now();
        let out = f(vfs, &mut self.scratch);
        let log = self.spans.as_mut().expect("checked above");
        let end_ns = log.now();
        log.calls.push(CallSpan { op: log.ops.len() as u32, call, start_ns, end_ns });
        out
    }

    fn big_fd(&mut self, vfs: &Vfs) -> KernelResult<u64> {
        match self.big_fd {
            Some(fd) => Ok(fd),
            None => {
                let fd = vfs.open(BIG_FILE, OpenFlags::RDWR)?;
                self.big_fd = Some(fd);
                Ok(fd)
            }
        }
    }

    /// Closes the long-lived descriptor (after `data_cached`'s one closing
    /// fsync), so the mount can be unmounted or remounted.
    pub fn close_files(&mut self, vfs: &Vfs) -> KernelResult<()> {
        if let Some(fd) = self.big_fd.take() {
            vfs.fsync(fd)?;
            vfs.close(fd)?;
        }
        Ok(())
    }

    /// Executes `op`, checks its replies against `ns`, advances `ns`, and
    /// returns the op's latency in nanoseconds.
    pub fn run(&mut self, vfs: &Vfs, ns: &mut Namespace, op: &Op) -> (u64, Result<(), String>) {
        // The long-lived descriptor is opened outside the timed window.
        if matches!(op, Op::Pread { .. } | Op::Pwrite { .. } | Op::FsyncBig) {
            if let Err(e) = self.big_fd(vfs) {
                return (0, Err(errstr(e)));
            }
        }
        let span = self.spans.is_some().then(|| trace::op_span(op.class()));
        let start_ns = self.spans.as_ref().map_or(0, SpanLog::now);
        let started = Instant::now();
        let reply = self.syscalls(vfs, op);
        let latency = started.elapsed().as_nanos() as u64;
        if let Some(log) = &mut self.spans {
            let record = span.and_then(trace::OpSpan::finish);
            log.ops.push(OpSpan {
                class: op.class(),
                start_ns,
                end_ns: start_ns + latency,
                phase_ns: record.map_or([0; Phase::COUNT], |r| r.phase_ns),
            });
        }
        let outcome = reply.map_err(errstr).and_then(|got| self.check(ns, op, got));
        if outcome.is_ok() {
            ns.apply(op);
        }
        (latency, outcome)
    }

    /// The timed part of an op.  Returns a number to check: bytes read,
    /// entries listed, or the size `stat` reported.
    fn syscalls(&mut self, vfs: &Vfs, op: &Op) -> KernelResult<u64> {
        let pool = self.pool;
        let wronly_creat = OpenFlags::WRONLY.with(OpenFlags::CREAT);
        match op {
            Op::Deliver { path, pool_off, len, victim } => {
                let fd = self.sys(vfs, Call::Open, |v, _| v.open(path, wronly_creat))?;
                let data = pool.slice(*pool_off, *len);
                self.sys(vfs, Call::Write, |v, _| v.write(fd, data))?;
                self.sys(vfs, Call::Fsync, |v, _| v.fsync(fd))?;
                self.sys(vfs, Call::Close, |v, _| v.close(fd))?;
                self.sys(vfs, Call::Unlink, |v, _| v.unlink(victim))?;
                self.bytes_written += *len as u64;
                Ok(0)
            }
            Op::AppendSync { path, pool_off, len } => {
                let flags = OpenFlags::WRONLY.with(OpenFlags::APPEND);
                let fd = self.sys(vfs, Call::Open, |v, _| v.open(path, flags))?;
                let data = pool.slice(*pool_off, *len);
                self.sys(vfs, Call::Write, |v, _| v.write(fd, data))?;
                self.sys(vfs, Call::Fsync, |v, _| v.fsync(fd))?;
                self.sys(vfs, Call::Close, |v, _| v.close(fd))?;
                self.bytes_written += *len as u64;
                Ok(0)
            }
            Op::ReadWhole { path } => {
                let fd = self.sys(vfs, Call::Open, |v, _| v.open(path, OpenFlags::RDONLY))?;
                let mut done = 0usize;
                loop {
                    let n = self
                        .sys(vfs, Call::Read, |v, buf| v.read(fd, &mut buf[done..done + CHUNK]))?;
                    done += n;
                    if n == 0 || done + CHUNK > SCRATCH {
                        break;
                    }
                }
                self.sys(vfs, Call::Close, |v, _| v.close(fd))?;
                Ok(done as u64)
            }
            Op::Stat { path } => Ok(self.sys(vfs, Call::Stat, |v, _| v.stat(path))?.size),
            Op::Pread { off, len } => {
                let fd = self.big_fd(vfs)?;
                let n = *len as usize;
                Ok(self.sys(vfs, Call::Read, |v, buf| v.pread(fd, &mut buf[..n], *off))? as u64)
            }
            Op::Pwrite { off, pool_page, pages } => {
                let fd = self.big_fd(vfs)?;
                let data = pool.pages(*pool_page, *pages);
                self.bytes_written += data.len() as u64;
                Ok(self.sys(vfs, Call::Write, |v, _| v.pwrite(fd, data, *off))? as u64)
            }
            Op::FsyncBig => {
                let fd = self.big_fd(vfs)?;
                self.sys(vfs, Call::Fsync, |v, _| v.fsync(fd)).map(|()| 0)
            }
            Op::Mkdir { path } => self.sys(vfs, Call::Mkdir, |v, _| v.mkdir(path)).map(|()| 0),
            Op::Create { path, pool_off, len } => {
                let fd = self.sys(vfs, Call::Open, |v, _| v.open(path, wronly_creat))?;
                if *len > 0 {
                    let data = pool.slice(*pool_off, *len);
                    self.sys(vfs, Call::Write, |v, _| v.write(fd, data))?;
                    self.bytes_written += *len as u64;
                }
                self.sys(vfs, Call::Close, |v, _| v.close(fd))?;
                Ok(0)
            }
            Op::Sync => self.sys(vfs, Call::Sync, |v, _| v.sync()).map(|()| 0),
            Op::Readdir { path, .. } => {
                let entries = self.sys(vfs, Call::Readdir, |v, _| v.readdir(path))?;
                Ok(entries.iter().filter(|e| e.name != "." && e.name != "..").count() as u64)
            }
            Op::Rename { from, to } => {
                self.sys(vfs, Call::Rename, |v, _| v.rename(from, to)).map(|()| 0)
            }
            Op::Unlink { path } => self.sys(vfs, Call::Unlink, |v, _| v.unlink(path)).map(|()| 0),
            Op::Rmdir { path } => self.sys(vfs, Call::Rmdir, |v, _| v.rmdir(path)).map(|()| 0),
        }
    }

    /// The untimed part: was the reply what the model says it must be?
    fn check(&mut self, ns: &Namespace, op: &Op, got: u64) -> Result<(), String> {
        let expect_len = |got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{op:?}: got {got}, expected {want}"))
            }
        };
        let content = |path: &str| {
            ns.files.get(path).ok_or_else(|| format!("{op:?}: file is not in the model"))
        };
        let mut read_back = |content: &Content, off: u64, got: u64| {
            self.pages_read += got.div_ceil(PAGE as u64);
            if content.matches(self.pool, off, &self.scratch[..got as usize]) {
                Ok(())
            } else {
                Err(format!("{op:?}: content differs from what was written"))
            }
        };
        match op {
            Op::ReadWhole { path } => {
                let content = content(path)?;
                expect_len(got, content.len())?;
                read_back(content, 0, got)
            }
            Op::Stat { path } => expect_len(got, content(path)?.len()),
            Op::Pread { off, len } => {
                expect_len(got, *len as u64)?;
                read_back(content(BIG_FILE)?, *off, got)
            }
            Op::Pwrite { pages, .. } => expect_len(got, *pages as u64 * PAGE as u64),
            Op::Readdir { entries, .. } => expect_len(got, *entries as u64),
            _ => Ok(()),
        }
    }
}

/// One stack's test bed: its disk image, its op stream, and the model of
/// what the image must contain.  The stream and the model carry on from
/// segment to segment; the mounts do not.
pub struct Bed {
    pub stack: Stack,
    pub image: Arc<RamDisk>,
    pub gen: Generator,
    pub ns: Namespace,
}

/// mkfs, mount on a delay-free device, populate, unmount.  The image is
/// populated once and shared by every later mount of this bed.
pub fn prepare(
    stack: Stack,
    workload: Workload,
    seed: u64,
    small: bool,
    pool: &Pool,
    tally: &mut Tally,
) -> KernelResult<Bed> {
    let image = Arc::new(RamDisk::new(PAGE as u32, workload.disk_blocks()));
    // Touch every block once so the image's memory is resident: otherwise
    // the first write to each block takes a page fault inside a measured op.
    let zero = [0u8; PAGE];
    for block in 0..workload.disk_blocks() {
        simkernel::dev::BlockDevice::write_block(&*image, block, &zero)?;
    }
    stacks::mkfs(stack, &image)?;
    let mut bed =
        Bed { stack, image, gen: Generator::new(workload, seed, small), ns: Namespace::default() };
    let mounted = stacks::mount(stack, &bed.image, CostModel::zero())?;
    let mut client = Client::new(pool, false);
    for op in bed.gen.populate(pool) {
        let (_, outcome) = client.run(&mounted.vfs, &mut bed.ns, &op);
        tally.check("populate", outcome);
    }
    client.close_files(&mounted.vfs)?;
    mounted.vfs.unmount("/")?;
    Ok(bed)
}

/// Hooks into a pass, for work that must happen at fixed points of the op
/// stream (the live-upgrade probe fires `BentoFs::upgrade` from them).
pub trait Observer {
    /// Before op number `index` of the pass is issued on `mounted`.
    fn before_op(&mut self, _mounted: &Mounted, _index: u64) {}
    /// After the last op of a unit, before any remount.
    fn unit_done(&mut self) {}
}

/// The observer of an ordinary pass.
pub struct Unobserved;
impl Observer for Unobserved {}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    pub ops: u64,
    /// Per segment: op count and the sum of its op latencies.
    pub segments: Vec<(u64, u64)>,
    /// Latency of every op, in stream order.
    pub latencies_ns: Vec<u64>,
    /// Public counters of the program over the measured region.
    pub counters: Counters,
    pub calls: u64,
    pub bytes_written: u64,
    pub pages_read: u64,
    /// In a traced pass, one span log per segment.
    pub spans: Vec<SpanLog>,
    /// Segments that ended with a dropped mount and a recovery
    /// ([`Ending::Crash`]).
    pub recoveries: u32,
}

impl PassResult {
    /// Appends the measurements of the next segment of the same pass.
    pub fn absorb(&mut self, part: PassResult) {
        self.ops += part.ops;
        self.segments.extend(part.segments);
        self.latencies_ns.extend(part.latencies_ns);
        self.counters += part.counters;
        self.calls += part.calls;
        self.bytes_written += part.bytes_written;
        self.pages_read += part.pages_read;
        self.spans.extend(part.spans);
        self.recoveries += part.recoveries;
    }

    /// Per-segment values of `f(ops, latency_sum_ns)`.
    pub fn per_segment(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        self.segments.iter().map(|&(ops, ns)| f(ops as f64, ns as f64)).collect()
    }

    /// Per-segment latency percentile `p`, in microseconds.  A metric takes
    /// the good quartile of these, so a slow stretch of the machine moves
    /// some segments' values and not the metric.
    pub fn segment_percentiles_us(&self, p: f64) -> Vec<f64> {
        let mut from = 0usize;
        self.segments
            .iter()
            .map(|&(ops, _)| {
                let mut sorted = self.latencies_ns[from..from + ops as usize].to_vec();
                from += ops as usize;
                sorted.sort_unstable();
                crate::stats::percentile(&sorted, p) as f64 / 1e3
            })
            .collect()
    }
}

/// How a segment's mount ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// The tree must match the model; then unmount and run the stack's
    /// offline checker over the image.
    Clean,
    /// The mount is lost: no sync, no unmount — page, buffer and inode
    /// caches are gone.  The image is mounted again (recovery runs) and
    /// every file whose last fsync was acknowledged must be there with the
    /// acknowledged bytes, and every unlinked file must have stayed gone.
    Crash,
}

/// What to run on one mount.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    pub model: &'a CostModel,
    /// Record spans (the program's tracing on, the benchmark's own spans).
    pub traced: bool,
    pub units: u32,
    pub ending: Ending,
    /// Names the stack and pass in failure messages.
    pub context: &'a str,
}

/// Runs one segment of the bed's stream.  Every segment gets a fresh mount
/// of the image — cold page, buffer and inode caches — warmed up by the
/// workload's unmeasured prefix; only the measured ops run on the modelled
/// side of the device (`cold_scan` also remounts before every unit).  A
/// pass is several segments and its metrics are quartiles over them, so one
/// mount's memory layout or one slow second moves a sample, not the metric.
pub fn run_segment(
    bed: &mut Bed,
    pool: &Pool,
    segment: Segment,
    observer: &mut dyn Observer,
    tally: &mut Tally,
) -> KernelResult<PassResult> {
    let mut mounted = stacks::mount(bed.stack, &bed.image, segment.model.clone())?;
    // The warm-up has its own client: its calls are not the pass's.
    let mut client = Client::new(pool, false);
    for op in bed.gen.warmup(pool) {
        let (_, outcome) = client.run(&mounted.vfs, &mut bed.ns, &op);
        tally.check("warm-up", outcome);
    }
    client.close_files(&mounted.vfs)?;

    let mut client = Client::new(pool, segment.traced);
    let tracing = segment.traced.then(trace::enable);
    let mut result = PassResult::default();
    let mut latency_sum = 0u64;
    for unit in 0..segment.units {
        if bed.gen.remount_each_unit() {
            client.close_files(&mounted.vfs)?;
            mounted.vfs.unmount("/")?;
            mounted = stacks::mount(bed.stack, &bed.image, segment.model.clone())?;
        }
        let mut ops = bed.gen.unit(pool);
        if unit + 1 == segment.units {
            ops.extend(bed.gen.segment_end());
        }
        let before = mounted.counters();
        mounted.dev.set_modelled(true);
        for op in &ops {
            observer.before_op(&mounted, result.latencies_ns.len() as u64);
            let (latency, outcome) = client.run(&mounted.vfs, &mut bed.ns, op);
            tally.check(segment.context, outcome);
            result.latencies_ns.push(latency);
            latency_sum += latency;
        }
        observer.unit_done();
        mounted.dev.set_modelled(false);
        result.counters += mounted.counters() - before;
        if segment.traced {
            // Keep the program's per-thread span rings from overflowing;
            // each op's record was already taken when its span finished.
            trace::drain();
        }
    }
    drop(tracing);
    client.close_files(&mounted.vfs)?;
    result.ops = result.latencies_ns.len() as u64;
    result.segments.push((result.ops, latency_sum));
    result.calls = client.calls;
    result.bytes_written = client.bytes_written;
    result.pages_read = client.pages_read;
    result.spans.extend(client.spans.take());

    let mounted = match segment.ending {
        Ending::Clean => {
            verify_tree(&mounted.vfs, &bed.ns, pool, false, segment.context, tally);
            mounted
        }
        Ending::Crash => {
            drop(mounted);
            let recovered = stacks::mount(bed.stack, &bed.image, CostModel::zero())?;
            result.recoveries = 1;
            verify_tree(&recovered.vfs, &bed.ns, pool, true, segment.context, tally);
            // A file that came back is unlinked again so the model stays exact.
            for path in &bed.ns.unsynced_unlinks {
                if recovered.vfs.exists(path) {
                    recovered.vfs.unlink(path)?;
                }
            }
            recovered
        }
    };
    check_image(mounted, segment.context, tally)?;
    Ok(result)
}

fn check_image(mounted: Mounted, context: &str, tally: &mut Tally) -> KernelResult<()> {
    let violations = mounted.unmount_and_check()?;
    tally.check(
        context,
        if violations.is_empty() { Ok(()) } else { Err(format!("fsck: {violations:?}")) },
    );
    Ok(())
}

/// Compares the mounted tree with the model: every directory and file of
/// the model is present with the right size and bytes, and nothing else is.
/// `after_crash` tolerates the files unlinked since the last fsync.
pub fn verify_tree(
    vfs: &Vfs,
    ns: &Namespace,
    pool: &Pool,
    after_crash: bool,
    context: &str,
    tally: &mut Tally,
) {
    let mut found_dirs = Vec::new();
    let mut found_files = Vec::new();
    let mut pending = vec![String::new()];
    while let Some(dir) = pending.pop() {
        let listing = match vfs.readdir(if dir.is_empty() { "/" } else { &dir }) {
            Ok(listing) => listing,
            Err(e) => {
                tally.fail(format!("{context}: readdir {dir}/: {e}"));
                continue;
            }
        };
        for entry in listing {
            if entry.name == "." || entry.name == ".." {
                continue;
            }
            let path = format!("{dir}/{}", entry.name);
            if entry.kind == FileType::Directory {
                pending.push(path.clone());
                found_dirs.push(path);
            } else {
                found_files.push(path);
            }
        }
    }
    for path in &found_dirs {
        if !ns.dirs.contains(path) {
            tally.fail(format!("{context}: stray directory {path}"));
        }
    }
    for path in &found_files {
        let excused = after_crash && ns.unsynced_unlinks.contains(path);
        if !ns.files.contains_key(path) && !excused {
            tally.fail(format!("{context}: stray file {path}"));
        }
    }
    for path in &ns.dirs {
        let present = found_dirs.contains(path);
        tally.check(context, present.then_some(()).ok_or(format!("directory {path} is missing")));
    }
    let mut buf = vec![0u8; CHUNK];
    for (path, content) in &ns.files {
        tally.check(context, verify_file(vfs, path, content, pool, &mut buf));
    }
}

fn verify_file(
    vfs: &Vfs,
    path: &str,
    content: &Content,
    pool: &Pool,
    buf: &mut [u8],
) -> Result<(), String> {
    let size = vfs.stat(path).map_err(|e| format!("stat {path}: {e}"))?.size;
    if size != content.len() {
        return Err(format!("{path}: size {size}, expected {}", content.len()));
    }
    let fd = vfs.open(path, OpenFlags::RDONLY).map_err(|e| format!("open {path}: {e}"))?;
    let mut offset = 0u64;
    let outcome = loop {
        match vfs.read(fd, buf) {
            Ok(0) => break (offset == size).then_some(()).ok_or(format!("{path}: short read")),
            Ok(n) if content.matches(pool, offset, &buf[..n]) => offset += n as u64,
            Ok(_) => break Err(format!("{path}: content differs at offset {offset}")),
            Err(e) => break Err(format!("read {path}: {e}")),
        }
    };
    vfs.close(fd).map_err(|e| format!("close {path}: {e}"))?;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A populated `mail_sync` bed on `stack`, mounted.
    fn mounted_bed(stack: Stack, pool: &Pool) -> (Bed, Mounted) {
        let mut tally = Tally::default();
        let bed = prepare(stack, Workload::MailSync, 9, false, pool, &mut tally).unwrap();
        assert_eq!(tally.failed, 0);
        let mounted = stacks::mount(stack, &bed.image, CostModel::zero()).unwrap();
        (bed, mounted)
    }

    #[test]
    fn a_correct_tree_verifies_clean() {
        let pool = Pool::new(9);
        for stack in Stack::ALL {
            let (bed, mounted) = mounted_bed(stack, &pool);
            let mut tally = Tally::default();
            verify_tree(&mounted.vfs, &bed.ns, &pool, false, "test", &mut tally);
            assert_eq!(tally.failed, 0, "{stack:?}: {:?}", tally.messages);
            assert_eq!(tally.attempted as usize, bed.ns.files.len() + bed.ns.dirs.len());
            assert!(mounted.unmount_and_check().unwrap().is_empty());
        }
    }

    #[test]
    fn verification_has_teeth() {
        let pool = Pool::new(9);
        let (mut bed, mounted) = mounted_bed(Stack::Bento, &pool);

        // A wrong expectation of one file's bytes is reported...
        let path = bed.ns.files.keys().next().unwrap().clone();
        let Some(Content::Extents(ext)) = bed.ns.files.get_mut(&path) else { panic!("mail file") };
        let honest = ext[0];
        ext[0].0 += 1;
        let mut tally = Tally::default();
        verify_tree(&mounted.vfs, &bed.ns, &pool, false, "test", &mut tally);
        assert_eq!(tally.failed, 1, "{:?}", tally.messages);
        assert!(tally.messages[0].contains("content differs"), "{:?}", tally.messages);
        let Some(Content::Extents(ext)) = bed.ns.files.get_mut(&path) else { panic!("mail file") };
        ext[0] = honest;

        // ...and so are a planted stray file, a missing file and a wrong size.
        let fd = mounted.vfs.open("/m0/stray", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        mounted.vfs.close(fd).unwrap();
        mounted.vfs.unlink(&path).unwrap();
        let other = bed.ns.files.keys().nth(1).unwrap().clone();
        mounted.vfs.truncate(&other, 1).unwrap();
        let mut tally = Tally::default();
        verify_tree(&mounted.vfs, &bed.ns, &pool, false, "test", &mut tally);
        assert_eq!(tally.failed, 3, "{:?}", tally.messages);
        let all = tally.messages.join("\n");
        assert!(all.contains("stray file /m0/stray") && all.contains("size 1"), "{all}");
    }

    #[test]
    fn a_failed_op_is_counted_and_does_not_advance_the_model() {
        let pool = Pool::new(9);
        let (mut bed, mounted) = mounted_bed(Stack::Ext4, &pool);
        let before = bed.ns.clone();
        let mut client = Client::new(&pool, false);
        let op = Op::Unlink { path: "/m0/never-created".into() };
        let (_, outcome) = client.run(&mounted.vfs, &mut bed.ns, &op);
        assert!(outcome.is_err());
        assert_eq!(bed.ns, before);
        // A read that returns the wrong bytes fails its check.
        let path = bed.ns.files.keys().next().unwrap().clone();
        bed.ns.files.insert(path.clone(), Content::Extents(vec![(0, 10)]));
        let (_, outcome) = client.run(&mounted.vfs, &mut bed.ns, &Op::ReadWhole { path });
        assert!(outcome.unwrap_err().contains("expected 10"));
    }

    #[test]
    fn a_dropped_mount_keeps_every_fsynced_file() {
        let pool = Pool::new(9);
        for stack in [Stack::Bento, Stack::CKernel, Stack::Ext4] {
            let mut tally = Tally::default();
            let mut bed = prepare(stack, Workload::MailSync, 9, false, &pool, &mut tally).unwrap();
            let segment = Segment {
                model: &stacks::nvme(false),
                traced: false,
                units: 5,
                ending: Ending::Crash,
                context: "test",
            };
            let result =
                run_segment(&mut bed, &pool, segment, &mut Unobserved, &mut tally).unwrap();
            assert_eq!(result.ops, 100);
            assert_eq!(tally.failed, 0, "{stack:?}: {:?}", tally.messages);
            assert_eq!(bed.ns.files.len(), 256);
        }
    }
}
