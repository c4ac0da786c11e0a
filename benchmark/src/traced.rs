//! The traced run: per-layer metrics.
//!
//! Layers are measured from outside.  "In-workload" numbers come from a
//! traced pass of the same op stream on Bento and C-Kernel: the benchmark's
//! own span around every call into `simkernel::vfs`, the program's phase
//! attribution of each op (`SpanRecord::phase_ns`, read off the op span the
//! benchmark opens), and before/after deltas of the public stats structs.
//! Bento first runs the same length untraced on a fresh mount; the
//! difference between the two is the tracing overhead.  End-to-end metrics
//! never come from here.  Isolated costs of each layer's public API come
//! from `probes`.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use bento::upgrade::UpgradeReport;
use bento::BentoFs;
use simkernel::error::KernelResult;
use simkernel::trace::{self, Phase};
use xv6fs::Xv6FileSystem;

use crate::exec::{
    self, Bed, Call, Ending, Observer, OpSpan, PassResult, Segment, SpanLog, Tally, Unobserved,
};
use crate::model::{Pool, PAGE};
use crate::probes;
use crate::run::{is_quick, metric, plan, scaled, Metric, SEGMENTS};
use crate::stacks::{self, Handle, Mounted, Stack};
use crate::stats::{good_quartile, median, percentile, Better};
use crate::workloads::Workload;
use crate::BenchResult;

/// Live upgrades fired during the tail of the Bento traced pass.
const UPGRADES: usize = 11;
/// Ops between two upgrade requests.
const UPGRADE_EVERY: u64 = 40;

/// Fires `BentoFs::upgrade` from a second thread at fixed op indices.
struct Upgrader {
    requests: Sender<Arc<BentoFs>>,
    reports: Receiver<KernelResult<UpgradeReport>>,
    fired: usize,
    outstanding: bool,
    done: Vec<KernelResult<UpgradeReport>>,
}

impl Upgrader {
    fn collect(&mut self, wait: bool) {
        if !self.outstanding {
            return;
        }
        let report = if wait { self.reports.recv().ok() } else { self.reports.try_recv().ok() };
        if let Some(report) = report {
            self.done.push(report);
            self.outstanding = false;
        }
    }
}

impl Observer for Upgrader {
    fn before_op(&mut self, mounted: &Mounted, index: u64) {
        self.collect(false);
        let Handle::Bento(fs) = &mounted.handle else { return };
        if index.is_multiple_of(UPGRADE_EVERY) && self.fired < UPGRADES && !self.outstanding {
            self.outstanding = self.requests.send(Arc::clone(fs)).is_ok();
            self.fired += 1;
        }
    }

    /// An upgrade must not outlive its mount (`cold_scan` remounts).
    fn unit_done(&mut self) {
        self.collect(true);
    }
}

/// Runs one segment of the stream while [`UPGRADES`] new
/// `Xv6FileSystem` instances are swapped in underneath it.
fn upgrade_segment(
    bed: &mut Bed,
    pool: &Pool,
    tally: &mut Tally,
) -> KernelResult<Vec<KernelResult<UpgradeReport>>> {
    let ops_needed = UPGRADE_EVERY * (UPGRADES as u64 + 1);
    let segment = Segment {
        model: &stacks::nvme(true),
        traced: false,
        units: ops_needed.div_ceil(bed.gen.unit_ops() as u64) as u32,
        ending: Ending::Clean,
        context: "bento upgrades",
    };
    let (requests, inbox) = channel::<Arc<BentoFs>>();
    let (outbox, reports) = channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for fs in inbox {
                if outbox.send(fs.upgrade(Box::new(Xv6FileSystem::new()))).is_err() {
                    break;
                }
            }
        });
        let mut upgrader =
            Upgrader { requests, reports, fired: 0, outstanding: false, done: Vec::new() };
        exec::run_segment(bed, pool, segment, &mut upgrader, tally)?;
        // Dropping the upgrader closes the request channel and ends the thread.
        Ok(upgrader.done)
    })
}

fn ops_per_s(pass: &PassResult) -> f64 {
    good_quartile(&pass.per_segment(|ops, ns| ops * 1e9 / ns), Better::Higher)
}

fn percentile_us(pass: &PassResult, p: f64) -> f64 {
    let mut sorted = pass.latencies_ns.clone();
    sorted.sort_unstable();
    percentile(&sorted, p) as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn op_spans(logs: &[SpanLog]) -> impl Iterator<Item = &OpSpan> {
    logs.iter().flat_map(|log| &log.ops)
}

/// Microseconds per op the program attributed to `phase`.
fn phase_us_per_op(logs: &[SpanLog], phase: Phase) -> f64 {
    let total: u64 = op_spans(logs).map(|op| op.phase_ns[phase.index()]).sum();
    total as f64 / 1e3 / op_spans(logs).count() as f64
}

/// 1 - attributed / total over the op spans: the share of op time the
/// program's phases do not explain.
fn other_share(logs: &[SpanLog]) -> f64 {
    let total: u64 = op_spans(logs).map(|op| op.end_ns - op.start_ns).sum();
    let attributed: u64 = op_spans(logs).map(|op| op.phase_ns.iter().sum::<u64>()).sum();
    1.0 - ratio(attributed.min(total), total)
}

/// The journal's in-workload metrics; `suffix` is `""` or `"_ckernel"`.
fn journal_metrics(pass: &PassResult, suffix: &str, out: &mut Vec<Metric>) {
    let c = &pass.counters;
    let log = &pass.spans;
    out.push(metric(format!("journal.commits_per_op{suffix}"), ratio(c.commits, pass.ops), "1/op"));
    out.push(metric(
        format!("journal.blocks_per_commit{suffix}"),
        ratio(c.log_blocks, c.commits),
        "count",
    ));
    out.push(metric(
        format!("journal.barriers_per_commit{suffix}"),
        ratio(c.barriers, c.commits),
        "count",
    ));
    for (name, phase) in [
        ("reserve", Phase::LogReserve),
        ("stage", Phase::LogStage),
        ("commit_wait", Phase::CommitWait),
    ] {
        out.push(metric(
            format!("journal.{name}_us_per_op{suffix}"),
            phase_us_per_op(log, phase),
            "us/op",
        ));
    }
}

/// Where span files go: `results/` beside the benchmark's manifest.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Writes the spans kept in memory during the run: one JSON object per
/// segment (= per mount) of each traced pass.
fn write_spans(workload: Workload, passes: &[(&str, &[SpanLog])]) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}.json", workload.name()));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        file,
        "{{\"workload\": \"{}\", \"time_unit\": \"ns since segment start\",",
        workload.name()
    )?;
    let phases: Vec<String> = Phase::ALL.iter().map(|p| format!("\"{}\"", p.label())).collect();
    writeln!(file, " \"phases\": [{}], \"segments\": [", phases.join(", "))?;
    let segments: Vec<(&str, usize, &SpanLog)> = passes
        .iter()
        .flat_map(|(stack, logs)| logs.iter().enumerate().map(move |(n, log)| (*stack, n, log)))
        .collect();
    for (i, (stack, n, log)) in segments.iter().enumerate() {
        writeln!(file, "  {{\"stack\": \"{stack}\", \"segment\": {n},")?;
        // Op spans are the roots; `phase_ns` is the program's own exclusive
        // attribution of the op, in the order of `phases`.
        writeln!(file, "   \"ops\": [")?;
        for (id, op) in log.ops.iter().enumerate() {
            let sep = if id + 1 == log.ops.len() { "" } else { "," };
            writeln!(
                file,
                "    {{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"phase_ns\": {:?}}}{sep}",
                op.class, op.start_ns, op.end_ns, op.phase_ns
            )?;
        }
        // Call spans: one per call into simkernel::vfs, caused by op `parent`.
        writeln!(file, "   ], \"calls\": [")?;
        for (n, call) in log.calls.iter().enumerate() {
            let sep = if n + 1 == log.calls.len() { "" } else { "," };
            writeln!(
                file,
                "    {{\"parent\": {}, \"name\": \"vfs.{}\", \"start\": {}, \"end\": {}}}{sep}",
                call.op,
                call.call.name(),
                call.start_ns,
                call.end_ns
            )?;
        }
        writeln!(file, "   ]}}{}", if i + 1 == segments.len() { "" } else { "," })?;
    }
    writeln!(file, " ]}}")?;
    file.flush()?;
    Ok(path)
}

/// A pass of `count` segments like `segment`.
fn repeated(
    bed: &mut Bed,
    pool: &Pool,
    segment: Segment,
    count: u32,
    tally: &mut Tally,
) -> KernelResult<PassResult> {
    let mut pass = PassResult::default();
    for _ in 0..count {
        pass.absorb(exec::run_segment(bed, pool, segment, &mut Unobserved, tally)?);
    }
    Ok(pass)
}

/// Runs the traced passes and every probe; returns the per-layer metrics
/// (in no particular order) and where the spans were written.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> BenchResult<(Vec<Metric>, PathBuf)> {
    let pool = Pool::new(seed);
    let mut out = Vec::new();
    let pinned = crate::affinity::pin_to_one_cpu();
    let quick = is_quick(seconds);
    let count = if quick { 1 } else { SEGMENTS };
    let prepare = |stack: Stack, tally: &mut Tally| {
        exec::prepare(stack, workload, seed, stack.small() || quick, &pool, tally)
    };
    let (timed_model, counting_model) = (stacks::nvme(true), stacks::nvme(false));
    let timed = |stack: Stack, traced: bool, context: &'static str| Segment {
        model: &timed_model,
        traced,
        units: scaled(plan(workload, stack).timed_units, seconds),
        ending: Ending::Clean,
        context,
    };

    // Bento: untraced reference, then the same length traced, then one
    // more segment under live upgrades.
    let mut bed = prepare(Stack::Bento, tally)?;
    let segment = timed(Stack::Bento, false, "bento reference");
    let reference = repeated(&mut bed, &pool, segment, count, tally)?;
    trace::reset();
    let segment = timed(Stack::Bento, true, "bento traced");
    let bento = repeated(&mut bed, &pool, segment, count, tally)?;
    let failed_before = tally.failed;
    let upgrades = upgrade_segment(&mut bed, &pool, tally)?;
    let upgrade_failed_ops = tally.failed - failed_before;

    let mut bed = prepare(Stack::CKernel, tally)?;
    let segment = timed(Stack::CKernel, true, "ckernel traced");
    let ckernel = repeated(&mut bed, &pool, segment, count, tally)?;
    let dropped_spans = trace::dropped();

    let log = &bento.spans;
    let ops = bento.ops;
    let c = bento.counters;

    // simkernel::vfs — mean time inside each entry point, as the workload
    // calls it (0 where the workload never does).
    for call in Call::ALL {
        if matches!(call, Call::Rmdir | Call::Sync) {
            continue;
        }
        let spans: Vec<u64> = log
            .iter()
            .flat_map(|l| &l.calls)
            .filter(|s| s.call == call)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        let mean_us = ratio(spans.iter().sum(), spans.len() as u64) / 1e3;
        out.push(metric(format!("vfs.{}_us", call.name()), mean_us, "us"));
    }
    out.push(metric("vfs.calls_per_op", ratio(bento.calls, ops), "1/op"));

    // simkernel::pagecache.  The fill ratio divides by the pages the
    // stream's reads touched, not by `PageCacheStats::read_hits`, which
    // counts bytes while `read_fills` counts pages.
    out.push(metric("pagecache.read_fills_per_op", ratio(c.pc_fills, ops), "1/op"));
    out.push(metric("pagecache.fill_ratio", ratio(c.pc_fills, bento.pages_read), "ratio"));
    out.push(metric(
        "pagecache.writeback_batches_per_op",
        ratio(c.pc_writeback_batches, ops),
        "1/op",
    ));
    out.push(metric(
        "pagecache.pages_per_writeback_batch",
        ratio(c.pc_writeback_pages, c.pc_writeback_batches),
        "count",
    ));

    // bento::bentofs.
    out.push(metric("bentofs.dispatches_per_op", ratio(c.bento_dispatches, ops), "1/op"));
    let pauses: Vec<f64> =
        upgrades.iter().filter_map(|r| r.as_ref().ok()).map(|r| r.pause_ns as f64 / 1e3).collect();
    let failed_upgrades = (UPGRADES - pauses.len()) as u64;
    for _ in 0..failed_upgrades {
        tally.fail("live upgrade failed or was never served".into());
    }
    tally.ok(pauses.len() as u64);
    out.push(metric(
        "bentofs.upgrade_pause_us",
        if pauses.is_empty() { 0.0 } else { median(&pauses) },
        "us",
    ));
    out.push(metric(
        "bentofs.upgrade_failed_ops",
        (upgrade_failed_ops + failed_upgrades) as f64,
        "count",
    ));

    // journal, simkernel::nslock, simkernel::dev.
    journal_metrics(&bento, "", &mut out);
    journal_metrics(&ckernel, "_ckernel", &mut out);
    out.push(metric("nslock.wait_us_per_op", phase_us_per_op(log, Phase::NsLock), "us/op"));
    out.push(metric("dev.reads_per_op", ratio(c.dev_reads, ops), "1/op"));
    out.push(metric("dev.writes_per_op", ratio(c.dev_writes, ops), "1/op"));
    out.push(metric("dev.flushes_per_op", ratio(c.dev_flushes, ops), "1/op"));
    out.push(metric(
        "dev.write_amplification",
        ratio(c.dev_writes * PAGE as u64, bento.bytes_written),
        "ratio",
    ));
    out.push(metric("dev.io_us_per_op", phase_us_per_op(log, Phase::DevIo), "us/op"));

    // simkernel::trace.
    let overhead = (ops_per_s(&reference) - ops_per_s(&bento)) / ops_per_s(&reference) * 100.0;
    out.push(metric("trace.overhead_pct", overhead, "%"));
    out.push(metric("trace.other_share", other_share(log), "ratio"));
    out.push(metric("trace.other_share_ckernel", other_share(&ckernel.spans), "ratio"));
    out.push(metric("trace.dropped_spans", dropped_spans as f64, "count"));

    // Tails: context, not gated.  C-Kernel's is from its traced pass.
    out.push(metric("tail.bento_p99_us", percentile_us(&reference, 99.0), "us"));
    out.push(metric("tail.bento_max_us", percentile_us(&reference, 100.0), "us"));
    out.push(metric("tail.ckernel_p99_us", percentile_us(&ckernel, 99.0), "us"));

    // fusesim and ext4sim: their counters over one `sw`-sized segment
    // (delays accounted, not injected).
    let counted = |stack: Stack, context: &'static str| Segment {
        model: &counting_model,
        traced: false,
        units: scaled(plan(workload, stack).sw_units, seconds),
        ending: Ending::Clean,
        context,
    };
    let mut bed = prepare(Stack::Fuse, tally)?;
    let fuse = repeated(&mut bed, &pool, counted(Stack::Fuse, "fuse counted"), 1, tally)?;
    let fc = fuse.counters;
    out.push(metric("fusesim.round_trips_per_op", ratio(fc.fuse_round_trips, fuse.ops), "1/op"));
    out.push(metric("fusesim.crossings_per_op", ratio(fc.fuse_crossings, fuse.ops), "1/op"));
    out.push(metric(
        "fusesim.whole_file_syncs_per_op",
        ratio(fc.fuse_whole_file_syncs, fuse.ops),
        "1/op",
    ));
    let mut bed = prepare(Stack::Ext4, tally)?;
    let ext4 = repeated(&mut bed, &pool, counted(Stack::Ext4, "ext4 counted"), 1, tally)?;
    out.push(metric("ext4sim.commits_per_op", ratio(ext4.counters.commits, ext4.ops), "1/op"));
    out.push(metric(
        "ext4sim.blocks_journaled_per_op",
        ratio(ext4.counters.log_blocks, ext4.ops),
        "1/op",
    ));

    // Each layer's public API in isolation, then the two-client probes,
    // which need both CPUs.
    out.extend(probes::isolated(seconds)?);
    drop(pinned);
    out.extend(probes::two_clients(seed, seconds, tally)?);

    let path = write_spans(workload, &[("bento", log), ("ckernel", &ckernel.spans)])?;
    Ok((out, path))
}
