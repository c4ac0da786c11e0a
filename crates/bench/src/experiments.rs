//! The experiments: one function per table / figure of the paper.  Every
//! measured point is a seeded [`WorkloadSpec`] run for a fixed op count on
//! the `loadgen` driver.

use std::fmt;

use simkernel::cost::CostModel;
use simkernel::error::KernelError;
use simkernel::trace::{self, Phase};
use simkernel::vfs::WritePathStats;

use bugdb::BugStudy;
use loadgen::{AccessPattern, LoadConfig, LoadError, LoadResult, WorkloadSpec};
use workloads::{generate_linux_like_manifest, mount_stack, untar, FsStack, MountedStack};

use crate::report::Row;

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The op count each worker runs per measured configuration.  Create
    /// loops run half of it, the macrobenchmarks all of it, cheaper loops
    /// a multiple (see each experiment).
    pub ops: u64,
    /// Thread count for the "32 thread" configurations.
    pub threads_high: usize,
    /// Device/boundary cost model.
    pub model: CostModel,
    /// Disk size in 4 KiB blocks.
    pub disk_blocks: u64,
    /// Size of the file used by the read/write microbenchmarks, in bytes.
    pub micro_file_size: u64,
    /// Files per thread for varmail / fileserver; threads used for macros.
    pub macro_files_per_thread: usize,
    /// Threads for the macrobenchmarks.
    pub macro_threads: usize,
    /// Files in the synthetic untar manifest.
    pub untar_files: usize,
}

impl ExperimentConfig {
    /// The full configuration used for EXPERIMENTS.md numbers.
    pub fn full() -> Self {
        ExperimentConfig {
            ops: 2_000,
            threads_high: 32,
            model: CostModel::nvme_ssd(),
            disk_blocks: 96 * 1024, // 384 MiB
            micro_file_size: 24 * 1024 * 1024,
            macro_files_per_thread: 50,
            macro_threads: 8,
            untar_files: 350,
        }
    }

    /// A scaled-down configuration for smoke tests and `cargo bench`.
    pub fn quick() -> Self {
        ExperimentConfig {
            ops: 500,
            threads_high: 8,
            model: CostModel::nvme_ssd_scaled(4),
            disk_blocks: 48 * 1024,
            micro_file_size: 8 * 1024 * 1024,
            macro_files_per_thread: 15,
            macro_threads: 4,
            untar_files: 120,
        }
    }

    /// Files per worker at a create or delete point of `threads` workers
    /// (created, or precreated and then deleted): half the base count, but
    /// at most [`CREATE_POINT_FILES`] over all workers, so every point fits
    /// the standard mount's 8 192-inode table.
    fn file_point_ops(&self, threads: usize) -> u64 {
        (self.ops / 2).min(CREATE_POINT_FILES / threads as u64)
    }

    /// Ops per worker for one I/O loop: `per_op_kib` KiB per op of the
    /// base count, so large requests run proportionally fewer ops.
    fn io_ops(&self, io_size: usize, per_op_kib: u64) -> u64 {
        (self.ops * per_op_kib * 1024 / io_size as u64).max(1)
    }
}

/// The most files one create point leaves on its mount.
const CREATE_POINT_FILES: u64 = 8_000;

/// Why an experiment failed; a failed measured point names the
/// experiment, the row, the stack and, from the driver, the thread count,
/// worker, op index, op and seed.
#[derive(Debug, Clone)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<KernelError> for BenchError {
    fn from(e: KernelError) -> Self {
        BenchError(e.to_string())
    }
}

impl From<LoadError> for BenchError {
    fn from(e: LoadError) -> Self {
        BenchError(e.to_string())
    }
}

/// What every experiment returns.
pub type BenchResult<T> = Result<T, BenchError>;

/// Prepares and runs `spec` on `mounted` under `load` — with tracing on
/// for the run alone when `traced` — and names the experiment, the row and
/// the stack in a failure.
fn measure(
    experiment: &str,
    config: &str,
    mounted: &MountedStack,
    spec: &WorkloadSpec,
    load: &LoadConfig,
    traced: bool,
) -> BenchResult<LoadResult> {
    let at = |e: &dyn fmt::Display| {
        BenchError(format!("{experiment} {config} on {}: {e}", mounted.stack.label()))
    };
    loadgen::prepare(&mounted.vfs, spec, load).map_err(|e| at(&e))?;
    let tracing = traced.then(trace::enable);
    let result = loadgen::run_load(&mounted.vfs, spec, load);
    drop(tracing);
    result.map_err(|e| at(&e))
}

/// [`measure`] with `threads` closed-loop workers of `ops` ops each on a
/// fresh mount of `stack` under `model`, unmounted afterwards.
fn measure_fresh(
    (experiment, config): (&str, &str),
    stack: FsStack,
    cfg: &ExperimentConfig,
    spec: &WorkloadSpec,
    threads: usize,
    ops: u64,
) -> BenchResult<LoadResult> {
    let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
    let load = LoadConfig::closed(threads, ops);
    let result = measure(experiment, config, &mounted, spec, &load, false)?;
    mounted.unmount()?;
    Ok(result)
}

/// MB/s (10^6 bytes, as filebench reports) of a run.
fn mbps(result: &LoadResult) -> f64 {
    result.bytes as f64 / 1_000_000.0 / result.elapsed.as_secs_f64().max(1e-9)
}

/// The paper's value for `stack` in a `(stack label, value)` table.
fn paper_of(table: &[(&str, f64)], stack: FsStack) -> Option<f64> {
    table.iter().find(|(name, _)| *name == stack.label()).map(|(_, v)| *v)
}

/// A figure row's access pattern and the thread count that ran it:
/// `seq-1t`, `rnd-8t`, ….
fn point_label(pattern: AccessPattern, threads: usize) -> String {
    format!("{}-{threads}t", pattern.label())
}

/// Table 1: the bug study counts and derived percentages.
pub fn table1_bug_analysis() -> Vec<Row> {
    let study = BugStudy::published();
    let mut rows: Vec<Row> = study
        .table1()
        .iter()
        .map(|c| Row::new("table1", c.name, "-", c.count as f64, "bugs", Some(c.count as f64)))
        .collect();
    let summary = study.summary();
    for (name, fraction, paper) in [
        ("memory %", summary.memory_fraction, 68.0),
        ("prevented by Rust %", summary.prevented_by_rust_fraction, 93.0),
        ("kernel oops %", summary.oops_fraction, 26.0),
        ("memory leak %", summary.leak_fraction, 34.0),
    ] {
        rows.push(Row::new("table1", name, "-", fraction * 100.0, "%", Some(paper)));
    }
    rows
}

/// Table 2: the qualitative mechanism comparison (safety / performance /
/// generality / online upgrade), encoded so the binary can print it.
pub fn table2_mechanism_comparison() -> Vec<(String, [&'static str; 4])> {
    vec![
        ("VFS".to_string(), ["no", "yes", "yes", "no"]),
        ("FUSE".to_string(), ["yes", "no", "yes", "no"]),
        ("eBPF".to_string(), ["yes", "yes", "no", "no"]),
        ("Bento".to_string(), ["yes", "yes", "yes", "yes"]),
    ]
}

/// The read loop of Figures 2 and 3 on every xv6 stack: `io_size` reads
/// through a held descriptor on one shared `micro_file_size` file, warmed
/// into the page cache first (§6.5.1: all three stacks serve reads from
/// the same in-kernel cache), at seq/rnd × 1 and `threads_high` threads,
/// in rows labelled `{prefix}seq-1t` and so on ([`point_label`]).  Each
/// worker reads `per_op_kib` KiB of the base op count.
fn read_rows(
    (experiment, prefix): (&str, &str),
    cfg: &ExperimentConfig,
    io_size: usize,
    per_op_kib: u64,
    value: fn(&LoadResult) -> (f64, &'static str),
) -> BenchResult<Vec<Row>> {
    let mut rows = Vec::new();
    for stack in FsStack::xv6_variants() {
        for (pattern, threads) in [
            (AccessPattern::Sequential, 1),
            (AccessPattern::Sequential, cfg.threads_high),
            (AccessPattern::Random, 1),
            (AccessPattern::Random, cfg.threads_high),
        ] {
            let config = format!("{prefix}{}", point_label(pattern, threads));
            let spec = WorkloadSpec::io(false, cfg.micro_file_size, io_size, pattern);
            let ops = cfg.io_ops(io_size, per_op_kib);
            let result = measure_fresh((experiment, &config), stack, cfg, &spec, threads, ops)?;
            let (measured, unit) = value(&result);
            rows.push(Row::new(experiment, &config, stack.label(), measured, unit, None));
        }
    }
    Ok(rows)
}

/// Figure 2: 4 KiB read ops/sec for seq/rnd × 1 and `threads_high`
/// threads, three xv6 stacks.
///
/// # Errors
///
/// The first mount or run failure, naming the row and stack.
pub fn fig2_read_4k(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    read_rows(("fig2", ""), cfg, 4096, 160, |r| (r.ops_per_sec(), "ops/sec"))
}

/// Figure 3: read throughput (MB/s) at 32 KiB / 128 KiB / 1024 KiB request
/// sizes, seq/rnd × 1 and `threads_high` threads.
///
/// # Errors
///
/// The first mount or run failure, naming the row and stack.
pub fn fig3_read_throughput(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    let mut rows = Vec::new();
    for io_size in [32 * 1024usize, 128 * 1024, 1024 * 1024] {
        let prefix = format!("{}k-", io_size / 1024);
        rows.extend(read_rows(("fig3", &prefix), cfg, io_size, 256, |r| (mbps(r), "MB/s"))?);
    }
    Ok(rows)
}

/// Figure 4: write throughput (MB/s) at 32 KiB / 128 KiB / 1024 KiB request
/// sizes for seq-1t, rnd-1t and rnd-Nt (N = `threads_high`): pwrites
/// through a held descriptor into a preallocated shared file.  Each configuration writes 32 KiB per
/// op of the base count in all, split over its threads, so every row
/// spans several write-back passes (the page cache writes back at 512
/// dirty pages).
///
/// # Errors
///
/// The first mount or run failure, naming the row and stack.
pub fn fig4_write_throughput(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    let mut rows = Vec::new();
    for stack in FsStack::xv6_variants() {
        for io_size in [32 * 1024usize, 128 * 1024, 1024 * 1024] {
            for (pattern, threads) in [
                (AccessPattern::Sequential, 1),
                (AccessPattern::Random, 1),
                (AccessPattern::Random, cfg.threads_high),
            ] {
                let config = format!("{}k-{}", io_size / 1024, point_label(pattern, threads));
                let spec = WorkloadSpec::io(true, cfg.micro_file_size, io_size, pattern);
                let ops = (cfg.io_ops(io_size, 32) / threads as u64).max(1);
                let result = measure_fresh(("fig4", &config), stack, cfg, &spec, threads, ops)?;
                rows.push(Row::new("fig4", &config, stack.label(), mbps(&result), "MB/s", None));
            }
        }
    }
    Ok(rows)
}

/// Tables 4 and 5 on the xv6 stacks at 1 and `threads_high` threads, in
/// ops/sec next to the paper's values (`paper[0]` for 1 thread, `paper[1]`
/// for the paper's 32), in rows labelled by the thread count that ran:
/// `point(threads)` gives the spec and the ops per thread.
fn file_micro_rows(
    experiment: &str,
    cfg: &ExperimentConfig,
    paper: [[(&str, f64); 3]; 2],
    point: impl Fn(usize) -> (WorkloadSpec, u64),
) -> BenchResult<Vec<Row>> {
    let mut rows = Vec::new();
    for stack in FsStack::xv6_variants() {
        for (threads, paper) in [1, cfg.threads_high].into_iter().zip(&paper) {
            let label = match threads {
                1 => "1 thread".to_string(),
                n => format!("{n} threads"),
            };
            let (spec, ops) = point(threads);
            let result = measure_fresh((experiment, &label), stack, cfg, &spec, threads, ops)?;
            let (value, paper) = (result.ops_per_sec(), paper_of(paper, stack));
            rows.push(Row::new(experiment, &label, stack.label(), value, "ops/sec", paper));
        }
    }
    Ok(rows)
}

/// Table 4: file creation ops/sec, 1 and `threads_high` threads: each
/// thread creates 16 KiB files in its own directory, half the base op
/// count each (at most 8 000 files over all threads).
///
/// # Errors
///
/// The first mount or run failure, naming the row and stack.
pub fn table4_create(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    let paper = [
        [("Bento", 1126.0), ("C-Kernel", 933.0), ("FUSE", 24.0)],
        [("Bento", 1072.0), ("C-Kernel", 881.0), ("FUSE", 24.0)],
    ];
    file_micro_rows("table4", cfg, paper, |threads| {
        (WorkloadSpec::createfiles(16 * 1024, threads), cfg.file_point_ops(threads))
    })
}

/// Table 5: file deletion ops/sec, 1 and `threads_high` threads: each
/// thread deletes the 4 KiB files precreated in its own directory, as many
/// as a create point's thread creates, so the high-thread point times
/// thousands of deletes rather than its threads' start-up.
///
/// # Errors
///
/// The first mount or run failure, naming the row and stack.
pub fn table5_delete(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    let paper = [
        [("Bento", 7499.0), ("C-Kernel", 7500.0), ("FUSE", 118.0)],
        [("Bento", 7502.0), ("C-Kernel", 8253.0), ("FUSE", 116.0)],
    ];
    file_micro_rows("table5", cfg, paper, |threads| {
        let per_thread = cfg.file_point_ops(threads);
        (WorkloadSpec::deletefiles(per_thread as usize, 4096, threads), per_thread)
    })
}

/// Table 6: the varmail and fileserver macrobenchmarks (ops/sec, the same
/// specs the `load` experiment runs, base op count per thread) and the
/// untar benchmark (µs per extracted file), across all four stacks.
///
/// The paper reports untar in seconds for the real kernel tree; the
/// synthetic tree here is a few hundred files, so its row reports time per
/// file and carries no paper value (EXPERIMENTS.md keeps the paper's
/// seconds and compares orderings).
///
/// # Errors
///
/// The first mount or run failure, naming the row and stack.
pub fn table6_macrobenchmarks(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    let paper_varmail = [("Bento", 320.0), ("C-Kernel", 303.0), ("FUSE", 24.0), ("Ext4", 785.0)];
    let paper_fileserver =
        [("Bento", 3860.0), ("C-Kernel", 2947.0), ("FUSE", 7.0), ("Ext4", 5172.0)];
    let files = cfg.macro_files_per_thread * cfg.macro_threads;
    let mut rows = Vec::new();
    for stack in FsStack::all() {
        for (spec, paper) in [
            (WorkloadSpec::varmail(), &paper_varmail),
            (WorkloadSpec::fileserver(), &paper_fileserver),
        ] {
            let spec = spec.with_files(files);
            let name = spec.name.clone();
            let result =
                measure_fresh(("table6", &name), stack, cfg, &spec, cfg.macro_threads, cfg.ops)?;
            let value = result.ops_per_sec();
            rows.push(Row::new(
                "table6",
                &name,
                stack.label(),
                value,
                "ops/sec",
                paper_of(paper, stack),
            ));
        }
        let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
        let manifest = generate_linux_like_manifest(cfg.untar_files / 6, cfg.untar_files, 42);
        let (elapsed, _) = untar(&mounted.vfs, &manifest)
            .map_err(|e| BenchError(format!("table6 untar on {}: {e}", stack.label())))?;
        let us_per_file = elapsed.as_secs_f64() * 1e6 / manifest.file_count() as f64;
        rows.push(Row::new("table6", "untar", stack.label(), us_per_file, "us/file", None));
        mounted.unmount()?;
    }
    Ok(rows)
}

/// The thread counts swept by [`scaling_experiment`]: the paper evaluates a
/// single thread and 32; the sweep fills in the curve between them.
pub const SCALING_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The thread counts of the NVMe group-commit pass of the scaling sweep.
pub const SCALING_NVME_THREADS: [usize; 2] = [1, 8];

/// Write-path batching counters accumulated by a mounted stack since a
/// snapshot (see [`write_path_snapshot`] / [`write_path_delta`]).
fn write_path_snapshot(mounted: &MountedStack) -> Option<WritePathStats> {
    mounted.vfs.mounted_fs("/").ok()?.write_path_stats()
}

fn write_path_delta(before: &WritePathStats, after: &WritePathStats) -> WritePathStats {
    WritePathStats {
        log_commits: after.log_commits.saturating_sub(before.log_commits),
        log_ops: after.log_ops.saturating_sub(before.log_ops),
        log_blocks: after.log_blocks.saturating_sub(before.log_blocks),
        log_installs: after.log_installs.saturating_sub(before.log_installs),
        log_barriers: after.log_barriers.saturating_sub(before.log_barriers),
        direct_blocks: after.direct_blocks.saturating_sub(before.direct_blocks),
        alloc_per_group: after
            .alloc_per_group
            .iter()
            .zip(before.alloc_per_group.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
    }
}

/// What one create point of the scaling sweep measured: the run, and the
/// write-path counters it moved.
pub struct CreatePoint {
    /// The driver's result.
    pub result: LoadResult,
    /// Write-path counters over the run (`None` on a stack without them).
    pub write_path: Option<WritePathStats>,
}

/// One create point of the scaling sweep on `mounted`: `threads` workers
/// each create half the base op count of 4 KiB files (at most 8 000 over
/// all workers), in their own directory or (`crossdir`) across a shared
/// pool of `2 * threads` directories.  `traced` turns tracing on for the
/// run.
///
/// # Errors
///
/// The first failed op, naming the row, stack, worker, op and seed; a
/// mount without room for the point's files fails before any op runs.
pub fn scaling_create(
    mounted: &MountedStack,
    cfg: &ExperimentConfig,
    threads: usize,
    crossdir: bool,
    traced: bool,
) -> BenchResult<CreatePoint> {
    let (spec, config) = if crossdir {
        (WorkloadSpec::create_crossdir(4096, threads), format!("create-{threads}t-crossdir"))
    } else {
        (WorkloadSpec::createfiles(4096, threads), format!("create-{threads}t"))
    };
    let before = write_path_snapshot(mounted);
    let load = LoadConfig::closed(threads, cfg.file_point_ops(threads));
    let result = measure("scaling", &config, mounted, &spec, &load, traced)?;
    let write_path = match (before, write_path_snapshot(mounted)) {
        (Some(before), Some(after)) => Some(write_path_delta(&before, &after)),
        _ => None,
    };
    Ok(CreatePoint { result, write_path })
}

/// Concurrency scaling sweep: thread counts 1 → 32 over the read / write /
/// create microbenchmarks on the Bento and VFS stacks, with the device cost
/// model *disabled* (zero-cost preset).
///
/// With no modelled device time, all that remains on the hot path is
/// software: the stack's own code plus every lock the simulated kernel
/// takes.  The read/write rows use one private file per thread (a held
/// descriptor each), so distinct threads share no per-file state and the
/// curve tracks available hardware parallelism.
///
/// Rows are labelled `read-4k-rnd-Nt` / `write-4k-rnd-Nt` / `create-Nt`,
/// reporting ops/s.  Each create point also reports the write-path
/// batching counters the pipelined log and the allocation groups expose:
/// `create-Nt-ops-per-commit` (group-commit batching factor),
/// `create-Nt-barriers-per-op`, and `create-Nt-groups-used` (allocation
/// spread).  A namespace-scaling pass runs the shared-pool cross-directory
/// create spec ([`WorkloadSpec::create_crossdir`]) at every thread count
/// (`create-Nt-crossdir` / `create-Nt-crossdir-us-per-op` rows), with each
/// point fsck-gated on unmount.  A second pass re-runs create at
/// [`SCALING_NVME_THREADS`] with the NVMe cost model (`create-nvme-Nt*`
/// rows) — with real barrier costs, group commit must drive
/// barriers-per-op *down* as threads go up.
///
/// # Errors
///
/// The first mount or run failure, naming the row and stack.
pub fn scaling_experiment(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    scaling_experiment_with_threads(cfg, &SCALING_THREADS)
}

/// [`scaling_experiment`] over an explicit thread list.
fn scaling_experiment_with_threads(
    cfg: &ExperimentConfig,
    thread_counts: &[usize],
) -> BenchResult<Vec<Row>> {
    let zero = ExperimentConfig { model: CostModel::zero(), ..cfg.clone() };
    let file_size_per_thread: u64 = 2 * 1024 * 1024;
    let mut rows = Vec::new();
    let mut row = |config: String, stack: FsStack, value: f64, unit: &str| {
        rows.push(Row::new("scaling", &config, stack.label(), value, unit, None));
    };
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        for &threads in thread_counts {
            // Fresh mount per point so earlier points cannot warm or
            // pollute later ones.
            let mounted = mount_stack(stack, zero.model.clone(), zero.disk_blocks)?;
            for write in [false, true] {
                let spec =
                    WorkloadSpec::io(write, file_size_per_thread, 4096, AccessPattern::Random)
                        .with_files(threads);
                let config = format!("{}-{threads}t", spec.name);
                let load = LoadConfig::closed(threads, zero.ops * 8);
                let result = measure("scaling", &config, &mounted, &spec, &load, false)?;
                row(config, stack, result.ops_per_sec(), "ops/sec");
            }
            let create = scaling_create(&mounted, &zero, threads, false, false)?;
            row(format!("create-{threads}t"), stack, create.result.ops_per_sec(), "ops/sec");
            if let Some(delta) = create.write_path {
                for (suffix, value, unit) in [
                    ("ops-per-commit", delta.ops_per_commit(), "ops/commit"),
                    ("barriers-per-op", delta.barriers_per_op(), "barriers/op"),
                    ("installs-per-commit", delta.installs_per_commit(), "installs/commit"),
                    ("groups-used", delta.groups_used() as f64, "groups"),
                ] {
                    row(format!("create-{threads}t-{suffix}"), stack, value, unit);
                }
            }
            mounted.unmount()?;
        }
    }
    // Cross-directory create sweep over a *shared* directory pool: the
    // workload that the per-mount namespace mutex used to serialize
    // outright.  With per-directory locks the per-op cost must stay flat
    // as threads rise (this host is single-core, so the claim is
    // absence-of-collapse, not speedup).  Each point unmounts through the
    // offline fsck — a namespace-locking bug fails the experiment rather
    // than producing a quietly wrong row.
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        for &threads in thread_counts {
            let mounted = mount_stack(stack, zero.model.clone(), zero.disk_blocks)?;
            let ops_per_sec =
                scaling_create(&mounted, &zero, threads, true, false)?.result.ops_per_sec();
            row(format!("create-{threads}t-crossdir"), stack, ops_per_sec, "ops/sec");
            let us_per_op = 1e6 / ops_per_sec.max(1e-9);
            row(format!("create-{threads}t-crossdir-us-per-op"), stack, us_per_op, "us/op");
            mounted.unmount_and_check()?;
        }
    }
    // With real barrier costs (NVMe model), group-commit batching must show
    // up as fewer device barriers per operation at higher thread counts.
    let nvme = ExperimentConfig { model: CostModel::nvme_ssd_scaled(8), ..cfg.clone() };
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        for threads in SCALING_NVME_THREADS {
            let mounted = mount_stack(stack, nvme.model.clone(), nvme.disk_blocks)?;
            let create = scaling_create(&mounted, &nvme, threads, false, false)?;
            mounted.unmount()?;
            let config = format!("create-nvme-{threads}t");
            row(config.clone(), stack, create.result.ops_per_sec(), "ops/sec");
            if let Some(delta) = create.write_path {
                row(
                    format!("{config}-barriers-per-op"),
                    stack,
                    delta.barriers_per_op(),
                    "barriers/op",
                );
            }
        }
    }
    // Phase-attributed create: the same create traffic traced, so the
    // scaling story reports *where* the per-op time goes (namespace lock
    // vs log reservation vs commit vs device), not just how many ops
    // completed.  Runs on the Bento stack under the scaled NVMe model so
    // device time is visible.
    let bento = FsStack::BentoXv6;
    let mounted = mount_stack(bento, nvme.model.clone(), nvme.disk_blocks)?;
    let traced = scaling_create(&mounted, &nvme, 8, false, true)?;
    rows.extend(phase_breakdown_rows("scaling", "create-8t", bento.label(), &traced.result));
    mounted.unmount()?;
    Ok(rows)
}

/// The `crash` experiment: runs the crashsim harness (see the `crashsim`
/// crate) for each of the four stacks and reports checked/found counts
/// into the BENCH JSON.  Any oracle violation fails the experiment — CI's
/// `crash-smoke` step gates on that.
///
/// # Errors
///
/// Returns an error when a stack reports oracle violations (with the first
/// few replayable state descriptions in the message) or on harness I/O
/// failure.
pub fn crash_experiment(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    use crashsim::{run_crash_test, CrashMode, CrashTestConfig};
    let quick = cfg.threads_high < 32;
    let crash_cfg = CrashTestConfig {
        mode: CrashMode::Sampled { states: if quick { 160 } else { 400 } },
        max_violations: 8,
        ..CrashTestConfig::standard(0x2021_FA57)
    };
    let mut rows = Vec::new();
    for stack in FsStack::all() {
        let report = run_crash_test(stack, &crash_cfg)?;
        for (config, value) in [
            ("states-checked", report.states_checked as f64),
            ("violations", report.violations_found as f64),
            ("fsync-points", report.fsync_points as f64),
            ("trace-writes", report.trace_writes as f64),
            ("trace-epochs", report.trace_epochs as f64),
        ] {
            rows.push(Row::new("crash", config, report.stack, value, "count", None));
        }
        if !report.is_clean() {
            // Every stack's trace, and so every state drawn from it,
            // replays from the seed (FUSE requests carry the caller's xv6
            // allocation home): a rerun of this seed shows the same trace.
            let mut msg = format!(
                "crash oracle violations on {}: {} in {} of {} states \
                 (seed {:#x}, {} ops, {} fsync points, {} trace writes in {} epochs)",
                report.stack,
                report.errors_per_state.iter().sum::<usize>(),
                report.violations_found,
                report.states_checked,
                crash_cfg.seed,
                report.ops_run,
                report.fsync_points,
                report.trace_writes,
                report.trace_epochs,
            );
            for violation in &report.violations {
                msg.push_str(&format!("\n  [{}] {}", violation.state, violation.detail));
            }
            return Err(BenchError(msg));
        }
    }
    Ok(rows)
}

/// The stacks the `load` experiment drives (the FUSE stack is orders of
/// magnitude slower under the boundary-crossing model and would dominate
/// the runtime for no extra signal — it stays in the table6 macros).
pub const LOAD_STACKS: [FsStack; 3] = [FsStack::BentoXv6, FsStack::VfsXv6, FsStack::Ext4];

/// The most one trace hook may cost with tracing off, ns per call: the
/// hook is a single relaxed atomic load and must stay that way.
const DISABLED_HOOK_BOUND_NS: f64 = 250.0;

/// The phases a traced run of `spec` on `stack` must pass through, derived
/// from its mix, or the run fails: an op class silently bypassing an
/// instrumented wait point is exactly the regression this gate exists to
/// catch.
///
/// The xv6 stacks journal metadata synchronously inside the op, so every
/// mix owes the journal's phases (reserve, stage, commit) and the device,
/// and a mix with namespace ops (create, delete, rename, link, mkdir,
/// rmdir) also owes the per-directory namespace locks.  ext4sim
/// deliberately has no per-directory namespace locks (see the ext4sim
/// audit note), and its operations join one running journal transaction —
/// so, like real ext4 in writeback mode, its journal only runs inside an
/// op span when `fsync` forces write-back and a commit.  A mix without
/// durability ops owes no phase at all on Ext4: dirty pages stay cached
/// until sync/unmount and a warm fileset serves reads without touching the
/// device, so zero attributed time is the honest answer, not a coverage
/// hole.  All five personalities met this rule in 10 of 10 `load --quick`
/// runs.
fn required_phases(stack: FsStack, spec: &WorkloadSpec) -> Vec<Phase> {
    use loadgen::OpKind::{Create, Delete, Fsync, Link, Mkdir, Rename, Rmdir};
    let has = |kinds: &[loadgen::OpKind]| kinds.iter().any(|&kind| spec.mix.weight(kind) > 0);
    let xv6 = stack != FsStack::Ext4;
    Phase::ALL
        .into_iter()
        .filter(|&phase| match phase {
            Phase::NsLock => xv6 && has(&[Create, Delete, Rename, Link, Mkdir, Rmdir]),
            _ => xv6 || has(&[Fsync]),
        })
        .collect()
}

/// The trace gates of one traced run, given the ring drops of its trace
/// epoch and the phases it owes ([`required_phases`]):
///
/// - no op class traced more spans than it completed ops (double counting);
/// - the completed ops without a span number at most the ring drops.  A
///   span evicted by ring overflow was still produced (the driver
///   aggregates each record as its op finishes), so drops are reported,
///   not a hole, but a larger deficit is an uninstrumented path;
/// - every required phase was observed;
/// - the summed per-phase attribution is at most 1.1 × the end-to-end
///   total: exclusive attribution guarantees 1.0, the slack is clock
///   granularity.
///
/// # Errors
///
/// The first gate the run fails, described.
fn check_trace_gates(result: &LoadResult, dropped: u64, required: &[Phase]) -> Result<(), String> {
    let mut span_deficit = 0u64;
    for class in &result.per_op {
        let spans = result.trace_class(class.kind).map_or(0, |t| t.spans);
        if spans > class.completed {
            return Err(format!(
                "class {} completed {} ops but traced {spans} spans",
                class.kind.label(),
                class.completed
            ));
        }
        span_deficit += class.completed - spans;
    }
    if span_deficit > dropped {
        return Err(format!(
            "{span_deficit} completed ops have no span (only {dropped} ring drops can account \
             for them)"
        ));
    }
    let observed =
        |phase: Phase| result.traces.iter().any(|t| t.per_phase[phase.index()].count() > 0);
    if let Some(phase) = required.iter().find(|&&phase| !observed(phase)) {
        return Err(format!(
            "no span passed through required phase {} (uninstrumented path?)",
            phase.label()
        ));
    }
    let attributed: u64 = result.traces.iter().map(|t| t.attributed_ns()).sum();
    let total: u64 = result.traces.iter().map(|t| t.total_sum_ns).sum();
    if attributed as f64 > total as f64 * 1.10 {
        return Err(format!(
            "attributed {attributed} ns exceeds 1.1 x the end-to-end total {total} ns"
        ));
    }
    Ok(())
}

/// Runs one personality closed-loop and traced on a fresh mount, gates it
/// ([`check_trace_gates`]) and returns its BENCH rows: throughput, the
/// p50/p90/p99/p99.9 latency quartet, the fsync class's p99, the windowed
/// rate, the per-phase attribution ([`phase_breakdown_rows`]), the ring
/// drops, the slowest traced op, and the mount's counters after a sync.
fn load_personality_rows(
    stack: FsStack,
    spec: &WorkloadSpec,
    cfg: &ExperimentConfig,
    ops: u64,
) -> BenchResult<Vec<Row>> {
    let label = stack.label();
    let fail =
        |what: &dyn fmt::Display| BenchError(format!("load {} on {label}: {what}", spec.name));
    let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
    let load_cfg = LoadConfig::closed(cfg.macro_threads, ops);
    // Fresh epoch: rings and the per-thread drop counters start at zero,
    // so `trace::dropped()` below is this run's overflow.
    trace::reset();
    let result = measure("load", &spec.name, &mounted, spec, &load_cfg, true)?;
    if !result.is_clean() {
        return Err(fail(&"the run failed ops or recorded no latency"));
    }
    let dropped = trace::dropped();
    check_trace_gates(&result, dropped, &required_phases(stack, spec)).map_err(|e| fail(&e))?;
    let row = |suffix: &str, value: f64, unit: &str| {
        Row::new("load", &format!("{}{suffix}", spec.name), label, value, unit, None)
    };
    let mut rows = vec![
        row("", result.ops_per_sec(), "ops/sec"),
        row("-p50-us", result.p_us(50.0), "us"),
        row("-p90-us", result.p_us(90.0), "us"),
        row("-p99-us", result.p_us(99.0), "us"),
        row("-p999-us", result.p_us(99.9), "us"),
    ];
    // The durability class is the tail that matters for the paper's fsync
    // claims; report it separately where the personality has one.
    if let Some(fsync) = result.class(loadgen::OpKind::Fsync) {
        rows.push(row("-fsync-p99-us", fsync.latency.percentile(99.0) as f64 / 1_000.0, "us"));
    }
    rows.extend(phase_breakdown_rows("load", &spec.name, label, &result));
    rows.push(row("-dropped-spans", dropped as f64, "spans"));
    // The slowest traced op: the tail the breakdown explains.
    if let Some(worst) =
        result.traces.iter().filter_map(|t| t.slowest.first()).max_by_key(|r| r.total_ns)
    {
        rows.push(row("-slowest-us", worst.total_ns as f64 / 1_000.0, "us"));
    }
    // The mount's counters (stack prefix stripped — the row's stack column
    // holds it).  Sync first so writeback-mode stacks flush their dirty
    // pages and the device/journal counters reflect the run's traffic.
    mounted.vfs.sync()?;
    for (key, value) in &mounted.counters() {
        let name = key.strip_prefix(&format!("{label}.")).unwrap_or(key);
        rows.push(row(&format!("-ctr-{name}"), *value as f64, "count"));
    }
    mounted.unmount()?;
    Ok(rows)
}

/// Per-phase latency attribution rows for a traced load run, aggregated
/// across op classes: `{prefix}-phase-{phase}-p50-us` / `-p99-us` for every
/// phase any op passed through, plus the share of total service time the
/// instrumented phases account for (`{prefix}-attributed-share`) and its
/// complement (`{prefix}-other-share`, path resolution + cache copies +
/// driver bookkeeping).
fn phase_breakdown_rows(
    experiment: &str,
    prefix: &str,
    label: &str,
    result: &LoadResult,
) -> Vec<Row> {
    use simkernel::metrics::LatencyHistogram;
    let mut rows = Vec::new();
    let mut merged: Vec<LatencyHistogram> =
        (0..Phase::COUNT).map(|_| LatencyHistogram::new()).collect();
    let mut attributed_ns = 0u64;
    let mut total_ns = 0u64;
    for class in &result.traces {
        for phase in Phase::ALL {
            merged[phase.index()].merge(&class.per_phase[phase.index()]);
        }
        attributed_ns += class.attributed_ns();
        total_ns += class.total_sum_ns;
    }
    for phase in Phase::ALL {
        let hist = &merged[phase.index()];
        if hist.is_empty() {
            continue;
        }
        for p in [50.0, 99.0] {
            rows.push(Row::new(
                experiment,
                &format!("{prefix}-phase-{}-p{p:.0}-us", phase.label()),
                label,
                hist.percentile(p) as f64 / 1_000.0,
                "us",
                None,
            ));
        }
    }
    if total_ns > 0 {
        let share = attributed_ns as f64 / total_ns as f64;
        rows.push(Row::new(
            experiment,
            &format!("{prefix}-attributed-share"),
            label,
            share,
            "fraction",
            None,
        ));
        rows.push(Row::new(
            experiment,
            &format!("{prefix}-other-share"),
            label,
            1.0 - share,
            "fraction",
            None,
        ));
    }
    rows
}

/// The `load` experiment: the five loadgen personalities (varmail,
/// fileserver, webserver, untar-replay, namespace-churn) closed-loop and
/// traced on the Bento, C-Kernel and Ext4 stacks with latency percentiles,
/// per-phase attribution and the mount's counters, then the paper's
/// upgrade-under-traffic scenario on Bento (bounded pause, zero failed
/// ops).  It first measures one trace hook with tracing off
/// (`disabled-hook-ns`).
///
/// # Errors
///
/// Fails when the disabled trace hook costs more than 250 ns; when a run
/// fails an operation or records an empty histogram; when a run's trace
/// shows an op class with more spans than completed ops, more ops without
/// a span than the rings dropped, an unobserved phase its stack and mix
/// owe, or an attribution above 1.1 × the end-to-end total; or when the
/// upgrade scenario fails any operation or measures no pause.
pub fn load_experiment(cfg: &ExperimentConfig) -> BenchResult<Vec<Row>> {
    let hook_ns = trace::disabled_hook_cost_ns(100_000);
    if hook_ns > DISABLED_HOOK_BOUND_NS {
        return Err(BenchError(format!(
            "load: the disabled trace hook costs {hook_ns:.1} ns/call (bound \
             {DISABLED_HOOK_BOUND_NS})"
        )));
    }
    let mut rows = vec![Row::new("load", "disabled-hook-ns", "-", hook_ns, "ns", None)];
    let ops = cfg.ops * 5;
    let files = (cfg.macro_files_per_thread * cfg.macro_threads).max(40);
    for stack in LOAD_STACKS {
        for spec in WorkloadSpec::personalities(cfg.untar_files) {
            let spec = match spec.layout {
                loadgen::Layout::Replay(_) => spec,
                _ => spec.with_files(files),
            };
            rows.extend(load_personality_rows(stack, &spec, cfg, ops)?);
        }
    }

    // Upgrade under sustained traffic (paper §6.2): swap in a fresh xv6fs
    // implementation mid-run; zero failed ops and a measured pause are the
    // acceptance bar.
    let spec = WorkloadSpec::varmail().with_files(files);
    let label = FsStack::BentoXv6.label();
    let mounted = mount_stack(FsStack::BentoXv6, cfg.model.clone(), cfg.disk_blocks)?;
    let upgrade_cfg = LoadConfig::closed(cfg.macro_threads, ops);
    loadgen::prepare(&mounted.vfs, &spec, &upgrade_cfg)?;
    let (under_upgrade, outcome) =
        loadgen::run_upgrade_under_load(&mounted, &spec, &upgrade_cfg, None)?;
    if !under_upgrade.is_clean() {
        return Err(BenchError("operations failed during the live upgrade".into()));
    }
    if outcome.report.pause_ns == 0 {
        return Err(BenchError("upgrade pause was not measured".into()));
    }
    rows.extend(upgrade_pause_rows("load", label, &outcome));
    rows.push(Row::new(
        "load",
        "upgrade-failed-ops",
        label,
        under_upgrade.errors as f64,
        "count",
        None,
    ));
    rows.push(Row::new("load", "upgrade-p99-us", label, under_upgrade.p_us(99.0), "us", None));
    mounted.unmount()?;
    Ok(rows)
}

/// One clean, traced, monitored closed-loop run of `spec` on the Bento
/// stack: mounts, wires the monitor's snapshot source to the
/// mount's counters, runs under a fresh trace epoch (the monitor's flight
/// recorder drains spans from the rings), and unmounts.
fn run_monitored_clean(
    spec: &WorkloadSpec,
    cfg: &ExperimentConfig,
    ops: u64,
    mon: &std::sync::Arc<monitor::HealthMonitor>,
) -> BenchResult<LoadResult> {
    let mounted = mount_stack(FsStack::BentoXv6, cfg.model.clone(), cfg.disk_blocks)?;
    let load_cfg =
        LoadConfig::closed(cfg.macro_threads, ops).with_monitor(std::sync::Arc::clone(mon));
    let source = mounted.clone();
    mon.set_snapshot_source(move || source.counters());
    trace::reset();
    let result = measure("health", &spec.name, &mounted, spec, &load_cfg, true)?;
    mounted.unmount()?;
    Ok(result)
}

/// The `health` experiment: the continuous health engine end to end (CI's
/// `health-smoke` gate).
///
/// Four parts:
///
/// 1. **Disabled-path overhead**: [`monitor::HealthMonitor::observe`] with
///    the monitor off must cost under 250 ns/call — a single relaxed
///    atomic load, the same bar as the disabled trace hook.
/// 2. **Calibration + false-positive gate**: varmail, fileserver, and
///    webserver run clean, traced and monitored on Bento.  A calibration
///    pass learns each workload's shape — the op-indexed window width
///    (~1/48 of the run), the clean run's slowest single op, and the
///    clean per-class commit-wait maxima for read-class ops (structurally
///    zero: reads and stats never touch the journal); the gate pass
///    re-runs with an errors-only SLO, the whole-window stall detector at
///    8x the clean maximum, and read/stat commit-wait phase-stall
///    detectors armed, and must emit **zero** alerts.  Calibrating
///    against a clean run of the same workload (rather than hard-coding
///    nanoseconds) keeps the gate meaningful on any machine speed.
/// 3. **Fault detection**: varmail over a transient-EIO fault device
///    ([`loadgen::run_eio_under_load`], 8% write-fault probability for the
///    middle half of the run).  The error-budget SLO must burn-rate-fire
///    within two windows of the first failed op, clear after the fault
///    lifts, and freeze an incident bundle.
/// 4. **Pause attribution**: a live upgrade under webserver's read and
///    stat traffic ([`loadgen::run_upgrade_under_load`], run once) must
///    surface within two windows of the upgrade as a flagged window
///    attributed to `commit-wait` — the phase BentoFs charges callers
///    parked behind the upgrade's write lock to.  The contention is the
///    harness's: the scenario holds the upgrade gate until a caller has
///    parked, then for a fixed 1 ms, so the pause is observed on any CPU
///    count.  The whole-window stall detector cannot see this: on a busy
///    1-CPU run the clean window *maximum* (group-commit waits, scheduler
///    noise) runs tens of milliseconds.  The per-class phase-stall
///    detector ([`monitor::PhaseStallSpec`]) inverts the problem: clean
///    reads spend exactly zero ns in commit-wait, so *any* over-floor
///    commit-wait on a read is categorical evidence of the pause.
///
/// Every frozen incident bundle is written into `incident_dir`
/// (`INCIDENT_<id>_<kind>.json`, next to the BENCH report) and re-read
/// through [`monitor::IncidentBundle::schema_check`].
///
/// # Errors
///
/// Fails on any gate above, or on mount/run errors.
pub fn health_experiment(
    cfg: &ExperimentConfig,
    incident_dir: &std::path::Path,
) -> BenchResult<Vec<Row>> {
    use monitor::{
        HealthEvent, HealthMonitor, IncidentBundle, MonitorConfig, PhaseStallSpec, SloSpec,
    };
    use std::sync::Arc;

    let mut rows = Vec::new();
    let label = FsStack::BentoXv6.label();
    let budget = 0.002;

    // Part 1: the disabled path must stay one atomic load.
    let probe = HealthMonitor::new(MonitorConfig::new(u64::MAX));
    probe.set_enabled(false);
    let observe_ns = monitor::disabled_observe_cost_ns(&probe, 100_000);
    rows.push(Row::new("health", "disabled-observe-ns", "-", observe_ns, "ns", None));
    if observe_ns > 250.0 {
        return Err(BenchError(format!(
            "health: the disabled monitor observe costs {observe_ns:.1} ns/call (bound 250)"
        )));
    }

    let ops = cfg.ops * 3;
    let files = (cfg.macro_files_per_thread * cfg.macro_threads).max(40);

    // Part 2: per-workload calibration, then the clean-run false-positive
    // gate with every detector armed.  Clean reads and stats never enter
    // commit-wait at all (they never touch the journal; BentoFs only
    // charges the phase to callers parked behind the upgrade write
    // lock), so the phase-stall floor can sit at a fixed 20 us: far above
    // the structural zero, far below the 1 ms the upgrade scenario below
    // holds its parked callers.
    const READ_STALL_FLOOR_NS: u64 = 20_000;
    let read_phase_stalls = |threshold_ns: u64| {
        [
            PhaseStallSpec::new("read-commit-wait", "read", Phase::CommitWait, threshold_ns),
            PhaseStallSpec::new("stat-commit-wait", "stat", Phase::CommitWait, threshold_ns),
        ]
    };
    let mut calibrations: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    let specs: [fn() -> WorkloadSpec; 3] =
        [WorkloadSpec::varmail, WorkloadSpec::fileserver, WorkloadSpec::webserver];
    for make_spec in specs {
        let spec = make_spec().with_files(files);
        let cal_mon = HealthMonitor::new(MonitorConfig::new(512));
        let cal = run_monitored_clean(&spec, cfg, ops, &cal_mon)?;
        if !cal.is_clean() {
            return Err(BenchError(
                "health: calibration run failed ops or recorded no latency".into(),
            ));
        }
        cal_mon.finish();
        let clean_max_ns = cal_mon.windows().iter().map(|w| w.max_ns).max().unwrap_or(0);
        if clean_max_ns == 0 {
            return Err(BenchError("health: calibration run closed no windows".into()));
        }
        // ~48 windows per run keeps the EIO run's post-fault quarter well
        // past the 5-window fast lookback; the floor keeps windows from
        // degenerating on very short runs.
        let window_ops = (cal.operations / 48).max(40);
        let stall_threshold_ns = clean_max_ns.saturating_mul(8);
        // Calibrate the phase-stall threshold against the clean per-class
        // commit-wait maximum (expected: zero) with 4x headroom.
        let clean_read_commit_wait_ns = [loadgen::OpKind::Read, loadgen::OpKind::Stat]
            .iter()
            .filter_map(|&k| cal.trace_class(k))
            .map(|t| t.per_phase[Phase::CommitWait.index()].max())
            .max()
            .unwrap_or(0);
        let phase_stall_ns = clean_read_commit_wait_ns.saturating_mul(4).max(READ_STALL_FLOOR_NS);
        rows.push(Row::new(
            "health",
            &format!("{}-window-ops", spec.name),
            label,
            window_ops as f64,
            "ops",
            None,
        ));
        rows.push(Row::new(
            "health",
            &format!("{}-clean-max-us", spec.name),
            label,
            clean_max_ns as f64 / 1_000.0,
            "us",
            None,
        ));

        let [read_stall, stat_stall] = read_phase_stalls(phase_stall_ns);
        let gate_mon = HealthMonitor::new(
            MonitorConfig::new(window_ops)
                .with_slo(SloSpec::error_budget("error-budget", "*", budget))
                .with_stall_threshold_ns(stall_threshold_ns)
                .with_phase_stall(read_stall)
                .with_phase_stall(stat_stall),
        );
        let gate = run_monitored_clean(&spec, cfg, ops, &gate_mon)?;
        if !gate.is_clean() {
            return Err(BenchError(
                "health: clean gate run failed ops or recorded no latency".into(),
            ));
        }
        let alerts = gate_mon.alerts();
        if !alerts.is_empty() {
            let name = &spec.name;
            return Err(BenchError(format!(
                "health: {name} clean-run false positives: {alerts:?}"
            )));
        }
        let windows = gate_mon.windows().len();
        if windows < 5 {
            return Err(BenchError(format!(
                "health: {} closed only {windows} windows, too few to evaluate burn rates",
                spec.name
            )));
        }
        rows.push(Row::new(
            "health",
            &format!("{}-windows", spec.name),
            label,
            windows as f64,
            "windows",
            None,
        ));
        rows.push(Row::new(
            "health",
            &format!("{}-false-positive-alerts", spec.name),
            label,
            alerts.len() as f64,
            "count",
            None,
        ));
        calibrations.insert(spec.name.to_string(), (window_ops, phase_stall_ns));
    }
    let (window_ops, _) = calibrations["varmail"];
    let spec = WorkloadSpec::varmail().with_files(files);
    let mut incidents: Vec<IncidentBundle> = Vec::new();

    // Part 3: transient EIO must trip the error-budget SLO within two
    // windows of the first failed op, and clear once the fault lifts.
    let eio_mon =
        HealthMonitor::new(MonitorConfig::new(window_ops).with_slo(SloSpec::error_budget(
            "eio-error-budget",
            "*",
            budget,
        )));
    let eio_cfg = LoadConfig::closed(cfg.macro_threads, ops).with_monitor(Arc::clone(&eio_mon));
    let tracing = trace::enable();
    trace::reset();
    let eio_run = loadgen::run_eio_under_load(
        FsStack::BentoXv6,
        cfg.model.clone(),
        cfg.disk_blocks,
        &spec,
        &eio_cfg,
        0.08,
    );
    drop(tracing);
    let (under_eio, eio) = eio_run?;
    if !eio.recovered {
        return Err(BenchError(
            "health: stack did not serve durable writes after the EIO window".into(),
        ));
    }
    if under_eio.errors == 0 {
        return Err(BenchError(
            "health: EIO injection produced no failed ops; nothing to detect".into(),
        ));
    }
    let first_bad = eio_mon
        .first_error_window()
        .ok_or_else(|| BenchError("health: failed ops never reached the monitor".into()))?;
    let events = eio_mon.events();
    let fired: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            HealthEvent::SloBurnFired { window, .. } => Some(*window),
            _ => None,
        })
        .collect();
    let &[fired_at] = fired.as_slice() else {
        return Err(BenchError(format!(
            "health: the EIO run fired {fired:?}, not exactly one burn alert (events: {events:?})"
        )));
    };
    if fired_at > first_bad + 2 {
        return Err(BenchError(format!(
            "health: errors started at window {first_bad}, the alert waited until {fired_at}"
        )));
    }
    let cleared_at = events
        .iter()
        .find_map(|e| match e {
            HealthEvent::SloBurnCleared { window, .. } => Some(*window),
            _ => None,
        })
        .ok_or_else(|| {
            BenchError(format!(
                "health: the alert fired at window {fired_at} but never cleared ({events:?})"
            ))
        })?;
    rows.push(Row::new(
        "health",
        "eio-fault-onset-window",
        label,
        first_bad as f64,
        "windows",
        None,
    ));
    rows.push(Row::new("health", "eio-fire-window", label, fired_at as f64, "windows", None));
    rows.push(Row::new(
        "health",
        "eio-fire-lag-windows",
        label,
        (fired_at - first_bad) as f64,
        "windows",
        None,
    ));
    rows.push(Row::new("health", "eio-clear-window", label, cleared_at as f64, "windows", None));
    // Deterministic on a passing run (the latch holds while burning), so
    // the benchdiff baseline pins it: more alerts than one is a regression.
    rows.push(Row::new("health", "eio-alerts", label, fired.len() as f64, "count", None));
    incidents.extend(eio_mon.take_incidents());
    if incidents.is_empty() {
        return Err(BenchError("health: the fired alert froze no incident bundle".into()));
    }

    // Part 4: the live upgrade's pause must surface as a commit-wait
    // phase-stall on a read class within two windows of the upgrade.  The
    // traffic is webserver's read and stat weights alone, so every op
    // parked behind the upgrade is read-class by construction, and clean
    // reads never enter commit-wait at all: the calibrated floor separates
    // the pause from every other wait.  The harness owns the contention:
    // the scenario keeps the upgrade gate until a caller has parked, then
    // for UPGRADE_HOLD, so one attempt observes the pause on any CPU count.
    const UPGRADE_HOLD: std::time::Duration = std::time::Duration::from_millis(1);
    let web = WorkloadSpec::webserver().with_files(files);
    let reads = loadgen::OpMix::new(&[
        (loadgen::OpKind::Read, web.mix.weight(loadgen::OpKind::Read)),
        (loadgen::OpKind::Stat, web.mix.weight(loadgen::OpKind::Stat)),
    ]);
    let up_spec = WorkloadSpec { name: "webserver-reads".to_string(), mix: reads, ..web };
    let (up_window_ops, upgrade_stall_ns) = calibrations["webserver"];
    let [read_stall, stat_stall] = read_phase_stalls(upgrade_stall_ns);
    let up_mon = HealthMonitor::new(
        MonitorConfig::new(up_window_ops).with_phase_stall(read_stall).with_phase_stall(stat_stall),
    );
    let mounted = mount_stack(FsStack::BentoXv6, cfg.model.clone(), cfg.disk_blocks)?;
    let up_cfg = LoadConfig::closed(cfg.macro_threads, ops).with_monitor(Arc::clone(&up_mon));
    loadgen::prepare(&mounted.vfs, &up_spec, &up_cfg)?;
    let source = mounted.clone();
    up_mon.set_snapshot_source(move || source.counters());
    let tracing = trace::enable();
    trace::reset();
    let upgrade_run =
        loadgen::run_upgrade_under_load(&mounted, &up_spec, &up_cfg, Some(UPGRADE_HOLD));
    drop(tracing);
    let (under_upgrade, outcome) = upgrade_run?;
    if !under_upgrade.is_clean() {
        return Err(BenchError("health: operations failed during the live upgrade".into()));
    }
    mounted.unmount()?;
    let fired_window = outcome.fired_window.expect("the upgrade run carries a monitor");
    let flagged: Vec<(u64, u64, String)> = up_mon
        .events()
        .iter()
        .filter_map(|e| match e {
            HealthEvent::LatencyWindowFlagged { window, max_ns, dominant_phase, .. } => {
                Some((*window, *max_ns, dominant_phase.clone()))
            }
            _ => None,
        })
        .collect();
    let read_commit_wait_ns = [loadgen::OpKind::Read, loadgen::OpKind::Stat]
        .iter()
        .filter_map(|&k| under_upgrade.trace_class(k))
        .map(|t| t.per_phase[Phase::CommitWait.index()].max())
        .max()
        .unwrap_or(0);
    if !flagged.iter().any(|(window, _, phase)| {
        phase == "commit-wait" && (fired_window..=fired_window + 2).contains(window)
    }) {
        return Err(BenchError(format!(
            "health: the upgrade pause ({:.1} us, fired in window {fired_window}; worst read \
             commit-wait {:.1} us, stall floor {:.1} us) was not flagged as commit-wait within \
             two windows; flagged windows {flagged:?}",
            outcome.report.pause_ns as f64 / 1_000.0,
            read_commit_wait_ns as f64 / 1_000.0,
            upgrade_stall_ns as f64 / 1_000.0,
        )));
    }
    rows.extend(upgrade_pause_rows("health", label, &outcome));
    rows.push(Row::new(
        "health",
        "upgrade-stall-threshold-us",
        label,
        upgrade_stall_ns as f64 / 1_000.0,
        "us",
        None,
    ));
    rows.push(Row::new(
        "health",
        "upgrade-read-commit-wait-us",
        label,
        read_commit_wait_ns as f64 / 1_000.0,
        "us",
        None,
    ));
    rows.push(Row::new(
        "health",
        "upgrade-flagged-windows",
        label,
        flagged.len() as f64,
        "windows",
        None,
    ));
    incidents.extend(up_mon.take_incidents());

    // The flight recorder's output contract: every bundle lands next to
    // the BENCH report and re-parses through the schema check.
    let fail = |what: String| BenchError(format!("health: {what}"));
    std::fs::create_dir_all(incident_dir)
        .map_err(|e| fail(format!("cannot create {}: {e}", incident_dir.display())))?;
    for bundle in &incidents {
        let path = bundle
            .write_to(incident_dir)
            .map_err(|e| fail(format!("cannot write an incident bundle: {e}")))?;
        let json = std::fs::read_to_string(&path)
            .map_err(|e| fail(format!("cannot re-read {}: {e}", path.display())))?;
        IncidentBundle::schema_check(&json)
            .map_err(|e| fail(format!("{} fails its schema check: {e}", path.display())))?;
        println!("health: wrote {}", path.display());
    }
    rows.push(Row::new("health", "bundles-written", "-", incidents.len() as f64, "count", None));
    Ok(rows)
}

/// The pause of a live upgrade and its two measured parts, in µs:
/// `upgrade-pause-us`, `upgrade-drain-us`, `upgrade-transfer-us`.
fn upgrade_pause_rows(
    experiment: &str,
    label: &str,
    outcome: &loadgen::UpgradeOutcome,
) -> [Row; 3] {
    let report = &outcome.report;
    [
        ("upgrade-pause-us", report.pause_ns),
        ("upgrade-drain-us", report.drain_ns),
        ("upgrade-transfer-us", report.transfer_ns),
    ]
    .map(|(config, ns)| Row::new(experiment, config, label, ns as f64 / 1_000.0, "us", None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rows_cover_both_stacks_and_all_thread_counts() {
        // A very short sweep: correctness of the row structure, not numbers.
        let cfg = ExperimentConfig { ops: 60, ..ExperimentConfig::quick() };
        let rows =
            scaling_experiment_with_threads(&cfg, &SCALING_NVME_THREADS).expect("scaling sweep");
        for stack in ["Bento", "C-Kernel"] {
            for threads in SCALING_NVME_THREADS {
                for prefix in ["read-4k-rnd", "write-4k-rnd", "create", "create-nvme"] {
                    let config = format!("{prefix}-{threads}t");
                    let row = rows
                        .iter()
                        .find(|r| r.stack == stack && r.config == config)
                        .unwrap_or_else(|| panic!("missing row {stack}/{config}"));
                    assert!(row.value > 0.0, "{stack}/{config} must do work");
                    assert_eq!(row.unit, "ops/sec");
                }
                // The cross-directory create sweep (per-directory namespace
                // locks over a shared pool) reports ops/s plus per-op cost,
                // and only reaches the row list if the post-run fsck came
                // back clean.
                for (suffix, unit) in [("crossdir", "ops/sec"), ("crossdir-us-per-op", "us/op")] {
                    let config = format!("create-{threads}t-{suffix}");
                    let row = rows
                        .iter()
                        .find(|r| r.stack == stack && r.config == config)
                        .unwrap_or_else(|| panic!("missing row {stack}/{config}"));
                    assert!(row.value > 0.0, "{stack}/{config} must be populated");
                    assert_eq!(row.unit, unit);
                }
                // Per-run write-path counters ride along with every create
                // point.
                for (suffix, unit) in [
                    ("ops-per-commit", "ops/commit"),
                    ("barriers-per-op", "barriers/op"),
                    ("groups-used", "groups"),
                ] {
                    let config = format!("create-{threads}t-{suffix}");
                    let row = rows
                        .iter()
                        .find(|r| r.stack == stack && r.config == config)
                        .unwrap_or_else(|| panic!("missing row {stack}/{config}"));
                    assert!(row.value > 0.0, "{stack}/{config} must be populated");
                    assert_eq!(row.unit, unit);
                }
            }
        }
    }

    /// A clean synthetic run of `completed` creates, `spans` of them
    /// traced, whose spans passed through `phases` with `attributed_ns` of
    /// the end-to-end `total_ns` attributed to them.
    fn traced_run(
        completed: u64,
        spans: u64,
        phases: &[Phase],
        attributed_ns: u64,
        total_ns: u64,
    ) -> LoadResult {
        use loadgen::{ClassPhaseTrace, OpClassStats, OpKind};
        use simkernel::metrics::LatencyHistogram;
        let mut latency = LatencyHistogram::new();
        (0..completed).for_each(|_| latency.record(1_000));
        let mut per_phase: Vec<_> = (0..Phase::COUNT).map(|_| LatencyHistogram::new()).collect();
        let mut phase_sum_ns = [0; Phase::COUNT];
        for &phase in phases {
            let ns = attributed_ns / phases.len() as u64;
            per_phase[phase.index()].record(ns);
            phase_sum_ns[phase.index()] = ns;
        }
        let trace = ClassPhaseTrace {
            kind: OpKind::Create,
            spans,
            total: LatencyHistogram::new(),
            per_phase,
            phase_sum_ns,
            total_sum_ns: total_ns,
            slowest: Vec::new(),
        };
        let class = OpClassStats { kind: OpKind::Create, completed, errors: 0, latency };
        LoadResult {
            spec: "synthetic".into(),
            elapsed: std::time::Duration::from_millis(1),
            operations: completed,
            errors: 0,
            skipped: 0,
            bytes: 0,
            overall: class.latency.clone(),
            per_op: vec![class],
            timeline: vec![completed],
            window: std::time::Duration::from_millis(50),
            traces: vec![trace],
        }
    }

    #[test]
    fn trace_gates_pass_a_clean_run() {
        let run = traced_run(100, 100, &Phase::ALL, 1_000, 1_000);
        assert_eq!(check_trace_gates(&run, 0, &Phase::ALL), Ok(()));
    }

    #[test]
    fn trace_gates_fail_more_spans_than_completions() {
        let run = traced_run(100, 101, &Phase::ALL, 1_000, 1_000);
        let err = check_trace_gates(&run, 0, &Phase::ALL).unwrap_err();
        assert!(err.contains("completed 100 ops but traced 101 spans"), "{err}");
    }

    #[test]
    fn trace_gates_fail_a_span_deficit_beyond_the_drops() {
        let run = traced_run(100, 90, &Phase::ALL, 1_000, 1_000);
        let err = check_trace_gates(&run, 9, &Phase::ALL).unwrap_err();
        assert!(err.contains("10 completed ops have no span"), "{err}");
        // Ring drops account for a deficit up to their number.
        assert_eq!(check_trace_gates(&run, 10, &Phase::ALL), Ok(()));
    }

    #[test]
    fn trace_gates_fail_an_uncovered_required_phase() {
        let run = traced_run(100, 100, &Phase::ALL[..4], 1_000, 1_000);
        let err = check_trace_gates(&run, 0, &Phase::ALL).unwrap_err();
        assert!(err.contains("required phase dev-io"), "{err}");
        // A phase the stack does not owe may go unobserved.
        assert_eq!(check_trace_gates(&run, 0, &Phase::ALL[..4]), Ok(()));
    }

    #[test]
    fn trace_gates_fail_attribution_above_the_total() {
        let run = traced_run(100, 100, &Phase::ALL, 1_200, 1_000);
        let err = check_trace_gates(&run, 0, &Phase::ALL).unwrap_err();
        assert!(err.contains("exceeds 1.1 x the end-to-end total"), "{err}");
        let run = traced_run(100, 100, &Phase::ALL, 1_100, 1_000);
        assert_eq!(check_trace_gates(&run, 0, &Phase::ALL), Ok(()));
    }

    #[test]
    fn required_phases_follow_the_stack_and_the_mix() {
        let phases = |stack, spec: WorkloadSpec| required_phases(stack, &spec);
        for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
            assert_eq!(phases(stack, WorkloadSpec::varmail()), Phase::ALL);
            assert_eq!(phases(stack, WorkloadSpec::untar_replay(12, 1)), Phase::ALL);
            // No namespace op in the mix: no namespace lock owed.
            assert_eq!(phases(stack, WorkloadSpec::webserver()), &Phase::ALL[1..]);
        }
        // Ext4 journals inside an op only where the mix fsyncs.
        assert_eq!(phases(FsStack::Ext4, WorkloadSpec::varmail()), &Phase::ALL[1..]);
        assert_eq!(phases(FsStack::Ext4, WorkloadSpec::webserver()), &Phase::ALL[1..]);
        assert!(phases(FsStack::Ext4, WorkloadSpec::fileserver()).is_empty());
        assert!(phases(FsStack::Ext4, WorkloadSpec::namespace_churn()).is_empty());
    }

    /// The rows of one small-scale `load` run, shared by the tests that pin
    /// its row contract.  Its gates (the disabled-hook bound; per run: no
    /// failed op, span coverage, the required phases, attribution <= 1.1x
    /// total; the upgrade scenario: zero failed ops and a measured pause)
    /// are all errors, so the `expect` carries them.
    fn small_load_rows() -> &'static [Row] {
        static ROWS: std::sync::OnceLock<Vec<Row>> = std::sync::OnceLock::new();
        ROWS.get_or_init(|| {
            let cfg = ExperimentConfig {
                ops: 100,
                macro_threads: 2,
                macro_files_per_thread: 20,
                untar_files: 60,
                ..ExperimentConfig::quick()
            };
            load_experiment(&cfg).expect("load experiment must hold its gates")
        })
    }

    fn load_row(stack: &str, config: &str) -> f64 {
        small_load_rows()
            .iter()
            .find(|r| r.stack == stack && r.config == config)
            .unwrap_or_else(|| panic!("missing load row {stack}/{config}"))
            .value
    }

    const LOAD_PERSONALITIES: [&str; 5] =
        ["varmail", "fileserver", "webserver", "untar-replay", "namespace-churn"];

    #[test]
    fn load_smoke_rows_cover_every_stack_with_percentiles() {
        for stack in ["Bento", "C-Kernel", "Ext4"] {
            for config in ["varmail", "varmail-p50-us", "varmail-p99-us", "varmail-fsync-p99-us"] {
                assert!(load_row(stack, config) > 0.0, "{stack}/{config} must be populated");
            }
            assert!(
                load_row(stack, "varmail-p50-us") <= load_row(stack, "varmail-p99-us"),
                "{stack} percentiles unordered"
            );
        }
    }

    #[test]
    fn load_experiment_upgrade_and_eio_scenarios_hold_the_bar() {
        // Every personality row present on every stack and the upgrade
        // scenario clean with a measured pause.  The EIO recovery contract
        // is held by the `health` experiment, not by `load`.
        for stack in ["Bento", "C-Kernel", "Ext4"] {
            for personality in LOAD_PERSONALITIES {
                let p = |suffix: &str| load_row(stack, &format!("{personality}{suffix}"));
                assert!(p("") > 0.0, "{stack}/{personality} must do work");
                assert!(p("-p50-us") <= p("-p99-us"), "{stack}/{personality} unordered");
            }
        }
        assert!(load_row("Bento", "upgrade-pause-us") > 0.0, "pause must be measured");
        assert_eq!(load_row("Bento", "upgrade-failed-ops"), 0.0);
    }

    #[test]
    fn obs_rows_cover_phases_registry_and_overhead_on_every_stack() {
        // The traced half of `load`'s row contract: the disabled-hook cost,
        // per-phase percentiles, attribution shares, slowest ops, dropped
        // spans and the mount's counters.
        assert!(load_row("-", "disabled-hook-ns") < 250.0, "disabled hook over bound");
        for stack in ["Bento", "C-Kernel", "Ext4"] {
            for personality in LOAD_PERSONALITIES {
                let p = |suffix: &str| load_row(stack, &format!("{personality}{suffix}"));
                assert!(p("-slowest-us") > 0.0);
                assert!(p("-dropped-spans") >= 0.0);
                // The mount's counters reached the rows: the device wrote
                // (the experiment syncs before publishing, so this holds
                // for writeback-mode Ext4 too).
                assert!(p("-ctr-dev_writes") > 0.0);
                let share = p("-attributed-share");
                assert!((0.0..=1.1).contains(&share), "{stack} share {share} out of range");
            }
            // Commit wait and device I/O are owed everywhere except Ext4
            // under a durability-free mix (see required_phases).
            for personality in ["varmail", "fileserver"] {
                if stack == "Ext4" && personality == "fileserver" {
                    continue;
                }
                for phase in ["commit-wait", "dev-io"] {
                    let p50 = load_row(stack, &format!("{personality}-phase-{phase}-p50-us"));
                    let p99 = load_row(stack, &format!("{personality}-phase-{phase}-p99-us"));
                    assert!(p50 > 0.0 && p50 <= p99, "{stack}/{personality}/{phase} unordered");
                }
            }
        }
        // The xv6 stacks also owe the namespace-lock and log phases
        // varmail's create/delete traffic passes through.
        for stack in ["Bento", "C-Kernel"] {
            for phase in ["nslock", "log-reserve", "log-stage"] {
                assert!(load_row(stack, &format!("varmail-phase-{phase}-p99-us")) > 0.0);
            }
        }
    }

    #[test]
    fn crash_experiment_reports_clean_counts_for_every_stack() {
        let cfg = ExperimentConfig::quick();
        let rows = crash_experiment(&cfg).expect("crash experiment must be violation-free");
        for stack in ["Bento", "C-Kernel", "FUSE", "Ext4"] {
            let get = |config: &str| {
                rows.iter()
                    .find(|r| r.stack == stack && r.config == config)
                    .unwrap_or_else(|| panic!("missing crash row {stack}/{config}"))
                    .value
            };
            assert!(get("states-checked") > 0.0);
            assert_eq!(get("violations"), 0.0, "{stack} must recover cleanly");
            assert!(get("fsync-points") > 0.0);
            assert!(get("trace-writes") > 0.0);
        }
    }

    #[test]
    fn nvme_create_batches_barriers_at_eight_threads() {
        // The acceptance bar for the pipelined group-commit log: with real
        // barrier costs, 8 concurrent creators must share commits, issuing
        // at most half the device barriers per operation of a lone creator
        // (which pays 1 barrier for every op: the commit barrier behind
        // payload and record — the one-barrier protocol the crashsim
        // harness enforces).
        let cfg = ExperimentConfig { ops: 200, ..ExperimentConfig::quick() };
        let rows = scaling_experiment_with_threads(&cfg, &[1]).expect("scaling sweep");
        let barriers_per_op = |threads: usize| {
            rows.iter()
                .find(|r| {
                    r.stack == "Bento"
                        && r.config == format!("create-nvme-{threads}t-barriers-per-op")
                })
                .unwrap_or_else(|| panic!("missing nvme barriers row for {threads}t"))
                .value
        };
        let single = barriers_per_op(1);
        let grouped = barriers_per_op(8);
        assert!(
            (0.9..=1.1).contains(&single),
            "a lone creator pays 1 barrier per op, got {single}"
        );
        assert!(
            grouped * 2.0 <= single,
            "8-thread create must batch ≥2×: {grouped} vs {single} barriers/op"
        );
    }

    #[test]
    fn table1_reproduces_published_percentages() {
        let rows = table1_bug_analysis();
        let prevented = rows.iter().find(|r| r.config == "prevented by Rust %").unwrap();
        assert!((prevented.value - 93.2).abs() < 1.0);
        assert_eq!(rows.iter().filter(|r| r.unit == "bugs").count(), 15);
    }

    #[test]
    fn table2_has_only_bento_with_all_yes() {
        let table = table2_mechanism_comparison();
        let all_yes: Vec<&String> = table
            .iter()
            .filter(|(_, cells)| cells.iter().all(|c| *c == "yes"))
            .map(|(name, _)| name)
            .collect();
        assert_eq!(all_yes, vec!["Bento"]);
    }
}
