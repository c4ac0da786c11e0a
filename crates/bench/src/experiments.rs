//! The experiments: one function per table / figure of the paper.

use std::time::Duration;

use simkernel::cost::CostModel;
use simkernel::error::KernelResult;
use simkernel::vfs::{MountOptions, WritePathStats};

use bugdb::BugStudy;
use workloads::{
    create_crossdir_micro, create_micro, delete_micro, fileserver, generate_linux_like_manifest,
    mount_stack, mount_stack_with, read_micro, read_micro_disjoint, untar, varmail, write_micro,
    write_micro_disjoint, AccessPattern, FsStack, MountedStack,
};

use crate::report::Row;

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Measured duration of each timed workload configuration.
    pub duration: Duration,
    /// Thread count for the "32 thread" configurations.
    pub threads_high: usize,
    /// Device/boundary cost model.
    pub model: CostModel,
    /// Disk size in 4 KiB blocks.
    pub disk_blocks: u64,
    /// Size of the file used by the read/write microbenchmarks, in bytes.
    pub micro_file_size: u64,
    /// Files pre-created per thread for the delete microbenchmark.
    pub delete_precreate_total: usize,
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
            duration: Duration::from_millis(500),
            threads_high: 32,
            model: CostModel::nvme_ssd(),
            disk_blocks: 96 * 1024, // 384 MiB
            micro_file_size: 24 * 1024 * 1024,
            delete_precreate_total: 800,
            macro_files_per_thread: 50,
            macro_threads: 8,
            untar_files: 350,
        }
    }

    /// A scaled-down configuration for smoke tests and `cargo bench`.
    pub fn quick() -> Self {
        ExperimentConfig {
            duration: Duration::from_millis(150),
            threads_high: 8,
            model: CostModel::nvme_ssd_scaled(4),
            disk_blocks: 48 * 1024,
            micro_file_size: 8 * 1024 * 1024,
            delete_precreate_total: 200,
            macro_files_per_thread: 15,
            macro_threads: 4,
            untar_files: 120,
        }
    }

    fn delete_per_thread(&self, threads: usize) -> usize {
        (self.delete_precreate_total / threads).max(20)
    }
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
    rows.push(Row::new(
        "table1",
        "memory %",
        "-",
        summary.memory_fraction * 100.0,
        "%",
        Some(68.0),
    ));
    rows.push(Row::new(
        "table1",
        "prevented by Rust %",
        "-",
        summary.prevented_by_rust_fraction * 100.0,
        "%",
        Some(93.0),
    ));
    rows.push(Row::new(
        "table1",
        "kernel oops %",
        "-",
        summary.oops_fraction * 100.0,
        "%",
        Some(26.0),
    ));
    rows.push(Row::new(
        "table1",
        "memory leak %",
        "-",
        summary.leak_fraction * 100.0,
        "%",
        Some(34.0),
    ));
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

/// Figure 2: 4 KiB read ops/sec for seq/rnd × 1/32 threads, three xv6
/// stacks.
///
/// # Errors
///
/// Propagates mount/workload errors.
pub fn fig2_read_4k(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    let mut rows = Vec::new();
    for stack in FsStack::xv6_variants() {
        let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
        for (pattern, threads, label) in [
            (AccessPattern::Sequential, 1, "seq-1t"),
            (AccessPattern::Sequential, cfg.threads_high, "seq-32t"),
            (AccessPattern::Random, 1, "rnd-1t"),
            (AccessPattern::Random, cfg.threads_high, "rnd-32t"),
        ] {
            let result = read_micro(
                &mounted.vfs,
                cfg.micro_file_size,
                4096,
                pattern,
                threads,
                cfg.duration,
            )?;
            rows.push(Row::new(
                "fig2",
                label,
                stack.label(),
                result.ops_per_sec(),
                "ops/sec",
                None,
            ));
        }
        mounted.unmount()?;
    }
    Ok(rows)
}

/// Figure 3: read throughput (MB/s) at 32 KiB / 128 KiB / 1024 KiB request
/// sizes, seq/rnd × 1/32 threads.
///
/// # Errors
///
/// Propagates mount/workload errors.
pub fn fig3_read_throughput(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    let mut rows = Vec::new();
    for stack in FsStack::xv6_variants() {
        let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
        for io_size in [32 * 1024usize, 128 * 1024, 1024 * 1024] {
            for (pattern, threads, label) in [
                (AccessPattern::Sequential, 1, "seq-1t"),
                (AccessPattern::Sequential, cfg.threads_high, "seq-32t"),
                (AccessPattern::Random, 1, "rnd-1t"),
                (AccessPattern::Random, cfg.threads_high, "rnd-32t"),
            ] {
                let result = read_micro(
                    &mounted.vfs,
                    cfg.micro_file_size,
                    io_size,
                    pattern,
                    threads,
                    cfg.duration,
                )?;
                let config = format!("{}k-{label}", io_size / 1024);
                rows.push(Row::new(
                    "fig3",
                    &config,
                    stack.label(),
                    result.throughput_mbps(),
                    "MB/s",
                    None,
                ));
            }
        }
        mounted.unmount()?;
    }
    Ok(rows)
}

/// Figure 4: write throughput (MB/s) at 32 KiB / 128 KiB / 1024 KiB request
/// sizes for seq-1t, rnd-1t and rnd-32t.
///
/// # Errors
///
/// Propagates mount/workload errors.
pub fn fig4_write_throughput(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    let mut rows = Vec::new();
    for stack in FsStack::xv6_variants() {
        for io_size in [32 * 1024usize, 128 * 1024, 1024 * 1024] {
            for (pattern, threads, label) in [
                (AccessPattern::Sequential, 1, "seq-1t"),
                (AccessPattern::Random, 1, "rnd-1t"),
                (AccessPattern::Random, cfg.threads_high, "rnd-32t"),
            ] {
                let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
                let result = write_micro(
                    &mounted.vfs,
                    cfg.micro_file_size,
                    io_size,
                    pattern,
                    threads,
                    cfg.duration,
                )?;
                let config = format!("{}k-{label}", io_size / 1024);
                rows.push(Row::new(
                    "fig4",
                    &config,
                    stack.label(),
                    result.throughput_mbps(),
                    "MB/s",
                    None,
                ));
                mounted.unmount()?;
            }
        }
    }
    Ok(rows)
}

/// Table 4: file creation ops/sec, 1 and 32 threads.
///
/// # Errors
///
/// Propagates mount/workload errors.
pub fn table4_create(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    let paper: &[(&str, f64, f64)] =
        &[("Bento", 1126.0, 1072.0), ("C-Kernel", 933.0, 881.0), ("FUSE", 24.0, 24.0)];
    let mut rows = Vec::new();
    for stack in FsStack::xv6_variants() {
        for (threads, label, paper_idx) in
            [(1usize, "1 thread", 1usize), (cfg.threads_high, "32 threads", 2)]
        {
            let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
            let result = create_micro(&mounted.vfs, 16 * 1024, threads, cfg.duration)?;
            let paper_value = paper
                .iter()
                .find(|(name, _, _)| *name == stack.label())
                .map(|(_, one, many)| if paper_idx == 1 { *one } else { *many });
            rows.push(Row::new(
                "table4",
                label,
                stack.label(),
                result.ops_per_sec(),
                "ops/sec",
                paper_value,
            ));
            mounted.unmount()?;
        }
    }
    Ok(rows)
}

/// Table 5: file deletion ops/sec, 1 and 32 threads.
///
/// # Errors
///
/// Propagates mount/workload errors.
pub fn table5_delete(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    let paper: &[(&str, f64, f64)] =
        &[("Bento", 7499.0, 7502.0), ("C-Kernel", 7500.0, 8253.0), ("FUSE", 118.0, 116.0)];
    let mut rows = Vec::new();
    for stack in FsStack::xv6_variants() {
        for (threads, label, first) in
            [(1usize, "1 thread", true), (cfg.threads_high, "32 threads", false)]
        {
            let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
            let per_thread = cfg.delete_per_thread(threads);
            let result = delete_micro(&mounted.vfs, per_thread, 4096, threads, cfg.duration)?;
            let paper_value = paper
                .iter()
                .find(|(name, _, _)| *name == stack.label())
                .map(|(_, one, many)| if first { *one } else { *many });
            rows.push(Row::new(
                "table5",
                label,
                stack.label(),
                result.ops_per_sec(),
                "ops/sec",
                paper_value,
            ));
            mounted.unmount()?;
        }
    }
    Ok(rows)
}

/// Table 6: the varmail and fileserver macrobenchmarks (ops/sec) and the
/// untar benchmark (seconds), across all four stacks.
///
/// # Errors
///
/// Propagates mount/workload errors.
pub fn table6_macrobenchmarks(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    let paper_varmail = [("Bento", 320.0), ("C-Kernel", 303.0), ("FUSE", 24.0), ("Ext4", 785.0)];
    let paper_fileserver =
        [("Bento", 3860.0), ("C-Kernel", 2947.0), ("FUSE", 7.0), ("Ext4", 5172.0)];
    let paper_untar = [("Bento", 19.8), ("C-Kernel", 31.6), ("FUSE", 3404.9), ("Ext4", 6.2)];
    let paper_of = |table: &[(&str, f64)], stack: FsStack| {
        table.iter().find(|(name, _)| *name == stack.label()).map(|(_, v)| *v)
    };
    let mut rows = Vec::new();
    let macro_duration = cfg.duration.max(Duration::from_millis(300)) * 2;
    for stack in FsStack::all() {
        // varmail
        let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
        let result = varmail(
            &mounted.vfs,
            cfg.macro_files_per_thread,
            8 * 1024,
            cfg.macro_threads,
            macro_duration,
        )?;
        rows.push(Row::new(
            "table6",
            "varmail",
            stack.label(),
            result.ops_per_sec(),
            "ops/sec",
            paper_of(&paper_varmail, stack),
        ));
        mounted.unmount()?;

        // fileserver
        let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
        let result = fileserver(
            &mounted.vfs,
            cfg.macro_files_per_thread,
            64 * 1024,
            cfg.macro_threads,
            macro_duration,
        )?;
        rows.push(Row::new(
            "table6",
            "fileserver",
            stack.label(),
            result.ops_per_sec(),
            "ops/sec",
            paper_of(&paper_fileserver, stack),
        ));
        mounted.unmount()?;

        // untar (synthetic Linux-like tree; absolute seconds depend on the
        // scaled-down tree, so the paper column is about relative ordering).
        let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
        let manifest = generate_linux_like_manifest(cfg.untar_files / 6, cfg.untar_files, 42);
        let (elapsed, _) = untar(&mounted.vfs, "/", &manifest)?;
        rows.push(Row::new(
            "table6",
            "untar",
            stack.label(),
            elapsed.as_secs_f64(),
            "seconds",
            paper_of(&paper_untar, stack),
        ));
        mounted.unmount()?;
    }
    Ok(rows)
}

/// The thread counts swept by [`scaling_experiment`]: the paper evaluates 1
/// and 32 threads; the sweep fills in the curve between them.
pub const SCALING_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The thread counts used by the CI smoke run of the scaling sweep.
pub const SCALING_SMOKE_THREADS: [usize; 2] = [1, 8];

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
        alloc_per_group: after
            .alloc_per_group
            .iter()
            .zip(before.alloc_per_group.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
        // In-flight depth is a gauge sampled by the device, not a
        // monotonic counter: the max cannot be differenced, so the
        // interval keeps the device-lifetime max, and the mean components
        // are differenced like the counters.
        queue_depth_max: after.queue_depth_max,
        queue_depth_sum: after.queue_depth_sum.saturating_sub(before.queue_depth_sum),
        queue_depth_samples: after.queue_depth_samples.saturating_sub(before.queue_depth_samples),
    }
}

/// Concurrency scaling sweep: 1 → 32 threads over the read / write / create
/// microbenchmarks on the Bento and VFS stacks, with the device cost model
/// *disabled* (zero-cost preset).
///
/// With no modelled device time, all that remains on the hot path is
/// software: the stack's own code plus every lock the simulated kernel
/// takes.  Before the sharded concurrency substrate, the buffer cache map,
/// the page cache file table and the fd table were single global locks and
/// this sweep flatlined (or regressed) immediately; with sharding, the
/// read/write rows use one private file per thread
/// ([`read_micro_disjoint`]) so distinct threads share no per-file state
/// and the curve tracks available hardware parallelism.
///
/// Rows are labelled `read-4k-rnd-Nt` / `write-4k-rnd-Nt` / `create-Nt`,
/// reporting ops/s.  Each create point also reports the write-path
/// batching counters the pipelined log and the allocation groups expose:
/// `create-Nt-ops-per-commit` (group-commit batching factor),
/// `create-Nt-barriers-per-op`, and `create-Nt-groups-used` (allocation
/// spread).  A namespace-scaling pass runs the shared-pool cross-directory
/// create workload ([`create_crossdir_micro`]) at every thread count
/// (`create-Nt-crossdir` / `create-Nt-crossdir-us-per-op` rows), with each
/// point fsck-gated on unmount — the sweep that used to serialize on the
/// per-mount namespace mutex.  A second pass re-runs create at [`SCALING_SMOKE_THREADS`]
/// with the NVMe cost model (`create-nvme-Nt*` rows) — with real barrier
/// costs, group commit must drive barriers-per-op *down* as threads go up —
/// and sweeps the `queue_depth` mount option on the Bento stack
/// (`create-8t-qdN` rows).  This is what BENCH_*.json tracks as write-path
/// batching, not just ops/s.
///
/// # Errors
///
/// Propagates mount/workload errors.
pub fn scaling_experiment(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    scaling_experiment_with_threads(cfg, &SCALING_THREADS)
}

/// [`scaling_experiment`] over an explicit thread list (the CI smoke run
/// passes [`SCALING_SMOKE_THREADS`]).
///
/// # Errors
///
/// Propagates mount/workload errors.
pub fn scaling_experiment_with_threads(
    cfg: &ExperimentConfig,
    thread_counts: &[usize],
) -> KernelResult<Vec<Row>> {
    let model = CostModel::zero();
    let file_size_per_thread: u64 = 2 * 1024 * 1024;
    let mut rows = Vec::new();
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        for &threads in thread_counts {
            // Fresh mount per point so earlier points cannot warm or
            // pollute later ones.
            let mounted = mount_stack(stack, model.clone(), cfg.disk_blocks)?;
            let read = read_micro_disjoint(
                &mounted.vfs,
                file_size_per_thread,
                4096,
                AccessPattern::Random,
                threads,
                cfg.duration,
            )?;
            rows.push(Row::new(
                "scaling",
                &format!("read-4k-rnd-{threads}t"),
                stack.label(),
                read.ops_per_sec(),
                "ops/sec",
                None,
            ));
            let write = write_micro_disjoint(
                &mounted.vfs,
                file_size_per_thread,
                4096,
                AccessPattern::Random,
                threads,
                cfg.duration,
            )?;
            rows.push(Row::new(
                "scaling",
                &format!("write-4k-rnd-{threads}t"),
                stack.label(),
                write.ops_per_sec(),
                "ops/sec",
                None,
            ));
            let before = write_path_snapshot(&mounted);
            let create = create_micro(&mounted.vfs, 4096, threads, cfg.duration)?;
            rows.push(Row::new(
                "scaling",
                &format!("create-{threads}t"),
                stack.label(),
                create.ops_per_sec(),
                "ops/sec",
                None,
            ));
            if let (Some(before), Some(after)) = (before, write_path_snapshot(&mounted)) {
                let delta = write_path_delta(&before, &after);
                rows.push(Row::new(
                    "scaling",
                    &format!("create-{threads}t-ops-per-commit"),
                    stack.label(),
                    delta.ops_per_commit(),
                    "ops/commit",
                    None,
                ));
                rows.push(Row::new(
                    "scaling",
                    &format!("create-{threads}t-barriers-per-op"),
                    stack.label(),
                    delta.barriers_per_op(),
                    "barriers/op",
                    None,
                ));
                rows.push(Row::new(
                    "scaling",
                    &format!("create-{threads}t-installs-per-commit"),
                    stack.label(),
                    delta.installs_per_commit(),
                    "installs/commit",
                    None,
                ));
                rows.push(Row::new(
                    "scaling",
                    &format!("create-{threads}t-groups-used"),
                    stack.label(),
                    delta.groups_used() as f64,
                    "groups",
                    None,
                ));
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
            let mounted = mount_stack(stack, model.clone(), cfg.disk_blocks)?;
            let create = create_crossdir_micro(&mounted.vfs, 4096, threads, cfg.duration)?;
            rows.push(Row::new(
                "scaling",
                &format!("create-{threads}t-crossdir"),
                stack.label(),
                create.ops_per_sec(),
                "ops/sec",
                None,
            ));
            rows.push(Row::new(
                "scaling",
                &format!("create-{threads}t-crossdir-us-per-op"),
                stack.label(),
                1e6 / create.ops_per_sec().max(1e-9),
                "us/op",
                None,
            ));
            mounted.unmount_and_check()?;
        }
    }
    // With real barrier costs (NVMe model), group-commit batching must show
    // up as fewer device barriers per operation at higher thread counts.
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        for threads in SCALING_SMOKE_THREADS {
            let (create, delta) = create_with_write_path_stats(
                stack,
                cfg,
                &MountOptions::default(),
                threads,
                CostModel::nvme_ssd_scaled(8),
            )?;
            rows.push(Row::new(
                "scaling",
                &format!("create-nvme-{threads}t"),
                stack.label(),
                create.ops_per_sec(),
                "ops/sec",
                None,
            ));
            if let Some(delta) = delta {
                rows.push(Row::new(
                    "scaling",
                    &format!("create-nvme-{threads}t-barriers-per-op"),
                    stack.label(),
                    delta.barriers_per_op(),
                    "barriers/op",
                    None,
                ));
            }
        }
    }
    // Queue-depth sweep on the queued NVMe device (Bento, 8 threads,
    // `queue_depth` mount option).  Depth 1 still queues but serializes
    // service; deeper queues let a commit's batched epoch — the installs
    // that fell due and the payload copies — overlap.  Besides ops/s
    // the rows surface the write-path barrier discipline (must stay flat —
    // overlap may never add barriers) and the in-flight depth gauge the
    // device samples (mean/max), which is the direct evidence that
    // requests actually overlapped.
    for depth in [1usize, 8, 32] {
        let options = MountOptions::default().with_option("queue_depth", &depth.to_string());
        // Unscaled NVMe service time: the ~10 µs per-block service is what
        // makes in-flight overlap visible on the depth gauge (heavily
        // scaled-down service completes before the next submission).
        let (create, delta) = create_with_write_path_stats(
            FsStack::BentoXv6,
            cfg,
            &options,
            8,
            CostModel::nvme_ssd(),
        )?;
        let label = FsStack::BentoXv6.label();
        rows.push(Row::new(
            "scaling",
            &format!("create-8t-qd{depth}"),
            label,
            create.ops_per_sec(),
            "ops/sec",
            None,
        ));
        if let Some(delta) = delta {
            rows.push(Row::new(
                "scaling",
                &format!("create-8t-qd{depth}-barriers-per-op"),
                label,
                delta.barriers_per_op(),
                "barriers/op",
                None,
            ));
            rows.push(Row::new(
                "scaling",
                &format!("create-8t-qd{depth}-mean-depth"),
                label,
                delta.mean_queue_depth(),
                "requests",
                None,
            ));
            rows.push(Row::new(
                "scaling",
                &format!("create-8t-qd{depth}-max-depth"),
                label,
                delta.queue_depth_max as f64,
                "requests",
                None,
            ));
        }
    }
    // Phase-attributed create: the same create-heavy traffic through the
    // load generator's span tracing, so the scaling story reports *where*
    // the per-op time goes (namespace lock vs log reservation vs commit
    // vs device), not just how many ops completed.  Runs on the Bento
    // stack under the scaled NVMe model so device time is visible.
    let create_spec = loadgen::WorkloadSpec {
        name: "create-phase".to_string(),
        fileset: loadgen::FileSetSpec {
            dir_width: 4,
            depth: 1,
            files: 40,
            size: loadgen::SizeDist::Fixed(4096),
        },
        mix: loadgen::OpMix::new(&[(loadgen::OpKind::Create, 1)]),
        zipf_theta: 0.0,
        io_size: 4096,
        append_size: 0,
        replay: None,
    };
    let mounted = mount_stack(FsStack::BentoXv6, CostModel::nvme_ssd_scaled(8), cfg.disk_blocks)?;
    let load_cfg = loadgen::LoadConfig::closed(8, cfg.duration);
    loadgen::prepare(&mounted.vfs, &create_spec, &load_cfg)?;
    let tracing = simkernel::trace::enable();
    let traced = loadgen::run_load(&mounted.vfs, &create_spec, &load_cfg)?;
    drop(tracing);
    rows.extend(phase_breakdown_rows("scaling", "create-8t", FsStack::BentoXv6.label(), &traced));
    mounted.unmount()?;
    Ok(rows)
}

/// The `crash` experiment: runs the crashsim harness (see the `crashsim`
/// crate) for each crash-tested stack and reports checked/found counts
/// into the BENCH JSON.  Any oracle violation fails the experiment — CI's
/// `crash-smoke` step gates on that.
///
/// # Errors
///
/// Returns an error when a stack reports oracle violations (with the first
/// few replayable state descriptions in the message) or on harness I/O
/// failure.
pub fn crash_experiment(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    use crashsim::{run_crash_test, CrashMode, CrashStack, CrashTestConfig};
    let quick = cfg.threads_high < 32;
    let crash_cfg = CrashTestConfig {
        seed: 0x2021_FA57,
        ops: 200,
        disk_blocks: 8192,
        mode: CrashMode::Sampled { states: if quick { 160 } else { 400 } },
        max_violations: 8,
        queue_depth: 0,
    };
    let mut rows = Vec::new();
    let gate = |rows: &mut Vec<Row>, report: &crashsim::CrashReport, prefix: &str| {
        for (config, value) in [
            ("states-checked", report.states_checked as f64),
            ("violations", report.violations_found as f64),
            ("fsync-points", report.fsync_points as f64),
            ("trace-writes", report.trace_writes as f64),
            ("trace-epochs", report.trace_epochs as f64),
        ] {
            rows.push(Row::new(
                "crash",
                &format!("{prefix}{config}"),
                report.stack,
                value,
                "count",
                None,
            ));
        }
        if !report.is_clean() {
            eprintln!(
                "crash oracle violations on {}{}: {} found across {} states",
                prefix, report.stack, report.violations_found, report.states_checked
            );
            for violation in &report.violations {
                eprintln!("  [{}] {}", violation.state, violation.detail);
            }
            return Err(simkernel::error::KernelError::with_context(
                simkernel::error::Errno::Io,
                "crash oracle violations found (details on stderr)",
            ));
        }
        Ok(())
    };
    for stack in CrashStack::all() {
        let report = run_crash_test(stack, &crash_cfg)?;
        gate(&mut rows, &report, "")?;
    }
    // One more pass through the queued (multi-queue) device model: batched
    // submission of each commit's installs and payload must keep both
    // oracles clean, with the recorder observing every queued write in its
    // submission epoch.  `queued-*` rows distinguish it in the JSON.
    let queued_cfg = CrashTestConfig { queue_depth: 8, ..crash_cfg };
    let report = run_crash_test(CrashStack::BentoXv6, &queued_cfg)?;
    gate(&mut rows, &report, "queued-")?;
    Ok(rows)
}

/// The stacks the `load` experiment drives (the FUSE stack is orders of
/// magnitude slower under the boundary-crossing model and would dominate
/// the runtime for no extra signal — it stays in the table6 macros).
pub const LOAD_STACKS: [FsStack; 3] = [FsStack::BentoXv6, FsStack::VfsXv6, FsStack::Ext4];

/// Runs one personality closed-loop on a fresh mount and returns its BENCH
/// rows: throughput plus the p50/p90/p99/p99.9 latency quartet, per-class
/// error counts, and — when `traced` — the per-phase latency attribution
/// ([`phase_breakdown_rows`]).  `load-smoke` runs untraced on purpose: it
/// is the disabled-path reference the overhead methodology compares
/// against (see EXPERIMENTS.md).
fn load_personality_rows(
    stack: FsStack,
    spec: &loadgen::WorkloadSpec,
    cfg: &ExperimentConfig,
    duration: Duration,
    traced: bool,
) -> KernelResult<Vec<Row>> {
    let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
    let load_cfg = loadgen::LoadConfig::closed(cfg.macro_threads, duration);
    loadgen::prepare(&mounted.vfs, spec, &load_cfg)?;
    let tracing = traced.then(simkernel::trace::enable);
    let result = loadgen::run_load(&mounted.vfs, spec, &load_cfg)?;
    drop(tracing);
    if !result.is_clean() {
        return Err(simkernel::error::KernelError::with_context(
            simkernel::error::Errno::Io,
            "load run failed ops or recorded no latency",
        ));
    }
    let label = stack.label();
    let mut rows = vec![
        Row::new("load", &spec.name, label, result.ops_per_sec(), "ops/sec", None),
        Row::new("load", &format!("{}-p50-us", spec.name), label, result.p_us(50.0), "us", None),
        Row::new("load", &format!("{}-p90-us", spec.name), label, result.p_us(90.0), "us", None),
        Row::new("load", &format!("{}-p99-us", spec.name), label, result.p_us(99.0), "us", None),
        Row::new("load", &format!("{}-p999-us", spec.name), label, result.p_us(99.9), "us", None),
    ];
    // The durability class is the tail that matters for the paper's fsync
    // claims; report it separately where the personality has one.
    if let Some(fsync) = result.class(loadgen::OpKind::Fsync) {
        rows.push(Row::new(
            "load",
            &format!("{}-fsync-p99-us", spec.name),
            label,
            fsync.latency.percentile(99.0) as f64 / 1_000.0,
            "us",
            None,
        ));
    }
    // Windowed throughput: min/mean/max completed-op rate over the run's
    // complete timeline windows.  A steady closed-loop run keeps min near
    // max; a collapse (stall, livelock) shows up as a cratered min long
    // before it moves the whole-run mean.
    if let Some((min, mean, max)) = result.window_rate_summary() {
        for (suffix, value) in [("min", min), ("mean", mean), ("max", max)] {
            rows.push(Row::new(
                "load",
                &format!("{}-window-rate-{suffix}", spec.name),
                label,
                value,
                "ops/sec",
                None,
            ));
        }
    }
    // Per-class error counts: zero on a clean run (this run is gated clean
    // above), but the row's presence keeps fault-run JSONs comparable.
    for class in &result.per_op {
        rows.push(Row::new(
            "load",
            &format!("{}-{}-errors", spec.name, class.kind.label()),
            label,
            class.errors as f64,
            "count",
            None,
        ));
    }
    if traced {
        rows.extend(phase_breakdown_rows("load", &spec.name, label, &result));
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
    result: &loadgen::LoadResult,
) -> Vec<Row> {
    use simkernel::metrics::LatencyHistogram;
    use simkernel::trace::Phase;
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
/// fileserver, webserver, untar-replay, namespace-churn) closed-loop on the Bento, VFS and
/// ext4 stacks with latency percentiles, an open-loop overload probe
/// (backlog measured, not hidden), the paper's upgrade-under-traffic
/// scenario (bounded pause, zero failed ops — violations fail the
/// experiment), and transient-EIO injection under load.
///
/// # Errors
///
/// Fails when any clean run fails an operation or records an empty
/// histogram, when the upgrade scenario fails any operation, or when the
/// stack does not serve durable writes after the EIO window clears.
pub fn load_experiment(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    use simkernel::error::{Errno, KernelError};
    let duration = cfg.duration.max(Duration::from_millis(200));
    let files = (cfg.macro_files_per_thread * cfg.macro_threads).max(40);
    let mut rows = Vec::new();
    for stack in LOAD_STACKS {
        for spec in loadgen::WorkloadSpec::personalities(cfg.untar_files) {
            let spec = if spec.replay.is_some() { spec } else { spec.with_files(files) };
            rows.extend(load_personality_rows(stack, &spec, cfg, duration, true)?);
        }
    }

    // Open-loop overload probes (Bento, varmail and fileserver): offer a
    // multiple of the just-measured closed-loop rate; the backlog and
    // inflated p99 are the point — open-loop drivers measure overload
    // instead of hiding it.  Each personality runs twice, on the default
    // synchronous device (`{name}-open-*` rows) and on the queued NVMe
    // model at depth 32 (`{name}-open-queued-*` rows): under overload the
    // batched commit epochs overlap their log and install I/O, so the queued
    // p99 must come in below the synchronous one at the same offered rate.
    let label = FsStack::BentoXv6.label();
    let specs: [fn() -> loadgen::WorkloadSpec; 2] =
        [loadgen::WorkloadSpec::varmail, loadgen::WorkloadSpec::fileserver];
    for make_spec in specs {
        let open_spec = make_spec().with_files(files);
        let closed_rate = rows
            .iter()
            .find(|r| r.stack == label && r.config == open_spec.name)
            .map(|r| r.value)
            .unwrap_or(1000.0);
        for (suffix, options) in [
            ("", MountOptions::default()),
            ("-queued", MountOptions::default().with_option("queue_depth", "32")),
        ] {
            let mounted =
                mount_stack_with(FsStack::BentoXv6, cfg.model.clone(), cfg.disk_blocks, &options)?;
            let open_cfg = loadgen::LoadConfig {
                error_policy: loadgen::ErrorPolicy::FailFast,
                ..loadgen::LoadConfig::open(cfg.macro_threads, closed_rate * 4.0, duration)
            };
            loadgen::prepare(&mounted.vfs, &open_spec, &open_cfg)?;
            let open = loadgen::run_load(&mounted.vfs, &open_spec, &open_cfg)?;
            rows.push(Row::new(
                "load",
                &format!("{}-open{}-p99-us", open_spec.name, suffix),
                label,
                open.p_us(99.0),
                "us",
                None,
            ));
            rows.push(Row::new(
                "load",
                &format!("{}-open{}-backlog-ms", open_spec.name, suffix),
                label,
                open.max_backlog.as_secs_f64() * 1_000.0,
                "ms",
                None,
            ));
            mounted.unmount()?;
        }
    }
    let spec = loadgen::WorkloadSpec::varmail().with_files(files);

    // Upgrade under sustained traffic (paper §6.2): swap in a fresh xv6fs
    // implementation mid-run; zero failed ops and a measured pause are the
    // acceptance bar.
    let mounted = mount_stack(FsStack::BentoXv6, cfg.model.clone(), cfg.disk_blocks)?;
    let upgrade_cfg = loadgen::LoadConfig::closed(cfg.macro_threads, duration);
    loadgen::prepare(&mounted.vfs, &spec, &upgrade_cfg)?;
    let (under_upgrade, outcome) =
        loadgen::run_upgrade_under_load(&mounted.vfs, &spec, &upgrade_cfg, None)?;
    if !under_upgrade.is_clean() {
        return Err(KernelError::with_context(
            Errno::Io,
            "operations failed during the live upgrade",
        ));
    }
    if outcome.report.pause_ns == 0 {
        return Err(KernelError::with_context(Errno::Io, "upgrade pause was not measured"));
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

    // Transient EIO under load: the stack may fail individual ops while the
    // fault is live (counted), but must serve durable writes afterwards.
    let (under_eio, eio) = loadgen::run_eio_under_load(
        FsStack::BentoXv6,
        cfg.model.clone(),
        cfg.disk_blocks,
        &spec,
        &loadgen::LoadConfig::closed(cfg.macro_threads, duration),
        0.02,
    )?;
    if !eio.recovered {
        return Err(KernelError::with_context(
            Errno::Io,
            "stack did not serve durable writes after the EIO window",
        ));
    }
    let injected = eio.fault_stats.read_errors + eio.fault_stats.write_errors;
    rows.push(Row::new("load", "eio-injected", label, injected as f64, "count", None));
    rows.push(Row::new("load", "eio-failed-ops", label, under_eio.errors as f64, "count", None));
    rows.push(Row::new(
        "load",
        "eio-completed-ops",
        label,
        under_eio.operations as f64,
        "count",
        None,
    ));
    Ok(rows)
}

/// CI's `load-smoke`: a quick closed-loop varmail run on each of the three
/// load stacks; any failed op or empty histogram fails the experiment.
///
/// # Errors
///
/// As for [`load_experiment`].
pub fn load_smoke_experiment(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    let duration = cfg.duration.max(Duration::from_millis(120));
    let spec = loadgen::WorkloadSpec::varmail().with_files(40);
    let mut rows = Vec::new();
    for stack in LOAD_STACKS {
        rows.extend(load_personality_rows(stack, &spec, cfg, duration, false)?);
    }
    Ok(rows)
}

/// The workloads the `obs` experiment traces on every load stack.
const OBS_PERSONALITIES: [fn() -> loadgen::WorkloadSpec; 2] =
    [loadgen::WorkloadSpec::varmail, loadgen::WorkloadSpec::fileserver];

/// The phases a stack's traced run must cover, or the experiment fails:
/// an op class silently bypassing an instrumented wait point is exactly
/// the regression this gate exists to catch.
///
/// The xv6 stacks journal metadata synchronously inside the op, so every
/// mix with namespace traffic owes all five phases (namespace locks, the
/// unified journal's reserve/stage/commit, the device).  ext4sim
/// deliberately has no per-directory namespace locks (see the ext4sim
/// audit note), and its operations join one running journal transaction
/// — so, like real ext4 in writeback mode, its journal only runs inside
/// an op span when `fsync` forces write-back and a commit.  A mix
/// without durability ops (fileserver) owes no phase at all on Ext4:
/// dirty pages stay cached until sync/unmount and a warm fileset serves
/// reads without touching the device, so zero attributed time is the
/// honest answer, not a coverage hole.
fn obs_required_phases(stack: FsStack, mix_has_fsync: bool) -> &'static [simkernel::trace::Phase] {
    use simkernel::trace::Phase;
    match stack {
        FsStack::BentoXv6 | FsStack::VfsXv6 | FsStack::FuseXv6 => &Phase::ALL,
        FsStack::Ext4 if mix_has_fsync => &[Phase::LogStage, Phase::CommitWait, Phase::DevIo],
        FsStack::Ext4 => &[],
    }
}

/// The `obs` experiment: end-to-end observability across the three load
/// stacks.
///
/// Three parts, all CI-gated via `obs-smoke`:
///
/// 1. **Disabled-path overhead**: measures the cost of one trace hook with
///    tracing off (`disabled-hook-ns` row) and fails above 250 ns — the
///    hook is a single relaxed atomic load and must stay that way.
/// 2. **Phase coverage + attribution**: varmail and fileserver run traced
///    and closed-loop on Bento, C-Kernel and Ext4.  Every op class that
///    completed work must have produced spans, the union of observed
///    phases must cover `obs_required_phases` for the stack, and the
///    summed per-phase attribution must reconcile with end-to-end latency
///    (`attributed <= 1.1 x total`; exclusive-time attribution guarantees
///    the 1.0 bound, the slack is clock granularity).  Rows report the
///    per-phase p50/p99 breakdown, the attributed/other shares, the
///    slowest traced op, and the unified metrics registry counters the
///    mount published ([`MountedStack::publish_metrics`]).
/// 3. **Enabled-path overhead**: varmail on Bento runs back-to-back with
///    tracing off and on (`trace-off-ops` / `trace-on-ops` /
///    `trace-overhead-pct` rows).  Informational, not gated: on the 1-CPU
///    CI container the run-to-run noise exceeds the ~2% target documented
///    in EXPERIMENTS.md, so the number is recorded where a quieter machine
///    can hold it to the bar.
///
/// # Errors
///
/// Fails on a hook-cost regression, a clean-run failure, a class that
/// completed ops without spans, an uncovered required phase, or an
/// attribution sum that exceeds the end-to-end total by more than 10%.
pub fn obs_experiment(cfg: &ExperimentConfig) -> KernelResult<Vec<Row>> {
    use simkernel::error::{Errno, KernelError};
    use simkernel::registry::MetricsRegistry;
    use simkernel::trace;

    let mut rows = Vec::new();

    // Part 1: the disabled path must stay one atomic load.
    let hook_ns = trace::disabled_hook_cost_ns(100_000);
    rows.push(Row::new("obs", "disabled-hook-ns", "-", hook_ns, "ns", None));
    if hook_ns > 250.0 {
        eprintln!("obs: disabled trace hook costs {hook_ns:.1} ns/call (bound 250)");
        return Err(KernelError::with_context(
            Errno::Io,
            "disabled-path trace hook exceeded its overhead bound",
        ));
    }

    // Part 2: traced runs, coverage and reconciliation gates, breakdown rows.
    let duration = cfg.duration.max(Duration::from_millis(150));
    let files = (cfg.macro_files_per_thread * cfg.macro_threads).max(40);
    for stack in LOAD_STACKS {
        let label = stack.label();
        for make_spec in OBS_PERSONALITIES {
            let spec = make_spec().with_files(files);
            let mounted = mount_stack(stack, cfg.model.clone(), cfg.disk_blocks)?;
            let load_cfg = loadgen::LoadConfig::closed(cfg.macro_threads, duration);
            loadgen::prepare(&mounted.vfs, &spec, &load_cfg)?;
            let tracing = trace::enable();
            // Fresh epoch: rings and the per-thread drop counters start at
            // zero, so `trace::dropped()` below is this run's overflow.
            trace::reset();
            let result = loadgen::run_load(&mounted.vfs, &spec, &load_cfg)?;
            drop(tracing);
            if !result.is_clean() {
                return Err(KernelError::with_context(
                    Errno::Io,
                    "obs: traced load run failed ops or recorded no latency",
                ));
            }
            // Gate: every class that completed work produced spans.  A span
            // evicted by ring overflow was still *produced* (the driver
            // aggregates the record at finish time), so ring drops are
            // reported, not a coverage hole — but a class whose span count
            // falls short by more than the run's total drops has an
            // uninstrumented path, and more spans than completions is
            // double-counting.
            let dropped = trace::dropped();
            let mut span_deficit = 0u64;
            for class in &result.per_op {
                let spans = result.trace_class(class.kind).map_or(0, |t| t.spans);
                if spans > class.completed {
                    eprintln!(
                        "obs: {label}/{}: class {} completed {} ops but traced {} spans",
                        spec.name,
                        class.kind.label(),
                        class.completed,
                        spans,
                    );
                    return Err(KernelError::with_context(
                        Errno::Io,
                        "obs: an op class traced more spans than it completed",
                    ));
                }
                span_deficit += class.completed - spans;
            }
            if span_deficit > dropped {
                eprintln!(
                    "obs: {label}/{}: {span_deficit} completed ops have no span \
                     (only {dropped} ring drops can account for them)",
                    spec.name,
                );
                return Err(KernelError::with_context(
                    Errno::Io,
                    "obs: an op class completed work without trace spans",
                ));
            }
            rows.push(Row::new(
                "obs",
                &format!("{}-dropped-spans", spec.name),
                label,
                dropped as f64,
                "spans",
                None,
            ));
            // Gate: the stack's required phases were all observed.
            let mut attributed_ns = 0u64;
            let mut total_ns = 0u64;
            let mut covered = [false; simkernel::trace::Phase::COUNT];
            for class in &result.traces {
                attributed_ns += class.attributed_ns();
                total_ns += class.total_sum_ns;
                for phase in simkernel::trace::Phase::ALL {
                    covered[phase.index()] |= class.per_phase[phase.index()].count() > 0;
                }
            }
            let mix_has_fsync = spec
                .mix
                .entries()
                .iter()
                .any(|(kind, weight)| *kind == loadgen::OpKind::Fsync && *weight > 0);
            for &phase in obs_required_phases(stack, mix_has_fsync) {
                if !covered[phase.index()] {
                    eprintln!(
                        "obs: {label}/{}: no span passed through required phase {}",
                        spec.name,
                        phase.label()
                    );
                    return Err(KernelError::with_context(
                        Errno::Io,
                        "obs: a required phase was never observed (uninstrumented path?)",
                    ));
                }
            }
            // Gate: attribution reconciles with end-to-end latency.
            if attributed_ns as f64 > total_ns as f64 * 1.10 {
                eprintln!(
                    "obs: {label}/{}: attributed {attributed_ns} ns vs total {total_ns} ns",
                    spec.name
                );
                return Err(KernelError::with_context(
                    Errno::Io,
                    "obs: per-phase attribution exceeds end-to-end latency by >10%",
                ));
            }
            rows.extend(phase_breakdown_rows("obs", &spec.name, label, &result));
            // The slowest traced op: the tail the breakdown explains.
            if let Some(worst) =
                result.traces.iter().filter_map(|t| t.slowest.first()).max_by_key(|r| r.total_ns)
            {
                rows.push(Row::new(
                    "obs",
                    &format!("{}-slowest-us", spec.name),
                    label,
                    worst.total_ns as f64 / 1_000.0,
                    "us",
                    None,
                ));
            }
            // The unified registry: absorb this mount's counters and report
            // them (stack prefix stripped — the row's stack column holds it).
            // Sync first so writeback-mode stacks flush their dirty pages
            // and the device/journal counters reflect the run's traffic.
            mounted.vfs.sync()?;
            let registry = MetricsRegistry::new();
            mounted.publish_metrics(&registry);
            // The trace subsystem's own back-pressure counters ride the
            // same registry (`trace.dropped_spans[.ringN]`), so ring
            // overflow is visible wherever the mount's counters go.
            trace::publish_dropped(&registry);
            let snapshot = registry.snapshot();
            for (key, value) in &snapshot.counters {
                let name = key.strip_prefix(&format!("{label}.")).unwrap_or(key);
                rows.push(Row::new(
                    "obs",
                    &format!("{}-ctr-{}", spec.name, name),
                    label,
                    *value as f64,
                    "count",
                    None,
                ));
            }
            mounted.unmount()?;
        }
    }

    // Part 3: enabled-path overhead, measured not gated (see doc comment).
    let spec = loadgen::WorkloadSpec::varmail().with_files(files);
    let mut ops = [0.0f64; 2];
    for (i, traced) in [(0, false), (1, true)] {
        let mounted = mount_stack(FsStack::BentoXv6, cfg.model.clone(), cfg.disk_blocks)?;
        let load_cfg = loadgen::LoadConfig::closed(cfg.macro_threads, duration);
        loadgen::prepare(&mounted.vfs, &spec, &load_cfg)?;
        let tracing = traced.then(trace::enable);
        let result = loadgen::run_load(&mounted.vfs, &spec, &load_cfg)?;
        drop(tracing);
        ops[i] = result.ops_per_sec();
        mounted.unmount()?;
    }
    let label = FsStack::BentoXv6.label();
    rows.push(Row::new("obs", "trace-off-ops", label, ops[0], "ops/sec", None));
    rows.push(Row::new("obs", "trace-on-ops", label, ops[1], "ops/sec", None));
    rows.push(Row::new(
        "obs",
        "trace-overhead-pct",
        label,
        (ops[0] - ops[1]) / ops[0].max(1e-9) * 100.0,
        "%",
        None,
    ));
    Ok(rows)
}

/// One clean, traced, monitored closed-loop run of `spec` on the Bento
/// stack: mounts, wires the monitor's registry snapshot source to the
/// mount's counters, runs under a fresh trace epoch (the monitor's flight
/// recorder drains spans from the rings), and unmounts.
fn run_monitored_clean(
    spec: &loadgen::WorkloadSpec,
    cfg: &ExperimentConfig,
    duration: Duration,
    mon: &std::sync::Arc<monitor::HealthMonitor>,
) -> KernelResult<loadgen::LoadResult> {
    use std::sync::Arc;
    let mounted = mount_stack(FsStack::BentoXv6, cfg.model.clone(), cfg.disk_blocks)?;
    let load_cfg =
        loadgen::LoadConfig::closed(cfg.macro_threads, duration).with_monitor(Arc::clone(mon));
    loadgen::prepare(&mounted.vfs, spec, &load_cfg)?;
    let source_stack = MountedStack {
        vfs: Arc::clone(&mounted.vfs),
        stack: FsStack::BentoXv6,
        device: Arc::clone(&mounted.device),
    };
    let registry = simkernel::registry::MetricsRegistry::new();
    mon.set_snapshot_source(move || {
        source_stack.publish_metrics(&registry);
        registry.snapshot()
    });
    let tracing = simkernel::trace::enable();
    simkernel::trace::reset();
    let result = loadgen::run_load(&mounted.vfs, spec, &load_cfg)?;
    drop(tracing);
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
) -> KernelResult<Vec<Row>> {
    use monitor::{
        HealthEvent, HealthMonitor, IncidentBundle, MonitorConfig, PhaseStallSpec, SloSpec,
    };
    use simkernel::error::{Errno, KernelError};
    use simkernel::trace::Phase;
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
        eprintln!("health: disabled monitor observe costs {observe_ns:.1} ns/call (bound 250)");
        return Err(KernelError::with_context(
            Errno::Io,
            "disabled-path monitor observe exceeded its overhead bound",
        ));
    }

    let duration = cfg.duration.max(Duration::from_millis(250));
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
    let specs: [fn() -> loadgen::WorkloadSpec; 3] = [
        loadgen::WorkloadSpec::varmail,
        loadgen::WorkloadSpec::fileserver,
        loadgen::WorkloadSpec::webserver,
    ];
    for make_spec in specs {
        let spec = make_spec().with_files(files);
        let cal_mon = HealthMonitor::new(MonitorConfig::new(512));
        let cal = run_monitored_clean(&spec, cfg, duration, &cal_mon)?;
        if !cal.is_clean() {
            return Err(KernelError::with_context(
                Errno::Io,
                "health: calibration run failed ops or recorded no latency",
            ));
        }
        cal_mon.finish();
        let clean_max_ns = cal_mon.windows().iter().map(|w| w.max_ns).max().unwrap_or(0);
        if clean_max_ns == 0 {
            return Err(KernelError::with_context(
                Errno::Io,
                "health: calibration run closed no windows",
            ));
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
        let gate = run_monitored_clean(&spec, cfg, duration, &gate_mon)?;
        if !gate.is_clean() {
            return Err(KernelError::with_context(
                Errno::Io,
                "health: clean gate run failed ops or recorded no latency",
            ));
        }
        let alerts = gate_mon.alerts();
        if !alerts.is_empty() {
            for alert in &alerts {
                eprintln!("health: {} clean-run false positive: {alert:?}", spec.name);
            }
            return Err(KernelError::with_context(
                Errno::Io,
                "health: a clean run raised alerts (false positive)",
            ));
        }
        let windows = gate_mon.windows().len();
        if windows < 5 {
            eprintln!("health: {} closed only {windows} windows", spec.name);
            return Err(KernelError::with_context(
                Errno::Io,
                "health: too few windows to evaluate burn rates",
            ));
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
    let spec = loadgen::WorkloadSpec::varmail().with_files(files);
    let mut incidents: Vec<IncidentBundle> = Vec::new();

    // Part 3: transient EIO must trip the error-budget SLO within two
    // windows of the first failed op, and clear once the fault lifts.
    let eio_mon =
        HealthMonitor::new(MonitorConfig::new(window_ops).with_slo(SloSpec::error_budget(
            "eio-error-budget",
            "*",
            budget,
        )));
    let eio_cfg =
        loadgen::LoadConfig::closed(cfg.macro_threads, duration).with_monitor(Arc::clone(&eio_mon));
    let tracing = simkernel::trace::enable();
    simkernel::trace::reset();
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
        return Err(KernelError::with_context(
            Errno::Io,
            "health: stack did not serve durable writes after the EIO window",
        ));
    }
    if under_eio.errors == 0 {
        return Err(KernelError::with_context(
            Errno::Io,
            "health: EIO injection produced no failed ops; nothing to detect",
        ));
    }
    let first_bad = eio_mon.first_error_window().ok_or_else(|| {
        KernelError::with_context(Errno::Io, "health: failed ops never reached the monitor")
    })?;
    let events = eio_mon.events();
    let fired: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            HealthEvent::SloBurnFired { window, .. } => Some(*window),
            _ => None,
        })
        .collect();
    let &[fired_at] = fired.as_slice() else {
        eprintln!("health: expected exactly one burn alert, got {fired:?} (events: {events:?})");
        return Err(KernelError::with_context(
            Errno::Io,
            "health: the EIO run did not fire exactly one burn alert",
        ));
    };
    if fired_at > first_bad + 2 {
        eprintln!("health: errors started at window {first_bad}, alert waited until {fired_at}");
        return Err(KernelError::with_context(
            Errno::Io,
            "health: burn alert fired more than two windows after the fault",
        ));
    }
    let cleared_at = events
        .iter()
        .find_map(|e| match e {
            HealthEvent::SloBurnCleared { window, .. } => Some(*window),
            _ => None,
        })
        .ok_or_else(|| {
            eprintln!("health: alert fired at window {fired_at} but never cleared ({events:?})");
            KernelError::with_context(
                Errno::Io,
                "health: burn alert did not clear after the fault lifted",
            )
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
        return Err(KernelError::with_context(
            Errno::Io,
            "health: the fired alert froze no incident bundle",
        ));
    }

    // Part 4: the live upgrade's pause must surface as a commit-wait
    // phase-stall on a read class within two windows of the upgrade.  The
    // traffic is webserver's read and stat weights alone, so every op
    // parked behind the upgrade is read-class by construction, and clean
    // reads never enter commit-wait at all: the calibrated floor separates
    // the pause from every other wait.  The harness owns the contention:
    // the scenario keeps the upgrade gate until a caller has parked, then
    // for UPGRADE_HOLD, so one attempt observes the pause on any CPU count.
    const UPGRADE_HOLD: Duration = Duration::from_millis(1);
    let web = loadgen::WorkloadSpec::webserver().with_files(files);
    let reads = loadgen::OpMix::new(&[
        (loadgen::OpKind::Read, web.mix.weight(loadgen::OpKind::Read)),
        (loadgen::OpKind::Stat, web.mix.weight(loadgen::OpKind::Stat)),
    ]);
    let up_spec = loadgen::WorkloadSpec { name: "webserver-reads".to_string(), mix: reads, ..web };
    let (up_window_ops, upgrade_stall_ns) = calibrations["webserver"];
    let [read_stall, stat_stall] = read_phase_stalls(upgrade_stall_ns);
    let up_mon = HealthMonitor::new(
        MonitorConfig::new(up_window_ops).with_phase_stall(read_stall).with_phase_stall(stat_stall),
    );
    let mounted = mount_stack(FsStack::BentoXv6, cfg.model.clone(), cfg.disk_blocks)?;
    let up_cfg =
        loadgen::LoadConfig::closed(cfg.macro_threads, duration).with_monitor(Arc::clone(&up_mon));
    loadgen::prepare(&mounted.vfs, &up_spec, &up_cfg)?;
    {
        let source_stack = MountedStack {
            vfs: Arc::clone(&mounted.vfs),
            stack: FsStack::BentoXv6,
            device: Arc::clone(&mounted.device),
        };
        let registry = simkernel::registry::MetricsRegistry::new();
        up_mon.set_snapshot_source(move || {
            source_stack.publish_metrics(&registry);
            registry.snapshot()
        });
    }
    let tracing = simkernel::trace::enable();
    simkernel::trace::reset();
    let upgrade_run =
        loadgen::run_upgrade_under_load(&mounted.vfs, &up_spec, &up_cfg, Some(UPGRADE_HOLD));
    drop(tracing);
    let (under_upgrade, outcome) = upgrade_run?;
    if !under_upgrade.is_clean() {
        return Err(KernelError::with_context(
            Errno::Io,
            "health: operations failed during the live upgrade",
        ));
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
        eprintln!(
            "health: upgrade pause {:.1} us fired in window {fired_window} (worst read \
             commit-wait {:.1} us, stall floor {:.1} us); flagged windows {flagged:?}",
            outcome.report.pause_ns as f64 / 1_000.0,
            read_commit_wait_ns as f64 / 1_000.0,
            upgrade_stall_ns as f64 / 1_000.0,
        );
        return Err(KernelError::with_context(
            Errno::Io,
            "health: the upgrade pause was not flagged as commit-wait within two windows",
        ));
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
    std::fs::create_dir_all(incident_dir).map_err(|e| {
        eprintln!("health: cannot create incident dir {}: {e}", incident_dir.display());
        KernelError::with_context(Errno::Io, "health: cannot create the incident directory")
    })?;
    for bundle in &incidents {
        let path = bundle.write_to(incident_dir).map_err(|e| {
            eprintln!("health: cannot write incident bundle: {e}");
            KernelError::with_context(Errno::Io, "health: cannot write an incident bundle")
        })?;
        let json = std::fs::read_to_string(&path).map_err(|e| {
            eprintln!("health: cannot re-read {}: {e}", path.display());
            KernelError::with_context(Errno::Io, "health: cannot re-read an incident bundle")
        })?;
        IncidentBundle::schema_check(&json).map_err(|e| {
            eprintln!("health: {} fails its schema check: {e}", path.display());
            KernelError::with_context(Errno::Io, "health: an incident bundle failed schema check")
        })?;
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

/// Mounts `stack` under the (scaled) NVMe cost model, runs `create_micro`
/// with `threads` workers, and returns the result plus the write-path
/// counter delta for the run.
fn create_with_write_path_stats(
    stack: FsStack,
    cfg: &ExperimentConfig,
    options: &MountOptions,
    threads: usize,
    model: CostModel,
) -> KernelResult<(workloads::WorkloadResult, Option<WritePathStats>)> {
    let mounted = mount_stack_with(stack, model, cfg.disk_blocks, options)?;
    let before = write_path_snapshot(&mounted);
    let create = create_micro(&mounted.vfs, 4096, threads, cfg.duration)?;
    let delta = match (before, write_path_snapshot(&mounted)) {
        (Some(before), Some(after)) => Some(write_path_delta(&before, &after)),
        _ => None,
    };
    mounted.unmount()?;
    Ok((create, delta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rows_cover_both_stacks_and_all_thread_counts() {
        // A very short sweep: correctness of the row structure, not numbers.
        let cfg = ExperimentConfig {
            duration: Duration::from_millis(30),
            disk_blocks: 48 * 1024,
            ..ExperimentConfig::quick()
        };
        let rows =
            scaling_experiment_with_threads(&cfg, &SCALING_SMOKE_THREADS).expect("scaling sweep");
        for stack in ["Bento", "C-Kernel"] {
            for threads in SCALING_SMOKE_THREADS {
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
        // Queue-depth sweep rows: throughput plus the in-flight depth
        // gauge the queued device samples.  At any depth the barrier
        // discipline must hold, and the device must have seen real
        // overlap (max depth above 1) once the queue allows it.
        for depth in [1, 8, 32] {
            for (suffix, unit) in
                [("", "ops/sec"), ("-barriers-per-op", "barriers/op"), ("-mean-depth", "requests")]
            {
                let config = format!("create-8t-qd{depth}{suffix}");
                let row = rows
                    .iter()
                    .find(|r| r.stack == "Bento" && r.config == config)
                    .unwrap_or_else(|| panic!("missing queue-depth sweep row {config}"));
                assert!(row.value > 0.0, "{config} must be populated");
                assert_eq!(row.unit, unit);
            }
        }
        let max_depth_row = rows
            .iter()
            .find(|r| r.config == "create-8t-qd32-max-depth")
            .expect("missing qd32 max-depth row");
        assert!(
            max_depth_row.value > 1.0,
            "depth-32 queue never overlapped requests (max depth {})",
            max_depth_row.value
        );
    }

    #[test]
    fn load_smoke_rows_cover_every_stack_with_percentiles() {
        let cfg = ExperimentConfig {
            duration: Duration::from_millis(80),
            macro_threads: 2,
            ..ExperimentConfig::quick()
        };
        let rows = load_smoke_experiment(&cfg).expect("load smoke must run clean");
        for stack in ["Bento", "C-Kernel", "Ext4"] {
            for config in ["varmail", "varmail-p50-us", "varmail-p99-us", "varmail-fsync-p99-us"] {
                let row = rows
                    .iter()
                    .find(|r| r.stack == stack && r.config == config)
                    .unwrap_or_else(|| panic!("missing load row {stack}/{config}"));
                assert!(row.value > 0.0, "{stack}/{config} must be populated");
            }
            // Percentiles must be ordered.
            let p = |config: &str| {
                rows.iter().find(|r| r.stack == stack && r.config == config).unwrap().value
            };
            assert!(p("varmail-p50-us") <= p("varmail-p99-us"), "{stack} percentiles unordered");
        }
    }

    #[test]
    fn load_experiment_upgrade_and_eio_scenarios_hold_the_bar() {
        // The full load experiment at a small scale: every personality row
        // present, the upgrade scenario clean with a measured pause, the
        // EIO scenario recovered.  (Any violation is an Err, so `expect`
        // IS the assertion for the hard requirements.)
        let cfg = ExperimentConfig {
            duration: Duration::from_millis(100),
            macro_threads: 2,
            macro_files_per_thread: 20,
            untar_files: 60,
            ..ExperimentConfig::quick()
        };
        let rows = load_experiment(&cfg).expect("load experiment must hold its invariants");
        for stack in ["Bento", "C-Kernel", "Ext4"] {
            for personality in
                ["varmail", "fileserver", "webserver", "untar-replay", "namespace-churn"]
            {
                for suffix in ["", "-p50-us", "-p99-us"] {
                    let config = format!("{personality}{suffix}");
                    assert!(
                        rows.iter().any(|r| r.stack == stack && r.config == config),
                        "missing load row {stack}/{config}"
                    );
                }
            }
        }
        let get = |config: &str| {
            rows.iter()
                .find(|r| r.stack == "Bento" && r.config == config)
                .unwrap_or_else(|| panic!("missing scenario row {config}"))
                .value
        };
        assert!(get("upgrade-pause-us") > 0.0, "pause must be measured");
        assert_eq!(get("upgrade-failed-ops"), 0.0);
        assert!(get("eio-completed-ops") > 0.0);
        assert!(get("varmail-open-p99-us") > 0.0);
    }

    #[test]
    fn obs_rows_cover_phases_registry_and_overhead_on_every_stack() {
        // The gates (span coverage per class, required-phase coverage,
        // attribution <= 1.1x total, hook cost < 250 ns) are inside
        // obs_experiment, so `expect` carries them; the assertions below
        // pin the row contract the obs-smoke CI step and EXPERIMENTS.md
        // document.
        let cfg = ExperimentConfig {
            duration: Duration::from_millis(100),
            macro_threads: 2,
            macro_files_per_thread: 20,
            ..ExperimentConfig::quick()
        };
        let rows = obs_experiment(&cfg).expect("obs experiment must hold its gates");
        assert!(
            rows.iter().any(|r| r.config == "disabled-hook-ns" && r.value < 250.0),
            "disabled hook row missing or over bound"
        );
        for stack in ["Bento", "C-Kernel", "Ext4"] {
            for personality in ["varmail", "fileserver"] {
                let p = |config: String| {
                    rows.iter()
                        .find(|r| r.stack == stack && r.config == config)
                        .unwrap_or_else(|| panic!("missing obs row {stack}/{config}"))
                        .value
                };
                // Commit wait and device I/O are owed everywhere except
                // Ext4 under a durability-free mix (fileserver has no
                // fsync and ext4sim journals in writeback style, so zero
                // in-op phase time is the honest answer — see
                // obs_required_phases).  Percentiles must be ordered.
                if stack != "Ext4" || personality == "varmail" {
                    for phase in ["commit-wait", "dev-io"] {
                        let p50 = p(format!("{personality}-phase-{phase}-p50-us"));
                        let p99 = p(format!("{personality}-phase-{phase}-p99-us"));
                        assert!(p50 > 0.0 && p50 <= p99, "{stack}/{personality}/{phase} unordered");
                    }
                }
                let share = p(format!("{personality}-attributed-share"));
                assert!((0.0..=1.1).contains(&share), "{stack} share {share} out of range");
                assert!(p(format!("{personality}-slowest-us")) > 0.0);
                // Registry counters reached the rows: the device wrote
                // (the experiment syncs before publishing, so this holds
                // for writeback-mode Ext4 too).
                assert!(p(format!("{personality}-ctr-dev_writes")) > 0.0);
            }
        }
        // The xv6 stacks also owe the namespace-lock and log-reserve
        // phases varmail's create/delete traffic passes through.
        for stack in ["Bento", "C-Kernel"] {
            for phase in ["nslock", "log-reserve", "log-stage"] {
                assert!(
                    rows.iter()
                        .any(|r| r.stack == stack
                            && r.config == format!("varmail-phase-{phase}-p99-us")),
                    "missing {stack} varmail {phase} row"
                );
            }
        }
        // Overhead probe rows exist and measured real throughput.
        for config in ["trace-off-ops", "trace-on-ops"] {
            let row = rows.iter().find(|r| r.config == config).expect("overhead rows");
            assert!(row.value > 0.0);
        }
        assert!(rows.iter().any(|r| r.config == "trace-overhead-pct"));
    }

    #[test]
    fn crash_experiment_reports_clean_counts_for_every_stack() {
        let cfg = ExperimentConfig::quick();
        let rows = crash_experiment(&cfg).expect("crash experiment must be violation-free");
        for stack in ["Bento", "C-Kernel", "Ext4"] {
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
        let cfg = ExperimentConfig {
            duration: Duration::from_millis(200),
            disk_blocks: 48 * 1024,
            ..ExperimentConfig::quick()
        };
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
