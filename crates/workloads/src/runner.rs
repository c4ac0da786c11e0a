//! The filebench personalities used in the paper's evaluation, reimplemented
//! as multi-threaded generators over the simulated VFS.
//!
//! Sizes and file counts are scaled down from the filebench defaults so a
//! full sweep completes in minutes on one machine; the op *mixes* match the
//! personalities (EXPERIMENTS.md records the scaling).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use simkernel::error::{Errno, KernelResult};
use simkernel::metrics::LatencyHistogram;
use simkernel::vfs::{OpenFlags, Vfs};

/// Sequential or uniformly random access offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Offsets advance linearly, wrapping at end of file.
    Sequential,
    /// Offsets are uniformly random, aligned to the I/O size.
    Random,
}

impl AccessPattern {
    /// Short label used in figure rows ("seq" / "rnd").
    pub fn label(self) -> &'static str {
        match self {
            AccessPattern::Sequential => "seq",
            AccessPattern::Random => "rnd",
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name (e.g. `"read-4k-rnd"`).
    pub name: String,
    /// Number of worker threads.
    pub threads: usize,
    /// Operations completed.
    pub operations: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Per-iteration latency (merged across worker threads).  For the
    /// microbenchmarks one iteration is one operation; for the
    /// macrobenchmark loops one iteration is one flowop sequence.
    pub latency: LatencyHistogram,
}

impl WorkloadResult {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Payload throughput in MB/s (10^6 bytes, as filebench reports).
    pub fn throughput_mbps(&self) -> f64 {
        self.bytes as f64 / 1_000_000.0 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Per-iteration latency percentile in microseconds (e.g. `50.0`,
    /// `99.0`).
    pub fn latency_us(&self, p: f64) -> f64 {
        self.latency.percentile(p) as f64 / 1_000.0
    }
}

/// Runs `body` on `threads` threads until `duration` elapses; `body`
/// receives the thread index and a per-thread RNG and returns
/// (operations, bytes) for one iteration.
fn run_timed<F>(
    name: &str,
    threads: usize,
    duration: Duration,
    body: F,
) -> KernelResult<WorkloadResult>
where
    F: Fn(usize, &mut SmallRng, u64) -> KernelResult<(u64, u64)> + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let total_ops = Arc::new(AtomicU64::new(0));
    let total_bytes = Arc::new(AtomicU64::new(0));
    // Each worker records into its own histogram (lock-free hot path) and
    // merges once at the end — the shared stopwatch pattern from
    // `simkernel::metrics`.
    let merged = Arc::new(Mutex::new(LatencyHistogram::new()));
    let start = Instant::now();
    let deadline = start + duration;
    let mut handles = Vec::new();
    for t in 0..threads {
        let body = Arc::clone(&body);
        let total_ops = Arc::clone(&total_ops);
        let total_bytes = Arc::clone(&total_bytes);
        let merged = Arc::clone(&merged);
        handles.push(std::thread::spawn(move || -> KernelResult<()> {
            let mut rng = SmallRng::seed_from_u64(0x5eed_0000 + t as u64);
            let mut hist = LatencyHistogram::new();
            let mut iteration = 0u64;
            while Instant::now() < deadline {
                let iter_started = Instant::now();
                let (ops, bytes) = body(t, &mut rng, iteration)?;
                if ops == 0 && bytes == 0 {
                    break; // workload exhausted (e.g. nothing left to delete)
                }
                hist.record_duration(iter_started.elapsed());
                total_ops.fetch_add(ops, Ordering::Relaxed);
                total_bytes.fetch_add(bytes, Ordering::Relaxed);
                iteration += 1;
            }
            merged.lock().merge(&hist);
            Ok(())
        }));
    }
    for handle in handles {
        handle.join().map_err(|_| {
            simkernel::error::KernelError::with_context(Errno::Io, "worker panicked")
        })??;
    }
    let latency = merged.lock().clone();
    Ok(WorkloadResult {
        name: name.to_string(),
        threads,
        operations: total_ops.load(Ordering::Relaxed),
        bytes: total_bytes.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        latency,
    })
}

fn write_fully(vfs: &Vfs, fd: u64, total: u64, chunk: usize) -> KernelResult<u64> {
    let data = vec![0xA5u8; chunk];
    let mut written = 0u64;
    while written < total {
        let n = ((total - written) as usize).min(chunk);
        vfs.write(fd, &data[..n])?;
        written += n as u64;
    }
    Ok(written)
}

// ---------------------------------------------------------------------------
// Microbenchmarks (Figures 2-4, Tables 4-5)
// ---------------------------------------------------------------------------

/// The filebench read microbenchmark: `threads` readers issue `io_size`
/// reads (sequential or random) against one `file_size`-byte file for
/// `duration`.  The file is created and warmed into the page cache first,
/// as in the paper (§6.5.1: all three stacks serve reads from the same
/// in-kernel cache).
///
/// # Errors
///
/// Propagates file system errors.
pub fn read_micro(
    vfs: &Arc<Vfs>,
    file_size: u64,
    io_size: usize,
    pattern: AccessPattern,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    let path = "/readfile.bin";
    let fd = vfs.open(path, OpenFlags::RDWR.with(OpenFlags::CREAT))?;
    write_fully(vfs, fd, file_size, 1 << 20)?;
    vfs.fsync(fd)?;
    vfs.close(fd)?;
    // Warm the page cache.
    let fd = vfs.open(path, OpenFlags::RDONLY)?;
    let mut warm = vec![0u8; 1 << 20];
    let mut off = 0u64;
    while off < file_size {
        let n = vfs.pread(fd, &mut warm, off)?;
        if n == 0 {
            break;
        }
        off += n as u64;
    }
    vfs.close(fd)?;

    let vfs = Arc::clone(vfs);
    let name = format!("read-{}k-{}", io_size / 1024, pattern.label());
    let fds: Vec<u64> =
        (0..threads).map(|_| vfs.open(path, OpenFlags::RDONLY)).collect::<KernelResult<_>>()?;
    let fds = Arc::new(fds);
    let span = file_size.saturating_sub(io_size as u64).max(1);
    let result = {
        let vfs = Arc::clone(&vfs);
        let fds = Arc::clone(&fds);
        run_timed(&name, threads, duration, move |t, rng, iteration| {
            let mut buf = vec![0u8; io_size];
            let offset = match pattern {
                AccessPattern::Sequential => (iteration * io_size as u64) % span,
                AccessPattern::Random => rng.gen_range(0..span) / io_size as u64 * io_size as u64,
            };
            let n = vfs.pread(fds[t], &mut buf, offset)?;
            Ok((1, n as u64))
        })?
    };
    for fd in fds.iter() {
        vfs.close(*fd)?;
    }
    vfs.unlink(path)?;
    Ok(result)
}

/// The filebench write microbenchmark: `threads` writers issue `io_size`
/// writes (sequential or random) into a preallocated `file_size`-byte file.
///
/// # Errors
///
/// Propagates file system errors.
pub fn write_micro(
    vfs: &Arc<Vfs>,
    file_size: u64,
    io_size: usize,
    pattern: AccessPattern,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    let path = "/writefile.bin";
    let fd = vfs.open(path, OpenFlags::RDWR.with(OpenFlags::CREAT))?;
    write_fully(vfs, fd, file_size, 1 << 20)?;
    vfs.fsync(fd)?;
    vfs.close(fd)?;

    let name = format!("write-{}k-{}", io_size / 1024, pattern.label());
    let fds: Vec<u64> =
        (0..threads).map(|_| vfs.open(path, OpenFlags::WRONLY)).collect::<KernelResult<_>>()?;
    let fds = Arc::new(fds);
    let span = file_size.saturating_sub(io_size as u64).max(1);
    let result = {
        let vfs = Arc::clone(vfs);
        let fds = Arc::clone(&fds);
        run_timed(&name, threads, duration, move |t, rng, iteration| {
            let data = vec![0x3Cu8; io_size];
            let offset = match pattern {
                AccessPattern::Sequential => (iteration * io_size as u64) % span,
                AccessPattern::Random => rng.gen_range(0..span) / io_size as u64 * io_size as u64,
            };
            let n = vfs.pwrite(fds[t], &data, offset)?;
            Ok((1, n as u64))
        })?
    };
    for fd in fds.iter() {
        vfs.close(*fd)?;
    }
    vfs.unlink(path)?;
    Ok(result)
}

/// The filebench `createfiles` microbenchmark: each thread repeatedly
/// creates a new file in its own directory, writes `file_size` bytes, and
/// closes it.
///
/// # Errors
///
/// Propagates file system errors.
pub fn create_micro(
    vfs: &Arc<Vfs>,
    file_size: usize,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    for t in 0..threads {
        vfs.mkdir(&format!("/create-{t}"))?;
    }
    let vfs2 = Arc::clone(vfs);
    run_timed("createfiles", threads, duration, move |t, _rng, iteration| {
        let path = format!("/create-{t}/f{iteration}");
        let fd = vfs2.open(&path, OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
        let written = write_fully(&vfs2, fd, file_size as u64, file_size.max(1))?;
        vfs2.close(fd)?;
        Ok((1, written))
    })
}

/// Like [`create_micro`] but over a **shared** pool of `2 * threads`
/// directories: thread `t` creates its `i`-th file in directory
/// `(t + i) % pool`, so every directory is hit by every thread.
///
/// Under a single per-mount namespace lock this workload is
/// indistinguishable from `create_micro`; with per-directory locks
/// ([`simkernel::nslock`]) the threads only contend when they land on the
/// same directory in the same instant.  File names carry the creating
/// thread's index, so no two threads ever race on the same path.
///
/// # Errors
///
/// Propagates file system errors.
pub fn create_crossdir_micro(
    vfs: &Arc<Vfs>,
    file_size: usize,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    let pool = (2 * threads).max(1);
    for d in 0..pool {
        vfs.mkdir(&format!("/crossdir-{d}"))?;
    }
    let vfs2 = Arc::clone(vfs);
    run_timed("create-crossdir", threads, duration, move |t, _rng, iteration| {
        let dir = (t as u64 + iteration) % pool as u64;
        let path = format!("/crossdir-{dir}/f-{t}-{iteration}");
        let fd = vfs2.open(&path, OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
        let written = write_fully(&vfs2, fd, file_size as u64, file_size.max(1))?;
        vfs2.close(fd)?;
        Ok((1, written))
    })
}

/// Cross-directory rename storm: two pools of shared directories
/// (`/xpool-a-*`, `/xpool-b-*`); each thread owns one file and bounces it
/// between the pools, so every iteration is a cross-directory rename whose
/// two parents live in directories shared with the other threads.
///
/// The source/destination directory for thread `t` at iteration `i` is a
/// pure function of `(t, i)`, so each rename's source is exactly the
/// previous iteration's destination and threads never collide on paths —
/// but they constantly overlap on *directories*, which is the point: this
/// is the workload that exercises [`DirLockTable::lock_pair`]'s
/// ascending-inum ordering from every argument order at once.
///
/// [`DirLockTable::lock_pair`]: simkernel::nslock::DirLockTable::lock_pair
///
/// # Errors
///
/// Propagates file system errors.
pub fn rename_storm(
    vfs: &Arc<Vfs>,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    let pool = threads.div_ceil(2).max(2);
    for d in 0..pool {
        vfs.mkdir(&format!("/xpool-a-{d}"))?;
        vfs.mkdir(&format!("/xpool-b-{d}"))?;
    }
    // dir(t, i): pool side alternates with the iteration parity, the index
    // walks the pool, so consecutive iterations chain src -> dst -> src.
    let dir_at = move |t: usize, i: u64| -> String {
        let side = if i.is_multiple_of(2) { 'a' } else { 'b' };
        let idx = (t as u64 + i) % pool as u64;
        format!("/xpool-{side}-{idx}")
    };
    for t in 0..threads {
        let fd = vfs
            .open(&format!("{}/mv-{t}", dir_at(t, 0)), OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
        vfs.close(fd)?;
    }
    let vfs2 = Arc::clone(vfs);
    run_timed("rename-storm", threads, duration, move |t, _rng, iteration| {
        let src = format!("{}/mv-{t}", dir_at(t, iteration));
        let dst = format!("{}/mv-{t}", dir_at(t, iteration + 1));
        vfs2.rename(&src, &dst)?;
        Ok((1, 0))
    })
}

/// The filebench `deletefiles` microbenchmark: `precreated` files per thread
/// are created beforehand; the measured phase deletes them.
///
/// # Errors
///
/// Propagates file system errors.
pub fn delete_micro(
    vfs: &Arc<Vfs>,
    precreated: usize,
    file_size: usize,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    for t in 0..threads {
        let dir = format!("/delete-{t}");
        vfs.mkdir(&dir)?;
        for i in 0..precreated {
            let fd = vfs.open(&format!("{dir}/f{i}"), OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
            write_fully(vfs, fd, file_size as u64, file_size.max(1))?;
            vfs.close(fd)?;
        }
    }
    vfs.sync()?;
    let vfs2 = Arc::clone(vfs);
    run_timed("deletefiles", threads, duration, move |t, _rng, iteration| {
        if iteration as usize >= precreated {
            return Ok((0, 0));
        }
        vfs2.unlink(&format!("/delete-{t}/f{iteration}"))?;
        Ok((1, 0))
    })
}

/// Like [`read_micro`] but with one private file *per thread*: thread `t`
/// only ever touches `/scale-read-{t}.bin` through its own descriptor.
///
/// This is the workload that exposes lock sharding: with disjoint files the
/// only shared state on the hot path is the kernel's own bookkeeping (fd
/// table, page cache file table, buffer cache map), so throughput scales
/// with threads exactly when those maps are contention-free.
///
/// # Errors
///
/// Propagates file system errors.
pub fn read_micro_disjoint(
    vfs: &Arc<Vfs>,
    file_size: u64,
    io_size: usize,
    pattern: AccessPattern,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    let mut fds = Vec::with_capacity(threads);
    for t in 0..threads {
        let path = format!("/scale-read-{t}.bin");
        let fd = vfs.open(&path, OpenFlags::RDWR.with(OpenFlags::CREAT))?;
        write_fully(vfs, fd, file_size, 1 << 20)?;
        vfs.fsync(fd)?;
        vfs.close(fd)?;
        // Warm this thread's file into the page cache.
        let fd = vfs.open(&path, OpenFlags::RDONLY)?;
        let mut warm = vec![0u8; 1 << 20];
        let mut off = 0u64;
        while off < file_size {
            let n = vfs.pread(fd, &mut warm, off)?;
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        fds.push(fd);
    }
    let fds = Arc::new(fds);
    let name = format!("read-{}k-{}-disjoint", io_size / 1024, pattern.label());
    let span = file_size.saturating_sub(io_size as u64).max(1);
    let result = {
        let vfs = Arc::clone(vfs);
        let fds = Arc::clone(&fds);
        run_timed(&name, threads, duration, move |t, rng, iteration| {
            let mut buf = vec![0u8; io_size];
            let offset = match pattern {
                AccessPattern::Sequential => (iteration * io_size as u64) % span,
                AccessPattern::Random => rng.gen_range(0..span) / io_size as u64 * io_size as u64,
            };
            let n = vfs.pread(fds[t], &mut buf, offset)?;
            Ok((1, n as u64))
        })?
    };
    for (t, fd) in fds.iter().enumerate() {
        vfs.close(*fd)?;
        vfs.unlink(&format!("/scale-read-{t}.bin"))?;
    }
    Ok(result)
}

/// Like [`write_micro`] but with one private preallocated file per thread
/// (see [`read_micro_disjoint`] for why).
///
/// # Errors
///
/// Propagates file system errors.
pub fn write_micro_disjoint(
    vfs: &Arc<Vfs>,
    file_size: u64,
    io_size: usize,
    pattern: AccessPattern,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    let mut fds = Vec::with_capacity(threads);
    for t in 0..threads {
        let path = format!("/scale-write-{t}.bin");
        let fd = vfs.open(&path, OpenFlags::RDWR.with(OpenFlags::CREAT))?;
        write_fully(vfs, fd, file_size, 1 << 20)?;
        vfs.fsync(fd)?;
        fds.push(fd);
    }
    let fds = Arc::new(fds);
    let name = format!("write-{}k-{}-disjoint", io_size / 1024, pattern.label());
    let span = file_size.saturating_sub(io_size as u64).max(1);
    let result = {
        let vfs = Arc::clone(vfs);
        let fds = Arc::clone(&fds);
        run_timed(&name, threads, duration, move |t, rng, iteration| {
            let data = vec![0x5Au8; io_size];
            let offset = match pattern {
                AccessPattern::Sequential => (iteration * io_size as u64) % span,
                AccessPattern::Random => rng.gen_range(0..span) / io_size as u64 * io_size as u64,
            };
            let n = vfs.pwrite(fds[t], &data, offset)?;
            Ok((1, n as u64))
        })?
    };
    for (t, fd) in fds.iter().enumerate() {
        vfs.close(*fd)?;
        vfs.unlink(&format!("/scale-write-{t}.bin"))?;
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// Macrobenchmarks (Table 6)
// ---------------------------------------------------------------------------

/// The filebench `varmail` personality (mail server): delete / create+write+
/// fsync / append+fsync / read, over a pool of small files.  Reported
/// operations count individual flowops, as filebench does.
///
/// The pool keeps its size: each iteration deletes one pool file and
/// creates it again, and the append and the read go to another pool file,
/// so a fast stack cannot fill the disk by running longer.
///
/// # Errors
///
/// Propagates file system errors.
pub fn varmail(
    vfs: &Arc<Vfs>,
    files_per_thread: usize,
    mean_file_size: usize,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    for t in 0..threads {
        let dir = format!("/varmail-{t}");
        vfs.mkdir(&dir)?;
        for i in 0..files_per_thread {
            let fd = vfs.open(&format!("{dir}/m{i}"), OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
            write_fully(vfs, fd, mean_file_size as u64, mean_file_size)?;
            vfs.close(fd)?;
        }
    }
    vfs.sync()?;
    let vfs2 = Arc::clone(vfs);
    run_timed("varmail", threads, duration, move |t, rng, _iteration| {
        let dir = format!("/varmail-{t}");
        let mut bytes = 0u64;
        // 1. delete a mail file, then 2. create it again: write, fsync, close.
        let victim = format!("{dir}/m{}", rng.gen_range(0..files_per_thread));
        vfs2.unlink(&victim)?;
        let fd = vfs2.open(&victim, OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
        bytes += write_fully(&vfs2, fd, mean_file_size as u64, mean_file_size)?;
        vfs2.fsync(fd)?;
        vfs2.close(fd)?;
        // 3. append to another mail file with fsync.
        let target = format!("{dir}/m{}", rng.gen_range(0..files_per_thread));
        let fd = vfs2.open(&target, OpenFlags::WRONLY.with(OpenFlags::APPEND))?;
        bytes += write_fully(&vfs2, fd, (mean_file_size / 2) as u64, mean_file_size / 2)?;
        vfs2.fsync(fd)?;
        vfs2.close(fd)?;
        // 4. read a whole mail file.
        let fd = vfs2.open(&target, OpenFlags::RDONLY)?;
        let mut buf = vec![0u8; mean_file_size * 2];
        bytes += vfs2.pread(fd, &mut buf, 0)? as u64;
        vfs2.close(fd)?;
        Ok((1 + 4 + 4 + 3, bytes))
    })
}

/// The filebench `fileserver` personality: create+write whole files, append,
/// whole-file reads, deletes and stats over a pool of files.
///
/// As in [`varmail`], the pool keeps its size: each iteration deletes one
/// pool file and writes it again whole, and the append and the read go to
/// another pool file.
///
/// # Errors
///
/// Propagates file system errors.
pub fn fileserver(
    vfs: &Arc<Vfs>,
    files_per_thread: usize,
    mean_file_size: usize,
    threads: usize,
    duration: Duration,
) -> KernelResult<WorkloadResult> {
    for t in 0..threads {
        let dir = format!("/fileserver-{t}");
        vfs.mkdir(&dir)?;
        for i in 0..files_per_thread {
            let fd = vfs.open(&format!("{dir}/f{i}"), OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
            write_fully(vfs, fd, mean_file_size as u64, 64 * 1024)?;
            vfs.close(fd)?;
        }
    }
    vfs.sync()?;
    let vfs2 = Arc::clone(vfs);
    run_timed("fileserver", threads, duration, move |t, rng, _iteration| {
        let dir = format!("/fileserver-{t}");
        let mut bytes = 0u64;
        // delete a file, then create + write it whole again + close
        let victim = format!("{dir}/f{}", rng.gen_range(0..files_per_thread));
        vfs2.unlink(&victim)?;
        let fd = vfs2.open(&victim, OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
        bytes += write_fully(&vfs2, fd, mean_file_size as u64, 64 * 1024)?;
        vfs2.close(fd)?;
        // append to an existing file
        let existing = format!("{dir}/f{}", rng.gen_range(0..files_per_thread));
        let fd = vfs2.open(&existing, OpenFlags::WRONLY.with(OpenFlags::APPEND))?;
        bytes += write_fully(&vfs2, fd, 16 * 1024, 16 * 1024)?;
        vfs2.close(fd)?;
        // whole-file read
        let fd = vfs2.open(&existing, OpenFlags::RDONLY)?;
        let mut buf = vec![0u8; 64 * 1024];
        let mut off = 0u64;
        loop {
            let n = vfs2.pread(fd, &mut buf, off)?;
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        bytes += off;
        vfs2.close(fd)?;
        // stat
        vfs2.stat(&existing)?;
        Ok((1 + 3 + 3 + 3 + 1, bytes))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use simkernel::memfs::MemFilesystemType;
    use simkernel::vfs::{MountOptions, VfsConfig};

    fn memfs_vfs() -> Arc<Vfs> {
        let vfs = Arc::new(Vfs::new(VfsConfig::default()));
        vfs.register_filesystem(Arc::new(MemFilesystemType)).unwrap();
        vfs.mount("memfs", Arc::new(RamDisk::new(4096, 16)), "/", &MountOptions::default())
            .unwrap();
        vfs
    }

    #[test]
    fn read_micro_reports_ops_and_bytes() {
        let vfs = memfs_vfs();
        let result =
            read_micro(&vfs, 1 << 20, 4096, AccessPattern::Random, 2, Duration::from_millis(50))
                .unwrap();
        assert!(result.operations > 0);
        assert_eq!(result.bytes, result.operations * 4096);
        assert!(result.ops_per_sec() > 0.0);
        // Per-op latency rides along through the shared histogram: one
        // sample per completed iteration, ordered percentiles.
        assert_eq!(result.latency.count(), result.operations);
        assert!(result.latency_us(50.0) <= result.latency_us(99.0));
        assert!(result.latency.max() > 0);
    }

    #[test]
    fn write_micro_sequential_and_random() {
        let vfs = memfs_vfs();
        for pattern in [AccessPattern::Sequential, AccessPattern::Random] {
            let result =
                write_micro(&vfs, 1 << 20, 32 * 1024, pattern, 2, Duration::from_millis(50))
                    .unwrap();
            assert!(result.operations > 0, "{pattern:?}");
            assert!(result.throughput_mbps() > 0.0);
        }
    }

    #[test]
    fn disjoint_micros_report_ops_and_clean_up() {
        let vfs = memfs_vfs();
        let read = read_micro_disjoint(
            &vfs,
            256 * 1024,
            4096,
            AccessPattern::Random,
            4,
            Duration::from_millis(50),
        )
        .unwrap();
        assert!(read.operations > 0);
        assert_eq!(read.bytes, read.operations * 4096);
        let write = write_micro_disjoint(
            &vfs,
            256 * 1024,
            4096,
            AccessPattern::Sequential,
            4,
            Duration::from_millis(50),
        )
        .unwrap();
        assert!(write.operations > 0);
        // The per-thread files are unlinked afterwards.
        assert!(!vfs.exists("/scale-read-0.bin"));
        assert!(!vfs.exists("/scale-write-0.bin"));
        assert_eq!(vfs.open_fd_count(), 0);
    }

    #[test]
    fn create_and_delete_micro() {
        let vfs = memfs_vfs();
        let created = create_micro(&vfs, 4096, 2, Duration::from_millis(50)).unwrap();
        assert!(created.operations > 0);
        let deleted = delete_micro(&vfs, 50, 1024, 2, Duration::from_millis(100)).unwrap();
        assert!(deleted.operations > 0);
        assert!(deleted.operations <= 100, "cannot delete more than precreated");
    }

    #[test]
    fn crossdir_create_spreads_over_shared_directories() {
        let vfs = memfs_vfs();
        let result = create_crossdir_micro(&vfs, 1024, 4, Duration::from_millis(60)).unwrap();
        assert!(result.operations > 0);
        assert_eq!(result.bytes, result.operations * 1024);
        // The shared pool exists and at least the first directory got files.
        for d in 0..8 {
            assert!(vfs.exists(&format!("/crossdir-{d}")), "pool dir {d}");
        }
    }

    #[test]
    fn rename_storm_chains_renames_without_losing_files() {
        let vfs = memfs_vfs();
        let threads = 4;
        let result = rename_storm(&vfs, threads, Duration::from_millis(60)).unwrap();
        assert!(result.operations > 0);
        // Every thread's file still exists exactly once, somewhere in the
        // two pools — a lost or duplicated file means a rename bug.
        let pool = threads.div_ceil(2).max(2);
        for t in 0..threads {
            let found: usize = (0..pool)
                .flat_map(|d| [format!("/xpool-a-{d}/mv-{t}"), format!("/xpool-b-{d}/mv-{t}")])
                .filter(|p| vfs.exists(p))
                .count();
            assert_eq!(found, 1, "thread {t}'s file must exist exactly once");
        }
    }

    #[test]
    fn varmail_and_fileserver_run() {
        let vfs = memfs_vfs();
        let vm = varmail(&vfs, 20, 4096, 2, Duration::from_millis(60)).unwrap();
        assert!(vm.operations > 0);
        let fsrv = fileserver(&vfs, 10, 16 * 1024, 2, Duration::from_millis(60)).unwrap();
        assert!(fsrv.operations > 0);
        assert!(fsrv.bytes > 0);
    }
}
