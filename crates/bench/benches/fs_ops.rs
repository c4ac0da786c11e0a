//! Microbenchmarks of the individual file system operations the paper's
//! workloads are built from, across the three xv6 stacks.
//!
//! These run with the zero-cost device model, so they measure the *software*
//! overhead of each stack (the BentoFS translation layer, the VFS baseline,
//! the FUSE round trip) rather than modelled device time — the complement of
//! the `paper_suite` bench, which measures the modelled end-to-end numbers.
//!
//! Criterion is unavailable offline, so this is a plain `harness = false`
//! bench: each operation is timed over a fixed wall-clock window and
//! reported as ns/op and ops/s.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simkernel::cost::CostModel;
use simkernel::vfs::OpenFlags;
use workloads::{mount_stack, FsStack};

const MEASURE: Duration = Duration::from_millis(400);

/// Runs `op` repeatedly for [`MEASURE`] and prints mean latency/throughput.
fn time_op(group: &str, label: &str, mut op: impl FnMut()) {
    // Warmup.
    for _ in 0..10 {
        op();
    }
    let start = Instant::now();
    let mut iterations = 0u64;
    while start.elapsed() < MEASURE {
        for _ in 0..16 {
            op();
        }
        iterations += 16;
    }
    let elapsed = start.elapsed();
    let ns_per_op = elapsed.as_nanos() as f64 / iterations as f64;
    println!("{group:<20} {label:<10} {ns_per_op:>12.0} ns/op {:>14.0} ops/s", 1e9 / ns_per_op);
}

fn bench_creates() {
    for stack in FsStack::xv6_variants() {
        let mounted = mount_stack(stack, CostModel::zero(), 32 * 1024).expect("mount");
        let vfs = Arc::clone(&mounted.vfs);
        let mut i = 0u64;
        time_op("create_close_unlink", stack.label(), || {
            // Create and immediately unlink so a long run does not exhaust
            // the inode table or grow the directory without bound.
            let path = format!("/bench-create-{i}");
            i += 1;
            let fd = vfs.open(&path, OpenFlags::WRONLY.with(OpenFlags::CREAT)).expect("create");
            vfs.close(fd).expect("close");
            vfs.unlink(&path).expect("unlink");
        });
        mounted.unmount().expect("unmount");
    }
}

fn bench_write_4k() {
    for stack in FsStack::xv6_variants() {
        let mounted = mount_stack(stack, CostModel::zero(), 32 * 1024).expect("mount");
        let vfs = Arc::clone(&mounted.vfs);
        let fd = vfs.open("/bench-write", OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("create");
        let data = vec![0xABu8; 4096];
        time_op("write_4k_fsync", stack.label(), || {
            vfs.pwrite(fd, &data, 0).expect("write");
            vfs.fsync(fd).expect("fsync");
        });
        vfs.close(fd).expect("close");
        mounted.unmount().expect("unmount");
    }
}

fn bench_cached_read_4k() {
    for stack in FsStack::xv6_variants() {
        let mounted = mount_stack(stack, CostModel::zero(), 32 * 1024).expect("mount");
        let vfs = Arc::clone(&mounted.vfs);
        let fd = vfs.open("/bench-read", OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("create");
        vfs.write(fd, &vec![1u8; 1 << 20]).expect("fill");
        let mut buf = vec![0u8; 4096];
        let mut offset = 0u64;
        time_op("cached_read_4k", stack.label(), || {
            offset = (offset + 4096) % (1 << 20);
            vfs.pread(fd, &mut buf, offset).expect("read");
        });
        vfs.close(fd).expect("close");
        mounted.unmount().expect("unmount");
    }
}

/// The journal's two per-commit software costs on a bare RAM disk, so a
/// regression of the commit path localises without a full run: the
/// payload digest of one block, and a whole 4-block commit (stage, digest,
/// payload + record, barrier; the blocks are re-logged every commit, so
/// their installs are superseded).  xv6's log geometry, homes after the
/// log.
fn bench_journal() {
    use journal::io::DeviceIo;
    use journal::{Journal, JournalConfig};
    use simkernel::dev::RamDisk;
    use xv6fs::layout::LOGSIZE;

    let block = vec![0xA5u8; 4096];
    time_op("digest 4 KiB", "journal", || {
        std::hint::black_box(journal::record::payload_digest([std::hint::black_box(&block[..])]));
    });
    let io = DeviceIo::new(Arc::new(RamDisk::new(4096, 4096)));
    let homes = (2 + LOGSIZE as u64, 4096);
    let journal = Journal::new(JournalConfig::from_geometry(2, LOGSIZE, LOGSIZE, homes));
    time_op("commit 4 blocks", "journal", || {
        journal.begin_op();
        for home in 0..4 {
            journal.log_write(2048 + home, &block).expect("stage");
        }
        journal.end_op(&io).expect("commit");
    });
}

fn main() {
    // `cargo bench` passes flags like `--bench`; ignore them.
    println!("fs_ops: software-overhead microbenchmarks (zero-cost device model)");
    println!("{:<20} {:<10} {:>15} {:>20}", "group", "stack", "latency", "throughput");
    bench_creates();
    bench_write_4k();
    bench_cached_read_4k();
    bench_journal();
}
