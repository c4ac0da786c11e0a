//! The two kernel bindings of the xv6 core differ in what the paper says
//! differs, and in nothing else.
//!
//! The Bento stack (`xv6fs::fstype()`: VFS → BentoFS → file-operations API
//! → `FsCore`) and the C-Kernel stack (`xv6fs_vfs`: VFS → `FsCore`) run one
//! file system.  The only behavioural difference left between them is the
//! write-back path (§6.5.2): BentoFS hands all the dirty pages of a pass to
//! the core as one vectored write, the C-Kernel stack writes each page in
//! its own transaction.  Three properties pin that down from outside,
//! through `Vfs`, on identical images and one seeded operation stream:
//!
//! * when no write-back pass carries more than one page, the two stacks
//!   leave **byte-identical** images (every block outside the log area);
//! * when passes carry several pages, the C-Kernel stack commits exactly
//!   `pages written back − write-back batches` more often, and logs more
//!   blocks only by what those extra commits re-log;
//! * when a pass carries several *disjoint* runs of pages, it is still one
//!   batch and one Bento transaction — the same identity holds with a
//!   batch per pass — and the images are byte-identical again.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::pagecache::PageCacheStats;
use simkernel::vfs::{MountOptions, OpenFlags, Vfs, WritePathStats, PAGE_SIZE};
use xv6fs::layout::DiskSuperblock;

const DISK_BLOCKS: u64 = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    Bento,
    CKernel,
}

/// A formatted image mounted at `/` of its own VFS through `binding`.
struct Mounted {
    vfs: Vfs,
    device: Arc<RamDisk>,
}

fn mount(binding: Binding) -> Mounted {
    let device = Arc::new(RamDisk::new(PAGE_SIZE as u32, DISK_BLOCKS));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&device) as _;
    xv6fs::mkfs::mkfs_on_device(&dev, 512).expect("mkfs");
    let vfs = Vfs::default();
    let name = match binding {
        Binding::Bento => {
            vfs.register_filesystem(Arc::new(xv6fs::fstype())).expect("register");
            xv6fs::BENTO_XV6_NAME
        }
        Binding::CKernel => {
            vfs.register_filesystem(Arc::new(xv6fs_vfs::Xv6VfsFilesystemType)).expect("register");
            xv6fs_vfs::VFS_XV6_NAME
        }
    };
    vfs.mount(name, dev, "/", &MountOptions::default()).expect("mount");
    Mounted { vfs, device }
}

/// One step of the stream.  Paths come from a small pool so that names
/// collide: creates hit existing files, renames replace targets, removals
/// miss — and both stacks must fail the same steps.
#[derive(Debug, Clone)]
enum Op {
    /// Create-or-open, write `fill` over every `(offset, len)` extent,
    /// fsync: one write-back pass over exactly the pages these writes
    /// dirtied.  (Always fsynced, so no file is renamed over while it has
    /// dirty cached pages: `Vfs::rename` does not drop a replaced target's
    /// pages the way `Vfs::unlink` does — a VFS-layer gap under every
    /// stack, and not what this test compares.)
    Write {
        path: String,
        extents: Vec<(u64, usize)>,
        fill: u8,
    },
    Mkdir(String),
    Rename(String, String),
    Link(String, String),
    Unlink(String),
    Rmdir(String),
    Truncate(String, u64),
    Sync,
}

fn apply(vfs: &Vfs, op: &Op) -> bool {
    match op {
        Op::Write { path, extents, fill } => (|| {
            let fd = vfs.open(path, OpenFlags::RDWR.with(OpenFlags::CREAT))?;
            let done = extents
                .iter()
                .try_for_each(|&(offset, len)| vfs.pwrite(fd, &vec![*fill; len], offset).map(drop))
                .and_then(|()| vfs.fsync(fd));
            vfs.close(fd)?;
            done
        })()
        .is_ok(),
        Op::Mkdir(path) => vfs.mkdir(path).is_ok(),
        Op::Rename(from, to) => vfs.rename(from, to).is_ok(),
        Op::Link(existing, new) => vfs.link(existing, new).is_ok(),
        Op::Unlink(path) => vfs.unlink(path).is_ok(),
        Op::Rmdir(path) => vfs.rmdir(path).is_ok(),
        Op::Truncate(path, size) => vfs.truncate(path, *size).is_ok(),
        Op::Sync => vfs.sync().is_ok(),
    }
}

/// `count` seeded steps.  A write is `runs` extents, each covering
/// `1..=max_pages` pages (the last one possibly partial) and starting on a
/// page boundary below page 24.
fn stream(seed: u64, count: usize, max_pages: u64, runs: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dirs = ["", "/d0", "/d1", "/d2"];
    let file = |rng: &mut SmallRng| {
        format!("{}/f{}", dirs[rng.gen_range(0..dirs.len())], rng.gen_range(0..12u32))
    };
    let mut ops: Vec<Op> = dirs[1..].iter().map(|d| Op::Mkdir(d.to_string())).collect();
    for i in 0..count {
        let roll = rng.gen_range(0..100u32);
        ops.push(match roll {
            0..=44 => {
                let mut extent = || {
                    let pages = rng.gen_range(1..=max_pages);
                    let offset = rng.gen_range(0..24u64) * PAGE_SIZE as u64;
                    (offset, (pages as usize - 1) * PAGE_SIZE + rng.gen_range(1..=PAGE_SIZE))
                };
                let extents = (0..runs).map(|_| extent()).collect();
                Op::Write { path: file(&mut rng), extents, fill: (i % 251) as u8 + 1 }
            }
            45..=59 => Op::Rename(file(&mut rng), file(&mut rng)),
            60..=66 => Op::Link(file(&mut rng), file(&mut rng)),
            67..=79 => Op::Unlink(file(&mut rng)),
            80..=87 => Op::Truncate(file(&mut rng), rng.gen_range(0..20u64 * PAGE_SIZE as u64)),
            88..=91 => Op::Rmdir(dirs[rng.gen_range(1..dirs.len())].to_string()),
            92..=95 => Op::Mkdir(dirs[rng.gen_range(1..dirs.len())].to_string()),
            _ => Op::Sync,
        });
    }
    ops
}

/// Runs `ops`, syncs, and unmounts.  Returns which steps succeeded, the
/// page-cache and log counters of the whole run, and the device.
fn run(binding: Binding, ops: &[Op]) -> (Vec<bool>, PageCacheStats, WritePathStats, Arc<RamDisk>) {
    let Mounted { vfs, device } = mount(binding);
    let outcomes = ops.iter().map(|op| apply(&vfs, op)).collect();
    // After the sync nothing is dirty, so the unmount below adds no
    // write-back and the page-cache counters read here are final.
    vfs.sync().expect("sync");
    let pages = vfs.page_cache_stats("/").expect("page cache stats");
    let fs = vfs.mounted_fs("/").expect("mounted fs");
    vfs.unmount("/").expect("unmount");
    let log = fs.write_path_stats().expect("xv6 stacks report write-path stats");
    (outcomes, pages, log, device)
}

/// Every block of `device` outside the log area, which holds whatever the
/// last two commits happened to carry.
fn blocks_outside_the_log(device: &RamDisk) -> Vec<Vec<u8>> {
    let mut block = vec![0u8; PAGE_SIZE];
    device.read_block(1, &mut block).unwrap();
    let dsb = DiskSuperblock::decode(&block).unwrap();
    let log = dsb.logstart as u64..(dsb.logstart + dsb.nlog) as u64;
    (0..DISK_BLOCKS)
        .filter(|blockno| !log.contains(blockno))
        .map(|blockno| {
            device.read_block(blockno, &mut block).unwrap();
            block.clone()
        })
        .collect()
}

/// Both stacks must succeed and fail on the same steps.
fn assert_same_outcomes(seed: u64, ops: &[Op], bento: &[bool], ckernel: &[bool]) {
    if let Some(step) = (0..ops.len()).find(|&step| bento[step] != ckernel[step]) {
        panic!(
            "seed {seed}: step {step}, {:?}, succeeded on {} only",
            ops[step],
            if bento[step] { "Bento" } else { "C-Kernel" }
        );
    }
}

#[test]
fn single_page_streams_leave_byte_identical_images() {
    for seed in [1, 2, 3] {
        let ops = stream(seed, 400, 1, 1);
        let (bento_ok, bento_pages, bento_log, bento_dev) = run(Binding::Bento, &ops);
        let (ck_ok, ck_pages, ck_log, ck_dev) = run(Binding::CKernel, &ops);
        assert_same_outcomes(seed, &ops, &bento_ok, &ck_ok);
        assert!(bento_ok.iter().filter(|ok| !**ok).count() > 20, "seed {seed}: no collisions");
        // The stream did what it claims: one page per pass on both sides.
        assert_eq!(bento_pages.writeback_batched, bento_pages.writeback_batches);
        assert_eq!(ck_pages.writeback_single, bento_pages.writeback_batched);
        assert!(ck_pages.writeback_single > 100, "seed {seed}: the stream barely wrote");
        assert_eq!(bento_log, ck_log, "seed {seed}: same transactions, same blocks");
        let (bento_image, ck_image) =
            (blocks_outside_the_log(&bento_dev), blocks_outside_the_log(&ck_dev));
        for (index, (a, b)) in bento_image.iter().zip(&ck_image).enumerate() {
            assert!(a == b, "seed {seed}: non-log block #{index} differs between the stacks");
        }
    }
}

#[test]
fn the_commit_gap_is_exactly_pages_minus_batches() {
    for seed in [11, 12, 13] {
        // At most 12 pages per write below page 24: the pass fits one
        // write transaction of the core, so a batch is one Bento commit.
        let ops = stream(seed, 400, 12, 1);
        let (bento_ok, bento_pages, bento_log, _) = run(Binding::Bento, &ops);
        let (ck_ok, ck_pages, ck_log, _) = run(Binding::CKernel, &ops);
        assert_same_outcomes(seed, &ops, &bento_ok, &ck_ok);
        let (pages, batches) = (ck_pages.writeback_single, bento_pages.writeback_batches);
        assert_eq!(bento_pages.writeback_batched, pages, "seed {seed}: same pages written back");
        assert_eq!((bento_pages.writeback_single, ck_pages.writeback_batches), (0, 0));
        assert!(pages > 2 * batches, "seed {seed}: the stream has no multi-page passes");

        let extra_commits = ck_log.log_commits - bento_log.log_commits;
        assert_eq!(extra_commits, pages - batches, "seed {seed}: commit gap");
        assert_eq!(ck_log.log_ops - bento_log.log_ops, extra_commits, "seed {seed}");
        // A page written in a transaction of its own logs its data block
        // as before, and again the inode block; when it allocates, again
        // the bitmap block; past the direct blocks, again the indirect one.
        let extra_blocks = ck_log.log_blocks - bento_log.log_blocks;
        assert!(
            (extra_commits..=3 * extra_commits).contains(&extra_blocks),
            "seed {seed}: {extra_blocks} more blocks logged over {extra_commits} more commits"
        );
    }
}

#[test]
fn multi_run_passes_are_one_batch_and_leave_byte_identical_images() {
    for seed in [21, 22, 23] {
        // Four extents of at most 3 pages below page 24 per write, one
        // fsync: a pass of several disjoint runs, at most 12 pages, which
        // fits one write transaction of the core.
        let ops = stream(seed, 400, 3, 4);
        let (bento_ok, bento_pages, bento_log, bento_dev) = run(Binding::Bento, &ops);
        let (ck_ok, ck_pages, ck_log, ck_dev) = run(Binding::CKernel, &ops);
        assert_same_outcomes(seed, &ops, &bento_ok, &ck_ok);
        let (pages, batches) = (ck_pages.writeback_single, bento_pages.writeback_batches);
        assert_eq!(bento_pages.writeback_batched, pages, "seed {seed}: same pages written back");

        // One batch per pass, however many runs the pass has: every
        // successful write op is one fsync of a file with dirty pages.
        let passes = ops
            .iter()
            .zip(&bento_ok)
            .filter(|(op, ok)| matches!(op, Op::Write { .. }) && **ok)
            .count() as u64;
        assert_eq!(batches, passes, "seed {seed}: a pass made more than one write_pages call");
        assert!(pages > 4 * batches, "seed {seed}: the passes carry too few pages");

        // ... and one Bento transaction per batch.
        let extra_commits = ck_log.log_commits - bento_log.log_commits;
        assert_eq!(extra_commits, pages - batches, "seed {seed}: commit gap");
        let (bento_image, ck_image) =
            (blocks_outside_the_log(&bento_dev), blocks_outside_the_log(&ck_dev));
        for (index, (a, b)) in bento_image.iter().zip(&ck_image).enumerate() {
            assert!(a == b, "seed {seed}: non-log block #{index} differs between the stacks");
        }
    }
}
