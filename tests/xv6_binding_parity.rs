//! The two kernel bindings of the xv6 core differ in what the paper says
//! differs, and in nothing else.
//!
//! The Bento stack (`xv6fs::fstype()`: VFS → BentoFS → file-operations API
//! → `FsCore`) and the C-Kernel stack (`xv6fs_vfs`: VFS → `FsCore`) run one
//! file system.  The only behavioural difference left between them is the
//! write-back path (§6.5.2): BentoFS hands all the dirty pages of a pass —
//! of every file the pass carries — to the core as one vectored write, the
//! C-Kernel stack writes each page in its own transaction.  Four
//! properties pin that down from outside, through `Vfs`, on identical
//! images and one seeded operation stream.  In each stream below a pass
//! fits one write transaction of the core, so a pass is one Bento commit
//! and the identity is `extra C-Kernel commits = pages − passes`:
//!
//! * when no write-back pass carries more than one page, the two stacks
//!   leave **byte-identical** images (every block outside the log area);
//! * when passes carry several pages, the C-Kernel stack commits exactly
//!   `pages written back − write-back passes` more often, and logs more
//!   blocks only by what those extra commits re-log;
//! * when a pass carries several *disjoint* runs of pages, it is still one
//!   pass and one Bento transaction — the same identity holds — and the
//!   images are byte-identical again;
//! * when `sync` passes carry several *files*, the pass is still one Bento
//!   transaction — the same identity holds, with a batch per file and
//!   several batches per pass — and the images are byte-identical again.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use journal::PlantedFault;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::pagecache::PageCacheStats;
use simkernel::vfs::{OpenFlags, Vfs, WritePathStats, PAGE_SIZE};
use workloads::{apply, format, mount_stack_on, Fds, FsStack, Op};
use xv6fs::layout::DiskSuperblock;

const DISK_BLOCKS: u64 = 8192;

/// The shared op vocabulary, applied to the stream.  Paths come from a
/// small pool so that names collide: creates hit existing files, renames
/// replace targets, removals miss — and both stacks must fail the same
/// ops.  A write step is `Open` (create-or-open), a `Pwrite` of `fill` per
/// extent, an optional `Fsync` — one write-back pass over exactly the
/// pages these writes dirtied; without it the pages wait for the next
/// `Sync` — and `Close`, in slot 0.
fn apply_all(vfs: &Vfs, ops: &[Op]) -> Vec<bool> {
    let mut fds = Fds::default();
    ops.iter().map(|op| apply(vfs, &mut fds, op).is_ok()).collect()
}

/// `count` seeded steps.  A write is `runs` extents, each covering
/// `1..=max_pages` pages (the last one possibly partial) and starting on a
/// page boundary below page 24, and is fsynced.
fn stream(seed: u64, count: usize, max_pages: u64, runs: usize) -> Vec<Op> {
    stream_with(seed, count, max_pages, runs, None)
}

/// As [`stream`]; with `Some(every)`, writes are not fsynced and a `Sync`
/// follows every `every`-th step instead, so `sync` passes carry several
/// files.
fn stream_with(
    seed: u64,
    count: usize,
    max_pages: u64,
    runs: usize,
    sync_every: Option<usize>,
) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dirs = ["", "/d0", "/d1", "/d2"];
    let file = |rng: &mut SmallRng| {
        format!("{}/f{}", dirs[rng.gen_range(0..dirs.len())], rng.gen_range(0..12u32))
    };
    let mut ops: Vec<Op> = dirs[1..].iter().map(|d| Op::Mkdir(d.to_string())).collect();
    for i in 0..count {
        let roll = rng.gen_range(0..100u32);
        let step = match roll {
            0..=44 => {
                let mut extent = || {
                    let pages = rng.gen_range(1..=max_pages);
                    let offset = rng.gen_range(0..24u64) * PAGE_SIZE as u64;
                    (offset, (pages as usize - 1) * PAGE_SIZE + rng.gen_range(1..=PAGE_SIZE))
                };
                let extents: Vec<_> = (0..runs).map(|_| extent()).collect();
                let fill = (i % 251) as u8 + 1;
                let flags = OpenFlags::RDWR.with(OpenFlags::CREAT);
                ops.push(Op::Open { slot: 0, path: file(&mut rng), flags });
                ops.extend(extents.into_iter().map(|(offset, len)| Op::Pwrite {
                    slot: 0,
                    offset,
                    len: len as u64,
                    fill,
                }));
                if sync_every.is_none() {
                    ops.push(Op::Fsync(0));
                }
                Op::Close(0)
            }
            45..=59 => Op::Rename(file(&mut rng), file(&mut rng)),
            60..=66 => Op::Link(file(&mut rng), file(&mut rng)),
            67..=79 => Op::Unlink(file(&mut rng)),
            80..=87 => Op::Truncate(file(&mut rng), rng.gen_range(0..20u64 * PAGE_SIZE as u64)),
            88..=91 => Op::Rmdir(dirs[rng.gen_range(1..dirs.len())].to_string()),
            92..=95 => Op::Mkdir(dirs[rng.gen_range(1..dirs.len())].to_string()),
            _ => Op::Sync,
        };
        ops.push(step);
        if sync_every.is_some_and(|every| (i + 1) % every == 0) {
            ops.push(Op::Sync);
        }
    }
    ops
}

/// Formats an image, mounts it as `stack`, runs `ops`, syncs, and
/// unmounts.  Returns which ops succeeded, the page-cache and log
/// counters of the whole run, and the device.
fn run(stack: FsStack, ops: &[Op]) -> (Vec<bool>, PageCacheStats, WritePathStats, Arc<RamDisk>) {
    let device = Arc::new(RamDisk::new(PAGE_SIZE as u32, DISK_BLOCKS));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&device) as _;
    format(stack, &dev, 512).expect("mkfs");
    let mounted = mount_stack_on(stack, dev, CostModel::zero(), PlantedFault::None).expect("mount");
    let vfs = &mounted.vfs;
    let outcomes = apply_all(vfs, ops);
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

/// Both stacks must succeed and fail on the same ops.
fn assert_same_outcomes(seed: u64, ops: &[Op], bento: &[bool], ckernel: &[bool]) {
    if let Some(index) = (0..ops.len()).find(|&index| bento[index] != ckernel[index]) {
        panic!(
            "seed {seed}: op #{index}, {:?}, succeeded on {} only",
            ops[index],
            if bento[index] { "Bento" } else { "C-Kernel" }
        );
    }
}

#[test]
fn single_page_streams_leave_byte_identical_images() {
    for seed in [1, 2, 3] {
        let ops = stream(seed, 400, 1, 1);
        let (bento_ok, bento_pages, bento_log, bento_dev) = run(FsStack::BentoXv6, &ops);
        let (ck_ok, ck_pages, ck_log, ck_dev) = run(FsStack::VfsXv6, &ops);
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
        let (bento_ok, bento_pages, bento_log, _) = run(FsStack::BentoXv6, &ops);
        let (ck_ok, ck_pages, ck_log, _) = run(FsStack::VfsXv6, &ops);
        assert_same_outcomes(seed, &ops, &bento_ok, &ck_ok);
        let (pages, passes) = (ck_pages.writeback_single, bento_pages.writeback_passes);
        assert_eq!(bento_pages.writeback_batched, pages, "seed {seed}: same pages written back");
        assert_eq!((bento_pages.writeback_single, ck_pages.writeback_batches), (0, 0));
        assert_eq!(ck_pages.writeback_passes, passes, "seed {seed}: same passes");
        // Every pass is an fsync of one file: one batch each.
        assert_eq!(bento_pages.writeback_batches, passes, "seed {seed}");
        assert!(pages > 2 * passes, "seed {seed}: the stream has no multi-page passes");

        let extra_commits = ck_log.log_commits - bento_log.log_commits;
        assert_eq!(extra_commits, pages - passes, "seed {seed}: commit gap");
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
        let (bento_ok, bento_pages, bento_log, bento_dev) = run(FsStack::BentoXv6, &ops);
        let (ck_ok, ck_pages, ck_log, ck_dev) = run(FsStack::VfsXv6, &ops);
        assert_same_outcomes(seed, &ops, &bento_ok, &ck_ok);
        let (pages, passes) = (ck_pages.writeback_single, bento_pages.writeback_passes);
        assert_eq!(bento_pages.writeback_batched, pages, "seed {seed}: same pages written back");

        // One pass and one batch per successful write step, however many
        // runs it has: each is one fsync of a file with dirty pages.
        let writes =
            ops.iter().zip(&bento_ok).filter(|(op, ok)| matches!(op, Op::Fsync(_)) && **ok).count()
                as u64;
        assert_eq!(passes, writes, "seed {seed}: a pass made more than one write_pages call");
        assert_eq!(bento_pages.writeback_batches, passes, "seed {seed}");
        assert!(pages > 4 * passes, "seed {seed}: the passes carry too few pages");

        // ... and one Bento transaction per pass.
        let extra_commits = ck_log.log_commits - bento_log.log_commits;
        assert_eq!(extra_commits, pages - passes, "seed {seed}: commit gap");
        let (bento_image, ck_image) =
            (blocks_outside_the_log(&bento_dev), blocks_outside_the_log(&ck_dev));
        for (index, (a, b)) in bento_image.iter().zip(&ck_image).enumerate() {
            assert!(a == b, "seed {seed}: non-log block #{index} differs between the stacks");
        }
    }
}

#[test]
fn multi_file_sync_passes_are_one_transaction_and_leave_byte_identical_images() {
    for seed in [31, 32, 33] {
        // Up to two pages per write, no fsync, a sync after every 8th
        // step: a pass carries at most 8 writes' pages, spread over several
        // files, and fits one write transaction of the core.
        let ops = stream_with(seed, 400, 2, 1, Some(8));
        let (bento_ok, bento_pages, bento_log, bento_dev) = run(FsStack::BentoXv6, &ops);
        let (ck_ok, ck_pages, ck_log, ck_dev) = run(FsStack::VfsXv6, &ops);
        assert_same_outcomes(seed, &ops, &bento_ok, &ck_ok);
        let (pages, passes) = (ck_pages.writeback_single, bento_pages.writeback_passes);
        assert_eq!(bento_pages.writeback_batched, pages, "seed {seed}: same pages written back");
        assert_eq!(ck_pages.writeback_passes, passes, "seed {seed}: same passes");
        // A batch per file per pass, several files per pass.
        let files = bento_pages.writeback_batches;
        assert!(files > 2 * passes, "seed {seed}: {files} files over {passes} passes");

        // ... and still one Bento transaction per pass.
        let extra_commits = ck_log.log_commits - bento_log.log_commits;
        assert_eq!(extra_commits, pages - passes, "seed {seed}: commit gap");
        let (bento_image, ck_image) =
            (blocks_outside_the_log(&bento_dev), blocks_outside_the_log(&ck_dev));
        for (index, (a, b)) in bento_image.iter().zip(&ck_image).enumerate() {
            assert!(a == b, "seed {seed}: non-log block #{index} differs between the stacks");
        }
    }
}
