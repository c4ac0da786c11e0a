//! Probes: each layer's public API timed in isolation on a zero-cost
//! device, plus the two-client probes.
//!
//! A probe answers "what does one call into this layer cost by itself", so
//! that a regression localises without a full run.  Probes do not depend on
//! the workload; they are repeated in every traced run because the driver
//! wants every per-layer metric from every run.  None of them is gated.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bento::bentoks::KernelBlockIo;
use bento::userspace::userspace_superblock;
use bento::{FileSystem, Request};
use journal::io::DeviceIo;
use journal::{Journal, JournalConfig};
use simkernel::buffer::BufferCache;
use simkernel::cost::{CostCounters, CostKind, CostModel};
use simkernel::dev::{BlockDevice, RamDisk, SsdDevice};
use simkernel::error::KernelResult;
use simkernel::memfs::MemFs;
use simkernel::nslock::DirLockTable;
use simkernel::pagecache::{PageCache, PageCacheConfig};
use simkernel::trace::{self, Phase};
use simkernel::vfs::{FileMode, OpenFlags, Vfs, VfsConfig, VfsFs};
use xv6fs::Xv6FileSystem;
use xv6fs_vfs::Xv6VfsFilesystem;

use crate::exec::{self, Client, Tally};
use crate::model::{Namespace, Op, Pool, PAGE};
use crate::run::{metric, scaled, Metric};
use crate::stacks::{self, Stack};
use crate::stats::median;
use crate::workloads::{Generator, Workload};

/// Pages of the 1 MiB files the data probes rotate over.
const FILE_PAGES: u64 = 256;

/// Nanoseconds per iteration: the median over batches of
/// `batch() -> (time of the measured part, iterations)`, run until `budget`
/// is spent (at least 5 batches).
fn measure(
    budget: Duration,
    mut batch: impl FnMut() -> KernelResult<(Duration, u64)>,
) -> KernelResult<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < budget {
        let (took, iterations) = batch()?;
        samples.push(took.as_nanos() as f64 / iterations as f64);
    }
    Ok(median(&samples))
}

/// [`measure`] for a probe whose whole iteration is the measured part.
fn per_call(budget: Duration, mut call: impl FnMut(u64) -> KernelResult<()>) -> KernelResult<f64> {
    const BATCH: u64 = 256;
    let mut i = 0u64;
    measure(budget, || {
        let started = Instant::now();
        for _ in 0..BATCH {
            call(i)?;
            i += 1;
        }
        Ok((started.elapsed(), BATCH))
    })
}

fn ram(blocks: u64) -> Arc<dyn BlockDevice> {
    Arc::new(RamDisk::new(PAGE as u32, blocks))
}

fn xv6_image(blocks: u64) -> KernelResult<Arc<dyn BlockDevice>> {
    let dev = ram(blocks);
    xv6fs::mkfs::mkfs_on_device(&dev, 4096)?;
    Ok(dev)
}

/// Creates `n` empty files in a new directory `name` under the root and
/// returns the directory's inode and the last file's name.
fn fill_dir(fs: &dyn VfsFs, name: &str, n: u32) -> KernelResult<(u64, String)> {
    let dir = fs.mkdir(fs.root_ino(), name, FileMode::directory())?.ino;
    for i in 0..n {
        fs.create(dir, &format!("f{i}"), FileMode::regular())?;
    }
    Ok((dir, format!("f{}", n - 1)))
}

/// A 1 MiB file under the root, written page by page.
fn data_file(fs: &dyn VfsFs, page: &[u8]) -> KernelResult<u64> {
    let ino = fs.create(fs.root_ino(), "data", FileMode::regular())?.ino;
    for idx in 0..FILE_PAGES {
        fs.write_page(ino, idx, page, (idx + 1) * PAGE as u64)?;
    }
    Ok(ino)
}

/// The xv6 probes, through either binding's `VfsFs` face:
/// `[lookup_64, lookup_2048, create_unlink, write_4k, read_4k]` in ns.
fn xv6_probes(fs: &dyn VfsFs, budget: Duration) -> KernelResult<[f64; 5]> {
    let page = vec![0x5au8; PAGE];
    let mut buf = vec![0u8; PAGE];
    let root = fs.root_ino();
    let (small, small_last) = fill_dir(fs, "d64", 64)?;
    let (large, large_last) = fill_dir(fs, "d2048", 2048)?;
    let ino = data_file(fs, &page)?;
    let size = FILE_PAGES * PAGE as u64;
    Ok([
        // The last name of the directory: a full linear scan.
        per_call(budget, |_| fs.lookup(small, &small_last).map(|_| ()))?,
        per_call(budget, |_| fs.lookup(large, &large_last).map(|_| ()))?,
        per_call(budget, |_| {
            fs.create(root, "probe", FileMode::regular())?;
            fs.unlink(root, "probe")
        })?,
        per_call(budget, |i| fs.write_page(ino, i % FILE_PAGES, &page, size))?,
        per_call(budget, |i| fs.read_page(ino, i % FILE_PAGES, &mut buf).map(|_| ()))?,
    ])
}

/// `BentoFs` `lookup` + `getattr` minus the same two calls made directly on
/// `Xv6FileSystem` through the `FileSystem` trait: what BentoFS's
/// translation between the VFS and the file-operations API costs.
fn bentofs_translation(budget: Duration) -> KernelResult<f64> {
    let dev = xv6_image(4096)?;
    let bento_fs = xv6fs::fstype().mount_on(Arc::clone(&dev))?;
    let ino = bento_fs.create(bento_fs.root_ino(), "x", FileMode::regular())?.ino;
    let root = bento_fs.root_ino();
    let through = per_call(budget, |_| {
        bento_fs.lookup(root, "x")?;
        bento_fs.getattr(ino).map(|_| ())
    })?;
    bento_fs.destroy()?;
    drop(bento_fs);

    let sb = userspace_superblock(Arc::new(KernelBlockIo::new(dev, 4096)), "probe");
    let fs = Xv6FileSystem::new();
    let req = Request::kernel();
    fs.init(&req, &sb)?;
    let direct = per_call(budget, |_| {
        fs.lookup(&req, &sb, root, "x")?;
        fs.getattr(&req, &sb, ino).map(|_| ())
    })?;
    Ok(through - direct)
}

/// The machine-noise canary, recorded with every run: 1 000 injected 10 us
/// charges, measured over modelled time, minus one, in percent.
pub fn delay_error_pct() -> f64 {
    let model = CostModel { inject_delays: true, ..CostModel::zero() };
    let counters = CostCounters::new();
    let started = Instant::now();
    for _ in 0..1000 {
        model.charge(&counters, CostKind::DeviceWrite, 10_000);
    }
    let measured = started.elapsed().as_nanos() as f64;
    (measured / counters.snapshot().total_ns as f64 - 1.0) * 100.0
}

/// Every isolated probe.  Each gets `seconds / 200` (0.1 s at the reference
/// run length).
pub fn isolated(seconds: f64) -> KernelResult<Vec<Metric>> {
    let budget = Duration::from_secs_f64(seconds / 200.0);
    let mut out = Vec::new();
    let mut ns = |name: &str, value: f64| out.push(metric(name, value, "ns"));
    let page = vec![0xa5u8; PAGE];
    let mut buf = vec![0u8; PAGE];

    // simkernel::vfs over MemFs, depth-3 paths.
    {
        let vfs = Vfs::new(VfsConfig::default());
        vfs.mount_fs(Arc::new(MemFs::new()), "/")?;
        vfs.mkdir("/a")?;
        vfs.mkdir("/a/b")?;
        let fd = vfs.open("/a/b/f", OpenFlags::RDWR.with(OpenFlags::CREAT))?;
        for _ in 0..FILE_PAGES {
            vfs.write(fd, &page)?;
        }
        ns("vfs.memfs_stat_ns", per_call(budget, |_| vfs.stat("/a/b/f").map(|_| ()))?);
        ns(
            "vfs.memfs_open_close_ns",
            per_call(budget, |_| vfs.close(vfs.open("/a/b/f", OpenFlags::RDONLY)?))?,
        );
        ns(
            "vfs.memfs_pread_4k_ns",
            per_call(budget, |i| {
                vfs.pread(fd, &mut buf, (i % FILE_PAGES) * PAGE as u64).map(|_| ())
            })?,
        );
    }

    // simkernel::pagecache over MemFs.
    {
        let fs: Arc<dyn VfsFs> = Arc::new(MemFs::new());
        let ino = fs.create(fs.root_ino(), "f", FileMode::regular())?.ino;
        let cache = PageCache::new(PageCacheConfig::default(), true);
        let offset = |i: u64| (i % FILE_PAGES) * PAGE as u64;
        for i in 0..FILE_PAGES {
            cache.write(&fs, ino, offset(i), &page)?;
        }
        cache.writeback(&fs, ino)?;
        ns(
            "pagecache.read_hit_4k_ns",
            per_call(budget, |i| cache.read(&fs, ino, offset(i), &mut buf).map(|_| ()))?,
        );
        // 256 dirty pages stay below the 512-page throttle: pure dirtying.
        ns(
            "pagecache.write_4k_ns",
            per_call(budget, |i| cache.write(&fs, ino, offset(i), &page).map(|_| ()))?,
        );
        ns(
            "pagecache.writeback_page_ns",
            measure(budget, || {
                for i in 0..FILE_PAGES {
                    cache.write(&fs, ino, offset(i), &page)?;
                }
                let started = Instant::now();
                cache.writeback(&fs, ino)?;
                Ok((started.elapsed(), FILE_PAGES))
            })?,
        );
    }

    // bento::bentofs, xv6fs (Bento binding), xv6fs-vfs (C-Kernel binding).
    ns("bentofs.translation_ns", bentofs_translation(budget)?);
    {
        let fs = xv6fs::fstype().mount_on(xv6_image(16_384)?)?;
        let [lookup_64, lookup_2048, create_unlink, write_4k, read_4k] = xv6_probes(&*fs, budget)?;
        ns("xv6fs.lookup_64_ns", lookup_64);
        ns("xv6fs.lookup_2048_ns", lookup_2048);
        ns("xv6fs.create_unlink_ns", create_unlink);
        ns("xv6fs.write_4k_ns", write_4k);
        ns("xv6fs.read_4k_ns", read_4k);
        let fs = Xv6VfsFilesystem::mount(xv6_image(16_384)?)?;
        let [_, lookup_2048, create_unlink, _, read_page] = xv6_probes(&*fs, budget)?;
        ns("xv6fs-vfs.lookup_2048_ns", lookup_2048);
        ns("xv6fs-vfs.create_unlink_ns", create_unlink);
        ns("xv6fs-vfs.read_page_ns", read_page);
    }

    // journal: a bare Journal over DeviceIo, xv6's log geometry.
    {
        let io = DeviceIo::new(ram(4096));
        let log = xv6fs::layout::LOGSIZE;
        let journal = Journal::new(JournalConfig::from_geometry(2, log, log, (1024, 4096)));
        ns(
            "journal.empty_op_ns",
            per_call(budget, |_| {
                journal.begin_op();
                journal.end_op(&io)
            })?,
        );
        ns(
            "journal.stage_block_ns",
            measure(budget, || {
                journal.begin_op();
                let started = Instant::now();
                for home in 0..8 {
                    journal.log_write(2048 + home, &page)?;
                }
                let took = started.elapsed();
                journal.end_op(&io)?;
                Ok((took, 8))
            })?,
        );
        ns(
            "journal.commit_4blk_ns",
            per_call(budget, |_| {
                journal.begin_op();
                for home in 0..4 {
                    journal.log_write(2048 + home, &page)?;
                }
                journal.end_op(&io)
            })?,
        );
    }

    // simkernel::nslock.
    {
        let table = DirLockTable::new();
        ns(
            "nslock.lock_unlock_ns",
            per_call(budget, |_| {
                drop(table.lock(5));
                Ok(())
            })?,
        );
        ns(
            "nslock.lock_pair_ns",
            per_call(budget, |_| {
                drop(table.lock_pair(9, 5));
                Ok(())
            })?,
        );
    }

    // simkernel::buffer: capacity 4 096 over 16 384 blocks.
    {
        let cache = BufferCache::new(ram(16_384), 4096);
        for block in 0..1024 {
            cache.bread(block)?;
        }
        ns("buffer.bread_hit_ns", per_call(budget, |i| cache.bread(i % 1024).map(|_| ()))?);
        ns(
            "buffer.write_ns",
            per_call(budget, |i| {
                let mut guard = cache.bread(i % 1024)?;
                guard.data_mut()[0] = i as u8;
                guard.write()
            })?,
        );
        // A cyclic sweep four times the capacity never finds its block.
        ns("buffer.bread_miss_ns", per_call(budget, |i| cache.bread(i % 16_384).map(|_| ()))?);
    }

    // simkernel::dev and cost.
    {
        let ssd = SsdDevice::ram_backed(16_384, CostModel::zero());
        ns("dev.write_block_ns", per_call(budget, |i| ssd.write_block(i % 16_384, &page))?);
        ns("dev.read_block_ns", per_call(budget, |i| ssd.read_block(i % 16_384, &mut buf))?);
        ns("dev.flush_ns", per_call(budget, |_| ssd.flush())?);
    }
    out.push(metric("dev.delay_error_pct", delay_error_pct(), "%"));
    let mut ns = |name: &str, value: f64| out.push(metric(name, value, "ns"));

    // fusesim: one getattr through the driver and a daemon worker — the
    // real thread hand-off, nothing modelled.
    {
        let fuse = fusesim::mount_fuse_xv6(xv6_image(4096)?, CostModel::zero(), 8)?;
        let root = fuse.root_ino();
        ns("fusesim.round_trip_ns", per_call(budget, |_| fuse.getattr(root).map(|_| ()))?);
        fuse.destroy()?;
    }

    // simkernel::trace: an op span with one phase, tracing off and on.
    {
        let span = |_| {
            let op = trace::op_span("probe");
            drop(trace::phase(Phase::DevIo));
            drop(op);
            Ok(())
        };
        ns("trace.disabled_span_ns", per_call(budget, span)?);
        let _tracing = trace::enable();
        ns(
            "trace.enabled_span_ns",
            per_call(budget, |i| {
                if i % 1024 == 0 {
                    trace::drain();
                }
                span(i)
            })?,
        );
        trace::drain();
    }
    Ok(out)
}

/// The `mail_sync` stream split over two clients of one mount, each with
/// its own directories: aggregate ops/s, and on Bento how many ops the
/// journal batched per commit.  Both CPUs are in use, so these repeat only
/// roughly; they are context for the multi-client items of the roadmap.
///
/// The probe verifies like every pass and what it finds fails the run.  So
/// that it never finds the one thing already known (README, "First
/// observations": `Vfs::unlink` drops the page-cache entry of an inode
/// number the file system has already freed, so a concurrent create that is
/// handed the number loses its pages), the clients take turns at `deliver`,
/// the only class that creates or unlinks; every other class runs freely
/// beside it.
pub fn two_clients(seed: u64, seconds: f64, tally: &mut Tally) -> KernelResult<Vec<Metric>> {
    let pool = Pool::new(seed);
    let decks = scaled(40, seconds);
    let mut out = Vec::new();
    for stack in [Stack::Bento, Stack::Ext4] {
        let context = &format!("2c {}", stack.key());
        let image = Arc::new(RamDisk::new(PAGE as u32, Workload::MailSync.disk_blocks()));
        stacks::mkfs(stack, &image)?;
        let mut clients: Vec<(Generator, Namespace)> = (0..2)
            .map(|c| {
                (
                    Generator::for_client(Workload::MailSync, seed, false, Some(c)),
                    Namespace::default(),
                )
            })
            .collect();
        let mounted = stacks::mount(stack, &image, CostModel::zero())?;
        for (gen, ns) in &mut clients {
            let mut client = Client::new(&pool, false);
            for op in gen.populate(&pool) {
                let (_, outcome) = client.run(&mounted.vfs, ns, &op);
                tally.check(context, outcome);
            }
        }
        mounted.vfs.unmount("/")?;

        let mounted = stacks::mount(stack, &image, stacks::nvme(true))?;
        let before = mounted.counters();
        mounted.dev.set_modelled(true);
        let start_line = Barrier::new(2);
        let deliver_turn = Mutex::new(());
        let (vfs, pool_ref, start_ref, turn_ref) =
            (&mounted.vfs, &pool, &start_line, &deliver_turn);
        let started = Instant::now();
        let outcomes: Vec<Vec<Result<(), String>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .map(|(gen, ns)| {
                    scope.spawn(move || {
                        let mut client = Client::new(pool_ref, false);
                        start_ref.wait();
                        (0..decks)
                            .flat_map(|_| gen.unit(pool_ref))
                            .map(|op| {
                                let _turn = matches!(op, Op::Deliver { .. })
                                    .then(|| turn_ref.lock().expect("no client panics"));
                                client.run(vfs, ns, &op).1
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
        });
        let wall = started.elapsed().as_secs_f64();
        mounted.dev.set_modelled(false);
        let delta = mounted.counters() - before;
        let ops = outcomes.iter().map(Vec::len).sum::<usize>();
        for outcome in outcomes.into_iter().flatten() {
            tally.check(context, outcome);
        }
        out.push(metric(
            format!("concurrency.{}_ops_per_s_2c", stack.key()),
            ops as f64 / wall,
            "ops/s",
        ));
        if stack == Stack::Bento {
            let per_commit = delta.log_ops as f64 / (delta.commits as f64).max(1.0);
            out.push(metric("journal.ops_per_commit_2c", per_commit, "count"));
        }

        let mut all = Namespace::default();
        for (_, ns) in clients {
            all.files.extend(ns.files);
            all.dirs.extend(ns.dirs);
        }
        exec::verify_tree(&mounted.vfs, &all, &pool, false, context, tally);
        let violations = mounted.unmount_and_check()?;
        tally.check(
            context,
            if violations.is_empty() { Ok(()) } else { Err(format!("fsck: {violations:?}")) },
        );
    }
    Ok(out)
}
