//! BentoFS — the VFS interposition layer (paper §4.3, §5.2).
//!
//! BentoFS sits between the kernel VFS layer and the Bento file system.  It
//! owns the things a VFS file system would otherwise handle itself:
//!
//! * translating VFS operations into [file operations](crate::fileops) calls
//!   (with the borrowed [`SuperBlock`] capability attached);
//! * the read path: a page-cache fill lends the page itself to
//!   `FileSystem::read`, which fills it from the file system's blocks — no
//!   intermediate buffer, no second copy;
//! * the writeback path: all the dirty pages of an inode arriving from the
//!   page cache in one write-back pass become one `write_vectored` call
//!   that lends the page slices (the `writepages` behaviour BentoFS
//!   inherits from the FUSE kernel module — the source of Bento's edge
//!   over the hand-written VFS baseline on large writes and untar);
//! * mounting/registration ([`BentoFsType`], [`register_bento_fs`]);
//! * **online upgrade** ([`BentoFs::upgrade`]): swapping in a new file
//!   system implementation while the mount stays live (paper §4.8).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use simkernel::dev::BlockDevice;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{
    DirEntry, FileMode, FilesystemType, InodeAttr, MountOptions, OpenFlags, SetAttr, StatFs, Vfs,
    VfsFs, PAGE_SIZE,
};

use crate::bentoks::{KernelBlockIo, SuperBlock};
use crate::fileops::{FileSystem, Request};
use crate::upgrade::UpgradeReport;

/// Default number of blocks in the per-mount buffer cache (16 MiB of 4 KiB
/// blocks), matching a typical kernel buffer cache footprint for a small
/// file system.
pub const DEFAULT_BUFFER_CACHE_BLOCKS: usize = 4096;

/// A mounted Bento file system: the object registered with the VFS.
///
/// `BentoFs` implements [`VfsFs`] by forwarding every operation to the
/// currently installed [`FileSystem`] implementation.  The implementation is
/// held behind a read/write lock: ordinary operations take the read side, so
/// they proceed concurrently; [`BentoFs::upgrade`] takes the write side,
/// which quiesces the file system for the duration of the swap (applications
/// only observe a short delay, never an unmount).
pub struct BentoFs {
    name: String,
    sb: SuperBlock,
    fs: RwLock<Box<dyn FileSystem>>,
    generation: AtomicU64,
    ops: AtomicU64,
    /// Operations currently parked in [`BentoFs::read_fs`] behind an
    /// in-flight upgrade — the upgrade's quiesce barrier occupancy.
    blocked_readers: AtomicU64,
}

impl std::fmt::Debug for BentoFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BentoFs")
            .field("name", &self.name)
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl BentoFs {
    /// Mounts `fs` over `device` and returns the framework wrapper.
    ///
    /// This calls [`FileSystem::init`]; most callers go through
    /// [`BentoFsType`] / the VFS mount path instead, but tests and the
    /// online-upgrade example use this to keep a concretely typed handle.
    ///
    /// # Errors
    ///
    /// Propagates `init` failures (the mount is aborted).
    pub fn mount(
        name: &str,
        device: Arc<dyn BlockDevice>,
        cache_blocks: usize,
        fs: Box<dyn FileSystem>,
    ) -> KernelResult<Arc<BentoFs>> {
        Self::mount_sharded(name, device, cache_blocks, 0, fs)
    }

    /// Like [`BentoFs::mount`] with an explicit buffer-cache shard count
    /// (`0` = default).
    ///
    /// # Errors
    ///
    /// Propagates `init` failures (the mount is aborted).
    pub fn mount_sharded(
        name: &str,
        device: Arc<dyn BlockDevice>,
        cache_blocks: usize,
        cache_shards: usize,
        fs: Box<dyn FileSystem>,
    ) -> KernelResult<Arc<BentoFs>> {
        let io = Arc::new(KernelBlockIo::with_shards(device, cache_blocks, cache_shards));
        let sb = SuperBlock::from_provider(io, name);
        fs.init(&Request::kernel(), &sb)?;
        Ok(Arc::new(BentoFs {
            name: name.to_string(),
            sb,
            fs: RwLock::new(fs),
            generation: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            blocked_readers: AtomicU64::new(0),
        }))
    }

    /// The registered name of this mount.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The upgrade generation: 0 until the first successful
    /// [`BentoFs::upgrade`], then incremented on each one.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Total file operations dispatched through this mount.
    pub fn operations_dispatched(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The superblock capability (for diagnostics and tests).
    pub fn superblock(&self) -> &SuperBlock {
        &self.sb
    }

    /// Replaces the running file system implementation with `new_fs`
    /// without unmounting (paper §4.8).
    ///
    /// The upgrade waits for in-flight operations to drain (the read/write
    /// lock), asks the old instance for its transferable state, installs the
    /// new instance, and hands it the state.  If the old instance does not
    /// implement state transfer, BentoFS falls back to flushing it
    /// (`sync_fs`) and freshly initializing the new instance from disk.
    ///
    /// Open files remain open: inode numbers and file handles are
    /// file-system-defined and must remain meaningful across versions (the
    /// xv6 implementations use the inode number itself, so this holds).
    ///
    /// # Errors
    ///
    /// If state extraction, restoration, or re-initialization fails the old
    /// implementation is left in place and the error is returned.
    pub fn upgrade(&self, new_fs: Box<dyn FileSystem>) -> KernelResult<UpgradeReport> {
        let req = Request::kernel();
        // The application-visible pause: waiting out in-flight operations
        // (acquiring the write lock) plus the state transfer itself, ending
        // when the new instance is installed.
        let pause_started = std::time::Instant::now();
        let mut guard = self.fs.write();
        // Cooperative quiesce barrier.  On a single-CPU host the upgrade
        // thread can otherwise run the entire state transfer without being
        // preempted, so concurrent operations never even reach the lock and
        // the pause is invisible to them.  With the write side held, wait
        // until a concurrent caller parks in `read_fs()`, then briefly
        // longer so the remaining runnable workers reach the barrier too,
        // bounded by a small deadline so an idle mount upgrades without
        // traffic to wait for.  Short sleeps, not `yield_now`: CFS's
        // `sched_yield` often leaves the yielder running, while a sleep
        // reliably hands the CPU to the workers.  Parked callers charge
        // the wait to their trace spans as commit-wait, which is what
        // makes the pause observable to the health monitor's phase-stall
        // detector.
        let grace_deadline = pause_started + std::time::Duration::from_millis(3);
        loop {
            let waiters = self.blocked_readers.load(Ordering::Relaxed);
            if waiters > 0 {
                // Settle: keep waiting while the barrier is still filling,
                // so every runnable worker parks, not just the first.
                let mut last = waiters;
                let mut stable = 0u32;
                while stable < 3 && std::time::Instant::now() < grace_deadline {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    let now_waiting = self.blocked_readers.load(Ordering::Relaxed);
                    if now_waiting > last {
                        last = now_waiting;
                        stable = 0;
                    } else {
                        stable += 1;
                    }
                }
                break;
            }
            if std::time::Instant::now() >= grace_deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(20));
        }
        let mut report = match guard.extract_state(&req, &self.sb) {
            Ok(state) => {
                let entries = state.len();
                new_fs.restore_state(&req, &self.sb, state)?;
                UpgradeReport {
                    generation: self.generation.load(Ordering::Relaxed) + 1,
                    transferred_entries: entries,
                    state_transfer: true,
                    pause_ns: 0,
                }
            }
            Err(e) if e.errno() == Errno::NoSys => {
                guard.sync_fs(&req, &self.sb)?;
                new_fs.init(&req, &self.sb)?;
                UpgradeReport {
                    generation: self.generation.load(Ordering::Relaxed) + 1,
                    transferred_entries: 0,
                    state_transfer: false,
                    pause_ns: 0,
                }
            }
            Err(e) => return Err(e),
        };
        *guard = new_fs;
        self.generation.fetch_add(1, Ordering::Relaxed);
        report.pause_ns = pause_started.elapsed().as_nanos() as u64;
        Ok(report)
    }

    fn track(&self) -> Request {
        self.ops.fetch_add(1, Ordering::Relaxed);
        Request::kernel()
    }

    /// Takes the read side of the implementation lock.  Uncontended — the
    /// overwhelmingly common case — this is a single `try_read`.  When an
    /// [`BentoFs::upgrade`] holds (or is waiting for) the write side, the
    /// blocked acquisition is attributed to the caller's active trace span
    /// as commit-wait: the upgrade quiesce is a whole-filesystem
    /// drain/flush, so the pause shows up in a latency window's phase
    /// breakdown instead of as unattributed "other" time.
    fn read_fs(&self) -> RwLockReadGuard<'_, Box<dyn FileSystem>> {
        if let Some(guard) = self.fs.try_read() {
            return guard;
        }
        let _wait = simkernel::trace::phase(simkernel::trace::Phase::CommitWait);
        self.blocked_readers.fetch_add(1, Ordering::Relaxed);
        let guard = self.fs.read();
        self.blocked_readers.fetch_sub(1, Ordering::Relaxed);
        guard
    }
}

impl VfsFs for BentoFs {
    fn fs_name(&self) -> &str {
        &self.name
    }

    fn root_ino(&self) -> u64 {
        1
    }

    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        let req = self.track();
        self.read_fs().lookup(&req, &self.sb, dir, name)
    }

    fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
        let req = self.track();
        self.read_fs().getattr(&req, &self.sb, ino)
    }

    fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
        let req = self.track();
        self.read_fs().setattr(&req, &self.sb, ino, set)
    }

    fn create(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr> {
        let req = self.track();
        let fs = self.read_fs();
        let reply = fs.create(&req, &self.sb, dir, name, mode, OpenFlags::RDWR)?;
        fs.release(&req, &self.sb, reply.attr.ino, reply.fh)?;
        Ok(reply.attr)
    }

    fn mkdir(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr> {
        let req = self.track();
        self.read_fs().mkdir(&req, &self.sb, dir, name, mode)
    }

    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()> {
        let req = self.track();
        self.read_fs().unlink(&req, &self.sb, dir, name)
    }

    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()> {
        let req = self.track();
        self.read_fs().rmdir(&req, &self.sb, dir, name)
    }

    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()> {
        let req = self.track();
        self.read_fs().rename(&req, &self.sb, olddir, oldname, newdir, newname)
    }

    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        let req = self.track();
        self.read_fs().link(&req, &self.sb, ino, newdir, newname)
    }

    fn open(&self, ino: u64, flags: OpenFlags) -> KernelResult<u64> {
        let req = self.track();
        self.read_fs().open(&req, &self.sb, ino, flags)
    }

    fn release(&self, ino: u64, fh: u64) -> KernelResult<()> {
        let req = self.track();
        self.read_fs().release(&req, &self.sb, ino, fh)
    }

    fn readdir(&self, ino: u64) -> KernelResult<Vec<DirEntry>> {
        let req = self.track();
        let fs = self.read_fs();
        let fh = fs.opendir(&req, &self.sb, ino, OpenFlags::RDONLY)?;
        let entries = fs.readdir(&req, &self.sb, ino, fh);
        fs.releasedir(&req, &self.sb, ino, fh)?;
        entries
    }

    fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize> {
        // The page being filled is lent to the file system (§4.4), which
        // copies from its blocks straight into it.
        let req = self.track();
        let len = buf.len().min(PAGE_SIZE);
        self.read_fs().read(&req, &self.sb, ino, 0, page_index * PAGE_SIZE as u64, &mut buf[..len])
    }

    fn write_page(
        &self,
        ino: u64,
        page_index: u64,
        data: &[u8],
        file_size: u64,
    ) -> KernelResult<()> {
        let req = self.track();
        let offset = page_index * PAGE_SIZE as u64;
        if offset >= file_size {
            return Ok(());
        }
        let valid = data.len().min((file_size - offset) as usize);
        let written = self.read_fs().write(&req, &self.sb, ino, 0, offset, &data[..valid])?;
        if written != valid {
            return Err(KernelError::with_context(Errno::Io, "short write during writeback"));
        }
        Ok(())
    }

    fn write_pages(&self, ino: u64, pages: &[(u64, &[u8])], file_size: u64) -> KernelResult<()> {
        // The writepages path: the pass's dirty pages become the segments
        // of one vectored write.  The page slices are lent, not copied
        // (§4.4), and the file system packs the segments — adjacent in the
        // file or not — into as few log transactions as its log allows.
        let req = self.track();
        let segs: Vec<(u64, &[u8])> = pages
            .iter()
            .filter_map(|&(index, page)| {
                let offset = index * PAGE_SIZE as u64;
                let valid = page.len().min(file_size.saturating_sub(offset) as usize);
                (valid > 0).then(|| (offset, &page[..valid]))
            })
            .collect();
        let valid: usize = segs.iter().map(|(_, seg)| seg.len()).sum();
        let written = self.read_fs().write_vectored(&req, &self.sb, ino, 0, &segs)?;
        if written != valid {
            return Err(KernelError::with_context(
                Errno::Io,
                "short write during batched writeback",
            ));
        }
        Ok(())
    }

    fn supports_writepages(&self) -> bool {
        true
    }

    fn fsync(&self, ino: u64, datasync: bool) -> KernelResult<()> {
        let req = self.track();
        self.read_fs().fsync(&req, &self.sb, ino, 0, datasync)
    }

    fn statfs(&self) -> KernelResult<StatFs> {
        let req = self.track();
        self.read_fs().statfs(&req, &self.sb)
    }

    fn sync_fs(&self) -> KernelResult<()> {
        let req = self.track();
        self.read_fs().sync_fs(&req, &self.sb)
    }

    fn write_path_stats(&self) -> Option<simkernel::vfs::WritePathStats> {
        Some(self.read_fs().write_path_stats()?.with_queue_depth(self.sb.queued()))
    }

    fn op_stats(&self) -> Option<simkernel::vfs::FsOpStats> {
        self.read_fs().op_stats()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Lets holders of the VFS mount table entry recover the concrete
        // BentoFs handle — the load generator uses this to drive
        // [`BentoFs::upgrade`] against a stack mounted through the normal
        // VFS path.
        Some(self)
    }

    fn destroy(&self) -> KernelResult<()> {
        let req = Request::kernel();
        self.read_fs().destroy(&req, &self.sb)
    }
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

/// Factory for file system instances, invoked at mount (and upgrade) time.
/// It receives the mount options so implementations can expose tuning knobs
/// (e.g. xv6fs's `alloc_groups`) the way kernel file systems parse `-o`.
pub type FsFactory = dyn Fn(&MountOptions) -> Box<dyn FileSystem> + Send + Sync;

/// A mountable Bento file system type: the object registered with the VFS.
///
/// The analogue of a kernel module's `file_system_type` combined with the
/// module's init function: it knows how to produce a fresh [`FileSystem`]
/// instance for each mount.
pub struct BentoFsType {
    name: String,
    factory: Box<FsFactory>,
    cache_blocks: usize,
}

impl std::fmt::Debug for BentoFsType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BentoFsType")
            .field("name", &self.name)
            .field("cache_blocks", &self.cache_blocks)
            .finish_non_exhaustive()
    }
}

impl BentoFsType {
    /// Creates a file system type named `name` with an options-blind
    /// instance factory.
    pub fn new<F>(name: &str, factory: F) -> Self
    where
        F: Fn() -> Box<dyn FileSystem> + Send + Sync + 'static,
    {
        Self::with_options(name, move |_options| factory())
    }

    /// Creates a file system type whose factory receives the mount options
    /// (the `-o` string) so the instance can apply per-mount tuning knobs.
    pub fn with_options<F>(name: &str, factory: F) -> Self
    where
        F: Fn(&MountOptions) -> Box<dyn FileSystem> + Send + Sync + 'static,
    {
        BentoFsType {
            name: name.to_string(),
            factory: Box::new(factory),
            cache_blocks: DEFAULT_BUFFER_CACHE_BLOCKS,
        }
    }

    /// Overrides the per-mount buffer cache size (in blocks).
    #[must_use]
    pub fn with_cache_blocks(mut self, cache_blocks: usize) -> Self {
        self.cache_blocks = cache_blocks;
        self
    }

    /// Mounts an instance over `device` with default options, returning the
    /// concretely typed wrapper (useful when the caller needs
    /// [`BentoFs::upgrade`]).
    ///
    /// # Errors
    ///
    /// Propagates `init` failures.
    pub fn mount_on(&self, device: Arc<dyn BlockDevice>) -> KernelResult<Arc<BentoFs>> {
        self.mount_on_with(device, &MountOptions::default())
    }

    /// Like [`BentoFsType::mount_on`] with explicit mount options.  The
    /// `cache_shards` option tunes the per-mount buffer cache's shard count;
    /// everything else is handed to the factory.
    ///
    /// # Errors
    ///
    /// Propagates `init` failures.
    pub fn mount_on_with(
        &self,
        device: Arc<dyn BlockDevice>,
        options: &MountOptions,
    ) -> KernelResult<Arc<BentoFs>> {
        BentoFs::mount_sharded(
            &self.name,
            device,
            self.cache_blocks,
            options.count("cache_shards"),
            (self.factory)(options),
        )
    }
}

impl FilesystemType for BentoFsType {
    fn fs_name(&self) -> &str {
        &self.name
    }

    fn mount(
        &self,
        device: Arc<dyn BlockDevice>,
        options: &MountOptions,
    ) -> KernelResult<Arc<dyn VfsFs>> {
        Ok(self.mount_on_with(device, options)? as Arc<dyn VfsFs>)
    }
}

/// Registers a Bento file system type with the kernel VFS, like inserting
/// the kernel module and letting it call `register_filesystem`.
///
/// # Errors
///
/// Returns [`Errno::Exist`] if a type with the same name is already
/// registered.
pub fn register_bento_fs(vfs: &Vfs, fstype: Arc<BentoFsType>) -> KernelResult<()> {
    vfs.register_filesystem(fstype)
}

/// Unregisters a previously registered Bento file system type.
///
/// # Errors
///
/// Returns [`Errno::Busy`] if a mount still uses it and [`Errno::NoEnt`] if
/// it was never registered.
pub fn unregister_bento_fs(vfs: &Vfs, name: &str) -> KernelResult<()> {
    vfs.unregister_filesystem(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileops::CreateReply;
    use crate::upgrade::StateBundle;
    use parking_lot::Mutex;
    use simkernel::dev::RamDisk;
    use simkernel::vfs::FileType;
    use std::collections::HashMap;

    /// A small in-memory Bento file system used to exercise BentoFS itself
    /// (the real xv6 implementation lives in the `xv6fs` crate).
    #[derive(Default)]
    struct TestFs {
        files: Mutex<HashMap<u64, (String, Vec<u8>)>>,
        next_ino: Mutex<u64>,
        version: u32,
        /// The length of every buffer `read` was lent, in call order.
        read_lens: Arc<Mutex<Vec<usize>>>,
    }

    impl TestFs {
        fn with_version(version: u32) -> Self {
            TestFs { next_ino: Mutex::new(2), version, ..TestFs::default() }
        }
    }

    impl FileSystem for TestFs {
        fn name(&self) -> &'static str {
            "testfs"
        }

        fn getattr(&self, _req: &Request, _sb: &SuperBlock, ino: u64) -> KernelResult<InodeAttr> {
            if ino == 1 {
                return Ok(InodeAttr::directory(1));
            }
            let files = self.files.lock();
            let (_, data) = files.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            Ok(InodeAttr::regular(ino, data.len() as u64))
        }

        fn lookup(
            &self,
            _req: &Request,
            _sb: &SuperBlock,
            _parent: u64,
            name: &str,
        ) -> KernelResult<InodeAttr> {
            let files = self.files.lock();
            for (ino, (fname, data)) in files.iter() {
                if fname == name {
                    return Ok(InodeAttr::regular(*ino, data.len() as u64));
                }
            }
            Err(KernelError::new(Errno::NoEnt))
        }

        fn create(
            &self,
            _req: &Request,
            _sb: &SuperBlock,
            _parent: u64,
            name: &str,
            _mode: FileMode,
            _flags: OpenFlags,
        ) -> KernelResult<CreateReply> {
            let mut next = self.next_ino.lock();
            let ino = *next;
            *next += 1;
            self.files.lock().insert(ino, (name.to_string(), Vec::new()));
            Ok(CreateReply { attr: InodeAttr::regular(ino, 0), fh: ino })
        }

        fn open(
            &self,
            _req: &Request,
            _sb: &SuperBlock,
            ino: u64,
            _flags: OpenFlags,
        ) -> KernelResult<u64> {
            Ok(ino)
        }

        fn read(
            &self,
            _req: &Request,
            _sb: &SuperBlock,
            ino: u64,
            _fh: u64,
            offset: u64,
            buf: &mut [u8],
        ) -> KernelResult<usize> {
            self.read_lens.lock().push(buf.len());
            let files = self.files.lock();
            let (_, data) = files.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            let start = (offset as usize).min(data.len());
            let n = (data.len() - start).min(buf.len());
            buf[..n].copy_from_slice(&data[start..start + n]);
            Ok(n)
        }

        fn write(
            &self,
            _req: &Request,
            _sb: &SuperBlock,
            ino: u64,
            _fh: u64,
            offset: u64,
            data: &[u8],
        ) -> KernelResult<usize> {
            let mut files = self.files.lock();
            let (_, file) = files.get_mut(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            let end = offset as usize + data.len();
            if file.len() < end {
                file.resize(end, 0);
            }
            file[offset as usize..end].copy_from_slice(data);
            Ok(data.len())
        }

        fn readdir(
            &self,
            _req: &Request,
            _sb: &SuperBlock,
            _ino: u64,
            _fh: u64,
        ) -> KernelResult<Vec<DirEntry>> {
            Ok(self
                .files
                .lock()
                .iter()
                .map(|(ino, (name, _))| DirEntry {
                    ino: *ino,
                    name: name.clone(),
                    kind: FileType::Regular,
                })
                .collect())
        }

        fn fsync(
            &self,
            _req: &Request,
            _sb: &SuperBlock,
            _ino: u64,
            _fh: u64,
            _ds: bool,
        ) -> KernelResult<()> {
            Ok(())
        }

        fn statfs(&self, _req: &Request, sb: &SuperBlock) -> KernelResult<StatFs> {
            Ok(StatFs {
                total_blocks: sb.nblocks(),
                block_size: sb.block_size() as u32,
                ..StatFs::default()
            })
        }

        fn extract_state(&self, _req: &Request, _sb: &SuperBlock) -> KernelResult<StateBundle> {
            if self.version == 0 {
                // Version 0 predates state transfer: force the fallback path.
                return Err(KernelError::new(Errno::NoSys));
            }
            let mut bundle = StateBundle::new();
            let files: Vec<(u64, String, Vec<u8>)> = self
                .files
                .lock()
                .iter()
                .map(|(ino, (name, data))| (*ino, name.clone(), data.clone()))
                .collect();
            bundle.put("files", &files)?;
            bundle.put("next_ino", &*self.next_ino.lock())?;
            Ok(bundle)
        }

        fn restore_state(
            &self,
            _req: &Request,
            _sb: &SuperBlock,
            state: StateBundle,
        ) -> KernelResult<()> {
            let files: Vec<(u64, String, Vec<u8>)> = state.get("files")?;
            let next: u64 = state.get("next_ino")?;
            let mut map = self.files.lock();
            for (ino, name, data) in files {
                map.insert(ino, (name, data));
            }
            *self.next_ino.lock() = next;
            Ok(())
        }
    }

    fn mounted() -> Arc<BentoFs> {
        BentoFs::mount(
            "testfs",
            Arc::new(RamDisk::new(4096, 64)),
            16,
            Box::new(TestFs::with_version(1)),
        )
        .unwrap()
    }

    #[test]
    fn vfs_operations_route_through_fileops() {
        let fs = mounted();
        let attr = fs.create(1, "hello.txt", FileMode::regular()).unwrap();
        assert_eq!(fs.lookup(1, "hello.txt").unwrap().ino, attr.ino);
        let page = vec![0xC3u8; PAGE_SIZE];
        fs.write_page(attr.ino, 0, &page, 100).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        let n = fs.read_page(attr.ino, 0, &mut buf).unwrap();
        assert_eq!(n, 100, "write_page must clamp to the file size");
        assert!(buf[..100].iter().all(|&b| b == 0xC3));
        assert!(fs.operations_dispatched() > 0);
    }

    #[test]
    fn read_page_lends_the_page_and_clamps_at_eof() {
        let testfs = TestFs::with_version(1);
        let read_lens = Arc::clone(&testfs.read_lens);
        let fs = BentoFs::mount("testfs", Arc::new(RamDisk::new(4096, 64)), 16, Box::new(testfs))
            .unwrap();
        let attr = fs.create(1, "straddle", FileMode::regular()).unwrap();
        let size = (PAGE_SIZE + 300) as u64;
        fs.write_page(attr.ino, 0, &vec![0x5A; PAGE_SIZE], size).unwrap();
        fs.write_page(attr.ino, 1, &vec![0xA5; PAGE_SIZE], size).unwrap();
        // The page straddling EOF: the clamped count, and the tail of the
        // (zeroed) page the caller lent stays zero.
        let mut page = vec![0u8; PAGE_SIZE];
        assert_eq!(fs.read_page(attr.ino, 1, &mut page).unwrap(), 300);
        assert!(page[..300].iter().all(|&b| b == 0xA5));
        assert!(page[300..].iter().all(|&b| b == 0), "bytes past EOF are left untouched");
        // A page wholly past EOF reads nothing.
        let mut past = vec![0u8; PAGE_SIZE];
        assert_eq!(fs.read_page(attr.ino, 2, &mut past).unwrap(), 0);
        assert!(past.iter().all(|&b| b == 0));
        // A whole page.
        assert_eq!(fs.read_page(attr.ino, 0, &mut page).unwrap(), PAGE_SIZE);
        assert!(page.iter().all(|&b| b == 0x5A));
        // The file system was handed the page itself, every time.
        assert_eq!(*read_lens.lock(), vec![PAGE_SIZE; 3]);
    }

    #[test]
    fn write_pages_batches_into_single_write() {
        let fs = mounted();
        let attr = fs.create(1, "big", FileMode::regular()).unwrap();
        // Two runs — pages 0,1 and 4,5 — and a file that ends inside page 5.
        let pages: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; PAGE_SIZE]).collect();
        let set: Vec<(u64, &[u8])> =
            [0u64, 1, 4, 5].into_iter().zip(pages.iter().map(|p| p.as_slice())).collect();
        let size = (PAGE_SIZE * 5 + 100) as u64;
        let before = fs.operations_dispatched();
        fs.write_pages(attr.ino, &set, size).unwrap();
        assert_eq!(fs.operations_dispatched() - before, 1, "one dispatch for the whole set");
        assert_eq!(fs.getattr(attr.ino).unwrap().size, size, "the last page is clamped");
        let mut buf = vec![0u8; PAGE_SIZE];
        for (index, fill, valid) in [(1, 2, PAGE_SIZE), (3, 0, PAGE_SIZE), (5, 4, 100)] {
            assert_eq!(fs.read_page(attr.ino, index, &mut buf).unwrap(), valid);
            assert!(buf[..valid].iter().all(|&b| b == fill), "page {index}");
        }
        // A page wholly past the file size is not written.
        fs.write_pages(attr.ino, &[(9, &pages[0])], size).unwrap();
        assert_eq!(fs.getattr(attr.ino).unwrap().size, size);
    }

    #[test]
    fn upgrade_with_state_transfer_preserves_files() {
        let fs = mounted();
        let attr = fs.create(1, "survivor", FileMode::regular()).unwrap();
        fs.write_page(attr.ino, 0, &vec![9u8; PAGE_SIZE], 10).unwrap();
        let report = fs.upgrade(Box::new(TestFs::with_version(2))).unwrap();
        assert!(report.state_transfer);
        assert_eq!(report.generation, 1);
        assert_eq!(fs.generation(), 1);
        // File and contents survived the swap.
        let found = fs.lookup(1, "survivor").unwrap();
        assert_eq!(found.ino, attr.ino);
        let mut buf = vec![0u8; PAGE_SIZE];
        let n = fs.read_page(found.ino, 0, &mut buf).unwrap();
        assert_eq!(n, 10);
        assert!(buf[..10].iter().all(|&b| b == 9));
    }

    #[test]
    fn upgrade_falls_back_without_state_transfer() {
        let fs = BentoFs::mount(
            "testfs",
            Arc::new(RamDisk::new(4096, 64)),
            16,
            Box::new(TestFs::with_version(0)),
        )
        .unwrap();
        fs.create(1, "lost", FileMode::regular()).unwrap();
        let report = fs.upgrade(Box::new(TestFs::with_version(2))).unwrap();
        assert!(!report.state_transfer);
        assert_eq!(report.transferred_entries, 0);
        // TestFs keeps everything in memory only, so the fallback (reinit
        // from "disk") legitimately loses the in-memory file.  A real file
        // system (xv6fs) persists to the device and would still see it.
        assert_eq!(fs.lookup(1, "lost").unwrap_err().errno(), Errno::NoEnt);
    }

    #[test]
    fn fstype_registers_and_mounts_via_vfs() {
        let vfs = Vfs::default();
        let fstype = Arc::new(BentoFsType::new("testfs", || Box::new(TestFs::with_version(1))));
        register_bento_fs(&vfs, Arc::clone(&fstype)).unwrap();
        vfs.mount("testfs", Arc::new(RamDisk::new(4096, 64)), "/", &MountOptions::default())
            .unwrap();
        let fd = vfs.open("/via_vfs", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"abc").unwrap();
        vfs.fsync(fd).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.stat("/via_vfs").unwrap().size, 3);
        assert_eq!(
            unregister_bento_fs(&vfs, "testfs").unwrap_err().errno(),
            Errno::Busy,
            "cannot unregister while mounted"
        );
        vfs.unmount("/").unwrap();
        unregister_bento_fs(&vfs, "testfs").unwrap();
    }

    #[test]
    fn upgrade_under_concurrent_load() {
        use std::thread;
        let fs = mounted();
        let attr = fs.create(1, "contended", FileMode::regular()).unwrap();
        let fs2 = Arc::clone(&fs);
        let writer = thread::spawn(move || {
            for i in 0..200u64 {
                let page = vec![(i % 256) as u8; PAGE_SIZE];
                fs2.write_page(attr.ino, 0, &page, PAGE_SIZE as u64).unwrap();
            }
        });
        for _ in 0..5 {
            let report = fs.upgrade(Box::new(TestFs::with_version(3))).unwrap();
            // The paper's §4.8 headline: upgrading under load pauses
            // applications for milliseconds, not an unmount window.  The
            // pause here is draining in-flight operations plus the state
            // transfer; a generous 1 s bound catches regressions (e.g. an
            // upgrade path that starts blocking on the whole workload)
            // without flaking on slow CI machines.
            assert!(report.pause_ns > 0, "pause must be measured");
            assert!(
                report.pause_ns < 1_000_000_000,
                "upgrade paused {} ms under load",
                report.pause_ns / 1_000_000
            );
        }
        writer.join().unwrap();
        assert_eq!(fs.generation(), 5);
        assert_eq!(fs.getattr(attr.ino).unwrap().size, PAGE_SIZE as u64);
    }
}
