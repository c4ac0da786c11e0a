//! # fusesim — the FUSE baseline substrate
//!
//! The paper's third xv6 variant runs in userspace behind FUSE (§6.2): the
//! kernel's FUSE driver translates VFS calls into requests, queues them on
//! `/dev/fuse`, a userspace daemon dispatches them to the file system, and
//! the reply travels back the same way.  Block I/O from the daemon goes
//! through the disk file opened with `O_DIRECT`, and ordering points require
//! fsync of the whole disk file.
//!
//! This crate reproduces that pipeline in the simulation:
//!
//! * [`FuseKernelDriver`] implements [`VfsFs`] — it is what the simulated
//!   kernel mounts.  Every operation is packaged as a [`FuseRequest`],
//!   charged a user/kernel round trip plus a per-byte copy cost, and pushed
//!   onto the request queue.
//! * [`FuseDaemon`] is the userspace side: a pool of worker threads that pop
//!   requests and dispatch them to any [`bento::FileSystem`] implementation
//!   — the *same* `xv6fs` code that runs in the kernel through BentoFS, now
//!   over a buffer cache whose device is [`bento::userspace::UserDisk`],
//!   the daemon's disk file (which charges the crossings and whole-file
//!   fsyncs the paper describes in §6.4).
//! * [`mount_fuse_xv6`] wires the two together for the evaluation, and
//!   [`FuseXv6FilesystemType`] exposes it as a mountable VFS type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use bento::bentoks::{KernelBlockIo, SuperBlock};
use bento::fileops::{FileSystem, Request};
use bento::userspace::{userspace_superblock, UserDisk};
use simkernel::cost::{CostCounters, CostKind, CostModel};
use simkernel::dev::BlockDevice;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{
    DirEntry, FileMode, FilesystemType, InodeAttr, OpenFlags, SetAttr, StatFs, VfsFs,
    WritebackFile, PAGE_SIZE,
};
use xv6fs::core::{thread_home, with_home};

/// Maximum payload of one FUSE READ or WRITE request (the kernel driver
/// splits larger fills and write-backs), matching the 128 KiB (32 pages)
/// used by Linux FUSE with `max_pages` defaults.
pub const FUSE_MAX_IO: usize = 128 * 1024;

/// [`FUSE_MAX_IO`] in pages.
const FUSE_MAX_PAGES: usize = FUSE_MAX_IO / PAGE_SIZE;

/// A request travelling from the kernel driver to the userspace daemon.
#[derive(Debug)]
pub enum FuseRequest {
    /// `lookup(parent, name)`
    Lookup(u64, String),
    /// `getattr(ino)`
    Getattr(u64),
    /// `setattr(ino, changes)`
    Setattr(u64, SetAttr),
    /// `create(parent, name, mode)`
    Create(u64, String, FileMode),
    /// `mkdir(parent, name, mode)`
    Mkdir(u64, String, FileMode),
    /// `unlink(parent, name)`
    Unlink(u64, String),
    /// `rmdir(parent, name)`
    Rmdir(u64, String),
    /// `rename(parent, name, newparent, newname)`
    Rename(u64, String, u64, String),
    /// `link(ino, newparent, newname)`
    Link(u64, u64, String),
    /// `open(ino, flags)`
    Open(u64, u32),
    /// `release(ino, fh)`
    Release(u64, u64),
    /// `read(ino, offset, size)`
    Read(u64, u64, u32),
    /// `write(ino, offset, data)`
    Write(u64, u64, Vec<u8>),
    /// `fsync(ino, datasync)`
    Fsync(u64, bool),
    /// `readdir(ino)`
    Readdir(u64),
    /// `statfs`
    Statfs,
    /// `destroy` (unmount)
    Destroy,
    /// Stop a daemon worker (internal).
    Shutdown,
}

/// A reply travelling back from the daemon to the kernel driver.
#[derive(Debug)]
pub enum FuseReply {
    /// Attributes (lookup, getattr, setattr, create, mkdir, link).
    Attr(InodeAttr),
    /// Raw data (read).
    Data(Vec<u8>),
    /// Byte count (write).
    Written(usize),
    /// A file handle (open).
    Handle(u64),
    /// Directory listing.
    Entries(Vec<DirEntry>),
    /// File system statistics.
    Statfs(StatFs),
    /// Success with no payload.
    Ok,
}

type ReplySlot = Sender<KernelResult<FuseReply>>;

/// A queued request with the calling thread's allocation home
/// ([`xv6fs::core::thread_home`]) and its reply channel.
type QueuedRequest = (FuseRequest, u64, ReplySlot);

/// The userspace daemon: worker threads dispatching requests to a Bento
/// [`FileSystem`] running against userspace services.
pub struct FuseDaemon {
    workers: Vec<JoinHandle<()>>,
    queue: Sender<QueuedRequest>,
}

impl std::fmt::Debug for FuseDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuseDaemon").field("workers", &self.workers.len()).finish_non_exhaustive()
    }
}

impl FuseDaemon {
    /// Starts a daemon with `workers` threads serving `fs` against the
    /// userspace superblock `sb`.  Returns the daemon and the request queue
    /// sender used by the kernel driver.
    pub fn start(
        fs: Arc<dyn FileSystem>,
        sb: Arc<SuperBlock>,
        workers: usize,
    ) -> (Self, Sender<QueuedRequest>) {
        let (tx, rx): (Sender<QueuedRequest>, Receiver<QueuedRequest>) = unbounded();
        let mut handles = Vec::new();
        for _ in 0..workers.max(1) {
            let rx = rx.clone();
            let fs = Arc::clone(&fs);
            let sb = Arc::clone(&sb);
            handles.push(std::thread::spawn(move || {
                let req_ctx = Request::default();
                while let Ok((request, home, reply_slot)) = rx.recv() {
                    if matches!(request, FuseRequest::Shutdown) {
                        let _ = reply_slot.send(Ok(FuseReply::Ok));
                        break;
                    }
                    // Allocate where the caller would have: which worker
                    // wakes for a request must not decide block placement.
                    let reply = with_home(home, || dispatch(&*fs, &sb, &req_ctx, request));
                    let _ = reply_slot.send(reply);
                }
            }));
        }
        (FuseDaemon { workers: handles, queue: tx.clone() }, tx)
    }

    /// Stops all worker threads (idempotent).
    pub fn shutdown(&mut self) {
        for _ in 0..self.workers.len() {
            let (tx, _rx) = unbounded();
            let _ = self.queue.send((FuseRequest::Shutdown, 0, tx));
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for FuseDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch(
    fs: &dyn FileSystem,
    sb: &SuperBlock,
    req: &Request,
    request: FuseRequest,
) -> KernelResult<FuseReply> {
    match request {
        FuseRequest::Lookup(parent, name) => fs.lookup(req, sb, parent, &name).map(FuseReply::Attr),
        FuseRequest::Getattr(ino) => fs.getattr(req, sb, ino).map(FuseReply::Attr),
        FuseRequest::Setattr(ino, set) => fs.setattr(req, sb, ino, &set).map(FuseReply::Attr),
        FuseRequest::Create(parent, name, mode) => {
            let reply = fs.create(req, sb, parent, &name, mode, OpenFlags::RDWR)?;
            // The kernel driver's VFS create path opens the file separately,
            // so the handle returned by the userspace create must be released
            // here or it would pin the inode forever (a "missing free").
            fs.release(req, sb, reply.attr.ino, reply.fh)?;
            Ok(FuseReply::Attr(reply.attr))
        }
        FuseRequest::Mkdir(parent, name, mode) => {
            fs.mkdir(req, sb, parent, &name, mode).map(FuseReply::Attr)
        }
        FuseRequest::Unlink(parent, name) => {
            fs.unlink(req, sb, parent, &name).map(|()| FuseReply::Ok)
        }
        FuseRequest::Rmdir(parent, name) => {
            fs.rmdir(req, sb, parent, &name).map(|()| FuseReply::Ok)
        }
        FuseRequest::Rename(parent, name, newparent, newname) => {
            fs.rename(req, sb, parent, &name, newparent, &newname).map(|()| FuseReply::Ok)
        }
        FuseRequest::Link(ino, newparent, newname) => {
            fs.link(req, sb, ino, newparent, &newname).map(FuseReply::Attr)
        }
        FuseRequest::Open(ino, flags) => {
            fs.open(req, sb, ino, OpenFlags::from_bits(flags)).map(FuseReply::Handle)
        }
        FuseRequest::Release(ino, fh) => fs.release(req, sb, ino, fh).map(|()| FuseReply::Ok),
        FuseRequest::Read(ino, offset, size) => {
            // The daemon owns its reply buffer: the reply is copied back
            // across the boundary into the kernel's page.
            let mut data = vec![0u8; size as usize];
            let n = fs.read(req, sb, ino, 0, offset, &mut data)?;
            data.truncate(n);
            Ok(FuseReply::Data(data))
        }
        FuseRequest::Write(ino, offset, data) => {
            fs.write(req, sb, ino, 0, offset, &data).map(FuseReply::Written)
        }
        FuseRequest::Fsync(ino, datasync) => {
            fs.fsync(req, sb, ino, 0, datasync).map(|()| FuseReply::Ok)
        }
        FuseRequest::Readdir(ino) => fs.readdir(req, sb, ino, 0).map(FuseReply::Entries),
        FuseRequest::Statfs => fs.statfs(req, sb).map(FuseReply::Statfs),
        FuseRequest::Destroy => fs.destroy(req, sb).map(|()| FuseReply::Ok),
        FuseRequest::Shutdown => Ok(FuseReply::Ok),
    }
}

/// The kernel-side FUSE driver: a [`VfsFs`] whose every operation round
/// trips through the request queue to the userspace daemon.
pub struct FuseKernelDriver {
    name: String,
    queue: Sender<QueuedRequest>,
    daemon: Mutex<FuseDaemon>,
    model: CostModel,
    counters: Arc<CostCounters>,
    /// Counters of the userspace disk (crossings, whole-file syncs).
    disk_counters: Arc<CostCounters>,
}

impl std::fmt::Debug for FuseKernelDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuseKernelDriver").field("name", &self.name).finish_non_exhaustive()
    }
}

impl FuseKernelDriver {
    /// Cost counters for the request path (round trips, copies).
    pub fn counters(&self) -> Arc<CostCounters> {
        Arc::clone(&self.counters)
    }

    /// Cost counters for the daemon's disk accesses (crossings, whole-file
    /// fsyncs).
    pub fn disk_counters(&self) -> Arc<CostCounters> {
        Arc::clone(&self.disk_counters)
    }

    fn call(&self, payload_bytes: usize, request: FuseRequest) -> KernelResult<FuseReply> {
        // One request/response round trip: two user/kernel crossings, the
        // daemon wakeup, and copying the payload out and back.
        self.model.charge(&self.counters, CostKind::FuseRoundTrip, self.model.fuse_round_trip_ns);
        self.model.charge(&self.counters, CostKind::BoundaryCrossing, 2 * self.model.crossing_ns);
        if payload_bytes > 0 {
            self.model.charge(
                &self.counters,
                CostKind::BoundaryCopy,
                payload_bytes as u64 * self.model.copy_per_byte_ns,
            );
        }
        let (tx, rx) = unbounded();
        self.queue
            .send((request, thread_home(), tx))
            .map_err(|_| KernelError::with_context(Errno::Io, "fuse: daemon connection closed"))?;
        rx.recv().map_err(|_| KernelError::with_context(Errno::Io, "fuse: daemon died"))?
    }

    fn expect_attr(reply: FuseReply) -> KernelResult<InodeAttr> {
        match reply {
            FuseReply::Attr(attr) => Ok(attr),
            _ => Err(KernelError::with_context(Errno::Io, "fuse: unexpected reply")),
        }
    }
}

impl VfsFs for FuseKernelDriver {
    fn fs_name(&self) -> &str {
        &self.name
    }

    fn root_ino(&self) -> u64 {
        1
    }

    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        Self::expect_attr(self.call(name.len(), FuseRequest::Lookup(dir, name.to_string()))?)
    }

    fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
        Self::expect_attr(self.call(0, FuseRequest::Getattr(ino))?)
    }

    fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
        Self::expect_attr(self.call(0, FuseRequest::Setattr(ino, *set))?)
    }

    fn create(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr> {
        Self::expect_attr(self.call(name.len(), FuseRequest::Create(dir, name.to_string(), mode))?)
    }

    fn mkdir(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr> {
        Self::expect_attr(self.call(name.len(), FuseRequest::Mkdir(dir, name.to_string(), mode))?)
    }

    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()> {
        self.call(name.len(), FuseRequest::Unlink(dir, name.to_string())).map(|_| ())
    }

    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()> {
        self.call(name.len(), FuseRequest::Rmdir(dir, name.to_string())).map(|_| ())
    }

    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()> {
        self.call(
            oldname.len() + newname.len(),
            FuseRequest::Rename(olddir, oldname.to_string(), newdir, newname.to_string()),
        )
        .map(|_| ())
    }

    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        Self::expect_attr(
            self.call(newname.len(), FuseRequest::Link(ino, newdir, newname.to_string()))?,
        )
    }

    fn open(&self, ino: u64, flags: OpenFlags) -> KernelResult<u64> {
        match self.call(0, FuseRequest::Open(ino, flags.bits()))? {
            FuseReply::Handle(fh) => Ok(fh),
            _ => Err(KernelError::with_context(Errno::Io, "fuse: unexpected reply")),
        }
    }

    fn release(&self, ino: u64, fh: u64) -> KernelResult<()> {
        self.call(0, FuseRequest::Release(ino, fh)).map(|_| ())
    }

    fn readdir(&self, ino: u64) -> KernelResult<Vec<DirEntry>> {
        match self.call(0, FuseRequest::Readdir(ino))? {
            FuseReply::Entries(entries) => Ok(entries),
            _ => Err(KernelError::with_context(Errno::Io, "fuse: unexpected reply")),
        }
    }

    fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize> {
        self.read_pages(ino, page_index, &mut [buf])
    }

    fn read_pages(
        &self,
        ino: u64,
        first_page: u64,
        pages: &mut [&mut [u8]],
    ) -> KernelResult<usize> {
        // The kernel FUSE client fills a run of pages with one READ per
        // FUSE_MAX_IO bytes; the daemon's reply is copied across the
        // boundary straight into the page cache's pages.
        let mut filled = 0;
        for (first, run) in
            (first_page..).step_by(FUSE_MAX_PAGES).zip(pages.chunks_mut(FUSE_MAX_PAGES))
        {
            let size = run.len() * PAGE_SIZE;
            let offset = first * PAGE_SIZE as u64;
            let data = match self.call(size, FuseRequest::Read(ino, offset, size as u32))? {
                FuseReply::Data(data) => data,
                _ => return Err(KernelError::with_context(Errno::Io, "fuse: unexpected reply")),
            };
            for (page, chunk) in run.iter_mut().zip(data.chunks(PAGE_SIZE)) {
                let n = chunk.len().min(page.len());
                page[..n].copy_from_slice(&chunk[..n]);
                filled += n;
            }
            if data.len() < size {
                break;
            }
        }
        Ok(filled)
    }

    fn write_page(
        &self,
        ino: u64,
        page_index: u64,
        data: &[u8],
        file_size: u64,
    ) -> KernelResult<()> {
        let offset = page_index * PAGE_SIZE as u64;
        if offset >= file_size {
            return Ok(());
        }
        let valid = data.len().min((file_size - offset) as usize);
        match self.call(valid, FuseRequest::Write(ino, offset, data[..valid].to_vec()))? {
            FuseReply::Written(n) if n == valid => Ok(()),
            FuseReply::Written(_) => Err(KernelError::with_context(Errno::Io, "fuse: short write")),
            _ => Err(KernelError::with_context(Errno::Io, "fuse: unexpected reply")),
        }
    }

    fn write_pages(&self, files: &[WritebackFile<'_>]) -> KernelResult<()> {
        // The FUSE writeback cache sends, file by file, one WRITE request
        // per contiguous run of dirty pages, capped at FUSE_MAX_IO bytes:
        // a request names one file and one offset, and its payload is
        // copied across the boundary, so — unlike BentoFS — runs are
        // assembled here, not lent.
        for &(ino, pages, file_size) in files {
            let mut rest = pages;
            while let Some(&(first, _)) = rest.first() {
                let offset = first * PAGE_SIZE as u64;
                if offset >= file_size {
                    rest = &rest[1..];
                    continue;
                }
                let limit = rest.len().min(FUSE_MAX_PAGES);
                let run = (1..limit).find(|&i| rest[i].0 != first + i as u64).unwrap_or(limit);
                let mut chunk = Vec::with_capacity(run * PAGE_SIZE);
                for (_, page) in &rest[..run] {
                    chunk.extend_from_slice(page);
                }
                chunk.truncate((file_size - offset).min(chunk.len() as u64) as usize);
                let len = chunk.len();
                match self.call(len, FuseRequest::Write(ino, offset, chunk))? {
                    FuseReply::Written(n) if n == len => {}
                    _ => return Err(KernelError::with_context(Errno::Io, "fuse: short write")),
                }
                rest = &rest[run..];
            }
        }
        Ok(())
    }

    fn supports_writepages(&self) -> bool {
        true
    }

    fn fsync(&self, ino: u64, datasync: bool) -> KernelResult<()> {
        self.call(0, FuseRequest::Fsync(ino, datasync)).map(|_| ())
    }

    fn statfs(&self) -> KernelResult<StatFs> {
        match self.call(0, FuseRequest::Statfs)? {
            FuseReply::Statfs(stats) => Ok(stats),
            _ => Err(KernelError::with_context(Errno::Io, "fuse: unexpected reply")),
        }
    }

    fn sync_fs(&self) -> KernelResult<()> {
        self.call(0, FuseRequest::Fsync(1, false)).map(|_| ())
    }

    fn destroy(&self) -> KernelResult<()> {
        let result = self.call(0, FuseRequest::Destroy).map(|_| ());
        self.daemon.lock().shutdown();
        result
    }
}

/// Mounts the Rust xv6 file system as a FUSE userspace daemon over `device`
/// and returns the kernel-side driver to register with the VFS.
///
/// `model` supplies the boundary-crossing / round-trip / whole-file-fsync
/// costs; `workers` is the daemon thread count.
///
/// # Errors
///
/// Propagates mount errors from the file system (bad superblock, I/O).
pub fn mount_fuse_xv6(
    device: Arc<dyn BlockDevice>,
    model: CostModel,
    workers: usize,
) -> KernelResult<Arc<FuseKernelDriver>> {
    let disk = Arc::new(UserDisk::new(device, model.clone()));
    let disk_counters = disk.counters();
    let io = Arc::new(KernelBlockIo::new(disk, 4096));
    let sb = Arc::new(userspace_superblock(io, "fuse-userdisk"));
    let fs: Arc<dyn FileSystem> = Arc::new(xv6fs::Xv6FileSystem::with_label("xv6fs-fuse"));
    fs.init(&Request::default(), &sb)?;
    let (daemon, queue) = FuseDaemon::start(fs, sb, workers);
    Ok(Arc::new(FuseKernelDriver {
        name: "xv6fs_fuse".to_string(),
        queue,
        daemon: Mutex::new(daemon),
        model,
        counters: Arc::new(CostCounters::new()),
        disk_counters,
    }))
}

/// Mountable VFS type for the FUSE xv6 baseline: [`CostModel::zero`] and
/// four daemon threads.  A mount with a boundary-crossing model calls
/// [`mount_fuse_xv6`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FuseXv6FilesystemType;

impl FilesystemType for FuseXv6FilesystemType {
    fn fs_name(&self) -> &str {
        "xv6fs_fuse"
    }

    fn mount(&self, device: Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>> {
        Ok(mount_fuse_xv6(device, CostModel::zero(), 4)? as Arc<dyn VfsFs>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use simkernel::vfs::{OpenFlags, Vfs};
    use xv6fs::mkfs::mkfs_on_device;

    fn fuse_mounted() -> Arc<FuseKernelDriver> {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs_on_device(&dev, 256).unwrap();
        mount_fuse_xv6(dev, CostModel::zero(), 2).unwrap()
    }

    #[test]
    fn operations_round_trip_through_the_daemon() {
        let fs = fuse_mounted();
        let attr = fs.create(1, "over-fuse", FileMode::regular()).unwrap();
        let page = vec![0x99u8; PAGE_SIZE];
        fs.write_page(attr.ino, 0, &page, 1000).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        let copies = fs.counters().snapshot().copies;
        assert_eq!(fs.read_page(attr.ino, 0, &mut buf).unwrap(), 1000);
        assert!(buf[..1000].iter().all(|&b| b == 0x99));
        assert_eq!(
            fs.counters().snapshot().copies - copies,
            1,
            "the READ reply is copied across the boundary into the page"
        );
        assert!(fs.counters().snapshot().fuse_round_trips >= 3);
        let entries = fs.readdir(1).unwrap();
        assert!(entries.iter().any(|e| e.name == "over-fuse"));
        fs.destroy().unwrap();
    }

    #[test]
    fn whole_file_sync_is_charged_on_fsync() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs_on_device(&dev, 256).unwrap();
        // Accounting-only model (no wall-clock delays) with a visible
        // whole-file sync cost.
        let model = CostModel { whole_file_sync_base_ns: 1_000_000, ..CostModel::zero() };
        let fs = mount_fuse_xv6(dev, model, 2).unwrap();
        let attr = fs.create(1, "f", FileMode::regular()).unwrap();
        let syncs = || fs.disk_counters().snapshot().whole_file_syncs;
        let before = syncs();
        fs.write_page(attr.ino, 0, &vec![1u8; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        let committed = syncs();
        assert_eq!(
            committed - before,
            1,
            "a commit's one barrier syncs the whole disk file from userspace"
        );
        // The write's group is durable once its commit barrier returned:
        // an fsync that finds the log idle has nothing left to pay for.
        fs.fsync(attr.ino, false).unwrap();
        assert_eq!(syncs(), committed, "fsync on an idle log issues no barrier");
        fs.destroy().unwrap();
    }

    #[test]
    fn full_stack_mount_through_vfs() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs_on_device(&dev, 256).unwrap();
        let vfs = Vfs::default();
        vfs.register_filesystem(Arc::new(FuseXv6FilesystemType)).unwrap();
        vfs.mount("xv6fs_fuse", dev, "/").unwrap();
        let fd = vfs.open("/hello", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"fuse path works").unwrap();
        vfs.fsync(fd).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.stat("/hello").unwrap().size, 15);
        vfs.unmount("/").unwrap();
    }

    #[test]
    fn concurrent_requests_are_served_by_worker_pool() {
        use std::thread;
        let fs = fuse_mounted();
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let fs = Arc::clone(&fs);
            handles.push(thread::spawn(move || {
                for i in 0..8u32 {
                    fs.create(1, &format!("t{t}-f{i}"), FileMode::regular()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fs.readdir(1).unwrap().len(), 2 + 32);
        fs.destroy().unwrap();
    }

    /// A FUSE mount behind a VFS (page cache included) over `dev`, with
    /// every payload byte charged one nanosecond.
    fn fuse_vfs(dev: &Arc<dyn BlockDevice>, workers: usize) -> (Vfs, Arc<FuseKernelDriver>) {
        let model = CostModel { copy_per_byte_ns: 1, ..CostModel::zero() };
        let fs = mount_fuse_xv6(Arc::clone(dev), model, workers).unwrap();
        let vfs = Vfs::default();
        vfs.mount_fs(Arc::clone(&fs) as Arc<dyn VfsFs>, "/").unwrap();
        (vfs, fs)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// A RAM disk holding `/f` with `len` pattern bytes, unmounted (so the
    /// next mount starts cold).
    fn disk_with_file(len: usize) -> Arc<dyn BlockDevice> {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs_on_device(&dev, 256).unwrap();
        let (vfs, _) = fuse_vfs(&dev, 2);
        let fd = vfs.open("/f", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, &pattern(len)).unwrap();
        vfs.close(fd).unwrap();
        vfs.unmount("/").unwrap();
        dev
    }

    #[test]
    fn a_cold_64k_read_is_one_read_request() {
        let dev = disk_with_file(128 * 1024);
        let (vfs, fs) = fuse_vfs(&dev, 2);
        let fd = vfs.open("/f", OpenFlags::RDONLY).unwrap();
        vfs.fstat(fd).unwrap();
        let before = fs.counters().snapshot();
        let mut buf = vec![0u8; 64 * 1024];
        let mut out = Vec::new();
        for _ in 0..2 {
            assert_eq!(vfs.read(fd, &mut buf).unwrap(), buf.len());
            out.extend_from_slice(&buf);
        }
        assert_eq!(out, pattern(128 * 1024));
        let after = fs.counters().snapshot();
        assert_eq!(after.fuse_round_trips - before.fuse_round_trips, 2, "one READ per 64 KiB");
        assert_eq!(after.copies - before.copies, 2);
        assert_eq!(after.total_ns - before.total_ns, 128 * 1024, "each byte copied once");
        vfs.close(fd).unwrap();
        vfs.unmount("/").unwrap();
    }

    #[test]
    fn a_1m_read_is_eight_128k_read_requests() {
        let dev = disk_with_file(1024 * 1024);
        let (vfs, fs) = fuse_vfs(&dev, 2);
        let fd = vfs.open("/f", OpenFlags::RDONLY).unwrap();
        vfs.fstat(fd).unwrap();
        let before = fs.counters().snapshot();
        let mut buf = vec![0u8; 1024 * 1024];
        assert_eq!(vfs.read(fd, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, pattern(buf.len()));
        let after = fs.counters().snapshot();
        assert_eq!(after.fuse_round_trips - before.fuse_round_trips, 8);
        assert_eq!(after.total_ns - before.total_ns, 1024 * 1024, "8 requests of FUSE_MAX_IO");
        vfs.close(fd).unwrap();
        vfs.unmount("/").unwrap();
    }

    /// The image one client's create/write stream leaves on a mount with
    /// `workers` daemon threads.
    fn image_after_one_client(workers: usize) -> Vec<Vec<u8>> {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs_on_device(&dev, 256).unwrap();
        let (vfs, _) = fuse_vfs(&dev, workers);
        for i in 0..24usize {
            vfs.mkdir(&format!("/d{i}")).unwrap();
            let fd = vfs.open(&format!("/d{i}/f"), OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
            vfs.write(fd, &pattern(3000 * (i + 1))).unwrap();
            if i % 3 == 0 {
                vfs.fsync(fd).unwrap();
            }
            vfs.close(fd).unwrap();
        }
        vfs.unmount("/").unwrap();
        (0..dev.num_blocks())
            .map(|b| {
                let mut block = vec![0u8; PAGE_SIZE];
                dev.read_block(b, &mut block).unwrap();
                block
            })
            .collect()
    }

    #[test]
    fn block_placement_follows_the_client_not_the_daemon_worker() {
        let one = image_after_one_client(1);
        let eight = image_after_one_client(8);
        let differing: Vec<usize> = (0..one.len()).filter(|&b| one[b] != eight[b]).collect();
        assert!(differing.is_empty(), "blocks {differing:?} differ between 1 and 8 workers");
    }
}
