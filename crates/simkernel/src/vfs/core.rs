//! The kernel side of the VFS: registration, mounting, path resolution, file
//! descriptors, the page cache, and POSIX-flavoured syscalls.
//!
//! Workloads and examples talk to a [`Vfs`] instance exactly the way an
//! application talks to the kernel: `open`, `read`, `write`, `fsync`,
//! `mkdir`, `rename`, ... .  The `Vfs` routes each call to the mounted file
//! system that owns the path and runs the shared page cache above it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::dev::BlockDevice;
use crate::error::{err, Errno, KernelError, KernelResult};
use crate::pagecache::{PageCache, PageCacheConfig, PageCacheStats};
use crate::shard::ShardedMap;
use crate::vfs::dcache::{Dentry, DentryCache};
use crate::vfs::{
    DirEntry, FileMode, FileType, FilesystemType, InodeAttr, OpenFlags, SetAttr, StatFs, VfsFs,
};

/// Configuration for a [`Vfs`] instance.  It has no settings: the fd table
/// and every mount's page cache take their automatic defaults.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct VfsConfig {}

/// Whence values for [`Vfs::lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekFrom {
    /// Absolute offset.
    Start(u64),
    /// Relative to the current position.
    Current(i64),
    /// Relative to the end of the file.
    End(i64),
}

struct Mount {
    id: u64,
    path: String,
    fs: Arc<dyn VfsFs>,
    /// The root directory's inode number, read once at mount time.
    root: u64,
    dcache: DentryCache,
    page_cache: PageCache,
}

impl Mount {
    /// Walks the mount-relative path `rest` to the directory holding its
    /// last component, returning that directory and the component (the
    /// root and `None` when `rest` is empty).  Intermediate components come
    /// from the dentry cache when it has them.
    fn walk<'p>(&self, rest: &'p str) -> KernelResult<(u64, Option<&'p str>)> {
        let mut dir = self.root;
        let mut comps = components(rest).peekable();
        while let Some(name) = comps.next() {
            if comps.peek().is_none() {
                return Ok((dir, Some(name)));
            }
            let child = match self.dcache.get(dir, name) {
                Some(cached) => cached,
                None => Dentry::from(self.dcache.lookup(&*self.fs, dir, name)?),
            };
            if child.kind != FileType::Directory {
                return Err(KernelError::with_context(
                    Errno::NotDir,
                    "path component not a directory",
                ));
            }
            dir = child.ino;
        }
        Ok((dir, None))
    }

    /// The attributes of `name` in directory `dir`, always from the file
    /// system: a `getattr` when the name is cached, else a `lookup` whose
    /// answer the cache keeps.
    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        match self.dcache.get(dir, name) {
            Some(cached) => self.fs.getattr(cached.ino),
            None => self.dcache.lookup(&*self.fs, dir, name),
        }
    }
}

impl std::fmt::Debug for Mount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mount")
            .field("id", &self.id)
            .field("path", &self.path)
            .field("fs", &self.fs.fs_name())
            .finish_non_exhaustive()
    }
}

struct OpenFile {
    mount: Arc<Mount>,
    ino: u64,
    fh: u64,
    flags: OpenFlags,
    kind: FileType,
    pos: Mutex<u64>,
}

/// The simulated kernel's VFS.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use simkernel::dev::RamDisk;
/// use simkernel::memfs::MemFilesystemType;
/// use simkernel::vfs::{OpenFlags, Vfs, VfsConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let vfs = Vfs::new(VfsConfig::default());
/// vfs.register_filesystem(Arc::new(MemFilesystemType))?;
/// vfs.mount("memfs", Arc::new(RamDisk::new(4096, 16)), "/")?;
///
/// let fd = vfs.open("/hello.txt", OpenFlags::RDWR.with(OpenFlags::CREAT))?;
/// vfs.write(fd, b"hi")?;
/// vfs.close(fd)?;
/// assert_eq!(vfs.stat("/hello.txt")?.size, 2);
/// # Ok(())
/// # }
/// ```
pub struct Vfs {
    /// Registered mountable types.  Read-mostly: written at registration,
    /// read at mount time only.
    fstypes: RwLock<HashMap<String, Arc<dyn FilesystemType>>>,
    /// Mount table, kept as an immutable snapshot behind the lock so the
    /// per-syscall `find_mount` clones one `Arc` instead of holding the
    /// lock while walking mounts (read-mostly: only (un)mount writes).
    mounts: RwLock<Arc<Vec<Arc<Mount>>>>,
    /// The fd table, sharded: syscalls on different descriptors only
    /// contend when the fds hash to the same shard.  Allocation is an
    /// atomic counter, not a table scan.
    fds: ShardedMap<u64, Arc<OpenFile>>,
    next_fd: AtomicU64,
    next_mount: AtomicU64,
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vfs")
            .field("mounts", &self.mounts.read().len())
            .field("open_fds", &self.fds.len())
            .finish_non_exhaustive()
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new(VfsConfig::default())
    }
}

impl Vfs {
    /// Creates an empty VFS (no registered file systems, no mounts).
    pub fn new(_config: VfsConfig) -> Self {
        Vfs {
            fstypes: RwLock::new(HashMap::new()),
            mounts: RwLock::new(Arc::new(Vec::new())),
            fds: ShardedMap::default(),
            next_fd: AtomicU64::new(3),
            next_mount: AtomicU64::new(1),
        }
    }

    // -- registration and mounting -----------------------------------------

    /// Registers a file system type so it can be mounted by name.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Exist`] if a type with the same name is registered.
    pub fn register_filesystem(&self, fstype: Arc<dyn FilesystemType>) -> KernelResult<()> {
        let mut types = self.fstypes.write();
        let name = fstype.fs_name().to_string();
        if types.contains_key(&name) {
            return Err(KernelError::with_context(
                Errno::Exist,
                "filesystem type already registered",
            ));
        }
        types.insert(name, fstype);
        Ok(())
    }

    /// Unregisters a file system type.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::NoEnt`] if the type is not registered and
    /// [`Errno::Busy`] if an active mount still uses it.
    pub fn unregister_filesystem(&self, name: &str) -> KernelResult<()> {
        if self.mounts.read().iter().any(|m| m.fs.fs_name() == name) {
            return Err(KernelError::with_context(Errno::Busy, "filesystem type in use"));
        }
        match self.fstypes.write().remove(name) {
            Some(_) => Ok(()),
            None => Err(KernelError::with_context(Errno::NoEnt, "filesystem type not registered")),
        }
    }

    /// Mounts a registered file system type from `device` at `mountpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::NoEnt`] if the type is unknown, [`Errno::Busy`] if
    /// the mountpoint is already a mountpoint, and propagates mount errors
    /// from the file system.
    pub fn mount(
        &self,
        fstype: &str,
        device: Arc<dyn BlockDevice>,
        mountpoint: &str,
    ) -> KernelResult<u64> {
        let fstype =
            self.fstypes.read().get(fstype).cloned().ok_or_else(|| {
                KernelError::with_context(Errno::NoEnt, "unknown filesystem type")
            })?;
        let fs = fstype.mount(device)?;
        self.mount_fs(fs, mountpoint)
    }

    /// Mounts an already-constructed file system instance at `mountpoint`.
    ///
    /// This path is used by tests and by code (like the online-upgrade
    /// example) that needs to keep a concretely typed handle to the file
    /// system it mounted.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Busy`] if the mountpoint is already in use.
    pub fn mount_fs(&self, fs: Arc<dyn VfsFs>, mountpoint: &str) -> KernelResult<u64> {
        let path = normalize_path(mountpoint)?;
        let mut mounts = self.mounts.write();
        if mounts.iter().any(|m| m.path == path) {
            return Err(KernelError::with_context(Errno::Busy, "mountpoint already mounted"));
        }
        let id = self.next_mount.fetch_add(1, Ordering::Relaxed);
        let page_cache = PageCache::new(PageCacheConfig::default(), fs.supports_writepages());
        let root = fs.root_ino();
        let mount =
            Arc::new(Mount { id, path, fs, root, dcache: DentryCache::default(), page_cache });
        // The mount table is an immutable snapshot: build the successor
        // vector and swap it in, so readers never hold the lock while
        // resolving paths.  Longest path first so that prefix matching picks
        // the innermost mount.
        let mut next: Vec<Arc<Mount>> = mounts.iter().cloned().collect();
        next.push(mount);
        next.sort_by_key(|m| std::cmp::Reverse(m.path.len()));
        *mounts = Arc::new(next);
        Ok(id)
    }

    /// Unmounts the file system at `mountpoint`, writing back all dirty
    /// state first.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::NoEnt`] if nothing is mounted there and
    /// [`Errno::Busy`] if file descriptors are still open on the mount.
    pub fn unmount(&self, mountpoint: &str) -> KernelResult<()> {
        let path = normalize_path(mountpoint)?;
        let mount = {
            let mounts = self.mounts.read();
            mounts
                .iter()
                .find(|m| m.path == path)
                .cloned()
                .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "not a mountpoint"))?
        };
        if self.fds.any(|_, f| f.mount.id == mount.id) {
            return Err(KernelError::with_context(Errno::Busy, "open files on mount"));
        }
        mount.page_cache.writeback_all(&mount.fs)?;
        mount.page_cache.invalidate_all();
        mount.fs.sync_fs()?;
        mount.fs.destroy()?;
        let mut mounts = self.mounts.write();
        let next: Vec<Arc<Mount>> = mounts.iter().filter(|m| m.id != mount.id).cloned().collect();
        *mounts = Arc::new(next);
        mount.dcache.clear();
        Ok(())
    }

    /// Returns the mounted file system instance owning `path` (diagnostics,
    /// upgrade orchestration, experiment reporting).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::NoEnt`] if no mount owns the path.
    pub fn mounted_fs(&self, path: &str) -> KernelResult<Arc<dyn VfsFs>> {
        let path = normalize_path(path)?;
        let (mount, _) = self.find_mount(&path)?;
        Ok(Arc::clone(&mount.fs))
    }

    /// Page-cache statistics for the mount owning `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::NoEnt`] if no mount owns the path.
    pub fn page_cache_stats(&self, path: &str) -> KernelResult<PageCacheStats> {
        let path = normalize_path(path)?;
        let (mount, _) = self.find_mount(&path)?;
        Ok(mount.page_cache.stats())
    }

    // -- path resolution ----------------------------------------------------

    fn find_mount(&self, normalized: &str) -> KernelResult<(Arc<Mount>, String)> {
        // Clone the snapshot and drop the lock before walking the table.
        let mounts = Arc::clone(&self.mounts.read());
        for mount in mounts.iter() {
            if let Some(rest) = strip_mount_prefix(normalized, &mount.path) {
                return Ok((Arc::clone(mount), rest));
            }
        }
        err(Errno::NoEnt)
    }

    /// Resolves `path` to the owning mount and the inode attributes.
    fn resolve(&self, path: &str) -> KernelResult<(Arc<Mount>, InodeAttr)> {
        let normalized = normalize_path(path)?;
        let (mount, rest) = self.find_mount(&normalized)?;
        let attr = match mount.walk(&rest)? {
            (dir, Some(name)) => mount.lookup(dir, name)?,
            // The path names the mount's root.
            (root, None) => mount.fs.getattr(root)?,
        };
        Ok((mount, attr))
    }

    /// Resolves the *parent directory* of `path`, returning the mount, the
    /// parent's inode number and the final component name.
    fn resolve_parent(&self, path: &str) -> KernelResult<(Arc<Mount>, u64, String)> {
        let normalized = normalize_path(path)?;
        let (mount, rest) = self.find_mount(&normalized)?;
        let (dir, Some(name)) = mount.walk(&rest)? else {
            return Err(KernelError::with_context(Errno::Inval, "path has no final component"));
        };
        Ok((mount, dir, name.to_string()))
    }

    // -- file descriptor syscalls -------------------------------------------
    //
    // Every syscall opens a trace span named after itself.  The spans are
    // inert unless `trace::enable` is in force, and inert when a caller
    // (e.g. the load generator) already holds a span for the enclosing
    // logical op — so bare VFS use traces per-syscall while driven load
    // traces per-op, never both.

    /// Opens `path`, honouring `CREAT`, `EXCL`, `TRUNC` and `APPEND`.
    ///
    /// # Errors
    ///
    /// Standard open errors: [`Errno::NoEnt`], [`Errno::Exist`] (with
    /// `CREAT|EXCL`), [`Errno::IsDir`] when writing a directory.
    pub fn open(&self, path: &str, flags: OpenFlags) -> KernelResult<u64> {
        let _span = crate::trace::op_span("open");
        let (mount, attr) = if flags.contains(OpenFlags::CREAT) {
            let (mount, parent, name) = self.resolve_parent(path)?;
            match mount.lookup(parent, &name) {
                Ok(existing) => {
                    if flags.contains(OpenFlags::EXCL) {
                        return Err(KernelError::with_context(
                            Errno::Exist,
                            "O_EXCL and file exists",
                        ));
                    }
                    (mount, existing)
                }
                Err(e) if e.errno() == Errno::NoEnt => {
                    let attr = match mount.fs.create(parent, &name, FileMode::regular()) {
                        // Another opener created the name since the
                        // lookup: without O_EXCL, open that file.
                        Err(e) if e.errno() == Errno::Exist && !flags.contains(OpenFlags::EXCL) => {
                            mount.lookup(parent, &name)?
                        }
                        created => created?,
                    };
                    (mount, attr)
                }
                Err(e) => return Err(e),
            }
        } else {
            self.resolve(path)?
        };
        if attr.kind == FileType::Directory && flags.writable() {
            return Err(KernelError::with_context(
                Errno::IsDir,
                "cannot open directory for writing",
            ));
        }
        let fh = mount.fs.open(attr.ino, flags)?;
        if attr.kind == FileType::Regular {
            if flags.contains(OpenFlags::TRUNC) {
                mount.fs.setattr(attr.ino, &SetAttr::truncate(0))?;
                mount.page_cache.set_file_size(attr.ino, 0);
            } else {
                mount.page_cache.seed_size(attr.ino, attr.size);
            }
        }
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        let file = Arc::new(OpenFile {
            mount,
            ino: attr.ino,
            fh,
            flags,
            kind: attr.kind,
            pos: Mutex::new(0),
        });
        self.fds.insert(fd, file);
        Ok(fd)
    }

    fn file(&self, fd: u64) -> KernelResult<Arc<OpenFile>> {
        self.fds
            .get(&fd)
            .ok_or_else(|| KernelError::with_context(Errno::BadF, "bad file descriptor"))
    }

    /// Closes a file descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::BadF`] for an unknown descriptor; propagates
    /// `release` errors.
    pub fn close(&self, fd: u64) -> KernelResult<()> {
        let _span = crate::trace::op_span("close");
        let file = self
            .fds
            .remove(&fd)
            .ok_or_else(|| KernelError::with_context(Errno::BadF, "bad file descriptor"))?;
        file.mount.fs.release(file.ino, file.fh)?;
        Ok(())
    }

    /// Reads from the current position, advancing it.
    ///
    /// # Errors
    ///
    /// [`Errno::BadF`] for unknown or write-only descriptors; I/O errors
    /// propagate.
    pub fn read(&self, fd: u64, buf: &mut [u8]) -> KernelResult<usize> {
        let _span = crate::trace::op_span("read");
        let file = self.file(fd)?;
        let mut pos = file.pos.lock();
        let n = self.read_at_file(&file, *pos, buf)?;
        *pos += n as u64;
        Ok(n)
    }

    /// Reads at an explicit offset without moving the file position.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::read`].
    pub fn pread(&self, fd: u64, buf: &mut [u8], offset: u64) -> KernelResult<usize> {
        let _span = crate::trace::op_span("pread");
        let file = self.file(fd)?;
        self.read_at_file(&file, offset, buf)
    }

    fn read_at_file(&self, file: &OpenFile, offset: u64, buf: &mut [u8]) -> KernelResult<usize> {
        if !file.flags.readable() {
            return Err(KernelError::with_context(Errno::BadF, "descriptor not open for reading"));
        }
        if file.kind == FileType::Directory {
            return Err(KernelError::with_context(Errno::IsDir, "cannot read a directory"));
        }
        file.mount.page_cache.read(&file.mount.fs, file.ino, offset, buf)
    }

    /// Writes at the current position (or at EOF with `APPEND`), advancing
    /// the position.
    ///
    /// # Errors
    ///
    /// [`Errno::BadF`] for unknown or read-only descriptors; [`Errno::NoSpc`]
    /// and other file system errors propagate (possibly from throttled
    /// writeback).
    pub fn write(&self, fd: u64, data: &[u8]) -> KernelResult<usize> {
        let _span = crate::trace::op_span("write");
        let file = self.file(fd)?;
        let mut pos = file.pos.lock();
        if file.flags.contains(OpenFlags::APPEND) {
            if !file.flags.writable() {
                return Err(KernelError::with_context(
                    Errno::BadF,
                    "descriptor not open for writing",
                ));
            }
            // EOF lookup + write in one page-cache critical section:
            // `pos.lock()` only serializes this descriptor, so reading the
            // size here and writing in a second call would let appenders on
            // *other* descriptors of the same file observe the same EOF and
            // overwrite each other.
            let (offset, n) = file.mount.page_cache.append(&file.mount.fs, file.ino, data)?;
            *pos = offset + n as u64;
            return Ok(n);
        }
        let offset = *pos;
        let n = self.write_at_file(&file, offset, data)?;
        *pos = offset + n as u64;
        Ok(n)
    }

    /// Writes at an explicit offset without moving the file position.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::write`].
    pub fn pwrite(&self, fd: u64, data: &[u8], offset: u64) -> KernelResult<usize> {
        let _span = crate::trace::op_span("pwrite");
        let file = self.file(fd)?;
        self.write_at_file(&file, offset, data)
    }

    fn write_at_file(&self, file: &OpenFile, offset: u64, data: &[u8]) -> KernelResult<usize> {
        if !file.flags.writable() {
            return Err(KernelError::with_context(Errno::BadF, "descriptor not open for writing"));
        }
        file.mount.page_cache.write(&file.mount.fs, file.ino, offset, data)
    }

    /// Repositions the file offset.
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] if the resulting offset would be negative.
    pub fn lseek(&self, fd: u64, seek: SeekFrom) -> KernelResult<u64> {
        let _span = crate::trace::op_span("lseek");
        let file = self.file(fd)?;
        let mut pos = file.pos.lock();
        let new = match seek {
            SeekFrom::Start(o) => Some(o),
            SeekFrom::Current(d) => pos.checked_add_signed(d),
            SeekFrom::End(d) => {
                let size = file.mount.page_cache.file_size(&file.mount.fs, file.ino)?;
                size.checked_add_signed(d)
            }
        };
        match new {
            Some(n) => {
                *pos = n;
                Ok(n)
            }
            None => Err(KernelError::with_context(Errno::Inval, "seek before start of file")),
        }
    }

    /// Flushes a file's data and metadata to stable storage.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    pub fn fsync(&self, fd: u64) -> KernelResult<()> {
        let _span = crate::trace::op_span("fsync");
        self.fsync_inner(fd, false)
    }

    /// Flushes a file's data (metadata only if needed to retrieve it).
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    pub fn fdatasync(&self, fd: u64) -> KernelResult<()> {
        let _span = crate::trace::op_span("fdatasync");
        self.fsync_inner(fd, true)
    }

    fn fsync_inner(&self, fd: u64, datasync: bool) -> KernelResult<()> {
        let file = self.file(fd)?;
        file.mount.page_cache.writeback(&file.mount.fs, file.ino)?;
        file.mount.fs.fsync(file.ino, datasync)
    }

    /// Returns the attributes of an open file (size reflects buffered
    /// writes).
    ///
    /// # Errors
    ///
    /// [`Errno::BadF`] for an unknown descriptor.
    pub fn fstat(&self, fd: u64) -> KernelResult<InodeAttr> {
        let _span = crate::trace::op_span("fstat");
        let file = self.file(fd)?;
        let mut attr = file.mount.fs.getattr(file.ino)?;
        attr.size = attr.size.max(file.mount.page_cache.file_size(&file.mount.fs, file.ino)?);
        Ok(attr)
    }

    /// Truncates (or extends) an open file to `size`.
    ///
    /// # Errors
    ///
    /// [`Errno::BadF`] if not open for writing.
    pub fn ftruncate(&self, fd: u64, size: u64) -> KernelResult<()> {
        let _span = crate::trace::op_span("ftruncate");
        let file = self.file(fd)?;
        if !file.flags.writable() {
            return Err(KernelError::with_context(Errno::BadF, "descriptor not open for writing"));
        }
        file.mount.fs.setattr(file.ino, &SetAttr::truncate(size))?;
        file.mount.page_cache.set_file_size(file.ino, size);
        Ok(())
    }

    // -- path syscalls -------------------------------------------------------

    /// Returns the attributes of `path`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if the path does not exist.
    pub fn stat(&self, path: &str) -> KernelResult<InodeAttr> {
        let _span = crate::trace::op_span("stat");
        let (mount, mut attr) = self.resolve(path)?;
        // The attributes just resolved carry the file system's size; only
        // buffered writes the page cache holds can be ahead of it.
        if let Some(cached) = mount.page_cache.cached_size(attr.ino) {
            attr.size = attr.size.max(cached);
        }
        Ok(attr)
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        let _span = crate::trace::op_span("exists");
        self.resolve(path).is_ok()
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`Errno::Exist`] if the name exists; [`Errno::NoEnt`] if the parent
    /// does not.
    pub fn mkdir(&self, path: &str) -> KernelResult<()> {
        let _span = crate::trace::op_span("mkdir");
        let (mount, parent, name) = self.resolve_parent(path)?;
        mount.fs.mkdir(parent, &name, FileMode::directory())?;
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`Errno::NotEmpty`] if not empty; [`Errno::NoEnt`] if absent.
    pub fn rmdir(&self, path: &str) -> KernelResult<()> {
        let _span = crate::trace::op_span("rmdir");
        let (mount, parent, name) = self.resolve_parent(path)?;
        mount.dcache.remove_around(&[(parent, &name)], || mount.fs.rmdir(parent, &name))
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if absent; [`Errno::IsDir`] if it is a directory.
    pub fn unlink(&self, path: &str) -> KernelResult<()> {
        let _span = crate::trace::op_span("unlink");
        let (mount, parent, name) = self.resolve_parent(path)?;
        let target = mount.lookup(parent, &name)?;
        let unlink =
            || mount.dcache.remove_around(&[(parent, &name)], || mount.fs.unlink(parent, &name));
        if is_last_link(&target) {
            // The file system may free the inode number inside this call,
            // so its cached pages go before, not after.
            mount.page_cache.invalidate_around(target.ino, unlink)
        } else {
            unlink()
        }
    }

    /// Renames `old` to `new` (both must be on the same mount).
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] for cross-mount renames; file system errors
    /// propagate.
    pub fn rename(&self, old: &str, new: &str) -> KernelResult<()> {
        let _span = crate::trace::op_span("rename");
        let (mount, old_parent, old_name) = self.resolve_parent(old)?;
        let (new_mount, new_parent, new_name) = self.resolve_parent(new)?;
        if mount.id != new_mount.id {
            return Err(KernelError::with_context(Errno::Inval, "cross-mount rename"));
        }
        let names = [(old_parent, old_name.as_str()), (new_parent, new_name.as_str())];
        let rename = || {
            mount.dcache.remove_around(&names, || {
                mount.fs.rename(old_parent, &old_name, new_parent, &new_name)
            })
        };
        // A replaced file loses its last link here, as in `unlink` — unless
        // the rename is onto the file itself (or another link of it).
        let victim = mount.lookup(new_parent, &new_name).ok().filter(is_last_link);
        match victim {
            Some(target) if mount.lookup(old_parent, &old_name)?.ino != target.ino => {
                mount.page_cache.invalidate_around(target.ino, rename)
            }
            _ => rename(),
        }
    }

    /// Creates a hard link at `new` pointing to the inode of `existing`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoSys`] if the file system does not support links;
    /// [`Errno::Inval`] for cross-mount links.
    pub fn link(&self, existing: &str, new: &str) -> KernelResult<()> {
        let _span = crate::trace::op_span("link");
        let (mount, attr) = self.resolve(existing)?;
        let (new_mount, new_parent, new_name) = self.resolve_parent(new)?;
        if mount.id != new_mount.id {
            return Err(KernelError::with_context(Errno::Inval, "cross-mount link"));
        }
        mount.fs.link(attr.ino, new_parent, &new_name)?;
        Ok(())
    }

    /// Truncates (or extends) `path` to `size`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if absent; [`Errno::IsDir`] for directories.
    pub fn truncate(&self, path: &str, size: u64) -> KernelResult<()> {
        let _span = crate::trace::op_span("truncate");
        let (mount, attr) = self.resolve(path)?;
        if attr.kind == FileType::Directory {
            return Err(KernelError::with_context(Errno::IsDir, "cannot truncate a directory"));
        }
        mount.fs.setattr(attr.ino, &SetAttr::truncate(size))?;
        mount.page_cache.set_file_size(attr.ino, size);
        Ok(())
    }

    /// Lists a directory.
    ///
    /// # Errors
    ///
    /// [`Errno::NotDir`] if `path` is not a directory.
    pub fn readdir(&self, path: &str) -> KernelResult<Vec<DirEntry>> {
        let _span = crate::trace::op_span("readdir");
        let (mount, attr) = self.resolve(path)?;
        if attr.kind != FileType::Directory {
            return Err(KernelError::with_context(Errno::NotDir, "not a directory"));
        }
        mount.fs.readdir(attr.ino)
    }

    /// Returns statistics for the file system owning `path`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if no mount owns the path.
    pub fn statfs(&self, path: &str) -> KernelResult<StatFs> {
        let _span = crate::trace::op_span("statfs");
        let (mount, _) = self.resolve(path)?;
        mount.fs.statfs()
    }

    /// Writes back all dirty pages of all mounts and asks every file system
    /// to flush (the `sync(2)` syscall).
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    pub fn sync(&self) -> KernelResult<()> {
        let _span = crate::trace::op_span("sync");
        let mounts: Vec<Arc<Mount>> = self.mounts.read().iter().cloned().collect();
        for mount in mounts {
            mount.page_cache.writeback_all(&mount.fs)?;
            mount.fs.sync_fs()?;
        }
        Ok(())
    }

    /// Number of currently open file descriptors (diagnostics).
    pub fn open_fd_count(&self) -> usize {
        self.fds.len()
    }
}

/// Whether dropping a link to `attr` leaves a regular file with none: the
/// file system may then free the inode inside that call, so its page-cache
/// entry must go before it (see [`PageCache::invalidate_around`]).
fn is_last_link(attr: &InodeAttr) -> bool {
    attr.kind == FileType::Regular && attr.nlink <= 1
}

// ---------------------------------------------------------------------------
// Path handling helpers
// ---------------------------------------------------------------------------

/// Normalizes an absolute path: collapses repeated separators and removes
/// `.` components.  `..` components are preserved (resolved by the file
/// system's own directory entries, as in xv6).
fn normalize_path(path: &str) -> KernelResult<String> {
    if !path.starts_with('/') {
        return Err(KernelError::with_context(Errno::Inval, "path must be absolute"));
    }
    let mut out = String::from("/");
    for comp in path.split('/') {
        if comp.is_empty() || comp == "." {
            continue;
        }
        if !out.ends_with('/') {
            out.push('/');
        }
        out.push_str(comp);
    }
    Ok(out)
}

/// If `path` lives under mount root `mount_path`, returns the remainder
/// (possibly empty).
fn strip_mount_prefix(path: &str, mount_path: &str) -> Option<String> {
    if mount_path == "/" {
        return Some(path.trim_start_matches('/').to_string());
    }
    let rest = path.strip_prefix(mount_path)?;
    if rest.is_empty() {
        Some(String::new())
    } else {
        rest.strip_prefix('/').map(|stripped| stripped.to_string())
    }
}

fn components(rest: &str) -> impl Iterator<Item = &str> {
    rest.split('/').filter(|c| !c.is_empty() && *c != ".")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::RamDisk;
    use crate::memfs::MemFilesystemType;

    fn vfs_with_root() -> Vfs {
        let vfs = Vfs::new(VfsConfig::default());
        vfs.register_filesystem(Arc::new(MemFilesystemType)).unwrap();
        vfs.mount("memfs", Arc::new(RamDisk::new(4096, 8)), "/").unwrap();
        vfs
    }

    #[test]
    fn normalize_path_rules() {
        assert_eq!(normalize_path("/").unwrap(), "/");
        assert_eq!(normalize_path("//a///b/./c").unwrap(), "/a/b/c");
        assert!(normalize_path("relative").is_err());
    }

    #[test]
    fn strip_mount_prefix_rules() {
        assert_eq!(strip_mount_prefix("/a/b", "/").unwrap(), "a/b");
        assert_eq!(strip_mount_prefix("/mnt/x/y", "/mnt/x").unwrap(), "y");
        assert_eq!(strip_mount_prefix("/mnt/x", "/mnt/x").unwrap(), "");
        assert!(strip_mount_prefix("/mnt/xy", "/mnt/x").is_none());
    }

    #[test]
    fn open_create_write_read() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/f.txt", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
        assert_eq!(vfs.write(fd, b"hello world").unwrap(), 11);
        vfs.lseek(fd, SeekFrom::Start(0)).unwrap();
        let mut buf = vec![0u8; 64];
        let n = vfs.read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello world");
        vfs.close(fd).unwrap();
        assert_eq!(vfs.open_fd_count(), 0);
    }

    #[test]
    fn create_excl_fails_on_existing() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/f", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.close(fd).unwrap();
        let err = vfs
            .open("/f", OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::EXCL))
            .unwrap_err();
        assert_eq!(err.errno(), Errno::Exist);
    }

    #[test]
    fn mkdir_nested_and_readdir() {
        let vfs = vfs_with_root();
        vfs.mkdir("/a").unwrap();
        vfs.mkdir("/a/b").unwrap();
        let fd = vfs.open("/a/b/file", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"x").unwrap();
        vfs.close(fd).unwrap();
        let entries = vfs.readdir("/a/b").unwrap();
        assert!(entries.iter().any(|e| e.name == "file"));
        assert_eq!(vfs.stat("/a").unwrap().kind, FileType::Directory);
    }

    #[test]
    fn unlink_and_rmdir_errors() {
        let vfs = vfs_with_root();
        vfs.mkdir("/d").unwrap();
        let fd = vfs.open("/d/f", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.rmdir("/d").unwrap_err().errno(), Errno::NotEmpty);
        assert_eq!(vfs.unlink("/d").unwrap_err().errno(), Errno::IsDir);
        vfs.unlink("/d/f").unwrap();
        vfs.rmdir("/d").unwrap();
        assert!(!vfs.exists("/d"));
    }

    #[test]
    fn rename_moves_files() {
        let vfs = vfs_with_root();
        vfs.mkdir("/src").unwrap();
        vfs.mkdir("/dst").unwrap();
        let fd = vfs.open("/src/f", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"content").unwrap();
        vfs.close(fd).unwrap();
        vfs.rename("/src/f", "/dst/g").unwrap();
        assert!(!vfs.exists("/src/f"));
        assert_eq!(vfs.stat("/dst/g").unwrap().size, 7);
    }

    #[test]
    fn append_mode_appends() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/log", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"aaa").unwrap();
        vfs.close(fd).unwrap();
        let fd = vfs.open("/log", OpenFlags::WRONLY.with(OpenFlags::APPEND)).unwrap();
        vfs.write(fd, b"bbb").unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.stat("/log").unwrap().size, 6);
    }

    #[test]
    fn trunc_flag_resets_file() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/t", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"0123456789").unwrap();
        vfs.close(fd).unwrap();
        let fd = vfs.open("/t", OpenFlags::WRONLY.with(OpenFlags::TRUNC)).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.stat("/t").unwrap().size, 0);
    }

    #[test]
    fn read_write_permission_checks() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/p", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(vfs.read(fd, &mut buf).unwrap_err().errno(), Errno::BadF);
        vfs.close(fd).unwrap();
        let fd = vfs.open("/p", OpenFlags::RDONLY).unwrap();
        assert_eq!(vfs.write(fd, b"x").unwrap_err().errno(), Errno::BadF);
        vfs.close(fd).unwrap();
    }

    #[test]
    fn bad_fd_is_rejected() {
        let vfs = vfs_with_root();
        let mut buf = [0u8; 1];
        assert_eq!(vfs.read(999, &mut buf).unwrap_err().errno(), Errno::BadF);
        assert_eq!(vfs.close(999).unwrap_err().errno(), Errno::BadF);
    }

    #[test]
    fn unmount_refuses_with_open_files_then_succeeds() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/x", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        assert_eq!(vfs.unmount("/").unwrap_err().errno(), Errno::Busy);
        vfs.close(fd).unwrap();
        vfs.unmount("/").unwrap();
        assert!(vfs.stat("/x").is_err());
    }

    #[test]
    fn nested_mounts_route_by_longest_prefix() {
        let vfs = vfs_with_root();
        vfs.mkdir("/mnt").unwrap();
        vfs.mount("memfs", Arc::new(RamDisk::new(4096, 8)), "/mnt").unwrap();
        let fd = vfs.open("/mnt/inner", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"inner").unwrap();
        vfs.close(fd).unwrap();
        // The file exists on the inner mount, not the outer one.
        assert!(vfs.exists("/mnt/inner"));
        let outer_entries = vfs.readdir("/").unwrap();
        assert!(outer_entries.iter().all(|e| e.name != "inner"));
    }

    #[test]
    fn double_registration_rejected() {
        let vfs = Vfs::default();
        vfs.register_filesystem(Arc::new(MemFilesystemType)).unwrap();
        assert_eq!(
            vfs.register_filesystem(Arc::new(MemFilesystemType)).unwrap_err().errno(),
            Errno::Exist
        );
    }

    #[test]
    fn lseek_variants() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/s", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"0123456789").unwrap();
        assert_eq!(vfs.lseek(fd, SeekFrom::End(-4)).unwrap(), 6);
        let mut buf = [0u8; 4];
        assert_eq!(vfs.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"6789");
        assert_eq!(vfs.lseek(fd, SeekFrom::Current(-2)).unwrap(), 8);
        assert!(vfs.lseek(fd, SeekFrom::Current(-100)).is_err());
        vfs.close(fd).unwrap();
    }

    #[test]
    fn stat_of_a_file_the_page_cache_does_not_hold_adds_no_entry() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/g", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, b"abcd").unwrap();
        vfs.fsync(fd).unwrap();
        vfs.close(fd).unwrap();
        let (mount, _) = vfs.find_mount("/").unwrap();
        mount.page_cache.invalidate_all();
        assert_eq!(vfs.stat("/g").unwrap().size, 4, "the size comes from the resolved attrs");
        assert_eq!(mount.page_cache.cached_files(), 0, "stat created a page-cache entry");
    }

    #[test]
    fn stat_reflects_buffered_writes() {
        let vfs = vfs_with_root();
        let fd = vfs.open("/big", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, &vec![0u8; 10_000]).unwrap();
        // No fsync yet: stat must still see the buffered size.
        assert_eq!(vfs.stat("/big").unwrap().size, 10_000);
        assert_eq!(vfs.fstat(fd).unwrap().size, 10_000);
        vfs.fsync(fd).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.stat("/big").unwrap().size, 10_000);
    }

    /// A root directory holding at most one regular file, which always
    /// gets inode number 2 — the smallest file system that recycles an
    /// inode number.  `after_free` runs inside `unlink`, once the number
    /// is free again; `before_create` runs inside `create`, before the name
    /// is checked; `before_reply` runs inside `lookup`, once the answer is
    /// known.
    #[derive(Default)]
    struct OneInodeFs {
        file: Mutex<Option<(String, Vec<u8>)>>,
        after_free: Mutex<Option<Box<dyn FnOnce() + Send>>>,
        before_create: Mutex<Option<Box<dyn FnOnce() + Send>>>,
        before_reply: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl OneInodeFs {
        const INO: u64 = 2;

        fn with_file<T>(&self, f: impl FnOnce(&mut Vec<u8>) -> T) -> KernelResult<T> {
            match self.file.lock().as_mut() {
                Some((_, bytes)) => Ok(f(bytes)),
                None => err(Errno::NoEnt),
            }
        }
    }

    impl VfsFs for OneInodeFs {
        fn fs_name(&self) -> &str {
            "oneinode"
        }
        fn root_ino(&self) -> u64 {
            1
        }
        fn lookup(&self, _dir: u64, name: &str) -> KernelResult<InodeAttr> {
            let reply = match self.file.lock().as_ref() {
                Some((n, bytes)) if n == name => {
                    Ok(InodeAttr::regular(Self::INO, bytes.len() as u64))
                }
                _ => err(Errno::NoEnt),
            };
            let hook = self.before_reply.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            reply
        }
        fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
            if ino == 1 {
                return Ok(InodeAttr::directory(1));
            }
            self.with_file(|bytes| InodeAttr::regular(Self::INO, bytes.len() as u64))
        }
        fn setattr(&self, _ino: u64, _set: &SetAttr) -> KernelResult<InodeAttr> {
            err(Errno::NoSys)
        }
        fn create(&self, _dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
            let hook = self.before_create.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            let mut file = self.file.lock();
            match file.as_ref() {
                Some((existing, _)) if existing == name => return err(Errno::Exist),
                Some(_) => return err(Errno::NoSpc),
                None => {}
            }
            *file = Some((name.to_string(), Vec::new()));
            Ok(InodeAttr::regular(Self::INO, 0))
        }
        fn mkdir(&self, _dir: u64, _name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
            err(Errno::NoSys)
        }
        fn unlink(&self, _dir: u64, _name: &str) -> KernelResult<()> {
            *self.file.lock() = None;
            if let Some(hook) = self.after_free.lock().take() {
                hook();
            }
            Ok(())
        }
        fn rmdir(&self, _dir: u64, _name: &str) -> KernelResult<()> {
            err(Errno::NoSys)
        }
        fn rename(&self, _od: u64, _on: &str, _nd: u64, _nn: &str) -> KernelResult<()> {
            err(Errno::NoSys)
        }
        fn open(&self, _ino: u64, _flags: OpenFlags) -> KernelResult<u64> {
            Ok(0)
        }
        fn release(&self, _ino: u64, _fh: u64) -> KernelResult<()> {
            Ok(())
        }
        fn readdir(&self, _ino: u64) -> KernelResult<Vec<DirEntry>> {
            err(Errno::NoSys)
        }
        fn read_page(&self, _ino: u64, page: u64, buf: &mut [u8]) -> KernelResult<usize> {
            self.with_file(|bytes| {
                let start = (page as usize * crate::vfs::PAGE_SIZE).min(bytes.len());
                let n = buf.len().min(bytes.len() - start);
                buf[..n].copy_from_slice(&bytes[start..start + n]);
                n
            })
        }
        fn write_page(&self, _ino: u64, page: u64, data: &[u8], size: u64) -> KernelResult<()> {
            self.with_file(|bytes| {
                bytes.resize((size as usize).max(bytes.len()), 0);
                let start = page as usize * crate::vfs::PAGE_SIZE;
                let n = data.len().min(bytes.len() - start);
                bytes[start..start + n].copy_from_slice(&data[..n]);
            })
        }
        fn fsync(&self, _ino: u64, _datasync: bool) -> KernelResult<()> {
            Ok(())
        }
        fn statfs(&self) -> KernelResult<StatFs> {
            err(Errno::NoSys)
        }
        fn sync_fs(&self) -> KernelResult<()> {
            Ok(())
        }
    }

    struct OneInodeFsType(Arc<OneInodeFs>);

    fn mount_one_inode_fs() -> (Arc<OneInodeFs>, Arc<Vfs>) {
        let fs = Arc::new(OneInodeFs::default());
        let vfs = Arc::new(Vfs::new(VfsConfig::default()));
        vfs.register_filesystem(Arc::new(OneInodeFsType(Arc::clone(&fs)))).unwrap();
        vfs.mount("oneinode", Arc::new(RamDisk::new(4096, 8)), "/").unwrap();
        (fs, vfs)
    }

    impl FilesystemType for OneInodeFsType {
        fn fs_name(&self) -> &str {
            "oneinode"
        }
        fn mount(&self, _device: Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>> {
            Ok(Arc::clone(&self.0) as Arc<dyn VfsFs>)
        }
    }

    #[test]
    fn open_creat_that_loses_the_create_race_opens_the_winners_file() {
        let (fs, vfs) = mount_one_inode_fs();
        // Between an opener's lookup (no such name) and its create, a
        // second opener creates the name and writes to it.
        let race = |vfs: &Arc<Vfs>| {
            let racer = Arc::clone(vfs);
            *fs.before_create.lock() = Some(Box::new(move || {
                let fd = racer.open("/log", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
                racer.write(fd, b"first ").unwrap();
                racer.close(fd).unwrap();
            }));
        };
        race(&vfs);
        let append = OpenFlags::RDWR.with(OpenFlags::CREAT).with(OpenFlags::APPEND);
        let fd = vfs.open("/log", append).expect("without O_EXCL, losing the race opens the file");
        vfs.write(fd, b"second").unwrap();
        let mut back = [0u8; 12];
        assert_eq!(vfs.pread(fd, &mut back, 0).unwrap(), 12);
        assert_eq!(&back, b"first second");
        vfs.close(fd).unwrap();

        // With O_EXCL the loser must see the name exist.
        vfs.unlink("/log").unwrap();
        race(&vfs);
        let excl = OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::EXCL);
        assert_eq!(vfs.open("/log", excl).unwrap_err().errno(), Errno::Exist);
    }

    #[test]
    fn unlink_drops_cached_pages_before_the_inode_number_is_recycled() {
        let (fs, vfs) = mount_one_inode_fs();
        // The previous owner of inode 2: 12 KiB, still dirty in the cache.
        let fd = vfs.open("/old", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, &vec![0xAA; 12_288]).unwrap();
        vfs.close(fd).unwrap();
        // The moment the file system frees the number, a create recycles
        // it and writes 10 KiB — while `Vfs::unlink` is still in flight.
        let racer = Arc::clone(&vfs);
        *fs.after_free.lock() = Some(Box::new(move || {
            let fd = racer.open("/new", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
            racer.write(fd, &vec![0xBB; 10_240]).unwrap();
            racer.close(fd).unwrap();
        }));
        vfs.unlink("/old").unwrap();
        // The new owner neither inherited the old size or pages nor lost
        // its own to the unlink's invalidation.
        assert_eq!(vfs.stat("/new").unwrap().size, 10_240);
        vfs.sync().unwrap();
        let stored = fs.file.lock().clone().expect("new file exists");
        assert_eq!(stored.0, "new");
        assert_eq!(stored.1.len(), 10_240);
        assert!(stored.1.iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn a_lookup_that_races_an_unlink_leaves_no_entry_for_the_recycled_number() {
        let (fs, vfs) = mount_one_inode_fs();
        let fd = vfs.open("/old", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.close(fd).unwrap();
        // A walk asks the file system, which answers "inode 2" and then
        // parks until another thread has unlinked the name.
        let unlinked = Arc::new(std::sync::Barrier::new(2));
        let parked = Arc::new(std::sync::Barrier::new(2));
        let (wait_unlinked, wait_parked) = (Arc::clone(&unlinked), Arc::clone(&parked));
        *fs.before_reply.lock() = Some(Box::new(move || {
            wait_parked.wait();
            wait_unlinked.wait();
        }));
        let unlinker = {
            let vfs = Arc::clone(&vfs);
            std::thread::spawn(move || {
                parked.wait();
                vfs.unlink("/old").unwrap();
                unlinked.wait();
            })
        };
        assert!(vfs.exists("/old"), "the walk answers as of before the unlink");
        unlinker.join().unwrap();
        let (mount, _) = vfs.find_mount("/").unwrap();
        assert_eq!(mount.dcache.len(), 0, "the stale answer was cached");
        // Inode 2 now belongs to another name; the old one must not find it.
        let fd = vfs.open("/new", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.stat("/old").unwrap_err().errno(), Errno::NoEnt);
        assert_eq!(vfs.stat("/new").unwrap().ino, OneInodeFs::INO);
    }

    #[test]
    fn path_walks_fill_the_dentry_cache_and_unmount_empties_it() {
        let vfs = vfs_with_root();
        vfs.mkdir("/a").unwrap();
        vfs.mkdir("/a/b").unwrap();
        let fd = vfs.open("/a/b/f", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
        vfs.close(fd).unwrap();
        assert!(vfs.exists("/a/b/f"));
        let (mount, _) = vfs.find_mount("/").unwrap();
        assert_eq!(mount.dcache.len(), 3);
        assert!(mount.dcache.get(mount.root, "a").is_some());
        vfs.unmount("/").unwrap();
        assert_eq!(mount.dcache.len(), 0);
    }
}
