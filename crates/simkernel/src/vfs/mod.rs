//! The virtual file system layer.
//!
//! Linux's VFS layer is the pluggable interface every kernel file system
//! implements: it owns path resolution, the dentry and inode caches, the
//! page cache, and the file-descriptor table, and calls into the concrete
//! file system through operation tables.  The Bento paper's whole design is
//! about what that interface looks like when the file system must be written
//! in safe Rust.
//!
//! This module provides:
//!
//! * the common on-wire types ([`InodeAttr`], [`DirEntry`], [`OpenFlags`],
//!   [`FileMode`], [`SetAttr`], [`StatFs`]),
//! * the file-system-facing traits ([`VfsFs`] — the operations a mounted
//!   file system provides, and [`FilesystemType`] — the mountable type
//!   registered with the kernel), and
//! * [`Vfs`] in [`core`] — the kernel-side implementation of
//!   registration, mounting, path resolution, file descriptors, the page
//!   cache, and the POSIX-flavoured syscalls the workloads use.
//!
//! Three stacks implement [`VfsFs`] in this repository: `bento`'s BentoFS
//! (translating to the Bento file-operations API), the `xv6fs-vfs` binding
//! (the paper's "C-kernel" stack: the xv6 core with no BentoFS), and
//! `fusesim`'s FUSE kernel driver (round-tripping every call to a
//! userspace daemon).  `ext4sim` implements it directly as well.

pub mod core;

use std::fmt;
use std::sync::Arc;

use crate::dev::BlockDevice;
use crate::error::{Errno, KernelError, KernelResult};
use crate::queue::QueuedBlockDevice;

pub use self::core::{SeekFrom, Vfs, VfsConfig};

/// Size of one page in the simulated page cache (matches the block size used
/// throughout the storage stack).
pub const PAGE_SIZE: usize = 4096;

/// The type of an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Block or character device node (xv6 supports these; rarely used).
    Device,
}

impl fmt::Display for FileType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileType::Regular => "regular file",
            FileType::Directory => "directory",
            FileType::Device => "device",
        };
        f.write_str(s)
    }
}

/// Creation mode: the kind of object to create plus permission bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMode {
    /// The kind of inode to create.
    pub kind: FileType,
    /// Permission bits (0o777-style); advisory in the simulation.
    pub perm: u16,
}

impl FileMode {
    /// A regular file with conventional 0644 permissions.
    pub fn regular() -> Self {
        FileMode { kind: FileType::Regular, perm: 0o644 }
    }

    /// A directory with conventional 0755 permissions.
    pub fn directory() -> Self {
        FileMode { kind: FileType::Directory, perm: 0o755 }
    }
}

/// Attributes of an inode, as returned by `getattr`/`lookup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeAttr {
    /// Inode number.
    pub ino: u64,
    /// Kind of inode.
    pub kind: FileType,
    /// File size in bytes.
    pub size: u64,
    /// Number of hard links.
    pub nlink: u32,
    /// Number of 512-byte sectors allocated (st_blocks-style).
    pub blocks: u64,
    /// Permission bits.
    pub perm: u16,
}

impl InodeAttr {
    /// Convenience constructor for a regular file attribute.
    pub fn regular(ino: u64, size: u64) -> Self {
        InodeAttr {
            ino,
            kind: FileType::Regular,
            size,
            nlink: 1,
            blocks: size.div_ceil(512),
            perm: 0o644,
        }
    }

    /// Convenience constructor for a directory attribute.
    pub fn directory(ino: u64) -> Self {
        InodeAttr { ino, kind: FileType::Directory, size: 0, nlink: 2, blocks: 0, perm: 0o755 }
    }
}

/// Attribute changes requested by `setattr`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetAttr {
    /// New file size (truncate/extend), if requested.
    pub size: Option<u64>,
    /// New permission bits, if requested.
    pub perm: Option<u16>,
}

impl SetAttr {
    /// A `SetAttr` that only changes the size.
    pub fn truncate(size: u64) -> Self {
        SetAttr { size: Some(size), ..SetAttr::default() }
    }
}

/// One directory entry as returned by `readdir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Inode number the entry refers to.
    pub ino: u64,
    /// Entry name (no path separators).
    pub name: String,
    /// Kind of the referenced inode.
    pub kind: FileType,
}

/// File system statistics, as returned by `statfs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatFs {
    /// Total data blocks in the file system.
    pub total_blocks: u64,
    /// Free data blocks.
    pub free_blocks: u64,
    /// Block size in bytes.
    pub block_size: u32,
    /// Total inodes.
    pub total_inodes: u64,
    /// Free inodes.
    pub free_inodes: u64,
    /// Maximum file name length.
    pub name_max: u32,
}

/// Open flags, modelled on the `O_*` constants.
///
/// This is a tiny hand-rolled flag set (the repository avoids extra
/// dependencies); combine flags with [`OpenFlags::with`].
///
/// # Example
///
/// ```
/// use simkernel::vfs::OpenFlags;
///
/// let flags = OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::TRUNC);
/// assert!(flags.contains(OpenFlags::CREAT));
/// assert!(flags.writable());
/// assert!(!flags.readable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OpenFlags(u32);

impl OpenFlags {
    /// Open read-only (the default).
    pub const RDONLY: OpenFlags = OpenFlags(0);
    /// Open write-only.
    pub const WRONLY: OpenFlags = OpenFlags(1);
    /// Open read-write.
    pub const RDWR: OpenFlags = OpenFlags(2);
    /// Create the file if it does not exist.
    pub const CREAT: OpenFlags = OpenFlags(1 << 6);
    /// Fail if `CREAT` and the file already exists.
    pub const EXCL: OpenFlags = OpenFlags(1 << 7);
    /// Truncate the file to length zero on open.
    pub const TRUNC: OpenFlags = OpenFlags(1 << 9);
    /// All writes append to the end of the file.
    pub const APPEND: OpenFlags = OpenFlags(1 << 10);
    /// Bypass the page cache (the FUSE baseline opens its backing disk file
    /// this way, per §6.2 of the paper).
    pub const DIRECT: OpenFlags = OpenFlags(1 << 14);

    const ACCESS_MASK: u32 = 0b11;

    /// Returns the union of `self` and `other`.
    #[must_use]
    pub fn with(self, other: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | other.0)
    }

    /// Whether every bit of `other` is set in `self`.
    pub fn contains(self, other: OpenFlags) -> bool {
        if other.0 & Self::ACCESS_MASK != 0 || other.0 == 0 {
            (self.0 & Self::ACCESS_MASK) == other.0 && (self.0 & other.0) == other.0
        } else {
            (self.0 & other.0) == other.0
        }
    }

    /// Whether the access mode permits reading.
    pub fn readable(self) -> bool {
        matches!(self.0 & Self::ACCESS_MASK, 0 | 2)
    }

    /// Whether the access mode permits writing.
    pub fn writable(self) -> bool {
        matches!(self.0 & Self::ACCESS_MASK, 1 | 2)
    }

    /// The raw bit representation.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Reconstructs flags from raw bits (used by the FUSE wire format).
    pub fn from_bits(bits: u32) -> OpenFlags {
        OpenFlags(bits)
    }
}

/// Write-path batching statistics a file system may expose (see
/// [`VfsFs::write_path_stats`]): how many operations each log commit
/// absorbed, how many device barriers the log issued, and how allocations
/// spread over allocation groups.  The experiment harness uses these to
/// report group-commit batching and allocator skew per run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WritePathStats {
    /// Committed log transaction groups.
    pub log_commits: u64,
    /// Operations absorbed into committed groups.
    pub log_ops: u64,
    /// Blocks written through the log.
    pub log_blocks: u64,
    /// Device barriers issued by log commits, checkpoints and recovery.
    pub log_barriers: u64,
    /// Allocations served per allocation group.
    pub alloc_per_group: Vec<u64>,
    /// Peak requests in flight on the mounted device at once (1 on a
    /// synchronous device; rises toward the queue depth when the log
    /// overlaps submissions on a multi-queue device).  Zero when the device
    /// exposes no depth statistics.
    pub queue_depth_max: u64,
    /// Sum of the in-flight depth sampled at every submission; divide by
    /// [`WritePathStats::queue_depth_samples`] for the mean
    /// (see [`WritePathStats::mean_queue_depth`]).
    pub queue_depth_sum: u64,
    /// Number of depth samples (one per submitted request).
    pub queue_depth_samples: u64,
}

impl WritePathStats {
    /// Operations per commit (the group-commit batching factor).
    pub fn ops_per_commit(&self) -> f64 {
        self.log_ops as f64 / (self.log_commits as f64).max(1.0)
    }

    /// Device barriers per absorbed operation.
    pub fn barriers_per_op(&self) -> f64 {
        self.log_barriers as f64 / (self.log_ops as f64).max(1.0)
    }

    /// Number of allocation groups that served at least one allocation.
    pub fn groups_used(&self) -> usize {
        self.alloc_per_group.iter().filter(|&&n| n > 0).count()
    }

    /// Fills the queue-depth figures from the mounted device's multi-queue
    /// face.  A file system core holds no device handle, so its binding
    /// adds them; they stay zero on a synchronous device.
    #[must_use]
    pub fn with_queue_depth(mut self, queued: Option<&dyn QueuedBlockDevice>) -> Self {
        if let Some(q) = queued {
            let depth = q.cost_counters().snapshot();
            self.queue_depth_max = depth.max_inflight;
            self.queue_depth_sum = depth.inflight_sum;
            self.queue_depth_samples = depth.inflight_samples;
        }
        self
    }

    /// Mean in-flight request depth over all submissions (0.0 when the
    /// device exposed no depth statistics).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }
}

/// Operation-level counters a file system may expose (see
/// [`VfsFs::op_stats`]): the neutral projection of the concrete cores'
/// stats structs (the xv6 cores' `FsStats`, ext4sim's journal counters),
/// so the unified metrics registry ([`crate::registry`]) can absorb every
/// stack through one trait call instead of per-crate downcasts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsOpStats {
    /// Files created.
    pub creates: u64,
    /// Files/directories removed.
    pub removes: u64,
    /// Payload bytes read through the file system.
    pub bytes_read: u64,
    /// Payload bytes written through the file system.
    pub bytes_written: u64,
    /// Explicit durability operations (fsync/fdatasync) served.
    pub fsyncs: u64,
}

/// Mount options passed at mount time (the equivalent of `-o` options).
#[derive(Debug, Clone, Default)]
pub struct MountOptions {
    /// Key/value options, e.g. `("data", "journal")`.
    pub options: Vec<(String, String)>,
    /// Mount read-only.
    pub read_only: bool,
}

impl MountOptions {
    /// Looks up an option value by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// A numeric tuning option (`alloc_groups`, `cache_shards`, ...): `0`,
    /// which every such option reads as "default", when absent or malformed.
    pub fn count(&self, key: &str) -> usize {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or_default()
    }

    /// Adds an option (builder style).
    #[must_use]
    pub fn with_option(mut self, key: &str, value: &str) -> Self {
        self.options.push((key.to_string(), value.to_string()));
        self
    }
}

/// A mountable file system type, registered with the VFS by name.
///
/// This is the analogue of the kernel's `struct file_system_type`: the VFS
/// keeps a table of registered types and calls [`FilesystemType::mount`]
/// when a mount syscall names this type.
pub trait FilesystemType: Send + Sync {
    /// The name used in mount calls (e.g. `"xv6fs_bento"`).
    fn fs_name(&self) -> &str;

    /// Mounts an instance of this file system from `device`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if the device does not contain a valid file
    /// system of this type, and propagates device errors.
    fn mount(
        &self,
        device: Arc<dyn BlockDevice>,
        options: &MountOptions,
    ) -> KernelResult<Arc<dyn VfsFs>>;
}

/// Operations a mounted file system provides to the VFS.
///
/// This mirrors (in simplified, inode-number-keyed form) the union of the
/// kernel's `super_operations`, `inode_operations`, `file_operations` and
/// `address_space_operations` tables.  Data I/O is page-granular because the
/// VFS page cache sits above the file system, exactly as in Linux: `read`
/// and `write` syscalls are satisfied from the page cache, and the file
/// system only sees `read_page` fills and `write_page`/`write_pages`
/// writeback.
///
/// The distinction between [`VfsFs::write_page`] and [`VfsFs::write_pages`]
/// is load-bearing for the paper's evaluation: BentoFS (which inherits the
/// FUSE kernel module's writeback path) implements the batched
/// `write_pages` — all dirty pages of an inode per write-back pass — while
/// the paper's hand-written VFS baseline only implements per-page
/// `writepage` — the source of Bento's advantage on large writes and untar
/// (§6.5.2, §6.6.3).
pub trait VfsFs: Send + Sync {
    /// Short name for diagnostics.
    fn fs_name(&self) -> &str;

    /// The inode number of the root directory.
    fn root_ino(&self) -> u64;

    /// Write-path batching statistics, if this file system tracks them
    /// (journalling file systems do; the in-memory ones return `None`).
    fn write_path_stats(&self) -> Option<WritePathStats> {
        None
    }

    /// Operation-level counters, if this file system tracks them (see
    /// [`FsOpStats`]); the unified metrics registry publishes these per
    /// mounted stack.
    fn op_stats(&self) -> Option<FsOpStats> {
        None
    }

    /// Downcast hook: implementations that expose extra, concretely typed
    /// management surfaces (e.g. BentoFS's online upgrade) return
    /// `Some(self)` so tooling holding only the `Arc<dyn VfsFs>` from
    /// [`Vfs::mounted_fs`](crate::vfs::Vfs::mounted_fs) can reach them.
    /// The default hides the concrete type.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Looks up `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if the name does not exist, [`Errno::NotDir`] if
    /// `dir` is not a directory.
    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr>;

    /// Returns the attributes of `ino`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] / [`Errno::Stale`] if the inode does not exist.
    fn getattr(&self, ino: u64) -> KernelResult<InodeAttr>;

    /// Applies attribute changes to `ino` and returns the new attributes.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if the inode does not exist; [`Errno::IsDir`] when
    /// truncating a directory.
    fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr>;

    /// Creates a regular file `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// [`Errno::Exist`] if the name exists, [`Errno::NoSpc`] if the file
    /// system is full.
    fn create(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr>;

    /// Creates a directory `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// As for [`VfsFs::create`].
    fn mkdir(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr>;

    /// Removes the regular file `name` from directory `dir`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if absent, [`Errno::IsDir`] if `name` is a directory.
    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()>;

    /// Removes the empty directory `name` from directory `dir`.
    ///
    /// # Errors
    ///
    /// [`Errno::NotEmpty`] if the directory is not empty, [`Errno::NotDir`]
    /// if `name` is not a directory.
    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()>;

    /// Renames `oldname` in `olddir` to `newname` in `newdir`, replacing any
    /// existing target file.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if the source is absent; [`Errno::NotEmpty`] if the
    /// target is a non-empty directory.
    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()>;

    /// Creates a hard link to `ino` named `newname` in `newdir`.
    ///
    /// # Errors
    ///
    /// The default implementation returns [`Errno::NoSys`].
    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        let _ = (ino, newdir, newname);
        Err(KernelError::with_context(Errno::NoSys, "link not supported"))
    }

    /// Opens `ino` and returns a file handle token.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if the inode does not exist.
    fn open(&self, ino: u64, flags: OpenFlags) -> KernelResult<u64>;

    /// Releases a file handle returned by [`VfsFs::open`].
    ///
    /// # Errors
    ///
    /// Implementations may report I/O errors from deferred work.
    fn release(&self, ino: u64, fh: u64) -> KernelResult<()>;

    /// Lists the entries of directory `ino` (including `.` and `..` when the
    /// file system stores them).
    ///
    /// # Errors
    ///
    /// [`Errno::NotDir`] if `ino` is not a directory.
    fn readdir(&self, ino: u64) -> KernelResult<Vec<DirEntry>>;

    /// Fills `buf` (one page) with the contents of page `page_index` of file
    /// `ino`; returns the number of valid bytes.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if the inode does not exist; I/O errors propagate.
    fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize>;

    /// Writes one page of data at `page_index`; `file_size` is the
    /// up-to-date size of the file as known by the page cache, which the
    /// file system must persist if it exceeds its recorded size.
    ///
    /// # Errors
    ///
    /// [`Errno::NoSpc`] if allocation fails; I/O errors propagate.
    fn write_page(
        &self,
        ino: u64,
        page_index: u64,
        data: &[u8],
        file_size: u64,
    ) -> KernelResult<()>;

    /// Writes back `pages` — every dirty page of `ino` the page cache holds
    /// in this write-back pass, as `(page_index, data)` sorted by index and
    /// not necessarily adjacent.  `file_size` is as for
    /// [`VfsFs::write_page`]; pages at or past it are skipped and the one
    /// straddling it is clamped.
    ///
    /// The default implementation loops over [`VfsFs::write_page`] — that is
    /// the paper's VFS-baseline behaviour.  BentoFS overrides it: the whole
    /// set reaches the file system as one vectored write, which packs it
    /// into as few transactions as its log allows.
    ///
    /// # Errors
    ///
    /// As for [`VfsFs::write_page`].
    fn write_pages(&self, ino: u64, pages: &[(u64, &[u8])], file_size: u64) -> KernelResult<()> {
        for &(page_index, page) in pages {
            self.write_page(ino, page_index, page, file_size)?;
        }
        Ok(())
    }

    /// Whether this file system provides a batched [`VfsFs::write_pages`];
    /// the page cache of its mount then calls that, once per inode per
    /// pass, instead of [`VfsFs::write_page`] per page.
    fn supports_writepages(&self) -> bool {
        false
    }

    /// Flushes file `ino` to stable storage.  `datasync` requests that only
    /// data (not metadata) must be durable.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn fsync(&self, ino: u64, datasync: bool) -> KernelResult<()>;

    /// Returns file system statistics.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn statfs(&self) -> KernelResult<StatFs>;

    /// Flushes all dirty state of the file system (the `sync_fs`
    /// super-operation).
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn sync_fs(&self) -> KernelResult<()>;

    /// Called at unmount after all writeback has completed.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn destroy(&self) -> KernelResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flags_access_modes() {
        assert!(OpenFlags::RDONLY.readable());
        assert!(!OpenFlags::RDONLY.writable());
        assert!(OpenFlags::WRONLY.writable());
        assert!(!OpenFlags::WRONLY.readable());
        assert!(OpenFlags::RDWR.readable() && OpenFlags::RDWR.writable());
    }

    #[test]
    fn open_flags_contains() {
        let f = OpenFlags::RDWR.with(OpenFlags::CREAT).with(OpenFlags::APPEND);
        assert!(f.contains(OpenFlags::CREAT));
        assert!(f.contains(OpenFlags::APPEND));
        assert!(f.contains(OpenFlags::RDWR));
        assert!(!f.contains(OpenFlags::TRUNC));
        assert!(!OpenFlags::WRONLY.contains(OpenFlags::RDWR));
    }

    #[test]
    fn open_flags_roundtrip_bits() {
        let f = OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::EXCL);
        assert_eq!(OpenFlags::from_bits(f.bits()), f);
    }

    #[test]
    fn file_mode_constructors() {
        assert_eq!(FileMode::regular().kind, FileType::Regular);
        assert_eq!(FileMode::directory().kind, FileType::Directory);
    }

    #[test]
    fn mount_options_lookup() {
        let opts = MountOptions::default().with_option("data", "journal");
        assert_eq!(opts.get("data"), Some("journal"));
        assert_eq!(opts.get("nope"), None);
    }

    #[test]
    fn inode_attr_helpers() {
        let a = InodeAttr::regular(7, 1000);
        assert_eq!(a.kind, FileType::Regular);
        assert_eq!(a.blocks, 2);
        let d = InodeAttr::directory(1);
        assert_eq!(d.nlink, 2);
    }
}
