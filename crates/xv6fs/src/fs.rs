//! The Bento file-operations implementation: `Xv6FileSystem`.
//!
//! This is the file system the paper evaluates — the xv6 teaching file
//! system, extended with double-indirect blocks and extra locking (§6.1),
//! written entirely in safe Rust against the Bento file operations API.
//! The same type also implements the online-upgrade hooks
//! (`extract_state`/`restore_state`, §4.8) so a running mount can be
//! upgraded to a new build without unmounting.
//!
//! ## Locking protocol
//!
//! * The outer `RwLock<Option<Arc<FsCore>>>` is a **mount-lifecycle guard
//!   only**: operations take the read side just long enough to clone the
//!   `Arc`, then run against the core with no outer lock held.  Quiescence
//!   for upgrade/unmount is provided one layer up — BentoFS swaps the
//!   `FileSystem` box under its own write lock, which drains in-flight
//!   operations first.
//! * Operations that restructure the namespace (create, mkdir, unlink,
//!   rmdir, rename, link) lock only the **parent directories they modify**
//!   through `FsCore::dir_locks` — a per-directory lock table keyed by
//!   inode number.  Multi-directory operations (cross-directory rename)
//!   acquire both parent locks in **ascending inode number** order
//!   (`DirLockTable::lock_pair`); debug builds panic on any descending
//!   acquisition.  Threads mutating different directories share no
//!   namespace lock at all.
//! * Inode data locks nest strictly inside directory locks (parent
//!   directory lock → parent/child inode locks); non-namespace operations
//!   hold at most one inode lock at a time, which keeps lock-order cycles
//!   impossible between the two classes.
//! * Block and inode allocation is protected by the per-group allocation
//!   locks (§6.1), which nest below everything above.
//! * Directory locks are released **before** `end_op`, so group commit
//!   (device barriers) always runs outside the namespace locks.

use std::sync::Arc;

use parking_lot::RwLock;

use bento::bentoks::SuperBlock;
use bento::fileops::{CreateReply, FileSystem, Request};
use bento::upgrade::StateBundle;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{
    DirEntry, FileMode, FileType, FsOpStats, InodeAttr, OpenFlags, SetAttr, StatFs, WritePathStats,
};

use crate::core::{FsCore, FsStats};
use crate::inode::InodeData;
use crate::layout::{DiskSuperblock, BSIZE, DIRSIZ, ROOT_INO, T_DIR, T_FILE};
use crate::log::{LogStats, LogTail};

/// Data blocks written per log transaction when splitting large writes.
const WRITE_CHUNK_BLOCKS: usize = 48;

/// File blocks released per log transaction when truncating large files.
const TRUNC_CHUNK_BLOCKS: u64 = 1024;

/// Largest file whose whole truncate fits one transaction, and which is
/// therefore reaped inside the transaction that drops its last link.
const TRUNC_CHUNK_BYTES: u64 = TRUNC_CHUNK_BLOCKS * BSIZE as u64;

/// The xv6 file system, implemented against the Bento file operations API.
///
/// A fresh instance is "empty" until [`FileSystem::init`] (normal mount) or
/// [`FileSystem::restore_state`] (online upgrade) attaches it to a device.
pub struct Xv6FileSystem {
    /// Mount-lifecycle guard: `Some` while attached.  Ops clone the `Arc`
    /// under a brief read hold and release the lock before doing any work,
    /// so mount/unmount transitions never wait behind a long operation and
    /// operations never serialize on this lock.
    core: RwLock<Option<Arc<FsCore>>>,
    label: &'static str,
    /// Allocation-group count applied at mount (`0` = default).
    alloc_groups: usize,
    /// Test-only protocol violation planted in the log at attach.
    log_fault: journal::PlantedFault,
}

impl std::fmt::Debug for Xv6FileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Xv6FileSystem").field("label", &self.label).finish_non_exhaustive()
    }
}

impl Default for Xv6FileSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl Xv6FileSystem {
    /// Creates an unmounted file system instance.
    pub fn new() -> Self {
        Self::with_label("xv6fs")
    }

    /// Creates an instance with a distinguishing label (used by the upgrade
    /// example to tell "v1" from "v2" in diagnostics).
    pub fn with_label(label: &'static str) -> Self {
        Xv6FileSystem {
            core: RwLock::new(None),
            label,
            alloc_groups: 0,
            log_fault: journal::PlantedFault::None,
        }
    }

    /// Test-only crash-safety hook: the log of this instance breaks one
    /// rule of the commit protocol (see [`journal::PlantedFault`]), so the
    /// crash harness can prove its oracles notice.  Never use outside
    /// tests.
    #[doc(hidden)]
    #[must_use]
    pub fn with_planted_log_fault(mut self, fault: journal::PlantedFault) -> Self {
        self.log_fault = fault;
        self
    }

    /// Sets the allocation-group count applied at mount (`0` = default;
    /// rounded to a power of two).  Exposed through the `alloc_groups`
    /// mount option.
    #[must_use]
    pub fn with_alloc_groups(mut self, alloc_groups: usize) -> Self {
        self.alloc_groups = alloc_groups;
        self
    }

    /// Cumulative activity statistics (zeroed until mounted).
    pub fn stats(&self) -> FsStats {
        self.core.read().as_ref().map(|c| c.stats.snapshot()).unwrap_or_default()
    }

    /// Operation-level counters in the VFS-neutral shape the unified
    /// metrics registry consumes (`None` until mounted).
    pub fn op_stats(&self) -> Option<FsOpStats> {
        self.core.read().as_ref().map(|c| {
            let s = c.stats.snapshot();
            FsOpStats {
                creates: s.creates,
                removes: s.removes,
                bytes_read: s.bytes_read,
                bytes_written: s.bytes_written,
                fsyncs: s.fsyncs,
            }
        })
    }

    /// Log statistics (zeroed until mounted).
    pub fn log_stats(&self) -> LogStats {
        self.core.read().as_ref().map(|c| c.log.stats()).unwrap_or_default()
    }

    /// Write-path batching statistics (log batching + allocator spread).
    pub fn write_path_stats(&self) -> Option<WritePathStats> {
        self.core.read().as_ref().map(|c| {
            let log = c.log.stats();
            WritePathStats {
                log_commits: log.commits,
                log_ops: log.ops_committed,
                log_blocks: log.blocks_logged,
                log_barriers: log.barriers,
                alloc_per_group: c.alloc.allocations_per_group(),
                // Queue-depth statistics come from the mounted device's cost
                // counters, which the file system cannot see (it holds no
                // SuperBlock); the framework layer (BentoFs) enriches them.
                ..WritePathStats::default()
            }
        })
    }

    fn with_core<T>(&self, f: impl FnOnce(&FsCore) -> KernelResult<T>) -> KernelResult<T> {
        // Clone the Arc under a brief read hold and drop the guard before
        // running the operation: the outer lock only gates mount-lifecycle
        // transitions, never serializes operations against each other.
        let core = {
            let guard = self.core.read();
            guard
                .as_ref()
                .cloned()
                .ok_or_else(|| KernelError::with_context(Errno::Io, "xv6fs: not mounted"))?
        };
        f(&core)
    }

    /// Attaches to the image on `sb`.  A normal mount (`tail` absent) runs
    /// log recovery; a live upgrade instead continues the predecessor's
    /// log from `tail`, replaying nothing.
    fn attach(&self, sb: &SuperBlock, tail: Option<LogTail>) -> KernelResult<()> {
        let block = sb.bread(1)?;
        let dsb = DiskSuperblock::decode(block.data())?;
        drop(block);
        if (dsb.size as u64) > sb.nblocks() {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: image larger than device"));
        }
        let mut core = FsCore::with_alloc_groups(dsb, self.alloc_groups);
        core.log.plant_fault(self.log_fault);
        let core = Arc::new(core);
        match tail {
            Some(tail) => core.log.restore_tail(tail),
            None => {
                core.log.recover(sb)?;
            }
        }
        *self.core.write() = Some(core);
        Ok(())
    }

    /// Runs chunked truncation of `inum` down to `new_size`, splitting the
    /// work across as many transactions as needed.
    fn truncate_chunked(
        core: &FsCore,
        sb: &SuperBlock,
        inum: u32,
        data: &mut InodeData,
        new_size: u64,
    ) -> KernelResult<()> {
        while data.size > new_size {
            let step_target =
                new_size.max(data.size.saturating_sub(TRUNC_CHUNK_BLOCKS * BSIZE as u64));
            core.log.begin_op();
            let result = core.truncate_inode(sb, inum, data, step_target);
            core.log.end_op(sb)?;
            result?;
        }
        if data.size < new_size {
            core.log.begin_op();
            let result = core.truncate_inode(sb, inum, data, new_size);
            core.log.end_op(sb)?;
            result?;
        }
        Ok(())
    }

    /// Frees an unlinked inode (no links, no open handles): releases its
    /// data blocks in chunks, the last of them in the transaction that
    /// frees the inode itself — so a file of at most one chunk is reaped
    /// in a single transaction.
    fn reap_inode(core: &FsCore, sb: &SuperBlock, inum: u32) -> KernelResult<()> {
        let inode = core.icache.get(inum);
        let mut data = inode.data.write();
        if !data.valid && core.load_inode(sb, inum, &mut data).is_err() {
            return Ok(());
        }
        if data.nlink > 0 {
            return Ok(());
        }
        let last_chunk = data.size.min(TRUNC_CHUNK_BYTES);
        Self::truncate_chunked(core, sb, inum, &mut data, last_chunk)?;
        core.log.begin_op();
        let result = Self::reap_in_transaction(core, sb, inum, &mut data);
        core.log.end_op(sb)?;
        result
    }

    /// Releases the (at most one chunk of) data blocks of a dead inode and
    /// frees it, inside the caller's transaction.
    fn reap_in_transaction(
        core: &FsCore,
        sb: &SuperBlock,
        inum: u32,
        data: &mut InodeData,
    ) -> KernelResult<()> {
        debug_assert!(data.size <= TRUNC_CHUNK_BYTES);
        core.truncate_inode(sb, inum, data, 0)?;
        core.free_inode(sb, inum, data)
    }

    fn lookup_attr(&self, sb: &SuperBlock, inum: u32) -> KernelResult<InodeAttr> {
        self.with_core(|core| {
            let inode = core.icache.get(inum);
            let mut data = inode.data.write();
            core.load_inode(sb, inum, &mut data)?;
            Ok(data.attr(inum))
        })
    }
}

impl FileSystem for Xv6FileSystem {
    fn name(&self) -> &'static str {
        self.label
    }

    fn init(&self, _req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        self.attach(sb, None)
    }

    fn destroy(&self, _req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        // Commit any group still absorbing completed operations, then
        // checkpoint: the last commit's installs become durable and its
        // header is cleared, so the next mount replays nothing.  A failed
        // final commit must surface, not vanish.  An unattached instance
        // never wrote anything.
        if self.core.read().is_some() {
            self.with_core(|core| core.log.checkpoint(sb))?;
        }
        Ok(())
    }

    fn statfs(&self, _req: &Request, sb: &SuperBlock) -> KernelResult<StatFs> {
        self.with_core(|core| {
            let used = core.used_block_count(sb)?;
            let used_inodes = core.used_inode_count(sb)?;
            let total = core.total_data_blocks();
            Ok(StatFs {
                total_blocks: total,
                free_blocks: total.saturating_sub(used),
                block_size: BSIZE as u32,
                total_inodes: core.dsb().ninodes as u64,
                free_inodes: (core.dsb().ninodes as u64).saturating_sub(used_inodes),
                name_max: DIRSIZ as u32,
            })
        })
    }

    fn lookup(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
    ) -> KernelResult<InodeAttr> {
        let child = self.with_core(|core| {
            let dir = core.icache.get(parent as u32);
            let mut dir_data = dir.data.write();
            core.load_inode(sb, parent as u32, &mut dir_data)?;
            match core.dirlookup(sb, &mut dir_data, name)? {
                Some((inum, _)) => Ok(inum),
                None => Err(KernelError::with_context(Errno::NoEnt, "xv6fs: no such entry")),
            }
        })?;
        self.lookup_attr(sb, child)
    }

    fn getattr(&self, _req: &Request, sb: &SuperBlock, ino: u64) -> KernelResult<InodeAttr> {
        self.lookup_attr(sb, ino as u32)
    }

    fn setattr(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        set: &SetAttr,
    ) -> KernelResult<InodeAttr> {
        self.with_core(|core| {
            let inum = ino as u32;
            let inode = core.icache.get(inum);
            let mut data = inode.data.write();
            core.load_inode(sb, inum, &mut data)?;
            if let Some(size) = set.size {
                if data.is_dir() {
                    return Err(KernelError::with_context(
                        Errno::IsDir,
                        "xv6fs: truncate directory",
                    ));
                }
                Self::truncate_chunked(core, sb, inum, &mut data, size)?;
            }
            // Permission bits are not stored by xv6; ignore set.perm.
            Ok(data.attr(inum))
        })
    }

    fn create(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        _mode: FileMode,
        _flags: OpenFlags,
    ) -> KernelResult<CreateReply> {
        self.with_core(|core| {
            // Only the parent directory is locked, and the lock is released
            // before end_op so the group commit (barriers) runs outside it:
            // creators in other directories never even touch this lock, and
            // creators here absorb into the forming group instead of
            // serializing behind the commit.
            let result = {
                let _dir = core.dir_locks.lock(parent);
                core.log.begin_op();
                (|| {
                    let parent = parent as u32;
                    let dir = core.icache.get(parent);
                    let mut dir_data = dir.data.write();
                    core.load_inode(sb, parent, &mut dir_data)?;
                    if core.dirlookup(sb, &mut dir_data, name)?.is_some() {
                        return Err(KernelError::with_context(Errno::Exist, "xv6fs: file exists"));
                    }
                    let inum = core.ialloc(sb, T_FILE)?;
                    let inode = core.icache.get(inum);
                    let mut data = inode.data.write();
                    *data =
                        InodeData { valid: true, ftype: T_FILE, nlink: 1, ..InodeData::default() };
                    core.update_inode(sb, inum, &data)?;
                    core.dirlink(sb, parent, &mut dir_data, name, inum)?;
                    Ok((inum, data.attr(inum)))
                })()
            };
            core.log.end_op(sb)?;
            let (inum, attr) = result?;
            core.note_open(inum);
            core.stats.creates.inc();
            Ok(CreateReply { attr, fh: inum as u64 })
        })
    }

    fn mkdir(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        _mode: FileMode,
    ) -> KernelResult<InodeAttr> {
        self.with_core(|core| {
            let result = {
                let _dir = core.dir_locks.lock(parent);
                core.log.begin_op();
                (|| {
                    let parent = parent as u32;
                    let dir = core.icache.get(parent);
                    let mut dir_data = dir.data.write();
                    core.load_inode(sb, parent, &mut dir_data)?;
                    if core.dirlookup(sb, &mut dir_data, name)?.is_some() {
                        return Err(KernelError::with_context(
                            Errno::Exist,
                            "xv6fs: directory exists",
                        ));
                    }
                    let inum = core.ialloc(sb, T_DIR)?;
                    let inode = core.icache.get(inum);
                    let mut data = inode.data.write();
                    *data =
                        InodeData { valid: true, ftype: T_DIR, nlink: 1, ..InodeData::default() };
                    core.dir_init(sb, inum, &mut data, parent)?;
                    core.update_inode(sb, inum, &data)?;
                    // ".." inside the child references the parent.
                    dir_data.nlink += 1;
                    core.update_inode(sb, parent, &dir_data)?;
                    core.dirlink(sb, parent, &mut dir_data, name, inum)?;
                    Ok(data.attr(inum))
                })()
            };
            core.log.end_op(sb)?;
            let attr = result?;
            core.stats.creates.inc();
            Ok(attr)
        })
    }

    fn unlink(&self, _req: &Request, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<()> {
        if name == "." || name == ".." {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: cannot unlink . or .."));
        }
        self.with_core(|core| {
            let reap: KernelResult<Option<u32>> = {
                let _dir = core.dir_locks.lock(parent);
                core.log.begin_op();
                (|| {
                    let parent = parent as u32;
                    let dir = core.icache.get(parent);
                    let mut dir_data = dir.data.write();
                    core.load_inode(sb, parent, &mut dir_data)?;
                    let (inum, offset) =
                        core.dirlookup(sb, &mut dir_data, name)?.ok_or_else(|| {
                            KernelError::with_context(Errno::NoEnt, "xv6fs: no such entry")
                        })?;
                    let inode = core.icache.get(inum);
                    let mut data = inode.data.write();
                    core.load_inode(sb, inum, &mut data)?;
                    if data.is_dir() {
                        return Err(KernelError::with_context(
                            Errno::IsDir,
                            "xv6fs: use rmdir for directories",
                        ));
                    }
                    core.dir_remove_at(sb, parent, &mut dir_data, offset)?;
                    data.nlink = data.nlink.saturating_sub(1);
                    core.update_inode(sb, inum, &data)?;
                    if data.nlink > 0 || core.open_count(inum) > 0 {
                        return Ok(None);
                    }
                    if data.size > TRUNC_CHUNK_BYTES {
                        // Too big for this transaction: the chunked reap
                        // below runs after it commits.
                        return Ok(Some(inum));
                    }
                    // The common case dies in the transaction that removed
                    // its name: one commit instead of three, and no crash
                    // window that leaves an orphan nothing ever reclaims.
                    Self::reap_in_transaction(core, sb, inum, &mut data)?;
                    Ok(None)
                })()
            };
            core.log.end_op(sb)?;
            if let Some(inum) = reap? {
                Self::reap_inode(core, sb, inum)?;
            }
            core.stats.removes.inc();
            Ok(())
        })
    }

    fn rmdir(&self, _req: &Request, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<()> {
        if name == "." || name == ".." {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: cannot rmdir . or .."));
        }
        self.with_core(|core| {
            let reap: KernelResult<u32> = {
                let _dir = core.dir_locks.lock(parent);
                core.log.begin_op();
                (|| {
                    let parent = parent as u32;
                    let dir = core.icache.get(parent);
                    let mut dir_data = dir.data.write();
                    core.load_inode(sb, parent, &mut dir_data)?;
                    let (inum, offset) =
                        core.dirlookup(sb, &mut dir_data, name)?.ok_or_else(|| {
                            KernelError::with_context(Errno::NoEnt, "xv6fs: no such entry")
                        })?;
                    let inode = core.icache.get(inum);
                    let mut data = inode.data.write();
                    core.load_inode(sb, inum, &mut data)?;
                    if !data.is_dir() {
                        return Err(KernelError::with_context(
                            Errno::NotDir,
                            "xv6fs: not a directory",
                        ));
                    }
                    if !core.dir_is_empty(sb, &mut data)? {
                        return Err(KernelError::with_context(
                            Errno::NotEmpty,
                            "xv6fs: directory not empty",
                        ));
                    }
                    core.dir_remove_at(sb, parent, &mut dir_data, offset)?;
                    dir_data.nlink = dir_data.nlink.saturating_sub(1);
                    core.update_inode(sb, parent, &dir_data)?;
                    data.nlink = 0;
                    core.update_inode(sb, inum, &data)?;
                    Ok(inum)
                })()
            };
            core.log.end_op(sb)?;
            let inum = reap?;
            Self::reap_inode(core, sb, inum)?;
            core.stats.removes.inc();
            Ok(())
        })
    }

    fn rename(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<()> {
        if name == "." || name == ".." || newname == "." || newname == ".." {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: cannot rename . or .."));
        }
        self.with_core(|core| {
            // Both parent directories, in ascending-inum order (same-dir
            // rename takes a single lock).
            let _ns = core.dir_locks.lock_pair(parent, newparent);
            core.log.begin_op();
            let reap: KernelResult<Option<u32>> = (|| {
                let old_parent = parent as u32;
                let new_parent = newparent as u32;
                // Source entry.
                let src_inum;
                let src_offset;
                {
                    let dir = core.icache.get(old_parent);
                    let mut dir_data = dir.data.write();
                    core.load_inode(sb, old_parent, &mut dir_data)?;
                    let (inum, offset) =
                        core.dirlookup(sb, &mut dir_data, name)?.ok_or_else(|| {
                            KernelError::with_context(Errno::NoEnt, "xv6fs: rename source missing")
                        })?;
                    src_inum = inum;
                    src_offset = offset;
                }
                let src_inode = core.icache.get(src_inum);
                let src_is_dir = {
                    let mut src_data = src_inode.data.write();
                    core.load_inode(sb, src_inum, &mut src_data)?;
                    src_data.is_dir()
                };
                // Existing target (if any) is replaced.
                let mut reap_target = None;
                {
                    let dir = core.icache.get(new_parent);
                    let mut dir_data = dir.data.write();
                    core.load_inode(sb, new_parent, &mut dir_data)?;
                    if let Some((target_inum, target_offset)) =
                        core.dirlookup(sb, &mut dir_data, newname)?
                    {
                        if target_inum == src_inum {
                            return Ok(None);
                        }
                        let target = core.icache.get(target_inum);
                        let mut target_data = target.data.write();
                        core.load_inode(sb, target_inum, &mut target_data)?;
                        if target_data.is_dir() {
                            if !core.dir_is_empty(sb, &mut target_data)? {
                                return Err(KernelError::with_context(
                                    Errno::NotEmpty,
                                    "xv6fs: rename target directory not empty",
                                ));
                            }
                            dir_data.nlink = dir_data.nlink.saturating_sub(1);
                            core.update_inode(sb, new_parent, &dir_data)?;
                            target_data.nlink = 0;
                        } else {
                            target_data.nlink = target_data.nlink.saturating_sub(1);
                        }
                        core.update_inode(sb, target_inum, &target_data)?;
                        core.dir_remove_at(sb, new_parent, &mut dir_data, target_offset)?;
                        if target_data.nlink == 0 && core.open_count(target_inum) == 0 {
                            reap_target = Some(target_inum);
                        }
                    }
                    // Add the new entry.
                    core.dirlink(sb, new_parent, &mut dir_data, newname, src_inum)?;
                    if src_is_dir && old_parent != new_parent {
                        dir_data.nlink += 1;
                        core.update_inode(sb, new_parent, &dir_data)?;
                    }
                }
                // Remove the old entry.
                {
                    let dir = core.icache.get(old_parent);
                    let mut dir_data = dir.data.write();
                    core.load_inode(sb, old_parent, &mut dir_data)?;
                    core.dir_remove_at(sb, old_parent, &mut dir_data, src_offset)?;
                    if src_is_dir && old_parent != new_parent {
                        dir_data.nlink = dir_data.nlink.saturating_sub(1);
                        core.update_inode(sb, old_parent, &dir_data)?;
                    }
                }
                // A moved directory's ".." must point at the new parent.
                if src_is_dir && old_parent != new_parent {
                    let mut src_data = src_inode.data.write();
                    core.load_inode(sb, src_inum, &mut src_data)?;
                    if let Some((_, dotdot_offset)) = core.dirlookup(sb, &mut src_data, "..")? {
                        core.dir_remove_at(sb, src_inum, &mut src_data, dotdot_offset)?;
                    }
                    core.dirlink(sb, src_inum, &mut src_data, "..", new_parent)?;
                }
                Ok(reap_target)
            })();
            // Commit outside the namespace lock (see create).
            drop(_ns);
            core.log.end_op(sb)?;
            if let Some(inum) = reap? {
                Self::reap_inode(core, sb, inum)?;
            }
            Ok(())
        })
    }

    fn link(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<InodeAttr> {
        self.with_core(|core| {
            let _ns = core.dir_locks.lock(newparent);
            core.log.begin_op();
            let result = (|| {
                let inum = ino as u32;
                let inode = core.icache.get(inum);
                let mut data = inode.data.write();
                core.load_inode(sb, inum, &mut data)?;
                if data.is_dir() {
                    return Err(KernelError::with_context(
                        Errno::Perm,
                        "xv6fs: cannot hard-link directories",
                    ));
                }
                if data.nlink == u16::MAX {
                    return Err(KernelError::with_context(Errno::MLink, "xv6fs: too many links"));
                }
                data.nlink += 1;
                core.update_inode(sb, inum, &data)?;
                let attr = data.attr(inum);
                drop(data);
                let parent = core.icache.get(newparent as u32);
                let mut parent_data = parent.data.write();
                core.load_inode(sb, newparent as u32, &mut parent_data)?;
                core.dirlink(sb, newparent as u32, &mut parent_data, newname, inum)?;
                Ok(attr)
            })();
            // Commit outside the namespace lock (see create).
            drop(_ns);
            core.log.end_op(sb)?;
            result
        })
    }

    fn open(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        _flags: OpenFlags,
    ) -> KernelResult<u64> {
        self.with_core(|core| {
            let inum = ino as u32;
            let inode = core.icache.get(inum);
            let mut data = inode.data.write();
            core.load_inode(sb, inum, &mut data)?;
            drop(data);
            core.note_open(inum);
            Ok(ino)
        })
    }

    fn release(&self, _req: &Request, sb: &SuperBlock, ino: u64, _fh: u64) -> KernelResult<()> {
        self.with_core(|core| {
            let inum = ino as u32;
            if core.note_release(inum) == 0 {
                // Last close: reap if the file was unlinked while open.
                Self::reap_inode(core, sb, inum)?;
            }
            Ok(())
        })
    }

    fn read(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        _fh: u64,
        offset: u64,
        size: u32,
    ) -> KernelResult<Vec<u8>> {
        self.with_core(|core| {
            let inum = ino as u32;
            let inode = core.icache.get(inum);
            // Readers work on a copy of the (Copy) inode data so they do not
            // hold the inode lock across block I/O.
            let mut data = {
                let mut guard = inode.data.write();
                core.load_inode(sb, inum, &mut guard)?;
                *guard
            };
            let mut buf =
                vec![0u8; (size as usize).min((data.size.saturating_sub(offset)) as usize)];
            let n = core.readi(sb, &mut data, offset, &mut buf)?;
            buf.truncate(n);
            Ok(buf)
        })
    }

    fn write(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        _fh: u64,
        offset: u64,
        data: &[u8],
    ) -> KernelResult<usize> {
        self.with_core(|core| {
            let inum = ino as u32;
            let inode = core.icache.get(inum);
            let chunk_bytes = WRITE_CHUNK_BLOCKS * BSIZE;
            let mut written = 0usize;
            while written < data.len() {
                let end = (written + chunk_bytes).min(data.len());
                core.log.begin_op();
                let result = {
                    let mut guard = inode.data.write();
                    core.load_inode(sb, inum, &mut guard).and_then(|()| {
                        core.writei(
                            sb,
                            inum,
                            &mut guard,
                            offset + written as u64,
                            &data[written..end],
                        )
                    })
                };
                core.log.end_op(sb)?;
                written += result?;
            }
            Ok(written)
        })
    }

    fn fsync(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        _ino: u64,
        _fh: u64,
        _datasync: bool,
    ) -> KernelResult<()> {
        self.with_core(|core| {
            core.stats.fsyncs.inc();
            // Commit any group still absorbing completed operations (the
            // pipelined log defers closing while a commit is in flight).
            // Every write reaches the device through the log, and a group
            // is durable once its commit barrier returns, so there is no
            // further device barrier: an fsync that commits pays the
            // commit's one, one that finds the log idle pays none.  (On
            // the userspace (FUSE) provider each barrier is a
            // whole-disk-file fsync — the §6.4 cost.)
            core.log.flush(sb)
        })
    }

    fn readdir(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        _fh: u64,
    ) -> KernelResult<Vec<DirEntry>> {
        self.with_core(|core| {
            let inum = ino as u32;
            let inode = core.icache.get(inum);
            let mut data = {
                let mut guard = inode.data.write();
                core.load_inode(sb, inum, &mut guard)?;
                *guard
            };
            if !data.is_dir() {
                return Err(KernelError::with_context(
                    Errno::NotDir,
                    "xv6fs: readdir on non-directory",
                ));
            }
            core.dir_entries(sb, &mut data)
        })
    }

    fn sync_fs(&self, _req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        // Same durability argument as fsync.
        self.with_core(|core| core.log.flush(sb))
    }

    fn write_path_stats(&self) -> Option<WritePathStats> {
        Xv6FileSystem::write_path_stats(self)
    }

    fn op_stats(&self) -> Option<FsOpStats> {
        Xv6FileSystem::op_stats(self)
    }

    fn extract_state(&self, _req: &Request, _sb: &SuperBlock) -> KernelResult<StateBundle> {
        self.with_core(|core| {
            let mut bundle = StateBundle::new();
            bundle.put("alloc_hints", &core.alloc.export_hints())?;
            bundle.put("stats", &core.stats.snapshot())?;
            let log_stats = core.log.stats();
            bundle.put("log_commits", &log_stats.commits)?;
            bundle.put("log_blocks", &log_stats.blocks_logged)?;
            bundle.put("log_recoveries", &log_stats.recoveries)?;
            bundle.put("log_ops", &log_stats.ops_committed)?;
            bundle.put("log_barriers", &log_stats.barriers)?;
            bundle.put("log_overlapped", &log_stats.overlapped_commits)?;
            // BentoFS quiesced the mount, so the log is idle; the new
            // instance continues it from here instead of replaying the
            // records still live on the medium.
            let tail = core.log.tail();
            let [live0, live1] = tail.live;
            bundle.put("log_tail", &(tail.next_seq, live0, live1, tail.owes_checkpoint))?;
            let mut opens: Vec<(u32, u32)> = Vec::new();
            core.opens.for_each(|k, v| opens.push((*k, *v)));
            bundle.put("open_files", &opens)?;
            Ok(bundle)
        })
    }

    fn restore_state(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        state: StateBundle,
    ) -> KernelResult<()> {
        // Attach to the device like a normal mount (superblock read), but
        // continue the old instance's log rather than recovering it — a
        // bundle without a log tail falls back to recovery — then layer
        // the transferred in-memory state on top.
        let tail = state.get_opt::<(u64, Option<u64>, Option<u64>, bool)>("log_tail")?.map(
            |(next_seq, live0, live1, owes_checkpoint)| LogTail {
                next_seq,
                live: [live0, live1],
                owes_checkpoint,
            },
        );
        self.attach(sb, tail)?;
        self.with_core(|core| {
            if let Some(hints) = state.get_opt::<Vec<(u64, u64)>>("alloc_hints")? {
                core.alloc.restore_hints(&hints);
            }
            if let Some(stats) = state.get_opt::<FsStats>("stats")? {
                core.stats.restore(stats);
            }
            core.log.restore_stats(LogStats {
                commits: state.get_opt("log_commits")?.unwrap_or(0),
                blocks_logged: state.get_opt("log_blocks")?.unwrap_or(0),
                recoveries: state.get_opt("log_recoveries")?.unwrap_or(0),
                ops_committed: state.get_opt("log_ops")?.unwrap_or(0),
                barriers: state.get_opt("log_barriers")?.unwrap_or(0),
                overlapped_commits: state.get_opt("log_overlapped")?.unwrap_or(0),
            });
            if let Some(opens) = state.get_opt::<Vec<(u32, u32)>>("open_files")? {
                for (inum, count) in opens {
                    core.opens.insert(inum, count);
                }
            }
            Ok(())
        })
    }
}

/// Returns the inode number of the root directory (always 1, as in FUSE).
pub fn root_ino() -> u64 {
    ROOT_INO as u64
}

/// `true` when `kind` is a directory — small helper shared by tests.
pub fn is_dir_kind(kind: FileType) -> bool {
    kind == FileType::Directory
}
