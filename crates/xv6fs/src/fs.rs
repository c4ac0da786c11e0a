//! The Bento binding of the xv6 core: `Xv6FileSystem`.
//!
//! This is the file system the paper evaluates — the xv6 teaching file
//! system, extended with double-indirect blocks and extra locking (§6.1),
//! written entirely in safe Rust against the Bento file operations API.
//! The operations themselves live on [`FsCore`] ([`crate::ops`], shared
//! with the VFS binding in `xv6fs-vfs`); this type owns what is Bento's:
//! the mount lifecycle (`init`/`destroy`), the online-upgrade hooks
//! (`extract_state`/`restore_state`, §4.8) that let a running mount be
//! upgraded to a new build without unmounting, and the translation of each
//! file-operations call into a core call.
//!
//! The outer `RwLock<Option<Arc<FsCore>>>` is a **mount-lifecycle guard
//! only**: operations take the read side just long enough to clone the
//! `Arc`, then run against the core with no outer lock held.  Quiescence
//! for upgrade/unmount is provided one layer up — BentoFS swaps the
//! `FileSystem` box under its own write lock, which drains in-flight
//! operations first.  The locking protocol of the operations is described
//! in [`crate::ops`].

use std::sync::Arc;

use parking_lot::RwLock;

use bento::bentoks::SuperBlock;
use bento::fileops::{CreateReply, FileSystem, Request};
use bento::upgrade::StateBundle;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{
    DirEntry, FileMode, FsOpStats, InodeAttr, OpenFlags, SetAttr, StatFs, WritePathStats,
};

use crate::core::{FsCore, FsStats};
use crate::layout::{T_DIR, T_FILE};
use crate::log::{LogStats, LogTail};

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
        self.core.read().as_ref().map(|c| c.op_stats())
    }

    /// Log statistics (zeroed until mounted).
    pub fn log_stats(&self) -> LogStats {
        self.core.read().as_ref().map(|c| c.log.stats()).unwrap_or_default()
    }

    /// Write-path batching statistics (log batching + allocator spread;
    /// `None` until mounted).  BentoFS adds the queue-depth figures.
    pub fn write_path_stats(&self) -> Option<WritePathStats> {
        self.core.read().as_ref().map(|c| c.write_path_stats())
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
        let mut core = FsCore::load(sb, self.alloc_groups)?;
        core.log.plant_fault(self.log_fault);
        match tail {
            Some(tail) => core.log.restore_tail(tail),
            None => {
                core.log.recover(sb)?;
            }
        }
        *self.core.write() = Some(Arc::new(core));
        Ok(())
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
        // An unattached instance never wrote anything.
        if self.core.read().is_some() {
            self.with_core(|core| core.unmount(sb))?;
        }
        Ok(())
    }

    fn statfs(&self, _req: &Request, sb: &SuperBlock) -> KernelResult<StatFs> {
        self.with_core(|core| core.statfs(sb))
    }

    fn lookup(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
    ) -> KernelResult<InodeAttr> {
        self.with_core(|core| core.lookup(sb, parent, name))
    }

    fn getattr(&self, _req: &Request, sb: &SuperBlock, ino: u64) -> KernelResult<InodeAttr> {
        self.with_core(|core| core.getattr(sb, ino))
    }

    fn setattr(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        set: &SetAttr,
    ) -> KernelResult<InodeAttr> {
        self.with_core(|core| core.setattr(sb, ino, set))
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
        // The file-operations `create` also opens: the handle is the inode
        // number, as for `open`.
        self.with_core(|core| {
            let attr = core.mknod(sb, parent, name, T_FILE)?;
            core.note_open(attr.ino as u32);
            Ok(CreateReply { attr, fh: attr.ino })
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
        self.with_core(|core| core.mknod(sb, parent, name, T_DIR))
    }

    fn unlink(&self, _req: &Request, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<()> {
        self.with_core(|core| core.remove(sb, parent, name, false))
    }

    fn rmdir(&self, _req: &Request, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<()> {
        self.with_core(|core| core.remove(sb, parent, name, true))
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
        self.with_core(|core| core.rename(sb, parent, name, newparent, newname))
    }

    fn link(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<InodeAttr> {
        self.with_core(|core| core.link(sb, ino, newparent, newname))
    }

    fn open(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        _flags: OpenFlags,
    ) -> KernelResult<u64> {
        self.with_core(|core| core.open(sb, ino))
    }

    fn release(&self, _req: &Request, sb: &SuperBlock, ino: u64, _fh: u64) -> KernelResult<()> {
        self.with_core(|core| core.release(sb, ino))
    }

    fn read(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        _fh: u64,
        offset: u64,
        buf: &mut [u8],
    ) -> KernelResult<usize> {
        self.with_core(|core| core.read(sb, ino, offset, buf))
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
        self.with_core(|core| core.write(sb, ino, offset, data))
    }

    fn write_vectored(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        _fh: u64,
        segs: &[(u64, &[u8])],
    ) -> KernelResult<usize> {
        self.with_core(|core| core.write_vectored(sb, ino, segs))
    }

    fn fsync(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        _ino: u64,
        _fh: u64,
        _datasync: bool,
    ) -> KernelResult<()> {
        self.with_core(|core| core.fsync(sb))
    }

    fn readdir(
        &self,
        _req: &Request,
        sb: &SuperBlock,
        ino: u64,
        _fh: u64,
    ) -> KernelResult<Vec<DirEntry>> {
        self.with_core(|core| core.readdir(sb, ino))
    }

    fn sync_fs(&self, _req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        self.with_core(|core| core.sync(sb))
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
