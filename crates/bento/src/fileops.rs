//! The Bento file operations API (paper §4.3–§4.4).
//!
//! This is the interface a Bento file system implements.  It is a Rust
//! rendering of the FUSE low-level API, with two changes the paper calls
//! out:
//!
//! * every method additionally borrows the [`SuperBlock`] capability, which
//!   is how the file system performs block I/O ("the file operations API is
//!   a Rust version of FUSE low-level API augmented with a reference to the
//!   `super_block` data structure", §4.4);
//! * ownership never crosses the interface — all arguments are borrowed for
//!   the duration of the call (the ownership model).
//!
//! Unlike the single-threaded `fuse-rs` userspace library, methods take
//! `&self` and implementations must be `Send + Sync`: kernel file systems
//! are called concurrently from many threads, and the evaluation runs
//! 32-thread benchmarks.
//!
//! Methods not implemented default to returning `ENOSYS`, mirroring how the
//! FUSE protocol treats unimplemented opcodes.

use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{DirEntry, FileMode, InodeAttr, OpenFlags, SetAttr, StatFs};

use crate::bentoks::SuperBlock;
use crate::upgrade::StateBundle;

/// One file's share of a vectored write: `(ino, segments)`, each segment
/// an `(offset, bytes)` pair (see [`FileSystem::write_vectored`]).
pub type FileSegments<'a> = (u64, &'a [(u64, &'a [u8])]);

/// Per-request context (the analogue of `fuse_req_t` / kernel credentials).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Request {
    /// Requesting user id.
    pub uid: u32,
    /// Requesting group id.
    pub gid: u32,
    /// Requesting process id.
    pub pid: u32,
}

impl Request {
    /// A request issued by the kernel itself (uid 0).
    pub fn kernel() -> Self {
        Request::default()
    }
}

/// Result of a successful `create`: the new inode plus an open file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreateReply {
    /// Attributes of the newly created file.
    pub attr: InodeAttr,
    /// File handle, valid until `release`.
    pub fh: u64,
}

fn nosys<T>(what: &'static str) -> KernelResult<T> {
    Err(KernelError::with_context(Errno::NoSys, what))
}

/// The file operations a Bento file system implements.
///
/// All inode numbers are file-system-defined; `1` conventionally names the
/// root directory (as in FUSE).  Errors are reported as
/// [`KernelError`]s carrying errno values, which BentoFS relays to the VFS
/// unchanged.
#[allow(unused_variables)]
pub trait FileSystem: Send + Sync {
    /// Short name of the file system (used in registration and statistics).
    fn name(&self) -> &'static str;

    /// Called once when the file system is mounted.  Typical work: read the
    /// on-disk superblock through `sb`, recover the journal, set up caches.
    ///
    /// # Errors
    ///
    /// Returning an error aborts the mount.
    fn init(&self, req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        Ok(())
    }

    /// Called at unmount after all writeback has completed.
    ///
    /// # Errors
    ///
    /// I/O errors may be reported but the unmount proceeds.
    fn destroy(&self, req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        Ok(())
    }

    /// File system statistics.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn statfs(&self, req: &Request, sb: &SuperBlock) -> KernelResult<StatFs> {
        nosys("statfs")
    }

    /// Looks up `name` within directory `parent`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if absent, `ENOTDIR` if `parent` is not a directory.
    fn lookup(
        &self,
        req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
    ) -> KernelResult<InodeAttr> {
        nosys("lookup")
    }

    /// Returns the attributes of `ino`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the inode does not exist.
    fn getattr(&self, req: &Request, sb: &SuperBlock, ino: u64) -> KernelResult<InodeAttr> {
        nosys("getattr")
    }

    /// Applies attribute changes (truncate, chmod) to `ino`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR` (truncating a directory), `ENOSPC`.
    fn setattr(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        set: &SetAttr,
    ) -> KernelResult<InodeAttr> {
        nosys("setattr")
    }

    /// Creates and opens a regular file.
    ///
    /// # Errors
    ///
    /// `EEXIST`, `ENOSPC`, `ENOTDIR`.
    fn create(
        &self,
        req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        mode: FileMode,
        flags: OpenFlags,
    ) -> KernelResult<CreateReply> {
        nosys("create")
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// `EEXIST`, `ENOSPC`, `ENOTDIR`.
    fn mkdir(
        &self,
        req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        mode: FileMode,
    ) -> KernelResult<InodeAttr> {
        nosys("mkdir")
    }

    /// Removes a regular file.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR`.
    fn unlink(&self, req: &Request, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<()> {
        nosys("unlink")
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTEMPTY`, `ENOTDIR`.
    fn rmdir(&self, req: &Request, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<()> {
        nosys("rmdir")
    }

    /// Renames `name` in `parent` to `newname` in `newparent`, replacing an
    /// existing target when legal.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTEMPTY`, `ENOSPC`.
    fn rename(
        &self,
        req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<()> {
        nosys("rename")
    }

    /// Creates a hard link to `ino` named `newname` in `newparent`.
    ///
    /// # Errors
    ///
    /// `EPERM` (directories), `EEXIST`, `ENOSPC`, `EMLINK`.
    fn link(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<InodeAttr> {
        nosys("link")
    }

    /// Opens `ino`; returns a file handle passed back on `read`/`write`/
    /// `release`.
    ///
    /// # Errors
    ///
    /// `ENOENT`.
    fn open(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        flags: OpenFlags,
    ) -> KernelResult<u64> {
        nosys("open")
    }

    /// Reads up to `buf.len()` bytes at `offset` into `buf`; returns the
    /// number of bytes read, clamped at end of file (0 at or past it).
    /// Bytes of `buf` past the returned count are left as they were.
    ///
    /// The caller *lends* the destination (§4.4), so the data goes from
    /// the block straight into it, with no buffer owned by the file system
    /// in between.  BentoFS's page-cache fill calls
    /// [`FileSystem::read_vectored`] instead.
    ///
    /// # Errors
    ///
    /// `ENOENT`, I/O errors.
    fn read(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
        offset: u64,
        buf: &mut [u8],
    ) -> KernelResult<usize> {
        nosys("read")
    }

    /// Reads the bytes of `ino` from `offset` on into `bufs`, in order (as
    /// `preadv(2)` does); returns the number of bytes read, clamped at end
    /// of file.  This is what BentoFS's page-cache fill calls, once per run
    /// of missing pages, lending the pages of the run (§4.4): the read
    /// mirror of [`FileSystem::write_vectored`], and like write-back it
    /// carries no file handle.  A file system that overrides it can serve
    /// the run with one inode lookup.  The default calls
    /// [`FileSystem::read`] per buffer (with handle 0) and stops after a
    /// short read.
    ///
    /// # Errors
    ///
    /// As for [`FileSystem::read`]; buffers before the failing one may
    /// have been filled.
    fn read_vectored(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        offset: u64,
        bufs: &mut [&mut [u8]],
    ) -> KernelResult<usize> {
        let mut done = 0usize;
        for buf in bufs.iter_mut() {
            let n = self.read(req, sb, ino, 0, offset + done as u64, buf)?;
            done += n;
            if n < buf.len() {
                break;
            }
        }
        Ok(done)
    }

    /// Writes `data` at `offset`; returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// `ENOSPC`, `EFBIG`, I/O errors.
    fn write(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
        offset: u64,
        data: &[u8],
    ) -> KernelResult<usize> {
        nosys("write")
    }

    /// Writes every `(offset, data)` segment of every file of `files`, in
    /// order; returns the total number of bytes written.  This is what
    /// BentoFS's write-back calls, once per pass, with the files of the
    /// pass in ascending inode order and one segment per dirty page: the
    /// caller *lends* the page slices (§4.4) instead of assembling them
    /// into a buffer, and a file system that overrides this can put
    /// segments that are not adjacent in a file — or not even in one file —
    /// into one transaction.  Write-back carries no file handle.  The
    /// default, in the manner of [`std::io::Write::write_vectored`], calls
    /// [`FileSystem::write`] per segment (with handle 0) and stops after a
    /// short write.
    ///
    /// # Errors
    ///
    /// As for [`FileSystem::write`]; segments before the failing one may
    /// have been written.
    fn write_vectored(
        &self,
        req: &Request,
        sb: &SuperBlock,
        files: &[FileSegments<'_>],
    ) -> KernelResult<usize> {
        let mut written = 0usize;
        for &(ino, segs) in files {
            for &(offset, data) in segs {
                let n = self.write(req, sb, ino, 0, offset, data)?;
                written += n;
                if n < data.len() {
                    return Ok(written);
                }
            }
        }
        Ok(written)
    }

    /// Called on every `close(2)` of a descriptor referring to `ino`.
    ///
    /// # Errors
    ///
    /// Errors are reported to the closing process.
    fn flush(&self, req: &Request, sb: &SuperBlock, ino: u64, fh: u64) -> KernelResult<()> {
        Ok(())
    }

    /// Releases a file handle returned by `open`/`create`.
    ///
    /// # Errors
    ///
    /// I/O errors from deferred work propagate.
    fn release(&self, req: &Request, sb: &SuperBlock, ino: u64, fh: u64) -> KernelResult<()> {
        Ok(())
    }

    /// Makes the file's data (and metadata unless `datasync`) durable.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn fsync(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
        datasync: bool,
    ) -> KernelResult<()> {
        nosys("fsync")
    }

    /// Opens a directory for reading.
    ///
    /// # Errors
    ///
    /// `ENOTDIR`, `ENOENT`.
    fn opendir(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        flags: OpenFlags,
    ) -> KernelResult<u64> {
        Ok(0)
    }

    /// Lists the entries of directory `ino`.
    ///
    /// # Errors
    ///
    /// `ENOTDIR`, `ENOENT`.
    fn readdir(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
    ) -> KernelResult<Vec<DirEntry>> {
        nosys("readdir")
    }

    /// Releases a directory handle.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn releasedir(&self, req: &Request, sb: &SuperBlock, ino: u64, fh: u64) -> KernelResult<()> {
        Ok(())
    }

    /// Makes directory metadata durable.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn fsyncdir(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
        datasync: bool,
    ) -> KernelResult<()> {
        self.fsync(req, sb, ino, fh, datasync)
    }

    /// Flushes all dirty file system state (the `sync_fs` super-operation;
    /// also used as the quiesce step before an online upgrade).
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    fn sync_fs(&self, req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        Ok(())
    }

    /// Write-path batching statistics (log batching, allocator spread), if
    /// this file system tracks them.  BentoFS forwards these to the VFS so
    /// the experiment harness can report them per run.
    fn write_path_stats(&self) -> Option<simkernel::vfs::WritePathStats> {
        None
    }

    // -- online upgrade (paper §4.8) ----------------------------------------

    /// Extracts the in-memory state that must survive an online upgrade
    /// (caches, allocation cursors, statistics...).  Called on the *old*
    /// file system instance after it has been quiesced.
    ///
    /// # Errors
    ///
    /// `ENOSYS` (the default) makes BentoFS fall back to a sync-and-reinit
    /// upgrade.
    fn extract_state(&self, req: &Request, sb: &SuperBlock) -> KernelResult<StateBundle> {
        nosys("extract_state")
    }

    /// Installs state extracted from the previous version.  Called on the
    /// *new* file system instance instead of [`FileSystem::init`].
    ///
    /// # Errors
    ///
    /// Returning an error aborts the upgrade and leaves the old instance
    /// running.
    fn restore_state(
        &self,
        req: &Request,
        sb: &SuperBlock,
        state: StateBundle,
    ) -> KernelResult<()> {
        nosys("restore_state")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bentoks::{KernelBlockIo, SuperBlock};
    use crate::userspace::userspace_superblock;
    use simkernel::dev::RamDisk;
    use std::sync::Arc;

    struct Minimal;
    impl FileSystem for Minimal {
        fn name(&self) -> &'static str {
            "minimal"
        }
    }

    fn sb() -> SuperBlock {
        userspace_superblock(
            Arc::new(KernelBlockIo::new(Arc::new(RamDisk::new(4096, 8)), 8)),
            "ram0",
        )
    }

    #[test]
    fn unimplemented_methods_return_enosys() {
        let fs = Minimal;
        let sb = sb();
        let req = Request::kernel();
        assert_eq!(fs.lookup(&req, &sb, 1, "x").unwrap_err().errno(), Errno::NoSys);
        assert_eq!(fs.read(&req, &sb, 1, 0, 0, &mut [0u8; 16]).unwrap_err().errno(), Errno::NoSys);
        assert_eq!(fs.extract_state(&req, &sb).unwrap_err().errno(), Errno::NoSys);
    }

    #[test]
    fn lifecycle_defaults_succeed() {
        let fs = Minimal;
        let sb = sb();
        let req = Request::kernel();
        fs.init(&req, &sb).unwrap();
        fs.flush(&req, &sb, 1, 0).unwrap();
        fs.release(&req, &sb, 1, 0).unwrap();
        fs.sync_fs(&req, &sb).unwrap();
        fs.destroy(&req, &sb).unwrap();
    }

    #[test]
    fn trait_is_object_safe_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Box<dyn FileSystem>>();
        let _obj: Box<dyn FileSystem> = Box::new(Minimal);
    }
}
