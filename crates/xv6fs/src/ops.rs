//! The file system's operations: every namespace, file and whole-mount
//! operation as a method on [`FsCore`] that takes the [`SuperBlock`]
//! capability and opens its own log transactions.
//!
//! Both kernel bindings call these and nothing below them: the Bento
//! binding ([`crate::fs::Xv6FileSystem`], behind BentoFS and the file
//! operations API) and the VFS binding (`xv6fs-vfs`, a `VfsFs`
//! implementation holding the core directly).  What differs between the
//! two stacks is therefore only what their bindings do differently.
//!
//! ## Locking protocol
//!
//! * Operations that restructure the namespace (`mknod`, `remove`,
//!   `rename`, `link`) lock only the **parent directories they modify**
//!   through [`FsCore::dir_locks`] — a per-directory lock table keyed by
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
//!   (device barriers) always runs outside the namespace locks: creators
//!   in one directory absorb into the forming group instead of serializing
//!   behind the commit.

use bento::bentoks::SuperBlock;
use bento::fileops::FileSegments;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{DirEntry, InodeAttr, SetAttr, StatFs, WritePathStats};

use crate::core::{block_pieces, FsCore};
use crate::inode::InodeData;
use crate::layout::{DiskSuperblock, BSIZE, DIRSIZ, T_DIR};
use crate::log::Log;

/// Log blocks one more piece of file data can stage at worst: the data
/// block, an indirect block and a double-indirect block, each freshly
/// allocated and so each with a bitmap block of its own (the allocator may
/// serve them from different groups).
const PIECE_WORST_BLOCKS: usize = 6;

/// File blocks released per log transaction when truncating large files.
const TRUNC_CHUNK_BLOCKS: u64 = 1024;

/// Largest file whose whole truncate fits one transaction, and which is
/// therefore reaped inside the transaction that drops its last link.
const TRUNC_CHUNK_BYTES: u64 = TRUNC_CHUNK_BLOCKS * BSIZE as u64;

fn is_dot(name: &str) -> bool {
    name == "." || name == ".."
}

impl FsCore {
    /// Reads and validates the on-disk superblock of the image on `sb` and
    /// builds the in-memory core.  The log is left untouched: a mount follows with
    /// [`Log::recover`](crate::log::Log::recover), a live upgrade with
    /// [`Log::restore_tail`](crate::log::Log::restore_tail).
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] if the device does not hold an xv6 image or the
    /// image is larger than the device; I/O errors propagate.
    pub fn load(sb: &SuperBlock) -> KernelResult<FsCore> {
        let block = sb.bread(1)?;
        let dsb = DiskSuperblock::decode(block.data())?;
        drop(block);
        if (dsb.size as u64) > sb.nblocks() {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: image larger than device"));
        }
        Ok(FsCore::new(dsb))
    }

    /// Runs `body` as one log transaction.  `ns` is whatever namespace
    /// guard the operation took (acquired by the caller, so before
    /// `begin_op`); it is released before `end_op` so the commit runs
    /// outside it.
    fn transaction<G, T>(
        &self,
        sb: &SuperBlock,
        ns: G,
        body: impl FnOnce() -> KernelResult<T>,
    ) -> KernelResult<T> {
        self.log.begin_op();
        let result = body();
        drop(ns);
        self.log.end_op(sb)?;
        result
    }

    /// A copy of inode `inum`'s (`Copy`) data, read from disk if needed:
    /// readers work on the copy so they do not hold the inode lock across
    /// block I/O.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] for a free or out-of-range inode; I/O errors
    /// propagate.
    pub fn inode_snapshot(&self, sb: &SuperBlock, inum: u32) -> KernelResult<InodeData> {
        let inode = self.icache.get(inum);
        let mut guard = inode.data.write();
        self.load_inode(sb, inum, &mut guard)?;
        Ok(*guard)
    }

    // -- attributes ------------------------------------------------------------

    /// Looks `name` up in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if absent, [`Errno::NotDir`] if `parent` is not a
    /// directory.
    pub fn lookup(&self, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<InodeAttr> {
        let child = {
            let dir = self.icache.get(parent as u32);
            let mut dir_data = dir.data.write();
            self.load_inode(sb, parent as u32, &mut dir_data)?;
            match self.dirlookup(sb, &mut dir_data, name)? {
                Some((inum, _)) => inum,
                None => {
                    return Err(KernelError::with_context(Errno::NoEnt, "xv6fs: no such entry"))
                }
            }
        };
        self.getattr(sb, child as u64)
    }

    /// The attributes of `ino`.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`] if the inode does not exist.
    pub fn getattr(&self, sb: &SuperBlock, ino: u64) -> KernelResult<InodeAttr> {
        Ok(self.inode_snapshot(sb, ino as u32)?.attr(ino as u32))
    }

    /// Applies attribute changes to `ino`: a size change truncates (in
    /// chunked transactions) or extends with a hole.  Permission bits are
    /// not stored by xv6 and are ignored.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`], [`Errno::IsDir`] (truncating a directory).
    pub fn setattr(&self, sb: &SuperBlock, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
        let inum = ino as u32;
        let inode = self.icache.get(inum);
        let mut data = inode.data.write();
        self.load_inode(sb, inum, &mut data)?;
        if let Some(size) = set.size {
            if data.is_dir() {
                return Err(KernelError::with_context(Errno::IsDir, "xv6fs: truncate directory"));
            }
            self.truncate_chunked(sb, inum, &mut data, size)?;
        }
        Ok(data.attr(inum))
    }

    /// Runs chunked truncation of `inum` down (or up) to `new_size`,
    /// splitting the work across as many transactions as needed.
    fn truncate_chunked(
        &self,
        sb: &SuperBlock,
        inum: u32,
        data: &mut InodeData,
        new_size: u64,
    ) -> KernelResult<()> {
        while data.size > new_size {
            let step_target = new_size.max(data.size.saturating_sub(TRUNC_CHUNK_BYTES));
            self.transaction(sb, (), || self.truncate_inode(sb, inum, data, step_target))?;
        }
        if data.size < new_size {
            self.transaction(sb, (), || self.truncate_inode(sb, inum, data, new_size))?;
        }
        Ok(())
    }

    // -- namespace -------------------------------------------------------------

    /// Creates `name` in directory `parent` as a fresh inode of on-disk
    /// type `ftype` ([`T_FILE`](crate::layout::T_FILE) or [`T_DIR`]): the
    /// shared body of `create` and `mkdir`.
    ///
    /// # Errors
    ///
    /// [`Errno::Exist`], [`Errno::NoSpc`], [`Errno::NotDir`].
    pub fn mknod(
        &self,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        ftype: u16,
    ) -> KernelResult<InodeAttr> {
        let attr = self.transaction(sb, self.dir_locks.lock(parent), || {
            let parent = parent as u32;
            let dir = self.icache.get(parent);
            let mut dir_data = dir.data.write();
            self.load_inode(sb, parent, &mut dir_data)?;
            // One pass over the parent: the name must be absent, and the
            // slot it goes into stays free while the child is set up.
            let slot = self.dir_free_slot(sb, &mut dir_data, name)?;
            let inum = self.ialloc(sb, ftype)?;
            let inode = self.icache.get(inum);
            let mut data = inode.data.write();
            *data = InodeData { valid: true, ftype, nlink: 1, ..InodeData::default() };
            if ftype == T_DIR {
                self.dir_init(sb, inum, &mut data, parent)?;
            }
            self.update_inode(sb, inum, &data)?;
            if ftype == T_DIR {
                // ".." inside the child references the parent.
                dir_data.nlink += 1;
                self.update_inode(sb, parent, &dir_data)?;
            }
            self.dirlink_at(sb, parent, &mut dir_data, slot, name, inum)?;
            Ok(data.attr(inum))
        })?;
        self.stats.creates.inc();
        Ok(attr)
    }

    /// Removes `name` from directory `parent`: an empty directory when
    /// `dir` (`rmdir`), anything else when not (`unlink`).  An inode left
    /// with no links and no open handles is reaped.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`]; [`Errno::IsDir`] / [`Errno::NotDir`] when the
    /// entry's type does not match `dir`; [`Errno::NotEmpty`].
    pub fn remove(&self, sb: &SuperBlock, parent: u64, name: &str, dir: bool) -> KernelResult<()> {
        if is_dot(name) {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: cannot remove . or .."));
        }
        let reap = self.transaction(sb, self.dir_locks.lock(parent), || {
            let parent = parent as u32;
            let parent_inode = self.icache.get(parent);
            let mut dir_data = parent_inode.data.write();
            self.load_inode(sb, parent, &mut dir_data)?;
            let (inum, offset) = self
                .dirlookup(sb, &mut dir_data, name)?
                .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "xv6fs: no such entry"))?;
            let inode = self.icache.get(inum);
            let mut data = inode.data.write();
            self.load_inode(sb, inum, &mut data)?;
            if data.is_dir() != dir {
                return Err(if dir {
                    KernelError::with_context(Errno::NotDir, "xv6fs: not a directory")
                } else {
                    KernelError::with_context(Errno::IsDir, "xv6fs: use rmdir for directories")
                });
            }
            if dir && !self.dir_is_empty(sb, &mut data)? {
                return Err(KernelError::with_context(
                    Errno::NotEmpty,
                    "xv6fs: directory not empty",
                ));
            }
            self.dir_remove_at(sb, parent, &mut dir_data, offset)?;
            if dir {
                dir_data.nlink = dir_data.nlink.saturating_sub(1);
                self.update_inode(sb, parent, &dir_data)?;
                data.nlink = 0;
            } else {
                data.nlink = data.nlink.saturating_sub(1);
            }
            self.update_inode(sb, inum, &data)?;
            if data.nlink > 0 || self.open_count(inum) > 0 {
                return Ok(None);
            }
            if dir || data.size > TRUNC_CHUNK_BYTES {
                // Reaped after this transaction commits: a file too big
                // to free here goes in chunks, and a directory keeps the
                // separate reap commit `rmdir` is measured with (folding
                // it in moves `journal.commits_per_op` on every stack).
                return Ok(Some(inum));
            }
            // The common case dies in the transaction that removed its
            // name: one commit instead of three, and no crash window that
            // leaves an orphan nothing ever reclaims.
            self.reap_in_transaction(sb, inum, &mut data)?;
            Ok(None)
        })?;
        if let Some(inum) = reap {
            self.reap_inode(sb, inum)?;
        }
        self.stats.removes.inc();
        Ok(())
    }

    /// Renames `name` in `parent` to `newname` in `newparent`, replacing
    /// an existing target (a file, or an empty directory) in the same
    /// transaction.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`], [`Errno::NotEmpty`], [`Errno::NoSpc`].
    pub fn rename(
        &self,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<()> {
        if is_dot(name) || is_dot(newname) {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: cannot rename . or .."));
        }
        // Both parent directories, in ascending-inum order (same-dir
        // rename takes a single lock).
        let reap = self.transaction(sb, self.dir_locks.lock_pair(parent, newparent), || {
            let old_parent = parent as u32;
            let new_parent = newparent as u32;
            // Source entry.
            let (src_inum, src_offset) = {
                let dir = self.icache.get(old_parent);
                let mut dir_data = dir.data.write();
                self.load_inode(sb, old_parent, &mut dir_data)?;
                self.dirlookup(sb, &mut dir_data, name)?.ok_or_else(|| {
                    KernelError::with_context(Errno::NoEnt, "xv6fs: rename source missing")
                })?
            };
            let src_inode = self.icache.get(src_inum);
            let src_is_dir = {
                let mut src_data = src_inode.data.write();
                self.load_inode(sb, src_inum, &mut src_data)?;
                src_data.is_dir()
            };
            // Existing target (if any) is replaced.
            let mut reap_target = None;
            {
                let dir = self.icache.get(new_parent);
                let mut dir_data = dir.data.write();
                self.load_inode(sb, new_parent, &mut dir_data)?;
                if let Some((target_inum, target_offset)) =
                    self.dirlookup(sb, &mut dir_data, newname)?
                {
                    if target_inum == src_inum {
                        return Ok(None);
                    }
                    let target = self.icache.get(target_inum);
                    let mut target_data = target.data.write();
                    self.load_inode(sb, target_inum, &mut target_data)?;
                    if target_data.is_dir() {
                        if !self.dir_is_empty(sb, &mut target_data)? {
                            return Err(KernelError::with_context(
                                Errno::NotEmpty,
                                "xv6fs: rename target directory not empty",
                            ));
                        }
                        dir_data.nlink = dir_data.nlink.saturating_sub(1);
                        self.update_inode(sb, new_parent, &dir_data)?;
                        target_data.nlink = 0;
                    } else {
                        target_data.nlink = target_data.nlink.saturating_sub(1);
                    }
                    self.update_inode(sb, target_inum, &target_data)?;
                    self.dir_remove_at(sb, new_parent, &mut dir_data, target_offset)?;
                    if target_data.nlink == 0 && self.open_count(target_inum) == 0 {
                        reap_target = Some(target_inum);
                    }
                }
                // Add the new entry.
                self.dirlink(sb, new_parent, &mut dir_data, newname, src_inum)?;
                if src_is_dir && old_parent != new_parent {
                    dir_data.nlink += 1;
                    self.update_inode(sb, new_parent, &dir_data)?;
                }
            }
            // Remove the old entry.
            {
                let dir = self.icache.get(old_parent);
                let mut dir_data = dir.data.write();
                self.load_inode(sb, old_parent, &mut dir_data)?;
                self.dir_remove_at(sb, old_parent, &mut dir_data, src_offset)?;
                if src_is_dir && old_parent != new_parent {
                    dir_data.nlink = dir_data.nlink.saturating_sub(1);
                    self.update_inode(sb, old_parent, &dir_data)?;
                }
            }
            // A moved directory's ".." must point at the new parent.
            if src_is_dir && old_parent != new_parent {
                let mut src_data = src_inode.data.write();
                self.load_inode(sb, src_inum, &mut src_data)?;
                if let Some((_, dotdot_offset)) = self.dirlookup(sb, &mut src_data, "..")? {
                    self.dir_remove_at(sb, src_inum, &mut src_data, dotdot_offset)?;
                }
                self.dirlink(sb, src_inum, &mut src_data, "..", new_parent)?;
            }
            Ok(reap_target)
        })?;
        if let Some(inum) = reap {
            self.reap_inode(sb, inum)?;
        }
        Ok(())
    }

    /// Creates a hard link to `ino` named `newname` in `newparent`.
    ///
    /// # Errors
    ///
    /// [`Errno::Perm`] (directories), [`Errno::Exist`], [`Errno::MLink`].
    pub fn link(
        &self,
        sb: &SuperBlock,
        ino: u64,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<InodeAttr> {
        self.transaction(sb, self.dir_locks.lock(newparent), || {
            let inum = ino as u32;
            let inode = self.icache.get(inum);
            let mut data = inode.data.write();
            self.load_inode(sb, inum, &mut data)?;
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
            self.update_inode(sb, inum, &data)?;
            let attr = data.attr(inum);
            drop(data);
            let parent = self.icache.get(newparent as u32);
            let mut parent_data = parent.data.write();
            self.load_inode(sb, newparent as u32, &mut parent_data)?;
            self.dirlink(sb, newparent as u32, &mut parent_data, newname, inum)?;
            Ok(attr)
        })
    }

    // -- open files ------------------------------------------------------------

    /// Opens `ino`; the returned handle (the inode number) is passed back
    /// on [`FsCore::release`].
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`].
    pub fn open(&self, sb: &SuperBlock, ino: u64) -> KernelResult<u64> {
        self.inode_snapshot(sb, ino as u32)?;
        self.note_open(ino as u32);
        Ok(ino)
    }

    /// Releases a handle on `ino`; the last close of a file unlinked while
    /// open reaps it.
    ///
    /// # Errors
    ///
    /// I/O errors from the reap propagate.
    pub fn release(&self, sb: &SuperBlock, ino: u64) -> KernelResult<()> {
        if self.note_release(ino as u32) == 0 {
            self.reap_inode(sb, ino as u32)?;
        }
        Ok(())
    }

    /// Frees an unlinked inode (no links, no open handles): releases its
    /// data blocks in chunks, the last of them in the transaction that
    /// frees the inode itself — so a file of at most one chunk is reaped
    /// in a single transaction.  Does nothing for an inode that still has
    /// links or is already free.
    fn reap_inode(&self, sb: &SuperBlock, inum: u32) -> KernelResult<()> {
        let inode = self.icache.get(inum);
        let mut data = inode.data.write();
        if !data.valid && self.load_inode(sb, inum, &mut data).is_err() {
            return Ok(());
        }
        if data.nlink > 0 {
            return Ok(());
        }
        let last_chunk = data.size.min(TRUNC_CHUNK_BYTES);
        self.truncate_chunked(sb, inum, &mut data, last_chunk)?;
        self.transaction(sb, (), || self.reap_in_transaction(sb, inum, &mut data))
    }

    /// Releases the (at most one chunk of) data blocks of a dead inode and
    /// frees it, inside the caller's transaction.
    fn reap_in_transaction(
        &self,
        sb: &SuperBlock,
        inum: u32,
        data: &mut InodeData,
    ) -> KernelResult<()> {
        debug_assert!(data.size <= TRUNC_CHUNK_BYTES);
        self.truncate_inode(sb, inum, data, 0)?;
        self.free_inode(sb, inum, data)
    }

    // -- file data -------------------------------------------------------------

    /// Reads up to `buf.len()` bytes of `ino` at `offset` into `buf`;
    /// returns the number of bytes read (clamped at end of file):
    /// [`FsCore::read_vectored`] of one buffer.
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`], I/O errors.
    pub fn read(
        &self,
        sb: &SuperBlock,
        ino: u64,
        offset: u64,
        buf: &mut [u8],
    ) -> KernelResult<usize> {
        self.read_vectored(sb, ino, offset, &mut [buf])
    }

    /// Reads the bytes of `ino` from `offset` on into `bufs`, in order
    /// (`preadv`), with one inode snapshot for all of them; returns the
    /// number of bytes read, clamped at end of file.  A page-cache fill
    /// passes the pages of one run; each whole block of file data goes
    /// straight into its page ([`FsCore::read_data`]).
    ///
    /// # Errors
    ///
    /// [`Errno::NoEnt`], I/O errors.
    pub fn read_vectored(
        &self,
        sb: &SuperBlock,
        ino: u64,
        offset: u64,
        bufs: &mut [&mut [u8]],
    ) -> KernelResult<usize> {
        let mut data = self.inode_snapshot(sb, ino as u32)?;
        let mut done = 0usize;
        for buf in bufs.iter_mut() {
            let n = self.read_data(sb, &mut data, offset + done as u64, buf)?;
            done += n;
            if n < buf.len() {
                break;
            }
        }
        Ok(done)
    }

    /// Writes `src` to `ino` at `offset`: [`FsCore::write_vectored`] of one
    /// segment of one file.
    ///
    /// # Errors
    ///
    /// [`Errno::NoSpc`], [`Errno::FBig`], I/O errors.
    pub fn write(&self, sb: &SuperBlock, ino: u64, offset: u64, src: &[u8]) -> KernelResult<usize> {
        self.write_vectored(sb, &[(ino, &[(offset, src)])])
    }

    /// Writes every `(offset, bytes)` segment of every `(ino, segments)` of
    /// `files` (sorted by ascending inode number), in as few log
    /// transactions as the log allows; returns the number of bytes
    /// written.  The segments of all the files form one stream of
    /// block-sized pieces, taken into the open transaction for as long as
    /// the blocks it has staged, the worst case of one more piece
    /// (`PIECE_WORST_BLOCKS`) and the inode block of the file being written
    /// fit [`Log::max_op_blocks`]: `staged + PIECE_WORST_BLOCKS + 1 ≤
    /// MAX_OP_BLOCKS`, checked before every piece — a file's first piece
    /// included, so a file is only opened in a transaction with room for
    /// its inode block.  When the stream moves to the next file, the
    /// finished file's inode block is logged; when the rule fails, the open
    /// file's is, and the transaction ends — and commits — and the next one
    /// opens.  A write-back pass therefore costs a commit per ~57 staged
    /// blocks, however many files and runs of pages it carries.
    ///
    /// Each file's inode lock is held only while its pieces and its inode
    /// block are staged, so locks are taken one at a time in ascending
    /// inode order, and each file's inode update goes in the transaction
    /// that carries its pieces.
    ///
    /// # Errors
    ///
    /// [`Errno::NoSpc`], [`Errno::FBig`], [`Errno::NoEnt`] for a free
    /// inode, I/O errors.  Transactions already ended stay committed, as
    /// do the pieces of the failing one staged before the error.
    pub fn write_vectored(
        &self,
        sb: &SuperBlock,
        files: &[FileSegments<'_>],
    ) -> KernelResult<usize> {
        debug_assert!(files.windows(2).all(|w| w[0].0 < w[1].0), "files in ascending inode order");
        let mut pieces = files
            .iter()
            .flat_map(|&(ino, segs)| {
                segs.iter().flat_map(move |&(offset, src)| {
                    block_pieces(offset, src).map(move |(at, piece)| (ino as u32, at, piece))
                })
            })
            .peekable();
        let room = || self.log.staged_blocks() + PIECE_WORST_BLOCKS < Log::max_op_blocks();
        let mut written = 0usize;
        while pieces.peek().is_some() {
            written += self.transaction(sb, (), || {
                let mut done = 0usize;
                while let Some(&(inum, ..)) = pieces.peek() {
                    if !room() {
                        break;
                    }
                    let inode = self.icache.get(inum);
                    let mut guard = inode.data.write();
                    self.load_inode(sb, inum, &mut guard)?;
                    while let Some((_, at, piece)) = pieces.next_if(|p| p.0 == inum && room()) {
                        self.write_piece(sb, &mut guard, at, piece)?;
                        done += piece.len();
                    }
                    self.update_inode(sb, inum, &guard)?;
                }
                self.stats.bytes_written.add(done as u64);
                Ok(done)
            })?;
        }
        Ok(written)
    }

    /// Lists the live entries of directory `ino`.
    ///
    /// # Errors
    ///
    /// [`Errno::NotDir`], [`Errno::NoEnt`].
    pub fn readdir(&self, sb: &SuperBlock, ino: u64) -> KernelResult<Vec<DirEntry>> {
        let mut data = self.inode_snapshot(sb, ino as u32)?;
        if !data.is_dir() {
            return Err(KernelError::with_context(
                Errno::NotDir,
                "xv6fs: readdir on non-directory",
            ));
        }
        self.dir_entries(sb, &mut data)
    }

    // -- whole-mount operations ------------------------------------------------

    /// Commits any group still absorbing completed operations (the
    /// pipelined log defers closing while a commit is in flight).  Every
    /// write reaches the device through the log, and a group is durable
    /// once its commit barrier returns, so there is no further device
    /// barrier: a sync that commits pays the commit's one, one that finds
    /// the log idle pays none.  (On the userspace (FUSE) provider each
    /// barrier is a whole-disk-file fsync — the §6.4 cost.)
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn sync(&self, sb: &SuperBlock) -> KernelResult<()> {
        self.log.flush(sb)
    }

    /// `fsync` of any file: [`FsCore::sync`], counted.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn fsync(&self, sb: &SuperBlock) -> KernelResult<()> {
        self.stats.fsyncs.inc();
        self.sync(sb)
    }

    /// The unmount path: commits any group still absorbing completed
    /// operations, then checkpoints — the last commit's installs become
    /// durable and its header is cleared, so the next mount replays
    /// nothing.
    ///
    /// # Errors
    ///
    /// A failed final commit surfaces here.
    pub fn unmount(&self, sb: &SuperBlock) -> KernelResult<()> {
        self.log.checkpoint(sb)
    }

    /// File system statistics, from the allocator's cached used-counts.
    ///
    /// # Errors
    ///
    /// I/O errors from the first (uncached) bitmap and inode-table scans.
    pub fn statfs(&self, sb: &SuperBlock) -> KernelResult<StatFs> {
        let total = self.total_data_blocks();
        let inodes = self.dsb().ninodes as u64;
        Ok(StatFs {
            total_blocks: total,
            free_blocks: total.saturating_sub(self.used_block_count(sb)?),
            block_size: BSIZE as u32,
            total_inodes: inodes,
            free_inodes: inodes.saturating_sub(self.used_inode_count(sb)?),
            name_max: DIRSIZ as u32,
        })
    }

    /// Write-path batching statistics (log batching + allocator spread).
    pub fn write_path_stats(&self) -> WritePathStats {
        WritePathStats {
            alloc_per_group: self.alloc.allocations_per_group(),
            ..self.log.stats().write_path_stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{NDIRECT, T_FILE};
    use crate::mkfs::mkfs_on_device;
    use bento::bentoks::KernelBlockIo;
    use bento::userspace::userspace_superblock;
    use simkernel::dev::{BlockDevice, RamDisk};
    use std::sync::Arc;

    /// Mounts the image on `dev` behind a cold buffer cache.
    fn mount(dev: &Arc<dyn BlockDevice>) -> (SuperBlock, FsCore) {
        let sb = userspace_superblock(Arc::new(KernelBlockIo::new(Arc::clone(dev), 512)), "test");
        let core = FsCore::load(&sb).unwrap();
        core.log.recover(&sb).unwrap();
        (sb, core)
    }

    /// The log-area blocks the buffer cache holds, probed without caching
    /// any: `read_uncached` counts a hit only for a block the cache holds.
    fn cached_log_blocks(sb: &SuperBlock, core: &FsCore) -> Vec<u64> {
        let (start, len) = (core.dsb().logstart as u64, core.dsb().nlog as u64);
        let mut block = vec![0u8; BSIZE];
        (start..start + len)
            .filter(|&blockno| {
                let hits = sb.cache_stats().hits;
                sb.read_uncached(blockno, &mut block).unwrap();
                sb.cache_stats().hits > hits
            })
            .collect()
    }

    #[test]
    fn the_log_area_never_enters_the_buffer_cache() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, 4096));
        mkfs_on_device(&dev, 64).unwrap();
        let write_files = |sb: &SuperBlock, core: &FsCore, prefix: &str| {
            for i in 0..6u8 {
                let ino = core.mknod(sb, 1, &format!("{prefix}{i}"), T_FILE).unwrap().ino;
                core.write(sb, ino, 0, &vec![i; 3 * BSIZE]).unwrap();
                core.fsync(sb).unwrap();
            }
        };
        {
            // Commits and fsyncs, then a crash: the mount is dropped with
            // its records live.
            let (sb, core) = mount(&dev);
            write_files(&sb, &core, "a");
            assert!(core.log.stats().commits >= 12);
            assert_eq!(cached_log_blocks(&sb, &core), Vec::<u64>::new(), "after commits");
        }
        let (sb, core) = mount(&dev);
        assert_eq!(core.log.stats().recoveries, 1, "the live records replayed");
        assert_eq!(cached_log_blocks(&sb, &core), Vec::<u64>::new(), "after recovery");
        write_files(&sb, &core, "b");
        core.unmount(&sb).unwrap();
        assert_eq!(cached_log_blocks(&sb, &core), Vec::<u64>::new(), "after the checkpoint");
        assert!(core.lookup(&sb, 1, "a5").is_ok(), "the replayed create survived");
    }

    #[test]
    fn whole_block_overwrites_do_not_read_the_blocks_they_replace() {
        const BLOCKS: u64 = NDIRECT as u64 + 8; // into the indirect range
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, 4096));
        mkfs_on_device(&dev, 64).unwrap();
        let ino = {
            let (sb, core) = mount(&dev);
            let ino = core.mknod(&sb, 1, "f", T_FILE).unwrap().ino;
            core.write(&sb, ino, 0, &vec![1u8; BLOCKS as usize * BSIZE]).unwrap();
            core.unmount(&sb).unwrap();
            ino
        };
        let at = |block: u64| block * BSIZE as u64;
        let (sb, core) = mount(&dev);
        // Warm the metadata a write needs — the inode and the indirect
        // block — so what is counted below is reads of file data only.
        assert_eq!(core.read(&sb, ino, at(BLOCKS - 1), &mut [0u8; 1]).unwrap(), 1);
        let reads = || dev.stats().reads;

        // Every block but the one just read and block 3, as one two-run
        // vectored write of whole blocks.
        let fill = vec![2u8; BSIZE];
        let segs: Vec<(u64, &[u8])> =
            (0..BLOCKS - 1).filter(|&b| b != 3).map(|b| (at(b), &fill[..])).collect();
        let before = reads();
        assert_eq!(core.write_vectored(&sb, &[(ino, &segs)]).unwrap(), segs.len() * BSIZE);
        assert_eq!(reads() - before, 0, "a whole-block overwrite needs none of the old bytes");

        // A partial overwrite of the still-cold block 3 reads it, once.
        let before = reads();
        core.write(&sb, ino, at(3) + 100, &[3u8; 200]).unwrap();
        assert_eq!(reads() - before, 1, "a partial overwrite merges into the old block");
        let mut block = vec![0u8; BSIZE];
        core.read(&sb, ino, at(3), &mut block).unwrap();
        assert!(block[..100].iter().chain(&block[300..]).all(|&b| b == 1), "old bytes kept");
        assert!(block[100..300].iter().all(|&b| b == 3));
        core.read(&sb, ino, at(4), &mut block).unwrap();
        assert!(block.iter().all(|&b| b == 2));
    }
}
