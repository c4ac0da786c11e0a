//! # xv6fs-vfs — the paper's "C-kernel" baseline
//!
//! The Bento paper compares its Rust xv6 file system against a baseline
//! "written in C against the VFS layer" (§6.2).  This crate is that
//! baseline, transliterated to the simulated kernel: the same on-disk
//! format (it reuses [`xv6fs::layout`] and `mkfs`, exactly as the paper's
//! three variants share one format), but implemented **directly against the
//! kernel interfaces**:
//!
//! * it implements [`simkernel::vfs::VfsFs`] itself — there is no BentoFS
//!   translation layer and no file-operations API;
//! * it uses the kernel buffer cache ([`simkernel::buffer::BufferCache`])
//!   directly, the way a C file system calls `sb_bread`/`brelse`;
//! * its writeback path is the plain `writepage` path: the page cache hands
//!   it one dirty page at a time and each page becomes its own log
//!   transaction.  It does **not** implement the batched `write_pages`
//!   (`supports_writepages()` is false), which is precisely the difference
//!   the paper credits for Bento's edge on large writes and untar
//!   (§6.5.2, §6.6.3).
//!
//! The implementation intentionally reads like a C kernel file system
//! ported function-by-function; the Bento version in the `xv6fs` crate is
//! the one written idiomatically against the safe framework APIs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;

use std::sync::Arc;

use parking_lot::RwLock;

use simkernel::buffer::BufferCache;
use simkernel::dev::BlockDevice;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::nslock::DirLockTable;
use simkernel::shard::ShardedMap;
use simkernel::vfs::{
    DirEntry, FileMode, FilesystemType, InodeAttr, MountOptions, OpenFlags, SetAttr, StatFs, VfsFs,
    WritePathStats,
};

use xv6fs::core::AllocGroups;
use xv6fs::inode::InodeData;
use xv6fs::layout::{
    get_u16, get_u32, put_u32, validate_name, Dinode, Dirent, DiskSuperblock, BPB, BSIZE,
    DIRENT_SIZE, DIRSIZ, NDIRECT, NINDIRECT, T_DIR, T_FILE, T_FREE,
};

use crate::log::VfsLog;

/// File blocks released per log transaction when freeing a large file;
/// a file of at most this many blocks is reaped inside the transaction
/// that drops its last link.
const TRUNC_CHUNK_BLOCKS: u64 = 512;

/// The registered name of the VFS baseline file system.
pub const VFS_XV6_NAME: &str = "xv6fs_vfs";

/// Re-export of the shared `mkfs` (the three variants share one on-disk
/// format, as in the paper).
pub use xv6fs::mkfs::mkfs_on_device;

/// The xv6 file system implemented directly against the kernel VFS layer.
///
/// Mirroring the Bento variant, the in-memory inode table and the
/// open-handle table are sharded ([`ShardedMap`]), the allocator is split
/// into per-allocation-group cursors ([`AllocGroups`]), and the log is the
/// pipelined group-commit [`VfsLog`].
pub struct Xv6VfsFilesystem {
    cache: BufferCache,
    dsb: DiskSuperblock,
    log: VfsLog,
    inodes: ShardedMap<u32, Arc<RwLock<InodeData>>>,
    alloc: AllocGroups,
    /// Per-directory namespace locks (ascending-inum ordering; see
    /// [`simkernel::nslock`]): directory-restructuring operations lock only
    /// the parent directories they modify.
    dir_locks: DirLockTable,
    opens: ShardedMap<u32, u32>,
}

impl std::fmt::Debug for Xv6VfsFilesystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Xv6VfsFilesystem").field("size", &self.dsb.size).finish_non_exhaustive()
    }
}

impl Xv6VfsFilesystem {
    /// Mounts the file system found on `device`.
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] if the device does not hold an xv6 image; I/O errors
    /// propagate.
    pub fn mount(device: Arc<dyn BlockDevice>) -> KernelResult<Arc<Self>> {
        Self::mount_with_options(device, &MountOptions::default())
    }

    /// Mounts with explicit options: `alloc_groups` sets the
    /// allocation-group count and `cache_shards` the buffer-cache shard
    /// count (both `0`/absent = default).
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] if the device does not hold an xv6 image; I/O errors
    /// propagate.
    pub fn mount_with_options(
        device: Arc<dyn BlockDevice>,
        options: &MountOptions,
    ) -> KernelResult<Arc<Self>> {
        let parse =
            |key: &str| options.get(key).and_then(|v| v.parse::<usize>().ok()).unwrap_or_default();
        let cache = BufferCache::with_shards(device, 4096, parse("cache_shards"));
        let dsb = {
            let sb_block = cache.bread(1)?;
            DiskSuperblock::decode(sb_block.data())?
        };
        let log = VfsLog::new(&dsb);
        let alloc = AllocGroups::new(&dsb, dsb.data_start(), parse("alloc_groups"));
        let fs = Xv6VfsFilesystem {
            cache,
            dsb,
            log,
            inodes: ShardedMap::new(0),
            alloc,
            dir_locks: DirLockTable::new(),
            opens: ShardedMap::new(0),
        };
        fs.log.recover(&fs.cache)?;
        Ok(Arc::new(fs))
    }

    fn inode(&self, inum: u32) -> Arc<RwLock<InodeData>> {
        self.inodes.get_or_insert_with(inum, || Arc::new(RwLock::new(InodeData::default())))
    }

    fn read_dinode(&self, inum: u32, data: &mut InodeData) -> KernelResult<()> {
        if data.valid {
            return Ok(());
        }
        if inum as u64 >= self.dsb.ninodes as u64 {
            return Err(KernelError::with_context(Errno::NoEnt, "xv6fs-vfs: bad inode number"));
        }
        let block = self.cache.bread(self.dsb.inode_block(inum))?;
        let dinode = Dinode::decode(block.data(), DiskSuperblock::inode_offset(inum));
        if dinode.ftype == T_FREE {
            return Err(KernelError::with_context(Errno::NoEnt, "xv6fs-vfs: free inode"));
        }
        *data = InodeData::from_dinode(&dinode);
        Ok(())
    }

    fn write_dinode(&self, inum: u32, data: &InodeData) -> KernelResult<()> {
        let blockno = self.dsb.inode_block(inum);
        let mut block = self.cache.bread(blockno)?;
        data.to_dinode().encode(block.data_mut(), DiskSuperblock::inode_offset(inum));
        self.log.log_write(&block)
    }

    fn first_data_block(&self) -> u64 {
        self.dsb.data_start()
    }

    fn balloc(&self) -> KernelResult<u64> {
        let groups = self.alloc.group_count();
        let home = self.alloc.home_group();
        for attempt in 0..groups {
            let g = (home + attempt) % groups;
            if let Some(blockno) = self.balloc_in_group(g)? {
                return Ok(blockno);
            }
        }
        Err(KernelError::with_context(Errno::NoSpc, "xv6fs-vfs: out of blocks"))
    }

    fn balloc_in_group(&self, g: usize) -> KernelResult<Option<u64>> {
        let (lo, hi) = self.alloc.block_range(g);
        if lo >= hi {
            return Ok(None);
        }
        let mut state = self.alloc.lock_group(g);
        let start = state.block_hint.clamp(lo, hi - 1);
        let found = match self.claim_free_block(start, hi)? {
            Some(b) => Some(b),
            None => self.claim_free_block(lo, start)?,
        };
        let Some(blockno) = found else {
            return Ok(None);
        };
        let zero = self.cache.getblk_zeroed(blockno)?;
        self.log.log_write(&zero)?;
        drop(zero);
        state.block_hint = if blockno + 1 < hi { blockno + 1 } else { lo };
        if let Some(u) = state.used_blocks.as_mut() {
            *u += 1;
        }
        drop(state);
        self.alloc.note_alloc(g);
        Ok(Some(blockno))
    }

    /// Scans `[from, to)` for a free bit, one `bread` per bitmap block,
    /// skipping full `0xff` bytes; claims and logs the first free bit.
    fn claim_free_block(&self, from: u64, to: u64) -> KernelResult<Option<u64>> {
        let mut blockno = from;
        while blockno < to {
            let mut bblock = self.cache.bread(self.dsb.bitmap_block(blockno))?;
            let base = blockno - (blockno % BPB as u64);
            let end = to.min(base + BPB as u64);
            let mut candidate = blockno;
            while candidate < end {
                let index = (candidate % BPB as u64) as usize;
                let byte = index / 8;
                if bblock.data()[byte] == 0xff {
                    candidate = base + (byte as u64 + 1) * 8;
                    continue;
                }
                let bit = 1u8 << (index % 8);
                if bblock.data()[byte] & bit == 0 {
                    bblock.data_mut()[byte] |= bit;
                    self.log.log_write(&bblock)?;
                    return Ok(Some(candidate));
                }
                candidate += 1;
            }
            drop(bblock);
            blockno = end;
        }
        Ok(None)
    }

    fn bfree(&self, blockno: u64) -> KernelResult<()> {
        let g = self.alloc.group_of_block(blockno);
        let mut state = self.alloc.lock_group(g);
        let index = (blockno % BPB as u64) as usize;
        let mut bblock = self.cache.bread(self.dsb.bitmap_block(blockno))?;
        if bblock.data()[index / 8] & (1 << (index % 8)) == 0 {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs-vfs: double free"));
        }
        bblock.data_mut()[index / 8] &= !(1 << (index % 8));
        self.log.log_write(&bblock)?;
        drop(bblock);
        if let Some(u) = state.used_blocks.as_mut() {
            *u = u.saturating_sub(1);
        }
        let (lo, _) = self.alloc.block_range(g);
        if blockno < state.block_hint.max(lo) {
            state.block_hint = blockno;
        }
        Ok(())
    }

    fn ialloc(&self, ftype: u16) -> KernelResult<u32> {
        let groups = self.alloc.group_count();
        let home = self.alloc.home_group();
        for attempt in 0..groups {
            let g = (home + attempt) % groups;
            if let Some(inum) = self.ialloc_in_group(g, ftype)? {
                return Ok(inum);
            }
        }
        Err(KernelError::with_context(Errno::NoSpc, "xv6fs-vfs: out of inodes"))
    }

    fn ialloc_in_group(&self, g: usize, ftype: u16) -> KernelResult<Option<u32>> {
        let (lo, hi) = self.alloc.inode_range(g);
        if lo >= hi {
            return Ok(None);
        }
        let mut state = self.alloc.lock_group(g);
        let start = state.inode_hint.clamp(lo, hi - 1);
        let claim = |from: u32, to: u32| -> KernelResult<Option<u32>> {
            let mut inum = from;
            while inum < to {
                let blockno = self.dsb.inode_block(inum);
                let mut block = self.cache.bread(blockno)?;
                let mut candidate = inum;
                while candidate < to && self.dsb.inode_block(candidate) == blockno {
                    let offset = DiskSuperblock::inode_offset(candidate);
                    if get_u16(block.data(), offset) == T_FREE {
                        Dinode { ftype, ..Dinode::default() }.encode(block.data_mut(), offset);
                        self.log.log_write(&block)?;
                        return Ok(Some(candidate));
                    }
                    candidate += 1;
                }
                drop(block);
                inum = candidate;
            }
            Ok(None)
        };
        let found = match claim(start, hi)? {
            Some(inum) => Some(inum),
            None => claim(lo, start)?,
        };
        let Some(inum) = found else {
            return Ok(None);
        };
        state.inode_hint = if inum + 1 < hi { inum + 1 } else { lo };
        drop(state);
        self.alloc.note_alloc(g);
        Ok(Some(inum))
    }

    fn bmap(&self, data: &mut InodeData, bn: u64, allocate: bool) -> KernelResult<Option<u64>> {
        let bn = bn as usize;
        if bn < NDIRECT {
            if data.addrs[bn] == 0 {
                if !allocate {
                    return Ok(None);
                }
                data.addrs[bn] = self.balloc()? as u32;
            }
            return Ok(Some(data.addrs[bn] as u64));
        }
        let bn = bn - NDIRECT;
        if bn < NINDIRECT {
            if data.addrs[NDIRECT] == 0 {
                if !allocate {
                    return Ok(None);
                }
                data.addrs[NDIRECT] = self.balloc()? as u32;
            }
            return self.indirect(data.addrs[NDIRECT] as u64, bn, allocate);
        }
        let bn = bn - NINDIRECT;
        if bn >= NINDIRECT * NINDIRECT {
            return Err(KernelError::with_context(Errno::FBig, "xv6fs-vfs: file too large"));
        }
        if data.addrs[NDIRECT + 1] == 0 {
            if !allocate {
                return Ok(None);
            }
            data.addrs[NDIRECT + 1] = self.balloc()? as u32;
        }
        let l1 = match self.indirect(data.addrs[NDIRECT + 1] as u64, bn / NINDIRECT, allocate)? {
            Some(b) => b,
            None => return Ok(None),
        };
        self.indirect(l1, bn % NINDIRECT, allocate)
    }

    fn indirect(&self, blockno: u64, index: usize, allocate: bool) -> KernelResult<Option<u64>> {
        let mut block = self.cache.bread(blockno)?;
        let current = get_u32(block.data(), index * 4);
        if current != 0 {
            return Ok(Some(current as u64));
        }
        if !allocate {
            return Ok(None);
        }
        let fresh = self.balloc()?;
        put_u32(block.data_mut(), index * 4, fresh as u32);
        self.log.log_write(&block)?;
        Ok(Some(fresh))
    }

    /// Clears the pointer that maps file block `bn` after its data block
    /// was freed.  Without this, the on-disk inode keeps referencing a
    /// freed (and soon reallocated) block — a cross-file corruption the
    /// crash harness caught in the truncate path.
    fn clear_mapping(&self, data: &mut InodeData, bn: u64) -> KernelResult<()> {
        let bn = bn as usize;
        if bn < NDIRECT {
            data.addrs[bn] = 0;
            return Ok(());
        }
        let bn = bn - NDIRECT;
        if bn < NINDIRECT {
            if data.addrs[NDIRECT] != 0 {
                self.clear_indirect_slot(data.addrs[NDIRECT] as u64, bn)?;
            }
            return Ok(());
        }
        let bn = bn - NINDIRECT;
        if data.addrs[NDIRECT + 1] != 0 {
            let l1_block = {
                let block = self.cache.bread(data.addrs[NDIRECT + 1] as u64)?;
                get_u32(block.data(), (bn / NINDIRECT) * 4)
            };
            if l1_block != 0 {
                self.clear_indirect_slot(l1_block as u64, bn % NINDIRECT)?;
            }
        }
        Ok(())
    }

    fn clear_indirect_slot(&self, blockno: u64, index: usize) -> KernelResult<()> {
        let mut block = self.cache.bread(blockno)?;
        put_u32(block.data_mut(), index * 4, 0);
        self.log.log_write(&block)
    }

    fn readi(&self, data: &mut InodeData, offset: u64, buf: &mut [u8]) -> KernelResult<usize> {
        if offset >= data.size || buf.is_empty() {
            return Ok(0);
        }
        let to_read = buf.len().min((data.size - offset) as usize);
        let mut done = 0;
        while done < to_read {
            let pos = offset + done as u64;
            let bn = pos / BSIZE as u64;
            let off = (pos % BSIZE as u64) as usize;
            let chunk = (BSIZE - off).min(to_read - done);
            match self.bmap(data, bn, false)? {
                Some(blockno) => {
                    let block = self.cache.bread(blockno)?;
                    buf[done..done + chunk].copy_from_slice(&block.data()[off..off + chunk]);
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
        Ok(done)
    }

    fn writei(
        &self,
        inum: u32,
        data: &mut InodeData,
        offset: u64,
        src: &[u8],
    ) -> KernelResult<usize> {
        let mut done = 0;
        while done < src.len() {
            let pos = offset + done as u64;
            let bn = pos / BSIZE as u64;
            let off = (pos % BSIZE as u64) as usize;
            let chunk = (BSIZE - off).min(src.len() - done);
            let blockno = self
                .bmap(data, bn, true)?
                .ok_or_else(|| KernelError::with_context(Errno::Io, "xv6fs-vfs: bmap failure"))?;
            let mut block = self.cache.bread(blockno)?;
            block.data_mut()[off..off + chunk].copy_from_slice(&src[done..done + chunk]);
            self.log.log_write(&block)?;
            drop(block);
            done += chunk;
        }
        if offset + done as u64 > data.size {
            data.size = offset + done as u64;
        }
        self.write_dinode(inum, data)?;
        Ok(done)
    }

    fn dirlookup(&self, dir: &mut InodeData, name: &str) -> KernelResult<Option<(u32, u64)>> {
        if !dir.is_dir() {
            return Err(KernelError::with_context(Errno::NotDir, "xv6fs-vfs: not a directory"));
        }
        let mut offset = 0;
        let mut slot = [0u8; DIRENT_SIZE];
        while offset < dir.size {
            if self.readi(dir, offset, &mut slot)? < DIRENT_SIZE {
                break;
            }
            let entry = Dirent::decode(&slot, 0);
            if entry.inum != 0 && entry.name == name {
                return Ok(Some((entry.inum, offset)));
            }
            offset += DIRENT_SIZE as u64;
        }
        Ok(None)
    }

    fn dirlink(
        &self,
        dir_inum: u32,
        dir: &mut InodeData,
        name: &str,
        inum: u32,
    ) -> KernelResult<()> {
        validate_name(name)?;
        if self.dirlookup(dir, name)?.is_some() {
            return Err(KernelError::with_context(Errno::Exist, "xv6fs-vfs: name exists"));
        }
        let mut offset = 0;
        let mut slot = [0u8; DIRENT_SIZE];
        while offset < dir.size {
            if self.readi(dir, offset, &mut slot)? < DIRENT_SIZE {
                break;
            }
            if Dirent::decode(&slot, 0).inum == 0 {
                break;
            }
            offset += DIRENT_SIZE as u64;
        }
        let mut encoded = [0u8; DIRENT_SIZE];
        Dirent { inum, name: name.to_string() }.encode(&mut encoded, 0)?;
        self.writei(dir_inum, dir, offset, &encoded)?;
        Ok(())
    }

    /// Frees file blocks `[start, end)` and clears their mappings, then
    /// records the shrunk size.  Each call leaves the inode consistent on
    /// disk, so a crash between chunk transactions never leaves it
    /// referencing freed blocks.  Must run inside a transaction.
    fn free_file_blocks(
        &self,
        inum: u32,
        data: &mut InodeData,
        start: u64,
        end: u64,
    ) -> KernelResult<()> {
        for b in start..end {
            if let Some(blockno) = self.bmap(data, b, false)? {
                self.bfree(blockno)?;
                self.clear_mapping(data, b)?;
            }
        }
        data.size = start * BSIZE as u64;
        self.write_dinode(inum, data)
    }

    /// Releases the (at most [`TRUNC_CHUNK_BLOCKS`]) data blocks and the
    /// indirect tree of a dead inode and marks it free on disk, inside the
    /// caller's transaction.
    fn reap_in_transaction(&self, inum: u32, data: &mut InodeData) -> KernelResult<()> {
        let blocks = data.size.div_ceil(BSIZE as u64);
        debug_assert!(blocks <= TRUNC_CHUNK_BLOCKS);
        self.free_file_blocks(inum, data, 0, blocks)?;
        if data.addrs[NDIRECT] != 0 {
            self.bfree(data.addrs[NDIRECT] as u64)?;
        }
        if data.addrs[NDIRECT + 1] != 0 {
            let l1 = self.cache.bread(data.addrs[NDIRECT + 1] as u64)?;
            let mut children = Vec::new();
            for i in 0..NINDIRECT {
                let b = get_u32(l1.data(), i * 4);
                if b != 0 {
                    children.push(b as u64);
                }
            }
            drop(l1);
            for child in children {
                self.bfree(child)?;
            }
            self.bfree(data.addrs[NDIRECT + 1] as u64)?;
        }
        let blockno = self.dsb.inode_block(inum);
        let mut block = self.cache.bread(blockno)?;
        Dinode::default().encode(block.data_mut(), DiskSuperblock::inode_offset(inum));
        self.log.log_write(&block)?;
        drop(block);
        // A racing holder of this table entry must reload (and find the
        // inode free) rather than trust the dead mappings.
        *data = InodeData::default();
        self.inodes.remove(&inum);
        Ok(())
    }

    /// Frees an unlinked inode (no links, no open handles): releases its
    /// data blocks in log-sized chunk transactions, the last chunk in the
    /// transaction that frees the inode itself — so a file of at most one
    /// chunk is reaped in a single transaction.
    fn free_inode(&self, inum: u32, data: &mut InodeData) -> KernelResult<()> {
        let mut bn = data.size.div_ceil(BSIZE as u64);
        while bn > TRUNC_CHUNK_BLOCKS {
            let start = bn - TRUNC_CHUNK_BLOCKS;
            self.log.begin_op();
            let result = self.free_file_blocks(inum, data, start, bn);
            self.log.end_op(&self.cache)?;
            result?;
            bn = start;
        }
        self.log.begin_op();
        let result = self.reap_in_transaction(inum, data);
        self.log.end_op(&self.cache)?;
        result
    }
}

impl VfsFs for Xv6VfsFilesystem {
    fn fs_name(&self) -> &str {
        VFS_XV6_NAME
    }

    fn root_ino(&self) -> u64 {
        xv6fs::layout::ROOT_INO as u64
    }

    fn write_path_stats(&self) -> Option<WritePathStats> {
        let log = self.log.stats();
        // Queue-depth figures exist only when the backing device is a
        // queued (multi-queue) model; a sync device reports zeros.
        let depth = self
            .cache
            .device()
            .as_queued()
            .map(|q| q.cost_counters().snapshot())
            .unwrap_or_default();
        Some(WritePathStats {
            log_commits: log.commits,
            log_ops: log.ops_committed,
            log_blocks: log.blocks_logged,
            log_barriers: log.barriers,
            alloc_per_group: self.alloc.allocations_per_group(),
            queue_depth_max: depth.max_inflight,
            queue_depth_sum: depth.inflight_sum,
            queue_depth_samples: depth.inflight_samples,
        })
    }

    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        let inum = {
            let arc = self.inode(dir as u32);
            let mut guard = arc.write();
            self.read_dinode(dir as u32, &mut guard)?;
            match self.dirlookup(&mut guard, name)? {
                Some((inum, _)) => inum,
                None => return Err(KernelError::with_context(Errno::NoEnt, "xv6fs-vfs: no entry")),
            }
        };
        self.getattr(inum as u64)
    }

    fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
        let arc = self.inode(ino as u32);
        let mut guard = arc.write();
        self.read_dinode(ino as u32, &mut guard)?;
        Ok(guard.attr(ino as u32))
    }

    fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
        let inum = ino as u32;
        let arc = self.inode(inum);
        let mut guard = arc.write();
        self.read_dinode(inum, &mut guard)?;
        if let Some(size) = set.size {
            if guard.is_dir() {
                return Err(KernelError::with_context(
                    Errno::IsDir,
                    "xv6fs-vfs: truncate directory",
                ));
            }
            if size < guard.size {
                // Free whole blocks beyond the new end, clearing their
                // mappings in the same transaction, and zero the tail of
                // the straddling block so later growth cannot resurrect
                // old bytes.
                self.log.begin_op();
                let result = (|| {
                    let (first_free, used) =
                        (size.div_ceil(BSIZE as u64), guard.size.div_ceil(BSIZE as u64));
                    self.free_file_blocks(inum, &mut guard, first_free, used)?;
                    if !size.is_multiple_of(BSIZE as u64) {
                        if let Some(blockno) = self.bmap(&mut guard, size / BSIZE as u64, false)? {
                            let keep = (size % BSIZE as u64) as usize;
                            let mut block = self.cache.bread(blockno)?;
                            block.data_mut()[keep..].fill(0);
                            self.log.log_write(&block)?;
                        }
                    }
                    guard.size = size;
                    self.write_dinode(inum, &guard)
                })();
                self.log.end_op(&self.cache)?;
                result?;
            } else if size > guard.size {
                self.log.begin_op();
                guard.size = size;
                let result = self.write_dinode(inum, &guard);
                self.log.end_op(&self.cache)?;
                result?;
            }
        }
        Ok(guard.attr(inum))
    }

    fn create(&self, dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
        let _dir = self.dir_locks.lock(dir);
        self.log.begin_op();
        let result = (|| {
            let dir = dir as u32;
            let arc = self.inode(dir);
            let mut parent = arc.write();
            self.read_dinode(dir, &mut parent)?;
            if self.dirlookup(&mut parent, name)?.is_some() {
                return Err(KernelError::with_context(Errno::Exist, "xv6fs-vfs: exists"));
            }
            let inum = self.ialloc(T_FILE)?;
            let child_arc = self.inode(inum);
            let mut child = child_arc.write();
            *child = InodeData { valid: true, ftype: T_FILE, nlink: 1, ..InodeData::default() };
            self.write_dinode(inum, &child)?;
            self.dirlink(dir, &mut parent, name, inum)?;
            Ok(child.attr(inum))
        })();
        // Commit outside the directory lock so concurrent creators keep
        // forming the next group while this one writes its barriers.
        drop(_dir);
        self.log.end_op(&self.cache)?;
        result
    }

    fn mkdir(&self, dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
        let _dir = self.dir_locks.lock(dir);
        self.log.begin_op();
        let result = (|| {
            let dir = dir as u32;
            let arc = self.inode(dir);
            let mut parent = arc.write();
            self.read_dinode(dir, &mut parent)?;
            if self.dirlookup(&mut parent, name)?.is_some() {
                return Err(KernelError::with_context(Errno::Exist, "xv6fs-vfs: exists"));
            }
            let inum = self.ialloc(T_DIR)?;
            let child_arc = self.inode(inum);
            let mut child = child_arc.write();
            *child = InodeData { valid: true, ftype: T_DIR, nlink: 1, ..InodeData::default() };
            self.dirlink(inum, &mut child, ".", inum)?;
            self.dirlink(inum, &mut child, "..", dir)?;
            self.write_dinode(inum, &child)?;
            parent.nlink += 1;
            self.write_dinode(dir, &parent)?;
            self.dirlink(dir, &mut parent, name, inum)?;
            Ok(child.attr(inum))
        })();
        drop(_dir);
        self.log.end_op(&self.cache)?;
        result
    }

    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()> {
        if name == "." || name == ".." {
            return Err(KernelError::with_context(
                Errno::Inval,
                "xv6fs-vfs: cannot unlink dot entries",
            ));
        }
        let _dir = self.dir_locks.lock(dir);
        self.log.begin_op();
        let reap: KernelResult<Option<u32>> = (|| {
            let dir = dir as u32;
            let arc = self.inode(dir);
            let mut parent = arc.write();
            self.read_dinode(dir, &mut parent)?;
            let (inum, offset) = self
                .dirlookup(&mut parent, name)?
                .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "xv6fs-vfs: no entry"))?;
            let child_arc = self.inode(inum);
            let mut child = child_arc.write();
            self.read_dinode(inum, &mut child)?;
            if child.is_dir() {
                return Err(KernelError::with_context(Errno::IsDir, "xv6fs-vfs: is a directory"));
            }
            let zero = [0u8; DIRENT_SIZE];
            self.writei(dir, &mut parent, offset, &zero)?;
            child.nlink = child.nlink.saturating_sub(1);
            self.write_dinode(inum, &child)?;
            if child.nlink > 0 || self.opens.get(&inum).unwrap_or(0) > 0 {
                return Ok(None);
            }
            if child.size.div_ceil(BSIZE as u64) > TRUNC_CHUNK_BLOCKS {
                // Too big for this transaction: the chunked reap below
                // runs after it commits.
                return Ok(Some(inum));
            }
            // The common case dies in the transaction that removed its
            // name: one commit, and no crash window that leaves an orphan.
            self.reap_in_transaction(inum, &mut child)?;
            Ok(None)
        })();
        drop(_dir);
        self.log.end_op(&self.cache)?;
        if let Some(inum) = reap? {
            let arc = self.inode(inum);
            let mut child = arc.write();
            self.read_dinode(inum, &mut child)?;
            self.free_inode(inum, &mut child)?;
        }
        Ok(())
    }

    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()> {
        if name == "." || name == ".." {
            return Err(KernelError::with_context(
                Errno::Inval,
                "xv6fs-vfs: cannot rmdir dot entries",
            ));
        }
        let _dir = self.dir_locks.lock(dir);
        self.log.begin_op();
        let reap: KernelResult<u32> = (|| {
            let dir = dir as u32;
            let arc = self.inode(dir);
            let mut parent = arc.write();
            self.read_dinode(dir, &mut parent)?;
            let (inum, offset) = self
                .dirlookup(&mut parent, name)?
                .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "xv6fs-vfs: no entry"))?;
            let child_arc = self.inode(inum);
            let mut child = child_arc.write();
            self.read_dinode(inum, &mut child)?;
            if !child.is_dir() {
                return Err(KernelError::with_context(Errno::NotDir, "xv6fs-vfs: not a directory"));
            }
            // Empty means only "." and "..".
            let mut offset2 = 0;
            let mut slot = [0u8; DIRENT_SIZE];
            while offset2 < child.size {
                if self.readi(&mut child, offset2, &mut slot)? < DIRENT_SIZE {
                    break;
                }
                let e = Dirent::decode(&slot, 0);
                if e.inum != 0 && e.name != "." && e.name != ".." {
                    return Err(KernelError::with_context(Errno::NotEmpty, "xv6fs-vfs: not empty"));
                }
                offset2 += DIRENT_SIZE as u64;
            }
            let zero = [0u8; DIRENT_SIZE];
            self.writei(dir, &mut parent, offset, &zero)?;
            parent.nlink = parent.nlink.saturating_sub(1);
            self.write_dinode(dir, &parent)?;
            child.nlink = 0;
            self.write_dinode(inum, &child)?;
            Ok(inum)
        })();
        drop(_dir);
        self.log.end_op(&self.cache)?;
        let inum = reap?;
        let arc = self.inode(inum);
        let mut child = arc.write();
        self.read_dinode(inum, &mut child)?;
        self.free_inode(inum, &mut child)
    }

    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()> {
        if oldname == "." || oldname == ".." || newname == "." || newname == ".." {
            return Err(KernelError::with_context(
                Errno::Inval,
                "xv6fs-vfs: cannot rename dot entries",
            ));
        }
        // Both parent directories, in ascending-inum order (same-dir rename
        // takes a single lock).
        let _ns = self.dir_locks.lock_pair(olddir, newdir);
        // Remove any existing target first (outside the main transaction the
        // same way unlink would).
        {
            let newdir32 = newdir as u32;
            let arc = self.inode(newdir32);
            let mut parent = arc.write();
            self.read_dinode(newdir32, &mut parent)?;
            let existing = self.dirlookup(&mut parent, newname)?;
            drop(parent);
            if let Some((target, _)) = existing {
                let src = {
                    let arc = self.inode(olddir as u32);
                    let mut p = arc.write();
                    self.read_dinode(olddir as u32, &mut p)?;
                    self.dirlookup(&mut p, oldname)?.map(|(i, _)| i)
                };
                if src == Some(target) {
                    return Ok(());
                }
                let target_arc = self.inode(target);
                let is_dir = {
                    let mut t = target_arc.write();
                    self.read_dinode(target, &mut t)?;
                    t.is_dir()
                };
                drop(target_arc);
                // Reuse unlink/rmdir logic after releasing the pair lock:
                // those ops take the new parent's directory lock themselves,
                // and the retry below re-acquires the pair from scratch.
                drop(_ns);
                if is_dir {
                    self.rmdir(newdir, newname)?;
                } else {
                    self.unlink(newdir, newname)?;
                }
                return self.rename(olddir, oldname, newdir, newname);
            }
        }
        self.log.begin_op();
        let result = (|| {
            let olddir32 = olddir as u32;
            let newdir32 = newdir as u32;
            let src_arc = self.inode(olddir32);
            let mut src_parent = src_arc.write();
            self.read_dinode(olddir32, &mut src_parent)?;
            let (inum, offset) = self.dirlookup(&mut src_parent, oldname)?.ok_or_else(|| {
                KernelError::with_context(Errno::NoEnt, "xv6fs-vfs: rename source missing")
            })?;
            let child_arc = self.inode(inum);
            let child_is_dir = {
                let mut child = child_arc.write();
                self.read_dinode(inum, &mut child)?;
                child.is_dir()
            };
            let zero = [0u8; DIRENT_SIZE];
            self.writei(olddir32, &mut src_parent, offset, &zero)?;
            if olddir32 == newdir32 {
                self.dirlink(olddir32, &mut src_parent, newname, inum)?;
            } else {
                if child_is_dir {
                    src_parent.nlink = src_parent.nlink.saturating_sub(1);
                    self.write_dinode(olddir32, &src_parent)?;
                }
                drop(src_parent);
                let dst_arc = self.inode(newdir32);
                let mut dst_parent = dst_arc.write();
                self.read_dinode(newdir32, &mut dst_parent)?;
                self.dirlink(newdir32, &mut dst_parent, newname, inum)?;
                if child_is_dir {
                    dst_parent.nlink += 1;
                    self.write_dinode(newdir32, &dst_parent)?;
                    // Rewrite "..".
                    let mut child = child_arc.write();
                    self.read_dinode(inum, &mut child)?;
                    if let Some((_, dotdot)) = self.dirlookup(&mut child, "..")? {
                        self.writei(inum, &mut child, dotdot, &zero)?;
                    }
                    self.dirlink(inum, &mut child, "..", newdir32)?;
                }
            }
            Ok(())
        })();
        drop(_ns);
        self.log.end_op(&self.cache)?;
        result
    }

    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        let _ns = self.dir_locks.lock(newdir);
        self.log.begin_op();
        let result = (|| {
            let inum = ino as u32;
            let arc = self.inode(inum);
            let mut data = arc.write();
            self.read_dinode(inum, &mut data)?;
            if data.is_dir() {
                return Err(KernelError::with_context(
                    Errno::Perm,
                    "xv6fs-vfs: cannot link directory",
                ));
            }
            data.nlink += 1;
            self.write_dinode(inum, &data)?;
            let attr = data.attr(inum);
            drop(data);
            let parent_arc = self.inode(newdir as u32);
            let mut parent = parent_arc.write();
            self.read_dinode(newdir as u32, &mut parent)?;
            self.dirlink(newdir as u32, &mut parent, newname, inum)?;
            Ok(attr)
        })();
        drop(_ns);
        self.log.end_op(&self.cache)?;
        result
    }

    fn open(&self, ino: u64, _flags: OpenFlags) -> KernelResult<u64> {
        self.getattr(ino)?;
        self.opens.update_or_default(ino as u32, |count| *count += 1);
        Ok(ino)
    }

    fn release(&self, ino: u64, _fh: u64) -> KernelResult<()> {
        let inum = ino as u32;
        // Decrement-and-prune atomically under the owning shard's lock.
        let remaining = self.opens.decrement_and_prune(&inum);
        if remaining == 0 {
            let arc = self.inode(inum);
            let mut data = arc.write();
            if self.read_dinode(inum, &mut data).is_ok() && data.nlink == 0 {
                self.free_inode(inum, &mut data)?;
            }
        }
        Ok(())
    }

    fn readdir(&self, ino: u64) -> KernelResult<Vec<DirEntry>> {
        let arc = self.inode(ino as u32);
        let mut data = {
            let mut guard = arc.write();
            self.read_dinode(ino as u32, &mut guard)?;
            *guard
        };
        if !data.is_dir() {
            return Err(KernelError::with_context(Errno::NotDir, "xv6fs-vfs: not a directory"));
        }
        let mut out = Vec::new();
        let mut offset = 0;
        let mut slot = [0u8; DIRENT_SIZE];
        while offset < data.size {
            if self.readi(&mut data, offset, &mut slot)? < DIRENT_SIZE {
                break;
            }
            let entry = Dirent::decode(&slot, 0);
            if entry.inum != 0 {
                let block = self.cache.bread(self.dsb.inode_block(entry.inum))?;
                let dinode = Dinode::decode(block.data(), DiskSuperblock::inode_offset(entry.inum));
                out.push(DirEntry {
                    ino: entry.inum as u64,
                    name: entry.name,
                    kind: InodeData::from_dinode(&dinode).file_type(),
                });
            }
            offset += DIRENT_SIZE as u64;
        }
        Ok(out)
    }

    fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize> {
        let arc = self.inode(ino as u32);
        let mut data = {
            let mut guard = arc.write();
            self.read_dinode(ino as u32, &mut guard)?;
            *guard
        };
        self.readi(&mut data, page_index * BSIZE as u64, buf)
    }

    fn write_page(
        &self,
        ino: u64,
        page_index: u64,
        data: &[u8],
        file_size: u64,
    ) -> KernelResult<()> {
        // The plain `writepage` path: one transaction per page.
        let inum = ino as u32;
        let offset = page_index * BSIZE as u64;
        if offset >= file_size {
            return Ok(());
        }
        let valid = data.len().min((file_size - offset) as usize);
        let arc = self.inode(inum);
        self.log.begin_op();
        let result = {
            let mut guard = arc.write();
            self.read_dinode(inum, &mut guard)
                .and_then(|()| self.writei(inum, &mut guard, offset, &data[..valid]))
        };
        self.log.end_op(&self.cache)?;
        result?;
        Ok(())
    }

    fn supports_writepages(&self) -> bool {
        false
    }

    fn fsync(&self, _ino: u64, _datasync: bool) -> KernelResult<()> {
        // Every write reaches the device through the log, and a group is
        // durable once its commit barrier returns: an fsync that commits
        // pays the commit's one barrier, one that finds the log idle
        // pays none.
        self.log.flush(&self.cache)
    }

    fn statfs(&self) -> KernelResult<StatFs> {
        let mut used = 0u64;
        for g in 0..self.alloc.group_count() {
            let mut state = self.alloc.lock_group(g);
            if let Some(u) = state.used_blocks {
                used += u;
                continue;
            }
            let (lo, hi) = self.alloc.block_range(g);
            let mut in_group = 0u64;
            let mut blockno = lo;
            while blockno < hi {
                let bblock = self.cache.bread(self.dsb.bitmap_block(blockno))?;
                let base = blockno - (blockno % BPB as u64);
                let end = hi.min(base + BPB as u64);
                for b in blockno..end {
                    let index = (b % BPB as u64) as usize;
                    if bblock.data()[index / 8] & (1 << (index % 8)) != 0 {
                        in_group += 1;
                    }
                }
                drop(bblock);
                blockno = end;
            }
            state.used_blocks = Some(in_group);
            used += in_group;
        }
        let total = (self.dsb.size as u64).saturating_sub(self.first_data_block());
        Ok(StatFs {
            total_blocks: total,
            free_blocks: total.saturating_sub(used),
            block_size: BSIZE as u32,
            total_inodes: self.dsb.ninodes as u64,
            free_inodes: 0,
            name_max: DIRSIZ as u32,
        })
    }

    fn sync_fs(&self) -> KernelResult<()> {
        // Same durability argument as fsync.
        self.log.flush(&self.cache)
    }

    fn destroy(&self) -> KernelResult<()> {
        // Checkpoint: the last commit's installs become durable and its
        // header is cleared, so the next mount replays nothing.
        self.log.checkpoint(&self.cache)
    }
}

/// The mountable file system type for the VFS baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Xv6VfsFilesystemType;

impl FilesystemType for Xv6VfsFilesystemType {
    fn fs_name(&self) -> &str {
        VFS_XV6_NAME
    }

    fn mount(
        &self,
        device: Arc<dyn BlockDevice>,
        options: &MountOptions,
    ) -> KernelResult<Arc<dyn VfsFs>> {
        Ok(Xv6VfsFilesystem::mount_with_options(device, options)? as Arc<dyn VfsFs>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use simkernel::vfs::{MountOptions, OpenFlags, Vfs};

    fn mounted() -> Arc<Xv6VfsFilesystem> {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs_on_device(&dev, 512).unwrap();
        Xv6VfsFilesystem::mount(dev).unwrap()
    }

    #[test]
    fn create_write_read_through_fs_interface() {
        let fs = mounted();
        let attr = fs.create(1, "a", FileMode::regular()).unwrap();
        let page = vec![0x11u8; BSIZE];
        fs.write_page(attr.ino, 0, &page, 100).unwrap();
        let mut buf = vec![0u8; BSIZE];
        assert_eq!(fs.read_page(attr.ino, 0, &mut buf).unwrap(), 100);
        assert!(buf[..100].iter().all(|&b| b == 0x11));
        assert_eq!(fs.getattr(attr.ino).unwrap().size, 100);
    }

    #[test]
    fn namespace_operations() {
        let fs = mounted();
        let d = fs.mkdir(1, "d", FileMode::directory()).unwrap();
        let f = fs.create(d.ino, "f", FileMode::regular()).unwrap();
        assert_eq!(fs.lookup(d.ino, "f").unwrap().ino, f.ino);
        assert_eq!(fs.rmdir(1, "d").unwrap_err().errno(), Errno::NotEmpty);
        fs.rename(d.ino, "f", 1, "g").unwrap();
        assert_eq!(fs.lookup(1, "g").unwrap().ino, f.ino);
        fs.rmdir(1, "d").unwrap();
        fs.unlink(1, "g").unwrap();
        assert_eq!(fs.lookup(1, "g").unwrap_err().errno(), Errno::NoEnt);
    }

    #[test]
    fn does_not_advertise_writepages_batching() {
        let fs = mounted();
        assert!(!fs.supports_writepages());
    }

    #[test]
    fn data_survives_remount_via_shared_format() {
        // Written by the VFS baseline, read back by the Bento implementation:
        // the two variants share one on-disk format, as in the paper.
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs_on_device(&dev, 256).unwrap();
        {
            let fs = Xv6VfsFilesystem::mount(Arc::clone(&dev)).unwrap();
            let attr = fs.create(1, "shared", FileMode::regular()).unwrap();
            fs.write_page(attr.ino, 0, &vec![0x7Au8; BSIZE], 4096).unwrap();
            fs.sync_fs().unwrap();
        }
        let bento_fs = xv6fs::fstype().mount_on(dev).unwrap();
        use simkernel::vfs::VfsFs as _;
        let found = bento_fs.lookup(1, "shared").unwrap();
        assert_eq!(found.size, 4096);
        let mut buf = vec![0u8; BSIZE];
        bento_fs.read_page(found.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x7A));
    }

    #[test]
    fn full_stack_through_vfs_and_page_cache() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs_on_device(&dev, 256).unwrap();
        let vfs = Vfs::default();
        vfs.register_filesystem(Arc::new(Xv6VfsFilesystemType)).unwrap();
        vfs.mount(VFS_XV6_NAME, dev, "/", &MountOptions::default()).unwrap();
        vfs.mkdir("/docs").unwrap();
        let fd = vfs.open("/docs/report.txt", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        vfs.write(fd, &payload).unwrap();
        vfs.fsync(fd).unwrap();
        vfs.close(fd).unwrap();
        let fd = vfs.open("/docs/report.txt", OpenFlags::RDONLY).unwrap();
        let mut back = vec![0u8; payload.len()];
        let mut read = 0;
        while read < back.len() {
            let n = vfs.read(fd, &mut back[read..]).unwrap();
            assert!(n > 0);
            read += n;
        }
        assert_eq!(back, payload);
        vfs.close(fd).unwrap();
        vfs.unmount("/").unwrap();
    }
}
