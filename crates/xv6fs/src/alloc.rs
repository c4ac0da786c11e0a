//! Block and inode allocation over per-allocation-group bitmaps.
//!
//! All allocation happens inside the caller's transaction: bitmap and inode
//! blocks are modified through the buffer cache and recorded with
//! [`Log::log_write`](crate::log::Log::log_write); a new data block's first
//! contents with [`Log::log_fresh`](crate::log::Log::log_fresh), and a
//! freed block is reported with [`Log::note_free`](crate::log::Log::note_free).  The paper's single
//! allocation lock (§6.1) is split ext4-style into one lock per
//! [`AllocGroups`](crate::core::AllocGroups) group: a thread scans only its
//! home group's slice of the bitmap (one `bread` per bitmap *block*,
//! skipping full `0xff` bytes) and steals from other groups only when its
//! own range is exhausted.

use bento::bentoks::SuperBlock;
use journal::PlantedFault;
use simkernel::error::{Errno, KernelError, KernelResult};

use crate::core::FsCore;
use crate::layout::{get_u16, Dinode, DiskSuperblock, BPB, BSIZE, T_FREE};

impl FsCore {
    /// Allocates a zeroed data block and returns its block number.  Must be
    /// called inside a transaction.
    ///
    /// # Errors
    ///
    /// [`Errno::NoSpc`] when no free block exists; I/O errors propagate.
    pub fn balloc(&self, sb: &SuperBlock) -> KernelResult<u64> {
        self.balloc_holding(sb, None)
    }

    /// Allocates the data block that `piece` — bytes at some offset of
    /// one block — is written into in this same operation, and returns its
    /// block number.  A piece that covers the whole block becomes the
    /// block's first contents: no zero fill, and no zero block staged for
    /// the journal to throw away.  A partial piece gets the zero fill, so
    /// the bytes around it never show what the block held before it was
    /// freed.  Must be called inside a transaction.
    ///
    /// # Errors
    ///
    /// As for [`FsCore::balloc`].
    pub(crate) fn balloc_for(&self, sb: &SuperBlock, piece: &[u8]) -> KernelResult<u64> {
        self.balloc_holding(sb, Some(piece))
    }

    fn balloc_holding(&self, sb: &SuperBlock, piece: Option<&[u8]>) -> KernelResult<u64> {
        let groups = self.alloc.group_count();
        let home = self.alloc.home_group();
        for attempt in 0..groups {
            let g = (home + attempt) % groups;
            if let Some(blockno) = self.balloc_in_group(sb, g, piece)? {
                return Ok(blockno);
            }
        }
        Err(KernelError::with_context(Errno::NoSpc, "xv6fs: out of data blocks"))
    }

    /// Tries to allocate from group `g`, scanning from its cursor and
    /// wrapping within the group's range; the new block holds `piece` if
    /// that covers it whole, zeros otherwise.
    fn balloc_in_group(
        &self,
        sb: &SuperBlock,
        g: usize,
        piece: Option<&[u8]>,
    ) -> KernelResult<Option<u64>> {
        let (lo, hi) = self.alloc.block_range(g);
        if lo >= hi {
            return Ok(None);
        }
        let mut state = self.alloc.lock_group(g);
        let start = state.block_hint.clamp(lo, hi - 1);
        let found = match self.claim_free_block(sb, start, hi)? {
            Some(b) => Some(b),
            None => self.claim_free_block(sb, lo, start)?,
        };
        let Some(blockno) = found else {
            return Ok(None);
        };
        // The new block's first contents: the piece that overwrites it
        // whole, else zeros, so stale contents never leak.  Staged as
        // fresh: no state recovery can produce references the block before
        // this group commits, so the commit writes it home once instead of
        // logging it and installing it three commits later.
        let first = match piece {
            Some(piece) if piece.len() == BSIZE => Some(sb.bread_with(blockno, piece)?),
            Some(_) if self.log.planted() == PlantedFault::PartialWriteSkipsZeroFill => None,
            _ => Some(sb.bread_zeroed(blockno)?),
        };
        if let Some(first) = first {
            self.log.log_fresh(&first)?;
        }
        state.block_hint = if blockno + 1 < hi { blockno + 1 } else { lo };
        if let Some(used) = state.used_blocks.as_mut() {
            *used += 1;
        }
        drop(state);
        self.alloc.note_alloc(g);
        Ok(Some(blockno))
    }

    /// Scans `[from, to)` for a free bit, one `bread` per bitmap block,
    /// skipping full bytes; claims (sets and logs) the first free bit.
    fn claim_free_block(&self, sb: &SuperBlock, from: u64, to: u64) -> KernelResult<Option<u64>> {
        let mut blockno = from;
        while blockno < to {
            let mut bblock = sb.bread(self.dsb().bitmap_block(blockno))?;
            // First block covered by this bitmap block, and the scan end
            // within it.
            let base = blockno - (blockno % BPB as u64);
            let end = to.min(base + BPB as u64);
            let mut candidate = blockno;
            while candidate < end {
                let index = (candidate % BPB as u64) as usize;
                let byte = index / 8;
                if bblock.data()[byte] == 0xff {
                    // Whole byte allocated: jump to the next byte boundary.
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

    /// Frees data block `blockno`.  Must be called inside a transaction.
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] if the block was already free (double free —
    /// precisely the class of bug Table 1 counts); I/O errors propagate.
    pub fn bfree(&self, sb: &SuperBlock, blockno: u64) -> KernelResult<()> {
        let g = self.alloc.group_of_block(blockno);
        let mut state = self.alloc.lock_group(g);
        let index = (blockno % BPB as u64) as usize;
        let byte = index / 8;
        let bit = 1u8 << (index % 8);
        let mut bblock = sb.bread(self.dsb().bitmap_block(blockno))?;
        if bblock.data()[byte] & bit == 0 {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: freeing a free block"));
        }
        bblock.data_mut()[byte] &= !bit;
        self.log.log_write(&bblock)?;
        drop(bblock);
        self.log.note_free(blockno)?;
        if let Some(used) = state.used_blocks.as_mut() {
            *used = used.saturating_sub(1);
        }
        let (lo, _) = self.alloc.block_range(g);
        if blockno < state.block_hint.max(lo) {
            state.block_hint = blockno;
        }
        Ok(())
    }

    /// Allocates an inode of type `ftype` and returns its number.  Must be
    /// called inside a transaction.
    ///
    /// # Errors
    ///
    /// [`Errno::NoSpc`] when the inode table is full; I/O errors propagate.
    pub fn ialloc(&self, sb: &SuperBlock, ftype: u16) -> KernelResult<u32> {
        let groups = self.alloc.group_count();
        let home = self.alloc.home_group();
        for attempt in 0..groups {
            let g = (home + attempt) % groups;
            if let Some(inum) = self.ialloc_in_group(sb, g, ftype)? {
                return Ok(inum);
            }
        }
        Err(KernelError::with_context(Errno::NoSpc, "xv6fs: out of inodes"))
    }

    fn ialloc_in_group(&self, sb: &SuperBlock, g: usize, ftype: u16) -> KernelResult<Option<u32>> {
        let (lo, hi) = self.alloc.inode_range(g);
        if lo >= hi {
            return Ok(None);
        }
        let mut state = self.alloc.lock_group(g);
        let start = state.inode_hint.clamp(lo, hi - 1);
        let found = match self.claim_free_inode(sb, start, hi, ftype)? {
            Some(inum) => Some(inum),
            None => self.claim_free_inode(sb, lo, start, ftype)?,
        };
        let Some(inum) = found else {
            return Ok(None);
        };
        state.inode_hint = if inum + 1 < hi { inum + 1 } else { lo };
        if let Some(used) = state.used_inodes.as_mut() {
            *used += 1;
        }
        drop(state);
        self.alloc.note_alloc(g);
        Ok(Some(inum))
    }

    /// Scans inode slots `[from, to)` for a free one, one `bread` per inode
    /// *block* (checking every slot a block holds before reading the next).
    fn claim_free_inode(
        &self,
        sb: &SuperBlock,
        from: u32,
        to: u32,
        ftype: u16,
    ) -> KernelResult<Option<u32>> {
        let mut inum = from;
        while inum < to {
            let blockno = self.dsb().inode_block(inum);
            let mut block = sb.bread(blockno)?;
            let mut candidate = inum;
            while candidate < to && self.dsb().inode_block(candidate) == blockno {
                let offset = DiskSuperblock::inode_offset(candidate);
                // The type field alone distinguishes free slots; decoding
                // the whole inode per candidate is wasted work.
                if get_u16(block.data(), offset) == T_FREE {
                    let fresh = Dinode { ftype, nlink: 0, ..Dinode::default() };
                    fresh.encode(block.data_mut(), offset);
                    self.log.log_write(&block)?;
                    return Ok(Some(candidate));
                }
                candidate += 1;
            }
            drop(block);
            inum = candidate;
        }
        Ok(None)
    }

    /// First block usable for file data (everything before it is metadata).
    pub fn first_data_block(&self) -> u64 {
        self.dsb().data_start()
    }

    /// Counts allocated data blocks (cached per group after the first
    /// scan; one `bread` per bitmap block, not per bit).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn used_block_count(&self, sb: &SuperBlock) -> KernelResult<u64> {
        let mut total = 0u64;
        for g in 0..self.alloc.group_count() {
            let mut state = self.alloc.lock_group(g);
            if let Some(used) = state.used_blocks {
                total += used;
                continue;
            }
            let (lo, hi) = self.alloc.block_range(g);
            let mut used = 0u64;
            let mut blockno = lo;
            while blockno < hi {
                let bblock = sb.bread(self.dsb().bitmap_block(blockno))?;
                let base = blockno - (blockno % BPB as u64);
                let end = hi.min(base + BPB as u64);
                for b in blockno..end {
                    let index = (b % BPB as u64) as usize;
                    if bblock.data()[index / 8] & (1 << (index % 8)) != 0 {
                        used += 1;
                    }
                }
                drop(bblock);
                blockno = end;
            }
            state.used_blocks = Some(used);
            total += used;
        }
        Ok(total)
    }

    /// Counts allocated inodes (cached per group after the first scan; one
    /// `bread` per inode block).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn used_inode_count(&self, sb: &SuperBlock) -> KernelResult<u64> {
        let mut total = 0u64;
        for g in 0..self.alloc.group_count() {
            let mut state = self.alloc.lock_group(g);
            if let Some(used) = state.used_inodes {
                total += used;
                continue;
            }
            let (lo, hi) = self.alloc.inode_range(g);
            let mut used = 0u64;
            let mut inum = lo;
            while inum < hi {
                let blockno = self.dsb().inode_block(inum);
                let block = sb.bread(blockno)?;
                while inum < hi && self.dsb().inode_block(inum) == blockno {
                    if get_u16(block.data(), DiskSuperblock::inode_offset(inum)) != T_FREE {
                        used += 1;
                    }
                    inum += 1;
                }
            }
            state.used_inodes = Some(used);
            total += used;
        }
        Ok(total)
    }

    /// Total data blocks available to files.
    pub fn total_data_blocks(&self) -> u64 {
        (self.dsb().size as u64).saturating_sub(self.first_data_block())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::T_FILE;
    use crate::mkfs::mkfs_on_device;
    use bento::bentoks::KernelBlockIo;
    use bento::userspace::userspace_superblock;
    use simkernel::dev::{BlockDevice, RamDisk};
    use std::sync::Arc;

    fn fresh_fs_with_groups(blocks: u64, groups: usize) -> (SuperBlock, FsCore) {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, blocks));
        mkfs_on_device(&dev, 256).unwrap();
        let sb = userspace_superblock(Arc::new(KernelBlockIo::new(dev, 512)), "test");
        let block = sb.bread(1).unwrap();
        let dsb = DiskSuperblock::decode(block.data()).unwrap();
        drop(block);
        (sb, FsCore::with_alloc_groups(dsb, groups))
    }

    fn fresh_fs(blocks: u64) -> (SuperBlock, FsCore) {
        fresh_fs_with_groups(blocks, 0)
    }

    #[test]
    fn balloc_returns_distinct_zeroed_blocks() {
        let (sb, core) = fresh_fs(2048);
        core.log.begin_op();
        let a = core.balloc(&sb).unwrap();
        let b = core.balloc(&sb).unwrap();
        core.log.end_op(&sb).unwrap();
        assert_ne!(a, b);
        assert!(a >= core.first_data_block());
        assert!(sb.bread(a).unwrap().data().iter().all(|&x| x == 0));
    }

    #[test]
    fn bfree_allows_reallocation_and_rejects_double_free() {
        let (sb, core) = fresh_fs(2048);
        core.log.begin_op();
        let a = core.balloc(&sb).unwrap();
        core.bfree(&sb, a).unwrap();
        assert_eq!(core.bfree(&sb, a).unwrap_err().errno(), Errno::Inval);
        let again = core.balloc(&sb).unwrap();
        core.log.end_op(&sb).unwrap();
        assert_eq!(a, again, "freed block is reused first (hint moves back)");
    }

    #[test]
    fn balloc_exhaustion_reports_nospc() {
        let (sb, core) = fresh_fs(1154);
        core.log.begin_op();
        let mut allocated = 0u64;
        loop {
            match core.balloc(&sb) {
                Ok(_) => allocated += 1,
                Err(e) => {
                    assert_eq!(e.errno(), Errno::NoSpc);
                    break;
                }
            }
            // Avoid overflowing the transaction: commit periodically.
            if allocated.is_multiple_of(16) {
                core.log.end_op(&sb).unwrap();
                core.log.begin_op();
            }
        }
        core.log.end_op(&sb).unwrap();
        assert!(allocated > 0);
        // +1: the root directory's data block was allocated by mkfs.
        assert_eq!(core.used_block_count(&sb).unwrap(), allocated + 1);
    }

    #[test]
    fn exhaustion_falls_back_to_stealing_from_other_groups() {
        // With several groups on a small disk, a thread that exhausts its
        // home range must keep allocating from the other groups until the
        // disk is genuinely full.
        let (sb, core) = fresh_fs_with_groups(1154, 4);
        assert!(core.alloc.group_count() >= 2);
        let per_group: Vec<(u64, u64)> =
            (0..core.alloc.group_count()).map(|g| core.alloc.block_range(g)).collect();
        let total_free = core.total_data_blocks() - 1; // root dir data block
        core.log.begin_op();
        let mut got = Vec::new();
        for i in 0..total_free {
            got.push(core.balloc(&sb).unwrap());
            if (i + 1).is_multiple_of(16) {
                core.log.end_op(&sb).unwrap();
                core.log.begin_op();
            }
        }
        assert_eq!(core.balloc(&sb).unwrap_err().errno(), Errno::NoSpc);
        core.log.end_op(&sb).unwrap();
        // Every group's range was drained.
        for (g, (lo, hi)) in per_group.iter().enumerate() {
            assert!(
                got.iter().any(|b| b >= lo && b < hi),
                "group {g} range [{lo}, {hi}) untouched"
            );
        }
    }

    #[test]
    fn ialloc_skips_used_slots() {
        let (sb, core) = fresh_fs(2048);
        core.log.begin_op();
        let a = core.ialloc(&sb, T_FILE).unwrap();
        let b = core.ialloc(&sb, T_FILE).unwrap();
        core.log.end_op(&sb).unwrap();
        assert_ne!(a, b);
        assert!(a >= 2, "inode 1 is the root directory created by mkfs");
        // Counting sees root + the two new inodes.
        assert_eq!(core.used_inode_count(&sb).unwrap(), 3);
    }

    #[test]
    fn group_geometry_covers_disk_exactly_once() {
        let (_sb, core) = fresh_fs_with_groups(2048, 8);
        let groups = core.alloc.group_count();
        let mut blocks_covered = 0u64;
        let mut inodes_covered = 0u64;
        for g in 0..groups {
            let (blo, bhi) = core.alloc.block_range(g);
            let (ilo, ihi) = core.alloc.inode_range(g);
            blocks_covered += bhi - blo;
            inodes_covered += (ihi - ilo) as u64;
            for b in (blo..bhi).step_by(97) {
                assert_eq!(core.alloc.group_of_block(b), g);
            }
            for i in ilo..ihi {
                assert_eq!(core.alloc.group_of_inode(i), g);
            }
        }
        assert_eq!(blocks_covered, core.dsb().size as u64 - core.first_data_block());
        assert_eq!(inodes_covered, core.dsb().ninodes as u64 - 1);
    }
}
