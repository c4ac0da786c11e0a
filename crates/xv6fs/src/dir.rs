//! Directory contents: lookup, link, unlink, enumeration.
//!
//! Directories are regular files whose contents are an array of fixed-size
//! [`Dirent`] slots; a slot with inode number 0 is free.  All mutation runs
//! inside the caller's transaction.

use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::DirEntry;

use bento::bentoks::SuperBlock;

use crate::core::FsCore;
use crate::inode::InodeData;
use crate::layout::{
    get_u32, validate_name, Dinode, Dirent, DiskSuperblock, BSIZE, DIRENT_SIZE, T_DIR,
};

/// What a hole in a directory reads as: free slots.
static HOLE: [u8; BSIZE] = [0; BSIZE];

/// Whether the raw slot holds a live entry named `name` (which has no NUL
/// byte): its bytes compared in place, no decode.
fn holds(slot: &[u8], name: &[u8]) -> bool {
    let raw = &slot[4..];
    get_u32(slot, 0) != 0 && raw.starts_with(name) && raw.get(name.len()).is_none_or(|&c| c == 0)
}

fn is_free(slot: &[u8]) -> bool {
    get_u32(slot, 0) == 0
}

impl FsCore {
    /// Walks the directory's slots in order, straight from each cached
    /// block, handing every raw [`DIRENT_SIZE`]-byte slot and its byte
    /// offset to `visit` until it returns `Some`.
    fn scan_dir<T>(
        &self,
        sb: &SuperBlock,
        dir_data: &mut InodeData,
        mut visit: impl FnMut(u64, &[u8]) -> Option<T>,
    ) -> KernelResult<Option<T>> {
        let mut start = 0u64;
        while start < dir_data.size {
            let len = (dir_data.size - start).min(BSIZE as u64) as usize;
            let bn = start / BSIZE as u64;
            let block = self.bmap(sb, dir_data, bn)?.map(|b| sb.bread(b)).transpose()?;
            self.stats.bytes_read.add(len as u64);
            let bytes = block.as_ref().map_or(&HOLE[..], |b| b.data());
            let usable = len - len % DIRENT_SIZE;
            for (i, slot) in bytes[..usable].chunks_exact(DIRENT_SIZE).enumerate() {
                if let Some(found) = visit(start + (i * DIRENT_SIZE) as u64, slot) {
                    return Ok(Some(found));
                }
            }
            start += BSIZE as u64;
        }
        Ok(None)
    }

    /// Looks `name` up in the directory described by `dir_data`.  Returns
    /// the entry's inode number and the byte offset of its slot.
    ///
    /// # Errors
    ///
    /// [`Errno::NotDir`] if the inode is not a directory; I/O errors
    /// propagate.
    pub fn dirlookup(
        &self,
        sb: &SuperBlock,
        dir_data: &mut InodeData,
        name: &str,
    ) -> KernelResult<Option<(u32, u64)>> {
        if !dir_data.is_dir() {
            return Err(KernelError::with_context(Errno::NotDir, "xv6fs: lookup in non-directory"));
        }
        let name = name.as_bytes();
        if name.contains(&0) {
            // No stored name holds a NUL.
            return Ok(None);
        }
        self.scan_dir(sb, dir_data, |offset, slot| {
            holds(slot, name).then(|| (get_u32(slot, 0), offset))
        })
    }

    /// Where a new entry `name` goes, found in one pass over the
    /// directory: the first free slot, or the end of the last whole one.
    ///
    /// # Errors
    ///
    /// [`Errno::Exist`] if the name is already present; name-validation and
    /// I/O errors propagate.
    pub(crate) fn dir_free_slot(
        &self,
        sb: &SuperBlock,
        dir_data: &mut InodeData,
        name: &str,
    ) -> KernelResult<u64> {
        validate_name(name)?;
        let name = name.as_bytes();
        let mut free = None;
        let taken = self.scan_dir(sb, dir_data, |offset, slot| {
            if free.is_none() && is_free(slot) {
                free = Some(offset);
            }
            holds(slot, name).then_some(())
        })?;
        if taken.is_some() {
            return Err(KernelError::with_context(Errno::Exist, "xv6fs: name already exists"));
        }
        Ok(free.unwrap_or(dir_data.size - dir_data.size % DIRENT_SIZE as u64))
    }

    /// Adds an entry `name -> inum` to the directory, reusing a free slot or
    /// appending.  Must be called inside a transaction.
    ///
    /// # Errors
    ///
    /// [`Errno::Exist`] if the name is already present; name-validation and
    /// I/O errors propagate.
    pub fn dirlink(
        &self,
        sb: &SuperBlock,
        dir_inum: u32,
        dir_data: &mut InodeData,
        name: &str,
        inum: u32,
    ) -> KernelResult<()> {
        let offset = self.dir_free_slot(sb, dir_data, name)?;
        self.dirlink_at(sb, dir_inum, dir_data, offset, name, inum)
    }

    /// Writes the entry `name -> inum` into the slot at `offset` (from
    /// [`FsCore::dir_free_slot`]).  Must be called inside a transaction.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    pub(crate) fn dirlink_at(
        &self,
        sb: &SuperBlock,
        dir_inum: u32,
        dir_data: &mut InodeData,
        offset: u64,
        name: &str,
        inum: u32,
    ) -> KernelResult<()> {
        let entry = Dirent { inum, name: name.to_string() };
        let mut encoded = [0u8; DIRENT_SIZE];
        entry.encode(&mut encoded, 0)?;
        let written = self.writei(sb, dir_inum, dir_data, offset, &encoded)?;
        if written != DIRENT_SIZE {
            return Err(KernelError::with_context(Errno::Io, "xv6fs: short directory write"));
        }
        Ok(())
    }

    /// Removes the entry at byte `offset` (as returned by
    /// [`FsCore::dirlookup`]) by zeroing its slot.  Must be called inside a
    /// transaction.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    pub fn dir_remove_at(
        &self,
        sb: &SuperBlock,
        dir_inum: u32,
        dir_data: &mut InodeData,
        offset: u64,
    ) -> KernelResult<()> {
        let zero = [0u8; DIRENT_SIZE];
        let written = self.writei(sb, dir_inum, dir_data, offset, &zero)?;
        if written != DIRENT_SIZE {
            return Err(KernelError::with_context(Errno::Io, "xv6fs: short directory clear"));
        }
        Ok(())
    }

    /// Whether the directory contains only the `.` and `..` entries.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    pub fn dir_is_empty(&self, sb: &SuperBlock, dir_data: &mut InodeData) -> KernelResult<bool> {
        let occupied = self.scan_dir(sb, dir_data, |_, slot| {
            (!is_free(slot) && !holds(slot, b".") && !holds(slot, b"..")).then_some(())
        })?;
        Ok(occupied.is_none())
    }

    /// Enumerates the live entries of the directory, resolving each entry's
    /// file type from its inode.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    pub fn dir_entries(
        &self,
        sb: &SuperBlock,
        dir_data: &mut InodeData,
    ) -> KernelResult<Vec<DirEntry>> {
        // A copy of each block, so no buffer stays locked while the
        // entries' inode blocks are read.
        let mut out = Vec::new();
        let mut block = [0u8; BSIZE];
        let mut offset = 0u64;
        while offset < dir_data.size {
            let n = self.readi(sb, dir_data, offset, &mut block)?;
            for slot in block[..n - n % DIRENT_SIZE].chunks_exact(DIRENT_SIZE) {
                if is_free(slot) {
                    continue;
                }
                let entry = Dirent::decode(slot, 0);
                // Read the referenced inode's type straight from its disk
                // block (through the buffer cache) rather than taking its
                // in-memory inode lock: readdir may encounter "." and ".."
                // whose locks are held by the caller or by concurrent
                // namespace operations, and the type is advisory anyway.
                let iblock = sb.bread(self.dsb().inode_block(entry.inum))?;
                let dinode =
                    Dinode::decode(iblock.data(), DiskSuperblock::inode_offset(entry.inum));
                let kind = InodeData::from_dinode(&dinode).file_type();
                out.push(DirEntry { ino: entry.inum as u64, name: entry.name, kind });
            }
            offset += BSIZE as u64;
        }
        Ok(out)
    }

    /// Initializes a freshly allocated directory inode with `.` and `..`
    /// entries.  Must be called inside a transaction.
    ///
    /// # Errors
    ///
    /// I/O errors propagate.
    pub fn dir_init(
        &self,
        sb: &SuperBlock,
        dir_inum: u32,
        dir_data: &mut InodeData,
        parent_inum: u32,
    ) -> KernelResult<()> {
        debug_assert_eq!(dir_data.ftype, T_DIR);
        self.dirlink(sb, dir_inum, dir_data, ".", dir_inum)?;
        self.dirlink(sb, dir_inum, dir_data, "..", parent_inum)?;
        Ok(())
    }
}
