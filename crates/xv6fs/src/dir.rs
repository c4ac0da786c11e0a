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
use crate::layout::{validate_name, Dinode, Dirent, DiskSuperblock, BSIZE, DIRENT_SIZE, T_DIR};

impl FsCore {
    /// Walks the directory's slots in order, a whole block of entries per
    /// read, handing each decoded slot and its byte offset to `visit`
    /// until it returns `Some`.
    fn scan_dir<T>(
        &self,
        sb: &SuperBlock,
        dir_data: &mut InodeData,
        mut visit: impl FnMut(u64, Dirent) -> KernelResult<Option<T>>,
    ) -> KernelResult<Option<T>> {
        let mut offset = 0u64;
        let mut block = vec![0u8; BSIZE];
        while offset < dir_data.size {
            let n = self.readi(sb, dir_data, offset, &mut block)?;
            if n < DIRENT_SIZE {
                break;
            }
            let usable = n - n % DIRENT_SIZE;
            for chunk in (0..usable).step_by(DIRENT_SIZE) {
                if let Some(found) = visit(offset + chunk as u64, Dirent::decode(&block, chunk))? {
                    return Ok(Some(found));
                }
            }
            offset += usable as u64;
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
        self.scan_dir(sb, dir_data, |offset, entry| {
            Ok((entry.inum != 0 && entry.name == name).then_some((entry.inum, offset)))
        })
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
        validate_name(name)?;
        if self.dirlookup(sb, dir_data, name)?.is_some() {
            return Err(KernelError::with_context(Errno::Exist, "xv6fs: name already exists"));
        }
        // The first free slot, or the end of the last whole one.
        let free =
            self.scan_dir(sb, dir_data, |offset, entry| Ok((entry.inum == 0).then_some(offset)));
        let offset = free?.unwrap_or(dir_data.size - dir_data.size % DIRENT_SIZE as u64);
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
        let occupied = self.scan_dir(sb, dir_data, |_, entry| {
            Ok((entry.inum != 0 && entry.name != "." && entry.name != "..").then_some(()))
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
        let mut out = Vec::new();
        self.scan_dir(sb, dir_data, |_, entry| {
            if entry.inum != 0 {
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
            Ok(None::<()>)
        })?;
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
