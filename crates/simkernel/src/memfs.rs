//! A complete in-memory file system.
//!
//! `MemFs` is a reference implementation of [`VfsFs`] used to test the VFS
//! layer, the page cache and the workload generators independently of the
//! xv6 implementations.  It is also handy as a "known good" oracle in
//! differential tests: the same operation sequence applied to `MemFs` and to
//! an xv6 stack must produce the same observable directory tree and file
//! contents.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::dev::BlockDevice;
use crate::error::{Errno, KernelError, KernelResult};
use crate::vfs::{
    DirEntry, FileMode, FileType, FilesystemType, InodeAttr, MountOptions, OpenFlags, SetAttr,
    StatFs, VfsFs, PAGE_SIZE,
};

#[derive(Debug)]
struct MemInode {
    kind: FileType,
    perm: u16,
    nlink: u32,
    data: Vec<u8>,
    entries: BTreeMap<String, u64>,
}

impl MemInode {
    fn new_file(perm: u16) -> Self {
        MemInode {
            kind: FileType::Regular,
            perm,
            nlink: 1,
            data: Vec::new(),
            entries: BTreeMap::new(),
        }
    }

    fn new_dir(perm: u16) -> Self {
        MemInode {
            kind: FileType::Directory,
            perm,
            nlink: 2,
            data: Vec::new(),
            entries: BTreeMap::new(),
        }
    }

    fn attr(&self, ino: u64) -> InodeAttr {
        InodeAttr {
            ino,
            kind: self.kind,
            size: self.data.len() as u64,
            nlink: self.nlink,
            blocks: (self.data.len() as u64).div_ceil(512),
            perm: self.perm,
        }
    }
}

/// A purely in-memory file system (no backing device, no durability).
#[derive(Debug)]
pub struct MemFs {
    inodes: RwLock<HashMap<u64, Arc<Mutex<MemInode>>>>,
    next_ino: AtomicU64,
}

/// The inode number of the root directory of a [`MemFs`].
pub const MEMFS_ROOT_INO: u64 = 1;

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// Creates an empty file system containing only the root directory.
    pub fn new() -> Self {
        let mut inodes = HashMap::new();
        inodes.insert(MEMFS_ROOT_INO, Arc::new(Mutex::new(MemInode::new_dir(0o755))));
        MemFs { inodes: RwLock::new(inodes), next_ino: AtomicU64::new(MEMFS_ROOT_INO + 1) }
    }

    fn inode(&self, ino: u64) -> KernelResult<Arc<Mutex<MemInode>>> {
        self.inodes
            .read()
            .get(&ino)
            .cloned()
            .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "memfs: no such inode"))
    }

    fn insert_entry(
        &self,
        dir: u64,
        name: &str,
        make: impl FnOnce() -> MemInode,
    ) -> KernelResult<InodeAttr> {
        if name.is_empty() || name.contains('/') {
            return Err(KernelError::with_context(Errno::Inval, "memfs: invalid name"));
        }
        let dir_arc = self.inode(dir)?;
        let mut dir_inode = dir_arc.lock();
        if dir_inode.kind != FileType::Directory {
            return Err(KernelError::with_context(Errno::NotDir, "memfs: parent not a directory"));
        }
        if dir_inode.entries.contains_key(name) {
            return Err(KernelError::with_context(Errno::Exist, "memfs: name exists"));
        }
        let ino = self.next_ino.fetch_add(1, Ordering::Relaxed);
        let inode = make();
        let is_dir = inode.kind == FileType::Directory;
        let attr = inode.attr(ino);
        self.inodes.write().insert(ino, Arc::new(Mutex::new(inode)));
        dir_inode.entries.insert(name.to_string(), ino);
        if is_dir {
            dir_inode.nlink += 1;
        }
        Ok(attr)
    }
}

impl VfsFs for MemFs {
    fn fs_name(&self) -> &str {
        "memfs"
    }

    fn root_ino(&self) -> u64 {
        MEMFS_ROOT_INO
    }

    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        let dir_arc = self.inode(dir)?;
        let dir_inode = dir_arc.lock();
        if dir_inode.kind != FileType::Directory {
            return Err(KernelError::with_context(Errno::NotDir, "memfs: lookup in non-directory"));
        }
        if name == "." {
            return Ok(dir_inode.attr(dir));
        }
        let ino = *dir_inode
            .entries
            .get(name)
            .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "memfs: name not found"))?;
        drop(dir_inode);
        self.getattr(ino)
    }

    fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
        Ok(self.inode(ino)?.lock().attr(ino))
    }

    fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
        let arc = self.inode(ino)?;
        let mut inode = arc.lock();
        if let Some(size) = set.size {
            if inode.kind == FileType::Directory {
                return Err(KernelError::with_context(Errno::IsDir, "memfs: truncate directory"));
            }
            inode.data.resize(size as usize, 0);
        }
        if let Some(perm) = set.perm {
            inode.perm = perm;
        }
        Ok(inode.attr(ino))
    }

    fn create(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr> {
        self.insert_entry(dir, name, || MemInode::new_file(mode.perm))
    }

    fn mkdir(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr> {
        self.insert_entry(dir, name, || MemInode::new_dir(mode.perm))
    }

    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()> {
        let dir_arc = self.inode(dir)?;
        let mut dir_inode = dir_arc.lock();
        let ino = *dir_inode
            .entries
            .get(name)
            .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "memfs: name not found"))?;
        let target_arc = self.inode(ino)?;
        let mut target = target_arc.lock();
        if target.kind == FileType::Directory {
            return Err(KernelError::with_context(Errno::IsDir, "memfs: unlink directory"));
        }
        dir_inode.entries.remove(name);
        target.nlink = target.nlink.saturating_sub(1);
        if target.nlink == 0 {
            drop(target);
            self.inodes.write().remove(&ino);
        }
        Ok(())
    }

    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()> {
        let dir_arc = self.inode(dir)?;
        let mut dir_inode = dir_arc.lock();
        let ino = *dir_inode
            .entries
            .get(name)
            .ok_or_else(|| KernelError::with_context(Errno::NoEnt, "memfs: name not found"))?;
        let target_arc = self.inode(ino)?;
        let target = target_arc.lock();
        if target.kind != FileType::Directory {
            return Err(KernelError::with_context(Errno::NotDir, "memfs: rmdir non-directory"));
        }
        if !target.entries.is_empty() {
            return Err(KernelError::with_context(Errno::NotEmpty, "memfs: directory not empty"));
        }
        dir_inode.entries.remove(name);
        dir_inode.nlink = dir_inode.nlink.saturating_sub(1);
        drop(target);
        self.inodes.write().remove(&ino);
        Ok(())
    }

    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()> {
        // Look up the source.
        let src_ino = {
            let dir_arc = self.inode(olddir)?;
            let dir_inode = dir_arc.lock();
            *dir_inode.entries.get(oldname).ok_or_else(|| {
                KernelError::with_context(Errno::NoEnt, "memfs: rename source missing")
            })?
        };
        // If a target exists, it must be removable (file or empty dir).
        let existing_target = {
            let dir_arc = self.inode(newdir)?;
            let dir_inode = dir_arc.lock();
            dir_inode.entries.get(newname).copied()
        };
        if let Some(target_ino) = existing_target {
            if target_ino != src_ino {
                let target_arc = self.inode(target_ino)?;
                let target = target_arc.lock();
                match target.kind {
                    FileType::Directory if !target.entries.is_empty() => {
                        return Err(KernelError::with_context(
                            Errno::NotEmpty,
                            "memfs: rename target directory not empty",
                        ));
                    }
                    FileType::Directory => {
                        drop(target);
                        self.rmdir(newdir, newname)?;
                    }
                    _ => {
                        drop(target);
                        self.unlink(newdir, newname)?;
                    }
                }
            }
        }
        // Remove from source directory and add to destination directory.
        {
            let dir_arc = self.inode(olddir)?;
            let mut dir_inode = dir_arc.lock();
            dir_inode.entries.remove(oldname);
        }
        {
            let dir_arc = self.inode(newdir)?;
            let mut dir_inode = dir_arc.lock();
            dir_inode.entries.insert(newname.to_string(), src_ino);
        }
        Ok(())
    }

    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        let target_arc = self.inode(ino)?;
        {
            let target = target_arc.lock();
            if target.kind == FileType::Directory {
                return Err(KernelError::with_context(Errno::Perm, "memfs: link to directory"));
            }
        }
        let dir_arc = self.inode(newdir)?;
        let mut dir_inode = dir_arc.lock();
        if dir_inode.entries.contains_key(newname) {
            return Err(KernelError::with_context(Errno::Exist, "memfs: link target exists"));
        }
        dir_inode.entries.insert(newname.to_string(), ino);
        let mut target = target_arc.lock();
        target.nlink += 1;
        Ok(target.attr(ino))
    }

    fn open(&self, ino: u64, _flags: OpenFlags) -> KernelResult<u64> {
        self.inode(ino)?;
        Ok(0)
    }

    fn release(&self, _ino: u64, _fh: u64) -> KernelResult<()> {
        Ok(())
    }

    fn readdir(&self, ino: u64) -> KernelResult<Vec<DirEntry>> {
        let arc = self.inode(ino)?;
        let inode = arc.lock();
        if inode.kind != FileType::Directory {
            return Err(KernelError::with_context(Errno::NotDir, "memfs: readdir non-directory"));
        }
        let mut entries = Vec::with_capacity(inode.entries.len());
        for (name, child_ino) in &inode.entries {
            let kind = self.inode(*child_ino)?.lock().kind;
            entries.push(DirEntry { ino: *child_ino, name: name.clone(), kind });
        }
        Ok(entries)
    }

    fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize> {
        let arc = self.inode(ino)?;
        let inode = arc.lock();
        let start = (page_index as usize).saturating_mul(PAGE_SIZE);
        if start >= inode.data.len() {
            return Ok(0);
        }
        let n = (inode.data.len() - start).min(buf.len()).min(PAGE_SIZE);
        buf[..n].copy_from_slice(&inode.data[start..start + n]);
        Ok(n)
    }

    fn write_page(
        &self,
        ino: u64,
        page_index: u64,
        data: &[u8],
        file_size: u64,
    ) -> KernelResult<()> {
        let arc = self.inode(ino)?;
        let mut inode = arc.lock();
        if inode.kind != FileType::Regular {
            return Err(KernelError::with_context(Errno::Inval, "memfs: write_page non-file"));
        }
        if (inode.data.len() as u64) < file_size {
            inode.data.resize(file_size as usize, 0);
        }
        let start = (page_index as usize) * PAGE_SIZE;
        let len = inode.data.len();
        if start >= len {
            return Ok(());
        }
        let n = data.len().min(len - start);
        inode.data[start..start + n].copy_from_slice(&data[..n]);
        Ok(())
    }

    fn fsync(&self, ino: u64, _datasync: bool) -> KernelResult<()> {
        self.inode(ino)?;
        Ok(())
    }

    fn statfs(&self) -> KernelResult<StatFs> {
        let inodes = self.inodes.read();
        Ok(StatFs {
            total_blocks: u64::MAX / 512,
            free_blocks: u64::MAX / 1024,
            block_size: PAGE_SIZE as u32,
            total_inodes: u64::MAX / 512,
            free_inodes: u64::MAX / 512 - inodes.len() as u64,
            name_max: 255,
        })
    }

    fn sync_fs(&self) -> KernelResult<()> {
        Ok(())
    }
}

/// The mountable type for [`MemFs`] (the backing device is ignored).
#[derive(Debug, Default, Clone, Copy)]
pub struct MemFilesystemType;

impl FilesystemType for MemFilesystemType {
    fn fs_name(&self) -> &str {
        "memfs"
    }

    fn mount(
        &self,
        _device: Arc<dyn BlockDevice>,
        _options: &MountOptions,
    ) -> KernelResult<Arc<dyn VfsFs>> {
        Ok(Arc::new(MemFs::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_getattr() {
        let fs = MemFs::new();
        let attr = fs.create(MEMFS_ROOT_INO, "a.txt", FileMode::regular()).unwrap();
        assert_eq!(fs.lookup(MEMFS_ROOT_INO, "a.txt").unwrap().ino, attr.ino);
        assert_eq!(fs.getattr(attr.ino).unwrap().size, 0);
        assert_eq!(fs.lookup(MEMFS_ROOT_INO, "missing").unwrap_err().errno(), Errno::NoEnt);
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = MemFs::new();
        fs.create(MEMFS_ROOT_INO, "x", FileMode::regular()).unwrap();
        assert_eq!(
            fs.create(MEMFS_ROOT_INO, "x", FileMode::regular()).unwrap_err().errno(),
            Errno::Exist
        );
    }

    #[test]
    fn write_and_read_pages() {
        let fs = MemFs::new();
        let attr = fs.create(MEMFS_ROOT_INO, "f", FileMode::regular()).unwrap();
        let page = vec![0x5Au8; PAGE_SIZE];
        fs.write_page(attr.ino, 0, &page, PAGE_SIZE as u64).unwrap();
        fs.write_page(attr.ino, 2, &page, 3 * PAGE_SIZE as u64).unwrap();
        assert_eq!(fs.getattr(attr.ino).unwrap().size, 3 * PAGE_SIZE as u64);
        let mut buf = vec![0u8; PAGE_SIZE];
        assert_eq!(fs.read_page(attr.ino, 1, &mut buf).unwrap(), PAGE_SIZE);
        assert!(buf.iter().all(|&b| b == 0), "hole must read as zeros");
        fs.read_page(attr.ino, 2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn unlink_frees_inode_link_keeps_it() {
        let fs = MemFs::new();
        let attr = fs.create(MEMFS_ROOT_INO, "orig", FileMode::regular()).unwrap();
        fs.link(attr.ino, MEMFS_ROOT_INO, "alias").unwrap();
        assert_eq!(fs.getattr(attr.ino).unwrap().nlink, 2);
        fs.unlink(MEMFS_ROOT_INO, "orig").unwrap();
        assert_eq!(fs.getattr(attr.ino).unwrap().nlink, 1);
        fs.unlink(MEMFS_ROOT_INO, "alias").unwrap();
        assert_eq!(fs.getattr(attr.ino).unwrap_err().errno(), Errno::NoEnt);
    }

    #[test]
    fn rename_replaces_existing_file() {
        let fs = MemFs::new();
        let a = fs.create(MEMFS_ROOT_INO, "a", FileMode::regular()).unwrap();
        fs.create(MEMFS_ROOT_INO, "b", FileMode::regular()).unwrap();
        fs.rename(MEMFS_ROOT_INO, "a", MEMFS_ROOT_INO, "b").unwrap();
        assert_eq!(fs.lookup(MEMFS_ROOT_INO, "b").unwrap().ino, a.ino);
        assert_eq!(fs.lookup(MEMFS_ROOT_INO, "a").unwrap_err().errno(), Errno::NoEnt);
        assert_eq!(fs.readdir(MEMFS_ROOT_INO).unwrap().len(), 1);
    }

    #[test]
    fn rmdir_rules() {
        let fs = MemFs::new();
        let d = fs.mkdir(MEMFS_ROOT_INO, "d", FileMode::directory()).unwrap();
        fs.create(d.ino, "f", FileMode::regular()).unwrap();
        assert_eq!(fs.rmdir(MEMFS_ROOT_INO, "d").unwrap_err().errno(), Errno::NotEmpty);
        fs.unlink(d.ino, "f").unwrap();
        fs.rmdir(MEMFS_ROOT_INO, "d").unwrap();
        assert_eq!(fs.lookup(MEMFS_ROOT_INO, "d").unwrap_err().errno(), Errno::NoEnt);
    }

    #[test]
    fn truncate_shrinks_and_grows() {
        let fs = MemFs::new();
        let attr = fs.create(MEMFS_ROOT_INO, "t", FileMode::regular()).unwrap();
        fs.write_page(attr.ino, 0, &vec![1u8; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        fs.setattr(attr.ino, &SetAttr::truncate(10)).unwrap();
        assert_eq!(fs.getattr(attr.ino).unwrap().size, 10);
        fs.setattr(attr.ino, &SetAttr::truncate(100)).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        let n = fs.read_page(attr.ino, 0, &mut buf).unwrap();
        assert_eq!(n, 100);
        assert_eq!(buf[5], 1);
        assert_eq!(buf[50], 0, "extended region must be zero-filled");
    }
}
