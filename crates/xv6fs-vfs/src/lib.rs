//! # xv6fs-vfs — the VFS binding of the shared xv6 core
//!
//! This is the paper's "C-Kernel" stack.  The Bento paper compares its xv6 file system behind Bento against the
//! same file system "written in C against the VFS layer" (§6.2), and finds
//! the two cost about the same.  This crate is that second stack.  It is
//! not a second file system: [`Xv6VfsFilesystem`] holds the one
//! implementation, [`xv6fs::core::FsCore`], over a kernel
//! [`SuperBlock`] and implements [`simkernel::vfs::VfsFs`] by calling it
//! directly.  Allocation, block mapping, directories, the log and its
//! recovery, fsck and `mkfs` are the `xv6fs` crate's, so the two stacks
//! cannot drift apart.
//!
//! Two things differ from the Bento stack, and they are the two the paper
//! names:
//!
//! * there is **no BentoFS and no file-operations API** between the VFS
//!   and the file system: no `Request`, no `FileSystem` trait object
//!   behind a lock, and no online upgrade (`read_pages` fills the page
//!   cache's pages of a run in place, as BentoFS's lent-page
//!   `read_vectored` does);
//! * write-back is the plain **per-page `writepage`** path: this binding
//!   keeps the trait's default `write_pages`, which walks the pass file by
//!   file and hands over one dirty page at a time, and each page is its
//!   own log transaction.  `supports_writepages()` is false: the batched
//!   `write_pages` that BentoFS inherits from the FUSE kernel module —
//!   what the paper credits for Bento's edge on large writes and untar
//!   (§6.5.2, §6.6.3) — is not this stack's.  What Bento batches is **all
//!   the dirty pages of every file in a write-back pass** (one vectored
//!   write, packed into as few transactions as the log allows); what this
//!   stack batches is **one page**.  On an identical operation stream it
//!   therefore commits exactly `pages written back − Bento's write-back
//!   transactions` more often than the Bento stack (`pages − write-back
//!   passes` while every pass fits one transaction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use bento::bentofs::DEFAULT_BUFFER_CACHE_BLOCKS;
use bento::bentoks::{KernelBlockIo, SuperBlock};
use bento::userspace::userspace_superblock;
use simkernel::dev::BlockDevice;
use simkernel::error::KernelResult;
use simkernel::vfs::{
    DirEntry, FileMode, FilesystemType, InodeAttr, MountOptions, OpenFlags, SetAttr, StatFs, VfsFs,
    WritePathStats,
};

use xv6fs::core::FsCore;
use xv6fs::layout::{BSIZE, ROOT_INO, T_DIR, T_FILE};

/// The registered name of the VFS-bound xv6 file system.
pub const VFS_XV6_NAME: &str = "xv6fs_vfs";

/// Re-export of the shared `mkfs` (the three variants share one on-disk
/// format, as in the paper).
pub use xv6fs::mkfs::mkfs_on_device;

/// The xv6 core mounted directly under the kernel VFS layer.
pub struct Xv6VfsFilesystem {
    /// The kernel block-I/O capability (buffer cache over the device).
    sb: SuperBlock,
    core: FsCore,
}

impl std::fmt::Debug for Xv6VfsFilesystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Xv6VfsFilesystem")
            .field("size", &self.core.dsb().size)
            .finish_non_exhaustive()
    }
}

impl Xv6VfsFilesystem {
    /// Mounts the file system found on `device`, over a buffer cache the
    /// size of the Bento stack's.
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`](simkernel::error::Errno::Inval) if the device does
    /// not hold an xv6 image; I/O errors propagate.
    pub fn mount(device: Arc<dyn BlockDevice>) -> KernelResult<Arc<Self>> {
        let io = KernelBlockIo::new(device, DEFAULT_BUFFER_CACHE_BLOCKS);
        let sb = userspace_superblock(Arc::new(io), VFS_XV6_NAME);
        let core = FsCore::load(&sb)?;
        core.log.recover(&sb)?;
        Ok(Arc::new(Xv6VfsFilesystem { sb, core }))
    }
}

impl VfsFs for Xv6VfsFilesystem {
    fn fs_name(&self) -> &str {
        VFS_XV6_NAME
    }

    fn root_ino(&self) -> u64 {
        ROOT_INO as u64
    }

    fn write_path_stats(&self) -> Option<WritePathStats> {
        Some(self.core.write_path_stats())
    }

    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        self.core.lookup(&self.sb, dir, name)
    }

    fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
        self.core.getattr(&self.sb, ino)
    }

    fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
        self.core.setattr(&self.sb, ino, set)
    }

    fn create(&self, dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
        self.core.mknod(&self.sb, dir, name, T_FILE)
    }

    fn mkdir(&self, dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
        self.core.mknod(&self.sb, dir, name, T_DIR)
    }

    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()> {
        self.core.remove(&self.sb, dir, name, false)
    }

    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()> {
        self.core.remove(&self.sb, dir, name, true)
    }

    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()> {
        self.core.rename(&self.sb, olddir, oldname, newdir, newname)
    }

    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        self.core.link(&self.sb, ino, newdir, newname)
    }

    fn open(&self, ino: u64, _flags: OpenFlags) -> KernelResult<u64> {
        self.core.open(&self.sb, ino)
    }

    fn release(&self, ino: u64, _fh: u64) -> KernelResult<()> {
        self.core.release(&self.sb, ino)
    }

    fn readdir(&self, ino: u64) -> KernelResult<Vec<DirEntry>> {
        self.core.readdir(&self.sb, ino)
    }

    fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize> {
        self.core.read(&self.sb, ino, page_index * BSIZE as u64, buf)
    }

    fn read_pages(
        &self,
        ino: u64,
        first_page: u64,
        pages: &mut [&mut [u8]],
    ) -> KernelResult<usize> {
        self.core.read_vectored(&self.sb, ino, first_page * BSIZE as u64, pages)
    }

    fn write_page(
        &self,
        ino: u64,
        page_index: u64,
        data: &[u8],
        file_size: u64,
    ) -> KernelResult<()> {
        // The plain `writepage` path: one transaction per page.
        let offset = page_index * BSIZE as u64;
        if offset >= file_size {
            return Ok(());
        }
        let valid = data.len().min((file_size - offset) as usize);
        self.core.write(&self.sb, ino, offset, &data[..valid]).map(|_| ())
    }

    fn supports_writepages(&self) -> bool {
        false
    }

    fn fsync(&self, _ino: u64, _datasync: bool) -> KernelResult<()> {
        self.core.fsync(&self.sb)
    }

    fn statfs(&self) -> KernelResult<StatFs> {
        self.core.statfs(&self.sb)
    }

    fn sync_fs(&self) -> KernelResult<()> {
        self.core.sync(&self.sb)
    }

    fn destroy(&self) -> KernelResult<()> {
        self.core.unmount(&self.sb)
    }
}

/// The mountable file system type for the VFS-bound xv6.
#[derive(Debug, Default, Clone, Copy)]
pub struct Xv6VfsFilesystemType;

impl FilesystemType for Xv6VfsFilesystemType {
    fn fs_name(&self) -> &str {
        VFS_XV6_NAME
    }

    fn mount(
        &self,
        device: Arc<dyn BlockDevice>,
        _options: &MountOptions,
    ) -> KernelResult<Arc<dyn VfsFs>> {
        Ok(Xv6VfsFilesystem::mount(device)? as Arc<dyn VfsFs>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use simkernel::error::Errno;
    use simkernel::vfs::Vfs;

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
