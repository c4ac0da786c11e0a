//! The VFS dentry cache stays coherent with the file system on every stack.
//!
//! Each case warms the cache with the names it is about to change, changes
//! them through the VFS (names removed, replaced, recycled or moved), and
//! then checks that `stat` and `open` through the VFS give the file
//! system's current answer: the one a walk through `VfsFs::lookup` from
//! the root gives, which no cache sits in front of.

use std::sync::Arc;

use simkernel::cost::CostModel;
use simkernel::dev::RamDisk;
use simkernel::error::{Errno, KernelResult};
use simkernel::memfs::MemFilesystemType;
use simkernel::vfs::{InodeAttr, OpenFlags, Vfs, VfsConfig, VfsFs};
use workloads::{mount_stack, FsStack};

/// What the file system itself says `path` is.
fn fs_answer(fs: &dyn VfsFs, path: &str) -> KernelResult<InodeAttr> {
    let mut attr = fs.getattr(fs.root_ino())?;
    for name in path.split('/').filter(|c| !c.is_empty()) {
        attr = fs.lookup(attr.ino, name)?;
    }
    Ok(attr)
}

struct Case<'a> {
    label: &'a str,
    vfs: &'a Vfs,
    fs: &'a dyn VfsFs,
}

impl Case<'_> {
    fn write(&self, path: &str, data: &[u8]) {
        let flags = OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::TRUNC);
        let fd =
            self.vfs.open(path, flags).unwrap_or_else(|e| panic!("{}: {path}: {e}", self.label));
        self.vfs.write(fd, data).unwrap();
        self.vfs.close(fd).unwrap();
    }

    fn read(&self, path: &str) -> Vec<u8> {
        let fd = self.vfs.open(path, OpenFlags::RDONLY).unwrap();
        let mut buf = vec![0u8; 64];
        let n = self.vfs.read(fd, &mut buf).unwrap();
        self.vfs.close(fd).unwrap();
        buf.truncate(n);
        buf
    }

    /// `stat(path)` through the VFS equals the file system's answer, error
    /// or attributes (after a `sync`, so sizes agree), and `open` reads
    /// `content` when the path names a file.
    fn check(&self, path: &str, content: Option<&[u8]>) {
        self.vfs.sync().unwrap();
        let want = fs_answer(self.fs, path).map_err(|e| e.errno());
        let got = self.vfs.stat(path).map_err(|e| e.errno());
        assert_eq!(got, want, "{}: stat {path}", self.label);
        if let Some(content) = content {
            assert_eq!(self.read(path), content, "{}: read {path}", self.label);
        }
    }

    fn gone(&self, path: &str) {
        self.check(path, None);
        assert_eq!(self.vfs.stat(path).unwrap_err().errno(), Errno::NoEnt, "{}", self.label);
    }

    fn unlink_then_recreate(&self) {
        self.vfs.mkdir("/u").unwrap();
        self.write("/u/f", b"old");
        self.check("/u/f", Some(b"old"));
        self.vfs.unlink("/u/f").unwrap();
        self.gone("/u/f");
        // The freed inode number is likely the next one handed out.
        self.write("/u/g", b"other");
        self.write("/u/f", b"new");
        self.check("/u/f", Some(b"new"));
        self.check("/u/g", Some(b"other"));
    }

    fn rename_over_existing(&self) {
        self.vfs.mkdir("/r").unwrap();
        self.write("/r/a", b"aaa");
        self.write("/r/b", b"bbbb");
        self.check("/r/a", Some(b"aaa"));
        self.check("/r/b", Some(b"bbbb"));
        self.vfs.rename("/r/a", "/r/b").unwrap();
        self.gone("/r/a");
        self.check("/r/b", Some(b"aaa"));
        self.write("/r/c", b"c");
        self.check("/r/c", Some(b"c"));
    }

    fn rmdir_then_mkdir(&self) {
        self.vfs.mkdir("/m").unwrap();
        self.vfs.mkdir("/m/sub").unwrap();
        self.write("/m/sub/x", b"x");
        self.check("/m/sub/x", Some(b"x"));
        self.vfs.unlink("/m/sub/x").unwrap();
        self.vfs.rmdir("/m/sub").unwrap();
        self.gone("/m/sub");
        self.vfs.mkdir("/m/other").unwrap();
        self.vfs.mkdir("/m/sub").unwrap();
        self.check("/m/sub", None);
        self.gone("/m/sub/x");
        self.write("/m/sub/y", b"y");
        self.check("/m/sub/y", Some(b"y"));
        self.check("/m/other", None);
    }

    fn link_then_unlink_one(&self) {
        self.vfs.mkdir("/l").unwrap();
        self.write("/l/one", b"linked");
        self.vfs.link("/l/one", "/l/two").unwrap();
        self.check("/l/one", Some(b"linked"));
        self.check("/l/two", Some(b"linked"));
        assert_eq!(self.vfs.stat("/l/two").unwrap().nlink, 2, "{}", self.label);
        self.vfs.unlink("/l/one").unwrap();
        self.gone("/l/one");
        self.check("/l/two", Some(b"linked"));
        assert_eq!(self.vfs.stat("/l/two").unwrap().nlink, 1, "{}", self.label);
    }

    fn rename_dir_across_parents(&self) {
        for dir in ["/p1", "/p2", "/p1/d"] {
            self.vfs.mkdir(dir).unwrap();
        }
        self.write("/p1/d/f", b"f");
        self.write("/p1/marker", b"p1");
        self.write("/p2/marker", b"p2");
        // MemFs has no `..` entries; the stacks do.
        let dotdot = fs_answer(self.fs, "/p1/d/..").is_ok();
        self.check("/p1/d/f", Some(b"f"));
        self.check("/p1/d/../marker", dotdot.then_some(b"p1"));
        self.vfs.rename("/p1/d", "/p2/d").unwrap();
        self.gone("/p1/d");
        self.gone("/p1/d/f");
        self.check("/p2/d/f", Some(b"f"));
        self.check("/p2/d/..", None);
        self.check("/p2/d/../marker", dotdot.then_some(b"p2"));
        if dotdot {
            assert_eq!(self.vfs.stat("/p2/d/..").unwrap().ino, self.vfs.stat("/p2").unwrap().ino);
        }
    }

    fn run_all(&self) {
        self.unlink_then_recreate();
        self.rename_over_existing();
        self.rmdir_then_mkdir();
        self.link_then_unlink_one();
        self.rename_dir_across_parents();
    }
}

#[test]
fn memfs_paths_follow_every_name_change() {
    let vfs = Vfs::new(VfsConfig::default());
    vfs.register_filesystem(Arc::new(MemFilesystemType)).unwrap();
    vfs.mount("memfs", Arc::new(RamDisk::new(4096, 16)), "/").unwrap();
    let fs = vfs.mounted_fs("/").unwrap();
    Case { label: "MemFs", vfs: &vfs, fs: &*fs }.run_all();
}

#[test]
fn every_stack_paths_follow_every_name_change() {
    for stack in FsStack::all() {
        let mounted = mount_stack(stack, CostModel::zero(), 16_384).expect("mount");
        Case { label: stack.label(), vfs: &mounted.vfs, fs: &*mounted.fs }.run_all();
        mounted.unmount_and_check().expect("clean unmount and check");
    }
}
