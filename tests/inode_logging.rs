//! An xv6 inode is logged only when its bytes change.  `FsCore::update_inode`
//! compares the inode it would write with the one its buffer already holds
//! and logs nothing when they are equal — an xv6 inode has no timestamps,
//! so an overwrite inside EOF, or a directory edit that keeps the
//! directory's size, leaves it as it was.  These tests read the log's
//! `WritePathStats` around single operations on Bento and on C-Kernel:
//!
//! * a one-page overwrite inside EOF on C-Kernel's per-page `writepage`
//!   logs its data block alone;
//! * a Bento write-back pass of overwritten pages stages their data blocks
//!   and no inode block;
//! * an unlink from a directory whose inode lives in another inode block
//!   than the victim's logs the directory's data block and the victim's
//!   inode block, not the directory's inode block;
//! * and the counter-cases, where the inode did change without its size
//!   changing first: a write that fills a hole inside EOF logs the inode
//!   (its block map changed), and an extend after a same-size `setattr`
//!   logs it too.

use std::sync::Arc;

use journal::PlantedFault;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{FileMode, SetAttr, VfsFs, PAGE_SIZE};
use workloads::{format, mount_stack_on, FsStack, MountedStack};
use xv6fs::layout::IPB;

const DISK_BLOCKS: u64 = 8192;
const PAGE: u64 = PAGE_SIZE as u64;
const KERNEL_XV6: [FsStack; 2] = [FsStack::BentoXv6, FsStack::VfsXv6];

fn mount(stack: FsStack) -> MountedStack {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, DISK_BLOCKS));
    format(stack, &dev, 256).unwrap();
    mount_stack_on(stack, dev, CostModel::zero(), PlantedFault::None).unwrap()
}

/// `(blocks, commits)` the log committed for `op`, fsynced after it so its
/// group is closed.
fn logged<T>(fs: &dyn VfsFs, op: impl FnOnce() -> T) -> (u64, u64) {
    let before = fs.write_path_stats().unwrap();
    op();
    fs.fsync(fs.root_ino(), false).unwrap();
    let after = fs.write_path_stats().unwrap();
    (after.log_blocks - before.log_blocks, after.log_commits - before.log_commits)
}

/// Writes back `pages` of `ino` (each filled with `fill`) in one pass of a
/// file `size` bytes long: one vectored write on Bento, a transaction per
/// page on C-Kernel.
fn write_back(fs: &dyn VfsFs, ino: u64, pages: &[u64], size: u64, fill: u8) {
    let page = vec![fill; PAGE_SIZE];
    let set: Vec<(u64, &[u8])> = pages.iter().map(|&index| (index, &page[..])).collect();
    fs.write_pages(&[(ino, &set, size)]).unwrap();
}

/// A file of `pages` whole pages, written back and committed.
fn file_of(fs: &dyn VfsFs, name: &str, pages: u64) -> u64 {
    let ino = fs.create(fs.root_ino(), name, FileMode::regular()).unwrap().ino;
    write_back(fs, ino, &(0..pages).collect::<Vec<_>>(), pages * PAGE, 0x11);
    fs.fsync(ino, false).unwrap();
    ino
}

/// Unmounts `mounted` and runs fsck on the image it left.
fn unmount_clean(mounted: MountedStack) {
    let stack = mounted.stack;
    mounted.unmount_and_check().unwrap_or_else(|e| panic!("{stack:?}: {e}"));
}

#[test]
fn a_one_page_overwrite_inside_eof_on_ckernel_logs_only_its_data_block() {
    let mounted = mount(FsStack::VfsXv6);
    let fs = &*mounted.fs;
    let ino = file_of(fs, "f", 2);
    assert_eq!(logged(fs, || write_back(fs, ino, &[0], 2 * PAGE, 0x22)), (1, 1));
    assert_eq!(logged(fs, || write_back(fs, ino, &[0, 1], 2 * PAGE, 0x33)), (2, 2));
    assert_eq!(fs.getattr(ino).unwrap().size, 2 * PAGE);
    unmount_clean(mounted);
}

#[test]
fn a_bento_write_back_pass_of_overwritten_pages_stages_no_inode_block() {
    let mounted = mount(FsStack::BentoXv6);
    let fs = &*mounted.fs;
    let a = file_of(fs, "a", 4);
    let b = file_of(fs, "b", 3);
    assert_eq!(logged(fs, || write_back(fs, a, &[0, 1, 2, 3], 4 * PAGE, 0x22)), (4, 1));
    // Two files in one pass: five data blocks, neither inode block.
    let page = vec![0x44; PAGE_SIZE];
    let pass = |pages: &[u64]| pages.iter().map(|&i| (i, &page[..])).collect::<Vec<_>>();
    let (set_a, set_b) = (pass(&[1, 3]), pass(&[0, 1, 2]));
    let both = || fs.write_pages(&[(a, &set_a, 4 * PAGE), (b, &set_b, 3 * PAGE)]).unwrap();
    assert_eq!(logged(fs, both), (5, 1));
    // A pass that grows one of them logs that inode's block, once.
    assert_eq!(
        logged(fs, || write_back(fs, b, &[2, 3], 4 * PAGE, 0x55)),
        (4, 1),
        "data, bitmap, inode"
    );
    unmount_clean(mounted);
}

#[test]
fn an_unlink_does_not_log_the_directory_inode_block() {
    for stack in KERNEL_XV6 {
        let mounted = mount(stack);
        let fs = &*mounted.fs;
        let dir = fs.mkdir(fs.root_ino(), "d", FileMode::directory()).unwrap().ino;
        // Push the victim's inode into a later inode block than the
        // directory's.
        for i in 0..IPB {
            fs.create(fs.root_ino(), &format!("pad{i}"), FileMode::regular()).unwrap();
        }
        let victim = fs.create(dir, "victim", FileMode::regular()).unwrap().ino;
        fs.create(dir, "keep", FileMode::regular()).unwrap();
        fs.fsync(dir, false).unwrap();
        assert_ne!(dir / IPB as u64, victim / IPB as u64, "{stack:?}: one inode block");
        let size = fs.getattr(dir).unwrap().size;
        // The directory's data block and the victim's inode block.
        assert_eq!(logged(fs, || fs.unlink(dir, "victim").unwrap()), (2, 1), "{stack:?}");
        // A create into the slot the unlink freed keeps the size too: the
        // directory's data block and the new inode's block.
        assert_eq!(
            logged(fs, || fs.create(dir, "again", FileMode::regular()).unwrap()),
            (2, 1),
            "{stack:?}"
        );
        assert_eq!(fs.getattr(dir).unwrap().size, size, "{stack:?}");
        unmount_clean(mounted);
    }
}

#[test]
fn a_hole_filled_inside_eof_logs_the_inode() {
    for stack in KERNEL_XV6 {
        let mounted = mount(stack);
        let fs = &*mounted.fs;
        let ino = fs.create(fs.root_ino(), "sparse", FileMode::regular()).unwrap().ino;
        write_back(fs, ino, &[2], 3 * PAGE, 0x11);
        fs.fsync(ino, false).unwrap();
        // Page 0 is a hole inside EOF: its write keeps the size and
        // changes the block map — data, bitmap and inode block.
        assert_eq!(logged(fs, || write_back(fs, ino, &[0], 3 * PAGE, 0x22)), (3, 1), "{stack:?}");
        assert_eq!(fs.getattr(ino).unwrap().size, 3 * PAGE, "{stack:?}");
        unmount_clean(mounted);
    }
}

#[test]
fn an_extend_after_a_same_size_setattr_logs_the_inode() {
    for stack in KERNEL_XV6 {
        let mounted = mount(stack);
        let fs = &*mounted.fs;
        let ino = file_of(fs, "f", 1);
        let (blocks, _) = logged(fs, || fs.setattr(ino, &SetAttr::truncate(PAGE)).unwrap());
        assert_eq!(blocks, 0, "{stack:?}: a same-size setattr changes no byte");
        let grow = || fs.setattr(ino, &SetAttr::truncate(5 * PAGE)).unwrap();
        assert_eq!(logged(fs, grow), (1, 1), "{stack:?}: the extend logs the inode block");
        assert_eq!(fs.getattr(ino).unwrap().size, 5 * PAGE, "{stack:?}");
        let device = Arc::clone(&mounted.device);
        unmount_clean(mounted);
        // The extend is durable.
        let remounted = mount_stack_on(stack, device, CostModel::zero(), PlantedFault::None);
        let fs = remounted.unwrap().fs;
        assert_eq!(fs.getattr(ino).unwrap().size, 5 * PAGE, "{stack:?} after a remount");
    }
}
