//! Unlinking a small file is one transaction: the directory entry, the
//! data blocks and the inode all go in the commit that drops the last
//! link.  When that took three back-to-back commits (unlink, truncate,
//! ifree), a crash between them left an orphan inode — tolerated by fsck,
//! reclaimed by nothing.  Enumerating crash states across create → write →
//! unlink on both xv6 stacks must therefore never recover to an image with
//! an orphan.

use std::sync::Arc;

use crashsim::{prefix_states, sampled_states, DiskImage, FaultConfig, FaultDevice};
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::KernelResult;
use simkernel::vfs::{FileMode, VfsFs, PAGE_SIZE};
use xv6fs::layout::BSIZE;

type Mount = fn(Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>>;

fn mount_bento(dev: Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>> {
    Ok(xv6fs::fstype().mount_on(dev)? as Arc<dyn VfsFs>)
}

fn mount_vfs(dev: Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>> {
    Ok(xv6fs_vfs::Xv6VfsFilesystem::mount(dev)? as Arc<dyn VfsFs>)
}

/// Reboots into every state (mount runs recovery) and requires a clean
/// fsck with no orphan inode.
fn assert_recovers_without_orphans(name: &str, mount: Mount, states: Vec<crashsim::CrashState>) {
    for state in states {
        let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let fs = mount(Arc::clone(&disk)).unwrap();
        let report = xv6fs::fsck::fsck_device(&disk).unwrap();
        assert!(report.is_clean(), "{name}: {}: {:?}", state.description, report.errors);
        assert_eq!(report.orphan_inodes, 0, "{name}: {}", state.description);
        drop(fs);
    }
}

#[test]
fn small_file_unlink_never_recovers_to_an_orphan() {
    const DISK_BLOCKS: u64 = 4096;
    for (name, mount) in [("bento-xv6fs", mount_bento as Mount), ("vfs-xv6fs", mount_vfs as Mount)]
    {
        let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
        xv6fs::mkfs::mkfs_on_device(&base, 256).unwrap();
        let image = Arc::new(DiskImage::capture(&base).unwrap());
        let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
        {
            let fs = mount(Arc::clone(&recorder) as Arc<dyn BlockDevice>).unwrap();
            for round in 0..3u8 {
                // 14 pages: past the direct blocks, so the reap also frees
                // an indirect block.
                let file = fs.create(1, "victim", FileMode::regular()).unwrap();
                let page = vec![round + 1; PAGE_SIZE];
                for index in 0..14u64 {
                    fs.write_page(file.ino, index, &page, (index + 1) * PAGE_SIZE as u64).unwrap();
                }
                fs.unlink(1, "victim").unwrap();
            }
        }
        let trace = recorder.trace();
        let mut states = prefix_states(&trace, &image);
        states.extend(sampled_states(&trace, &image, 0x0D15_CA2D, 200));
        assert_recovers_without_orphans(name, mount, states);
    }
}

/// The single-transaction reap holds up to one truncate chunk (1 024
/// blocks) on *both* stacks — they run the same core, so there is one
/// chunk size.  Unlinking a 600-block file, more than half a chunk, is one
/// commit, and no prefix of that commit's writes recovers to an orphan or
/// an inconsistent image.
#[test]
fn a_file_within_one_truncate_chunk_is_unlinked_in_one_transaction() {
    const DISK_BLOCKS: u64 = 4096;
    const FILE_BLOCKS: u64 = 600;
    for (name, mount) in [("bento-xv6fs", mount_bento as Mount), ("vfs-xv6fs", mount_vfs as Mount)]
    {
        let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
        xv6fs::mkfs::mkfs_on_device(&base, 256).unwrap();
        {
            let fs = mount(Arc::clone(&base)).unwrap();
            let file = fs.create(1, "victim", FileMode::regular()).unwrap();
            let page = vec![0xC7u8; PAGE_SIZE];
            for index in 0..FILE_BLOCKS {
                fs.write_page(file.ino, index, &page, (index + 1) * PAGE_SIZE as u64).unwrap();
            }
            fs.destroy().unwrap();
        }
        // Only the unlink is recorded, over the image that holds the file.
        let image = Arc::new(DiskImage::capture(&base).unwrap());
        let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
        {
            let fs = mount(Arc::clone(&recorder) as Arc<dyn BlockDevice>).unwrap();
            let commits = |fs: &Arc<dyn VfsFs>| fs.write_path_stats().unwrap().log_commits;
            let before = commits(&fs);
            fs.unlink(1, "victim").unwrap();
            assert_eq!(commits(&fs) - before, 1, "{name}: unlink + reap is one transaction");
        }
        assert_recovers_without_orphans(name, mount, prefix_states(&recorder.trace(), &image));
    }
}
