//! # xv6fs — the xv6 file system in safe Rust on Bento
//!
//! This crate is the file system the Bento paper evaluates (§5–§6): the xv6
//! teaching file system, ported to run inside the (simulated) Linux kernel
//! through the Bento framework, with the paper's evaluation changes:
//!
//! * 4 KiB blocks and **double-indirect** blocks so files can reach 4 GiB
//!   (§6.1);
//! * extra locks around inode and block allocation and around global mutable
//!   state (§6.1);
//! * a write-ahead log with group commit and crash recovery;
//! * online-upgrade hooks (`extract_state` / `restore_state`, §4.8).
//!
//! Because the code is written purely against the Bento file operations API
//! and the [`SuperBlock`](bento::bentoks::SuperBlock) capability, the *same*
//! implementation runs
//!
//! * in the kernel, mounted through [`bento::BentoFsType`]
//!   (wired up by [`fstype`]), and
//! * in userspace, driven by the FUSE simulation or directly by tests via
//!   [`bento::userspace`] — the paper's §4.9 debugging story.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use simkernel::dev::{BlockDevice, RamDisk};
//! use simkernel::vfs::{MountOptions, OpenFlags, Vfs};
//! use xv6fs::{fstype, mkfs::mkfs_on_device};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
//! mkfs_on_device(&dev, 512)?;
//!
//! let vfs = Vfs::default();
//! vfs.register_filesystem(Arc::new(fstype()))?;
//! vfs.mount("xv6fs_bento", dev, "/", &MountOptions::default())?;
//!
//! let fd = vfs.open("/greeting", OpenFlags::RDWR.with(OpenFlags::CREAT))?;
//! vfs.write(fd, b"hello from xv6 on Bento")?;
//! vfs.fsync(fd)?;
//! vfs.close(fd)?;
//! assert_eq!(vfs.stat("/greeting")?.size, 23);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod core;
pub mod dir;
pub mod fs;
pub mod fsck;
pub mod inode;
pub mod layout;
pub mod log;
pub mod mkfs;
pub mod ops;

pub use crate::core::FsStats;
pub use crate::fs::Xv6FileSystem;
pub use crate::log::LogStats;

use bento::bentofs::BentoFsType;

/// The conventional registered name of the Bento xv6 file system.
pub const BENTO_XV6_NAME: &str = "xv6fs_bento";

/// Returns the mountable Bento file system type for xv6fs, ready to be
/// registered with [`register_bento_fs`](bento::register_bento_fs) or the
/// VFS directly.  It reads no mount options: the allocation groups and the
/// buffer cache take their automatic shard counts.
pub fn fstype() -> BentoFsType {
    BentoFsType::new(BENTO_XV6_NAME, || Box::new(Xv6FileSystem::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bento::bentofs::BentoFs;
    use simkernel::dev::{BlockDevice, RamDisk};
    use simkernel::error::Errno;
    use simkernel::vfs::{FileMode, FileType, SetAttr, VfsFs, PAGE_SIZE};
    use std::sync::Arc;

    /// Mounts a fresh xv6 file system directly through BentoFS (no VFS/page
    /// cache), returning the concretely typed handle.
    fn mount_fresh(blocks: u64) -> Arc<BentoFs> {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, blocks));
        mkfs::mkfs_on_device(&dev, 1024).unwrap();
        fstype().mount_on(dev).unwrap()
    }

    #[test]
    fn create_lookup_getattr_roundtrip() {
        let fs = mount_fresh(4096);
        let attr = fs.create(1, "alpha", FileMode::regular()).unwrap();
        assert_eq!(attr.kind, FileType::Regular);
        assert_eq!(fs.lookup(1, "alpha").unwrap().ino, attr.ino);
        assert_eq!(fs.getattr(attr.ino).unwrap().size, 0);
        assert_eq!(fs.lookup(1, "beta").unwrap_err().errno(), Errno::NoEnt);
    }

    #[test]
    fn duplicate_create_is_rejected() {
        let fs = mount_fresh(4096);
        fs.create(1, "dup", FileMode::regular()).unwrap();
        assert_eq!(fs.create(1, "dup", FileMode::regular()).unwrap_err().errno(), Errno::Exist);
    }

    #[test]
    fn write_read_small_and_across_blocks() {
        let fs = mount_fresh(4096);
        let attr = fs.create(1, "data", FileMode::regular()).unwrap();
        // Straddle a block boundary with an odd-sized pattern.
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 253) as u8).collect();
        fs.write_page(attr.ino, 0, &vec![0u8; PAGE_SIZE], 0).unwrap(); // no-op beyond size
                                                                       // Write through the fileops write path via write_pages batching.
        let pages: Vec<Vec<u8>> = payload
            .chunks(PAGE_SIZE)
            .map(|c| {
                let mut p = c.to_vec();
                p.resize(PAGE_SIZE, 0);
                p
            })
            .collect();
        let set: Vec<(u64, &[u8])> = (0..).zip(pages.iter().map(|p| p.as_slice())).collect();
        fs.write_pages(&[(attr.ino, &set, payload.len() as u64)]).unwrap();
        assert_eq!(fs.getattr(attr.ino).unwrap().size, payload.len() as u64);
        let mut out = Vec::new();
        for page_idx in 0..pages.len() as u64 {
            let mut buf = vec![0u8; PAGE_SIZE];
            let n = fs.read_page(attr.ino, page_idx, &mut buf).unwrap();
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, payload);
    }

    #[test]
    fn data_survives_remount() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
        mkfs::mkfs_on_device(&dev, 256).unwrap();
        let ino;
        {
            let fs = fstype().mount_on(Arc::clone(&dev)).unwrap();
            let attr = fs.create(1, "persist", FileMode::regular()).unwrap();
            ino = attr.ino;
            fs.write_page(attr.ino, 0, &vec![0xABu8; PAGE_SIZE], 4096).unwrap();
            fs.sync_fs().unwrap();
            fs.destroy().unwrap();
        }
        let fs = fstype().mount_on(dev).unwrap();
        let found = fs.lookup(1, "persist").unwrap();
        assert_eq!(found.ino, ino);
        assert_eq!(found.size, 4096);
        let mut buf = vec![0u8; PAGE_SIZE];
        fs.read_page(found.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn unlink_frees_space_and_name() {
        let fs = mount_fresh(4096);
        let before = fs.statfs().unwrap().free_blocks;
        let attr = fs.create(1, "victim", FileMode::regular()).unwrap();
        fs.write_page(attr.ino, 0, &vec![1u8; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        let during = fs.statfs().unwrap().free_blocks;
        assert!(during < before);
        fs.unlink(1, "victim").unwrap();
        assert_eq!(fs.lookup(1, "victim").unwrap_err().errno(), Errno::NoEnt);
        let after = fs.statfs().unwrap().free_blocks;
        assert_eq!(after, before, "blocks are returned to the allocator");
        assert_eq!(fs.unlink(1, "victim").unwrap_err().errno(), Errno::NoEnt);
    }

    #[test]
    fn mkdir_rmdir_nesting_and_errors() {
        let fs = mount_fresh(4096);
        let d = fs.mkdir(1, "dir", FileMode::directory()).unwrap();
        let sub = fs.mkdir(d.ino, "sub", FileMode::directory()).unwrap();
        let f = fs.create(sub.ino, "leaf", FileMode::regular()).unwrap();
        // Parent link counts: root gained a child dir.
        assert!(fs.getattr(1).unwrap().nlink >= 2);
        assert_eq!(fs.rmdir(d.ino, "sub").unwrap_err().errno(), Errno::NotEmpty);
        assert_eq!(fs.unlink(d.ino, "sub").unwrap_err().errno(), Errno::IsDir);
        assert_eq!(fs.rmdir(sub.ino, "leaf").unwrap_err().errno(), Errno::NotDir);
        fs.unlink(sub.ino, "leaf").unwrap();
        let _ = f;
        fs.rmdir(d.ino, "sub").unwrap();
        fs.rmdir(1, "dir").unwrap();
        assert_eq!(fs.lookup(1, "dir").unwrap_err().errno(), Errno::NoEnt);
    }

    #[test]
    fn readdir_lists_entries_with_types() {
        let fs = mount_fresh(4096);
        fs.create(1, "file1", FileMode::regular()).unwrap();
        fs.mkdir(1, "dir1", FileMode::directory()).unwrap();
        let entries = fs.readdir(1).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"."));
        assert!(names.contains(&".."));
        assert!(names.contains(&"file1"));
        assert!(names.contains(&"dir1"));
        let dir1 = entries.iter().find(|e| e.name == "dir1").unwrap();
        assert_eq!(dir1.kind, FileType::Directory);
        let file1 = entries.iter().find(|e| e.name == "file1").unwrap();
        assert_eq!(file1.kind, FileType::Regular);
    }

    #[test]
    fn a_create_takes_the_first_free_slot_and_names_match_exactly() {
        let fs = mount_fresh(4096);
        for name in ["a", "b", "c"] {
            fs.create(1, name, FileMode::regular()).unwrap();
        }
        fs.unlink(1, "b").unwrap();
        fs.create(1, "e", FileMode::regular()).unwrap();
        let names: Vec<String> = fs.readdir(1).unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, [".", "..", "a", "e", "c"]);

        let longest = "n".repeat(layout::DIRSIZ);
        let ino = fs.create(1, &longest, FileMode::regular()).unwrap().ino;
        assert_eq!(fs.lookup(1, &longest).unwrap().ino, ino);
        assert_eq!(fs.lookup(1, &longest[1..]).unwrap_err().errno(), Errno::NoEnt);
        assert_eq!(fs.lookup(1, "a\0").unwrap_err().errno(), Errno::NoEnt);
        assert_eq!(fs.lookup(1, "").unwrap_err().errno(), Errno::NoEnt);

        // A name that cannot be stored fails before an inode is taken.
        let free = fs.statfs().unwrap().free_inodes;
        let too_long = "n".repeat(layout::DIRSIZ + 1);
        let err = fs.create(1, &too_long, FileMode::regular()).unwrap_err();
        assert_eq!(err.errno(), Errno::NameTooLong);
        assert_eq!(fs.statfs().unwrap().free_inodes, free);
    }

    #[test]
    fn rename_within_and_across_directories() {
        let fs = mount_fresh(4096);
        let d1 = fs.mkdir(1, "d1", FileMode::directory()).unwrap();
        let d2 = fs.mkdir(1, "d2", FileMode::directory()).unwrap();
        let f = fs.create(d1.ino, "f", FileMode::regular()).unwrap();
        fs.write_page(f.ino, 0, &vec![7u8; PAGE_SIZE], 128).unwrap();
        // Same-directory rename.
        fs.rename(d1.ino, "f", d1.ino, "g").unwrap();
        assert_eq!(fs.lookup(d1.ino, "f").unwrap_err().errno(), Errno::NoEnt);
        assert_eq!(fs.lookup(d1.ino, "g").unwrap().ino, f.ino);
        // Cross-directory rename.
        fs.rename(d1.ino, "g", d2.ino, "h").unwrap();
        assert_eq!(fs.lookup(d2.ino, "h").unwrap().ino, f.ino);
        assert_eq!(fs.lookup(d2.ino, "h").unwrap().size, 128);
        // Rename replacing an existing target.
        let other = fs.create(d2.ino, "other", FileMode::regular()).unwrap();
        fs.rename(d2.ino, "h", d2.ino, "other").unwrap();
        assert_eq!(fs.lookup(d2.ino, "other").unwrap().ino, f.ino);
        assert_ne!(other.ino, f.ino);
        // Moving a directory updates "..".
        fs.rename(1, "d1", d2.ino, "moved").unwrap();
        let moved = fs.lookup(d2.ino, "moved").unwrap();
        let dotdot = fs.lookup(moved.ino, "..").unwrap();
        assert_eq!(dotdot.ino, d2.ino);
    }

    #[test]
    fn hard_links_share_data_and_counts() {
        let fs = mount_fresh(4096);
        let f = fs.create(1, "orig", FileMode::regular()).unwrap();
        fs.write_page(f.ino, 0, &vec![5u8; PAGE_SIZE], 64).unwrap();
        let linked = fs.link(f.ino, 1, "alias").unwrap();
        assert_eq!(linked.nlink, 2);
        fs.unlink(1, "orig").unwrap();
        let via_alias = fs.lookup(1, "alias").unwrap();
        assert_eq!(via_alias.ino, f.ino);
        assert_eq!(via_alias.nlink, 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        let n = fs.read_page(f.ino, 0, &mut buf).unwrap();
        assert_eq!(n, 64);
        assert!(buf[..64].iter().all(|&b| b == 5));
    }

    #[test]
    fn truncate_shrinks_and_frees_blocks() {
        let fs = mount_fresh(8192);
        let f = fs.create(1, "big", FileMode::regular()).unwrap();
        let pages: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; PAGE_SIZE]).collect();
        let set: Vec<(u64, &[u8])> = (0..).zip(pages.iter().map(|p| p.as_slice())).collect();
        fs.write_pages(&[(f.ino, &set, (64 * PAGE_SIZE) as u64)]).unwrap();
        let free_before = fs.statfs().unwrap().free_blocks;
        fs.setattr(f.ino, &SetAttr::truncate(PAGE_SIZE as u64 + 100)).unwrap();
        assert_eq!(fs.getattr(f.ino).unwrap().size, PAGE_SIZE as u64 + 100);
        let free_after = fs.statfs().unwrap().free_blocks;
        assert!(free_after > free_before, "truncate must free blocks");
        // The byte just past the new size reads as zero after re-extension.
        fs.setattr(f.ino, &SetAttr::truncate((4 * PAGE_SIZE) as u64)).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        fs.read_page(f.ino, 1, &mut buf).unwrap();
        assert_eq!(buf[100], 0);
        assert_eq!(buf[50], 1, "bytes before the truncate point survive");
    }

    #[test]
    fn file_grows_into_indirect_and_double_indirect_blocks() {
        // NDIRECT = 12 blocks = 48 KiB; write 3 MiB to exercise the single
        // indirect block, then seek far out to exercise the double indirect.
        let fs = mount_fresh(16384);
        let f = fs.create(1, "huge", FileMode::regular()).unwrap();
        let chunk = vec![0xEEu8; PAGE_SIZE];
        let far_page = (12 + 1024 + 5) as u64; // inside the double-indirect range
        let set: Vec<(u64, &[u8])> = (0..16).map(|index| (index, chunk.as_slice())).collect();
        fs.write_pages(&[(f.ino, &set, (16 * PAGE_SIZE) as u64)]).unwrap();
        fs.write_page(f.ino, far_page, &chunk, (far_page + 1) * PAGE_SIZE as u64).unwrap();
        let attr = fs.getattr(f.ino).unwrap();
        assert_eq!(attr.size, (far_page + 1) * PAGE_SIZE as u64);
        // The hole in the middle reads as zeros.
        let mut buf = vec![0u8; PAGE_SIZE];
        fs.read_page(f.ino, 500, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        fs.read_page(f.ino, far_page, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xEE));
        // Deleting the huge file returns every block.
        let free_before_delete = fs.statfs().unwrap().free_blocks;
        fs.unlink(1, "huge").unwrap();
        assert!(fs.statfs().unwrap().free_blocks > free_before_delete);
    }

    #[test]
    fn out_of_space_is_reported_and_recoverable() {
        // A deliberately tiny file system: 86 blocks past the log area.
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 1114));
        mkfs::mkfs_on_device(&dev, 64).unwrap();
        let fs = fstype().mount_on(dev).unwrap();
        let f = fs.create(1, "filler", FileMode::regular()).unwrap();
        let page = vec![9u8; PAGE_SIZE];
        let mut wrote = 0u64;
        let err = loop {
            match fs.write_page(f.ino, wrote, &page, (wrote + 1) * PAGE_SIZE as u64) {
                Ok(()) => wrote += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err.errno(), Errno::NoSpc);
        assert!(wrote > 0);
        // Freeing the file makes space available again.
        fs.unlink(1, "filler").unwrap();
        let again = fs.create(1, "after", FileMode::regular()).unwrap();
        fs.write_page(again.ino, 0, &page, PAGE_SIZE as u64).unwrap();
    }

    #[test]
    fn unlinked_but_open_file_is_reaped_at_release() {
        let fs = mount_fresh(4096);
        let f = fs.create(1, "tmp", FileMode::regular()).unwrap();
        let fh = fs.open(f.ino, simkernel::vfs::OpenFlags::RDWR).unwrap();
        fs.write_page(f.ino, 0, &vec![3u8; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        let free_before = fs.statfs().unwrap().free_blocks;
        fs.unlink(1, "tmp").unwrap();
        // Still open: data block not yet reclaimed.
        assert_eq!(fs.statfs().unwrap().free_blocks, free_before);
        fs.release(f.ino, fh).unwrap();
        assert!(fs.statfs().unwrap().free_blocks > free_before);
    }

    #[test]
    fn online_upgrade_preserves_disk_state_and_counters() {
        let fs = mount_fresh(4096);
        let f = fs.create(1, "kept", FileMode::regular()).unwrap();
        fs.write_page(f.ino, 0, &vec![0x44u8; PAGE_SIZE], 2048).unwrap();
        let creates_before = 1;
        let report = fs
            .upgrade(Box::new(Xv6FileSystem::with_label("xv6fs-v2")))
            .expect("upgrade with state transfer");
        assert!(report.state_transfer);
        assert!(report.transferred_entries > 0);
        // Directory tree and data are still there.
        let found = fs.lookup(1, "kept").unwrap();
        assert_eq!(found.size, 2048);
        let mut buf = vec![0u8; PAGE_SIZE];
        let n = fs.read_page(found.ino, 0, &mut buf).unwrap();
        assert_eq!(n, 2048);
        assert!(buf[..2048].iter().all(|&b| b == 0x44));
        // New files keep working after the swap.
        fs.create(1, "post-upgrade", FileMode::regular()).unwrap();
        let _ = creates_before;
    }

    #[test]
    fn concurrent_creates_and_writes_from_many_threads() {
        use std::thread;
        let fs = mount_fresh(8192);
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let fs = Arc::clone(&fs);
            handles.push(thread::spawn(move || {
                let dir = fs.mkdir(1, &format!("t{t}"), FileMode::directory()).unwrap();
                for i in 0..16u32 {
                    let f = fs.create(dir.ino, &format!("f{i}"), FileMode::regular()).unwrap();
                    fs.write_page(f.ino, 0, &vec![t as u8 + 1; PAGE_SIZE], 512).unwrap();
                }
                dir.ino
            }));
        }
        let dirs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (t, dir) in dirs.iter().enumerate() {
            let entries = fs.readdir(*dir).unwrap();
            assert_eq!(entries.len(), 16 + 2, "dir t{t} has all its files");
            for i in 0..16u32 {
                let f = fs.lookup(*dir, &format!("f{i}")).unwrap();
                let mut buf = vec![0u8; PAGE_SIZE];
                let n = fs.read_page(f.ino, 0, &mut buf).unwrap();
                assert_eq!(n, 512);
                assert!(buf[..512].iter().all(|&b| b == t as u8 + 1));
            }
        }
    }

    #[test]
    fn crash_recovery_replays_committed_transactions() {
        use crashsim::{FaultConfig, FaultDevice};
        // Build a file system, then crash the device (every operation fails
        // from a fixed point on, and nothing more reaches the disk) part way
        // through a burst of creates.  After "reboot" (a fresh mount on the
        // same underlying ram disk), the file system must mount cleanly
        // and every file that was reported created before the crash point
        // must either exist completely or not at all.
        let ram = Arc::new(RamDisk::new(4096, 4096));
        mkfs::mkfs_on_device(&(Arc::clone(&ram) as Arc<dyn BlockDevice>), 256).unwrap();
        let faulty = Arc::new(FaultDevice::new(
            Arc::clone(&ram) as Arc<dyn BlockDevice>,
            FaultConfig { disconnect_after_ops: Some(250), ..FaultConfig::recorder(0) },
        ));
        faulty.set_trace_enabled(false);
        let mut created = Vec::new();
        {
            let fs = fstype().mount_on(Arc::clone(&faulty) as Arc<dyn BlockDevice>).unwrap();
            for i in 0..100u32 {
                match fs.create(1, &format!("c{i}"), FileMode::regular()) {
                    Ok(_) => created.push(format!("c{i}")),
                    Err(_) => break,
                }
                if faulty.disconnected() {
                    break;
                }
            }
        }
        assert!(
            !created.is_empty() && faulty.disconnected(),
            "the crash point fell inside the burst ({} created)",
            created.len()
        );
        // Reboot: mount the backing ram disk directly (the failed writes
        // never reached it, as after a power failure).
        let fs = fstype().mount_on(Arc::clone(&ram) as Arc<dyn BlockDevice>).unwrap();
        let entries = fs.readdir(1).unwrap();
        for entry in &entries {
            if entry.name.starts_with('c') {
                // Every surviving entry must resolve to a valid inode.
                fs.getattr(entry.ino).unwrap();
            }
        }
        // The file system is usable after recovery.
        fs.create(1, "post-crash", FileMode::regular()).unwrap();
        assert!(fs.lookup(1, "post-crash").is_ok());
    }
}
