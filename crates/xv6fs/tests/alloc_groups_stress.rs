//! Multi-threaded stress tests for the per-allocation-group allocators:
//! no double allocation across groups, allocations spread over several
//! groups, and correct fallback (stealing) when a group runs dry.

use std::collections::HashSet;
use std::sync::Arc;

use bento::bentoks::{KernelBlockIo, SuperBlock};
use bento::userspace::userspace_superblock;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::Errno;
use xv6fs::core::FsCore;
use xv6fs::layout::{DiskSuperblock, T_FILE};

fn fresh_fs(blocks: u64, ninodes: u32, groups: usize) -> (Arc<SuperBlock>, Arc<FsCore>) {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, blocks));
    xv6fs::mkfs::mkfs_on_device(&dev, ninodes).unwrap();
    let sb = userspace_superblock(Arc::new(KernelBlockIo::new(dev, 1024)), "stress");
    let block = sb.bread(1).unwrap();
    let dsb = DiskSuperblock::decode(block.data()).unwrap();
    drop(block);
    (Arc::new(sb), Arc::new(FsCore::with_alloc_groups(dsb, groups)))
}

#[test]
fn eight_threads_never_double_allocate_blocks_or_inodes() {
    let (sb, core) = fresh_fs(16 * 1024, 1024, 8);
    assert!(core.alloc.group_count() >= 2, "stress needs several groups");
    let mut handles = Vec::new();
    for _ in 0..8 {
        let sb = Arc::clone(&sb);
        let core = Arc::clone(&core);
        handles.push(std::thread::spawn(move || {
            let mut blocks = Vec::new();
            let mut inodes = Vec::new();
            for round in 0..10 {
                core.log.begin_op();
                for _ in 0..12 {
                    blocks.push(core.balloc(&sb).unwrap());
                }
                inodes.push(core.ialloc(&sb, T_FILE).unwrap());
                core.log.end_op(&sb).unwrap();
                let _ = round;
            }
            (blocks, inodes)
        }));
    }
    let mut all_blocks = Vec::new();
    let mut all_inodes = Vec::new();
    for handle in handles {
        let (blocks, inodes) = handle.join().unwrap();
        all_blocks.extend(blocks);
        all_inodes.extend(inodes);
    }
    assert_eq!(all_blocks.len(), 8 * 10 * 12);
    assert_eq!(all_inodes.len(), 8 * 10);
    let unique_blocks: HashSet<u64> = all_blocks.iter().copied().collect();
    assert_eq!(unique_blocks.len(), all_blocks.len(), "a data block was allocated twice");
    let unique_inodes: HashSet<u32> = all_inodes.iter().copied().collect();
    assert_eq!(unique_inodes.len(), all_inodes.len(), "an inode was allocated twice");
    // The whole point of the groups: concurrent allocators spread instead
    // of all hammering one cursor.
    let spread = core.alloc.allocations_per_group().iter().filter(|&&n| n > 0).count();
    assert!(spread >= 2, "allocations landed in {spread} group(s); expected a spread");
    // The on-disk bitmap agrees with what was handed out.
    assert_eq!(
        core.used_block_count(&sb).unwrap(),
        all_blocks.len() as u64 + 1, // + root directory data block
    );
}

#[test]
fn eight_threads_exhaust_the_disk_exactly_once_via_stealing() {
    // Small disk, many groups: threads drain their home groups, then must
    // steal from the others until the disk is genuinely full.
    let (sb, core) = fresh_fs(1154, 64, 8);
    let free = core.total_data_blocks() - 1; // root directory data block
    let mut handles = Vec::new();
    for _ in 0..8 {
        let sb = Arc::clone(&sb);
        let core = Arc::clone(&core);
        handles.push(std::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                core.log.begin_op();
                let mut full = false;
                for _ in 0..8 {
                    match core.balloc(&sb) {
                        Ok(blockno) => got.push(blockno),
                        Err(e) => {
                            assert_eq!(e.errno(), Errno::NoSpc);
                            full = true;
                            break;
                        }
                    }
                }
                core.log.end_op(&sb).unwrap();
                if full {
                    return got;
                }
            }
        }));
    }
    let mut all: Vec<u64> = Vec::new();
    for handle in handles {
        all.extend(handle.join().unwrap());
    }
    let unique: HashSet<u64> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "double allocation under exhaustion");
    assert_eq!(all.len() as u64, free, "stealing must drain every group exactly once");
}
