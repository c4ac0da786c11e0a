//! Multi-thread stress tests for the sharded concurrency substrate, driven
//! through the full stacks (VFS + page cache + BentoFS/xv6fs + buffer
//! cache): 8 threads hammering create/write/fsync/unlink on disjoint and
//! overlapping keys.  These are correctness tests — they assert that
//! sharding the buffer cache, page cache, fd table, and inode/opens tables
//! lost no exclusion or visibility guarantees.

use std::sync::Arc;

use simkernel::cost::CostModel;
use simkernel::vfs::OpenFlags;
use workloads::{mount_stack, FsStack};

const THREADS: usize = 8;
const FILES_PER_THREAD: usize = 24;

/// Every thread owns a private directory and cycles files through
/// create → write → fsync → read-back → unlink.  Disjoint keys: distinct
/// inodes, distinct fds, distinct blocks.
fn disjoint_churn(stack: FsStack) {
    let mounted = mount_stack(stack, CostModel::zero(), 32 * 1024).expect("mount");
    let vfs = Arc::clone(&mounted.vfs);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let vfs = Arc::clone(&vfs);
        handles.push(std::thread::spawn(move || {
            let dir = format!("/stress-{t}");
            vfs.mkdir(&dir).expect("mkdir");
            for i in 0..FILES_PER_THREAD {
                let path = format!("{dir}/f{i}");
                let fd = vfs.open(&path, OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("create");
                let payload = vec![(t * 31 + i) as u8; 8192];
                vfs.write(fd, &payload).expect("write");
                vfs.fsync(fd).expect("fsync");
                let mut back = vec![0u8; payload.len()];
                let mut read = 0;
                while read < back.len() {
                    let n = vfs.pread(fd, &mut back[read..], read as u64).expect("pread");
                    assert!(n > 0, "unexpected EOF in {path}");
                    read += n;
                }
                assert_eq!(back, payload, "thread {t} file {i} readback");
                vfs.close(fd).expect("close");
                if i % 2 == 0 {
                    vfs.unlink(&path).expect("unlink");
                }
            }
            t
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }
    // Exactly the odd-numbered files survive, fully intact.
    for t in 0..THREADS {
        let dir = format!("/stress-{t}");
        let entries = mounted.vfs.readdir(&dir).expect("readdir");
        let kept: Vec<&str> =
            entries.iter().map(|e| e.name.as_str()).filter(|n| n.starts_with('f')).collect();
        assert_eq!(kept.len(), FILES_PER_THREAD / 2, "dir {dir}");
        for i in (1..FILES_PER_THREAD).step_by(2) {
            let attr = mounted.vfs.stat(&format!("{dir}/f{i}")).expect("stat survivor");
            assert_eq!(attr.size, 8192);
        }
    }
    assert_eq!(mounted.vfs.open_fd_count(), 0);
    mounted.unmount().expect("unmount");
}

#[test]
fn bento_stack_disjoint_churn_under_8_threads() {
    disjoint_churn(FsStack::BentoXv6);
}

#[test]
fn vfs_stack_disjoint_churn_under_8_threads() {
    disjoint_churn(FsStack::VfsXv6);
}

/// Overlapping keys: all 8 threads fight over the SAME files — racing
/// creates (only one may win with O_EXCL), racing appends to one shared
/// log, racing open/unlink.  Exercises the same-shard / same-key paths of
/// every sharded table.
#[test]
fn bento_stack_overlapping_keys_under_8_threads() {
    let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), 32 * 1024).expect("mount");
    let vfs = Arc::clone(&mounted.vfs);
    vfs.mkdir("/shared").expect("mkdir");
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let vfs = Arc::clone(&vfs);
        handles.push(std::thread::spawn(move || {
            let mut excl_wins = 0u32;
            for round in 0..16 {
                // Racing exclusive creates of one shared name.
                let contested = format!("/shared/round-{round}");
                match vfs.open(
                    &contested,
                    OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::EXCL),
                ) {
                    Ok(fd) => {
                        excl_wins += 1;
                        vfs.write(fd, &[t as u8]).expect("winner write");
                        vfs.close(fd).expect("close");
                    }
                    Err(e) => {
                        assert_eq!(
                            e.errno(),
                            simkernel::error::Errno::Exist,
                            "loser must see EEXIST"
                        );
                    }
                }
                // Racing appends to one shared log file.
                let fd = vfs
                    .open(
                        "/shared/log",
                        OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::APPEND),
                    )
                    .expect("open log");
                vfs.write(fd, &[0xEE; 64]).expect("append");
                if round % 4 == 0 {
                    vfs.fsync(fd).expect("fsync");
                }
                vfs.close(fd).expect("close");
            }
            excl_wins
        }));
    }
    let total_wins: u32 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
    // Exactly one winner per round across all threads.
    assert_eq!(total_wins, 16, "every round has exactly one O_EXCL winner");
    // Appends from all threads all landed: 8 threads * 16 rounds * 64 bytes.
    let size = vfs.stat("/shared/log").expect("stat log").size;
    assert_eq!(size, (THREADS * 16 * 64) as u64, "no append may be lost");
    assert_eq!(vfs.open_fd_count(), 0);
    mounted.unmount().expect("unmount");
}
