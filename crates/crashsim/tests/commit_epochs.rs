//! The journal's barrier epochs, write for write.  A fixed script of
//! creates, writes, fsyncs, a rename, an unlink and an unmount runs on each
//! stack over a recording device; the block numbers it writes, epoch by
//! epoch, are pinned as a digest.  How the journal issues its writes (raw
//! or through a cache, in one call or several) may change; which blocks
//! each epoch writes, and in what order, may not — a change there is a
//! change of the commit protocol, for the crash suites to judge.  The
//! pinned figures are the protocol's as it stood when the commit record
//! and header clears stopped passing through the buffer cache, less one
//! payload block on C-Kernel: since an inode whose bytes did not change is
//! not logged, its per-page commit of the rewrite's first page (epoch 21,
//! an overwrite inside EOF) carries the data block without `f0`'s inode
//! block.  Within
//! every epoch that writes a log-region header, the header is the last
//! write: a commit's installs and payload go first, and a clear is alone.

use std::sync::Arc;

use crashsim::{Event, FaultConfig, FaultDevice, WriteTrace};
use journal::{JournalConfig, PlantedFault};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::hash::digest64;
use simkernel::vfs::OpenFlags;
use workloads::{format, mount_stack_on, FsStack};
use xv6fs::core::with_home;
use xv6fs::layout::LOGSIZE;

const DISK_BLOCKS: u64 = 6144;

/// The script: a directory of files written and fsynced one by one (each
/// fsync a commit), a rewrite of the first, a rename and an unlink, then a
/// clean unmount (its checkpoint installs what is pending and clears the
/// live headers).
fn run_script(stack: FsStack) -> WriteTrace {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, DISK_BLOCKS));
    format(stack, &base, 256).unwrap();
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
    // One allocation home, whatever thread runs the test.
    with_home(0, || {
        let mounted = mount_stack_on(stack, dev, CostModel::zero(), PlantedFault::None).unwrap();
        let vfs = &mounted.vfs;
        vfs.mkdir("/d").unwrap();
        for i in 0..7u8 {
            let path = format!("/d/f{i}");
            let fd = vfs.open(&path, OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
            vfs.write(fd, &vec![i; 4096 * (1 + i as usize % 3)]).unwrap();
            vfs.fsync(fd).unwrap();
            vfs.close(fd).unwrap();
        }
        let fd = vfs.open("/d/f0", OpenFlags::RDWR).unwrap();
        vfs.write(fd, &[0xEE; 6000]).unwrap();
        vfs.fsync(fd).unwrap();
        vfs.close(fd).unwrap();
        vfs.rename("/d/f1", "/d/g1").unwrap();
        vfs.unlink("/d/f2").unwrap();
        mounted.unmount().unwrap();
    });
    recorder.trace()
}

/// The block numbers written in each epoch of `trace`, in issue order.
fn epoch_blocks(trace: &WriteTrace) -> Vec<Vec<u64>> {
    (trace.epochs().into_iter())
        .map(|epoch| {
            (trace.events[epoch].iter())
                .filter_map(|event| match event {
                    Event::Write { blockno, .. } => Some(*blockno),
                    Event::Flush => None,
                })
                .collect()
        })
        .collect()
}

/// `(epochs, writes, digest of the epoch-by-epoch block sequence)`.
fn fingerprint(epochs: &[Vec<u64>]) -> (usize, usize, u64) {
    let mut words = Vec::new();
    for (i, blocks) in epochs.iter().enumerate() {
        words.extend((i as u64).to_le_bytes());
        words.extend(blocks.iter().flat_map(|b| b.to_le_bytes()));
    }
    (epochs.len(), epochs.iter().map(Vec::len).sum(), digest64(0, &words))
}

/// Header block of each log region of `stack`.
fn region_heads(stack: FsStack) -> Vec<u64> {
    let config = match stack {
        FsStack::Ext4 => ext4sim::journal_config(DISK_BLOCKS),
        // xv6's log starts at block 2 (mkfs: boot block, superblock).
        _ => JournalConfig::from_geometry(2, LOGSIZE, LOGSIZE, (0, DISK_BLOCKS)),
    };
    (0..journal::REGIONS as u64).map(|r| config.start + r * config.region_size as u64).collect()
}

fn check(stack: FsStack, pinned: (usize, usize, u64)) {
    let epochs = epoch_blocks(&run_script(stack));
    let heads = region_heads(stack);
    let mut header_epochs = 0;
    for (i, blocks) in epochs.iter().enumerate() {
        if let Some(at) = blocks.iter().position(|b| heads.contains(b)) {
            assert_eq!(
                at,
                blocks.len() - 1,
                "{stack:?} epoch {i}: a header is not last: {blocks:?}"
            );
            header_epochs += 1;
        }
    }
    assert!(header_epochs >= 8, "{stack:?}: {header_epochs} epochs wrote a header");
    assert_eq!(fingerprint(&epochs), pinned, "{stack:?}: the epochs changed: {epochs:?}");
}

#[test]
fn bento_xv6_epochs_are_pinned() {
    check(FsStack::BentoXv6, (24, 95, 3_127_402_336_623_211_861));
}

#[test]
fn ckernel_xv6_epochs_are_pinned() {
    check(FsStack::VfsXv6, (31, 117, 9_007_065_353_393_410_151));
}

#[test]
fn fuse_xv6_epochs_are_pinned() {
    check(FsStack::FuseXv6, (24, 95, 3_127_402_336_623_211_861));
}

#[test]
fn ext4_epochs_are_pinned() {
    check(FsStack::Ext4, (15, 53, 15_330_531_700_119_083_724));
}
