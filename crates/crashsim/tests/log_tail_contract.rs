//! What the one-barrier commit protocol defers, and who pays it.
//!
//! A commit leaves its record valid on the medium and its installs
//! unflushed; the next commit's barrier settles the installs, the commit
//! after that overwrites the record — or a checkpoint settles both.  These
//! tests pin down the three places where "the next commit" does not exist:
//!
//! * a **clean unmount** checkpoints, so both log headers are clear and the
//!   next mount replays nothing (and writes nothing),
//! * a **live upgrade** hands the log tail to the new instance, which
//!   neither replays the live records nor forgets to clear them at its own
//!   unmount, and touches no device block in the pause,
//! * a **crash** right after an acknowledged `fsync` finds the newest
//!   record valid and its installs missing from the medium — and recovery
//!   brings the acknowledged bytes back.

use std::sync::Arc;

use bento::bentofs::BentoFs;
use bento::bentoks::{KernelBlockIo, SuperBlock};
use bento::fileops::{FileSystem, Request};
use crashsim::{prefix_states, DiskImage, Event, FaultConfig, FaultDevice};
use journal::record::{parse_head, payload_digest};
use journal::JournalConfig;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{FileMode, OpenFlags, VfsFs, PAGE_SIZE};
use xv6fs::layout::{DiskSuperblock, BSIZE, LOGSIZE};
use xv6fs::Xv6FileSystem;

const DISK_BLOCKS: u64 = 4096;

fn formatted_recorder() -> Arc<FaultDevice> {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
    xv6fs::mkfs::mkfs_on_device(&base, 256).unwrap();
    Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)))
}

fn superblock(dev: &Arc<dyn BlockDevice>) -> SuperBlock {
    bento::userspace::userspace_superblock(
        Arc::new(KernelBlockIo::new(Arc::clone(dev), 512)),
        "log-tail",
    )
}

/// Attaches a fresh `Xv6FileSystem` the way a mount does (recovery runs).
fn attach(dev: &Arc<dyn BlockDevice>) -> (Xv6FileSystem, SuperBlock) {
    let sb = superblock(dev);
    let fs = Xv6FileSystem::new();
    fs.init(&Request::kernel(), &sb).unwrap();
    (fs, sb)
}

/// The commit records recovery would replay from the raw medium (header
/// checksum and payload digest both hold), as `(region head, seq, homes)`.
fn valid_records(dev: &Arc<dyn BlockDevice>) -> Vec<(u64, u64, Vec<u64>)> {
    let mut block = vec![0u8; BSIZE];
    dev.read_block(1, &mut block).unwrap();
    let dsb = DiskSuperblock::decode(&block).unwrap();
    let cfg = JournalConfig::from_geometry(
        dsb.logstart as u64,
        dsb.nlog as usize,
        LOGSIZE,
        (dsb.inodestart as u64, dsb.size as u64),
    );
    let mut records = Vec::new();
    for region in 0..2u64 {
        let head = cfg.start + region * cfg.region_size as u64;
        dev.read_block(head, &mut block).unwrap();
        let Some(parsed) = parse_head(&block, cfg.capacity) else { continue };
        let mut payload = vec![0u8; parsed.homes.len() * BSIZE];
        for (i, copy) in payload.chunks_exact_mut(BSIZE).enumerate() {
            dev.read_block(head + 1 + i as u64, copy).unwrap();
        }
        if payload_digest(payload.chunks_exact(BSIZE)) == parsed.payload_digest {
            records.push((head, parsed.seq, parsed.homes));
        }
    }
    records
}

#[test]
fn clean_unmount_leaves_both_headers_clear_and_nothing_to_replay() {
    type Mount = fn(Arc<dyn BlockDevice>) -> Arc<dyn VfsFs>;
    let mounts: [(&str, Mount); 2] = [
        ("bento-xv6fs", |dev| xv6fs::fstype().mount_on(dev).unwrap() as Arc<dyn VfsFs>),
        ("vfs-xv6fs", |dev| xv6fs_vfs::Xv6VfsFilesystem::mount(dev).unwrap() as Arc<dyn VfsFs>),
    ];
    for (name, mount) in mounts {
        let recorder = formatted_recorder();
        let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;

        // Dropped without unmount: the last record stays valid, and the
        // next mount replays it.
        let fs = mount(Arc::clone(&dev));
        fs.create(1, "dropped", FileMode::regular()).unwrap();
        drop(fs);
        assert_eq!(valid_records(&dev).len(), 1, "{name}: nothing clears the newest record");
        let before = recorder.event_count();
        let fs = mount(Arc::clone(&dev));
        assert!(recorder.event_count() > before, "{name}: recovery replays the live record");
        assert!(valid_records(&dev).is_empty(), "{name}: recovery leaves both headers clean");

        // Unmounted: checkpointed.
        fs.create(1, "unmounted", FileMode::regular()).unwrap();
        fs.sync_fs().unwrap();
        fs.destroy().unwrap();
        drop(fs);
        assert!(valid_records(&dev).is_empty(), "{name}: clean unmount clears both headers");
        let before = recorder.event_count();
        let fs = mount(Arc::clone(&dev));
        assert_eq!(recorder.event_count(), before, "{name}: nothing to replay, nothing written");
        fs.lookup(1, "dropped").unwrap();
        fs.lookup(1, "unmounted").unwrap();
        drop(fs);
        let (attached, _sb) = attach(&dev);
        assert_eq!(attached.log_stats().recoveries, 0, "{name}: `recoveries` unchanged");
    }
}

#[test]
fn live_upgrade_continues_the_log_without_replaying_it() {
    let recorder = formatted_recorder();
    let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
    let fs =
        BentoFs::mount("xv6fs", Arc::clone(&dev), 512, Box::new(Xv6FileSystem::new())).unwrap();
    fs.create(1, "before", FileMode::regular()).unwrap();
    let pending = valid_records(&dev);
    assert_eq!(pending.len(), 1);

    let before = recorder.event_count();
    let report = fs.upgrade(Box::new(Xv6FileSystem::with_label("xv6fs-v2"))).unwrap();
    assert!(report.state_transfer);
    assert_eq!(recorder.event_count(), before, "the upgrade attaches without touching the device");
    assert_eq!(valid_records(&dev), pending, "the live record is neither replayed nor lost");

    // The new instance's first commit takes the *other* region and leaves
    // its predecessor's record where it is.
    fs.create(1, "after", FileMode::regular()).unwrap();
    let records = valid_records(&dev);
    assert_eq!(records.len(), 2);
    let newest = records.iter().max_by_key(|(_, seq, _)| *seq).unwrap();
    assert_ne!(newest.0, pending[0].0, "regions keep alternating across the upgrade");
    assert_eq!(newest.1, pending[0].1 + 1, "sequence numbers continue");

    // Its unmount clears both headers, the inherited one included.
    fs.destroy().unwrap();
    drop(fs);
    assert!(valid_records(&dev).is_empty());
    let (attached, sb) = attach(&dev);
    assert_eq!(attached.log_stats().recoveries, 0, "`recoveries` unchanged on the next attach");
    let req = Request::kernel();
    attached.lookup(&req, &sb, 1, "before").unwrap();
    attached.lookup(&req, &sb, 1, "after").unwrap();
    assert!(xv6fs::fsck::fsck_device(&dev).unwrap().is_clean());
}

#[test]
fn crash_after_acknowledged_fsync_replays_the_uncleared_record() {
    let recorder = formatted_recorder();
    let image = {
        // The recorder wraps an already formatted disk; capture what it
        // holds now as the base the trace applies to.
        let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
        Arc::new(DiskImage::capture(&dev).unwrap())
    };
    let req = Request::kernel();
    let payload = vec![0x5Au8; 3 * PAGE_SIZE];
    {
        let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
        let (fs, sb) = attach(&dev);
        let file = fs.create(&req, &sb, 1, "mail", FileMode::regular(), OpenFlags::RDWR).unwrap();
        fs.write(&req, &sb, file.attr.ino, file.fh, 0, &payload).unwrap();
        let barriers = fs.log_stats().barriers;
        fs.fsync(&req, &sb, file.attr.ino, file.fh, false).unwrap();
        assert_eq!(fs.log_stats().barriers, barriers, "fsync on an idle log issues no barrier");
    }
    // Power fails right after the fsync returned: everything up to the
    // last barrier is on the medium, nothing after it.
    let trace = recorder.trace();
    let last_flush =
        trace.events.iter().rposition(|e| matches!(e, Event::Flush)).expect("commits flushed");
    assert!(last_flush + 1 < trace.events.len(), "the last commit's installs follow its barrier");
    let state = prefix_states(&trace, &image).swap_remove(last_flush + 1);
    let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;

    // As the medium holds it: the newest record valid, and at least one of
    // its blocks not yet installed.
    let records = valid_records(&disk);
    let (head, _, homes) = records.iter().max_by_key(|(_, seq, _)| *seq).expect("a valid record");
    let (mut logged, mut home) = (vec![0u8; BSIZE], vec![0u8; BSIZE]);
    let uninstalled = homes.iter().enumerate().any(|(i, &blockno)| {
        disk.read_block(head + 1 + i as u64, &mut logged).unwrap();
        disk.read_block(blockno, &mut home).unwrap();
        logged != home
    });
    assert!(uninstalled, "the acknowledged commit's installs had not reached the medium");

    // Recovery replays it: the acknowledged bytes are back.
    let (fs, sb) = attach(&disk);
    assert_eq!(fs.log_stats().recoveries, 1);
    let attr = fs.lookup(&req, &sb, 1, "mail").unwrap();
    assert_eq!(attr.size, payload.len() as u64);
    let fh = fs.open(&req, &sb, attr.ino, OpenFlags::RDONLY).unwrap();
    let mut read_back = vec![0u8; payload.len()];
    assert_eq!(fs.read(&req, &sb, attr.ino, fh, 0, &mut read_back).unwrap(), payload.len());
    assert_eq!(read_back, payload);
    assert!(xv6fs::fsck::fsck_device(&disk).unwrap().is_clean());
}
