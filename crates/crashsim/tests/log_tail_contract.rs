//! What the one-barrier commit protocol defers, and who pays it.
//!
//! A commit leaves its record valid on the medium and its blocks pending:
//! the epoch of the commit three later installs them (unless a commit in
//! between logged them again), and the commit after that overwrites the
//! record — or a checkpoint settles everything.  These tests pin down the
//! three places where "the commits after" do not exist:
//!
//! * a **clean unmount** checkpoints, so every log header is clear and the
//!   next mount replays nothing (and writes nothing),
//! * a **live upgrade** hands the log tail — live headers, the direct
//!   homes their records name, and pending copies — to the new instance,
//!   which neither replays the live records nor forgets to install and
//!   clear them, nor sends a fresh block home over a direct home they
//!   name, and touches no device block in the pause,
//! * a **crash** right after an acknowledged `fsync` finds the newest
//!   record valid and its installs missing from the medium — and recovery
//!   brings the acknowledged bytes back.

use std::collections::HashMap;

use std::sync::Arc;

use bento::bentofs::BentoFs;
use bento::bentoks::{KernelBlockIo, SuperBlock};
use bento::fileops::{FileSystem, Request};
use crashsim::{prefix_states, DiskImage, Event, FaultConfig, FaultDevice};
use journal::record::{parse_head, payload_digest};
use journal::{JournalConfig, REGIONS};
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

/// The log area of `dev`'s superblock.
fn log_area(dev: &Arc<dyn BlockDevice>) -> std::ops::Range<u64> {
    let mut block = vec![0u8; BSIZE];
    dev.read_block(1, &mut block).unwrap();
    let dsb = DiskSuperblock::decode(&block).unwrap();
    dsb.logstart as u64..dsb.logstart as u64 + dsb.nlog as u64
}

/// Per home, the bytes recovery would leave there: the copy of the newest
/// valid record holding it.
fn newest_copies(dev: &Arc<dyn BlockDevice>) -> HashMap<u64, Vec<u8>> {
    let mut records = valid_records(dev);
    records.sort_by_key(|(_, seq, _)| *seq);
    let mut newest = HashMap::new();
    for (head, _, homes) in records {
        for (i, home) in homes.into_iter().enumerate() {
            let mut copy = vec![0u8; BSIZE];
            dev.read_block(head + 1 + i as u64, &mut copy).unwrap();
            newest.insert(home, copy);
        }
    }
    newest
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
    for region in 0..REGIONS as u64 {
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
    // Every header, that is: the name predates the ring of four.
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
        assert!(valid_records(&dev).is_empty(), "{name}: recovery leaves every header clean");

        // Unmounted: checkpointed.
        fs.create(1, "unmounted", FileMode::regular()).unwrap();
        fs.sync_fs().unwrap();
        fs.destroy().unwrap();
        drop(fs);
        assert!(valid_records(&dev).is_empty(), "{name}: clean unmount clears every header");
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

    // The new instance's first commit takes the *next* region and leaves
    // its predecessor's record where it is.
    fs.create(1, "after", FileMode::regular()).unwrap();
    let records = valid_records(&dev);
    assert_eq!(records.len(), 2);
    let newest = records.iter().max_by_key(|(_, seq, _)| *seq).unwrap();
    assert_ne!(newest.0, pending[0].0, "the ring keeps turning across the upgrade");
    assert_eq!(newest.1, pending[0].1 + 1, "sequence numbers continue");

    // Its unmount clears every header, the inherited one included.
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
fn live_upgrade_hands_the_pending_installs_to_the_successor() {
    let recorder = formatted_recorder();
    let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
    let fs =
        BentoFs::mount("xv6fs", Arc::clone(&dev), 512, Box::new(Xv6FileSystem::new())).unwrap();
    for i in 0..6 {
        fs.create(1, &format!("f{i}"), FileMode::regular()).unwrap();
    }
    // What recovery would install, and which of those homes the medium
    // does not hold yet: the pending copies.
    let newest = newest_copies(&dev);
    let mut home = vec![0u8; BSIZE];
    let stale: Vec<u64> = newest
        .iter()
        .filter(|&(&blockno, copy)| {
            dev.read_block(blockno, &mut home).unwrap();
            &home != copy
        })
        .map(|(&blockno, _)| blockno)
        .collect();
    assert!(!stale.is_empty(), "installs are pending at the upgrade");

    let before = recorder.event_count();
    fs.upgrade(Box::new(Xv6FileSystem::with_label("xv6fs-v2"))).unwrap();
    assert_eq!(recorder.event_count(), before, "the pause touches no device block");
    // The successor's checkpoint installs exactly the predecessor's
    // committed bytes, and nothing else outside the log area.
    fs.destroy().unwrap();
    drop(fs);
    let log = log_area(&dev);
    let installed: HashMap<u64, Vec<u8>> = recorder.trace().events[before..]
        .iter()
        .filter_map(|event| match event {
            Event::Write { blockno, data } if !log.contains(blockno) => {
                Some((*blockno, data.clone()))
            }
            _ => None,
        })
        .collect();
    for blockno in &stale {
        assert!(installed.get(blockno) == newest.get(blockno), "home {blockno}");
    }
    assert!(installed.keys().all(|blockno| newest.contains_key(blockno)), "{installed:?}");
    assert!(valid_records(&dev).is_empty());
    assert!(xv6fs::fsck::fsck_device(&dev).unwrap().is_clean());
}

#[test]
fn an_upgrade_carries_the_bytes_of_a_pending_copy_the_cache_moved_past() {
    type Carried = (u64, Vec<Option<u64>>, bool, Vec<(u64, u64, Option<Vec<u8>>)>);
    let recorder = formatted_recorder();
    let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
    let (fs, sb) = attach(&dev);
    let req = Request::kernel();
    for i in 0..3 {
        fs.create(&req, &sb, 1, &format!("f{i}"), FileMode::regular(), OpenFlags::RDWR).unwrap();
    }
    let newest = newest_copies(&dev);
    let mut home = vec![0u8; BSIZE];
    let moved = *newest
        .iter()
        .find(|&(&blockno, copy)| {
            dev.read_block(blockno, &mut home).unwrap();
            &home != copy
        })
        .expect("an install is pending")
        .0;
    // The cached buffer moves past its committed copy (a change no commit
    // has logged yet): the successor cannot take the copy from the cache.
    sb.bread(moved).unwrap().data_mut()[BSIZE - 1] ^= 0xFF;

    let bundle = fs.extract_state(&req, &sb).unwrap();
    let (_, _, _, pending): Carried = bundle.get("log_tail").unwrap();
    assert!(pending.iter().any(|(_, blockno, _)| *blockno == moved));
    for (_, blockno, bytes) in &pending {
        let expected = (*blockno == moved).then(|| newest[blockno].clone());
        assert_eq!(bytes, &expected, "only the copy the cache moved past travels ({blockno})");
    }

    let before = recorder.event_count();
    let successor = Xv6FileSystem::with_label("xv6fs-v2");
    successor.restore_state(&req, &sb, bundle).unwrap();
    successor.destroy(&req, &sb).unwrap();
    let installed = recorder.trace().events[before..].iter().rev().find_map(|event| match event {
        Event::Write { blockno, data } if *blockno == moved => Some(data.clone()),
        _ => None,
    });
    assert_eq!(installed.as_ref(), Some(&newest[&moved]), "the committed bytes, not the cache's");
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
    // last barrier is on the medium.  Nothing follows it — the last
    // commit's installs wait for the commits after it, or the unmount.
    let trace = recorder.trace();
    let last_flush =
        trace.events.iter().rposition(|e| matches!(e, Event::Flush)).expect("commits flushed");
    assert_eq!(last_flush + 1, trace.events.len(), "no install follows the last barrier");
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

#[test]
fn an_upgrade_carries_the_direct_homes_of_the_live_records() {
    let recorder = formatted_recorder();
    let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
    let (fs, sb) = attach(&dev);
    let req = Request::kernel();
    let created = fs.create(&req, &sb, 1, "old", FileMode::regular(), OpenFlags::RDWR).unwrap();
    let ino = created.attr.ino;
    fs.write(&req, &sb, ino, created.fh, 0, &[0xEE; PAGE_SIZE]).unwrap();

    let bundle = fs.extract_state(&req, &sb).unwrap();
    let carried: Vec<Vec<u64>> = bundle.get("log_direct_homes").unwrap();
    assert_eq!(carried.concat().len(), 1, "the new data block went home directly");
    let successor = Xv6FileSystem::with_label("xv6fs-v2");
    successor.restore_state(&req, &sb, bundle).unwrap();
    // The freed block, allocated again while the predecessor's record
    // naming it is live, is logged rather than sent home over it.
    successor.release(&req, &sb, ino, created.fh).unwrap();
    successor.unlink(&req, &sb, 1, "old").unwrap();
    let new = successor.create(&req, &sb, 1, "new", FileMode::regular(), OpenFlags::RDWR).unwrap();
    successor.write(&req, &sb, new.attr.ino, new.fh, 0, &[0x11; PAGE_SIZE]).unwrap();
    assert_eq!(successor.log_stats().demoted, 1);
    successor.destroy(&req, &sb).unwrap();
    assert!(xv6fs::fsck::fsck_device(&dev).unwrap().is_clean());
}
