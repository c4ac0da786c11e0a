//! Recovery parity across the log stacks: identical hostile pre-images
//! must produce **identical** recovery decisions and identical final
//! device bytes on every stack.
//!
//! Every log in the workspace runs `journal::Journal::recover` — the bare
//! journal and ext4sim directly, both xv6 stacks through the one
//! `xv6fs::log` adapter their shared core mounts — so equivalence holds by construction; this
//! test pins that property so reintroducing a stack-private recovery path
//! fails loudly.  The log-level rows compare the harness's log stacks; the
//! full-mount row puts the same pre-images under `Xv6VfsFilesystem::mount`
//! and `xv6fs::fstype().mount_on`, and the ext4 row, translated to
//! ext4sim's own layout, under `Ext4Sim::mount`.  Each scenario plants a
//! hostile or valid commit record (torn checksum, a payload that is not
//! the one the record was sealed over, out-of-range homes, over-capacity
//! count, cleared header, garbage bytes, real records in one or both
//! regions) on a fresh disk per stack and compares the replayed-block
//! count and a full raw dump of the device afterwards — which also pins
//! that every stack leaves both headers clean, whatever it found there.

use std::sync::Arc;

use crashsim::logharness::{all_stacks, test_geometry};
use journal::record::{
    encode_clear, encode_head, get_u32, payload_digest, BSIZE, LOG_HEAD_COUNT_OFF,
    LOG_HEAD_MAX_ENTRIES,
};
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::VfsFs;

const DISK_BLOCKS: u64 = 1024;

/// Region geometry mirroring [`test_geometry`]: `nlog = LOGSIZE = 514`,
/// so each region spans 257 blocks (1 header + 256 data) starting at
/// block 2.
const REGION0_HEAD: u64 = 2;
const REGION1_HEAD: u64 = 2 + 257;

/// Where a layout puts its two region headers and the blocks the
/// scenarios name as homes: one list of pre-images serves every layout.
struct Geometry {
    region: [u64; 2],
    capacity: usize,
    /// First of three legal home blocks the records name.
    home: u64,
    /// A block below the legal home range (inside the log area).
    low: u64,
    /// A block past the end of the device.
    high: u64,
}

/// The xv6 layout of [`test_geometry`] on a [`DISK_BLOCKS`] disk.
const XV6: Geometry =
    Geometry { region: [REGION0_HEAD, REGION1_HEAD], capacity: 256, home: 900, low: 3, high: 4000 };

/// ext4sim's disk in the ext4 rows: its reserved area plus room for data.
const EXT4_DISK_BLOCKS: u64 = ext4sim::DATA_START + 1024;

/// ext4sim's layout: its own log regions, homes in its data area.
fn ext4_geometry() -> Geometry {
    let config = ext4sim::journal_config(EXT4_DISK_BLOCKS);
    Geometry {
        region: [config.start, config.start + config.region_size as u64],
        capacity: config.capacity,
        home: ext4sim::DATA_START + 100,
        low: config.start + 2,
        high: EXT4_DISK_BLOCKS + 100,
    }
}

/// A pre-image: named list of raw block writes applied before "reboot".
struct Scenario {
    name: &'static str,
    writes: Vec<(u64, Vec<u8>)>,
}

impl Scenario {
    /// The blocks whose bytes must not depend on the layout: the log
    /// blocks the pre-image wrote and the homes its records name (a
    /// cleared header keeps its layout's home numbers; [`headers_clean`]
    /// checks those).
    fn probe(&self, g: &Geometry) -> Vec<u64> {
        let logged = self.writes.iter().map(|(blockno, _)| *blockno);
        logged.filter(|blockno| !g.region.contains(blockno)).chain(g.home..g.home + 3).collect()
    }
}

/// A commit record for `seq` naming `homes`, sealed over a payload of one
/// block of each of `fills`.
fn head_with(seq: u64, homes: &[u64], fills: &[u8]) -> Vec<u8> {
    let payload: Vec<[u8; BSIZE]> = fills.iter().map(|&fill| [fill; BSIZE]).collect();
    let mut head = vec![0u8; BSIZE];
    let digest = payload_digest(payload.iter().map(|block| &block[..]));
    encode_head(&mut head, seq, homes.iter().copied(), digest);
    head
}

fn scenarios(g: &Geometry) -> Vec<Scenario> {
    let [r0, r1] = g.region;
    let [h0, h1, h2] = [g.home, g.home + 1, g.home + 2];
    let mut out = Vec::new();

    // A committed-but-not-installed record: must replay on every stack.
    out.push(Scenario {
        name: "valid-region0",
        writes: vec![
            (r0, head_with(1, &[h0, h1], &[0xC1, 0xC2])),
            (r0 + 1, vec![0xC1; BSIZE]),
            (r0 + 2, vec![0xC2; BSIZE]),
        ],
    });

    // Both regions committed: replay must honor sequence order (block h0
    // must end at region 1's value).
    out.push(Scenario {
        name: "valid-both-regions-seq-order",
        writes: vec![
            (r0, head_with(1, &[h0], &[0xC1])),
            (r0 + 1, vec![0xC1; BSIZE]),
            (r1, head_with(2, &[h0, h2], &[0xD1, 0xD2])),
            (r1 + 1, vec![0xD1; BSIZE]),
            (r1 + 2, vec![0xD2; BSIZE]),
        ],
    });

    // Torn record: one flipped checksum byte must reject the region.
    let mut torn = head_with(1, &[h0, h1], &[0xC1, 0xC2]);
    torn[journal::record::LOG_HEAD_CHECKSUM_OFF] ^= 0xFF;
    out.push(Scenario {
        name: "torn-checksum",
        writes: vec![(r0, torn), (r0 + 1, vec![0xC1; BSIZE]), (r0 + 2, vec![0xC2; BSIZE])],
    });

    // A whole, correctly sealed record over a payload with one flipped
    // byte (the record reached the medium ahead of that block, or outlived
    // it): not committed, treated as clean.
    let mut flipped = vec![0xC2; BSIZE];
    flipped[BSIZE / 2] ^= 0x01;
    out.push(Scenario {
        name: "payload-byte-flipped",
        writes: vec![
            (r0, head_with(1, &[h0, h1], &[0xC1, 0xC2])),
            (r0 + 1, vec![0xC1; BSIZE]),
            (r0 + 2, flipped),
        ],
    });

    // One valid record, one rejected: the valid one replays, both headers
    // end up clean.
    out.push(Scenario {
        name: "valid-beside-payload-mismatch",
        writes: vec![
            (r0, head_with(2, &[h1], &[0xC1])),
            (r0 + 1, vec![0xEE; BSIZE]),
            (r1, head_with(1, &[h0], &[0xD1])),
            (r1 + 1, vec![0xD1; BSIZE]),
        ],
    });

    // Homes pointing back into the log area or past the device: a
    // checksum-valid record naming them must be rejected wholesale.
    out.push(Scenario {
        name: "out-of-range-home-low",
        writes: vec![(r0, head_with(1, &[g.low, h0], &[0xC1, 0])), (r0 + 1, vec![0xC1; BSIZE])],
    });
    out.push(Scenario {
        name: "out-of-range-home-high",
        writes: vec![(r0, head_with(1, &[h0, g.high], &[0xC1, 0])), (r0 + 1, vec![0xC1; BSIZE])],
    });

    // Count larger than the region capacity: checksum-valid but
    // geometrically impossible, must be rejected.  (A layout whose regions
    // hold as many blocks as a record can name has no such record.)
    if g.capacity < LOG_HEAD_MAX_ENTRIES {
        let over: Vec<u64> = (0..g.capacity as u64 + 44).map(|i| g.home - 300 + i).collect();
        out.push(Scenario {
            name: "over-capacity-count",
            writes: vec![(r0, head_with(1, &over, &vec![0; over.len()]))],
        });
    }

    // A cleared header (count 0) is the quiescent state: nothing replays.
    let mut cleared = vec![0u8; BSIZE];
    encode_clear(&mut cleared, 7);
    out.push(Scenario { name: "cleared-header", writes: vec![(r0, cleared)] });

    // Arbitrary garbage where the header should be (e.g. a foreign file
    // system's block): nothing replays, nothing crashes.
    let garbage: Vec<u8> =
        (0..BSIZE).map(|i| (i as u8).wrapping_mul(131).wrapping_add(7)).collect();
    out.push(Scenario { name: "garbage-header", writes: vec![(r0, garbage)] });

    out
}

/// Whether both region headers of layout `g` on `dev` are clean (count 0).
fn headers_clean(dev: &Arc<dyn BlockDevice>, g: &Geometry) -> bool {
    g.region.iter().all(|&blockno| get_u32(&read(dev, blockno), LOG_HEAD_COUNT_OFF) == 0)
}

fn read(dev: &Arc<dyn BlockDevice>, blockno: u64) -> Vec<u8> {
    let mut block = vec![0u8; BSIZE];
    dev.read_block(blockno, &mut block).unwrap();
    block
}

fn dump_device(dev: &Arc<dyn BlockDevice>) -> Vec<u8> {
    let mut out = vec![0u8; DISK_BLOCKS as usize * BSIZE];
    for blockno in 0..DISK_BLOCKS {
        let start = blockno as usize * BSIZE;
        dev.read_block(blockno, &mut out[start..start + BSIZE]).unwrap();
    }
    out
}

#[test]
fn hostile_headers_recover_identically_on_every_stack() {
    // The geometry constants above must stay in sync with the shared
    // harness geometry.
    let dsb = test_geometry(DISK_BLOCKS as u32);
    assert_eq!(dsb.logstart as u64, REGION0_HEAD);
    assert_eq!(dsb.logstart as u64 + dsb.nlog as u64 / 2, REGION1_HEAD);

    for scenario in scenarios(&XV6) {
        let mut results: Vec<(&'static str, usize, Vec<u8>)> = Vec::new();
        for stack in all_stacks() {
            let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
            for (blockno, data) in &scenario.writes {
                dev.write_block(*blockno, data).unwrap();
            }
            let log = stack.open(Arc::clone(&dev), DISK_BLOCKS as u32);
            let replayed = log.recover().unwrap();
            let what = format!("{}: {}", scenario.name, stack.name());
            assert!(headers_clean(&dev, &XV6), "{what}: a header was left non-clean");
            let writes = dev.stats().writes;
            assert_eq!(log.recover().unwrap(), 0, "{what}: second recovery not a no-op");
            assert_eq!(dev.stats().writes, writes, "{what}: a clean log was written to");
            results.push((stack.name(), replayed, dump_device(&dev)));
        }
        let (first_name, first_replayed, first_dump) = &results[0];
        for (name, replayed, dump) in &results[1..] {
            assert_eq!(
                replayed, first_replayed,
                "{}: {name} replayed a different block count than {first_name}",
                scenario.name
            );
            assert!(
                dump == first_dump,
                "{}: {name} left different device bytes than {first_name}",
                scenario.name
            );
        }
        // Spot-check the decisions themselves so parity can't be satisfied
        // by everyone being wrong the same new way.
        let expected = expected_replays(scenario.name);
        assert_eq!(*first_replayed, expected, "{}: unexpected replay count", scenario.name);
    }
}

/// Blocks recovery must replay for each of [`scenarios`].
fn expected_replays(scenario: &str) -> usize {
    match scenario {
        "valid-region0" => 2,
        "valid-both-regions-seq-order" => 3,
        "valid-beside-payload-mismatch" => 1,
        _ => 0,
    }
}

#[test]
fn hostile_headers_recover_identically_through_both_full_mounts() {
    type Mount = fn(Arc<dyn BlockDevice>) -> Arc<dyn VfsFs>;
    let mounts: [(&str, Mount); 2] = [
        ("bento-xv6fs", |dev| xv6fs::fstype().mount_on(dev).unwrap() as Arc<dyn VfsFs>),
        ("vfs-xv6fs", |dev| xv6fs_vfs::Xv6VfsFilesystem::mount(dev).unwrap() as Arc<dyn VfsFs>),
    ];
    for scenario in scenarios(&XV6) {
        let mut results: Vec<(usize, Vec<u8>)> = Vec::new();
        for (name, mount) in mounts {
            // A real image this time; `mkfs` lays the log out where
            // `test_geometry` does, and blocks 900.. are free data blocks.
            let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
            let dsb = xv6fs::mkfs::mkfs_on_device(&dev, 128).unwrap();
            assert_eq!((dsb.logstart, dsb.nlog), (REGION0_HEAD as u32, 2 * 257));
            for (blockno, data) in &scenario.writes {
                dev.write_block(*blockno, data).unwrap();
            }
            // The mount is the recovery; nothing else has been logged, so
            // the log's block count is the replay count.  Dropping the
            // mount without `destroy` writes nothing more.
            let fs = mount(Arc::clone(&dev));
            let replayed = fs.write_path_stats().unwrap().log_blocks as usize;
            fs.lookup(fs.root_ino(), ".").unwrap();
            drop(fs);
            let what = format!("{}: {name}", scenario.name);
            assert!(headers_clean(&dev, &XV6), "{what}: a header was left non-clean");
            assert_eq!(replayed, expected_replays(scenario.name), "{what}: replay count");
            results.push((replayed, dump_device(&dev)));
        }
        assert_eq!(results[0].0, results[1].0, "{}: replay counts differ", scenario.name);
        assert!(results[0].1 == results[1].1, "{}: device bytes differ", scenario.name);
    }
}

/// ext4sim mounts the same journal over its own layout: the same hostile
/// headers, translated to its regions and data area, must give the replay
/// count and the probed bytes the bare journal gives on the xv6 layout.
/// Its mount leaves the headers clean, and a second mount writes nothing.
#[test]
fn hostile_headers_recover_identically_through_an_ext4_mount() {
    let ext4 = ext4_geometry();
    let reference: Vec<(usize, Vec<Vec<u8>>)> = scenarios(&XV6)
        .iter()
        .filter(|scenario| scenario.name != "over-capacity-count")
        .map(|scenario| {
            let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
            for (blockno, data) in &scenario.writes {
                dev.write_block(*blockno, data).unwrap();
            }
            let replayed = all_stacks()[0].open(Arc::clone(&dev), DISK_BLOCKS as u32).recover();
            let probed = scenario.probe(&XV6).into_iter().map(|b| read(&dev, b)).collect();
            (replayed.unwrap(), probed)
        })
        .collect();
    let translated = scenarios(&ext4);
    assert_eq!(translated.len(), reference.len());
    for (scenario, (expected, bytes)) in translated.iter().zip(reference) {
        let what = scenario.name;
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, EXT4_DISK_BLOCKS));
        drop(ext4sim::Ext4Sim::format_and_mount(Arc::clone(&dev)).unwrap());
        for (blockno, data) in &scenario.writes {
            dev.write_block(*blockno, data).unwrap();
        }
        // The mount is the recovery: the journal's block count is the
        // replay count.
        let fs = ext4sim::Ext4Sim::mount(Arc::clone(&dev)).unwrap();
        let replayed = fs.journal_stats().blocks_journaled as usize;
        assert!(fs.check_consistency().is_clean(), "{what}: {:?}", fs.check_consistency().errors);
        drop(fs);
        assert_eq!((replayed, expected), (expected_replays(what), expected), "{what}");
        assert!(headers_clean(&dev, &ext4), "{what}: a header was left non-clean");
        let probed: Vec<Vec<u8>> =
            scenario.probe(&ext4).into_iter().map(|b| read(&dev, b)).collect();
        assert!(probed == bytes, "{what}: ext4sim left different bytes than the bare journal");
        let writes = dev.stats().writes;
        drop(ext4sim::Ext4Sim::mount(Arc::clone(&dev)).unwrap());
        assert_eq!(dev.stats().writes, writes, "{what}: a second mount wrote to the device");
    }
}

#[test]
fn valid_records_install_payload_identically() {
    // Focused follow-up on the replaying scenarios: the installed home
    // bytes must be the payload bytes on every stack.
    for stack in all_stacks() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
        dev.write_block(REGION0_HEAD, &head_with(1, &[900], &[0xC1])).unwrap();
        dev.write_block(REGION0_HEAD + 1, &[0xC1; BSIZE]).unwrap();
        dev.write_block(REGION1_HEAD, &head_with(2, &[900, 902], &[0xD1, 0xD2])).unwrap();
        dev.write_block(REGION1_HEAD + 1, &[0xD1; BSIZE]).unwrap();
        dev.write_block(REGION1_HEAD + 2, &[0xD2; BSIZE]).unwrap();
        let log = stack.open(Arc::clone(&dev), DISK_BLOCKS as u32);
        assert_eq!(log.recover().unwrap(), 3, "{}", stack.name());
        assert!(
            log.read_block(900).unwrap().iter().all(|&b| b == 0xD1),
            "{}: seq order not honored for conflicting home",
            stack.name()
        );
        assert!(
            log.read_block(902).unwrap().iter().all(|&b| b == 0xD2),
            "{}: payload not installed",
            stack.name()
        );
    }
}

#[test]
fn a_rejected_record_is_never_revalidated_by_a_later_session_on_any_stack() {
    for stack in all_stacks() {
        let name = stack.name();
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
        dev.write_block(900, &[0x77; BSIZE]).unwrap();
        dev.write_block(901, &[0x77; BSIZE]).unwrap();
        // Session 1 crashed mid-epoch: record X (two zero-filled blocks for
        // homes 900 and 901) is durable, its payload only in part.
        dev.write_block(REGION0_HEAD, &head_with(0, &[900, 901], &[0, 0])).unwrap();
        dev.write_block(REGION0_HEAD + 2, &[0xEE; BSIZE]).unwrap();
        // Session 2 mounts (X is rejected) ...
        assert_eq!(stack.open(Arc::clone(&dev), DISK_BLOCKS as u32).recover().unwrap(), 0);
        assert!(headers_clean(&dev, &XV6), "{name}: X's header survived the mount");
        // ... commits a different group of two zero-filled blocks into the
        // same region, and crashes mid-epoch: payload complete, its own
        // record not on the medium.
        dev.write_block(REGION0_HEAD + 1, &[0; BSIZE]).unwrap();
        dev.write_block(REGION0_HEAD + 2, &[0; BSIZE]).unwrap();
        // Session 3 must not find X valid and zero homes it never owned.
        let log = stack.open(Arc::clone(&dev), DISK_BLOCKS as u32);
        assert_eq!(log.recover().unwrap(), 0, "{name}");
        for home in [900, 901] {
            assert!(log.read_block(home).unwrap().iter().all(|&b| b == 0x77), "{name}: {home}");
        }
    }
}
