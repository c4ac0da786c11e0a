//! Crash-recovery property tests for the shared pipelined, double-buffered
//! write-ahead log, run through the journal-generic harness
//! ([`crashsim::logharness`]): the same two-transaction scenario and the
//! same all-or-nothing, commit-ordered oracles apply to **every** log
//! stack — the bare `journal::Journal` and the xv6 core's log, which both
//! xv6 bindings mount — so a stack cannot drift out of the crash contract
//! without this test failing by name.

use std::collections::HashMap;
use std::sync::Arc;

use crashsim::logharness::all_stacks;
use crashsim::{prefix_states, DiskImage, FaultConfig, FaultDevice};
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{FileMode, VfsFs as _};
use xv6fs::layout::BSIZE;

/// Two committed transactions (one per log region) modifying overlapping
/// blocks; a crash at *every* write prefix must recover to an all-or-
/// nothing, commit-ordered state — on every stack.
#[test]
fn every_write_prefix_crash_recovers_atomically_on_every_stack() {
    const DISK_BLOCKS: u64 = 1024;
    for stack in all_stacks() {
        let name = stack.name();
        let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
        let image = Arc::new(DiskImage::capture(&base).unwrap());
        let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
        {
            let log = stack.open(Arc::clone(&recorder) as Arc<dyn BlockDevice>, DISK_BLOCKS as u32);
            // tx1 -> region 0: blocks 900 and 901.
            log.begin_op();
            log.log_fill(900, 0xA1).unwrap();
            log.log_fill(901, 0xA2).unwrap();
            log.end_op().unwrap();
            // tx2 -> region 1: block 900 again (conflict) and block 902.
            log.begin_op();
            log.log_fill(900, 0xB1).unwrap();
            log.log_fill(902, 0xB2).unwrap();
            log.end_op().unwrap();
        }
        let trace = recorder.trace();
        assert_eq!(trace.flush_count(), 2, "{name}: two commits, one barrier each");

        for state in prefix_states(&trace, &image) {
            let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
            // Reboot: a fresh mount (fresh cache, fresh log state) runs
            // recovery.
            let log = stack.open(Arc::clone(&disk), DISK_BLOCKS as u32);
            log.recover().unwrap();
            // Second recovery must be a no-op (headers cleaned).
            assert_eq!(log.recover().unwrap(), 0, "{name}: {}", state.description);

            let b900 = log.read_block(900).unwrap()[0];
            let b901 = log.read_block(901).unwrap()[0];
            let b902 = log.read_block(902).unwrap()[0];
            let tx2_applied = b902 == 0xB2;
            let tx1_applied = b901 == 0xA2;
            let state = &state.description;
            if tx2_applied {
                assert!(
                    tx1_applied,
                    "{name}: {state}: tx2 visible without tx1 (commit order broken)"
                );
                assert_eq!(b900, 0xB1, "{name}: {state}: tx2 partially applied");
            } else if tx1_applied {
                assert_eq!(b900, 0xA1, "{name}: {state}: tx1 partially applied");
                assert_eq!(b902, 0x00, "{name}: {state}: tx2 leaked without committing");
            } else {
                assert_eq!(
                    (b900, b901, b902),
                    (0, 0, 0),
                    "{name}: {state}: partial transaction visible"
                );
            }
        }
    }
}

/// Full-stack variant: crash at every write prefix while a burst of
/// creates commits through alternating log regions; every remount must
/// succeed, pass fsck, and leave a usable file system.
#[test]
fn full_stack_create_burst_survives_crash_at_every_write_prefix() {
    const DISK_BLOCKS: u64 = 4096;
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
    xv6fs::mkfs::mkfs_on_device(&base, 256).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    {
        let fs = xv6fs::fstype().mount_on(Arc::clone(&recorder) as Arc<dyn BlockDevice>).unwrap();
        for i in 0..30u32 {
            fs.create(1, &format!("c{i}"), FileMode::regular()).unwrap();
        }
    }
    let trace = recorder.trace();
    assert_eq!(trace.flush_count(), 30, "one commit, one barrier per create");

    let mut names_seen: HashMap<String, bool> = HashMap::new();
    for state in prefix_states(&trace, &image) {
        let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        // Reboot: mount runs recovery.
        let fs = xv6fs::fstype().mount_on(Arc::clone(&disk)).unwrap();
        let entries = fs.readdir(1).unwrap();
        for entry in &entries {
            if entry.name.starts_with('c') {
                // Every surviving directory entry resolves to a valid inode.
                fs.getattr(entry.ino).unwrap();
                names_seen.insert(entry.name.clone(), true);
            }
        }
        // The recovered image is structurally sound...
        let report = xv6fs::fsck::fsck_device(&disk).unwrap();
        assert!(report.is_clean(), "{}: {:?}", state.description, report.errors);
        // ...and the file system stays fully usable.
        let attr = fs.create(1, "post-crash", FileMode::regular()).unwrap();
        assert_eq!(fs.lookup(1, "post-crash").unwrap().ino, attr.ino);
    }
    // The final prefix holds the whole burst.
    assert!(names_seen.len() >= 30, "all creates visible at the full prefix");
}
