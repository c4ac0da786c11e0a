//! Proof that the checker has teeth: each protocol violation the journal
//! can be made to commit ([`PlantedFault`]) must be caught by the full
//! stack's oracles — fsck and fsync durability over enumerated crash
//! states of Bento xv6 and of ext4sim — while the identical run with
//! nothing planted is clean.
//!
//! The one-barrier commit lets the commit record share a barrier epoch
//! with its payload, so what used to be planted *orderings* (record ahead
//! of payload) are now legal; the rules that carry the safety instead are
//! the payload digest at recovery, installs strictly after the commit
//! barrier, the barriers ahead of a checkpoint's header clears, and
//! installs of the frozen block rather than the buffer's current bytes.
//! Two more rules are the xv6 binding's: a fresh data block skips its
//! zero fill only when its first write covers it whole, and an inode is
//! skipped by the log only when none of its bytes changed.  Three guard
//! the blocks a group allocates and writes straight home: recovery checks
//! each direct home against its record, and a fresh block is logged
//! instead while an older copy of it is live or when its own group freed
//! it.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;

use bento::bentoks::{KernelBlockIo, SuperBlock};
use crashsim::{
    prefix_states, run_crash_test, run_crash_test_planted, sampled_states, CrashMode, CrashState,
    CrashTestConfig, DiskImage, Event, FaultConfig, FaultDevice, SnapshotDisk, WriteTrace,
};
use journal::record::{parse_head, LOG_HEAD_MAX_ENTRIES};
use journal::PlantedFault;
use parking_lot::Mutex;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, DeviceStats, RamDisk};
use simkernel::error::KernelResult;
use simkernel::vfs::{FileMode, VfsFs, PAGE_SIZE};
use workloads::{format, mount_stack_on, FsStack};
use xv6fs::core::FsCore;
use xv6fs::layout::T_FILE;
use xv6fs::log::Log;
use xv6fs::mkfs::mkfs_on_device;

/// The harness run of the suite.  Sampled mode: in submission order the
/// record follows its payload and the installs follow the barrier, so only
/// subset/reorder states exercise the freedom a planted fault hands the
/// write cache.
fn config() -> CrashTestConfig {
    CrashTestConfig {
        seed: 0xBAD_C0DE,
        ops: 60,
        // ext4sim's reserved area (log ring and inode table) ends near
        // block 5 100; this leaves both stacks room for data.
        disk_blocks: 6144,
        mode: CrashMode::Sampled { states: 300 },
        max_violations: 8,
    }
}

/// ext4sim's run is longer: it commits only on fsync, so 60 operations
/// make a handful of large groups, and recovery's replay of up to four
/// records rewrites most blocks a planted early install touched.
fn ext4_config() -> CrashTestConfig {
    CrashTestConfig { ops: 200, ..config() }
}

/// Asserts the fsck/durability oracles report `fault` planted in `stack`'s
/// journal.
fn assert_caught(stack: FsStack, cfg: &CrashTestConfig, fault: PlantedFault) {
    let report = run_crash_test_planted(stack, cfg, fault).unwrap();
    assert!(
        report.violations_found > 0,
        "{stack:?}: planted {fault:?} went undetected across {} crash states",
        report.states_checked
    );
}

const FILES: usize = 6;

fn name(i: usize) -> String {
    format!("mail{i}")
}

fn content(i: usize) -> Vec<u8> {
    vec![0xA0 + i as u8; PAGE_SIZE]
}

/// The clean-unmount scenario, which `run_crash_test`'s workload (dropped
/// without an unmount) never reaches: mounts `stack` — its journal
/// carrying `fault` — on a recorder, creates, writes and fsyncs [`FILES`]
/// files, unmounts cleanly, and samples crash states of the whole run.
/// Returns one line per state in which a file whose fsync had been
/// acknowledged before the crash is missing or wrong after a (correct)
/// remount, or the checker complains.
fn clean_unmount_violations(stack: FsStack, fault: PlantedFault) -> Vec<String> {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 6144));
    format(stack, &base, 256).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));

    // Event count at which file i's fsync was acknowledged.
    let mut acked = Vec::new();
    {
        let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
        let fs = mount_stack_on(stack, dev, CostModel::zero(), fault).unwrap().fs;
        for i in 0..FILES {
            let attr = fs.create(fs.root_ino(), &name(i), FileMode::regular()).unwrap();
            fs.write_page(attr.ino, 0, &content(i), PAGE_SIZE as u64).unwrap();
            fs.fsync(attr.ino, false).unwrap();
            acked.push(recorder.durable_event_count());
        }
        fs.destroy().unwrap();
    }

    let trace = recorder.trace();
    let mut violations = Vec::new();
    for state in sampled_states(&trace, &image, 0x0C1E_A2ED, 400) {
        let disk = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let mounted = mount_stack_on(stack, disk, CostModel::zero(), PlantedFault::None).unwrap();
        let fs = &mounted.fs;
        let promised = acked.iter().take_while(|&&at| at <= state.durable_events).count();
        for i in 0..promised {
            let mut page = vec![0u8; PAGE_SIZE];
            let intact = fs.lookup(fs.root_ino(), &name(i)).is_ok_and(|attr| {
                fs.read_page(attr.ino, 0, &mut page).is_ok_and(|n| page[..n] == content(i)[..])
            });
            if !intact {
                violations.push(format!("{}: acknowledged {} lost", state.description, name(i)));
            }
        }
        let errors = mounted.check().unwrap();
        if !errors.is_empty() {
            violations.push(format!("{}: fsck: {errors:?}", state.description));
        }
    }
    violations
}

#[test]
fn the_same_run_with_nothing_planted_is_clean() {
    let clean = run_crash_test(FsStack::BentoXv6, &config()).unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations.iter().take(3).collect::<Vec<_>>());
    assert!(clean_unmount_violations(FsStack::BentoXv6, PlantedFault::None).is_empty());
}

/// (a) A record persisted ahead of its payload — or outliving it — is
/// replayed: recovery installs stale log-region bytes over live metadata.
#[test]
fn recovery_that_skips_the_payload_digest_is_caught() {
    assert_caught(FsStack::BentoXv6, &config(), PlantedFault::TrustHeaderChecksum);
}

/// A badly broken image fails fsck thousands of times per state: the
/// report counts each bad state once, keeps the per-state error counts,
/// and formats no more than `max_violations` of them.
#[test]
fn a_broken_run_counts_bad_states_and_formats_only_the_kept_violations() {
    let cfg =
        CrashTestConfig { ops: 120, max_violations: 8, ..CrashTestConfig::standard(0xBAD0B10) };
    let report =
        run_crash_test_planted(FsStack::BentoXv6, &cfg, PlantedFault::TrustHeaderChecksum).unwrap();
    let errors = &report.errors_per_state;
    assert_eq!(errors.len(), report.states_checked);
    let bad = errors.iter().filter(|&&n| n > 0).count();
    assert!(bad > 0, "the planted fault went undetected");
    assert_eq!(report.violations_found, bad, "one count per bad state");
    assert!(errors.iter().sum::<usize>() > 10 * bad, "many errors per bad state: {errors:?}");
    assert_eq!(report.violations.len(), cfg.max_violations, "formatted only the kept ones");
}

/// (b) A group half installed with no durable record to finish it from.
#[test]
fn installs_before_the_commit_barrier_are_caught() {
    assert_caught(FsStack::BentoXv6, &config(), PlantedFault::InstallBeforeBarrier);
}

/// (c) An fsync-acknowledged file lost when the unmount's final header
/// clear overtakes the installs it presupposes.
#[test]
fn checkpoint_clear_without_barrier_is_caught() {
    let violations =
        clean_unmount_violations(FsStack::BentoXv6, PlantedFault::CheckpointWithoutBarrier);
    assert!(violations.iter().any(|v| v.contains("acknowledged")), "undetected: {violations:#?}");
}

/// ext4sim commits on the same journal, so it inherits the same rules and
/// the same teeth: the identical runs are clean with nothing planted, and
/// each planted fault is caught by ext4sim's consistency checker or the
/// durability oracle.
#[test]
fn ext4_the_same_run_with_nothing_planted_is_clean() {
    let clean = run_crash_test(FsStack::Ext4, &ext4_config()).unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations.iter().take(3).collect::<Vec<_>>());
    assert!(clean_unmount_violations(FsStack::Ext4, PlantedFault::None).is_empty());
}

#[test]
fn ext4_recovery_that_skips_the_payload_digest_is_caught() {
    assert_caught(FsStack::Ext4, &ext4_config(), PlantedFault::TrustHeaderChecksum);
}

#[test]
fn ext4_installs_before_the_commit_barrier_are_caught() {
    assert_caught(FsStack::Ext4, &ext4_config(), PlantedFault::InstallBeforeBarrier);
}

#[test]
fn ext4_checkpoint_clear_without_barrier_is_caught() {
    let violations =
        clean_unmount_violations(FsStack::Ext4, PlantedFault::CheckpointWithoutBarrier);
    assert!(violations.iter().any(|v| v.contains("acknowledged")), "undetected: {violations:#?}");
}

/// Passes everything to `inner`, and runs `hook` (once, when armed) at the
/// start of the next batched write — a commit's epoch.
struct EpochHook {
    inner: Arc<dyn BlockDevice>,
    hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl BlockDevice for EpochHook {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        self.inner.read_block(blockno, buf)
    }
    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        self.inner.write_block(blockno, buf)
    }
    fn write_blocks(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        if let Some(hook) = self.hook.lock().take() {
            hook();
        }
        self.inner.write_blocks(writes)
    }
    fn flush(&self) -> KernelResult<()> {
        self.inner.flush()
    }
    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

fn kernel_sb(dev: Arc<dyn BlockDevice>) -> SuperBlock {
    bento::userspace::userspace_superblock(Arc::new(KernelBlockIo::new(dev, 512)), "bento")
}

fn logged_op(sb: &SuperBlock, log: &Log, writes: &[(u64, u8)]) {
    log.begin_op();
    for &(home, fill) in writes {
        let mut buf = sb.bread(home).unwrap();
        buf.data_mut().fill(fill);
        log.log_write(&buf).unwrap();
    }
    log.end_op(sb).unwrap();
}

/// Bento xv6's log binding — xv6fs's log over a Bento kernel
/// [`SuperBlock`] — with `fault` planted, where one operation is still
/// running while an earlier group's copy falls due: group 0 logs home `H`;
/// groups 1–3 log other blocks; while group 3's epoch is being written, a
/// second thread's operation rewrites `H` and `K` (staged, not ended), and
/// group 3's epoch installs group 0's `H`; then that operation ends and
/// commits as group 4, reusing group 0's region.  Every in-order crash
/// prefix of the run is recovered and checked for the operation's
/// atomicity: `H` holds its bytes exactly when `K` does.  The
/// single-threaded harness cannot reach this: an install differs from the
/// buffer only while another operation is open.
fn live_install_violations(fault: PlantedFault) -> Vec<String> {
    const H: u64 = 3000;
    const K: u64 = 3001;
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 4096));
    let dsb = mkfs_on_device(&base, 256).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let hooked = Arc::new(EpochHook { inner: Arc::clone(&recorder) as _, hook: Mutex::new(None) });
    let sb = Arc::new(kernel_sb(Arc::clone(&hooked) as _));
    let mut log = Log::new(&dsb);
    log.plant_fault(fault);
    let log = Arc::new(log);

    logged_op(&sb, &log, &[(H, 0xA0)]);
    logged_op(&sb, &log, &[(H + 10, 0x01)]);
    logged_op(&sb, &log, &[(H + 11, 0x02)]);
    let (go, wait_go) = mpsc::channel::<()>();
    let (staged, wait_staged) = mpsc::channel::<()>();
    let (finish, wait_finish) = mpsc::channel::<()>();
    let later = {
        let (sb, log) = (Arc::clone(&sb), Arc::clone(&log));
        std::thread::spawn(move || {
            wait_go.recv().unwrap();
            log.begin_op();
            for (home, fill) in [(H, 0xB0), (K, 0xB1)] {
                let mut buf = sb.bread(home).unwrap();
                buf.data_mut().fill(fill);
                log.log_write(&buf).unwrap();
            }
            staged.send(()).unwrap();
            wait_finish.recv().unwrap();
            log.end_op(&sb).unwrap();
        })
    };
    *hooked.hook.lock() = Some(Box::new(move || {
        go.send(()).unwrap();
        wait_staged.recv().unwrap();
    }));
    logged_op(&sb, &log, &[(H + 12, 0x03)]);
    assert_eq!(log.stats().installs, 1, "group 3's epoch installed group 0's copy of H");
    finish.send(()).unwrap();
    later.join().unwrap();
    assert_eq!(log.stats().commits, 5);

    let mut violations = Vec::new();
    for state in prefix_states(&recorder.trace(), &image) {
        let disk = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let sb = kernel_sb(Arc::clone(&disk));
        Log::new(&dsb).recover(&sb).unwrap();
        let fill = |home| {
            let mut block = vec![0u8; PAGE_SIZE];
            disk.read_block(home, &mut block).unwrap();
            block[0]
        };
        let (h, k) = (fill(H), fill(K));
        if (h == 0xB0) != (k == 0xB1) {
            violations.push(format!("{}: H = {h:#x}, K = {k:#x}", state.description));
        }
    }
    violations
}

/// (d) An install of the buffer's current bytes instead of the frozen
/// block: a running operation's half reaches the home and, once the region
/// holding the committed copy is reused, survives recovery.
#[test]
fn installing_the_live_buffer_instead_of_the_frozen_block_is_caught() {
    assert_eq!(live_install_violations(PlantedFault::None), Vec::<String>::new());
    let violations = live_install_violations(PlantedFault::InstallLiveBuffer);
    assert!(!violations.is_empty(), "the live-buffer install went undetected");
}

/// Bento xv6 with `fault` planted, on a recorder: `script` runs against
/// the mount and ends with file `new` holding `expected`, fsynced.  Every
/// sampled crash state whose durable prefix covers that fsync must read
/// the file back exactly, and every state must pass fsck.
fn fsynced_file_violations(
    fault: PlantedFault,
    expected: &[u8],
    script: impl FnOnce(&dyn VfsFs),
) -> Vec<String> {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 4096));
    format(FsStack::BentoXv6, &base, 256).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let acked = {
        let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
        let fs = mount_stack_on(FsStack::BentoXv6, dev, CostModel::zero(), fault).unwrap().fs;
        script(&*fs);
        let acked = recorder.durable_event_count();
        fs.destroy().unwrap();
        acked
    };

    let mut violations = Vec::new();
    for state in sampled_states(&recorder.trace(), &image, 0x2E40_F111, 200) {
        let disk = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let mounted =
            mount_stack_on(FsStack::BentoXv6, disk, CostModel::zero(), PlantedFault::None).unwrap();
        let fs = &mounted.fs;
        if state.durable_events >= acked {
            let mut file = vec![0u8; expected.len()];
            let intact = fs.lookup(fs.root_ino(), "new").is_ok_and(|attr| {
                let mut pages: Vec<&mut [u8]> = file.chunks_mut(PAGE_SIZE).collect();
                fs.read_pages(attr.ino, 0, &mut pages).is_ok_and(|n| n == expected.len())
            });
            if !intact || file != expected {
                let stale = file.iter().filter(|&&b| b == 0xEE).count();
                violations
                    .push(format!("{}: new file wrong ({stale} stale bytes)", state.description));
            }
        }
        let errors = mounted.check().unwrap();
        if !errors.is_empty() {
            violations.push(format!("{}: fsck: {errors:?}", state.description));
        }
    }
    violations
}

/// A file fills one page with `0xEE` and is deleted, which frees its
/// block; a new file takes that block with a 100-byte first write (a
/// partial page at end of file), then grows by a whole second page, so the
/// rest of its first block lies inside the file and must read as zeros.
fn partial_first_write_violations(fault: PlantedFault) -> Vec<String> {
    let mut expected = vec![0u8; 2 * PAGE_SIZE];
    expected[..100].fill(0x11);
    expected[PAGE_SIZE..].fill(0x22);
    fsynced_file_violations(fault, &expected, |fs| {
        let root = fs.root_ino();
        let old = fs.create(root, "old", FileMode::regular()).unwrap().ino;
        fs.write_page(old, 0, &[0xEE; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        fs.fsync(old, false).unwrap();
        fs.unlink(root, "old").unwrap();
        let new = fs.create(root, "new", FileMode::regular()).unwrap().ino;
        fs.write_page(new, 0, &expected[..PAGE_SIZE], 100).unwrap();
        fs.write_page(new, 1, &expected[PAGE_SIZE..], 2 * PAGE_SIZE as u64).unwrap();
        fs.fsync(new, false).unwrap();
    })
}

/// (e) A fresh block handed out without its zero fill for a partial first
/// write: the freed file's bytes reappear inside the fsynced new file.
#[test]
fn a_partial_first_write_into_an_unzeroed_block_is_caught() {
    assert_eq!(partial_first_write_violations(PlantedFault::None), Vec::<String>::new());
    let violations = partial_first_write_violations(PlantedFault::PartialWriteSkipsZeroFill);
    assert!(violations.iter().any(|v| v.contains("stale")), "undetected: {violations:#?}");
}

/// (f) An inode judged unchanged by its size alone: a write that fills a
/// hole inside the file changes the inode's block map, not its size, so
/// the pointer to the filled block never reaches the log and the fsynced
/// bytes read back as a hole.
#[test]
fn a_hole_fill_logged_without_its_inode_is_caught() {
    let mut expected = vec![0u8; 3 * PAGE_SIZE];
    expected[..PAGE_SIZE].fill(0x22);
    expected[2 * PAGE_SIZE..].fill(0x11);
    let violations = |fault| {
        fsynced_file_violations(fault, &expected, |fs| {
            let new = fs.create(fs.root_ino(), "new", FileMode::regular()).unwrap().ino;
            let size = 3 * PAGE_SIZE as u64;
            fs.write_page(new, 2, &expected[2 * PAGE_SIZE..], size).unwrap();
            fs.fsync(new, false).unwrap();
            fs.write_page(new, 0, &expected[..PAGE_SIZE], size).unwrap();
            fs.fsync(new, false).unwrap();
        })
    };
    assert_eq!(violations(PlantedFault::None), Vec::<String>::new());
    let caught = violations(PlantedFault::SizeOnlyInodeCompare);
    assert!(caught.iter().any(|v| v.contains("new file wrong")), "undetected: {caught:#?}");
}

/// For each epoch of `trace` that ends in a commit record naming direct
/// homes, the crash state in which every write up to that record reached
/// the medium except the direct ones: the write cache persisted the record
/// ahead of the blocks the group wrote straight home.
fn direct_writes_lost(trace: &WriteTrace, image: &Arc<DiskImage>) -> Vec<CrashState> {
    let mut durable: HashMap<u64, Arc<Vec<u8>>> = HashMap::new();
    let mut states = Vec::new();
    for epoch in trace.epochs() {
        let writes: Vec<(u64, &Vec<u8>)> = (trace.events[epoch.clone()].iter())
            .filter_map(|event| match event {
                Event::Write { blockno, data } => Some((*blockno, data)),
                Event::Flush => None,
            })
            .collect();
        let direct = (writes.last())
            .and_then(|(_, head)| parse_head(head, LOG_HEAD_MAX_ENTRIES))
            .map_or_else(Vec::new, |record| record.direct);
        if !direct.is_empty() {
            let mut overlay = durable.clone();
            let lost = |home: &u64| direct.iter().any(|(direct, _)| direct == home);
            for &(blockno, data) in writes.iter().filter(|(blockno, _)| !lost(blockno)) {
                overlay.insert(blockno, Arc::new(data.clone()));
            }
            states.push(CrashState {
                disk: Arc::new(SnapshotDisk::new(Arc::clone(image), overlay)),
                description: format!("epoch {epoch:?} without its {} direct writes", direct.len()),
                durable_events: epoch.start,
            });
        }
        durable.extend(writes.into_iter().map(|(blockno, data)| (blockno, Arc::new(data.clone()))));
    }
    states
}

/// Bento xv6 with `fault` planted (in the run and in every recovery), on
/// a recorder: one write gives a new file its first page, and the file is
/// unmounted.  In every crash state
/// that recovers the file at its new size — sampled, and each commit epoch
/// with its record persisted ahead of its direct writes — the page must
/// read back whole: the write is one transaction.
fn first_page_violations(fault: PlantedFault) -> Vec<String> {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 4096));
    format(FsStack::BentoXv6, &base, 256).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    {
        let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
        let fs = mount_stack_on(FsStack::BentoXv6, dev, CostModel::zero(), fault).unwrap().fs;
        let new = fs.create(fs.root_ino(), "new", FileMode::regular()).unwrap().ino;
        fs.write_page(new, 0, &[0x11; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        fs.destroy().unwrap();
    }
    let trace = recorder.trace();
    let mut states = direct_writes_lost(&trace, &image);
    assert!(!states.is_empty(), "the write sends its new block home directly");
    states.extend(sampled_states(&trace, &image, 0xF125_7BA6, 200));
    let mut violations = Vec::new();
    for state in states {
        let disk = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let mounted = mount_stack_on(FsStack::BentoXv6, disk, CostModel::zero(), fault).unwrap();
        let fs = &mounted.fs;
        let Ok(attr) = fs.lookup(fs.root_ino(), "new") else { continue };
        let mut page = vec![0u8; PAGE_SIZE];
        if attr.size > 0 && (fs.read_page(attr.ino, 0, &mut page).is_err() || page[0] != 0x11) {
            violations.push(format!("{}: new file's page lost under its size", state.description));
        }
    }
    violations
}

/// (g) Recovery that accepts a record without checking its direct homes:
/// a record the write cache persisted ahead of a file's new data block
/// commits the write over whatever the block held before.
#[test]
fn recovery_that_skips_the_direct_home_check_is_caught() {
    assert_eq!(first_page_violations(PlantedFault::None), Vec::<String>::new());
    let caught = first_page_violations(PlantedFault::UncheckedDirectHome);
    assert!(caught.iter().any(|v| v.contains("page lost")), "undetected: {caught:#?}");
}

/// (h) A fresh block sent home while an older copy of it is live: the
/// freed file's overwrite of its block is still pending and its record
/// live when the new file takes the block, so recovery replays the old
/// bytes over the new file's fsynced page.
#[test]
fn a_fresh_block_sent_home_over_a_live_copy_is_caught() {
    let expected = vec![0x11; PAGE_SIZE];
    let violations = |fault| {
        fsynced_file_violations(fault, &expected, |fs| {
            let root = fs.root_ino();
            let old = fs.create(root, "old", FileMode::regular()).unwrap().ino;
            fs.write_page(old, 0, &[0xEE; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
            fs.write_page(old, 0, &[0xEF; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
            fs.unlink(root, "old").unwrap();
            let new = fs.create(root, "new", FileMode::regular()).unwrap().ino;
            fs.write_page(new, 0, &expected, PAGE_SIZE as u64).unwrap();
            fs.fsync(new, false).unwrap();
        })
    };
    assert_eq!(violations(PlantedFault::None), Vec::<String>::new());
    let caught = violations(PlantedFault::FreshIgnoresLiveCopies);
    assert!(caught.iter().any(|v| v.contains("new file wrong")), "undetected: {caught:#?}");
}

/// The xv6 core over a Bento kernel [`SuperBlock`], with `fault` planted:
/// file `old` gets one fsynced page, four more commits retire its record,
/// then one group — an outer operation around the calls — unlinks `old`
/// and creates `new`, whose first page takes `old`'s freed block.  In
/// every crash state (in-order prefixes and sampled reorders) that
/// recovers without `new`, `old` must read back whole; with `new`, `new`
/// must.  The single-threaded VFS stacks close a group per operation, so
/// only an outer operation puts a free and an allocation in one group.
fn own_free_violations(fault: PlantedFault) -> Vec<String> {
    let page = |fill| vec![fill; PAGE_SIZE];
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 4096));
    format(FsStack::BentoXv6, &base, 256).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let old_acked = {
        let sb = kernel_sb(Arc::clone(&recorder) as _);
        let mut core = FsCore::load(&sb).unwrap();
        core.log.plant_fault(fault);
        core.log.recover(&sb).unwrap();
        let old = core.mknod(&sb, 1, "old", T_FILE).unwrap().ino;
        core.write(&sb, old, 0, &page(0xEE)).unwrap();
        core.fsync(&sb).unwrap();
        let old_acked = recorder.durable_event_count();
        for i in 0..4 {
            core.mknod(&sb, 1, &format!("pad{i}"), T_FILE).unwrap();
        }
        core.log.begin_op();
        core.remove(&sb, 1, "old", false).unwrap();
        let new = core.mknod(&sb, 1, "new", T_FILE).unwrap().ino;
        core.write(&sb, new, 0, &page(0x11)).unwrap();
        core.log.end_op(&sb).unwrap();
        core.unmount(&sb).unwrap();
        let stats = core.log.stats();
        if fault == PlantedFault::None {
            assert_eq!(stats.demoted, 1, "the freed block is logged when allocated again");
        }
        old_acked
    };

    let trace = recorder.trace();
    let mut states = prefix_states(&trace, &image);
    states.extend(sampled_states(&trace, &image, 0x0F2E_EB10, 200));
    let mut violations = Vec::new();
    for state in states {
        let disk = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let mounted =
            mount_stack_on(FsStack::BentoXv6, disk, CostModel::zero(), PlantedFault::None).unwrap();
        let fs = &mounted.fs;
        let read = |name: &str| {
            let attr = fs.lookup(fs.root_ino(), name).ok()?;
            let mut block = vec![0u8; PAGE_SIZE];
            fs.read_page(attr.ino, 0, &mut block).ok()?;
            Some(block)
        };
        let (name, fill) = match fs.lookup(fs.root_ino(), "new") {
            Ok(_) => ("new", 0x11),
            Err(_) if state.durable_events >= old_acked => ("old", 0xEE),
            Err(_) => continue,
        };
        if read(name) != Some(page(fill)) {
            violations.push(format!("{}: {name} lost its page", state.description));
        }
        let errors = mounted.check().unwrap();
        if !errors.is_empty() {
            violations.push(format!("{}: fsck: {errors:?}", state.description));
        }
    }
    violations
}

/// (i) A fresh block sent home by the group that freed it: a crash before
/// the group's record lands recovers the state before it, where the block
/// is still `old`'s — and holds `new`'s page.
#[test]
fn a_fresh_block_sent_home_by_the_group_that_freed_it_is_caught() {
    assert_eq!(own_free_violations(PlantedFault::None), Vec::<String>::new());
    let caught = own_free_violations(PlantedFault::FreshIgnoresOwnFrees);
    assert!(caught.iter().any(|v| v.contains("old lost its page")), "undetected: {caught:#?}");
}
