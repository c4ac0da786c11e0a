//! Shared by the planted-fault suites: the harness run both use, and the
//! clean-unmount scenario, which `run_crash_test`'s workload (dropped
//! without an unmount) never reaches.

use std::sync::Arc;

use crashsim::{
    run_crash_test_planted, sampled_states, CrashMode, CrashTestConfig, DiskImage, FaultConfig,
    FaultDevice,
};
use journal::PlantedFault;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::queue::{MultiQueueDevice, QueueConfig};
use simkernel::vfs::{FileMode, PAGE_SIZE};
use workloads::{format, mount_stack_on, FsStack};

/// The harness run of both suites.  Sampled mode: in submission order the
/// record follows its payload and the installs follow the barrier, so only
/// subset/reorder states exercise the freedom a planted fault hands the
/// write cache.
pub fn config(seed: u64, queue_depth: usize) -> CrashTestConfig {
    CrashTestConfig {
        seed,
        ops: 60,
        // ext4sim's reserved area (log ring and inode table) ends near
        // block 5 100; this leaves both stacks room for data.
        disk_blocks: 6144,
        mode: CrashMode::Sampled { states: 300 },
        max_violations: 8,
        queue_depth,
    }
}

/// Asserts the fsck/durability oracles report `fault` planted in `stack`'s
/// journal.
pub fn assert_caught(stack: FsStack, cfg: &CrashTestConfig, fault: PlantedFault) {
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

/// Mounts `stack` — its journal carrying `fault` — on a recorder (under a
/// multi-queue device of depth `queue_depth` when nonzero), creates,
/// writes and fsyncs [`FILES`] files, unmounts cleanly, and samples crash
/// states of the whole run.  Returns one line per state in which a file
/// whose fsync had been acknowledged before the crash is missing or wrong
/// after a (correct) remount, or the checker complains.
pub fn clean_unmount_violations(
    stack: FsStack,
    queue_depth: usize,
    fault: PlantedFault,
) -> Vec<String> {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 6144));
    format(stack, &base, 256).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let mut dev: Arc<dyn BlockDevice> = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
    if queue_depth > 0 {
        dev = Arc::new(MultiQueueDevice::new(
            dev,
            CostModel::zero(),
            QueueConfig::new(4, queue_depth),
        ));
    }

    // Event count at which file i's fsync was acknowledged.
    let mut acked = Vec::new();
    {
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
