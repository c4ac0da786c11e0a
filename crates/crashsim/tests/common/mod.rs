//! Shared by the planted-fault suites: the harness run both use, and the
//! clean-unmount scenario, which `run_crash_test`'s workload (dropped
//! without an unmount) never reaches.

use std::sync::Arc;

use bento::bentofs::{BentoFs, DEFAULT_BUFFER_CACHE_BLOCKS};
use crashsim::{
    run_crash_test_planted, sampled_states, CrashMode, CrashStack, CrashTestConfig, DiskImage,
    FaultConfig, FaultDevice,
};
use ext4sim::Ext4Sim;
use journal::PlantedFault;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::queue::{MultiQueueDevice, QueueConfig};
use simkernel::vfs::{FileMode, VfsFs, PAGE_SIZE};
use xv6fs::Xv6FileSystem;

/// The harness run of both suites.  Sampled mode: in submission order the
/// record follows its payload and the installs follow the barrier, so only
/// subset/reorder states exercise the freedom a planted fault hands the
/// write cache.
pub fn config(seed: u64, queue_depth: usize) -> CrashTestConfig {
    CrashTestConfig {
        seed,
        ops: 60,
        disk_blocks: 4096,
        mode: CrashMode::Sampled { states: 300 },
        max_violations: 8,
        queue_depth,
    }
}

/// Asserts the fsck/durability oracles report `fault` planted in `stack`'s
/// journal.
pub fn assert_caught(stack: CrashStack, cfg: &CrashTestConfig, fault: PlantedFault) {
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

/// Mounts `stack` on `dev` with `fault` planted in its journal (Bento xv6
/// or ext4sim).
fn mount(stack: CrashStack, dev: Arc<dyn BlockDevice>, fault: PlantedFault) -> Arc<dyn VfsFs> {
    match stack {
        CrashStack::Ext4 => Ext4Sim::mount_planted(dev, fault).unwrap(),
        _ => {
            let fs = Xv6FileSystem::new().with_planted_log_fault(fault);
            BentoFs::mount("xv6fs", dev, DEFAULT_BUFFER_CACHE_BLOCKS, Box::new(fs)).unwrap()
        }
    }
}

/// The stack's structural checker over a mounted crash image.
fn fsck(stack: CrashStack, fs: &Arc<dyn VfsFs>, disk: &Arc<dyn BlockDevice>) -> Vec<String> {
    match stack {
        CrashStack::Ext4 => {
            let any = fs.as_any().expect("ext4sim exposes its handle");
            any.downcast_ref::<Ext4Sim>().expect("an ext4sim mount").check_consistency().errors
        }
        _ => xv6fs::fsck::fsck_device(disk).unwrap().errors,
    }
}

/// Mounts `stack` — its journal carrying `fault` — on a recorder (under a
/// multi-queue device of depth `queue_depth` when nonzero), creates,
/// writes and fsyncs [`FILES`] files, unmounts cleanly, and samples crash
/// states of the whole run.  Returns one line per state in which a file
/// whose fsync had been acknowledged before the crash is missing or wrong
/// after a (correct) remount, or the checker complains.
pub fn clean_unmount_violations(
    stack: CrashStack,
    queue_depth: usize,
    fault: PlantedFault,
) -> Vec<String> {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 4096));
    match stack {
        CrashStack::Ext4 => drop(Ext4Sim::format_and_mount(Arc::clone(&base)).unwrap()),
        _ => drop(xv6fs::mkfs::mkfs_on_device(&base, 256).unwrap()),
    }
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
        let fs = mount(stack, dev, fault);
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
        let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let fs = mount(stack, Arc::clone(&disk), PlantedFault::None);
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
        let errors = fsck(stack, &fs, &disk);
        if !errors.is_empty() {
            violations.push(format!("{}: fsck: {errors:?}", state.description));
        }
    }
    violations
}
