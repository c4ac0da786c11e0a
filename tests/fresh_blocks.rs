//! A block the committing group allocated goes home once.  Until its group
//! commits, no state recovery can produce references a newly allocated
//! block, so the journal writes it straight to its home in the commit's
//! epoch — the commit record names it as a direct home and carries its
//! checksum — instead of copying it into the log and installing it three
//! commits (or an unmount) later.  These tests read the log's
//! `WritePathStats` around single fsynced operations on Bento and on
//! C-Kernel, and count the device writes of each page's bytes in a
//! recorded trace:
//!
//! * an fsynced create of a 3-page file sends its three data blocks home
//!   directly, each written once, and the unmount's checkpoint installs
//!   none of them;
//! * the counter-case: an overwrite inside EOF is committed state's
//!   replacement, so it is still logged, then installed.

use std::sync::Arc;

use crashsim::{Event, FaultConfig, FaultDevice};
use journal::PlantedFault;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{OpenFlags, WritePathStats, PAGE_SIZE};
use workloads::{format, mount_stack_on, FsStack, MountedStack};
use xv6fs::layout::LOGSIZE;

const DISK_BLOCKS: u64 = 8192;
const KERNEL_XV6: [FsStack; 2] = [FsStack::BentoXv6, FsStack::VfsXv6];
/// First block past the xv6 log area (the log starts at block 2).
const LOG_END: u64 = 2 + LOGSIZE as u64;

fn mount(stack: FsStack) -> (MountedStack, Arc<FaultDevice>) {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, DISK_BLOCKS));
    format(stack, &base, 256).unwrap();
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
    (mount_stack_on(stack, dev, CostModel::zero(), PlantedFault::None).unwrap(), recorder)
}

fn stats(mounted: &MountedStack) -> WritePathStats {
    mounted.fs.write_path_stats().unwrap()
}

fn page(fill: u8) -> Vec<u8> {
    vec![fill; PAGE_SIZE]
}

/// The trace indexes of every write of `bytes`, split into writes to the
/// log area and writes elsewhere (homes).
fn writes_of(recorder: &FaultDevice, bytes: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let (mut log, mut home) = (Vec::new(), Vec::new());
    for (i, event) in recorder.trace().events.iter().enumerate() {
        match event {
            Event::Write { blockno, data } if data[..] == *bytes && *blockno < LOG_END => {
                log.push(i)
            }
            Event::Write { data, .. } if data[..] == *bytes => home.push(i),
            _ => {}
        }
    }
    (log, home)
}

/// Creates `/f` with three distinct pages and fsyncs it.
fn create_three_pages(mounted: &MountedStack) {
    let vfs = &mounted.vfs;
    let fd = vfs.open("/f", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
    for i in 0..3 {
        vfs.write(fd, &page(0xA0 + i)).unwrap();
    }
    vfs.fsync(fd).unwrap();
    vfs.close(fd).unwrap();
}

#[test]
fn an_fsynced_create_writes_each_data_block_once_and_the_checkpoint_installs_none() {
    for stack in KERNEL_XV6 {
        let (mounted, recorder) = mount(stack);
        let before = stats(&mounted);
        create_three_pages(&mounted);
        let after = stats(&mounted);
        assert_eq!(after.direct_blocks - before.direct_blocks, 3, "{stack:?}");
        let unmount_at = recorder.event_count();
        mounted.unmount_and_check().unwrap_or_else(|e| panic!("{stack:?}: {e}"));
        for i in 0..3 {
            let (log, home) = writes_of(&recorder, &page(0xA0 + i));
            assert_eq!(log, Vec::<usize>::new(), "{stack:?}: page {i} was logged");
            assert_eq!(home.len(), 1, "{stack:?}: page {i} written {} times", home.len());
            assert!(home[0] < unmount_at, "{stack:?}: page {i} installed by the checkpoint");
        }
    }
}

#[test]
fn an_overwrite_inside_eof_is_still_logged_and_installed() {
    for stack in KERNEL_XV6 {
        let (mounted, recorder) = mount(stack);
        create_three_pages(&mounted);
        let before = stats(&mounted);
        let fd = mounted.vfs.open("/f", OpenFlags::RDWR).unwrap();
        mounted.vfs.pwrite(fd, &page(0xB1), PAGE_SIZE as u64).unwrap();
        mounted.vfs.fsync(fd).unwrap();
        mounted.vfs.close(fd).unwrap();
        let after = stats(&mounted);
        assert_eq!(after.direct_blocks, before.direct_blocks, "{stack:?}: nothing allocated");
        assert_eq!(after.log_blocks - before.log_blocks, 1, "{stack:?}: the data block alone");
        let unmount_at = recorder.event_count();
        mounted.unmount_and_check().unwrap_or_else(|e| panic!("{stack:?}: {e}"));
        let (log, home) = writes_of(&recorder, &page(0xB1));
        assert_eq!(log.len(), 1, "{stack:?}: logged once");
        assert_eq!(home.len(), 1, "{stack:?}: installed once");
        assert!(home[0] >= unmount_at, "{stack:?}: by the unmount's checkpoint");
    }
}
