//! A cold page fill on the kernel xv6 stacks reads file data straight into
//! the pages: every whole block comes from the buffer if the cache holds
//! it and from the device otherwise, and nothing is inserted into the
//! buffer cache.  These tests pin the rule from both sides:
//!
//! * a block the log holds but has not installed at home yet — so the
//!   device's copy is stale and only the cached (dirty) buffer is current —
//!   reads back its new bytes, on Bento and on C-Kernel (a fill that always
//!   reads the device fails this);
//! * a cold 128 KiB Bento read is one file-system call, reads its 32 data
//!   blocks uncached and inserts none of them (a fill that always inserts
//!   fails this);
//! * a device `EIO` in the middle of a Bento fill run fails the read,
//!   caches nothing in either cache, and the retry reads the right bytes
//!   (the FUSE twin is `crates/fusesim/tests/fill_faults.rs`).

use std::sync::Arc;

use crashsim::{FaultConfig, FaultDevice};
use journal::PlantedFault;
use simkernel::buffer::BufferCacheStats;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::Errno;
use simkernel::vfs::{FileMode, OpenFlags, PAGE_SIZE};
use workloads::{format, mount_stack_on, FsStack, MountedStack, StackHandle};
use xv6fs::layout::DiskSuperblock;

const PAGES: usize = 8;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

fn mount(stack: FsStack, dev: &Arc<dyn BlockDevice>) -> MountedStack {
    mount_stack_on(stack, Arc::clone(dev), CostModel::zero(), PlantedFault::None).unwrap()
}

/// Bento's buffer-cache counts.
fn cache_stats(mounted: &MountedStack) -> BufferCacheStats {
    match &mounted.handle {
        StackHandle::Bento(fs) => fs.superblock().cache_stats(),
        _ => unreachable!("a Bento mount"),
    }
}

/// How many of `pages` lie, byte for byte, in some block of the data area
/// of `dev` (past the log, which holds the committed copies).
fn pages_at_home(dev: &Arc<dyn BlockDevice>, pages: &[u8]) -> usize {
    let mut block = vec![0u8; PAGE_SIZE];
    dev.read_block(1, &mut block).unwrap();
    let data_start = DiskSuperblock::decode(&block).unwrap().data_start();
    let mut found = 0;
    for blockno in data_start..dev.num_blocks() {
        dev.read_block(blockno, &mut block).unwrap();
        found += usize::from(pages.chunks(PAGE_SIZE).any(|page| page == block));
    }
    found
}

fn logged_blocks_read_back_through_a_cold_fill(stack: FsStack) {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 4096));
    format(stack, &dev, 256).unwrap();
    let mounted = mount(stack, &dev);
    let fs = &mounted.fs;
    let ino = fs.create(fs.root_ino(), "f", FileMode::regular()).unwrap().ino;
    let size = (PAGES * PAGE_SIZE) as u64;
    for salt in [0xA5, 0x5A] {
        let bytes = pattern(PAGES * PAGE_SIZE, salt);
        let pages: Vec<(u64, &[u8])> = (0..).zip(bytes.chunks(PAGE_SIZE)).collect();
        fs.write_pages(&[(ino, &pages, size)]).unwrap();
        fs.fsync(ino, false).unwrap();
    }
    let new = pattern(PAGES * PAGE_SIZE, 0x5A);
    let installed = pages_at_home(&dev, &new);
    assert!(installed < PAGES, "{stack:?}: some rewritten block still awaits its install");

    let mut bytes = vec![0u8; PAGES * PAGE_SIZE];
    let mut run: Vec<&mut [u8]> = bytes.chunks_mut(PAGE_SIZE).collect();
    assert_eq!(fs.read_pages(ino, 0, &mut run).unwrap(), PAGES * PAGE_SIZE);
    assert!(bytes == new, "{stack:?}: a fill read a stale home instead of the logged block");
    let mut page = vec![0u8; PAGE_SIZE];
    assert_eq!(fs.read_page(ino, PAGES as u64 - 1, &mut page).unwrap(), PAGE_SIZE);
    assert!(page == new[(PAGES - 1) * PAGE_SIZE..], "{stack:?}: read_page read a stale home");
    assert_eq!(pages_at_home(&dev, &new), installed, "{stack:?}: the fill wrote nothing");
    mounted.unmount_and_check().unwrap();
}

#[test]
fn bento_fills_a_logged_block_awaiting_its_install_from_the_cache() {
    logged_blocks_read_back_through_a_cold_fill(FsStack::BentoXv6);
}

#[test]
fn ckernel_fills_a_logged_block_awaiting_its_install_from_the_cache() {
    logged_blocks_read_back_through_a_cold_fill(FsStack::VfsXv6);
}

#[test]
fn a_cold_128k_bento_read_is_one_call_and_caches_no_data_block() {
    let len = 128 * 1024;
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 4096));
    format(FsStack::BentoXv6, &dev, 256).unwrap();
    let mounted = mount(FsStack::BentoXv6, &dev);
    let fd = mounted.vfs.open("/f", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
    mounted.vfs.write(fd, &pattern(len, 0)).unwrap();
    mounted.vfs.close(fd).unwrap();
    mounted.unmount().unwrap();

    let mounted = mount(FsStack::BentoXv6, &dev);
    let StackHandle::Bento(bento) = &mounted.handle else { unreachable!() };
    let fd = mounted.vfs.open("/f", OpenFlags::RDONLY).unwrap();
    let before = cache_stats(&mounted);
    let calls = bento.operations_dispatched();
    let mut buf = vec![0u8; len];
    assert_eq!(mounted.vfs.pread(fd, &mut buf, 0).unwrap(), len);
    assert!(buf == pattern(len, 0));
    let after = cache_stats(&mounted);
    assert_eq!(bento.operations_dispatched() - calls, 1, "the 32-page run is one call");
    assert_eq!(after.uncached_reads - before.uncached_reads, 32, "every data block uncached");
    // Blocks 12..31 are mapped through the single indirect block: that
    // metadata block is the only one the read caches.
    assert_eq!(after.cached - before.cached, 1, "no data block was inserted");
    mounted.vfs.close(fd).unwrap();
}

#[test]
fn a_device_eio_in_the_middle_of_a_bento_fill_run_caches_nothing_and_the_retry_reads_right() {
    let len = 160 * 1024;
    let ram: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, 4096));
    let fault = Arc::new(FaultDevice::new(ram, FaultConfig::recorder(7)));
    fault.set_trace_enabled(false);
    let dev = Arc::clone(&fault) as Arc<dyn BlockDevice>;
    format(FsStack::BentoXv6, &dev, 256).unwrap();
    let mounted = mount(FsStack::BentoXv6, &dev);
    let fd = mounted.vfs.open("/f", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
    mounted.vfs.write(fd, &pattern(len, 0x3C)).unwrap();
    mounted.vfs.close(fd).unwrap();
    mounted.unmount().unwrap();

    // A cold mount; the last page's read brings the inode and the indirect
    // block into the cache, so the run below reads only data blocks.
    let mounted = mount(FsStack::BentoXv6, &dev);
    let fd = mounted.vfs.open("/f", OpenFlags::RDONLY).unwrap();
    let mut buf = vec![0u8; len];
    let last = len - PAGE_SIZE;
    assert_eq!(mounted.vfs.pread(fd, &mut buf[last..], last as u64).unwrap(), PAGE_SIZE);
    let fills = || mounted.vfs.page_cache_stats("/").unwrap().read_fills;
    let (before, fills_before) = (cache_stats(&mounted), fills());

    fault.set_transient_eio(0.3, 0.0);
    let failed = mounted.vfs.pread(fd, &mut buf[..128 * 1024], 0).unwrap_err();
    assert_eq!(failed.errno(), Errno::Io);
    assert!(fault.fault_stats().read_errors > 0);
    let after = cache_stats(&mounted);
    let read = after.uncached_reads - before.uncached_reads;
    assert!(read > 0 && read < 32, "the EIO came in the middle of the run ({read} blocks read)");
    assert_eq!(after.cached, before.cached, "the failed run cached no buffer");
    assert_eq!(fills(), fills_before, "the failed run cached no page");

    fault.set_transient_eio(0.0, 0.0);
    assert_eq!(mounted.vfs.pread(fd, &mut buf, 0).unwrap(), len);
    assert!(buf == pattern(len, 0x3C));
    assert_eq!(fills() - fills_before, 39, "every page but the last is filled again");
    assert_eq!(cache_stats(&mounted).cached, before.cached);
    mounted.vfs.close(fd).unwrap();
}
