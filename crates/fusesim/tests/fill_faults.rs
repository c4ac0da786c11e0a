//! A page-cache fill that fails in the daemon: a transient `EIO` from the
//! daemon's disk while one READ fills many pages reaches the reader, caches
//! nothing, and the retry after the fault clears reads the right bytes.

use std::sync::Arc;

use crashsim::{FaultConfig, FaultDevice};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::Errno;
use simkernel::vfs::{OpenFlags, Vfs, VfsFs};
use xv6fs::mkfs::mkfs_on_device;

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

fn mount(dev: &Arc<FaultDevice>) -> (Vfs, Arc<fusesim::FuseKernelDriver>) {
    let fs = fusesim::mount_fuse_xv6(Arc::clone(dev) as _, CostModel::zero(), 4).unwrap();
    let vfs = Vfs::default();
    vfs.mount_fs(Arc::clone(&fs) as Arc<dyn VfsFs>, "/").unwrap();
    (vfs, fs)
}

#[test]
fn a_transient_eio_during_a_multi_page_fill_fails_the_read_and_the_retry_reads_right() {
    let len = 256 * 1024;
    let ram: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
    let dev = Arc::new(FaultDevice::new(ram, FaultConfig::recorder(7)));
    dev.set_trace_enabled(false);
    mkfs_on_device(&(Arc::clone(&dev) as Arc<dyn BlockDevice>), 256).unwrap();
    let (vfs, _) = mount(&dev);
    let fd = vfs.open("/f", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
    vfs.write(fd, &pattern(len)).unwrap();
    vfs.close(fd).unwrap();
    vfs.unmount("/").unwrap();

    // A cold mount: the data blocks are only on the device.
    let (vfs, fs) = mount(&dev);
    let fd = vfs.open("/f", OpenFlags::RDONLY).unwrap();
    vfs.fstat(fd).unwrap();
    let mut buf = vec![0u8; len];
    dev.set_transient_eio(1.0, 0.0);
    let trips = || fs.counters().snapshot().fuse_round_trips;
    let before = trips();
    let failed = vfs.pread(fd, &mut buf[..128 * 1024], 0).unwrap_err();
    assert_eq!(failed.errno(), Errno::Io);
    assert_eq!(trips() - before, 1, "the 32-page fill was one READ");
    assert!(dev.fault_stats().read_errors > 0);

    dev.set_transient_eio(0.0, 0.0);
    let before = trips();
    assert_eq!(vfs.pread(fd, &mut buf, 0).unwrap(), len);
    assert_eq!(buf, pattern(len));
    assert_eq!(trips() - before, 2, "nothing was cached: both 128 KiB runs are read");
    vfs.close(fd).unwrap();
    vfs.unmount("/").unwrap();
}
