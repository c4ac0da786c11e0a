//! A cold `stat` asks the daemon for each name on the path once and for
//! nothing else: the LOOKUP that resolves the last name already carries the
//! file's size, so the page cache does not send a GETATTR for it.

use std::sync::Arc;

use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{OpenFlags, Vfs, VfsFs};
use xv6fs::mkfs::mkfs_on_device;

fn mount(dev: &Arc<dyn BlockDevice>) -> (Vfs, Arc<fusesim::FuseKernelDriver>) {
    let fs = fusesim::mount_fuse_xv6(Arc::clone(dev), CostModel::zero(), 4).unwrap();
    let vfs = Vfs::default();
    vfs.mount_fs(Arc::clone(&fs) as Arc<dyn VfsFs>, "/").unwrap();
    (vfs, fs)
}

#[test]
fn a_cold_stat_of_a_nested_file_is_one_lookup_per_name() {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 4096));
    mkfs_on_device(&dev, 256).unwrap();
    let (vfs, _) = mount(&dev);
    vfs.mkdir("/d").unwrap();
    let fd = vfs.open("/d/f", OpenFlags::WRONLY.with(OpenFlags::CREAT)).unwrap();
    vfs.write(fd, &[7u8; 5000]).unwrap();
    vfs.close(fd).unwrap();
    vfs.unmount("/").unwrap();

    let (vfs, fs) = mount(&dev);
    let trips = || fs.counters().snapshot().fuse_round_trips;
    let before = trips();
    assert_eq!(vfs.stat("/d/f").unwrap().size, 5000);
    assert_eq!(trips() - before, 2, "LOOKUP d and LOOKUP f, no GETATTR f");
    let before = trips();
    assert_eq!(vfs.stat("/d/f").unwrap().size, 5000);
    assert_eq!(trips() - before, 1, "warm: the dentry cache names f, one GETATTR");

    // An open takes the size its LOOKUP returned: the first read needs no
    // GETATTR before its READ.
    let fd = vfs.open("/d/f", OpenFlags::RDONLY).unwrap();
    let before = trips();
    let mut buf = vec![0u8; 8192];
    assert_eq!(vfs.pread(fd, &mut buf, 0).unwrap(), 5000);
    assert_eq!(trips() - before, 1, "one READ");
    vfs.close(fd).unwrap();
    vfs.unmount("/").unwrap();
}
