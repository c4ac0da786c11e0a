//! Userspace debugging (paper §4.9): run the *identical* xv6 file system
//! code against the userspace Bento environment — no kernel (simulated or
//! otherwise) involved, so ordinary debuggers and printouts work.
//!
//! ```text
//! cargo run --example userspace_debug
//! ```

use std::error::Error;
use std::sync::Arc;

use bento::bentoks::KernelBlockIo;
use bento::fileops::{FileSystem, Request};
use bento::userspace::{userspace_superblock, UserDisk};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{FileMode, OpenFlags};
use xv6fs::Xv6FileSystem;

fn main() -> Result<(), Box<dyn Error>> {
    // The "disk file" a developer would point the userspace build at.
    let device: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 8 * 1024));
    xv6fs::mkfs::mkfs_on_device(&device, 512)?;

    // BentoKS-User: the same SuperBlock/BufferHead API over a buffer cache
    // whose device is an O_DIRECT-style userspace disk file.
    let disk = Arc::new(UserDisk::new(device, CostModel::zero()));
    let counters = disk.counters();
    let sb = userspace_superblock(Arc::new(KernelBlockIo::new(disk, 1024)), "debug-disk");

    // The exact same FileSystem implementation that runs in the kernel.
    let fs = Xv6FileSystem::with_label("xv6fs-userspace");
    let req = Request::default();
    fs.init(&req, &sb)?;

    let reply = fs.create(&req, &sb, 1, "debug.txt", FileMode::regular(), OpenFlags::RDWR)?;
    fs.write(&req, &sb, reply.attr.ino, reply.fh, 0, b"step through me in a debugger")?;
    let mut data = [0u8; 64];
    let n = fs.read(&req, &sb, reply.attr.ino, reply.fh, 0, &mut data)?;
    fs.fsync(&req, &sb, reply.attr.ino, reply.fh, false)?;
    fs.release(&req, &sb, reply.attr.ino, reply.fh)?;

    println!("read back: {:?}", String::from_utf8_lossy(&data[..n]));
    println!(
        "directory entries in /: {:?}",
        fs.readdir(&req, &sb, 1, 0)?.iter().map(|e| e.name.clone()).collect::<Vec<_>>()
    );
    println!("log stats: {:?}", fs.log_stats());
    println!("userspace block-I/O crossings charged: {}", counters.snapshot().crossings);
    println!("whole-disk-file fsyncs charged: {}", counters.snapshot().whole_file_syncs);
    Ok(())
}
