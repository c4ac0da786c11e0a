//! Online upgrade (paper §4.8): replace a running file system implementation
//! without unmounting, while another thread keeps writing to it.
//!
//! ```text
//! cargo run --example online_upgrade
//! ```

use std::error::Error;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{OpenFlags, Vfs};
use xv6fs::Xv6FileSystem;

fn main() -> Result<(), Box<dyn Error>> {
    let device: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 16 * 1024));
    xv6fs::mkfs::mkfs_on_device(&device, 1024)?;

    // Mount through BentoFS, keeping the concretely typed handle so we can
    // call upgrade() on it later.  The same object is registered with the
    // VFS, so applications use it through ordinary syscalls.
    let bento_fs = bento::BentoFs::mount(
        "xv6fs_bento",
        device,
        4096,
        Box::new(Xv6FileSystem::with_label("xv6fs-v1")),
    )?;
    let vfs = Arc::new(Vfs::default());
    vfs.mount_fs(Arc::clone(&bento_fs) as Arc<dyn simkernel::vfs::VfsFs>, "/")?;

    // An "application" writes a log file continuously and never closes it.
    let app_vfs = Arc::clone(&vfs);
    let writer = thread::spawn(move || -> Result<u64, simkernel::error::KernelError> {
        let fd = app_vfs
            .open("/app.log", OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::APPEND))?;
        let mut lines = 0u64;
        for i in 0..400u32 {
            app_vfs.write(fd, format!("log line {i}\n").as_bytes())?;
            lines += 1;
            if i % 100 == 0 {
                app_vfs.fsync(fd)?;
            }
            thread::sleep(Duration::from_micros(200));
        }
        app_vfs.fsync(fd)?;
        app_vfs.close(fd)?;
        Ok(lines)
    });

    // Meanwhile, the operator upgrades the file system twice.
    thread::sleep(Duration::from_millis(20));
    for version in ["xv6fs-v2", "xv6fs-v3"] {
        let report = bento_fs.upgrade(Box::new(Xv6FileSystem::with_label(version)))?;
        println!(
            "upgraded to {version}: generation {}, state transfer: {}, {} state entries carried over",
            report.generation, report.state_transfer, report.transferred_entries
        );
        println!(
            "  pause {:.1} us = drain {:.1} us + transfer {:.1} us + install",
            report.pause_ns as f64 / 1e3,
            report.drain_ns as f64 / 1e3,
            report.transfer_ns as f64 / 1e3
        );
        thread::sleep(Duration::from_millis(20));
    }

    let lines = writer.join().expect("writer thread")?;
    let size = vfs.stat("/app.log")?.size;
    println!("application wrote {lines} lines across 2 live upgrades; /app.log is {size} bytes");
    println!("file system dispatched {} operations total", bento_fs.operations_dispatched());

    vfs.unmount("/")?;
    Ok(())
}
