//! Quickstart: format a device, mount the Bento xv6 file system in the
//! simulated kernel, and use it through POSIX-style syscalls.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::error::Error;
use std::sync::Arc;

use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{OpenFlags, SeekFrom, Vfs};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A 64 MiB "NVMe device" (RAM-backed here; wrap it in SsdDevice to
    //    add the latency model used by the benchmarks).
    let device: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 16 * 1024));

    // 2. mkfs: write an empty xv6 file system onto it.
    xv6fs::mkfs::mkfs_on_device(&device, 1024)?;

    // 3. Register the Bento file system with the kernel VFS and mount it.
    let vfs = Vfs::default();
    bento::register_bento_fs(&vfs, Arc::new(xv6fs::fstype()))?;
    vfs.mount(xv6fs::BENTO_XV6_NAME, device, "/")?;

    // 4. Use it like any file system.
    vfs.mkdir("/projects")?;
    let fd = vfs.open("/projects/notes.txt", OpenFlags::RDWR.with(OpenFlags::CREAT))?;
    vfs.write(fd, b"Bento: high velocity kernel file systems in safe Rust\n")?;
    vfs.write(fd, b"This file lives on the xv6 file system, via BentoFS.\n")?;
    vfs.fsync(fd)?;

    vfs.lseek(fd, SeekFrom::Start(0))?;
    let mut contents = vec![0u8; 256];
    let n = vfs.read(fd, &mut contents)?;
    vfs.close(fd)?;

    println!("--- /projects/notes.txt ({n} bytes) ---");
    print!("{}", String::from_utf8_lossy(&contents[..n]));

    println!("--- directory listing of / ---");
    for entry in vfs.readdir("/")? {
        println!("  {:>8}  {}  ({})", entry.ino, entry.name, entry.kind);
    }

    let stats = vfs.statfs("/")?;
    println!(
        "--- statfs: {} of {} data blocks free, {} inodes total ---",
        stats.free_blocks, stats.total_blocks, stats.total_inodes
    );

    vfs.unmount("/")?;
    println!("unmounted cleanly");
    Ok(())
}
