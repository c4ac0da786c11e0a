//! Cross-crate integration tests: the full kernel stack (VFS + page cache +
//! BentoFS + xv6fs + buffer cache + SSD model), online upgrade under load
//! through the VFS, FUSE end-to-end behaviour, ext4sim's mount-time format
//! rule, and a property-style test of read/write/truncate consistency
//! against an in-memory model (seeded random cases; every case reproducible
//! from its printed seed).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crashsim::device::{FaultConfig, FaultDevice};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::KernelResult;
use simkernel::vfs::{OpenFlags, Vfs};
use workloads::{mount_stack, FsStack};
use xv6fs::Xv6FileSystem;

#[test]
fn data_written_through_bento_survives_unmount_and_fuse_remount() {
    // Write through the in-kernel Bento stack, unmount, then serve the same
    // device through the FUSE stack: same on-disk format, same contents.
    let device = Arc::new(RamDisk::new(4096, 16 * 1024));
    let device_dyn: Arc<dyn BlockDevice> = Arc::clone(&device) as _;
    xv6fs::mkfs::mkfs_on_device(&device_dyn, 1024).expect("mkfs");

    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
    {
        let vfs = Vfs::default();
        vfs.register_filesystem(Arc::new(xv6fs::fstype())).expect("register");
        vfs.mount(xv6fs::BENTO_XV6_NAME, Arc::clone(&device_dyn), "/").expect("mount");
        vfs.mkdir("/shared").expect("mkdir");
        let fd = vfs.open("/shared/blob", OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("open");
        vfs.write(fd, &payload).expect("write");
        vfs.close(fd).expect("close");
        vfs.unmount("/").expect("unmount");
    }
    {
        let vfs = Vfs::default();
        vfs.register_filesystem(Arc::new(fusesim::FuseXv6FilesystemType)).expect("register");
        vfs.mount("xv6fs_fuse", device_dyn, "/").expect("fuse mount");
        let fd = vfs.open("/shared/blob", OpenFlags::RDONLY).expect("open over fuse");
        let mut back = vec![0u8; payload.len()];
        let mut read = 0usize;
        while read < back.len() {
            let n = vfs.pread(fd, &mut back[read..], read as u64).expect("read");
            assert!(n > 0, "unexpected EOF at {read}");
            read += n;
        }
        assert_eq!(back, payload);
        vfs.close(fd).expect("close");
        vfs.unmount("/").expect("unmount");
    }
}

#[test]
fn online_upgrade_under_vfs_load_keeps_open_files_working() {
    let device: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 16 * 1024));
    xv6fs::mkfs::mkfs_on_device(&device, 1024).expect("mkfs");
    let bento_fs =
        bento::BentoFs::mount("xv6fs_bento", device, 2048, Box::new(Xv6FileSystem::new()))
            .expect("mount");
    let vfs = Arc::new(Vfs::default());
    vfs.mount_fs(Arc::clone(&bento_fs) as Arc<dyn simkernel::vfs::VfsFs>, "/").expect("mount_fs");

    let fd = vfs.open("/journal.log", OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("open");
    let vfs_writer = Arc::clone(&vfs);
    let writer = std::thread::spawn(move || {
        for i in 0..300u32 {
            vfs_writer.write(fd, format!("entry {i}\n").as_bytes()).expect("write");
        }
        vfs_writer.fsync(fd).expect("fsync");
        fd
    });
    for label in ["v2", "v3", "v4"] {
        bento_fs
            .upgrade(Box::new(Xv6FileSystem::with_label(if label == "v2" {
                "xv6fs-v2"
            } else if label == "v3" {
                "xv6fs-v3"
            } else {
                "xv6fs-v4"
            })))
            .expect("upgrade");
    }
    let fd = writer.join().expect("writer");
    assert_eq!(bento_fs.generation(), 3);
    // The descriptor opened before the upgrades still works afterwards.
    let mut buf = vec![0u8; 64];
    let n = vfs.pread(fd, &mut buf, 0).expect("read after upgrades");
    assert!(n > 0);
    assert!(buf.starts_with(b"entry 0"));
    vfs.close(fd).expect("close");
    let size = vfs.stat("/journal.log").expect("stat").size;
    assert!(size > 0);
    vfs.unmount("/").expect("unmount");
}

#[test]
fn ssd_cost_model_accounts_for_xv6_log_traffic() {
    // With the accounting-only NVMe model, a create must charge device
    // writes (the log) and flushes, and FUSE must additionally charge
    // whole-file syncs — the mechanism behind Tables 4-6.
    let mut model = CostModel::nvme_ssd();
    model.inject_delays = false;

    let kernel = mount_stack(FsStack::BentoXv6, model.clone(), 16 * 1024).expect("bento");
    let fd = kernel.vfs.open("/f", OpenFlags::WRONLY.with(OpenFlags::CREAT)).expect("create");
    kernel.vfs.close(fd).expect("close");
    let snap = kernel.device.stats();
    assert!(snap.writes >= 4, "a create commits several blocks, saw {}", snap.writes);
    assert!(snap.flushes >= 1, "a commit issues at least one barrier");
    kernel.unmount().expect("unmount");
}

/// ext4sim formats only a blank device: an image whose reads fail is an
/// error at mount, not a device to wipe, and it mounts intact once the
/// fault clears.
#[test]
fn ext4_mount_returns_a_read_error_instead_of_formatting_the_image() {
    let mount = |device: Arc<dyn BlockDevice>| -> KernelResult<Vfs> {
        let vfs = Vfs::default();
        vfs.register_filesystem(Arc::new(ext4sim::Ext4FilesystemType))?;
        vfs.mount(ext4sim::EXT4_NAME, device, "/")?;
        Ok(vfs)
    };
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 239) as u8).collect();
    let ram: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 16 * 1024));
    let vfs = mount(Arc::clone(&ram)).expect("a blank device is formatted at mount");
    let fd = vfs.open("/kept", OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("create");
    vfs.write(fd, &payload).expect("write");
    vfs.fsync(fd).expect("fsync");
    vfs.close(fd).expect("close");
    vfs.unmount("/").expect("unmount");

    let faulty =
        Arc::new(FaultDevice::new(ram, FaultConfig { read_eio: 1.0, ..FaultConfig::recorder(5) }));
    assert!(
        mount(Arc::clone(&faulty) as Arc<dyn BlockDevice>).is_err(),
        "a mount whose every read fails must fail"
    );

    faulty.set_transient_eio(0.0, 0.0);
    let vfs = mount(faulty).expect("remount once reads succeed");
    let fd = vfs.open("/kept", OpenFlags::RDONLY).expect("the file survived the failed mount");
    assert_eq!(vfs.fstat(fd).expect("fstat").size, payload.len() as u64);
    let mut back = vec![0u8; payload.len()];
    let mut read = 0usize;
    while read < back.len() {
        let n = vfs.pread(fd, &mut back[read..], read as u64).expect("read");
        assert!(n > 0, "unexpected EOF at {read}");
        read += n;
    }
    assert_eq!(back, payload);
    vfs.close(fd).expect("close");
    vfs.unmount("/").expect("unmount");
}

/// Property: an arbitrary sequence of write/truncate operations applied
/// through the full Bento stack yields exactly the same file contents as
/// applying it to a plain in-memory byte vector.
#[test]
fn file_contents_match_reference_model() {
    for case in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0xF5_0000 + case);
        let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), 32 * 1024).expect("mount");
        let vfs = &mounted.vfs;
        let fd = vfs.open("/model", OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("open");
        let mut model: Vec<u8> = Vec::new();

        for _ in 0..rng.gen_range(1..12usize) {
            let offset: u64 = rng.gen_range(0..200_000);
            let len: usize = rng.gen_range(1..3000);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            vfs.pwrite(fd, &data, offset).expect("pwrite");
            let end = offset as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[offset as usize..end].copy_from_slice(&data);
            if rng.gen::<bool>() {
                let new_len = (model.len() / 2) as u64;
                vfs.ftruncate(fd, new_len).expect("ftruncate");
                model.truncate(new_len as usize);
            }
        }
        vfs.fsync(fd).expect("fsync");

        // Compare sizes and full contents.
        assert_eq!(vfs.fstat(fd).expect("fstat").size, model.len() as u64, "case {case}");
        let mut back = vec![0u8; model.len()];
        let mut read = 0usize;
        while read < back.len() {
            let n = vfs.pread(fd, &mut back[read..], read as u64).expect("pread");
            assert!(n > 0, "case {case}");
            read += n;
        }
        assert_eq!(back, model, "case {case}");
        vfs.close(fd).expect("close");
        mounted.unmount().expect("unmount");
    }
}

/// `..` is each file system's own entry (the VFS resolves it through
/// `lookup`): a path through it and the `..` entry `readdir` reports both
/// name the parent, and follow a directory across a cross-directory
/// rename — on ext4sim as on Bento xv6.
#[test]
fn dotdot_names_the_parent_across_a_rename_on_ext4_and_bento() {
    for stack in [FsStack::BentoXv6, FsStack::Ext4] {
        let mounted = mount_stack(stack, CostModel::zero(), 16_384).expect("mount");
        let vfs = &mounted.vfs;
        for dir in ["/a", "/a/b", "/c"] {
            vfs.mkdir(dir).expect("mkdir");
        }
        for (dir, parent) in [("/a/b", "/a"), ("/c/b", "/c")] {
            if dir == "/c/b" {
                vfs.rename("/a/b", "/c/b").expect("rename");
            }
            let parent_ino = vfs.stat(parent).expect("stat parent").ino;
            let through = vfs.stat(&format!("{dir}/..")).expect("stat through ..");
            assert_eq!(through.ino, parent_ino, "{stack:?}: {dir}/..");
            let listing = vfs.readdir(dir).expect("readdir");
            let dotdot = listing.iter().find(|entry| entry.name == "..").expect("a .. entry");
            assert_eq!(dotdot.ino, parent_ino, "{stack:?}: readdir({dir}) ..");
        }
        mounted.unmount().expect("unmount");
    }
}

/// Renaming a file over one with unsynced pages drops the replaced file's
/// page-cache entry, as `unlink` does: the file system frees the replaced
/// inode inside the rename, so write-back must never reach it — one such
/// entry would fail every later `sync` pass, and with it the other files
/// the pass carries.  A rename onto the file itself, or onto another link
/// of it, drops no link and keeps the pages.
#[test]
fn rename_over_a_file_with_unsynced_pages_drops_its_pages() {
    for stack in FsStack::all() {
        let mounted = mount_stack(stack, CostModel::zero(), 16_384).expect("mount");
        let vfs = &mounted.vfs;
        let write = |path: &str, fill: u8, len: usize| {
            let fd = vfs.open(path, OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("open");
            vfs.write(fd, &vec![fill; len]).expect("write");
            vfs.close(fd).expect("close");
        };
        let contents = |path: &str| {
            let fd = vfs.open(path, OpenFlags::RDONLY).expect("open");
            let mut buf = vec![0u8; 3 * 4096];
            let n = vfs.read(fd, &mut buf).expect("read");
            vfs.close(fd).expect("close");
            buf.truncate(n);
            buf
        };
        write("/a", 0xA1, 6000);
        write("/b", 0xB2, 9000);
        write("/c", 0xC3, 100);
        vfs.rename("/a", "/b").expect("rename over a dirty file");
        vfs.rename("/c", "/c").expect("rename onto itself");
        vfs.sync().unwrap_or_else(|e| panic!("{stack:?}: sync after the rename: {e}"));
        assert_eq!(contents("/b"), vec![0xA1; 6000], "{stack:?}: /b holds what /a held");
        assert_eq!(contents("/c"), vec![0xC3; 100], "{stack:?}: /c kept its pages");
        mounted.unmount_and_check().unwrap_or_else(|e| panic!("{stack:?}: unmount: {e}"));
    }
}
