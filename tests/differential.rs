//! Differential integration tests: the same operation sequence applied to
//! every file system stack must produce the same observable state (directory
//! tree, sizes, contents).  The in-memory `MemFs` acts as the oracle.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use journal::PlantedFault;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::memfs::MemFilesystemType;
use simkernel::vfs::{MountOptions, OpenFlags, Vfs, VfsConfig};
use workloads::{format, mount_stack, mount_stack_on, FsStack, MountedStack};

/// A scripted operation applied identically to every stack.
#[derive(Debug, Clone)]
enum Op {
    Create(String, Vec<u8>),
    Append(String, Vec<u8>),
    Mkdir(String),
    Unlink(String),
    Rename(String, String),
    Truncate(String, u64),
    Fsync(String),
    /// Overwrite (and extend) an existing file at several disjoint offsets,
    /// then fsync: one write-back pass over non-adjacent dirty pages.
    SparseOverwrite(String, Vec<(u64, Vec<u8>)>),
}

fn apply(vfs: &Arc<Vfs>, op: &Op) {
    match op {
        Op::Create(path, data) => {
            let fd = vfs.open(path, OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("create");
            vfs.write(fd, data).expect("write");
            vfs.close(fd).expect("close");
        }
        Op::Append(path, data) => {
            if let Ok(fd) = vfs.open(path, OpenFlags::WRONLY.with(OpenFlags::APPEND)) {
                vfs.write(fd, data).expect("append");
                vfs.close(fd).expect("close");
            }
        }
        Op::Mkdir(path) => {
            let _ = vfs.mkdir(path);
        }
        Op::Unlink(path) => {
            let _ = vfs.unlink(path);
        }
        Op::Rename(from, to) => {
            let _ = vfs.rename(from, to);
        }
        Op::Truncate(path, size) => {
            let _ = vfs.truncate(path, *size);
        }
        Op::Fsync(path) => {
            if let Ok(fd) = vfs.open(path, OpenFlags::RDONLY) {
                let _ = vfs.fsync(fd);
                vfs.close(fd).expect("close");
            }
        }
        Op::SparseOverwrite(path, writes) => {
            let fd = vfs.open(path, OpenFlags::RDWR).expect("open for overwrite");
            for (offset, data) in writes {
                vfs.pwrite(fd, data, *offset).expect("pwrite");
            }
            vfs.fsync(fd).expect("fsync");
            vfs.close(fd).expect("close");
        }
    }
}

/// Collects the full observable state: path -> (is_dir, size, content hash).
fn observe(vfs: &Arc<Vfs>, dir: &str, out: &mut BTreeMap<String, (bool, u64, u64)>) {
    for entry in vfs.readdir(dir).expect("readdir") {
        if entry.name == "." || entry.name == ".." {
            continue;
        }
        let path =
            if dir == "/" { format!("/{}", entry.name) } else { format!("{dir}/{}", entry.name) };
        let attr = vfs.stat(&path).expect("stat");
        if attr.kind == simkernel::vfs::FileType::Directory {
            out.insert(path.clone(), (true, 0, 0));
            observe(vfs, &path, out);
        } else {
            let fd = vfs.open(&path, OpenFlags::RDONLY).expect("open");
            let mut content = Vec::new();
            let mut buf = vec![0u8; 8192];
            let mut offset = 0u64;
            loop {
                let n = vfs.pread(fd, &mut buf, offset).expect("read");
                if n == 0 {
                    break;
                }
                content.extend_from_slice(&buf[..n]);
                offset += n as u64;
            }
            vfs.close(fd).expect("close");
            // Cheap stable content fingerprint.
            let hash = content
                .iter()
                .fold(1469598103934665603u64, |h, &b| (h ^ b as u64).wrapping_mul(1099511628211));
            out.insert(path.clone(), (false, attr.size, hash));
        }
    }
}

fn scripted_ops(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops =
        vec![Op::Mkdir("/d0".into()), Op::Mkdir("/d1".into()), Op::Mkdir("/d0/nested".into())];
    let dirs = ["/", "/d0", "/d1", "/d0/nested"];
    for i in 0..count {
        let dir = dirs[rng.gen_range(0..dirs.len())];
        let path = if dir == "/" { format!("/f{i}") } else { format!("{dir}/f{i}") };
        let roll: f64 = rng.gen();
        if roll < 0.45 {
            let size = rng.gen_range(0..20_000);
            let byte = (i % 251) as u8;
            ops.push(Op::Create(path, vec![byte; size]));
        } else if roll < 0.6 {
            let target = format!("/f{}", rng.gen_range(0..count.max(1)));
            ops.push(Op::Append(target, vec![0xEE; rng.gen_range(1..5000)]));
        } else if roll < 0.7 {
            let target = format!("/f{}", rng.gen_range(0..count.max(1)));
            ops.push(Op::Unlink(target));
        } else if roll < 0.8 {
            let from = format!("/f{}", rng.gen_range(0..count.max(1)));
            ops.push(Op::Rename(from, format!("/d1/renamed{i}")));
        } else if roll < 0.9 {
            let target = format!("/f{}", rng.gen_range(0..count.max(1)));
            ops.push(Op::Truncate(target, rng.gen_range(0..10_000)));
        } else {
            let target = format!("/f{}", rng.gen_range(0..count.max(1)));
            ops.push(Op::Fsync(target));
        }
    }
    // A file that outlives the script, overwritten in place at scattered
    // offsets: inside one page, a whole page, across a page boundary, past
    // a hole beyond the old end — and synced in one pass.
    ops.push(Op::Create("/d0/sparse".into(), vec![0x11; 40_000]));
    ops.push(Op::Fsync("/d0/sparse".into()));
    ops.push(Op::SparseOverwrite(
        "/d0/sparse".into(),
        vec![
            (4096 + 10, vec![0x22; 100]),
            (5 * 4096, vec![0x33; 4096]),
            (8 * 4096 - 96, vec![0x44; 200]),
            (14 * 4096 + 7, vec![0x55; 5000]),
        ],
    ));
    ops
}

fn memfs_oracle() -> Arc<Vfs> {
    let vfs = Arc::new(Vfs::new(VfsConfig::default()));
    vfs.register_filesystem(Arc::new(MemFilesystemType)).expect("register");
    vfs.mount("memfs", Arc::new(RamDisk::new(4096, 16)), "/", &MountOptions::default())
        .expect("mount");
    vfs
}

#[test]
fn all_stacks_agree_with_the_in_memory_oracle() {
    let ops = scripted_ops(2024, 60);

    let oracle = memfs_oracle();
    for op in &ops {
        apply(&oracle, op);
    }
    let mut expected = BTreeMap::new();
    observe(&oracle, "/", &mut expected);
    assert!(!expected.is_empty(), "the script must produce observable state");

    for stack in FsStack::all() {
        let mounted = mount_stack(stack, CostModel::zero(), 32 * 1024)
            .unwrap_or_else(|e| panic!("mount {stack:?}: {e}"));
        for op in &ops {
            apply(&mounted.vfs, op);
        }
        let mut got = BTreeMap::new();
        observe(&mounted.vfs, "/", &mut got);
        assert_eq!(got, expected, "stack {stack:?} diverged from the oracle");
        mounted.unmount().unwrap_or_else(|e| panic!("unmount {stack:?}: {e}"));
    }
}

/// Mounts the image on `device` as `stack` at `/` of a fresh VFS.
fn remount(stack: FsStack, device: &Arc<dyn BlockDevice>) -> MountedStack {
    mount_stack_on(stack, Arc::clone(device), CostModel::zero(), PlantedFault::None)
        .unwrap_or_else(|e| panic!("mount {stack:?}: {e}"))
}

#[test]
fn bento_and_vfs_baseline_agree_after_remount() {
    // Apply the script, unmount (forcing writeback + log quiesce), remount
    // the same device, and compare the two xv6 variants — this checks the
    // *persistent* state, not just the caches.  `statfs` (total and free
    // blocks and inodes) must agree too, on the live mount and again after
    // each stack remounted its own image (cached counts vs. a fresh scan
    // of the bitmap and inode table).
    let ops = scripted_ops(7, 40);
    let mut states = Vec::new();
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        let device: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 32 * 1024));
        format(stack, &device, 2048).expect("mkfs");
        let mounted = remount(stack, &device);
        for op in &ops {
            apply(&mounted.vfs, op);
        }
        let live = mounted.vfs.statfs("/").expect("statfs");
        mounted.unmount().expect("unmount");
        let mounted = remount(stack, &device);
        let remounted = mounted.vfs.statfs("/").expect("statfs after remount");
        mounted.unmount().expect("unmount");
        assert!(remounted.free_inodes > 0 && remounted.free_inodes < remounted.total_inodes);
        // Remount with the *Bento* stack in both cases (shared on-disk
        // format) and observe.
        let mounted = remount(FsStack::BentoXv6, &device);
        let mut state = BTreeMap::new();
        observe(&mounted.vfs, "/", &mut state);
        states.push((state, live, remounted));
    }
    assert_eq!(states[0].0, states[1].0, "Bento and VFS xv6 leave identical on-disk state");
    assert_eq!(states[0].1, states[1].1, "statfs differs on the live mounts");
    assert_eq!(states[0].2, states[1].2, "statfs differs after remount");
}

#[test]
fn whole_file_read_after_remount_agrees_with_the_oracle() {
    // A file with a hole of more than a page whose end falls mid-page, read
    // back in one call from a cold page cache: every page is a fill, the
    // last one straddles EOF, and the hole must read as zeros.
    const PATH: &str = "/holey";
    let tail_offset = 3 * 4096 + 100;
    let writes = [(0u64, vec![0x3Cu8; 5000]), (tail_offset, vec![0xC3u8; 777])];
    let write = |vfs: &Arc<Vfs>| {
        let fd = vfs.open(PATH, OpenFlags::RDWR.with(OpenFlags::CREAT)).expect("create");
        for (offset, data) in &writes {
            vfs.pwrite(fd, data, *offset).expect("pwrite");
        }
        vfs.close(fd).expect("close");
    };
    // One pread larger than the file: the whole file, clamped at EOF.
    let read_whole = |vfs: &Arc<Vfs>| {
        let fd = vfs.open(PATH, OpenFlags::RDONLY).expect("open");
        let mut buf = vec![0xFFu8; 8 * 4096];
        let n = vfs.pread(fd, &mut buf, 0).expect("pread");
        vfs.close(fd).expect("close");
        buf.truncate(n);
        buf
    };

    let oracle = memfs_oracle();
    write(&oracle);
    let expected = read_whole(&oracle);
    assert_eq!(expected.len() as u64, tail_offset + 777);
    assert!(
        expected[5000..tail_offset as usize].iter().all(|&b| b == 0),
        "the hole reads as zeros"
    );

    for stack in FsStack::all() {
        let mounted = mount_stack(stack, CostModel::zero(), 32 * 1024)
            .unwrap_or_else(|e| panic!("mount {stack:?}: {e}"));
        write(&mounted.vfs);
        mounted.unmount().unwrap_or_else(|e| panic!("unmount {stack:?}: {e}"));
        let mounted = remount(stack, &mounted.device);
        assert_eq!(read_whole(&mounted.vfs), expected, "stack {stack:?} diverged after remount");
        mounted.unmount().unwrap_or_else(|e| panic!("unmount {stack:?}: {e}"));
    }
}
