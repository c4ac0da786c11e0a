//! Differential integration tests: the same operation sequence applied to
//! every file system stack must produce the same observable state (directory
//! tree, sizes, contents).  The in-memory `MemFs` acts as the oracle.

use std::collections::BTreeMap;
use std::sync::Arc;

use journal::PlantedFault;
use loadgen::{prepare, FileSetSpec, Layout, LoadConfig, OpKind, OpMix, SizeDist, WorkloadSpec};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::Errno;
use simkernel::memfs::MemFilesystemType;
use simkernel::vfs::{OpenFlags, Vfs, VfsConfig};
use workloads::{apply, format, mount_stack, mount_stack_on, Fds, FsStack, MountedStack, Op};

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

/// The differential workload: a seeded single-worker script from the
/// shared generator over a two-level fileset (creates, appends, unaligned
/// overwrites, reads, deletes, cross-directory renames, fsyncs, stats),
/// followed by ops the generator never issues: truncates, ops on missing
/// targets, and a scattered overwrite of one file synced in one pass.
fn differential_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "differential".to_string(),
        fileset: FileSetSpec {
            dir_width: 2,
            depth: 2,
            files: 12,
            size: SizeDist::Uniform { min: 0, max: 20_000 },
        },
        mix: OpMix::new(&[
            (OpKind::Create, 6),
            (OpKind::Append, 3),
            (OpKind::Write, 2),
            (OpKind::Read, 1),
            (OpKind::Delete, 2),
            (OpKind::Rename, 2),
            (OpKind::Fsync, 1),
            (OpKind::Stat, 1),
        ]),
        zipf_theta: 0.5,
        io_size: 3000,
        append_size: 4999,
        layout: Layout::Shared,
    }
}

fn script(seed: u64, count: u64) -> Vec<Op> {
    let mut ops = differential_spec().script(0, 1, count, u64::MAX, seed).1;
    // The generator writes one constant byte; give each op's data its own
    // byte so a page that lands in the wrong file or at the wrong offset
    // changes a content hash.
    for (i, op) in ops.iter_mut().enumerate() {
        if let Op::Create { fill, .. } | Op::Write { fill, .. } | Op::Append { fill, .. } = op {
            *fill = (i % 251) as u8 + 1;
        }
    }
    let files = differential_spec().fileset.file_paths("/");
    let create = |path: &str, len, fill| Op::Create { path: path.into(), len, fill };
    ops.extend([
        Op::Truncate(files[1].clone(), 10_000),
        Op::Truncate(files[2].clone(), 3),
        Op::Truncate(files[3].clone(), 0),
        Op::Unlink("/missing".into()),
        Op::Rename("/missing".into(), "/d0-0/renamed".into()),
        Op::Truncate("/missing".into(), 5),
        Op::Append { path: "/missing".into(), len: 10, fill: 1, fsync: false },
        Op::Mkdir("/d0-0".into()),
        Op::Rename(files[4].clone(), files[5].clone()),
        // A file that outlives the script, overwritten in place at
        // scattered offsets — inside one page, a whole page, across a page
        // boundary, past a hole beyond the old end — and synced in one
        // pass.
        create("/d0-1/sparse", 40_000, 0x11),
        Op::Open { slot: 0, path: "/d0-1/sparse".into(), flags: OpenFlags::RDWR },
        Op::Fsync(0),
        Op::Pwrite { slot: 0, offset: 4096 + 10, len: 100, fill: 0x22 },
        Op::Pwrite { slot: 0, offset: 5 * 4096, len: 4096, fill: 0x33 },
        Op::Pwrite { slot: 0, offset: 8 * 4096 - 96, len: 200, fill: 0x44 },
        Op::Pwrite { slot: 0, offset: 14 * 4096 + 7, len: 5000, fill: 0x55 },
        Op::Fsync(0),
        Op::Close(0),
        Op::Close(0),
    ]);
    ops
}

/// Prepares the fileset and applies the script to `vfs`, returning each
/// op's outcome (`Ok` or its errno) for comparison across stacks.
fn run_script(vfs: &Vfs, ops: &[Op]) -> Vec<Result<u64, Errno>> {
    prepare(vfs, &differential_spec(), &LoadConfig::closed(1, 0)).expect("prepare");
    let mut fds = Fds::default();
    let outcomes = ops.iter().map(|op| apply(vfs, &mut fds, op).map_err(|e| e.errno())).collect();
    fds.close_all(vfs).expect("close");
    outcomes
}

fn memfs_oracle() -> Arc<Vfs> {
    let vfs = Arc::new(Vfs::new(VfsConfig::default()));
    vfs.register_filesystem(Arc::new(MemFilesystemType)).expect("register");
    vfs.mount("memfs", Arc::new(RamDisk::new(4096, 16)), "/").expect("mount");
    vfs
}

#[test]
fn all_stacks_agree_with_the_in_memory_oracle() {
    let ops = script(2024, 60);

    let oracle = memfs_oracle();
    let outcomes = run_script(&oracle, &ops);
    let mut expected = BTreeMap::new();
    observe(&oracle, "/", &mut expected);
    assert!(!expected.is_empty(), "the script must produce observable state");
    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(failed, 6, "the ops on missing targets fail on the oracle: {outcomes:?}");

    for stack in FsStack::all() {
        let mounted = mount_stack(stack, CostModel::zero(), 32 * 1024)
            .unwrap_or_else(|e| panic!("mount {stack:?}: {e}"));
        let got_outcomes = run_script(&mounted.vfs, &ops);
        for ((op, want), got) in ops.iter().zip(&outcomes).zip(&got_outcomes) {
            assert_eq!(got, want, "stack {stack:?}: {op:?}");
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
    let ops = script(7, 40);
    let mut states = Vec::new();
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        let device: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 32 * 1024));
        format(stack, &device, 2048).expect("mkfs");
        let mounted = remount(stack, &device);
        run_script(&mounted.vfs, &ops);
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
