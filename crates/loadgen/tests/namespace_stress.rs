//! Concurrency stress for the per-directory namespace locks.
//!
//! Both xv6 stacks replaced their per-mount namespace mutex with a
//! per-directory lock table (`simkernel::nslock`).  These tests hammer the
//! paths that run under fine-grained locking — 8 workers renaming between
//! shared directories, and 8 workers creating into a shared pool — then
//! unmount and run the offline fsck over the raw device.  A locking bug
//! (lost dirent, double-allocated inode, wrong nlink) shows up as a file
//! count that does not add up or as an fsck violation, not just a flaky
//! count.
//!
//! Debug builds additionally run the thread-local lock-order checker on
//! every acquisition, so an ordering violation in `rename`'s pair
//! acquisition panics the worker outright.

use std::collections::BTreeSet;

use loadgen::{prepare, run_load, FileSetSpec, LoadConfig, OpKind, OpMix, SizeDist, WorkloadSpec};
use simkernel::cost::CostModel;
use simkernel::vfs::{FileType, Vfs};
use workloads::{mount_stack, FsStack, MountedStack};

const WORKERS: usize = 8;
const DISK_BLOCKS: u64 = 16_384;

/// Every file under `dir`, recursively.
fn files_under(vfs: &Vfs, dir: &str, out: &mut BTreeSet<String>) {
    for entry in vfs.readdir(dir).unwrap() {
        if entry.name == "." || entry.name == ".." {
            continue;
        }
        let path = format!("{}/{}", dir.trim_end_matches('/'), entry.name);
        if vfs.stat(&path).unwrap().kind == FileType::Directory {
            files_under(vfs, &path, out);
        } else {
            out.insert(path);
        }
    }
}

/// A rename storm over 8 shared directories: `renames` renames per create,
/// each moving one of the worker's own files into another shared
/// directory (the pair-locked two-parent path, from every argument order).
fn storm(renames: u32) -> WorkloadSpec {
    WorkloadSpec {
        name: "rename-storm".to_string(),
        fileset: FileSetSpec { dir_width: 8, depth: 1, files: 16, size: SizeDist::Fixed(512) },
        mix: OpMix::new(&[(OpKind::Create, 1), (OpKind::Rename, renames)]),
        ..WorkloadSpec::namespace_churn()
    }
}

/// Runs `spec` with 8 workers of `ops` ops on a fresh zero-cost mount of
/// `stack`, checks that exactly the precreated and created files exist,
/// and unmounts through fsck.
fn run_checked(stack: FsStack, spec: &WorkloadSpec, ops: u64) -> u64 {
    let mounted: MountedStack = mount_stack(stack, CostModel::zero(), DISK_BLOCKS)
        .unwrap_or_else(|e| panic!("mount {stack:?}: {e}"));
    let cfg = LoadConfig::closed(WORKERS, ops);
    prepare(&mounted.vfs, spec, &cfg).unwrap();
    let result = run_load(&mounted.vfs, spec, &cfg)
        .unwrap_or_else(|e| panic!("{} on {stack:?}: {e}", spec.name));
    assert!(result.is_clean(), "{} on {stack:?}", spec.name);
    let creates = result.class(OpKind::Create).map_or(0, |c| c.completed);
    let mut files = BTreeSet::new();
    files_under(&mounted.vfs, "/", &mut files);
    // Renames neither lose nor duplicate a file.
    assert_eq!(files.len() as u64, spec.fileset.files as u64 + creates, "{stack:?}");
    mounted.unmount_and_check().unwrap_or_else(|e| panic!("fsck {stack:?}: {e}"));
    result.class(OpKind::Rename).map_or(0, |c| c.completed)
}

#[test]
fn eight_thread_cross_directory_rename_storm_is_fsck_clean() {
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        let renames = run_checked(stack, &storm(8), 300);
        assert!(renames > WORKERS as u64 * 200, "{stack:?}: {renames} renames");
    }
}

#[test]
fn eight_thread_shared_pool_creates_are_fsck_clean() {
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        run_checked(stack, &WorkloadSpec::create_crossdir(512, WORKERS), 100);
    }
}

#[test]
fn mixed_rename_and_create_traffic_is_fsck_clean() {
    // Renames and creates in flight at once: the pair guard (rename) and
    // single guards (create) interleave on the same directories.
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6] {
        let renames = run_checked(stack, &storm(1), 300);
        assert!(renames > 0, "{stack:?}");
    }
}
