//! Building the four file system stacks the paper compares.
//!
//! Each stack is mounted on a RAM-backed, latency-modelled NVMe device so
//! that all four see identical storage behaviour; the FUSE stack
//! additionally receives the boundary-crossing / whole-file-fsync model
//! (§6.4).  By default the device is the synchronous [`SsdDevice`].
//!
//! There is one mount setting: `queue_depth=N` switches to the
//! completion-based multi-queue model ([`MultiQueueDevice`]) with four queue
//! pairs of depth N — see [`mount_stack_with`].  Both devices are plain
//! [`BlockDevice`]s to the stack above (the queued one only batches a
//! commit's epoch differently), and [`MountedStack::queue_counters`] keeps
//! the queued device's in-flight figures for the `scaling` depth rows.  No
//! file system reads an option: the buffer caches, page caches, fd tables
//! and allocation groups all keep their automatic sharding, because
//! sweeping those counts moved no measured row outside tolerance.

use std::collections::BTreeMap;
use std::sync::Arc;

use simkernel::cost::{CostCounters, CostModel};
use simkernel::dev::{BlockDevice, SsdDevice};
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::queue::{MultiQueueDevice, QueueConfig};
use simkernel::vfs::{MountOptions, Vfs, VfsConfig};

use ext4sim::Ext4FilesystemType;
use fusesim::FuseXv6FilesystemType;
use xv6fs_vfs::Xv6VfsFilesystemType;

/// The four evaluated file system stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsStack {
    /// xv6 in Rust on Bento, in the (simulated) kernel.
    BentoXv6,
    /// xv6 directly against the VFS layer (the paper's C baseline).
    VfsXv6,
    /// xv6 in Rust in userspace behind FUSE.
    FuseXv6,
    /// The ext4-like comparator (`data=journal`).
    Ext4,
}

impl FsStack {
    /// All four stacks, in the order the paper's tables list them.
    pub fn all() -> [FsStack; 4] {
        [FsStack::BentoXv6, FsStack::VfsXv6, FsStack::FuseXv6, FsStack::Ext4]
    }

    /// The three xv6 variants (Figures 2–4, Tables 4–5).
    pub fn xv6_variants() -> [FsStack; 3] {
        [FsStack::BentoXv6, FsStack::VfsXv6, FsStack::FuseXv6]
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            FsStack::BentoXv6 => "Bento",
            FsStack::VfsXv6 => "C-Kernel",
            FsStack::FuseXv6 => "FUSE",
            FsStack::Ext4 => "Ext4",
        }
    }
}

/// A mounted stack: the VFS to issue syscalls against plus bookkeeping.
#[derive(Clone)]
pub struct MountedStack {
    /// The kernel VFS; workloads issue syscalls against this.
    pub vfs: Arc<Vfs>,
    /// Which stack this is.
    pub stack: FsStack,
    /// The latency-modelled device underneath: a synchronous [`SsdDevice`]
    /// by default, a [`MultiQueueDevice`] when the mount asked for one.
    pub device: Arc<dyn BlockDevice>,
    /// The [`MultiQueueDevice`]'s cost counters (service time and in-flight
    /// depth) when the mount asked for one; `None` on the synchronous
    /// device.
    pub queue_counters: Option<Arc<CostCounters>>,
}

impl std::fmt::Debug for MountedStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MountedStack").field("stack", &self.stack).finish_non_exhaustive()
    }
}

impl MountedStack {
    /// Unmounts the stack (writes back all dirty state).
    ///
    /// # Errors
    ///
    /// Propagates unmount errors.
    pub fn unmount(&self) -> KernelResult<()> {
        self.vfs.unmount("/")
    }

    /// This mount's cumulative counters, keyed `"{label}.{name}"` by the
    /// stack's paper label (`"Bento.log_commits"`, `"Ext4.dev_writes"`,
    /// …): the journal's [`simkernel::vfs::WritePathStats`] where the
    /// file system keeps a log, and raw device traffic on every stack.
    /// Counters a stack does not track are absent, so reports stay honest
    /// about what each baseline measures.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let label = self.stack.label();
        let wp = self.vfs.mounted_fs("/").ok().and_then(|fs| fs.write_path_stats());
        let log = wp.iter().flat_map(|wp| {
            [
                ("log_commits", wp.log_commits),
                ("log_ops", wp.log_ops),
                ("log_blocks", wp.log_blocks),
                ("log_installs", wp.log_installs),
                ("log_barriers", wp.log_barriers),
            ]
        });
        let dev = self.device.stats();
        let dev =
            [("dev_reads", dev.reads), ("dev_writes", dev.writes), ("dev_flushes", dev.flushes)];
        log.chain(dev).map(|(name, value)| (format!("{label}.{name}"), value)).collect()
    }

    /// Unmounts the stack and runs its offline consistency checker over the
    /// raw device, failing if the on-disk image violates any invariant.  The
    /// three xv6 variants share one on-disk format and so one checker,
    /// `xv6fs::fsck`; ext4sim is remounted from the image (journal recovery
    /// included) and checked with `Ext4Sim::check_consistency`.
    ///
    /// This is the gate concurrency experiments run through: a locking bug
    /// in the per-directory namespace paths (lost dirent, double-allocated
    /// inode, bad nlink) surfaces here as a hard error rather than a
    /// quietly wrong throughput row.
    ///
    /// # Errors
    ///
    /// Propagates unmount and remount errors; reports checker violations
    /// as `Io` errors after printing every violated invariant.
    pub fn unmount_and_check(&self) -> KernelResult<()> {
        self.unmount()?;
        let errors = match self.stack {
            FsStack::BentoXv6 | FsStack::VfsXv6 | FsStack::FuseXv6 => {
                xv6fs::fsck::fsck_device(&self.device)?.errors
            }
            FsStack::Ext4 => {
                ext4sim::Ext4Sim::mount(Arc::clone(&self.device))?.check_consistency().errors
            }
        };
        if !errors.is_empty() {
            eprintln!("{} violations after unmount: {errors:?}", self.stack.label());
            return Err(KernelError::with_context(
                Errno::Io,
                "the offline checker found on-disk violations after unmount",
            ));
        }
        Ok(())
    }
}

/// Mounts `stack` at `/` of a fresh VFS over a RAM-backed SSD of
/// `disk_blocks` 4 KiB blocks with the given latency model and default
/// mount options.
///
/// # Errors
///
/// Propagates mkfs/mount errors.
pub fn mount_stack(
    stack: FsStack,
    model: CostModel,
    disk_blocks: u64,
) -> KernelResult<MountedStack> {
    mount_stack_with(stack, model, disk_blocks, &MountOptions::default())
}

/// Like [`mount_stack`] with explicit mount options.  The one option read
/// is `queue_depth=N` (N > 0): mount on the NVMe-style multi-queue device
/// with four queue pairs of depth N instead of the synchronous
/// [`SsdDevice`]; the one batched write of each commit's epoch (due
/// installs and payload together) is then a single queue submission.
///
/// # Errors
///
/// Propagates mkfs/mount errors.
pub fn mount_stack_with(
    stack: FsStack,
    model: CostModel,
    disk_blocks: u64,
    options: &MountOptions,
) -> KernelResult<MountedStack> {
    let (device, queue_counters) = device_for_options(&model, disk_blocks, options);
    let vfs = mount_stack_on_device(stack, model, Arc::clone(&device))?;
    Ok(MountedStack { vfs, stack, device, queue_counters })
}

/// Builds the backing device the mount options select: the synchronous
/// [`SsdDevice`] by default, the multi-queue model (returned with its cost
/// counters) when `queue_depth` is set to a nonzero value.
fn device_for_options(
    model: &CostModel,
    disk_blocks: u64,
    options: &MountOptions,
) -> (Arc<dyn BlockDevice>, Option<Arc<CostCounters>>) {
    let depth = options.get("queue_depth").and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
    if depth == 0 {
        return (Arc::new(SsdDevice::ram_backed(disk_blocks, model.clone())), None);
    }
    let config = QueueConfig { queue_depth: depth, ..QueueConfig::default() };
    let device = MultiQueueDevice::ram_backed(disk_blocks, model.clone(), config);
    let counters = device.counters();
    (Arc::new(device), Some(counters))
}

/// Mounts `stack` at `/` of a fresh VFS over a **caller-provided** block
/// device (mkfs included for the xv6 variants), returning the VFS.
///
/// This is the hook for interposed devices: the load generator wraps the
/// usual [`SsdDevice`] in a crashsim `FaultDevice` and mounts through here,
/// so fault scenarios drive the exact same mount path as the clean runs.
///
/// # Errors
///
/// Propagates mkfs/mount errors.
pub fn mount_stack_on_device(
    stack: FsStack,
    model: CostModel,
    device: Arc<dyn BlockDevice>,
) -> KernelResult<Arc<Vfs>> {
    let options = &MountOptions::default();
    let vfs = Arc::new(Vfs::new(VfsConfig::default()));
    match stack {
        FsStack::BentoXv6 => {
            xv6fs::mkfs::mkfs_on_device(&device, 8192)?;
            vfs.register_filesystem(Arc::new(xv6fs::fstype()))?;
            vfs.mount(xv6fs::BENTO_XV6_NAME, device, "/", options)?;
        }
        FsStack::VfsXv6 => {
            xv6fs::mkfs::mkfs_on_device(&device, 8192)?;
            vfs.register_filesystem(Arc::new(Xv6VfsFilesystemType))?;
            vfs.mount(xv6fs_vfs::VFS_XV6_NAME, device, "/", options)?;
        }
        FsStack::FuseXv6 => {
            xv6fs::mkfs::mkfs_on_device(&device, 8192)?;
            vfs.register_filesystem(Arc::new(FuseXv6FilesystemType::with_model(model, 8)))?;
            vfs.mount("xv6fs_fuse", device, "/", options)?;
        }
        FsStack::Ext4 => {
            vfs.register_filesystem(Arc::new(Ext4FilesystemType))?;
            vfs.mount(ext4sim::EXT4_NAME, device, "/", options)?;
        }
    }
    Ok(vfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::vfs::OpenFlags;

    #[test]
    fn every_stack_mounts_and_does_basic_io() {
        for stack in FsStack::all() {
            let mounted = mount_stack(stack, CostModel::zero(), 16_384)
                .unwrap_or_else(|e| panic!("mount {stack:?}: {e}"));
            let vfs = &mounted.vfs;
            vfs.mkdir("/d").unwrap();
            let fd = vfs.open("/d/file", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
            vfs.write(fd, b"stack smoke test").unwrap();
            vfs.fsync(fd).unwrap();
            vfs.close(fd).unwrap();
            assert_eq!(vfs.stat("/d/file").unwrap().size, 16, "stack {stack:?}");
            mounted.unmount_and_check().unwrap_or_else(|e| panic!("unmount {stack:?}: {e}"));
        }
    }

    #[test]
    fn queue_depth_mount_option_selects_the_queued_device() {
        let options = MountOptions::default().with_option("queue_depth", "8");
        for stack in FsStack::all() {
            let mounted = mount_stack_with(stack, CostModel::zero(), 16_384, &options).unwrap();
            let queue = mounted.queue_counters.as_ref().unwrap_or_else(|| {
                panic!("queue_depth must select the multi-queue model ({stack:?})")
            });
            let fd = mounted.vfs.open("/q", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
            mounted.vfs.write(fd, b"queued").unwrap();
            mounted.vfs.fsync(fd).unwrap();
            mounted.vfs.close(fd).unwrap();
            assert_eq!(mounted.vfs.stat("/q").unwrap().size, 6, "stack {stack:?}");
            // The counters are the mounted device's own: its writes are theirs.
            let queued = queue.snapshot();
            assert!(queued.writes > 0, "stack {stack:?}");
            assert_eq!(queued.writes, mounted.device.stats().writes, "stack {stack:?}");
            mounted.unmount().unwrap();
        }
        // Without the option the mount stays on the synchronous model.
        let sync = mount_stack(FsStack::BentoXv6, CostModel::zero(), 16_384).unwrap();
        assert!(sync.queue_counters.is_none());
    }

    #[test]
    fn counters_name_every_stack_s_journal_and_device() {
        const DEV: [&str; 3] = ["dev_flushes", "dev_reads", "dev_writes"];
        const LOG: [&str; 5] =
            ["log_barriers", "log_blocks", "log_commits", "log_installs", "log_ops"];
        for stack in FsStack::all() {
            let mounted = mount_stack(stack, CostModel::zero(), 16_384).unwrap();
            let fd = mounted.vfs.open("/m", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
            mounted.vfs.write(fd, b"metrics").unwrap();
            mounted.vfs.fsync(fd).unwrap();
            mounted.vfs.close(fd).unwrap();
            let counters = mounted.counters();
            let label = stack.label();
            // Every stack runs on the shared device models; all but FUSE
            // (whose mount does not report its daemon's log) add the log.
            let journaled = stack != FsStack::FuseXv6;
            let expected: Vec<String> = DEV
                .iter()
                .chain(LOG.iter().filter(|_| journaled))
                .map(|name| format!("{label}.{name}"))
                .collect();
            assert_eq!(counters.keys().cloned().collect::<Vec<_>>(), expected, "{label}");
            // The fsync forced device writes and, where there is a log, a
            // commit.
            assert!(counters[&format!("{label}.dev_writes")] > 0, "{label}: {counters:?}");
            if journaled {
                assert!(counters[&format!("{label}.log_commits")] > 0, "{label}: {counters:?}");
            }
            mounted.unmount().unwrap();
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(FsStack::BentoXv6.label(), "Bento");
        assert_eq!(FsStack::VfsXv6.label(), "C-Kernel");
        assert_eq!(FsStack::FuseXv6.label(), "FUSE");
        assert_eq!(FsStack::Ext4.label(), "Ext4");
        assert_eq!(FsStack::all().len(), 4);
        assert_eq!(FsStack::xv6_variants().len(), 3);
    }
}
