//! Building the four file system stacks the paper compares.
//!
//! Each stack is mounted on a RAM-backed, latency-modelled NVMe device so
//! that all four see identical storage behaviour; the FUSE stack
//! additionally receives the boundary-crossing / whole-file-fsync model
//! (§6.4).  By default the device is the synchronous [`SsdDevice`].
//!
//! There is one mount setting: `queue_depth=N` switches to the
//! completion-based multi-queue model ([`MultiQueueDevice`]) with four queue
//! pairs of depth N — see [`mount_stack_with`].  No file system reads an
//! option: the buffer caches, page caches, fd tables and allocation groups
//! all keep their automatic sharding, because sweeping those counts moved no
//! measured row outside tolerance.

use std::sync::Arc;

use simkernel::cost::CostModel;
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
pub struct MountedStack {
    /// The kernel VFS; workloads issue syscalls against this.
    pub vfs: Arc<Vfs>,
    /// Which stack this is.
    pub stack: FsStack,
    /// The latency-modelled device underneath (a synchronous [`SsdDevice`]
    /// by default, a [`MultiQueueDevice`] when the mount asked for one;
    /// `device.as_queued()` distinguishes them).
    pub device: Arc<dyn BlockDevice>,
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

    /// Publishes this mount's counters into `registry`, keyed by the
    /// stack's paper label (`"Bento.log_commits"`, `"Ext4.dev_writes"`,
    /// …).  This is the pull half of the unified metrics story: each
    /// subsystem keeps its own cheap counters on the hot path and this
    /// method absorbs whichever of them the mounted stack actually has —
    /// write-path/journal batching figures, operation counts, the ext4sim
    /// journal (reached by downcast; it predates
    /// [`simkernel::vfs::WritePathStats`]), and
    /// raw device traffic.  Counters a stack does not track are simply
    /// absent, so reports stay honest about what each baseline measures.
    pub fn publish_metrics(&self, registry: &simkernel::registry::MetricsRegistry) {
        let label = self.stack.label();
        let key = |name: &str| format!("{label}.{name}");
        if let Ok(fs) = self.vfs.mounted_fs("/") {
            if let Some(wp) = fs.write_path_stats() {
                registry.set_counter(&key("log_commits"), wp.log_commits);
                registry.set_counter(&key("log_ops"), wp.log_ops);
                registry.set_counter(&key("log_blocks"), wp.log_blocks);
                registry.set_counter(&key("log_barriers"), wp.log_barriers);
                registry.set_counter(&key("queue_depth_max"), wp.queue_depth_max);
                registry.set_counter(&key("queue_depth_sum"), wp.queue_depth_sum);
                registry.set_counter(&key("queue_depth_samples"), wp.queue_depth_samples);
            }
            if let Some(ops) = fs.op_stats() {
                registry.set_counter(&key("op_creates"), ops.creates);
                registry.set_counter(&key("op_removes"), ops.removes);
                registry.set_counter(&key("op_bytes_read"), ops.bytes_read);
                registry.set_counter(&key("op_bytes_written"), ops.bytes_written);
                registry.set_counter(&key("op_fsyncs"), ops.fsyncs);
            }
            if let Some(ext4) = fs.as_any().and_then(|any| any.downcast_ref::<ext4sim::Ext4Sim>()) {
                let js = ext4.journal_stats();
                registry.set_counter(&key("log_commits"), js.commits);
                registry.set_counter(&key("log_blocks"), js.blocks_journaled);
            }
        }
        let dev = self.device.stats();
        registry.set_counter(&key("dev_reads"), dev.reads);
        registry.set_counter(&key("dev_writes"), dev.writes);
        registry.set_counter(&key("dev_flushes"), dev.flushes);
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
/// [`SsdDevice`]; the write-ahead logs then batch-submit their commit
/// payloads and overlap consecutive commits (two-stage commit).
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
    let device = device_for_options(&model, disk_blocks, options);
    let vfs = mount_stack_on_device(stack, model, Arc::clone(&device))?;
    Ok(MountedStack { vfs, stack, device })
}

/// Builds the backing device the mount options select: the synchronous
/// [`SsdDevice`] by default, the multi-queue model when `queue_depth` is
/// set to a nonzero value.
fn device_for_options(
    model: &CostModel,
    disk_blocks: u64,
    options: &MountOptions,
) -> Arc<dyn BlockDevice> {
    let depth = options.get("queue_depth").and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
    if depth == 0 {
        return Arc::new(SsdDevice::ram_backed(disk_blocks, model.clone()));
    }
    let config = QueueConfig { queue_depth: depth, ..QueueConfig::default() };
    Arc::new(MultiQueueDevice::ram_backed(disk_blocks, model.clone(), config))
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
            assert!(
                mounted.device.as_queued().is_some(),
                "queue_depth must select the multi-queue model ({stack:?})"
            );
            let fd = mounted.vfs.open("/q", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
            mounted.vfs.write(fd, b"queued").unwrap();
            mounted.vfs.fsync(fd).unwrap();
            mounted.vfs.close(fd).unwrap();
            assert_eq!(mounted.vfs.stat("/q").unwrap().size, 6, "stack {stack:?}");
            mounted.unmount().unwrap();
        }
        // Without the option the mount stays on the synchronous model.
        let sync = mount_stack(FsStack::BentoXv6, CostModel::zero(), 16_384).unwrap();
        assert!(sync.device.as_queued().is_none());
    }

    #[test]
    fn publish_metrics_absorbs_stack_counters_into_a_registry() {
        use simkernel::registry::MetricsRegistry;
        for stack in FsStack::all() {
            let registry = MetricsRegistry::new();
            let mounted = mount_stack(stack, CostModel::zero(), 16_384).unwrap();
            let fd = mounted.vfs.open("/m", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
            mounted.vfs.write(fd, b"metrics").unwrap();
            mounted.vfs.fsync(fd).unwrap();
            mounted.vfs.close(fd).unwrap();
            mounted.publish_metrics(&registry);
            let snap = registry.snapshot();
            let label = stack.label();
            // Every stack runs on the shared device models, so raw device
            // traffic is always present; the fsync forced writes out.
            assert!(
                snap.counter(&format!("{label}.dev_writes")).is_some_and(|v| v > 0),
                "{label} published no device writes: {:?}",
                snap.counters
            );
            // The journaled stacks also surface commit counters.
            match stack {
                FsStack::BentoXv6 | FsStack::Ext4 => {
                    assert!(
                        snap.counter(&format!("{label}.log_commits")).is_some_and(|v| v > 0),
                        "{label} published no log commits: {:?}",
                        snap.counters
                    );
                }
                FsStack::VfsXv6 | FsStack::FuseXv6 => {}
            }
            mounted.unmount().unwrap();
        }
        // Bento is the only stack wiring FsStats through op_stats today.
        let registry = MetricsRegistry::new();
        let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), 16_384).unwrap();
        let fd = mounted.vfs.open("/ops", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
        mounted.vfs.write(fd, b"counted").unwrap();
        mounted.vfs.close(fd).unwrap();
        mounted.publish_metrics(&registry);
        let snap = registry.snapshot();
        assert!(snap.counter("Bento.op_creates").is_some_and(|v| v > 0));
        assert!(snap.counter("Bento.op_bytes_written").is_some_and(|v| v >= 7));
        mounted.unmount().unwrap();
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
