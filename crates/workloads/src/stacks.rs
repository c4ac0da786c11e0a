//! The one place that maps a stack to its code: the four stacks the paper
//! compares ([`FsStack`]), how each formats a device ([`format()`]), mounts
//! one ([`mount_stack_on`]) and checks its image ([`MountedStack::check`]).
//! The experiments, the load generator, the crash harness and the tests
//! all mount through here; where they need more than the VFS (an online
//! upgrade, ext4sim's checker) they read the concretely typed file system
//! from [`MountedStack::handle`].
//!
//! [`mount_stack`] formats and mounts a stack on a fresh RAM-backed,
//! latency-modelled synchronous NVMe device ([`SsdDevice`]) so that all
//! four see identical storage behaviour; the FUSE stack
//! additionally receives the boundary-crossing / whole-file-fsync model
//! (§6.4).
//!
//! No mount takes an option: the buffer caches, page caches, fd tables and
//! allocation groups all keep their automatic sharding, because sweeping
//! those counts moved no measured row outside tolerance.  A caller that
//! wants another device (the crash harness's recorder, a fault wrapper,
//! the queued [`simkernel::queue::MultiQueueDevice`]) builds it and mounts
//! it with [`format()`] + [`mount_stack_on`].

use std::collections::BTreeMap;
use std::sync::Arc;

use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, SsdDevice};
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{Vfs, VfsConfig, VfsFs};

use bento::bentofs::{BentoFs, DEFAULT_BUFFER_CACHE_BLOCKS};
use ext4sim::Ext4Sim;
use journal::PlantedFault;
use xv6fs::{Xv6FileSystem, BENTO_XV6_NAME};
use xv6fs_vfs::Xv6VfsFilesystem;

/// Inode-table size [`mount_stack`] formats the xv6 stacks with.
pub const XV6_INODES: u32 = 8192;
/// Daemon threads of the FUSE stack.
const FUSE_WORKERS: usize = 8;

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

/// The mounted file system, concretely typed where a caller needs more than
/// the VFS interface.
#[derive(Clone)]
pub enum StackHandle {
    /// BentoFS over xv6 ([`BentoFs::upgrade`] lives here).
    Bento(Arc<BentoFs>),
    /// ext4sim ([`Ext4Sim::check_consistency`] lives here).
    Ext4(Arc<Ext4Sim>),
    /// The C-Kernel and FUSE bindings of xv6, reached through the VFS
    /// interface alone.
    Xv6,
}

/// A mounted stack: the VFS to issue syscalls against plus bookkeeping.
#[derive(Clone)]
pub struct MountedStack {
    /// The kernel VFS; workloads issue syscalls against this.
    pub vfs: Arc<Vfs>,
    /// Which stack this is.
    pub stack: FsStack,
    /// The device the stack is mounted on: for [`mount_stack`] a
    /// latency-modelled synchronous [`SsdDevice`].
    pub device: Arc<dyn BlockDevice>,
    /// The mounted file system behind the VFS's interface, for callers
    /// that drive it below the page cache (the crash harness).
    pub fs: Arc<dyn VfsFs>,
    /// The mounted file system, concretely typed.
    pub handle: StackHandle,
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

    /// Runs the stack's offline consistency checker and returns every
    /// violated invariant.  The three xv6 variants share one on-disk
    /// format and so one checker, `xv6fs::fsck`, which reads the device;
    /// ext4sim's `Ext4Sim::check_consistency` reads the mounted instance
    /// (on a fresh mount, the image as its recovery left it).
    ///
    /// # Errors
    ///
    /// I/O errors while `xv6fs::fsck` reads the device.
    pub fn check(&self) -> KernelResult<Vec<String>> {
        match &self.handle {
            StackHandle::Ext4(fs) => Ok(fs.check_consistency().errors),
            _ => Ok(xv6fs::fsck::fsck_device(&self.device)?.errors),
        }
    }

    /// Unmounts the stack and runs its offline checker on the image the
    /// unmount left, failing if it violates any invariant.  The xv6
    /// stacks' `xv6fs::fsck` reads the device as it is, with no log
    /// replay, so a committed but uninstalled transaction shows up here;
    /// ext4sim's checker needs a live instance, so its image is remounted
    /// (journal recovery included) first.
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
        let errors = match self.handle {
            StackHandle::Ext4(_) => {
                let device = Arc::clone(&self.device);
                mount_stack_on(self.stack, device, CostModel::zero(), PlantedFault::None)?
                    .check()?
            }
            _ => self.check()?,
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

/// Writes `stack`'s empty file system onto `device`, replacing whatever it
/// held: `xv6fs` mkfs with an `inodes`-entry inode table for the three xv6
/// stacks (one format, three bindings); for [`FsStack::Ext4`], whose inode
/// table has a fixed size, [`Ext4Sim::format`] (a committed, checkpointed
/// root directory).
///
/// # Errors
///
/// Propagates mkfs errors (a device too small, I/O).
pub fn format(stack: FsStack, device: &Arc<dyn BlockDevice>, inodes: u32) -> KernelResult<()> {
    match stack {
        FsStack::BentoXv6 | FsStack::VfsXv6 | FsStack::FuseXv6 => {
            xv6fs::mkfs::mkfs_on_device(device, inodes).map(drop)
        }
        FsStack::Ext4 => Ext4Sim::format(device),
    }
}

/// Mounts the image on `device` as `stack` at `/` of a fresh VFS, running
/// the stack's journal recovery; no mkfs.  `model` is the FUSE stack's
/// boundary-crossing model.  `planted` goes into the journal of the Bento
/// stack and of ext4sim (the crash suites' proof that their oracles have
/// teeth); the C-Kernel and FUSE stacks run the same xv6 core as Bento and
/// ignore it.
///
/// This is the hook for interposed devices: the load generator wraps the
/// usual [`SsdDevice`] in a crashsim `FaultDevice`, and the crash harness
/// mounts a recorder and then every crash image, through here, so fault
/// and crash scenarios drive the exact mount path of the clean runs.
///
/// # Errors
///
/// Propagates mount errors (no file system on the device, I/O).
pub fn mount_stack_on(
    stack: FsStack,
    device: Arc<dyn BlockDevice>,
    model: CostModel,
    planted: PlantedFault,
) -> KernelResult<MountedStack> {
    let dev = Arc::clone(&device);
    let (fs, handle): (Arc<dyn VfsFs>, _) = match stack {
        FsStack::BentoXv6 => {
            let xv6 = Box::new(Xv6FileSystem::new().with_planted_log_fault(planted));
            let fs = BentoFs::mount(BENTO_XV6_NAME, dev, DEFAULT_BUFFER_CACHE_BLOCKS, xv6)?;
            (fs.clone(), StackHandle::Bento(fs))
        }
        FsStack::VfsXv6 => (Xv6VfsFilesystem::mount(dev)?, StackHandle::Xv6),
        FsStack::FuseXv6 => (fusesim::mount_fuse_xv6(dev, model, FUSE_WORKERS)?, StackHandle::Xv6),
        FsStack::Ext4 => {
            let fs = Ext4Sim::mount_planted(dev, planted)?;
            (fs.clone(), StackHandle::Ext4(fs))
        }
    };
    let vfs = Arc::new(Vfs::new(VfsConfig::default()));
    vfs.mount_fs(Arc::clone(&fs), "/")?;
    Ok(MountedStack { vfs, stack, device, fs, handle })
}

/// Formats and mounts `stack` at `/` of a fresh VFS over a RAM-backed SSD
/// of `disk_blocks` 4 KiB blocks with the given latency model.
///
/// # Errors
///
/// Propagates mkfs/mount errors.
pub fn mount_stack(
    stack: FsStack,
    model: CostModel,
    disk_blocks: u64,
) -> KernelResult<MountedStack> {
    mount_blank(stack, Arc::new(SsdDevice::ram_backed(disk_blocks, model.clone())), model)
}

/// Formats a blank `device` for `stack` and mounts it ([`mount_stack`] on
/// any device).
fn mount_blank(
    stack: FsStack,
    device: Arc<dyn BlockDevice>,
    model: CostModel,
) -> KernelResult<MountedStack> {
    match stack {
        // ext4sim's mount by name reads block 0 for a blank device before
        // it formats; the experiments' ext4sim counters start from that
        // mount's traffic, probe included.
        FsStack::Ext4 => Ext4Sim::format_if_blank(&device)?,
        _ => format(stack, &device, XV6_INODES)?,
    }
    mount_stack_on(stack, device, model, PlantedFault::None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::queue::{MultiQueueDevice, QueueConfig};
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

    /// Formatting and mounting, with nothing run yet: the device traffic
    /// (and the empty log) every stack's counters start from, on the
    /// synchronous and on the queued device.  These are the figures of the mount by name through each
    /// stack's registered file system type that [`mount_stack`] ran
    /// before it formatted and mounted in two steps; ext4sim's 15 reads
    /// include the probe of block 0 for a blank device.
    #[test]
    fn mount_time_traffic_is_pinned() {
        const XV6: [(&str, u64); 8] = [
            ("dev_flushes", 1),
            ("dev_reads", 5),
            ("dev_writes", 1289),
            ("log_barriers", 0),
            ("log_blocks", 0),
            ("log_commits", 0),
            ("log_installs", 0),
            ("log_ops", 0),
        ];
        const EXT4: [(&str, u64); 8] = [
            ("dev_flushes", 4),
            ("dev_reads", 15),
            ("dev_writes", 12),
            ("log_barriers", 0),
            ("log_blocks", 0),
            ("log_commits", 0),
            ("log_installs", 0),
            ("log_ops", 0),
        ];
        for stack in FsStack::all() {
            let expected: &[(&str, u64)] = match stack {
                FsStack::BentoXv6 | FsStack::VfsXv6 => &XV6,
                // The FUSE mount does not report its daemon's log.
                FsStack::FuseXv6 => &XV6[..3],
                FsStack::Ext4 => &EXT4,
            };
            let label = stack.label();
            let expected: BTreeMap<String, u64> =
                expected.iter().map(|&(name, value)| (format!("{label}.{name}"), value)).collect();
            let sync = mount_stack(stack, CostModel::zero(), 16_384).unwrap();
            assert_eq!(sync.counters(), expected, "{label} synchronous");
            sync.unmount().unwrap();
            let config = QueueConfig { queue_depth: 8, ..QueueConfig::default() };
            let device = MultiQueueDevice::ram_backed(16_384, CostModel::zero(), config);
            let queued = mount_blank(stack, Arc::new(device), CostModel::zero()).unwrap();
            assert_eq!(queued.counters(), expected, "{label} queued");
            queued.unmount().unwrap();
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
