//! Mounting the four stacks on a shared disk image, and reading their
//! public counters.
//!
//! Only public constructors and public stats structs of the measured crates
//! are used, so every layer is observed from outside.  Each stack is mounted
//! through its concrete type (not by name through the VFS registry) because
//! the benchmark needs the concrete handle: `BentoFs::upgrade`,
//! `Ext4Sim::check_consistency`, `FuseKernelDriver::counters`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bento::BentoFs;
use ext4sim::Ext4Sim;
use fusesim::FuseKernelDriver;
use simkernel::cost::{CostModel, CostSnapshot};
use simkernel::dev::{BlockDevice, DeviceStats, RamDisk, SsdDevice};
use simkernel::error::KernelResult;
use simkernel::vfs::{Vfs, VfsConfig, VfsFs};
use xv6fs_vfs::Xv6VfsFilesystem;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stack {
    Bento,
    CKernel,
    Fuse,
    Ext4,
}

impl Stack {
    pub const ALL: [Stack; 4] = [Stack::Bento, Stack::CKernel, Stack::Fuse, Stack::Ext4];

    /// Prefix of this stack's metric names.
    pub fn key(self) -> &'static str {
        match self {
            Stack::Bento => "bento",
            Stack::CKernel => "ckernel",
            Stack::Fuse => "fuse",
            Stack::Ext4 => "ext4",
        }
    }

    /// FUSE runs the smaller shape of every workload (see `workloads`).
    pub fn small(self) -> bool {
        self == Stack::Fuse
    }
}

/// Inode-table size passed to xv6 mkfs (what the repo's own harness uses).
const XV6_INODES: u32 = 8192;
/// Daemon threads of the FUSE stack (what the repo's own harness uses).
const FUSE_WORKERS: usize = 8;

/// The cost model of the three passes: the calibrated NVMe model, with or
/// without the delays actually injected.  Without them the device only
/// *accounts*: wall time is the stack's own software and
/// `CostSnapshot::total_ns` the exact modelled hardware time.
pub fn nvme(inject_delays: bool) -> CostModel {
    CostModel { inject_delays, ..CostModel::nvme_ssd() }
}

/// A block device that forwards either to a delay-free wrapper or to the
/// modelled one over the same RAM disk.  Warm-up, verification and unmount
/// run on the free side, so only measured ops pay — and are charged —
/// modelled device time, and a pass's cost counters cover exactly its
/// measured region.
pub struct SwitchDevice {
    free: SsdDevice,
    modelled: SsdDevice,
    use_model: AtomicBool,
}

impl SwitchDevice {
    pub fn new(image: Arc<RamDisk>, model: CostModel) -> Arc<Self> {
        Arc::new(SwitchDevice {
            free: SsdDevice::new(Arc::clone(&image) as Arc<dyn BlockDevice>, CostModel::zero()),
            modelled: SsdDevice::new(image, model),
            use_model: AtomicBool::new(false),
        })
    }

    /// Routes subsequent I/O to the modelled (`true`) or free side.
    pub fn set_modelled(&self, on: bool) {
        self.use_model.store(on, Ordering::SeqCst);
    }

    fn side(&self) -> &SsdDevice {
        if self.use_model.load(Ordering::Relaxed) {
            &self.modelled
        } else {
            &self.free
        }
    }

    /// Traffic and modelled time of the modelled side only.
    pub fn measured(&self) -> (DeviceStats, CostSnapshot) {
        (self.modelled.stats(), self.modelled.counters().snapshot())
    }
}

impl BlockDevice for SwitchDevice {
    fn block_size(&self) -> u32 {
        self.free.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.free.num_blocks()
    }
    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        self.side().read_block(blockno, buf)
    }
    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        self.side().write_block(blockno, buf)
    }
    fn flush(&self) -> KernelResult<()> {
        self.side().flush()
    }
    fn stats(&self) -> DeviceStats {
        self.modelled.stats()
    }
}

/// The concrete handle of a mounted stack.
pub enum Handle {
    Bento(Arc<BentoFs>),
    CKernel(Arc<Xv6VfsFilesystem>),
    Fuse(Arc<FuseKernelDriver>),
    Ext4(Arc<Ext4Sim>),
}

/// One stack mounted at `/` of its own VFS.
pub struct Mounted {
    pub vfs: Vfs,
    pub dev: Arc<SwitchDevice>,
    pub handle: Handle,
}

/// Writes an empty file system of `stack`'s format onto `image`.
pub fn mkfs(stack: Stack, image: &Arc<RamDisk>) -> KernelResult<()> {
    let dev = Arc::clone(image) as Arc<dyn BlockDevice>;
    match stack {
        Stack::Bento | Stack::CKernel | Stack::Fuse => {
            xv6fs::mkfs::mkfs_on_device(&dev, XV6_INODES).map(|_| ())
        }
        Stack::Ext4 => Ext4Sim::format_and_mount(dev).map(|_| ()),
    }
}

/// Mounts `stack` from `image` (journal recovery runs, as on any mount).
/// The device starts on its free side; see [`SwitchDevice::set_modelled`].
pub fn mount(stack: Stack, image: &Arc<RamDisk>, model: CostModel) -> KernelResult<Mounted> {
    let dev = SwitchDevice::new(Arc::clone(image), model.clone());
    let block_dev = Arc::clone(&dev) as Arc<dyn BlockDevice>;
    let handle = match stack {
        Stack::Bento => Handle::Bento(xv6fs::fstype().mount_on(block_dev)?),
        Stack::CKernel => Handle::CKernel(Xv6VfsFilesystem::mount(block_dev)?),
        Stack::Fuse => Handle::Fuse(fusesim::mount_fuse_xv6(block_dev, model, FUSE_WORKERS)?),
        Stack::Ext4 => Handle::Ext4(Ext4Sim::mount(block_dev)?),
    };
    let fs: Arc<dyn VfsFs> = match &handle {
        Handle::Bento(fs) => Arc::clone(fs) as Arc<dyn VfsFs>,
        Handle::CKernel(fs) => Arc::clone(fs) as Arc<dyn VfsFs>,
        Handle::Fuse(fs) => Arc::clone(fs) as Arc<dyn VfsFs>,
        Handle::Ext4(fs) => Arc::clone(fs) as Arc<dyn VfsFs>,
    };
    let vfs = Vfs::new(VfsConfig::default());
    vfs.mount_fs(fs, "/")?;
    Ok(Mounted { vfs, dev, handle })
}

/// Declares [`Counters`] with field-wise `-` and `+=`, so a measured
/// region is `after - before` and remounts accumulate.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Cumulative public counters of one mount.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }
        impl std::ops::Sub for Counters {
            type Output = Counters;
            fn sub(self, b: Counters) -> Counters {
                Counters { $($field: self.$field - b.$field,)* }
            }
        }
        impl std::ops::AddAssign for Counters {
            fn add_assign(&mut self, b: Counters) {
                $(self.$field += b.$field;)*
            }
        }
    };
}

counters! {
    dev_reads,
    dev_writes,
    dev_flushes,
    /// Modelled time charged by the device, and on FUSE also by the request
    /// path and the daemon's disk file (`CostCounters::total_ns`).
    model_ns,
    commits,
    /// Operations the committed groups absorbed.
    log_ops,
    log_blocks,
    barriers,
    pc_fills,
    pc_writeback_pages,
    pc_writeback_batches,
    bento_dispatches,
    fuse_round_trips,
    fuse_crossings,
    fuse_whole_file_syncs,
}

impl Mounted {
    pub fn counters(&self) -> Counters {
        let (dev, cost) = self.dev.measured();
        let pc = self.vfs.page_cache_stats("/").unwrap_or_default();
        let mut c = Counters {
            dev_reads: dev.reads,
            dev_writes: dev.writes,
            dev_flushes: dev.flushes,
            model_ns: cost.total_ns,
            pc_fills: pc.read_fills,
            pc_writeback_pages: pc.writeback_single + pc.writeback_batched,
            // Unbatched writeback issues one call per page.
            pc_writeback_batches: pc.writeback_batches + pc.writeback_single,
            ..Counters::default()
        };
        let journal = match &self.handle {
            Handle::Bento(fs) => fs.write_path_stats(),
            Handle::CKernel(fs) => fs.write_path_stats(),
            Handle::Fuse(fs) => fs.write_path_stats(),
            Handle::Ext4(_) => None,
        };
        if let Some(wp) = journal {
            c.commits = wp.log_commits;
            c.log_ops = wp.log_ops;
            c.log_blocks = wp.log_blocks;
            c.barriers = wp.log_barriers;
        }
        match &self.handle {
            Handle::Bento(fs) => c.bento_dispatches = fs.operations_dispatched(),
            Handle::CKernel(_) => {}
            Handle::Fuse(fs) => {
                let (req, disk) = (fs.counters().snapshot(), fs.disk_counters().snapshot());
                c.fuse_round_trips = req.fuse_round_trips;
                c.fuse_crossings = req.crossings + disk.crossings;
                c.fuse_whole_file_syncs = disk.whole_file_syncs;
                c.model_ns += req.total_ns + disk.total_ns;
            }
            Handle::Ext4(fs) => {
                let js = fs.journal_stats();
                c.commits = js.commits;
                c.log_blocks = js.blocks_journaled;
            }
        }
        c
    }

    /// Clean unmount (writes back and commits everything), then the
    /// stack's offline checker over the image.  Returns the violations.
    pub fn unmount_and_check(self) -> KernelResult<Vec<String>> {
        self.dev.set_modelled(false);
        self.vfs.unmount("/")?;
        Ok(match &self.handle {
            Handle::Ext4(fs) => fs.check_consistency().errors,
            // FUSE shares the xv6 on-disk format, so the same fsck applies.
            _ => xv6fs::fsck::fsck_device(&(Arc::clone(&self.dev) as Arc<dyn BlockDevice>))?.errors,
        })
    }
}
