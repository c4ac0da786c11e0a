//! The userspace Bento environment (paper §4.9, "BentoFS-User" /
//! "BentoKS-User").
//!
//! For debugging — and for the paper's FUSE baseline — the same file-system
//! code must run in userspace without modification.  BentoKS-User is the
//! same capability types over a userspace disk file: a [`SuperBlock`] over
//! a buffer cache whose device is a [`UserDisk`].
//!
//! * [`UserDisk`] is the daemon's `O_DIRECT`-style handle on the backing
//!   disk file.  Every device access pays a user/kernel boundary crossing
//!   (200–400 ns in the paper's measurement), and making writes durable
//!   requires `fsync`ing the *whole* disk file because the file interface
//!   cannot sync a byte range (§6.4) — the dominant cost in the FUSE
//!   numbers.  Cache hits cross nothing: the xv6 FUSE port carries its own
//!   buffer cache in userspace.
//! * [`userspace_superblock`] mints the [`SuperBlock`] capability, in the
//!   kernel and in userspace alike, so `xv6fs` code written against the
//!   kernel API runs here unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simkernel::cost::{CostCounters, CostKind, CostModel};
use simkernel::dev::{BlockDevice, DeviceStats};
use simkernel::error::KernelResult;

use crate::bentoks::{KernelBlockIo, SuperBlock};

/// The backing disk file as a FUSE daemon sees it, opened with `O_DIRECT`:
/// a [`BlockDevice`] over `device` that charges each access to the cost
/// model.
///
/// Each `pread` or `pwrite` of a block is one boundary crossing, and a
/// flush is an `fsync` of the whole file, charged by the blocks written
/// since the previous one.
pub struct UserDisk {
    device: Arc<dyn BlockDevice>,
    model: CostModel,
    counters: Arc<CostCounters>,
    pending_blocks: AtomicU64,
}

impl std::fmt::Debug for UserDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserDisk")
            .field("nblocks", &self.device.num_blocks())
            .field("pending_blocks", &self.pending_blocks())
            .finish_non_exhaustive()
    }
}

impl UserDisk {
    /// Opens `device` from userspace with the given boundary cost model.
    pub fn new(device: Arc<dyn BlockDevice>, model: CostModel) -> Self {
        UserDisk {
            device,
            model,
            counters: Arc::new(CostCounters::new()),
            pending_blocks: AtomicU64::new(0),
        }
    }

    /// Cost counters accumulated by this disk handle (crossings,
    /// whole-file syncs).
    pub fn counters(&self) -> Arc<CostCounters> {
        Arc::clone(&self.counters)
    }

    /// Blocks written since the last flush (diagnostics).
    pub fn pending_blocks(&self) -> u64 {
        self.pending_blocks.load(Ordering::Relaxed)
    }

    fn charge_crossing(&self) {
        self.model.charge(&self.counters, CostKind::BoundaryCrossing, self.model.crossing_ns);
    }
}

impl BlockDevice for UserDisk {
    fn block_size(&self) -> u32 {
        self.device.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.device.num_blocks()
    }

    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        self.charge_crossing();
        self.device.read_block(blockno, buf)
    }

    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        self.charge_crossing();
        self.device.write_block(blockno, buf)?;
        self.pending_blocks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// One `pwrite` per block: the disk file has no batch submission, so
    /// even a queued device underneath sees single-block writes.
    fn write_blocks(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        for &(blockno, data) in writes {
            self.write_block(blockno, data)?;
        }
        Ok(())
    }

    fn flush(&self) -> KernelResult<()> {
        // fsync of the whole backing disk file: base cost plus a per-block
        // cost for everything written since the previous sync (§6.4).
        let pending = self.pending_blocks.swap(0, Ordering::Relaxed);
        let cost =
            self.model.whole_file_sync_base_ns + pending * self.model.whole_file_sync_per_block_ns;
        self.model.charge(&self.counters, CostKind::UserspaceWholeFileSync, cost);
        self.device.flush()
    }

    fn stats(&self) -> DeviceStats {
        self.device.stats()
    }
}

/// Mints a [`SuperBlock`] capability over `io`: the one constructor, which
/// BentoFS, the C-Kernel binding, the FUSE daemon and the tests all call.
/// The same file-system code runs against the result whether `io` caches
/// the kernel's device or a [`UserDisk`].  It keeps its userspace name
/// because the frozen benchmark's probes call it by that name.
pub fn userspace_superblock(io: Arc<KernelBlockIo>, name: &str) -> SuperBlock {
    SuperBlock { io, device_name: name.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use simkernel::queue::{MultiQueueDevice, QueueConfig};

    /// A superblock over a 16-block cache on a [`UserDisk`] over `dev`.
    fn user_sb(dev: Arc<dyn BlockDevice>, model: CostModel) -> (SuperBlock, Arc<UserDisk>) {
        let disk = Arc::new(UserDisk::new(dev, model));
        let io = KernelBlockIo::new(Arc::clone(&disk) as _, 16);
        (userspace_superblock(Arc::new(io), "userdisk"), disk)
    }

    fn ram(blocks: u64) -> Arc<dyn BlockDevice> {
        Arc::new(RamDisk::new(4096, blocks))
    }

    #[test]
    fn userspace_superblock_reads_and_writes() {
        let (sb, _) = user_sb(ram(32), CostModel::zero());
        let mut bh = sb.bread(4).unwrap();
        bh.data_mut()[0] = 0x42;
        bh.write().unwrap();
        drop(bh);
        let bh = sb.bread(4).unwrap();
        assert_eq!(bh.data()[0], 0x42);
    }

    #[test]
    fn crossings_are_charged_per_device_access_not_per_cache_hit() {
        let (sb, disk) = user_sb(ram(32), CostModel::zero());
        let crossings = || disk.counters().snapshot().crossings;
        drop(sb.bread(1).unwrap()); // miss -> crossing
        drop(sb.bread(1).unwrap()); // hit  -> no crossing
        drop(sb.bread(2).unwrap()); // miss -> crossing
        assert_eq!(crossings(), 2);
        let mut bh = sb.bread(1).unwrap();
        bh.write().unwrap(); // pwrite -> crossing
        assert_eq!(crossings(), 3);
    }

    #[test]
    fn concurrent_misses_are_charged_one_crossing_each() {
        // Eight daemon-style workers read disjoint blocks through one
        // cache far smaller than their working set, so misses and hits
        // interleave across threads: every device read is one crossing,
        // charged to the bread that made it, never twice and never to a
        // neighbour's hit.
        let dev = ram(1024);
        let disk = Arc::new(UserDisk::new(Arc::clone(&dev), CostModel::zero()));
        let io = KernelBlockIo::new(Arc::clone(&disk) as _, 32);
        let sb = Arc::new(userspace_superblock(Arc::new(io), "userdisk"));
        let workers: Vec<_> = (0..8u64)
            .map(|t| {
                let sb = Arc::clone(&sb);
                std::thread::spawn(move || {
                    for round in 0..20u64 {
                        for i in 0..16u64 {
                            let blockno = t * 128 + (i * 7 + round) % 64;
                            drop(sb.bread(blockno).unwrap());
                            drop(sb.bread(blockno).unwrap());
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let reads = dev.stats().reads;
        assert!(reads > 8 * 64, "the working set must overflow the cache: {reads} reads");
        assert_eq!(disk.counters().snapshot().crossings, reads);
    }

    #[test]
    fn sync_all_is_whole_file_sync_and_scales_with_pending_writes() {
        let model = CostModel {
            whole_file_sync_base_ns: 1_000,
            whole_file_sync_per_block_ns: 100,
            inject_delays: false,
            ..CostModel::zero()
        };
        let (sb, disk) = user_sb(ram(32), model);
        for i in 0..5 {
            let mut bh = sb.bread_zeroed(i).unwrap();
            bh.data_mut()[0] = i as u8;
            bh.write().unwrap();
        }
        assert_eq!(disk.pending_blocks(), 5);
        sb.sync_all().unwrap();
        assert_eq!(disk.pending_blocks(), 0);
        let snap = disk.counters().snapshot();
        assert_eq!(snap.whole_file_syncs, 1);
        assert_eq!(snap.total_ns, 1_000 + 5 * 100);
    }

    #[test]
    fn write_raw_over_a_queued_device_is_one_pwrite_per_block() {
        // The queued device batches `write_blocks`, leaving the submissions
        // in flight until the next flush; through the disk file every block
        // is its own crossing and a synchronous `write_block`, so nothing
        // is left in flight.
        let mqd =
            Arc::new(MultiQueueDevice::new(ram(32), CostModel::zero(), QueueConfig::new(1, 8)));
        let (sb, disk) = user_sb(Arc::clone(&mqd) as _, CostModel::zero());
        let block = [0x5Au8; 4096];
        sb.write_raw(&[(3, &block[..]), (4, &block[..]), (5, &block[..])]).unwrap();
        assert_eq!(disk.counters().snapshot().crossings, 3);
        assert_eq!(disk.pending_blocks(), 3);
        assert_eq!(mqd.stats().writes, 3);
        assert_eq!(mqd.counters().inflight_now(), 0, "no write was submitted as a batch");
    }
}
