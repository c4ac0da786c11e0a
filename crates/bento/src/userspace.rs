//! The userspace Bento environment (paper §4.9, "BentoFS-User" /
//! "BentoKS-User").
//!
//! For debugging — and for the paper's FUSE baseline — the same file-system
//! code must run in userspace without modification.  That requires userspace
//! implementations of the same APIs the kernel provides:
//!
//! * [`UserDisk`] is the userspace replacement for the kernel buffer cache:
//!   block I/O goes through an `O_DIRECT`-style handle on the backing disk
//!   file, so every device access pays a user/kernel boundary crossing
//!   (200–400 ns in the paper's measurement), and making writes durable
//!   requires `fsync`ing the *whole* disk file because the file interface
//!   cannot sync a byte range (§6.4) — the dominant cost in the FUSE
//!   numbers.
//! * [`userspace_superblock`] mints a [`SuperBlock`] capability backed by a
//!   [`UserDisk`], so `xv6fs` code written against the kernel API runs here
//!   unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simkernel::buffer::{Block, BufferCache, BufferGuard};
use simkernel::cost::{CostCounters, CostKind, CostModel};
use simkernel::dev::BlockDevice;
use simkernel::error::KernelResult;

use crate::bentoks::{BlockBuffer, BlockIo, SuperBlock};

/// Userspace block I/O provider: the stand-in for opening the disk with
/// `O_DIRECT` from a FUSE daemon.
///
/// The provider keeps a small user-level block cache (the xv6 FUSE port
/// carries its own buffer cache in userspace), but every actual device
/// access is charged a boundary crossing, and [`BlockIo::sync_all`] is
/// charged as a whole-disk-file fsync.
pub struct UserDisk {
    cache: Arc<BufferCache>,
    model: CostModel,
    counters: Arc<CostCounters>,
    blocks_written_since_sync: Arc<AtomicU64>,
}

impl std::fmt::Debug for UserDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserDisk")
            .field("nblocks", &self.cache.device().num_blocks())
            .field("pending_blocks", &self.blocks_written_since_sync.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl UserDisk {
    /// Opens `device` from userspace with the given boundary cost model and
    /// a user-level block cache of `cache_blocks` blocks.
    pub fn new(device: Arc<dyn BlockDevice>, model: CostModel, cache_blocks: usize) -> Self {
        UserDisk {
            cache: Arc::new(BufferCache::new(device, cache_blocks)),
            model,
            counters: Arc::new(CostCounters::new()),
            blocks_written_since_sync: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Cost counters accumulated by this disk handle (crossings,
    /// whole-file syncs).
    pub fn counters(&self) -> Arc<CostCounters> {
        Arc::clone(&self.counters)
    }

    /// Blocks written since the last [`BlockIo::sync_all`] (diagnostics).
    pub fn pending_blocks(&self) -> u64 {
        self.blocks_written_since_sync.load(Ordering::Relaxed)
    }

    fn charge_crossing(&self) {
        self.model.charge(&self.counters, CostKind::BoundaryCrossing, self.model.crossing_ns);
    }

    fn buffer(&self, guard: BufferGuard) -> Box<dyn BlockBuffer> {
        Box::new(UserBlockBuffer {
            guard,
            model: self.model.clone(),
            counters: Arc::clone(&self.counters),
            blocks_written_since_sync: Arc::clone(&self.blocks_written_since_sync),
        })
    }
}

struct UserBlockBuffer {
    guard: BufferGuard,
    model: CostModel,
    counters: Arc<CostCounters>,
    blocks_written_since_sync: Arc<AtomicU64>,
}

impl BlockBuffer for UserBlockBuffer {
    fn blockno(&self) -> u64 {
        self.guard.blockno()
    }

    fn data(&self) -> &[u8] {
        self.guard.data()
    }

    fn data_mut(&mut self) -> &mut [u8] {
        self.guard.data_mut()
    }

    fn share(&self) -> Block {
        self.guard.share()
    }

    fn write(&mut self) -> KernelResult<()> {
        // Every userspace block write is a pwrite on the O_DIRECT disk file:
        // one boundary crossing plus the device write itself.
        self.model.charge(&self.counters, CostKind::BoundaryCrossing, self.model.crossing_ns);
        self.guard.write()?;
        self.blocks_written_since_sync.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn clean_if_holds(&mut self, block: &Block) -> bool {
        self.guard.clean_if_holds(block)
    }
}

impl BlockIo for UserDisk {
    fn block_size(&self) -> usize {
        self.cache.block_size()
    }

    fn nblocks(&self) -> u64 {
        self.cache.device().num_blocks()
    }

    fn bread(&self, blockno: u64) -> KernelResult<Box<dyn BlockBuffer>> {
        let guard = self.cache.bread(blockno)?;
        if guard.missed() {
            // The block actually came from the device: one pread crossing.
            self.charge_crossing();
        }
        Ok(self.buffer(guard))
    }

    fn bread_zeroed(&self, blockno: u64) -> KernelResult<Box<dyn BlockBuffer>> {
        Ok(self.buffer(self.cache.getblk_zeroed(blockno)?))
    }

    fn bread_with(&self, blockno: u64, src: &[u8]) -> KernelResult<Box<dyn BlockBuffer>> {
        Ok(self.buffer(self.cache.getblk_with(blockno, src)?))
    }

    fn sync_all(&self) -> KernelResult<()> {
        // fsync of the whole backing disk file: base cost plus a per-block
        // cost for everything written since the previous sync (§6.4).
        let pending = self.blocks_written_since_sync.swap(0, Ordering::Relaxed);
        let cost =
            self.model.whole_file_sync_base_ns + pending * self.model.whole_file_sync_per_block_ns;
        self.model.charge(&self.counters, CostKind::UserspaceWholeFileSync, cost);
        self.cache.flush_device()
    }

    fn write_raw(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        // One pwrite per block on the O_DIRECT disk file, bypassing the
        // user-level cache: a boundary crossing plus the device write each.
        for &(blockno, data) in writes {
            self.model.charge(&self.counters, CostKind::BoundaryCrossing, self.model.crossing_ns);
            self.cache.device().write_block(blockno, data)?;
            self.blocks_written_since_sync.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Mints a [`SuperBlock`] capability backed by a userspace disk, the
/// "BentoKS-User" entry point.  The identical file-system code that runs in
/// the kernel runs against this superblock unchanged.
pub fn userspace_superblock(io: Arc<dyn BlockIo>, name: &str) -> SuperBlock {
    SuperBlock::from_provider(io, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;

    fn user_sb(model: CostModel) -> (SuperBlock, Arc<CostCounters>) {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 32));
        let disk = Arc::new(UserDisk::new(dev, model, 16));
        let counters = disk.counters();
        (userspace_superblock(disk, "userdisk"), counters)
    }

    #[test]
    fn userspace_superblock_reads_and_writes() {
        let (sb, _) = user_sb(CostModel::zero());
        let mut bh = sb.bread(4).unwrap();
        bh.data_mut()[0] = 0x42;
        bh.write().unwrap();
        drop(bh);
        let bh = sb.bread(4).unwrap();
        assert_eq!(bh.data()[0], 0x42);
    }

    #[test]
    fn crossings_are_charged_per_device_access_not_per_cache_hit() {
        let (sb, counters) = user_sb(CostModel::zero());
        drop(sb.bread(1).unwrap()); // miss -> crossing
        drop(sb.bread(1).unwrap()); // hit  -> no crossing
        drop(sb.bread(2).unwrap()); // miss -> crossing
        assert_eq!(counters.snapshot().crossings, 2);
        let mut bh = sb.bread(1).unwrap();
        bh.write().unwrap(); // pwrite -> crossing
        assert_eq!(counters.snapshot().crossings, 3);
    }

    #[test]
    fn concurrent_misses_are_charged_one_crossing_each() {
        // Eight daemon-style workers read disjoint blocks through one
        // UserDisk whose cache is far smaller than their working set, so
        // misses and hits interleave across threads: every device read is
        // one crossing, charged to the bread that made it, never twice and
        // never to a neighbour's hit.
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 1024));
        let disk = Arc::new(UserDisk::new(Arc::clone(&dev), CostModel::zero(), 32));
        let workers: Vec<_> = (0..8u64)
            .map(|t| {
                let disk = Arc::clone(&disk);
                std::thread::spawn(move || {
                    for round in 0..20u64 {
                        for i in 0..16u64 {
                            let blockno = t * 128 + (i * 7 + round) % 64;
                            drop(disk.bread(blockno).unwrap());
                            drop(disk.bread(blockno).unwrap());
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
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 32));
        let disk = Arc::new(UserDisk::new(dev, model, 16));
        let counters = disk.counters();
        let sb = userspace_superblock(Arc::clone(&disk) as Arc<dyn BlockIo>, "userdisk");
        for i in 0..5 {
            let mut bh = sb.bread_zeroed(i).unwrap();
            bh.data_mut()[0] = i as u8;
            bh.write().unwrap();
        }
        assert_eq!(disk.pending_blocks(), 5);
        sb.sync_all().unwrap();
        assert_eq!(disk.pending_blocks(), 0);
        let snap = counters.snapshot();
        assert_eq!(snap.whole_file_syncs, 1);
        assert_eq!(snap.total_ns, 1_000 + 5 * 100);
    }
}
