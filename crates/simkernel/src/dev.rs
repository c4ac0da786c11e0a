//! Block devices.
//!
//! The simulated kernel exposes storage through the [`BlockDevice`] trait,
//! mirroring the role of the Linux block layer underneath a file system's
//! buffer cache.  Two implementations are provided:
//!
//! * [`RamDisk`] — a plain in-memory device with no latency, used by unit
//!   tests and as the backing store for [`SsdDevice`];
//! * [`SsdDevice`] — wraps an inner device and applies a [`CostModel`]
//!   (per-block read/write latency, a volatile write cache, and FLUSH cost
//!   proportional to the number of dirty cached blocks).  This is the stand-in
//!   for the paper's Samsung PM981 NVMe SSD.
//!
//! Fault injection and crash recording live in crashsim's `FaultDevice`,
//! which wraps either of these.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::cost::{CostCounters, CostKind, CostModel};
use crate::error::{Errno, KernelError, KernelResult};

/// Interface to a block device.
///
/// All offsets are in units of whole blocks of [`BlockDevice::block_size`]
/// bytes.  Implementations must be safe to call concurrently from many
/// threads.
pub trait BlockDevice: Send + Sync {
    /// Size of one block in bytes (the simulated stack uses 4096 throughout).
    fn block_size(&self) -> u32;

    /// Number of addressable blocks.
    fn num_blocks(&self) -> u64;

    /// Reads block `blockno` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if `buf` is not exactly one block long or
    /// `blockno` is out of range, and [`Errno::Io`] on injected device
    /// failure.
    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()>;

    /// Writes `buf` to block `blockno`.
    ///
    /// Data written is only durable after a subsequent [`BlockDevice::flush`]
    /// (devices are modelled with a volatile write cache, like a real NVMe
    /// drive).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if `buf` is not exactly one block long or
    /// `blockno` is out of range, and [`Errno::Io`] on injected device
    /// failure.
    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()>;

    /// Writes a batch of `(blockno, data)` blocks, one by one in slice
    /// order, so a later entry for the same block wins.  The journal issues
    /// each raw run of log writes through it, which lets a wrapper see a
    /// commit's writes as one call.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::write_block`]; on error, the writes before the
    /// failing one were issued.
    fn write_blocks(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        for &(blockno, data) in writes {
            self.write_block(blockno, data)?;
        }
        Ok(())
    }

    /// Flushes the device's volatile write cache (a FLUSH barrier).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Io`] on injected device failure.
    fn flush(&self) -> KernelResult<()>;

    /// Returns cumulative I/O statistics for this device.
    fn stats(&self) -> DeviceStats;
}

/// Cumulative I/O statistics reported by a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Blocks read.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
    /// Flush commands processed.
    pub flushes: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> DeviceStats {
        DeviceStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

fn check_args(dev: &dyn BlockDevice, blockno: u64, len: usize) -> KernelResult<()> {
    if len != dev.block_size() as usize {
        return Err(KernelError::with_context(Errno::Inval, "block buffer has wrong length"));
    }
    if blockno >= dev.num_blocks() {
        return Err(KernelError::with_context(Errno::Inval, "block number out of range"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// RamDisk
// ---------------------------------------------------------------------------

/// An in-memory block device with no modelled latency.
///
/// Storage is sharded to keep lock contention low under the 32-thread
/// benchmark configurations.
pub struct RamDisk {
    block_size: u32,
    num_blocks: u64,
    shards: Vec<RwLock<Vec<u8>>>,
    blocks_per_shard: u64,
    stats: StatCells,
}

impl std::fmt::Debug for RamDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RamDisk")
            .field("block_size", &self.block_size)
            .field("num_blocks", &self.num_blocks)
            .finish_non_exhaustive()
    }
}

impl RamDisk {
    /// Number of shards the backing storage is split into.
    const SHARDS: u64 = 64;

    /// Creates a RAM disk of `num_blocks` blocks of `block_size` bytes,
    /// zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or `num_blocks` is zero.
    pub fn new(block_size: u32, num_blocks: u64) -> Self {
        assert!(block_size > 0, "block_size must be nonzero");
        assert!(num_blocks > 0, "num_blocks must be nonzero");
        let blocks_per_shard = num_blocks.div_ceil(Self::SHARDS);
        let mut shards = Vec::new();
        let mut remaining = num_blocks;
        while remaining > 0 {
            let in_this = remaining.min(blocks_per_shard);
            shards.push(RwLock::new(vec![0u8; (in_this * block_size as u64) as usize]));
            remaining -= in_this;
        }
        RamDisk { block_size, num_blocks, shards, blocks_per_shard, stats: StatCells::default() }
    }

    fn locate(&self, blockno: u64) -> (usize, usize) {
        let shard = (blockno / self.blocks_per_shard) as usize;
        let offset = ((blockno % self.blocks_per_shard) * self.block_size as u64) as usize;
        (shard, offset)
    }
}

impl BlockDevice for RamDisk {
    fn block_size(&self) -> u32 {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        check_args(self, blockno, buf.len())?;
        let (shard, offset) = self.locate(blockno);
        let guard = self.shards[shard].read();
        buf.copy_from_slice(&guard[offset..offset + self.block_size as usize]);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        check_args(self, blockno, buf.len())?;
        let (shard, offset) = self.locate(blockno);
        let mut guard = self.shards[shard].write();
        guard[offset..offset + self.block_size as usize].copy_from_slice(buf);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&self) -> KernelResult<()> {
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats.snapshot()
    }
}

// ---------------------------------------------------------------------------
// SsdDevice
// ---------------------------------------------------------------------------

/// A latency-modelled SSD wrapping an inner block device.
///
/// Writes land in a modelled volatile write cache (the data itself is stored
/// through to the inner device immediately so reads see it, but durability is
/// only guaranteed after [`BlockDevice::flush`]).  The number of blocks dirty
/// in the write cache determines the cost of the next flush, mirroring how a
/// real NVMe FLUSH scales with outstanding data.
pub struct SsdDevice {
    inner: Arc<dyn BlockDevice>,
    model: CostModel,
    counters: Arc<CostCounters>,
    dirty_since_flush: AtomicU64,
    stats: StatCells,
}

impl std::fmt::Debug for SsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdDevice")
            .field("num_blocks", &self.inner.num_blocks())
            .field("model", &self.model)
            .finish_non_exhaustive()
    }
}

impl SsdDevice {
    /// Wraps `inner` with latency model `model`.
    pub fn new(inner: Arc<dyn BlockDevice>, model: CostModel) -> Self {
        SsdDevice {
            inner,
            model,
            counters: Arc::new(CostCounters::new()),
            dirty_since_flush: AtomicU64::new(0),
            stats: StatCells::default(),
        }
    }

    /// Convenience constructor: a RAM-backed SSD of `num_blocks` 4 KiB blocks.
    pub fn ram_backed(num_blocks: u64, model: CostModel) -> Self {
        SsdDevice::new(Arc::new(RamDisk::new(4096, num_blocks)), model)
    }

    /// The cost counters shared with the model (useful for experiment
    /// reporting).
    pub fn counters(&self) -> Arc<CostCounters> {
        Arc::clone(&self.counters)
    }

    /// The latency model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Number of blocks written since the last flush.
    pub fn dirty_blocks(&self) -> u64 {
        self.dirty_since_flush.load(Ordering::Relaxed)
    }
}

impl BlockDevice for SsdDevice {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        let _io = crate::trace::phase(crate::trace::Phase::DevIo);
        self.inner.read_block(blockno, buf)?;
        self.model.charge(&self.counters, CostKind::DeviceRead, self.model.block_read_ns);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        let _io = crate::trace::phase(crate::trace::Phase::DevIo);
        self.inner.write_block(blockno, buf)?;
        self.dirty_since_flush.fetch_add(1, Ordering::Relaxed);
        self.model.charge(&self.counters, CostKind::DeviceWrite, self.model.block_write_ns);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&self) -> KernelResult<()> {
        let _io = crate::trace::phase(crate::trace::Phase::DevIo);
        self.inner.flush()?;
        let dirty = self.dirty_since_flush.swap(0, Ordering::Relaxed);
        let cost = self.model.flush_base_ns + dirty * self.model.flush_per_dirty_block_ns;
        self.model.charge(&self.counters, CostKind::DeviceFlush, cost);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    #[test]
    fn ramdisk_roundtrip() {
        let d = RamDisk::new(4096, 100);
        d.write_block(0, &pattern(1)).unwrap();
        d.write_block(99, &pattern(2)).unwrap();
        let mut buf = vec![0u8; 4096];
        d.read_block(0, &mut buf).unwrap();
        assert_eq!(buf, pattern(1));
        d.read_block(99, &mut buf).unwrap();
        assert_eq!(buf, pattern(2));
        d.read_block(50, &mut buf).unwrap();
        assert_eq!(buf, pattern(0));
    }

    #[test]
    fn ramdisk_rejects_bad_args() {
        let d = RamDisk::new(4096, 10);
        let mut small = vec![0u8; 512];
        assert_eq!(d.read_block(0, &mut small).unwrap_err().errno(), Errno::Inval);
        assert_eq!(d.write_block(10, &pattern(0)).unwrap_err().errno(), Errno::Inval);
        assert_eq!(d.write_block(u64::MAX, &pattern(0)).unwrap_err().errno(), Errno::Inval);
    }

    #[test]
    fn ramdisk_sharding_covers_all_blocks() {
        // A size that does not divide evenly by the shard count.
        let d = RamDisk::new(4096, 130);
        for i in 0..130 {
            d.write_block(i, &pattern((i % 251) as u8)).unwrap();
        }
        let mut buf = vec![0u8; 4096];
        for i in 0..130 {
            d.read_block(i, &mut buf).unwrap();
            assert_eq!(buf[0], (i % 251) as u8, "block {i}");
        }
    }

    #[test]
    fn ramdisk_stats_count_operations() {
        let d = RamDisk::new(4096, 8);
        let mut buf = vec![0u8; 4096];
        d.write_block(1, &pattern(9)).unwrap();
        d.read_block(1, &mut buf).unwrap();
        d.read_block(2, &mut buf).unwrap();
        d.flush().unwrap();
        let s = d.stats();
        assert_eq!(s, DeviceStats { reads: 2, writes: 1, flushes: 1 });
    }

    #[test]
    fn ssd_charges_and_tracks_dirty_blocks() {
        let ssd = SsdDevice::ram_backed(64, CostModel::zero());
        ssd.write_block(0, &pattern(7)).unwrap();
        ssd.write_block(1, &pattern(8)).unwrap();
        assert_eq!(ssd.dirty_blocks(), 2);
        ssd.flush().unwrap();
        assert_eq!(ssd.dirty_blocks(), 0);
        let snap = ssd.counters().snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.flushes, 1);
        let mut buf = vec![0u8; 4096];
        ssd.read_block(0, &mut buf).unwrap();
        assert_eq!(buf, pattern(7));
    }

    #[test]
    fn ssd_flush_cost_scales_with_dirty_data() {
        let model = CostModel {
            flush_base_ns: 100,
            flush_per_dirty_block_ns: 10,
            inject_delays: false,
            ..CostModel::zero()
        };
        let ssd = SsdDevice::ram_backed(64, model);
        for i in 0..5 {
            ssd.write_block(i, &pattern(1)).unwrap();
        }
        ssd.flush().unwrap();
        let after_first = ssd.counters().snapshot().total_ns;
        assert_eq!(after_first, 100 + 5 * 10);
        ssd.flush().unwrap();
        let after_second = ssd.counters().snapshot().total_ns;
        assert_eq!(after_second - after_first, 100);
    }

    #[test]
    fn default_write_blocks_writes_every_block_in_slice_order() {
        let d = RamDisk::new(4096, 8);
        let (a, b, c) = (pattern(1), pattern(2), pattern(3));
        d.write_blocks(&[(3, &a), (5, &b), (3, &c)]).unwrap();
        assert_eq!(d.stats().writes, 3, "every entry is one device write");
        let mut buf = vec![0u8; 4096];
        d.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, c, "the later entry for block 3 wins");
        d.read_block(5, &mut buf).unwrap();
        assert_eq!(buf, b);
        d.write_blocks(&[]).unwrap();
        assert_eq!(d.stats().writes, 3, "an empty batch writes nothing");
    }

    #[test]
    fn concurrent_ramdisk_access_is_consistent() {
        use std::thread;
        let d = Arc::new(RamDisk::new(4096, 256));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let d = Arc::clone(&d);
            handles.push(thread::spawn(move || {
                for i in 0..32u64 {
                    let blockno = t * 32 + i;
                    d.write_block(blockno, &vec![t as u8 + 1; 4096]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut buf = vec![0u8; 4096];
        for t in 0..8u64 {
            for i in 0..32u64 {
                d.read_block(t * 32 + i, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == t as u8 + 1));
            }
        }
    }
}
