//! BentoKS — the kernel services API (paper §4.5–§4.7).
//!
//! A file system needs kernel services, primarily block I/O through the
//! buffer cache.  The raw kernel interfaces (`sb_bread` takes a
//! `super_block *` and returns a `buffer_head *`; forgetting `brelse` leaks
//! the buffer) cannot be used from safe Rust.  BentoKS therefore exposes two
//! capability types:
//!
//! * [`SuperBlock`] — a *capability type* (§4.6): an unforgeable handle that
//!   proves the file system was given access to a valid superblock by the
//!   framework.  File-system code cannot construct one; it receives a
//!   reference in every file-operations call and can use it for block I/O.
//! * [`BufferHead`] — a safe RAII wrapper (§4.7) around a locked buffer of
//!   the buffer cache.  `data()`/`data_mut()` expose the block contents as a
//!   sized slice, `write()` is `bwrite`, and dropping the guard is `brelse`,
//!   so buffer leaks become as hard as memory leaks in Rust.  `share()`
//!   hands the log a reference to the bytes instead of a copy; the buffer
//!   copies them on its next write if the log still holds them.
//!
//! Both sit on one [`KernelBlockIo`]: a buffer cache over a block device.
//! In the kernel the device is the disk itself; in userspace (§4.9) it is
//! [`crate::userspace::UserDisk`], the daemon's `O_DIRECT` disk file, which
//! charges the user/kernel crossings where they happen.  The file system
//! only ever sees [`SuperBlock`] and [`BufferHead`], so the identical
//! file-system code runs in both environments.
//!
//! ## What the types rule out
//!
//! Each `compile_fail` example below has a compiling twin that differs only
//! in the forbidden line.
//!
//! A buffer is reachable only while its [`BufferHead`] lives; once released
//! (`brelse` is the drop), it cannot be read:
//!
//! ```
//! # use std::sync::Arc;
//! # use bento::bentoks::KernelBlockIo;
//! # use bento::userspace::userspace_superblock;
//! # use simkernel::dev::RamDisk;
//! # let sb = userspace_superblock(Arc::new(KernelBlockIo::new(Arc::new(RamDisk::new(4096, 8)), 8)), "ram0");
//! let bh = sb.bread(1)?;
//! let first = bh.data()[0];
//! drop(bh);
//! # assert_eq!(first, 0);
//! # Ok::<(), simkernel::error::KernelError>(())
//! ```
//!
//! ```compile_fail,E0382
//! # use std::sync::Arc;
//! # use bento::bentoks::KernelBlockIo;
//! # use bento::userspace::userspace_superblock;
//! # use simkernel::dev::RamDisk;
//! # let sb = userspace_superblock(Arc::new(KernelBlockIo::new(Arc::new(RamDisk::new(4096, 8)), 8)), "ram0");
//! let bh = sb.bread(1)?;
//! drop(bh);
//! let first = bh.data()[0];
//! # assert_eq!(first, 0);
//! # Ok::<(), simkernel::error::KernelError>(())
//! ```
//!
//! A [`SuperBlock`] is minted only by Bento, through
//! [`crate::userspace::userspace_superblock`]; code outside the crate cannot
//! assemble one from its parts:
//!
//! ```
//! # use std::sync::Arc;
//! # use bento::bentoks::{KernelBlockIo, SuperBlock};
//! # use bento::userspace::userspace_superblock;
//! # use simkernel::dev::RamDisk;
//! # let io = Arc::new(KernelBlockIo::new(Arc::new(RamDisk::new(4096, 8)), 8));
//! let sb: SuperBlock = userspace_superblock(io, "ram0");
//! # assert_eq!(sb.nblocks(), 8);
//! ```
//!
//! ```compile_fail,E0451
//! # use std::sync::Arc;
//! # use bento::bentoks::{KernelBlockIo, SuperBlock};
//! # use bento::userspace::userspace_superblock;
//! # use simkernel::dev::RamDisk;
//! # let io = Arc::new(KernelBlockIo::new(Arc::new(RamDisk::new(4096, 8)), 8));
//! let sb: SuperBlock = SuperBlock { io, device_name: "ram0".to_string() };
//! # assert_eq!(sb.nblocks(), 8);
//! ```
//!
//! A [`BufferHead`] comes only from a [`SuperBlock`]; a locked buffer of
//! some other cache cannot be dressed up as one:
//!
//! ```
//! # use std::sync::Arc;
//! # use bento::bentoks::{BufferHead, KernelBlockIo};
//! # use bento::userspace::userspace_superblock;
//! # use simkernel::buffer::BufferCache;
//! # use simkernel::dev::RamDisk;
//! # let sb = userspace_superblock(Arc::new(KernelBlockIo::new(Arc::new(RamDisk::new(4096, 8)), 8)), "ram0");
//! # let cache = BufferCache::new(Arc::new(RamDisk::new(4096, 8)), 8);
//! let bh: BufferHead = sb.bread(1)?;
//! # assert_eq!(bh.blockno(), 1);
//! # Ok::<(), simkernel::error::KernelError>(())
//! ```
//!
//! ```compile_fail,E0451
//! # use std::sync::Arc;
//! # use bento::bentoks::{BufferHead, KernelBlockIo};
//! # use bento::userspace::userspace_superblock;
//! # use simkernel::buffer::BufferCache;
//! # use simkernel::dev::RamDisk;
//! # let sb = userspace_superblock(Arc::new(KernelBlockIo::new(Arc::new(RamDisk::new(4096, 8)), 8)), "ram0");
//! # let cache = BufferCache::new(Arc::new(RamDisk::new(4096, 8)), 8);
//! let bh: BufferHead = BufferHead { guard: cache.bread(1)? };
//! # assert_eq!(bh.blockno(), 1);
//! # Ok::<(), simkernel::error::KernelError>(())
//! ```

use std::sync::Arc;

use simkernel::buffer::{Block, BufferCache, BufferCacheStats, BufferGuard};
use simkernel::dev::BlockDevice;
use simkernel::error::KernelResult;

/// The buffer cache a mounted file system does its block I/O through, over
/// the kernel's block device or, in userspace, the daemon's disk file.
pub struct KernelBlockIo {
    cache: BufferCache,
}

impl std::fmt::Debug for KernelBlockIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelBlockIo").field("cache", &self.cache).finish()
    }
}

impl KernelBlockIo {
    /// A buffer cache of `cache_blocks` blocks over `device`.
    pub fn new(device: Arc<dyn BlockDevice>, cache_blocks: usize) -> Self {
        KernelBlockIo { cache: BufferCache::new(device, cache_blocks) }
    }

    /// The underlying buffer cache (for diagnostics).
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }
}

// ---------------------------------------------------------------------------
// Capability types handed to the file system
// ---------------------------------------------------------------------------

/// Capability type representing the kernel `super_block` (paper §4.6).
///
/// File-system code cannot construct a `SuperBlock`; BentoFS (or the
/// userspace harness) mints one with
/// [`crate::userspace::userspace_superblock`] and lends it to every
/// file-operations call.  Holding a `&SuperBlock` is proof of access to a
/// valid, mounted block device.
pub struct SuperBlock {
    pub(crate) io: Arc<KernelBlockIo>,
    pub(crate) device_name: String,
}

impl std::fmt::Debug for SuperBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperBlock")
            .field("device_name", &self.device_name)
            .field("nblocks", &self.nblocks())
            .field("block_size", &self.block_size())
            .finish_non_exhaustive()
    }
}

impl SuperBlock {
    /// Block size of the underlying device in bytes.
    pub fn block_size(&self) -> usize {
        self.io.cache.block_size()
    }

    /// Number of blocks on the underlying device.
    pub fn nblocks(&self) -> u64 {
        self.io.cache.device().num_blocks()
    }

    /// Name of the backing device (diagnostics only).
    pub fn device_name(&self) -> &str {
        &self.device_name
    }

    /// Reads block `blockno` through the buffer cache (`sb_bread`).
    ///
    /// The returned [`BufferHead`] holds the buffer exclusively; dropping it
    /// releases the buffer (`brelse`).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn bread(&self, blockno: u64) -> KernelResult<BufferHead> {
        Ok(BufferHead { guard: self.io.cache.bread(blockno)? })
    }

    /// Copies block `blockno` into `dst`, one whole block, without caching
    /// it: from the buffer if the cache holds the block, straight from the
    /// device otherwise (see
    /// [`BufferCache::read_uncached`](simkernel::buffer::BufferCache::read_uncached)).
    /// This is how file data reaches the page being filled: the page cache
    /// holds it, so a second copy in the buffer cache would only push
    /// metadata out.  The caller keeps the block's writers out meanwhile.
    ///
    /// # Errors
    ///
    /// Propagates device errors; [`simkernel::error::Errno::Inval`] if
    /// `dst` is not one block long.
    pub fn read_uncached(&self, blockno: u64, dst: &mut [u8]) -> KernelResult<()> {
        self.io.cache.read_uncached(blockno, dst)
    }

    /// Reads block `blockno` straight from the device into `dst`, neither
    /// consulting nor filling the buffer cache: the read side of
    /// [`SuperBlock::write_raw`], for an area written only raw (the log),
    /// which a cache could hold only a stale copy of.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_raw(&self, blockno: u64, dst: &mut [u8]) -> KernelResult<()> {
        self.io.cache.device().read_block(blockno, dst)
    }

    /// The buffer cache's hit, miss and uncached-read counts
    /// (diagnostics).
    pub fn cache_stats(&self) -> BufferCacheStats {
        self.io.cache.stats()
    }

    /// Returns a zero-filled buffer for a block that must read as zeros
    /// (`getblk` + zeroing), without reading the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn bread_zeroed(&self, blockno: u64) -> KernelResult<BufferHead> {
        Ok(BufferHead { guard: self.io.cache.getblk_zeroed(blockno)? })
    }

    /// Returns a buffer holding a copy of `src`, a whole block, without
    /// reading the device or zero-filling it first (`getblk` + one copy):
    /// for a block that is wholly overwritten.
    ///
    /// # Errors
    ///
    /// Propagates device errors; [`simkernel::error::Errno::Inval`] if
    /// `src` is not one block long.
    pub fn bread_with(&self, blockno: u64, src: &[u8]) -> KernelResult<BufferHead> {
        Ok(BufferHead { guard: self.io.cache.getblk_with(blockno, src)? })
    }

    /// Makes all previously written blocks durable: an ordering barrier
    /// (kernel: device FLUSH; userspace: an `fsync` of the whole disk file,
    /// the cost asymmetry the paper measures in §6.4).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn sync_all(&self) -> KernelResult<()> {
        self.io.cache.flush_device()
    }

    /// Writes a batch of `(blockno, data)` blocks to the device *without*
    /// going through the buffer cache.  The log installs every committed
    /// snapshot this way: when a later, not-yet-committed transaction has
    /// modified the cached copy since, the newer cached bytes stay dirty
    /// (their own group will log and install them) while the home location
    /// receives exactly the committed bytes.  One commit's installs and
    /// payload are one batch.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_raw(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        self.io.cache.device().write_blocks(writes)
    }
}

/// Safe wrapper around a locked kernel `buffer_head` (paper §4.7).
///
/// `data()`/`data_mut()` expose the block as a correctly sized slice, and
/// the buffer is released automatically when the `BufferHead` is dropped,
/// so "missing `brelse`" bugs (18 of the bugs in the paper's Table 1 study
/// were missing-free leaks) are impossible in safe code.
pub struct BufferHead {
    guard: BufferGuard,
}

impl std::fmt::Debug for BufferHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferHead").field("blockno", &self.blockno()).finish_non_exhaustive()
    }
}

impl BufferHead {
    /// The block number this buffer refers to.
    pub fn blockno(&self) -> u64 {
        self.guard.blockno()
    }

    /// Read-only view of the block contents.
    pub fn data(&self) -> &[u8] {
        self.guard.data()
    }

    /// Mutable view of the block contents.  Bytes the log still shares
    /// are copied first, so what it logged stays frozen.
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.guard.data_mut()
    }

    /// A reference to the block's current bytes for the log to keep: no
    /// copy, and they never change (the buffer's next write goes to a
    /// copy).
    pub fn share(&self) -> Block {
        self.guard.share()
    }

    /// Writes the buffer to the device (`bwrite`).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write(&mut self) -> KernelResult<()> {
        self.guard.write()
    }

    /// Marks the buffer clean without writing it if it still holds exactly
    /// `block`, which the log has just installed through
    /// [`SuperBlock::write_raw`]; a buffer changed since stays dirty.
    /// Returns whether it was marked clean.
    pub fn clean_if_holds(&mut self, block: &Block) -> bool {
        self.guard.clean_if_holds(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::userspace::userspace_superblock;
    use simkernel::dev::RamDisk;

    fn kernel_sb(blocks: u64) -> SuperBlock {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, blocks));
        userspace_superblock(Arc::new(KernelBlockIo::new(dev, 64)), "ram0")
    }

    #[test]
    fn superblock_reports_geometry() {
        let sb = kernel_sb(128);
        assert_eq!(sb.block_size(), 4096);
        assert_eq!(sb.nblocks(), 128);
        assert_eq!(sb.device_name(), "ram0");
    }

    #[test]
    fn bufferhead_read_modify_write_roundtrip() {
        let sb = kernel_sb(16);
        {
            let mut bh = sb.bread(3).unwrap();
            bh.data_mut()[0..4].copy_from_slice(b"abcd");
            bh.write().unwrap();
        }
        let bh = sb.bread(3).unwrap();
        assert_eq!(&bh.data()[0..4], b"abcd");
        assert_eq!(bh.blockno(), 3);
    }

    #[test]
    fn modifications_without_write_stay_in_cache_only() {
        let sb = kernel_sb(16);
        {
            let mut bh = sb.bread(5).unwrap();
            bh.data_mut()[0] = 0x77;
            // dropped without write(): cached, not on device
        }
        let bh = sb.bread(5).unwrap();
        assert_eq!(bh.data()[0], 0x77, "buffer cache retains modification");
    }

    #[test]
    fn bread_zeroed_gives_zero_block() {
        let sb = kernel_sb(16);
        {
            let mut bh = sb.bread(2).unwrap();
            bh.data_mut().fill(0xFF);
            bh.write().unwrap();
        }
        let bh = sb.bread_zeroed(2).unwrap();
        assert!(bh.data().iter().all(|&b| b == 0));
    }

    #[test]
    fn bread_with_fills_the_whole_block_without_a_device_read() {
        let dev = Arc::new(RamDisk::new(4096, 16));
        let sb =
            userspace_superblock(Arc::new(KernelBlockIo::new(Arc::clone(&dev) as _, 16)), "ram0");
        let bh = sb.bread_with(4, &[0x5A; 4096]).unwrap();
        assert!(bh.data().iter().all(|&b| b == 0x5A));
        assert_eq!(dev.stats().reads, 0);
    }

    #[test]
    fn read_uncached_serves_a_dirty_buffer_and_caches_a_device_read_nowhere() {
        let dev = Arc::new(RamDisk::new(4096, 16));
        let sb =
            userspace_superblock(Arc::new(KernelBlockIo::new(Arc::clone(&dev) as _, 16)), "ram0");
        dev.write_block(6, &[0x11; 4096]).unwrap();
        sb.bread(5).unwrap().data_mut().fill(0x22); // dirty, never written
        let mut page = vec![0u8; 4096];
        sb.read_uncached(5, &mut page).unwrap();
        assert!(page.iter().all(|&b| b == 0x22), "the cached bytes, not the device's zeros");
        sb.read_uncached(6, &mut page).unwrap();
        assert!(page.iter().all(|&b| b == 0x11));
        let stats = sb.cache_stats();
        assert_eq!((stats.cached, stats.uncached_reads), (1, 1), "block 6 was not inserted");
        assert_eq!(dev.stats().reads, 2, "bread's miss of 5, then 6 straight from the device");
    }

    #[test]
    fn sync_all_issues_device_flush() {
        let dev = Arc::new(RamDisk::new(4096, 16));
        let sb =
            userspace_superblock(Arc::new(KernelBlockIo::new(Arc::clone(&dev) as _, 16)), "ram0");
        sb.sync_all().unwrap();
        assert_eq!(dev.stats().flushes, 1);
    }

    #[test]
    fn out_of_range_errors_propagate() {
        let sb = kernel_sb(4);
        assert!(sb.bread(100).is_err());
    }
}
