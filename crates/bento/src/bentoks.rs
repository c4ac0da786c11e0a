//! BentoKS — the kernel services API (paper §4.5–§4.7).
//!
//! A file system needs kernel services, primarily block I/O through the
//! buffer cache.  The raw kernel interfaces (`sb_bread` takes a
//! `super_block *` and returns a `buffer_head *`; forgetting `brelse` leaks
//! the buffer) cannot be used from safe Rust.  BentoKS therefore exposes:
//!
//! * [`SuperBlock`] — a *capability type* (§4.6): an unforgeable handle that
//!   proves the file system was given access to a valid superblock by the
//!   framework.  File-system code cannot construct one; it receives a
//!   reference in every file-operations call and can use it for block I/O.
//! * [`BufferHead`] — a safe RAII wrapper (§4.7) around a locked block
//!   buffer.  `data()`/`data_mut()` expose the block contents as a sized
//!   slice, `write()` is `bwrite`, and dropping the guard is `brelse`, so
//!   buffer leaks become as hard as memory leaks in Rust.  `share()` hands
//!   the log a reference to the bytes instead of a copy; the buffer copies
//!   them on its next write if the log still holds them.
//! * [`BlockIo`]/[`BlockBuffer`] — the provider traits behind those types.
//!   The kernel provider ([`KernelBlockIo`]) is backed by the simulated
//!   kernel's buffer cache and block device; the userspace provider
//!   ([`crate::userspace::UserDisk`]) is backed by an `O_DIRECT`-style disk
//!   file.  Because the file system only ever sees [`SuperBlock`] and
//!   [`BufferHead`], the identical file-system code runs in both
//!   environments (§4.9).

use std::sync::Arc;

use simkernel::buffer::{Block, BufferCache, BufferGuard};
use simkernel::dev::BlockDevice;
use simkernel::error::KernelResult;

/// Provider of block I/O for a mounted file system.
///
/// Implementations: [`KernelBlockIo`] (kernel buffer cache) and
/// [`crate::userspace::UserDisk`] (userspace `O_DIRECT` disk file).
pub trait BlockIo: Send + Sync {
    /// Block size in bytes.
    fn block_size(&self) -> usize;

    /// Number of addressable blocks.
    fn nblocks(&self) -> u64;

    /// Reads block `blockno` and returns an exclusive buffer.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn bread(&self, blockno: u64) -> KernelResult<Box<dyn BlockBuffer>>;

    /// Returns an exclusive, zero-filled buffer for `blockno` without
    /// reading the device (for blocks that will be fully overwritten).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn bread_zeroed(&self, blockno: u64) -> KernelResult<Box<dyn BlockBuffer>>;

    /// Returns an exclusive buffer for `blockno` holding a copy of `src`
    /// (one whole block), without reading the device or zero-filling it
    /// first: the whole-block overwrite.
    ///
    /// # Errors
    ///
    /// Propagates device errors; [`simkernel::error::Errno::Inval`] if
    /// `src` is not one block long.
    fn bread_with(&self, blockno: u64, src: &[u8]) -> KernelResult<Box<dyn BlockBuffer>>;

    /// Makes every previously written block durable (an ordering barrier).
    ///
    /// In the kernel this is a device cache FLUSH; from userspace it is an
    /// `fsync` of the whole backing disk file — the cost asymmetry the paper
    /// measures in §6.4.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn sync_all(&self) -> KernelResult<()>;

    /// Writes a batch of `(blockno, data)` blocks to the device *without*
    /// going through the buffer cache.  The log installs every committed
    /// snapshot this way: when a later, not-yet-committed transaction has
    /// modified the cached copy since, the newer cached bytes stay dirty
    /// (their own group will log and install them) while the home location
    /// receives exactly the committed bytes.  One commit's installs and
    /// payload are one batch, so a queued device submits them together.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn write_raw(&self, writes: &[(u64, &[u8])]) -> KernelResult<()>;
}

/// An exclusive handle to one block's contents.
///
/// Buffers are used within a single operation on the thread that obtained
/// them (like a locked `buffer_head`), so the trait does not require `Send`.
pub trait BlockBuffer {
    /// The block number.
    fn blockno(&self) -> u64;

    /// Read-only view of the block contents.
    fn data(&self) -> &[u8];

    /// Mutable view of the block contents (copied first while shared).
    fn data_mut(&mut self) -> &mut [u8];

    /// A reference to the current bytes, which never change.
    fn share(&self) -> Block;

    /// Writes the buffer to the device (`bwrite`).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn write(&mut self) -> KernelResult<()>;

    /// Marks the buffer clean without a device write if it still holds
    /// exactly `block` (whose bytes reached the device by another path);
    /// returns whether it did.
    fn clean_if_holds(&mut self, block: &Block) -> bool;
}

// ---------------------------------------------------------------------------
// Kernel provider
// ---------------------------------------------------------------------------

/// Block I/O provider backed by the simulated kernel's buffer cache.
pub struct KernelBlockIo {
    cache: Arc<BufferCache>,
}

impl std::fmt::Debug for KernelBlockIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelBlockIo").field("cache", &self.cache).finish()
    }
}

impl KernelBlockIo {
    /// Creates a kernel block I/O provider over `device` with a buffer cache
    /// of `cache_blocks` blocks.
    pub fn new(device: Arc<dyn BlockDevice>, cache_blocks: usize) -> Self {
        KernelBlockIo { cache: Arc::new(BufferCache::new(device, cache_blocks)) }
    }

    /// The underlying buffer cache (for diagnostics).
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }
}

struct KernelBlockBuffer {
    guard: BufferGuard,
}

impl BlockBuffer for KernelBlockBuffer {
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
        self.guard.write()
    }

    fn clean_if_holds(&mut self, block: &Block) -> bool {
        self.guard.clean_if_holds(block)
    }
}

impl BlockIo for KernelBlockIo {
    fn block_size(&self) -> usize {
        self.cache.block_size()
    }

    fn nblocks(&self) -> u64 {
        self.cache.device().num_blocks()
    }

    fn bread(&self, blockno: u64) -> KernelResult<Box<dyn BlockBuffer>> {
        Ok(Box::new(KernelBlockBuffer { guard: self.cache.bread(blockno)? }))
    }

    fn bread_zeroed(&self, blockno: u64) -> KernelResult<Box<dyn BlockBuffer>> {
        Ok(Box::new(KernelBlockBuffer { guard: self.cache.getblk_zeroed(blockno)? }))
    }

    fn bread_with(&self, blockno: u64, src: &[u8]) -> KernelResult<Box<dyn BlockBuffer>> {
        Ok(Box::new(KernelBlockBuffer { guard: self.cache.getblk_with(blockno, src)? }))
    }

    fn sync_all(&self) -> KernelResult<()> {
        self.cache.flush_device()
    }

    fn write_raw(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        self.cache.device().write_blocks(writes)
    }
}

// ---------------------------------------------------------------------------
// Capability types handed to the file system
// ---------------------------------------------------------------------------

/// Capability type representing the kernel `super_block` (paper §4.6).
///
/// File-system code cannot construct a `SuperBlock`; BentoFS (or the
/// userspace harness) creates one and lends it to every file-operations
/// call.  Holding a `&SuperBlock` is proof of access to a valid, mounted
/// block device.
pub struct SuperBlock {
    io: Arc<dyn BlockIo>,
    device_name: String,
}

impl std::fmt::Debug for SuperBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperBlock")
            .field("device_name", &self.device_name)
            .field("nblocks", &self.io.nblocks())
            .field("block_size", &self.io.block_size())
            .finish_non_exhaustive()
    }
}

impl SuperBlock {
    /// Creates a superblock capability.  Crate-internal: only BentoFS and
    /// the userspace harness may mint capabilities.
    pub(crate) fn from_provider(io: Arc<dyn BlockIo>, device_name: &str) -> Self {
        SuperBlock { io, device_name: device_name.to_string() }
    }

    /// Block size of the underlying device in bytes.
    pub fn block_size(&self) -> usize {
        self.io.block_size()
    }

    /// Number of blocks on the underlying device.
    pub fn nblocks(&self) -> u64 {
        self.io.nblocks()
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
        Ok(BufferHead { inner: self.io.bread(blockno)? })
    }

    /// Returns a zero-filled buffer for a block that must read as zeros
    /// (`getblk` + zeroing), without reading the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn bread_zeroed(&self, blockno: u64) -> KernelResult<BufferHead> {
        Ok(BufferHead { inner: self.io.bread_zeroed(blockno)? })
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
        Ok(BufferHead { inner: self.io.bread_with(blockno, src)? })
    }

    /// Makes all previously written blocks durable (kernel: device FLUSH;
    /// userspace: whole-disk-file fsync).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn sync_all(&self) -> KernelResult<()> {
        self.io.sync_all()
    }

    /// Writes a batch of `(blockno, data)` blocks bypassing the buffer
    /// cache (see [`BlockIo::write_raw`]): the log's conflict-safe install
    /// and payload path.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_raw(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        self.io.write_raw(writes)
    }
}

/// Safe wrapper around a locked kernel `buffer_head` (paper §4.7).
///
/// `data()`/`data_mut()` expose the block as a correctly sized slice, and
/// the buffer is released automatically when the `BufferHead` is dropped,
/// so "missing `brelse`" bugs (18 of the bugs in the paper's Table 1 study
/// were missing-free leaks) are impossible in safe code.
pub struct BufferHead {
    inner: Box<dyn BlockBuffer>,
}

impl std::fmt::Debug for BufferHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferHead").field("blockno", &self.inner.blockno()).finish_non_exhaustive()
    }
}

impl BufferHead {
    /// The block number this buffer refers to.
    pub fn blockno(&self) -> u64 {
        self.inner.blockno()
    }

    /// Read-only view of the block contents.
    pub fn data(&self) -> &[u8] {
        self.inner.data()
    }

    /// Mutable view of the block contents.  Bytes the log still shares
    /// are copied first, so what it logged stays frozen.
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.inner.data_mut()
    }

    /// A reference to the block's current bytes for the log to keep: no
    /// copy, and they never change (the buffer's next write goes to a
    /// copy).
    pub fn share(&self) -> Block {
        self.inner.share()
    }

    /// Writes the buffer to the device (`bwrite`).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write(&mut self) -> KernelResult<()> {
        self.inner.write()
    }

    /// Marks the buffer clean without writing it if it still holds exactly
    /// `block`, which the log has just installed through
    /// [`SuperBlock::write_raw`]; a buffer changed since stays dirty.
    /// Returns whether it was marked clean.
    pub fn clean_if_holds(&mut self, block: &Block) -> bool {
        self.inner.clean_if_holds(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;

    fn kernel_sb(blocks: u64) -> SuperBlock {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, blocks));
        SuperBlock::from_provider(Arc::new(KernelBlockIo::new(dev, 64)), "ram0")
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
        let sb = SuperBlock::from_provider(
            Arc::new(KernelBlockIo::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 16)),
            "ram0",
        );
        let bh = sb.bread_with(4, &[0x5A; 4096]).unwrap();
        assert!(bh.data().iter().all(|&b| b == 0x5A));
        assert_eq!(dev.stats().reads, 0);
    }

    #[test]
    fn sync_all_issues_device_flush() {
        let dev = Arc::new(RamDisk::new(4096, 16));
        let sb = SuperBlock::from_provider(
            Arc::new(KernelBlockIo::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 16)),
            "ram0",
        );
        sb.sync_all().unwrap();
        assert_eq!(dev.stats().flushes, 1);
    }

    #[test]
    fn out_of_range_errors_propagate() {
        let sb = kernel_sb(4);
        assert!(sb.bread(100).is_err());
    }
}
