//! The VFS baseline's write-ahead log as a thin adapter over the shared
//! [`journal::Journal`].
//!
//! Same protocol, same on-disk format, same recovery defenses as the Bento
//! stack's `xv6fs::log::Log` — *by construction*, because both are
//! adapters over the one journal implementation (the crash harness mounts
//! one stack's image under the other's fsck oracle, so the images must
//! stay byte-compatible).  This module only translates the kernel
//! [`BufferCache`] into the journal's block-IO face
//! ([`journal::io::JournalIo`]): cached I/O via [`BufferCache::bread`]
//! (the way the paper's C implementation calls `sb_bread` / `brelse`
//! itself), raw writes straight to the backing device, barriers via
//! [`BufferCache::flush_device`] (`blkdev_issue_flush`), and the
//! multi-queue face via the device's `as_queued`.

use simkernel::buffer::{BufferCache, BufferGuard};
use simkernel::error::KernelResult;

use journal::io::JournalIo;
use journal::{Journal, JournalConfig};

use xv6fs::layout::{DiskSuperblock, LOGSIZE};

pub use xv6fs::log::LogStats;

/// [`JournalIo`] over the kernel [`BufferCache`]: cached I/O goes through
/// the buffer cache, raw writes and barriers hit the backing device
/// directly.
struct CacheIo<'a>(&'a BufferCache);

impl JournalIo for CacheIo<'_> {
    fn read_block(&self, blockno: u64, out: &mut [u8]) -> KernelResult<()> {
        let buf = self.0.bread(blockno)?;
        out.copy_from_slice(buf.data());
        Ok(())
    }

    fn write_block(&self, blockno: u64, data: &[u8]) -> KernelResult<()> {
        let mut buf = self.0.bread(blockno)?;
        buf.data_mut().copy_from_slice(data);
        buf.write()
    }

    fn write_raw(&self, blockno: u64, data: &[u8]) -> KernelResult<()> {
        self.0.device().write_block(blockno, data)
    }

    fn flush_cached_if_eq(&self, blockno: u64, expected: &[u8]) -> KernelResult<bool> {
        let mut buf = self.0.bread(blockno)?;
        if buf.data() == expected {
            buf.write()?;
            Ok(true)
        } else {
            // A later operation already modified this block in the cache;
            // its own group will log and install the newer bytes.  The
            // journal writes the committed snapshot raw instead.
            Ok(false)
        }
    }

    fn barrier(&self) -> KernelResult<()> {
        self.0.flush_device()
    }

    fn queued(&self) -> Option<&dyn simkernel::queue::QueuedBlockDevice> {
        self.0.device().as_queued()
    }
}

/// The VFS baseline's write-ahead log (see [`journal::Journal`] for the
/// protocol).
#[derive(Debug)]
pub struct VfsLog {
    journal: Journal,
}

impl VfsLog {
    /// Creates log state for the file system described by `sb`.
    pub fn new(sb: &DiskSuperblock) -> Self {
        VfsLog {
            journal: Journal::new(JournalConfig::from_geometry(
                sb.logstart as u64,
                sb.nlog as usize,
                LOGSIZE,
                (sb.inodestart as u64, sb.size as u64),
            )),
        }
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> LogStats {
        self.journal.stats()
    }

    /// Data blocks one commit region can hold (one group's maximum size).
    pub fn region_capacity(&self) -> usize {
        self.journal.region_capacity()
    }

    /// Begins an operation that will modify at most
    /// [`VfsLog::max_op_blocks`] blocks; see [`Journal::begin_op`].
    pub fn begin_op(&self) {
        self.journal.begin_op();
    }

    /// Records that the block held by `buf` was modified by the current
    /// operation, freezing a snapshot of its bytes.  Call while still
    /// holding the [`BufferGuard`] (immediately after modifying it).
    ///
    /// # Errors
    ///
    /// See [`Journal::log_write`].
    pub fn log_write(&self, buf: &BufferGuard) -> KernelResult<()> {
        self.journal.log_write(buf.blockno(), buf.data())
    }

    /// Ends the current operation; see [`Journal::end_op`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn end_op(&self, cache: &BufferCache) -> KernelResult<()> {
        self.journal.end_op(&CacheIo(cache))
    }

    /// Forces everything durable-in-progress to commit; see
    /// [`Journal::flush`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn flush(&self, cache: &BufferCache) -> KernelResult<()> {
        self.journal.flush(&CacheIo(cache))
    }

    /// Commits everything in progress and leaves both log headers clear
    /// (the unmount path); see [`Journal::checkpoint`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn checkpoint(&self, cache: &BufferCache) -> KernelResult<()> {
        self.journal.checkpoint(&CacheIo(cache))
    }

    /// Replays committed-but-not-cleared transactions at mount time;
    /// see [`Journal::recover`].  Returns the number of blocks replayed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn recover(&self, cache: &BufferCache) -> KernelResult<usize> {
        self.journal.recover(&CacheIo(cache))
    }

    /// Maximum number of data blocks a single operation may safely modify
    /// (callers chunk larger writes).
    pub fn max_op_blocks() -> usize {
        Journal::max_op_blocks()
    }
}

#[cfg(test)]
mod tests {
    //! Adapter smoke tests: the protocol is exercised by the `journal`
    //! crate's unit tests and the journal-level crash suite (which runs
    //! this stack through the shared harness); here we only prove the
    //! [`CacheIo`] translation is faithful.

    use super::*;
    use journal::record::{encode_head, payload_digest};
    use simkernel::dev::RamDisk;
    use std::sync::Arc;
    use xv6fs::layout::BSIZE;

    fn test_dsb(size: u32) -> DiskSuperblock {
        DiskSuperblock {
            magic: xv6fs::layout::FSMAGIC,
            size,
            nblocks: 700,
            ninodes: 128,
            nlog: LOGSIZE as u32,
            logstart: 2,
            inodestart: 2 + LOGSIZE as u32,
            bmapstart: 2 + LOGSIZE as u32 + 4,
        }
    }

    fn setup() -> (BufferCache, VfsLog) {
        let dev = Arc::new(RamDisk::new(BSIZE as u32, 1024));
        (BufferCache::new(dev, 256), VfsLog::new(&test_dsb(1024)))
    }

    #[test]
    fn commit_through_cache_installs_and_counts_barriers() {
        let (cache, log) = setup();
        log.begin_op();
        let mut buf = cache.bread(900).unwrap();
        buf.data_mut().fill(0xAB);
        log.log_write(&buf).unwrap();
        drop(buf);
        log.end_op(&cache).unwrap();
        // Durable on the raw device, not just in cache.
        let mut raw = vec![0u8; BSIZE];
        cache.device().read_block(900, &mut raw).unwrap();
        assert_eq!(raw[0], 0xAB);
        let stats = log.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.barriers, 1, "one barrier per commit through flush_device");
        log.flush(&cache).unwrap();
        assert_eq!(log.stats().barriers, 1, "flushing an idle log costs nothing");
        log.checkpoint(&cache).unwrap();
        assert_eq!(log.stats().barriers, 3, "checkpoint: installs durable, then the clear");
        assert_eq!(log.recover(&cache).unwrap(), 0, "clean log replays nothing");
    }

    #[test]
    fn recover_reads_headers_through_buffer_cache() {
        let (cache, log) = setup();
        // Hand-craft a committed-but-not-installed transaction in region 0.
        let mut data = cache.getblk_zeroed(3).unwrap();
        data.data_mut().fill(0x5E);
        data.write().unwrap();
        drop(data);
        let mut head = cache.bread(2).unwrap();
        head.data_mut().fill(0);
        encode_head(head.data_mut(), 0, [800u64].into_iter(), payload_digest([&[0x5E; BSIZE][..]]));
        head.write().unwrap();
        drop(head);
        assert_eq!(log.recover(&cache).unwrap(), 1);
        let mut raw = vec![0u8; BSIZE];
        cache.device().read_block(800, &mut raw).unwrap();
        assert_eq!(raw[0], 0x5E);
        assert_eq!(log.recover(&cache).unwrap(), 0, "header cleared after replay");
        assert_eq!(log.stats().recoveries, 1);
    }
}
