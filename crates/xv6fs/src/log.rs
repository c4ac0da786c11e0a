//! The xv6 write-ahead log as a thin adapter over the shared
//! [`journal::Journal`].
//!
//! The whole pipelined group-commit protocol — atomic space reservation,
//! thread-local staging, quiescent group formation with committer handoff,
//! double-buffered log regions, payload-checksummed commit records, the two-stage
//! overlapped commit on queued devices, and torn-record-rejecting recovery
//! — lives in the `journal` crate.  This module only translates the
//! [`SuperBlock`] capability into the journal's block-IO face
//! ([`journal::io::JournalIo`]): buffer-cache reads and writes via
//! [`SuperBlock::bread`], raw device writes via [`SuperBlock::write_raw`],
//! barriers via [`SuperBlock::sync_all`], and the multi-queue face via
//! [`SuperBlock::queued`].
//!
//! Every xv6 stack mounts this one adapter — the Bento and VFS bindings
//! over the kernel buffer cache, the FUSE daemon over its userspace disk
//! file — so they get byte-for-byte identical on-disk images and
//! corrupt-header handling *by construction*: the crash harness mounts
//! one stack's image under another's fsck oracle.

use bento::bentoks::{BufferHead, SuperBlock};
use simkernel::error::KernelResult;

use journal::io::JournalIo;
use journal::{Journal, JournalConfig};

use crate::layout::{DiskSuperblock, LOGSIZE};

pub use journal::{JournalStats as LogStats, JournalTail as LogTail};

/// [`JournalIo`] over the Bento [`SuperBlock`] capability: cached I/O goes
/// through the kernel buffer cache (`bread`), raw writes and barriers hit
/// the device provider directly.
struct SbIo<'a>(&'a SuperBlock);

impl JournalIo for SbIo<'_> {
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
        self.0.write_raw(blockno, data)
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
        self.0.sync_all()
    }

    fn queued(&self) -> Option<&dyn simkernel::queue::QueuedBlockDevice> {
        self.0.queued()
    }
}

/// The file system's write-ahead log (see [`journal::Journal`] for the
/// protocol).
#[derive(Debug)]
pub struct Log {
    journal: Journal,
}

impl Log {
    /// Creates the in-memory log state for a file system whose on-disk
    /// superblock is `sb`.
    pub fn new(sb: &DiskSuperblock) -> Self {
        Log {
            journal: Journal::new(JournalConfig::from_geometry(
                sb.logstart as u64,
                sb.nlog as usize,
                LOGSIZE,
                (sb.inodestart as u64, sb.size as u64),
            )),
        }
    }

    /// Test-only crash-safety hook; see [`Journal::plant_fault`].
    #[doc(hidden)]
    pub fn plant_fault(&mut self, fault: journal::PlantedFault) {
        self.journal.plant_fault(fault);
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> LogStats {
        self.journal.stats()
    }

    /// Overrides statistics (used when restoring state across an online
    /// upgrade; the mount is quiescent during the swap).
    pub fn restore_stats(&self, stats: LogStats) {
        self.journal.restore_stats(stats);
    }

    /// Where the log stands on the medium (live-upgrade state transfer);
    /// see [`Journal::tail`].
    pub fn tail(&self) -> LogTail {
        self.journal.tail()
    }

    /// Continues a predecessor's log instead of recovering; see
    /// [`Journal::restore_tail`].
    pub fn restore_tail(&self, tail: LogTail) {
        self.journal.restore_tail(tail);
    }

    /// Data blocks one commit region can hold (one group's maximum size).
    pub fn region_capacity(&self) -> usize {
        self.journal.region_capacity()
    }

    /// Begins an operation that will modify at most
    /// [`Log::max_op_blocks`] blocks; see [`Journal::begin_op`].
    pub fn begin_op(&self) {
        self.journal.begin_op();
    }

    /// Records that the block held by `buf` was modified by the current
    /// operation, freezing a snapshot of its bytes.  Call while still
    /// holding the [`BufferHead`] (immediately after modifying it).
    ///
    /// # Errors
    ///
    /// See [`Journal::log_write`].
    pub fn log_write(&self, buf: &BufferHead) -> KernelResult<()> {
        self.journal.log_write(buf.blockno(), buf.data())
    }

    /// Distinct blocks the calling thread's open operation has staged;
    /// see [`Journal::staged_blocks`].
    pub fn staged_blocks(&self) -> usize {
        self.journal.staged_blocks()
    }

    /// Ends the current operation; see [`Journal::end_op`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn end_op(&self, sb: &SuperBlock) -> KernelResult<()> {
        self.journal.end_op(&SbIo(sb))
    }

    /// Forces everything durable-in-progress to commit; see
    /// [`Journal::flush`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn flush(&self, sb: &SuperBlock) -> KernelResult<()> {
        self.journal.flush(&SbIo(sb))
    }

    /// Commits everything in progress and leaves both log headers clean
    /// (the unmount path); see [`Journal::checkpoint`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn checkpoint(&self, sb: &SuperBlock) -> KernelResult<()> {
        self.journal.checkpoint(&SbIo(sb))
    }

    /// Replays committed-but-not-cleared transactions at mount time;
    /// see [`Journal::recover`].  Returns the number of blocks replayed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn recover(&self, sb: &SuperBlock) -> KernelResult<usize> {
        self.journal.recover(&SbIo(sb))
    }

    /// Maximum number of data blocks a single operation may safely modify
    /// (callers chunk larger writes).
    pub fn max_op_blocks() -> usize {
        Journal::max_op_blocks()
    }
}

#[cfg(test)]
mod tests {
    //! Adapter smoke tests: the protocol itself is exercised by the
    //! `journal` crate's own unit tests and the journal-level crash suite;
    //! here we only prove the [`SbIo`] translation is faithful — commits
    //! flow through the buffer cache and superblock barriers, and recovery
    //! sees hand-crafted on-disk headers through `bread`.

    use super::*;
    use crate::layout::BSIZE;
    use bento::bentoks::KernelBlockIo;
    use journal::record::{encode_head, payload_digest};
    use simkernel::dev::{BlockDevice, RamDisk};
    use std::sync::Arc;

    fn test_dsb(size: u32) -> DiskSuperblock {
        DiskSuperblock {
            magic: crate::layout::FSMAGIC,
            size,
            nblocks: 700,
            ninodes: 128,
            nlog: LOGSIZE as u32,
            logstart: 2,
            inodestart: 2 + LOGSIZE as u32,
            bmapstart: 2 + LOGSIZE as u32 + 4,
        }
    }

    fn setup() -> (SuperBlock, Log, Arc<RamDisk>) {
        let dev = Arc::new(RamDisk::new(BSIZE as u32, 1024));
        let io = KernelBlockIo::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 512);
        let sb = bento::userspace::userspace_superblock(Arc::new(io), "test");
        (sb, Log::new(&test_dsb(1024)), dev)
    }

    #[test]
    fn commit_through_superblock_installs_and_counts_barriers() {
        let (sb, log, dev) = setup();
        log.begin_op();
        let mut buf = sb.bread(600).unwrap();
        buf.data_mut().fill(0xAB);
        log.log_write(&buf).unwrap();
        drop(buf);
        log.end_op(&sb).unwrap();
        assert_eq!(sb.bread(600).unwrap().data()[0], 0xAB);
        // Installed on the raw device, not just in the cache.
        let mut raw = vec![0u8; BSIZE];
        dev.read_block(600, &mut raw).unwrap();
        assert_eq!(raw[0], 0xAB);
        let stats = log.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.barriers, 1, "one barrier per commit through sync_all");
        log.flush(&sb).unwrap();
        assert_eq!(log.stats().barriers, 1, "flushing an idle log costs nothing");
        log.checkpoint(&sb).unwrap();
        assert_eq!(log.stats().barriers, 3, "checkpoint: installs durable, then the clear");
        assert_eq!(log.recover(&sb).unwrap(), 0, "clean log replays nothing");
    }

    #[test]
    fn recover_reads_headers_through_buffer_cache() {
        let (sb, log, _dev) = setup();
        // Hand-craft a committed-but-not-installed transaction in region 0.
        let mut data = sb.bread(3).unwrap();
        data.data_mut().fill(0x5E);
        data.write().unwrap();
        drop(data);
        let mut head = sb.bread(2).unwrap();
        head.data_mut().fill(0);
        encode_head(head.data_mut(), 0, [800u64].into_iter(), payload_digest([&[0x5E; BSIZE][..]]));
        head.write().unwrap();
        drop(head);
        assert_eq!(log.recover(&sb).unwrap(), 1);
        assert_eq!(sb.bread(800).unwrap().data()[0], 0x5E);
        assert_eq!(log.recover(&sb).unwrap(), 0, "header cleared after replay");
        assert_eq!(log.stats().recoveries, 1);
    }
}
