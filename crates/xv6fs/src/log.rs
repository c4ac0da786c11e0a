//! The xv6 write-ahead log as a thin adapter over the shared
//! [`journal::Journal`].
//!
//! The whole pipelined group-commit protocol — atomic space reservation,
//! thread-local staging, quiescent group formation with committer handoff,
//! the ring of log regions with lazy installs, payload-checksummed commit
//! records, one batched write per commit epoch, and torn-record-rejecting
//! recovery — lives in the `journal` crate.  This module only translates
//! the [`SuperBlock`] capability into the journal's block-IO face
//! ([`journal::io::JournalIo`]): the log area is read and written raw
//! ([`SuperBlock::read_raw`], [`SuperBlock::write_raw`]), so it never
//! enters the buffer cache; installs are raw batched device writes too;
//! only recovery's replay writes homes through [`SuperBlock::bread`]; and
//! barriers are [`SuperBlock::sync_all`].
//! [`Log::log_write`] hands the journal the buffer's own bytes
//! ([`BufferHead::share`]) rather than a copy; the buffer copies them only
//! if it changes while the journal still holds them.  A logged block's
//! buffer stays dirty — so the cache keeps it and every read sees the
//! committed bytes — until the journal installs it and
//! [`BufferHead::clean_if_holds`] finds the buffer still holding the very
//! block installed.
//!
//! Every xv6 stack mounts this one adapter — the Bento and VFS bindings
//! over the kernel buffer cache, the FUSE daemon over its userspace disk
//! file — so they get byte-for-byte identical on-disk images and
//! corrupt-header handling *by construction*: the crash harness mounts
//! one stack's image under another's fsck oracle.

use bento::bentoks::{BufferHead, SuperBlock};
use simkernel::error::KernelResult;

use journal::io::JournalIo;
use journal::{Journal, JournalConfig, PlantedFault};
use simkernel::buffer::Block;

use crate::layout::{DiskSuperblock, LOGSIZE};

pub use journal::{JournalStats as LogStats, JournalTail as LogTail};

/// [`JournalIo`] over the Bento [`SuperBlock`] capability: reads and raw
/// writes hit the device directly, recovery's cached writes go through the
/// kernel buffer cache (`bread`).  `fault` is the log's planted fault; only
/// [`PlantedFault::InstallLiveBuffer`] concerns this adapter.
struct SbIo<'a> {
    sb: &'a SuperBlock,
    fault: PlantedFault,
}

impl JournalIo for SbIo<'_> {
    fn read_block(&self, blockno: u64, out: &mut [u8]) -> KernelResult<()> {
        self.sb.read_raw(blockno, out)
    }

    fn write_block(&self, blockno: u64, data: &[u8]) -> KernelResult<()> {
        let mut buf = self.sb.bread(blockno)?;
        buf.data_mut().copy_from_slice(data);
        buf.write()
    }

    fn write_raw(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        self.sb.write_raw(writes)
    }

    fn installed(&self, blockno: u64, block: &Block) -> KernelResult<()> {
        // The buffer stayed dirty (so the cache kept it) from the
        // operation that logged it until this install.  When a later
        // operation has modified it since, it holds a copy and stays dirty
        // for that operation's own group.
        let mut buf = self.sb.bread(blockno)?;
        if self.fault == PlantedFault::InstallLiveBuffer {
            return buf.write();
        }
        buf.clean_if_holds(block);
        Ok(())
    }

    fn barrier(&self) -> KernelResult<()> {
        self.sb.sync_all()
    }
}

/// The file system's write-ahead log (see [`journal::Journal`] for the
/// protocol).
#[derive(Debug)]
pub struct Log {
    journal: Journal,
    fault: PlantedFault,
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
            fault: PlantedFault::None,
        }
    }

    /// Test-only crash-safety hook; see [`Journal::plant_fault`].
    #[doc(hidden)]
    pub fn plant_fault(&mut self, fault: PlantedFault) {
        self.journal.plant_fault(fault);
        self.fault = fault;
    }

    /// The fault planted in this log, for the parts of the binding that
    /// act on one ([`PlantedFault::PartialWriteSkipsZeroFill`],
    /// [`PlantedFault::SizeOnlyInodeCompare`]).
    pub(crate) fn planted(&self) -> PlantedFault {
        self.fault
    }

    fn io<'a>(&self, sb: &'a SuperBlock) -> SbIo<'a> {
        SbIo { sb, fault: self.fault }
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
    /// operation, freezing its bytes: the journal keeps a reference to them
    /// ([`BufferHead::share`]), and the buffer's next change goes to a
    /// copy.  Call while still holding the [`BufferHead`] (immediately after
    /// modifying it).
    ///
    /// # Errors
    ///
    /// See [`Journal::log_write`].
    pub fn log_write(&self, buf: &BufferHead) -> KernelResult<()> {
        self.journal.log_write(buf.blockno(), buf.share())
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
        self.journal.end_op(&self.io(sb))
    }

    /// Forces everything durable-in-progress to commit; see
    /// [`Journal::flush`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn flush(&self, sb: &SuperBlock) -> KernelResult<()> {
        self.journal.flush(&self.io(sb))
    }

    /// Commits everything in progress, installs what is pending and
    /// leaves every log header clean (the unmount path); see
    /// [`Journal::checkpoint`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn checkpoint(&self, sb: &SuperBlock) -> KernelResult<()> {
        self.journal.checkpoint(&self.io(sb))
    }

    /// Replays committed-but-not-cleared transactions at mount time;
    /// see [`Journal::recover`].  Returns the number of blocks replayed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn recover(&self, sb: &SuperBlock) -> KernelResult<usize> {
        self.journal.recover(&self.io(sb))
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
    //! install through the buffer cache's identity check and superblock
    //! barriers, and recovery reads hand-crafted on-disk headers from the
    //! device.

    use super::*;
    use crate::layout::BSIZE;
    use bento::bentoks::KernelBlockIo;
    use journal::record::{encode_head, payload_digest};
    use simkernel::dev::{BlockDevice, RamDisk};
    use std::sync::Arc;

    const DISK: u32 = 2048;

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
        let dev = Arc::new(RamDisk::new(BSIZE as u32, DISK.into()));
        let io = KernelBlockIo::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 512);
        let sb = bento::userspace::userspace_superblock(Arc::new(io), "test");
        (sb, Log::new(&test_dsb(DISK)), dev)
    }

    type Setup = (Arc<KernelBlockIo>, SuperBlock, Log, Arc<RamDisk>);

    /// [`setup`], keeping the [`KernelBlockIo`] for a look at its cache.
    fn setup_cached() -> Setup {
        let dev = Arc::new(RamDisk::new(BSIZE as u32, DISK.into()));
        let io = Arc::new(KernelBlockIo::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 512));
        let sb = bento::userspace::userspace_superblock(Arc::clone(&io), "test");
        (io, sb, Log::new(&test_dsb(DISK)), dev)
    }

    /// One operation that fills `home` with `fill` and logs it.
    fn logged_op(sb: &SuperBlock, log: &Log, home: u64, fill: u8) {
        log.begin_op();
        let mut buf = sb.bread(home).unwrap();
        buf.data_mut().fill(fill);
        log.log_write(&buf).unwrap();
        drop(buf);
        log.end_op(sb).unwrap();
    }

    fn raw_fill(dev: &RamDisk, home: u64) -> u8 {
        let mut raw = vec![0u8; BSIZE];
        dev.read_block(home, &mut raw).unwrap();
        raw[0]
    }

    /// Group 0 logs `home`; then `change` modifies its buffer without
    /// logging it (a later operation's copy on write); then groups 1–3 log
    /// other blocks, and group 3's epoch installs group 0's copy.
    fn install_under_a_later_change(change: impl FnOnce(&SuperBlock)) -> Setup {
        let (io, sb, log, dev) = setup_cached();
        logged_op(&sb, &log, 1600, 0xA1);
        change(&sb);
        for (i, home) in (1601..1604).enumerate() {
            logged_op(&sb, &log, home, 0x10 + i as u8);
        }
        assert_eq!(log.stats().installs, 1, "group 3's epoch installed group 0's copy");
        assert_eq!(raw_fill(&dev, 1600), 0xA1, "the home holds the committed bytes");
        (io, sb, log, dev)
    }

    /// The later change is logged by its own group and installed at the
    /// checkpoint: only then is the buffer clean.
    fn install_own_group(setup: Setup, fill: u8) {
        let (io, sb, log, dev) = setup;
        let dirty = |home| io.cache().bread(home).unwrap().is_dirty();
        assert!(dirty(1600), "the install was not of the bytes the buffer holds");
        log.begin_op();
        log.log_write(&sb.bread(1600).unwrap()).unwrap();
        log.end_op(&sb).unwrap();
        assert!(dirty(1600), "logged again, not installed yet");
        log.checkpoint(&sb).unwrap();
        assert_eq!(raw_fill(&dev, 1600), fill);
        assert!(!dirty(1600), "its own group's install releases it");
    }

    #[test]
    fn a_buffer_changed_before_its_install_stays_dirty_until_its_own_group_installs() {
        let setup =
            install_under_a_later_change(|sb| sb.bread(1600).unwrap().data_mut().fill(0xB2));
        assert_eq!(setup.0.cache().bread(1600).unwrap().data()[0], 0xB2, "the change survives");
        install_own_group(setup, 0xB2);
    }

    #[test]
    fn equal_bytes_in_a_new_block_are_not_the_installed_copy() {
        // The later operation writes the very bytes group 0 committed: a new
        // block (copy on write) with equal contents.  A byte compare would
        // call the buffer clean while the change waits for its own group.
        let setup =
            install_under_a_later_change(|sb| sb.bread(1600).unwrap().data_mut().fill(0xA1));
        install_own_group(setup, 0xA1);
    }

    #[test]
    fn an_install_releases_only_a_buffer_still_holding_the_installed_bytes() {
        let (io, sb, log, dev) = setup_cached();
        log.begin_op();
        for home in [1600, 1601] {
            let mut buf = sb.bread(home).unwrap();
            buf.data_mut().fill(0xAB);
            log.log_write(&buf).unwrap();
        }
        log.end_op(&sb).unwrap();
        // A later change to 1601 that no commit has logged yet.
        sb.bread(1601).unwrap().data_mut()[0] = 0xCD;
        log.checkpoint(&sb).unwrap();
        let dirty = |home| io.cache().bread(home).unwrap().is_dirty();
        assert!(!dirty(1600), "installed bytes: the buffer may be evicted");
        assert!(dirty(1601), "newer bytes than the install: the buffer stays dirty");
        let mut raw = vec![0u8; BSIZE];
        dev.read_block(1601, &mut raw).unwrap();
        assert_eq!(raw[0], 0xAB, "the home holds the committed bytes");
    }

    #[test]
    fn commit_through_superblock_installs_and_counts_barriers() {
        let (sb, log, dev) = setup();
        log.begin_op();
        let mut buf = sb.bread(1600).unwrap();
        buf.data_mut().fill(0xAB);
        log.log_write(&buf).unwrap();
        drop(buf);
        log.end_op(&sb).unwrap();
        let stats = log.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.barriers, 1, "one barrier per commit through sync_all");
        // Committed but not installed: the dirty buffer holds the bytes
        // and the raw device does not yet.
        let mut raw = vec![0u8; BSIZE];
        dev.read_block(1600, &mut raw).unwrap();
        assert_eq!((sb.bread(1600).unwrap().data()[0], raw[0]), (0xAB, 0));
        log.flush(&sb).unwrap();
        assert_eq!(log.stats().barriers, 1, "flushing an idle log costs nothing");
        log.checkpoint(&sb).unwrap();
        assert_eq!(log.stats().barriers, 3, "checkpoint: installs durable, then the clear");
        assert_eq!(log.stats().installs, 1);
        dev.read_block(1600, &mut raw).unwrap();
        assert_eq!(raw[0], 0xAB, "installed on the raw device");
        assert_eq!(log.recover(&sb).unwrap(), 0, "clean log replays nothing");
    }

    #[test]
    fn recover_reads_headers_from_the_device() {
        let (sb, log, _dev) = setup();
        // Hand-craft a committed-but-not-installed transaction in region 0,
        // written through the cache (`bwrite` reaches the device too).
        let mut data = sb.bread(3).unwrap();
        data.data_mut().fill(0x5E);
        data.write().unwrap();
        drop(data);
        let mut head = sb.bread(2).unwrap();
        head.data_mut().fill(0);
        encode_head(
            head.data_mut(),
            0,
            [1800u64].into_iter(),
            payload_digest([&[0x5E; BSIZE][..]]),
        );
        head.write().unwrap();
        drop(head);
        assert_eq!(log.recover(&sb).unwrap(), 1);
        assert_eq!(sb.bread(1800).unwrap().data()[0], 0x5E);
        // The clear went to the device raw; the cache's copy of the header
        // is stale, and recovery does not read it.
        assert_eq!(log.recover(&sb).unwrap(), 0, "header cleared after replay");
        assert_eq!(log.stats().recoveries, 1);
    }
}
