//! Journal-generic crash harness: every write-ahead log in the workspace
//! behind one object-safe face.
//!
//! The two log front-ends — the bare [`journal::Journal`] on a raw device
//! and `xv6fs::log::Log` over the `SuperBlock` capability, which both xv6
//! stacks mount (the Bento and the VFS binding share one `FsCore`, so
//! there is no third log to put under test) — run the same shared journal.
//! The crash-contract tests therefore apply *one* scenario (transactions,
//! crash-state enumeration, recovery, atomicity oracles) to every stack by
//! iterating [`all_stacks`]: a new stack inherits the whole suite by
//! adding one [`LogStack`] implementation here.
//!
//! Every stack mounts the same log geometry ([`test_geometry`]) so their
//! on-disk images are interchangeable — which the suite exploits by
//! asserting identical recovery behavior on identical pre-images.

use std::sync::Arc;

use simkernel::dev::BlockDevice;
use simkernel::error::KernelResult;

use bento::bentoks::{KernelBlockIo, SuperBlock};
use journal::io::DeviceIo;
use journal::record::BSIZE;
use journal::{Journal, JournalConfig, JournalStats};
use xv6fs::layout::{DiskSuperblock, FSMAGIC, LOGSIZE};
use xv6fs::log::Log;

/// The shared log geometry every harness stack mounts: log at block 2
/// (after boot block and superblock), the full [`LOGSIZE`] ring of
/// regions, homes legal from the end of the log area to `disk_blocks`.
pub fn test_geometry(disk_blocks: u32) -> DiskSuperblock {
    DiskSuperblock {
        magic: FSMAGIC,
        size: disk_blocks,
        nblocks: 700,
        ninodes: 128,
        nlog: LOGSIZE as u32,
        logstart: 2,
        inodestart: 2 + LOGSIZE as u32,
        bmapstart: 2 + LOGSIZE as u32 + 4,
    }
}

fn journal_config(dsb: &DiskSuperblock) -> JournalConfig {
    JournalConfig::from_geometry(
        dsb.logstart as u64,
        dsb.nlog as usize,
        LOGSIZE,
        (dsb.inodestart as u64, dsb.size as u64),
    )
}

/// A mounted write-ahead log under test: the journal transaction API,
/// narrowed to whole-block fills (all the crash oracles need) so one
/// object-safe trait covers back-ends with otherwise incompatible buffer
/// types.
pub trait LogHandle: Send + Sync {
    /// Begins a transaction ([`Journal::begin_op`]).
    fn begin_op(&self);

    /// Writes `fill` into every byte of block `blockno` inside the current
    /// transaction.
    ///
    /// # Errors
    ///
    /// Propagates I/O and journal errors.
    fn log_fill(&self, blockno: u64, fill: u8) -> KernelResult<()>;

    /// Ends the current transaction ([`Journal::end_op`]).
    ///
    /// # Errors
    ///
    /// Propagates commit I/O errors.
    fn end_op(&self) -> KernelResult<()>;

    /// Forces everything durable-in-progress to commit
    /// ([`Journal::flush`]).
    ///
    /// # Errors
    ///
    /// Propagates commit I/O errors.
    fn flush(&self) -> KernelResult<()>;

    /// Replays committed-but-not-installed transactions
    /// ([`Journal::recover`]); returns blocks replayed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn recover(&self) -> KernelResult<usize>;

    /// Cumulative journal statistics.
    fn stats(&self) -> JournalStats;

    /// Reads block `blockno` as this stack would (through its cache, so
    /// post-recovery reads see what a remounted file system would see).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn read_block(&self, blockno: u64) -> KernelResult<Vec<u8>>;
}

/// One write-ahead-log front-end the harness can mount on an arbitrary
/// device (a fault device, a plain RAM disk).
pub trait LogStack: Send + Sync {
    /// Stack name for test diagnostics.
    fn name(&self) -> &'static str;

    /// Mounts a fresh log (fresh cache, fresh in-memory state — a
    /// "reboot") on `dev` with the shared [`test_geometry`].
    fn open(&self, dev: Arc<dyn BlockDevice>, disk_blocks: u32) -> Arc<dyn LogHandle>;
}

/// Every log stack in the workspace; the crash-contract suite iterates
/// this so all of them face identical scenarios.
pub fn all_stacks() -> Vec<Box<dyn LogStack>> {
    vec![Box::new(BareJournalStack), Box::new(BentoLogStack)]
}

/// The bare [`Journal`] straight on the device via [`DeviceIo`] — no file
/// system, no cache; the journal-level crash contract with nothing on top.
struct BareJournalStack;

struct BareHandle {
    journal: Journal,
    io: DeviceIo,
}

impl LogStack for BareJournalStack {
    fn name(&self) -> &'static str {
        "journal-bare"
    }

    fn open(&self, dev: Arc<dyn BlockDevice>, disk_blocks: u32) -> Arc<dyn LogHandle> {
        let dsb = test_geometry(disk_blocks);
        Arc::new(BareHandle { journal: Journal::new(journal_config(&dsb)), io: DeviceIo::new(dev) })
    }
}

impl LogHandle for BareHandle {
    fn begin_op(&self) {
        self.journal.begin_op();
    }

    fn log_fill(&self, blockno: u64, fill: u8) -> KernelResult<()> {
        self.journal.log_write(blockno, &[fill; BSIZE])
    }

    fn end_op(&self) -> KernelResult<()> {
        self.journal.end_op(&self.io)
    }

    fn flush(&self) -> KernelResult<()> {
        self.journal.flush(&self.io)
    }

    fn recover(&self) -> KernelResult<usize> {
        self.journal.recover(&self.io)
    }

    fn stats(&self) -> JournalStats {
        self.journal.stats()
    }

    fn read_block(&self, blockno: u64) -> KernelResult<Vec<u8>> {
        // No cache: a home whose install is pending is read from the
        // journal, as ext4sim reads it.
        let mut buf = vec![0u8; BSIZE];
        self.journal.read_home(&self.io, blockno, &mut buf)?;
        Ok(buf)
    }
}

/// The xv6 core's `Log` over the `SuperBlock` capability (kernel buffer
/// cache underneath, as mounted by both xv6 bindings).
struct BentoLogStack;

struct BentoHandle {
    log: Log,
    sb: SuperBlock,
}

impl LogStack for BentoLogStack {
    fn name(&self) -> &'static str {
        "bento-xv6fs"
    }

    fn open(&self, dev: Arc<dyn BlockDevice>, disk_blocks: u32) -> Arc<dyn LogHandle> {
        let dsb = test_geometry(disk_blocks);
        let sb = bento::userspace::userspace_superblock(
            Arc::new(KernelBlockIo::new(dev, 512)),
            "logharness",
        );
        Arc::new(BentoHandle { log: Log::new(&dsb), sb })
    }
}

impl LogHandle for BentoHandle {
    fn begin_op(&self) {
        self.log.begin_op();
    }

    fn log_fill(&self, blockno: u64, fill: u8) -> KernelResult<()> {
        let mut buf = self.sb.bread(blockno)?;
        buf.data_mut().fill(fill);
        self.log.log_write(&buf)
    }

    fn end_op(&self) -> KernelResult<()> {
        self.log.end_op(&self.sb)
    }

    fn flush(&self) -> KernelResult<()> {
        self.log.flush(&self.sb)
    }

    fn recover(&self) -> KernelResult<usize> {
        self.log.recover(&self.sb)
    }

    fn stats(&self) -> JournalStats {
        self.log.stats()
    }

    fn read_block(&self, blockno: u64) -> KernelResult<Vec<u8>> {
        Ok(self.sb.bread(blockno)?.data().to_vec())
    }
}
