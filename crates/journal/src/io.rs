//! The block-IO face the journal is parameterized over.
//!
//! [`crate::Journal`] contains the whole commit protocol but performs no
//! I/O of its own: every read, write, and barrier goes through
//! [`JournalIo`], so the same pipeline runs against the Bento `SuperBlock`
//! capability, the kernel `BufferCache`, or a bare block device (the
//! crash-contract tests mount it straight on crashsim's fault device via
//! [`DeviceIo`]).
//!
//! The trait distinguishes *cached* writes ([`JournalIo::write_block`],
//! used for commit records and recovery installs so a mounted cache stays
//! coherent) from *raw* writes ([`JournalIo::write_raw`], used for log
//! payload blocks — only recovery ever reads them back, so caching them
//! would evict useful blocks once per commit — and for installs, which
//! write the frozen committed copy so a newer, uncommitted cached copy
//! never reaches the home).  After an install the journal tells the cache
//! through [`JournalIo::installed`].

use std::sync::Arc;

use simkernel::dev::BlockDevice;
use simkernel::error::KernelResult;
use simkernel::queue::QueuedBlockDevice;

/// Block I/O as seen by the journal.  All methods operate on whole blocks
/// of the mounted device's block size ([`crate::record::BSIZE`] everywhere
/// in this workspace).
pub trait JournalIo {
    /// Reads block `blockno` into `out` (through the cache when there is
    /// one, so the journal sees the same bytes the file system does).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn read_block(&self, blockno: u64, out: &mut [u8]) -> KernelResult<()>;

    /// Writes `data` to block `blockno` *through the cache*: after this
    /// call a cached copy (if the backend keeps one) holds `data`.  Used
    /// for commit records and recovery installs.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn write_block(&self, blockno: u64, data: &[u8]) -> KernelResult<()>;

    /// Writes `data` to block `blockno` bypassing any cache.  Used for log
    /// payload blocks and installs (frozen snapshots that must not clobber
    /// a newer cached copy).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn write_raw(&self, blockno: u64, data: &[u8]) -> KernelResult<()>;

    /// The journal has just written `data` to home block `blockno` raw (an
    /// install).  If the backend caches `blockno` and the cached bytes
    /// equal `data`, the cached copy is clean now — the device holds it.
    /// A cached copy that differs belongs to a later operation and stays
    /// dirty for its own group.  Cacheless backends do nothing.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn installed(&self, blockno: u64, data: &[u8]) -> KernelResult<()>;

    /// Durability barrier: everything written before this call is on
    /// stable storage when it returns (device FLUSH; an fsync of the whole
    /// backing file on the userspace provider).  On a queued device the
    /// barrier also drains the submission queues.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn barrier(&self) -> KernelResult<()>;

    /// The multi-queue face of the underlying device, when it has one —
    /// enables batched submission of a commit's installs and payload.
    fn queued(&self) -> Option<&dyn QueuedBlockDevice>;
}

/// [`JournalIo`] over a bare block device — no cache, so cached and raw
/// writes coincide and [`JournalIo::installed`] has nothing to do.  Homes
/// are read through [`crate::Journal::read_home`], which serves a pending
/// install's committed copy.  This is how ext4sim and the crash-contract
/// tests run the journal.
#[derive(Clone)]
pub struct DeviceIo {
    dev: Arc<dyn BlockDevice>,
}

impl std::fmt::Debug for DeviceIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceIo").finish_non_exhaustive()
    }
}

impl DeviceIo {
    /// Wraps `dev`.
    pub fn new(dev: Arc<dyn BlockDevice>) -> Self {
        DeviceIo { dev }
    }

    /// The wrapped device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }
}

impl JournalIo for DeviceIo {
    fn read_block(&self, blockno: u64, out: &mut [u8]) -> KernelResult<()> {
        self.dev.read_block(blockno, out)
    }

    fn write_block(&self, blockno: u64, data: &[u8]) -> KernelResult<()> {
        self.dev.write_block(blockno, data)
    }

    fn write_raw(&self, blockno: u64, data: &[u8]) -> KernelResult<()> {
        self.dev.write_block(blockno, data)
    }

    fn installed(&self, _blockno: u64, _data: &[u8]) -> KernelResult<()> {
        Ok(())
    }

    fn barrier(&self) -> KernelResult<()> {
        self.dev.flush()
    }

    fn queued(&self) -> Option<&dyn QueuedBlockDevice> {
        self.dev.as_queued()
    }
}
