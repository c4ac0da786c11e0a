//! The block-IO face the journal is parameterized over.
//!
//! [`crate::Journal`] contains the whole commit protocol but performs no
//! I/O of its own: every read, write, and barrier goes through
//! [`JournalIo`], so the same pipeline runs against the Bento `SuperBlock`
//! capability, the kernel `BufferCache`, or a bare block device (the
//! crash-contract tests mount it straight on crashsim's fault device via
//! [`DeviceIo`]).
//!
//! The trait distinguishes *raw* writes ([`JournalIo::write_raw`]) from
//! *cached* ones ([`JournalIo::write_block`]).  Everything a commit or a
//! checkpoint writes is raw.  That covers the log area (payload blocks,
//! commit records and header clears): the journal reads it back only
//! straight from the medium ([`JournalIo::read_block`]), so caching it
//! would just evict useful blocks once per commit.  It covers installs
//! too, which write the frozen committed copy so a newer, uncommitted
//! cached copy never reaches the home.  The one cached write is
//! recovery's replay of a record to its homes, which a mounted cache must
//! see.  After an install the journal tells the cache through
//! [`JournalIo::installed`], handing it the very [`Block`] it installed,
//! so a cache that shared it can tell by identity alone whether its
//! buffer still holds those bytes.

use std::sync::Arc;

use simkernel::buffer::Block;
use simkernel::dev::BlockDevice;
use simkernel::error::KernelResult;

/// Block I/O as seen by the journal.  All methods operate on whole blocks
/// of the mounted device's block size ([`crate::record::BSIZE`] everywhere
/// in this workspace).
pub trait JournalIo {
    /// Reads block `blockno` into `out` as the medium holds it, putting
    /// nothing in a cache.  The journal reads its log area this way — a
    /// record and its payload at recovery, a header it is about to clear —
    /// and writes that area only raw, so a cache never holds a newer copy;
    /// a cacheless backend also serves [`crate::Journal::read_home`] with
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn read_block(&self, blockno: u64, out: &mut [u8]) -> KernelResult<()>;

    /// Writes `data` to block `blockno` *through the cache*: after this
    /// call a cached copy (if the backend keeps one) holds `data`.  Used
    /// only for recovery's installs, so the file system mounted over the
    /// cache reads the replayed bytes.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn write_block(&self, blockno: u64, data: &[u8]) -> KernelResult<()>;

    /// Writes a batch of `(blockno, data)` blocks bypassing any cache, as
    /// one [`BlockDevice::write_blocks`] call.  Used for an epoch's
    /// installs (frozen snapshots that must not clobber a newer cached
    /// copy) and log payload, for commit records and for header clears.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn write_raw(&self, writes: &[(u64, &[u8])]) -> KernelResult<()>;

    /// The journal has just written `block` to home block `blockno` raw
    /// (an install).  If the backend caches `blockno` and its buffer still
    /// holds this very block — the bytes it shared at `log_write`, never
    /// changed since (a change copies them first) — the cached copy is
    /// clean now: the device holds it.  The test is identity, not a byte
    /// compare: a buffer that changed since holds another block, belongs
    /// to a later operation and stays dirty for that operation's own group,
    /// even if its bytes happen to be equal again.  Cacheless backends do
    /// nothing.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn installed(&self, blockno: u64, block: &Block) -> KernelResult<()>;

    /// Durability barrier: everything written before this call is on
    /// stable storage when it returns (device FLUSH; an fsync of the whole
    /// backing file on the userspace provider).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn barrier(&self) -> KernelResult<()>;
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

    fn write_raw(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        self.dev.write_blocks(writes)
    }

    fn installed(&self, _blockno: u64, _block: &Block) -> KernelResult<()> {
        Ok(())
    }

    fn barrier(&self) -> KernelResult<()> {
        self.dev.flush()
    }
}
