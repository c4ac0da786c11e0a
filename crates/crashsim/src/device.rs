//! The fault-injection device and crash-image block devices.
//!
//! [`FaultDevice`] wraps any [`BlockDevice`] and records the full write
//! stream partitioned into *barrier epochs* (runs of writes delimited by
//! [`BlockDevice::flush`]).  The recorded [`WriteTrace`] is what the crash
//! enumeration (see [`crate::enumerate`]) replays.  Driven by a seeded RNG,
//! the device can additionally inject live failures — torn
//! sector-granularity writes, silently dropped writes, write-cache
//! reordering within an epoch, transient `EIO`, and a hard
//! disconnect-after-op-N — so error-path behaviour is testable too.  Every
//! injected failure derives from [`FaultConfig::seed`], so any run is
//! replayable from its seed.
//!
//! [`DiskImage`] snapshots a device's full contents, and [`SnapshotDisk`]
//! layers a frozen crash overlay plus a private write layer on top of a
//! shared image — materializing one crash state costs a map clone, not a
//! disk copy, which is what makes enumerating thousands of states cheap.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use simkernel::dev::{BlockDevice, DeviceStats};
use simkernel::error::{Errno, KernelError, KernelResult};

/// Sector size used for torn-write granularity (one 4 KiB block is eight
/// 512-byte sectors, each of which persists atomically on real hardware).
pub const SECTOR_SIZE: usize = 512;

/// One recorded device event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A block write as issued by the file system.
    Write {
        /// Destination block.
        blockno: u64,
        /// The full block contents that were written.
        data: Vec<u8>,
    },
    /// A FLUSH barrier (ends the current epoch).
    Flush,
}

/// The recorded write/flush history of a [`FaultDevice`].
#[derive(Debug, Clone, Default)]
pub struct WriteTrace {
    /// Events in issue order.
    pub events: Vec<Event>,
}

impl WriteTrace {
    /// Number of write events in the trace.
    pub fn write_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, Event::Write { .. })).count()
    }

    /// Number of flush barriers in the trace.
    pub fn flush_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, Event::Flush)).count()
    }

    /// The barrier epochs: for each epoch, the index range of its events
    /// (flush events excluded).  The final epoch is the open tail after the
    /// last flush; a trace with `F` flushes has `F + 1` epochs.
    pub fn epochs(&self) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let mut start = 0usize;
        for (i, event) in self.events.iter().enumerate() {
            if matches!(event, Event::Flush) {
                out.push(start..i);
                start = i + 1;
            }
        }
        out.push(start..self.events.len());
        out
    }
}

/// What (and how often) a [`FaultDevice`] injects; all probabilities are in
/// `[0, 1]` and every decision comes from the seeded RNG.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the injection RNG (the whole run replays from it).
    pub seed: u64,
    /// Probability a read fails with transient `EIO`.
    pub read_eio: f64,
    /// Probability a write fails with transient `EIO`.
    pub write_eio: f64,
    /// Probability a write is torn: only a random non-empty strict subset
    /// of its eight sectors reaches the medium.
    pub torn_write: f64,
    /// Probability a write is silently dropped.
    pub drop_write: f64,
    /// When true, writes buffer in a volatile cache and reach the inner
    /// device in shuffled order at the next flush (reads still see the
    /// cached data) — live intra-epoch reordering.
    pub reorder: bool,
    /// Hard disconnect: after this many operations every read, write and
    /// flush fails with `EIO`.
    pub disconnect_after_ops: Option<u64>,
}

impl FaultConfig {
    /// A pure recorder: no live injection, just the trace.  This is what
    /// the crash-state enumeration uses (the adversarial part happens when
    /// the trace is replayed, not while the workload runs).
    pub fn recorder(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_eio: 0.0,
            write_eio: 0.0,
            torn_write: 0.0,
            drop_write: 0.0,
            reorder: false,
            disconnect_after_ops: None,
        }
    }
}

/// Counters describing what a [`FaultDevice`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads failed with transient `EIO`.
    pub read_errors: u64,
    /// Writes failed with transient `EIO`.
    pub write_errors: u64,
    /// Writes torn (partial sector subset applied).
    pub torn_writes: u64,
    /// Writes silently dropped.
    pub dropped_writes: u64,
    /// Operations rejected after the disconnect tripped.
    pub rejected_after_disconnect: u64,
}

#[derive(Debug, Default)]
struct FaultCells {
    read_errors: AtomicU64,
    write_errors: AtomicU64,
    torn_writes: AtomicU64,
    dropped_writes: AtomicU64,
    rejected: AtomicU64,
}

/// A recording, fault-injecting wrapper over any block device.
pub struct FaultDevice {
    inner: Arc<dyn BlockDevice>,
    config: FaultConfig,
    /// Live transient-EIO probabilities (f64 bits).  Kept outside `config`
    /// so scenario hooks can flip injection on and off mid-run
    /// ([`FaultDevice::set_transient_eio`]) while a workload is driving the
    /// device from other threads.
    read_eio_bits: AtomicU64,
    write_eio_bits: AtomicU64,
    rng: Mutex<SmallRng>,
    events: Mutex<Vec<Event>>,
    /// Volatile write cache used in reorder mode: blockno → newest data.
    pending: Mutex<Vec<(u64, Vec<u8>)>>,
    ops: AtomicU64,
    disconnected: AtomicBool,
    /// When false, write/flush events are not recorded (long-running load
    /// scenarios only want live injection, not an ever-growing trace).
    trace_enabled: AtomicBool,
    cells: FaultCells,
}

impl std::fmt::Debug for FaultDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultDevice")
            .field("config", &self.config)
            .field("events", &self.events.lock().len())
            .finish_non_exhaustive()
    }
}

impl FaultDevice {
    /// Wraps `inner` with injection behaviour `config`.
    pub fn new(inner: Arc<dyn BlockDevice>, config: FaultConfig) -> Self {
        FaultDevice {
            inner,
            rng: Mutex::new(SmallRng::seed_from_u64(config.seed)),
            read_eio_bits: AtomicU64::new(config.read_eio.to_bits()),
            write_eio_bits: AtomicU64::new(config.write_eio.to_bits()),
            config,
            events: Mutex::new(Vec::new()),
            pending: Mutex::new(Vec::new()),
            ops: AtomicU64::new(0),
            disconnected: AtomicBool::new(false),
            trace_enabled: AtomicBool::new(true),
            cells: FaultCells::default(),
        }
    }

    /// Enables or disables trace recording.  Crash enumeration needs the
    /// trace; live load scenarios disable it so memory stays bounded over
    /// millions of writes.
    pub fn set_trace_enabled(&self, enabled: bool) {
        self.trace_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Retunes the transient-EIO probabilities while the device is live.
    ///
    /// This is the mid-run fault scenario hook: a load generator mounts a
    /// stack over a quiet recorder device, flips EIO injection on for a
    /// window under traffic, and off again — measuring how many operations
    /// the stack fails (and that it keeps serving afterwards) without
    /// remounting.  Probabilities are clamped to `[0, 1]`.
    pub fn set_transient_eio(&self, read_p: f64, write_p: f64) {
        self.read_eio_bits.store(read_p.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
        self.write_eio_bits.store(write_p.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    /// A clone of the recorded trace so far.
    pub fn trace(&self) -> WriteTrace {
        WriteTrace { events: self.events.lock().clone() }
    }

    /// Number of recorded events so far (writes + flushes).
    pub fn event_count(&self) -> usize {
        self.events.lock().len()
    }

    /// Number of leading events the device has made durable: everything up
    /// to and including the last FLUSH.  Workload drivers record this at
    /// fsync completion so the enumeration can tell which durability points
    /// a given crash state honours — an acknowledged fsync can only rest on
    /// barriers already issued, so writes trailing the last one (a journal
    /// commit's unflushed installs) must be allowed to vanish.
    pub fn durable_event_count(&self) -> usize {
        let events = self.events.lock();
        events.iter().rposition(|e| matches!(e, Event::Flush)).map_or(0, |i| i + 1)
    }

    /// Injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            read_errors: self.cells.read_errors.load(Ordering::Relaxed),
            write_errors: self.cells.write_errors.load(Ordering::Relaxed),
            torn_writes: self.cells.torn_writes.load(Ordering::Relaxed),
            dropped_writes: self.cells.dropped_writes.load(Ordering::Relaxed),
            rejected_after_disconnect: self.cells.rejected.load(Ordering::Relaxed),
        }
    }

    /// Whether the hard disconnect has tripped.
    pub fn disconnected(&self) -> bool {
        self.disconnected.load(Ordering::Relaxed)
    }

    /// Counts one operation; errors if the device has disconnected.
    fn gate(&self) -> KernelResult<()> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if let Some(limit) = self.config.disconnect_after_ops {
            if op >= limit {
                self.disconnected.store(true, Ordering::Relaxed);
            }
        }
        if self.disconnected.load(Ordering::Relaxed) {
            self.cells.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(KernelError::with_context(Errno::Io, "crashsim: device disconnected"));
        }
        Ok(())
    }

    fn chance(&self, p: f64) -> bool {
        p > 0.0 && self.rng.lock().gen::<f64>() < p
    }
}

/// Overlays a random non-empty strict subset of `new`'s sectors onto
/// `current`, returning the torn result and the number of sectors applied.
/// A write of one sector (or less) cannot be torn — sectors persist
/// atomically — so it is applied whole.
pub(crate) fn tear(current: &[u8], new: &[u8], rng: &mut SmallRng) -> (Vec<u8>, usize) {
    let sectors = new.len().div_ceil(SECTOR_SIZE);
    if sectors <= 1 {
        return (new.to_vec(), sectors);
    }
    let mut out = current.to_vec();
    let mut applied = 0usize;
    loop {
        for s in 0..sectors {
            if rng.gen::<bool>() {
                let lo = s * SECTOR_SIZE;
                let hi = ((s + 1) * SECTOR_SIZE).min(new.len());
                out[lo..hi].copy_from_slice(&new[lo..hi]);
                applied += 1;
            }
        }
        // A tear that applies everything (or nothing) is not a tear; retry
        // until the subset is proper.  With eight sectors this terminates
        // almost immediately.
        if applied > 0 && applied < sectors {
            return (out, applied);
        }
        out.copy_from_slice(current);
        applied = 0;
    }
}

impl BlockDevice for FaultDevice {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        self.gate()?;
        if self.chance(f64::from_bits(self.read_eio_bits.load(Ordering::Relaxed))) {
            self.cells.read_errors.fetch_add(1, Ordering::Relaxed);
            return Err(KernelError::with_context(Errno::Io, "crashsim: injected read error"));
        }
        if self.config.reorder {
            let pending = self.pending.lock();
            if let Some((_, data)) = pending.iter().rev().find(|(b, _)| *b == blockno) {
                buf.copy_from_slice(data);
                return Ok(());
            }
        }
        self.inner.read_block(blockno, buf)
    }

    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        self.gate()?;
        if self.chance(f64::from_bits(self.write_eio_bits.load(Ordering::Relaxed))) {
            self.cells.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(KernelError::with_context(Errno::Io, "crashsim: injected write error"));
        }
        // The trace records what the file system *issued*; live injections
        // below only affect what reaches the medium.
        if self.trace_enabled.load(Ordering::Relaxed) {
            self.events.lock().push(Event::Write { blockno, data: buf.to_vec() });
        }
        if self.chance(self.config.drop_write) {
            self.cells.dropped_writes.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let effective = if self.chance(self.config.torn_write) {
            // Tear against the *visible* current content — in reorder mode
            // that is the newest pending copy, not the stale inner block —
            // and route the torn result through the same path as any other
            // write so later same-block writes still win at the drain.
            let mut current = vec![0u8; buf.len()];
            let from_pending = if self.config.reorder {
                let pending = self.pending.lock();
                match pending.iter().rev().find(|(b, _)| *b == blockno) {
                    Some((_, data)) => {
                        current.copy_from_slice(data);
                        true
                    }
                    None => false,
                }
            } else {
                false
            };
            if !from_pending {
                self.inner.read_block(blockno, &mut current)?;
            }
            let (torn, _) = tear(&current, buf, &mut self.rng.lock());
            self.cells.torn_writes.fetch_add(1, Ordering::Relaxed);
            torn
        } else {
            buf.to_vec()
        };
        if self.config.reorder {
            self.pending.lock().push((blockno, effective));
            return Ok(());
        }
        self.inner.write_block(blockno, &effective)
    }

    fn flush(&self) -> KernelResult<()> {
        self.gate()?;
        if self.trace_enabled.load(Ordering::Relaxed) {
            self.events.lock().push(Event::Flush);
        }
        if self.config.reorder {
            let mut pending = std::mem::take(&mut *self.pending.lock());
            // Drain the volatile cache in shuffled order: legal for the
            // device contract (everything is durable once flush returns),
            // but later same-block writes must still win, so shuffle block
            // groups, not individual writes.
            let mut order: Vec<u64> = Vec::new();
            let mut newest: HashMap<u64, Vec<u8>> = HashMap::new();
            for (blockno, data) in pending.drain(..) {
                if newest.insert(blockno, data).is_none() {
                    order.push(blockno);
                }
            }
            let mut rng = self.rng.lock();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            drop(rng);
            for blockno in order {
                self.inner.write_block(blockno, &newest[&blockno])?;
            }
        }
        self.inner.flush()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

// ---------------------------------------------------------------------------
// Crash images
// ---------------------------------------------------------------------------

/// A full point-in-time copy of a device's contents (the pre-workload base
/// image the crash states are built on).
pub struct DiskImage {
    block_size: u32,
    blocks: Vec<Vec<u8>>,
}

impl std::fmt::Debug for DiskImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskImage").field("num_blocks", &self.blocks.len()).finish()
    }
}

impl DiskImage {
    /// Reads every block of `dev` into memory.
    ///
    /// # Errors
    ///
    /// Propagates device read errors.
    pub fn capture(dev: &Arc<dyn BlockDevice>) -> KernelResult<Self> {
        let block_size = dev.block_size();
        let mut blocks = Vec::with_capacity(dev.num_blocks() as usize);
        for blockno in 0..dev.num_blocks() {
            let mut buf = vec![0u8; block_size as usize];
            dev.read_block(blockno, &mut buf)?;
            blocks.push(buf);
        }
        Ok(DiskImage { block_size, blocks })
    }

    /// Number of blocks in the image.
    pub fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Contents of one block.
    ///
    /// # Panics
    ///
    /// Panics if `blockno` is out of range.
    pub fn block(&self, blockno: u64) -> &[u8] {
        &self.blocks[blockno as usize]
    }
}

/// A materialized crash state: a shared base image, a frozen overlay (the
/// subset of trace writes this state assumes reached the medium), and a
/// private write layer for whatever recovery does after "reboot".
pub struct SnapshotDisk {
    base: Arc<DiskImage>,
    frozen: HashMap<u64, Arc<Vec<u8>>>,
    writes: RwLock<HashMap<u64, Vec<u8>>>,
    reads: AtomicU64,
    write_count: AtomicU64,
    flushes: AtomicU64,
}

impl std::fmt::Debug for SnapshotDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotDisk").field("frozen", &self.frozen.len()).finish_non_exhaustive()
    }
}

impl SnapshotDisk {
    /// Builds a crash state from `base` plus the `frozen` overlay.
    pub fn new(base: Arc<DiskImage>, frozen: HashMap<u64, Arc<Vec<u8>>>) -> Self {
        SnapshotDisk {
            base,
            frozen,
            writes: RwLock::new(HashMap::new()),
            reads: AtomicU64::new(0),
            write_count: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    fn check(&self, blockno: u64, len: usize) -> KernelResult<()> {
        if len != self.base.block_size as usize {
            return Err(KernelError::with_context(Errno::Inval, "crashsim: bad buffer length"));
        }
        if blockno >= self.base.num_blocks() {
            return Err(KernelError::with_context(Errno::Inval, "crashsim: block out of range"));
        }
        Ok(())
    }
}

impl BlockDevice for SnapshotDisk {
    fn block_size(&self) -> u32 {
        self.base.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.base.num_blocks()
    }

    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        self.check(blockno, buf.len())?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(data) = self.writes.read().get(&blockno) {
            buf.copy_from_slice(data);
            return Ok(());
        }
        if let Some(data) = self.frozen.get(&blockno) {
            buf.copy_from_slice(data);
            return Ok(());
        }
        buf.copy_from_slice(&self.base.blocks[blockno as usize]);
        Ok(())
    }

    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        self.check(blockno, buf.len())?;
        self.write_count.fetch_add(1, Ordering::Relaxed);
        self.writes.write().insert(blockno, buf.to_vec());
        Ok(())
    }

    fn flush(&self) -> KernelResult<()> {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        DeviceStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.write_count.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    #[test]
    fn records_writes_partitioned_into_epochs() {
        let inner = Arc::new(RamDisk::new(4096, 32));
        let dev = FaultDevice::new(inner, FaultConfig::recorder(1));
        dev.write_block(1, &block(1)).unwrap();
        dev.write_block(2, &block(2)).unwrap();
        dev.flush().unwrap();
        dev.write_block(3, &block(3)).unwrap();
        let trace = dev.trace();
        assert_eq!(trace.write_count(), 3);
        assert_eq!(trace.flush_count(), 1);
        let epochs = trace.epochs();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].clone().count(), 2);
        assert_eq!(epochs[1].clone().count(), 1);
    }

    #[test]
    fn disconnect_after_n_ops_fails_everything() {
        let inner = Arc::new(RamDisk::new(4096, 32));
        let config = FaultConfig { disconnect_after_ops: Some(2), ..FaultConfig::recorder(7) };
        let dev = FaultDevice::new(inner, config);
        dev.write_block(0, &block(1)).unwrap();
        let mut buf = block(0);
        dev.read_block(0, &mut buf).unwrap();
        assert_eq!(dev.write_block(1, &block(2)).unwrap_err().errno(), Errno::Io);
        assert_eq!(dev.flush().unwrap_err().errno(), Errno::Io);
        assert!(dev.disconnected());
        assert!(dev.fault_stats().rejected_after_disconnect >= 2);
    }

    #[test]
    fn transient_eio_is_injected_at_the_configured_rate() {
        let inner = Arc::new(RamDisk::new(4096, 32));
        let config = FaultConfig { write_eio: 0.5, ..FaultConfig::recorder(3) };
        let dev = FaultDevice::new(inner, config);
        let mut failures = 0;
        for i in 0..100 {
            if dev.write_block(i % 32, &block(1)).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 20 && failures < 80, "got {failures} failures");
        assert_eq!(dev.fault_stats().write_errors, failures);
    }

    #[test]
    fn torn_writes_apply_a_strict_sector_subset() {
        let inner = Arc::new(RamDisk::new(4096, 8));
        let config = FaultConfig { torn_write: 1.0, ..FaultConfig::recorder(11) };
        let dev = FaultDevice::new(Arc::clone(&inner) as Arc<dyn BlockDevice>, config);
        dev.write_block(0, &block(0xAA)).unwrap();
        let mut buf = block(0);
        inner.read_block(0, &mut buf).unwrap();
        let new_sectors = buf.chunks(SECTOR_SIZE).filter(|s| s.iter().all(|&b| b == 0xAA)).count();
        assert!(new_sectors > 0 && new_sectors < 8, "tear must be partial: {new_sectors}");
        assert_eq!(dev.fault_stats().torn_writes, 1);
    }

    #[test]
    fn reorder_mode_keeps_read_your_writes_and_drains_at_flush() {
        let inner = Arc::new(RamDisk::new(4096, 8));
        let config = FaultConfig { reorder: true, ..FaultConfig::recorder(5) };
        let dev = FaultDevice::new(Arc::clone(&inner) as Arc<dyn BlockDevice>, config);
        dev.write_block(1, &block(1)).unwrap();
        dev.write_block(1, &block(2)).unwrap();
        dev.write_block(3, &block(3)).unwrap();
        let mut buf = block(0);
        dev.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 2, "reads see the cached write");
        inner.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "inner device untouched before flush");
        dev.flush().unwrap();
        inner.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 2, "newest same-block write wins after drain");
        inner.read_block(3, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
    }

    #[test]
    fn torn_writes_compose_with_the_reorder_cache() {
        // Torn writes must go through the volatile cache like any other
        // write: a later full write to the same block wins at the drain,
        // and reads see the torn data before it.
        let inner = Arc::new(RamDisk::new(4096, 8));
        let config = FaultConfig { reorder: true, torn_write: 1.0, ..FaultConfig::recorder(13) };
        let dev = FaultDevice::new(Arc::clone(&inner) as Arc<dyn BlockDevice>, config);
        dev.write_block(0, &block(0xAA)).unwrap(); // torn, into the cache
        let mut buf = block(0);
        dev.read_block(0, &mut buf).unwrap();
        let aa = buf.chunks(SECTOR_SIZE).filter(|s| s.iter().all(|&b| b == 0xAA)).count();
        assert!(aa > 0 && aa < 8, "read sees the torn cached data: {aa}");
        dev.write_block(0, &block(0xBB)).unwrap(); // torn again, over the cached copy
        dev.flush().unwrap();
        inner.read_block(0, &mut buf).unwrap();
        for (i, sector) in buf.chunks(SECTOR_SIZE).enumerate() {
            let fill = sector[0];
            assert!(
                (fill == 0xAA || fill == 0xBB || fill == 0) && sector.iter().all(|&b| b == fill),
                "sector {i} must be one whole version, got {fill:#x}"
            );
        }
        assert_eq!(dev.fault_stats().torn_writes, 2);
    }

    #[test]
    fn snapshot_disk_layers_overlay_over_base() {
        let ram: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 8));
        ram.write_block(0, &block(1)).unwrap();
        let image = Arc::new(DiskImage::capture(&ram).unwrap());
        let mut frozen = HashMap::new();
        frozen.insert(2u64, Arc::new(block(9)));
        let disk = SnapshotDisk::new(image, frozen);
        let mut buf = block(0);
        disk.read_block(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "base");
        disk.read_block(2, &mut buf).unwrap();
        assert_eq!(buf[0], 9, "frozen overlay");
        disk.write_block(0, &block(7)).unwrap();
        disk.read_block(0, &mut buf).unwrap();
        assert_eq!(buf[0], 7, "private write layer");
    }
}
