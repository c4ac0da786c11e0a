//! Latency / cost model for the simulated storage stack.
//!
//! The Bento paper's evaluation runs on an NVMe SSD (Samsung PM981) behind
//! the Linux block layer.  The performance differences it reports between
//! Bento, the in-kernel C baseline, and FUSE are driven by a small number of
//! mechanisms:
//!
//! 1. per-block device read/write latency and device bandwidth,
//! 2. the cost of a device cache FLUSH (issued on every xv6 log commit),
//! 3. the cost of a user/kernel boundary crossing (every FUSE request and
//!    every userspace `O_DIRECT` block I/O pays one), and
//! 4. the cost of syncing the *whole* backing disk file from userspace,
//!    because the file interface has no way to sync a sub-range (§6.4 of the
//!    paper).
//!
//! [`CostModel`] captures those parameters.  Devices and the FUSE simulation
//! charge costs by calling [`CostModel::charge`], which injects a real delay
//! (sleep for long waits, spin for short ones) so that wall-clock throughput
//! measured by the benchmark harness reflects the modelled hardware.  The
//! [`CostModel::zero`] preset disables all delays, which is what unit and
//! integration tests use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Categories of charged costs, used for accounting/statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CostKind {
    /// A block read from the device medium.
    DeviceRead,
    /// A block write into the device write cache.
    DeviceWrite,
    /// A device cache flush (FLUSH / FUA barrier).
    DeviceFlush,
    /// A user/kernel boundary crossing (syscall entry+exit).
    BoundaryCrossing,
    /// Copying payload bytes across the user/kernel boundary.
    BoundaryCopy,
    /// A FUSE request round trip (daemon wakeup + scheduling).
    FuseRoundTrip,
    /// fsync of the whole backing disk file from userspace.
    UserspaceWholeFileSync,
}

/// Running totals of charged costs, in nanoseconds and counts.
#[derive(Debug, Default)]
pub struct CostCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    crossings: AtomicU64,
    copies: AtomicU64,
    fuse_round_trips: AtomicU64,
    whole_file_syncs: AtomicU64,
    total_ns: AtomicU64,
}

/// A snapshot of [`CostCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Number of device block reads charged.
    pub reads: u64,
    /// Number of device block writes charged.
    pub writes: u64,
    /// Number of device flushes charged.
    pub flushes: u64,
    /// Number of user/kernel boundary crossings charged.
    pub crossings: u64,
    /// Number of payload copies across the user/kernel boundary charged.
    pub copies: u64,
    /// Number of FUSE round trips charged.
    pub fuse_round_trips: u64,
    /// Number of whole-file syncs charged.
    pub whole_file_syncs: u64,
    /// Total simulated nanoseconds charged.
    pub total_ns: u64,
}

/// The latency model applied by simulated devices and boundaries.
///
/// All values are in nanoseconds.  Construct via [`CostModel::zero`] (tests)
/// or [`CostModel::nvme_ssd`] (benchmarks), or build a custom model with
/// struct-update syntax starting from one of the presets.
///
/// # Example
///
/// ```
/// use simkernel::cost::CostModel;
///
/// let fast = CostModel::zero();
/// assert_eq!(fast.block_read_ns, 0);
///
/// let custom = CostModel { block_read_ns: 10_000, ..CostModel::zero() };
/// assert_eq!(custom.block_read_ns, 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Latency of reading one block (4 KiB) from the device medium.
    pub block_read_ns: u64,
    /// Latency of writing one block (4 KiB) into the device write cache.
    pub block_write_ns: u64,
    /// Base latency of a device cache FLUSH command.
    pub flush_base_ns: u64,
    /// Additional FLUSH latency per block that was dirty in the device write
    /// cache when the flush was issued.
    pub flush_per_dirty_block_ns: u64,
    /// Latency of one user/kernel boundary crossing (the paper measures
    /// 200–400 ns added to each userspace block operation).
    pub crossing_ns: u64,
    /// Per-byte cost of copying payload across the user/kernel boundary.
    pub copy_per_byte_ns: u64,
    /// Fixed latency of a FUSE request round trip (daemon wakeup, context
    /// switches, request dispatch).
    pub fuse_round_trip_ns: u64,
    /// Base latency of fsync()ing the whole backing disk file from
    /// userspace (the FUSE baseline has no way to sync a sub-range).
    pub whole_file_sync_base_ns: u64,
    /// Additional whole-file-sync latency per block written since the last
    /// sync.
    pub whole_file_sync_per_block_ns: u64,
    /// Whether to actually inject wall-clock delays.  When `false` the model
    /// only does accounting (used by deterministic tests that still want to
    /// inspect counters).
    pub inject_delays: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::zero()
    }
}

impl CostModel {
    /// A model with every latency set to zero and delay injection disabled.
    ///
    /// This is the model used by unit and integration tests.
    pub fn zero() -> Self {
        CostModel {
            block_read_ns: 0,
            block_write_ns: 0,
            flush_base_ns: 0,
            flush_per_dirty_block_ns: 0,
            crossing_ns: 0,
            copy_per_byte_ns: 0,
            fuse_round_trip_ns: 0,
            whole_file_sync_base_ns: 0,
            whole_file_sync_per_block_ns: 0,
            inject_delays: false,
        }
    }

    /// A model calibrated to reproduce the *shape* of the paper's NVMe SSD
    /// results (see DESIGN.md §7 and EXPERIMENTS.md).
    ///
    /// * 4 KiB read ≈ 60 µs from the medium (reads are normally absorbed by
    ///   the page cache, as in the paper).
    /// * 4 KiB synchronous write ≈ 10 µs into the device write cache
    ///   (≈ 400 MB/s raw).
    /// * FLUSH ≈ 40 µs + 0.5 µs per dirty block — what every xv6 log commit
    ///   pays in the kernel.
    /// * boundary crossing ≈ 350 ns (paper: 200–400 ns per userspace block
    ///   operation).
    /// * FUSE round trip ≈ 15 µs (daemon wakeup and scheduling).
    /// * whole-disk-file fsync ≈ 12 ms + 15 µs per block written since the
    ///   last sync — what every xv6 log commit pays under FUSE (§6.4); the
    ///   disk file is the whole SSD partition, so its fsync is far more
    ///   expensive than the scoped FLUSH the kernel path issues.
    pub fn nvme_ssd() -> Self {
        CostModel {
            block_read_ns: 60_000,
            block_write_ns: 10_000,
            flush_base_ns: 40_000,
            flush_per_dirty_block_ns: 500,
            crossing_ns: 350,
            copy_per_byte_ns: 0,
            fuse_round_trip_ns: 15_000,
            whole_file_sync_base_ns: 12_000_000,
            whole_file_sync_per_block_ns: 15_000,
            inject_delays: true,
        }
    }

    /// A scaled-down version of [`CostModel::nvme_ssd`] for quick Criterion
    /// runs: identical ratios, every latency divided by `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.  A zero divisor is always a caller bug
    /// (it would previously be silently clamped to 1, hiding the mistake
    /// behind unscaled latencies).
    pub fn nvme_ssd_scaled(divisor: u64) -> Self {
        assert!(divisor != 0, "nvme_ssd_scaled: divisor must be nonzero");
        let d = divisor;
        let m = CostModel::nvme_ssd();
        CostModel {
            block_read_ns: m.block_read_ns / d,
            block_write_ns: m.block_write_ns / d,
            flush_base_ns: m.flush_base_ns / d,
            flush_per_dirty_block_ns: m.flush_per_dirty_block_ns / d,
            crossing_ns: m.crossing_ns / d,
            copy_per_byte_ns: m.copy_per_byte_ns / d,
            fuse_round_trip_ns: m.fuse_round_trip_ns / d,
            whole_file_sync_base_ns: m.whole_file_sync_base_ns / d,
            whole_file_sync_per_block_ns: m.whole_file_sync_per_block_ns / d,
            inject_delays: true,
        }
    }

    /// Charges `ns` nanoseconds of kind `kind`: records it in `counters` and
    /// (if `inject_delays` is set) injects a matching wall-clock delay.
    pub fn charge(&self, counters: &CostCounters, kind: CostKind, ns: u64) {
        counters.record(kind, ns);
        if self.inject_delays && ns > 0 {
            delay_ns(ns);
        }
    }
}

impl CostCounters {
    /// Creates a fresh set of counters.
    pub fn new() -> Self {
        CostCounters::default()
    }

    /// Records `ns` nanoseconds of kind `kind` without injecting any
    /// wall-clock delay ([`CostModel::charge`] adds the delay).
    pub fn record(&self, kind: CostKind, ns: u64) {
        match kind {
            CostKind::DeviceRead => self.reads.fetch_add(1, Ordering::Relaxed),
            CostKind::DeviceWrite => self.writes.fetch_add(1, Ordering::Relaxed),
            CostKind::DeviceFlush => self.flushes.fetch_add(1, Ordering::Relaxed),
            CostKind::BoundaryCrossing => self.crossings.fetch_add(1, Ordering::Relaxed),
            CostKind::BoundaryCopy => self.copies.fetch_add(1, Ordering::Relaxed),
            CostKind::FuseRoundTrip => self.fuse_round_trips.fetch_add(1, Ordering::Relaxed),
            CostKind::UserspaceWholeFileSync => {
                self.whole_file_syncs.fetch_add(1, Ordering::Relaxed)
            }
        };
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            crossings: self.crossings.load(Ordering::Relaxed),
            copies: self.copies.load(Ordering::Relaxed),
            fuse_round_trips: self.fuse_round_trips.load(Ordering::Relaxed),
            whole_file_syncs: self.whole_file_syncs.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
        self.crossings.store(0, Ordering::Relaxed);
        self.copies.store(0, Ordering::Relaxed);
        self.fuse_round_trips.store(0, Ordering::Relaxed);
        self.whole_file_syncs.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// Injects a wall-clock delay of approximately `ns` nanoseconds.
///
/// Delays of 100 µs or more use `thread::sleep` (so other simulated threads
/// can run); shorter delays spin on `Instant::now()` for precision.
pub fn delay_ns(ns: u64) {
    const SLEEP_THRESHOLD_NS: u64 = 100_000;
    let start = Instant::now();
    let target = Duration::from_nanos(ns);
    if ns >= SLEEP_THRESHOLD_NS {
        // Sleep slightly short of the target and spin the remainder.
        std::thread::sleep(Duration::from_nanos(ns - ns / 20));
    }
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_charges_only_accounting() {
        let model = CostModel::zero();
        let counters = CostCounters::new();
        model.charge(&counters, CostKind::DeviceWrite, 0);
        model.charge(&counters, CostKind::DeviceWrite, 0);
        model.charge(&counters, CostKind::DeviceFlush, 0);
        let snap = counters.snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.total_ns, 0);
    }

    #[test]
    fn nvme_model_has_sane_relationships() {
        let m = CostModel::nvme_ssd();
        // A whole-file sync must dwarf a normal flush: that is the FUSE story.
        assert!(m.whole_file_sync_base_ns > 10 * m.flush_base_ns);
        // Crossing cost matches the paper's 200-400ns measurement.
        assert!(m.crossing_ns >= 200 && m.crossing_ns <= 400);
        // Reads from the medium are slower than cached writes.
        assert!(m.block_read_ns > m.block_write_ns);
    }

    #[test]
    fn scaled_model_divides_latencies() {
        let m = CostModel::nvme_ssd();
        let s = CostModel::nvme_ssd_scaled(10);
        assert_eq!(s.block_read_ns, m.block_read_ns / 10);
        assert_eq!(s.whole_file_sync_base_ns, m.whole_file_sync_base_ns / 10);
    }

    #[test]
    fn delay_injection_waits_roughly_right() {
        let model = CostModel { inject_delays: true, ..CostModel::zero() };
        let counters = CostCounters::new();
        let start = Instant::now();
        model.charge(&counters, CostKind::DeviceRead, 200_000);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_micros(200), "elapsed {elapsed:?}");
        // Generous upper bound: scheduling noise on a loaded single core.
        assert!(elapsed < Duration::from_millis(100), "elapsed {elapsed:?}");
    }

    #[test]
    #[should_panic(expected = "divisor must be nonzero")]
    fn scaled_model_rejects_zero_divisor() {
        let _ = CostModel::nvme_ssd_scaled(0);
    }

    #[test]
    fn record_accounts_without_delay() {
        let counters = CostCounters::new();
        let start = Instant::now();
        counters.record(CostKind::DeviceWrite, 50_000_000);
        assert!(start.elapsed() < Duration::from_millis(40), "record must not sleep");
        let snap = counters.snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.total_ns, 50_000_000);
    }

    #[test]
    fn boundary_copies_are_counted() {
        let counters = CostCounters::new();
        let model = CostModel { copy_per_byte_ns: 2, ..CostModel::zero() };
        model.charge(&counters, CostKind::BoundaryCopy, 4096 * 2);
        model.charge(&counters, CostKind::BoundaryCopy, 0);
        let snap = counters.snapshot();
        assert_eq!(snap.copies, 2, "a zero-cost copy is still a copy");
        assert_eq!(snap.crossings, 0);
        assert_eq!(snap.total_ns, 4096 * 2);
    }

    #[test]
    fn counters_reset() {
        let counters = CostCounters::new();
        let model = CostModel::zero();
        model.charge(&counters, CostKind::BoundaryCrossing, 5);
        model.charge(&counters, CostKind::BoundaryCopy, 5);
        assert_eq!(counters.snapshot().crossings, 1);
        assert_eq!(counters.snapshot().copies, 1);
        counters.reset();
        assert_eq!(counters.snapshot(), CostSnapshot::default());
    }
}
