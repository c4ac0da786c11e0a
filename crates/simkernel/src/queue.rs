//! Completion-based multi-queue block device (the NVMe model).
//!
//! [`crate::dev::SsdDevice`] charges every write synchronously: the calling
//! thread pays the full service latency before the call returns, so a log
//! commit that copies N payload blocks pays N × `block_write_ns` even though
//! a real NVMe drive would service those writes from its submission queues
//! concurrently.  [`MultiQueueDevice`] models that concurrency behind the
//! one [`BlockDevice`] interface: its [`BlockDevice::write_blocks`] submits
//! a batch without waiting for the service, while
//! [`BlockDevice::write_block`] stays a synchronous depth-1 write.
//!
//! * **Submission/completion queue pairs.**  The device has
//!   [`QueueConfig::num_queues`] independent queue pairs (real drivers
//!   allocate one pair per CPU); a batch goes to the calling thread's
//!   queue, a stable hash of its thread id.
//! * **Queue depth.**  Each pair admits up to [`QueueConfig::queue_depth`]
//!   outstanding requests; submission applies backpressure once the queue
//!   is full, exactly like ringing a full NVMe submission doorbell.
//! * **Overlapped cost charging.**  Each request's service time is charged
//!   against a per-queue set of parallel service channels (one per queue
//!   slot): a request completes at `max(now, earliest-free-channel) +
//!   block_write_ns` of *wall-clock* time, so a batch of B writes at depth D
//!   takes ≈ ⌈B/D⌉ service times instead of B — in-flight requests overlap
//!   instead of summing serially.  Accounting still records the full
//!   per-request service time in [`CostCounters`] (device busy time), and
//!   the in-flight depth gauge ([`CostCounters::io_submitted`]) makes the
//!   overlap observable even on a 1-CPU machine.
//! * **Interrupt-driven completion.**  Waiting for completions sleeps until
//!   the completion deadline, yielding the CPU like an IRQ-driven driver.
//!
//! **Write visibility and ordering.**  Submitted writes are stored through
//! to the inner device *at submission time*, in submission order — the
//! device's volatile write cache accepts the data immediately; only the
//! *latency* of the service is deferred to completion.  Reads therefore
//! always see submitted writes (read-your-writes, as with
//! [`crate::dev::SsdDevice`]), and a fault-injection recorder layered
//! *below* this device observes queued writes in submission order,
//! partitioned into the same barrier epochs a synchronous device would
//! produce: [`BlockDevice::flush`] drains every queue before flushing the
//! inner device, so no submitted write can cross a barrier.
//!
//! Durability is unchanged: nothing is durable until a flush, and a flush is
//! a full barrier (drain + inner FLUSH + flush cost proportional to dirty
//! blocks).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::cost::{CostCounters, CostKind, CostModel};
use crate::dev::{BlockDevice, DeviceStats, RamDisk};
use crate::error::{Errno, KernelError, KernelResult};

/// Geometry of a [`MultiQueueDevice`].
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Number of submission/completion queue pairs.
    pub num_queues: usize,
    /// Outstanding requests admitted per queue pair before submission
    /// blocks (and the service parallelism each pair enjoys).
    pub queue_depth: usize,
}

impl QueueConfig {
    /// A config with `num_queues` pairs of depth `queue_depth`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(num_queues: usize, queue_depth: usize) -> Self {
        assert!(num_queues > 0, "QueueConfig: num_queues must be nonzero");
        assert!(queue_depth > 0, "QueueConfig: queue_depth must be nonzero");
        QueueConfig { num_queues, queue_depth }
    }
}

impl Default for QueueConfig {
    /// Four queue pairs of depth 32.
    fn default() -> Self {
        QueueConfig::new(4, 32)
    }
}

/// Mutable state of one queue pair.
#[derive(Debug)]
struct QueueState {
    /// Busy-until instant of each parallel service channel (one per queue
    /// slot); a new request starts on the earliest-free channel.
    channels: Vec<Instant>,
    /// Completion deadlines of the requests in flight.
    inflight: Vec<Instant>,
}

#[derive(Debug)]
struct QueuePair {
    state: Mutex<QueueState>,
}

#[derive(Debug, Default)]
struct QueueDevStats {
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
}

/// A latency-modelled NVMe-style device with submission/completion queue
/// pairs (see the module docs for the model).
pub struct MultiQueueDevice {
    inner: Arc<dyn BlockDevice>,
    model: CostModel,
    config: QueueConfig,
    counters: Arc<CostCounters>,
    queues: Vec<QueuePair>,
    dirty_since_flush: AtomicU64,
    stats: QueueDevStats,
}

impl std::fmt::Debug for MultiQueueDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiQueueDevice")
            .field("num_blocks", &self.inner.num_blocks())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl MultiQueueDevice {
    /// Wraps `inner` with latency model `model` and queue geometry `config`.
    pub fn new(inner: Arc<dyn BlockDevice>, model: CostModel, config: QueueConfig) -> Self {
        let now = Instant::now();
        let queues = (0..config.num_queues)
            .map(|_| QueuePair {
                state: Mutex::new(QueueState {
                    channels: vec![now; config.queue_depth],
                    inflight: Vec::with_capacity(config.queue_depth),
                }),
            })
            .collect();
        MultiQueueDevice {
            inner,
            model,
            config,
            counters: Arc::new(CostCounters::new()),
            queues,
            dirty_since_flush: AtomicU64::new(0),
            stats: QueueDevStats::default(),
        }
    }

    /// Convenience constructor: a RAM-backed queued device of `num_blocks`
    /// 4 KiB blocks.
    pub fn ram_backed(num_blocks: u64, model: CostModel, config: QueueConfig) -> Self {
        MultiQueueDevice::new(Arc::new(RamDisk::new(4096, num_blocks)), model, config)
    }

    /// The cost counters shared with the model.
    pub fn counters(&self) -> Arc<CostCounters> {
        Arc::clone(&self.counters)
    }

    /// The latency model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The per-request service time used for virtual completion deadlines.
    /// With delay injection off (unit tests) every request completes
    /// immediately; accounting still records the modelled service time.
    fn service_ns(&self) -> u64 {
        if self.model.inject_delays {
            self.model.block_write_ns
        } else {
            0
        }
    }

    fn pair(&self, queue: usize) -> KernelResult<&QueuePair> {
        self.queues
            .get(queue)
            .ok_or_else(|| KernelError::with_context(Errno::Inval, "queue index out of range"))
    }

    /// Reaps finished requests under the queue lock, updating the depth
    /// gauge.
    fn reap_locked(&self, state: &mut QueueState) {
        let now = Instant::now();
        let before = state.inflight.len();
        state.inflight.retain(|&completes_at| completes_at > now);
        for _ in state.inflight.len()..before {
            self.counters.io_completed();
        }
    }

    /// The queue the calling thread submits to: a stable hash of the
    /// thread id, modelling per-CPU queue assignment.
    fn preferred_queue(&self) -> usize {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        (hasher.finish() as usize) % self.queues.len()
    }

    /// Submits a write of `data` to `blockno` on `pair` without waiting
    /// for the service latency.  The data is accepted by the device write
    /// cache immediately (reads see it); durability still requires a
    /// [`BlockDevice::flush`].  Blocks only when the queue is at
    /// [`QueueConfig::queue_depth`] outstanding requests.
    fn submit(&self, pair: &QueuePair, blockno: u64, data: &[u8]) -> KernelResult<()> {
        // Submission covers the store-through plus any full-queue
        // backpressure wait — both are device time to the submitting op.
        let _io = crate::trace::phase(crate::trace::Phase::DevIo);
        // Store through at submission time: the write cache accepts the
        // data now (and a recorder below sees submission order); only the
        // service latency is deferred to completion.
        self.inner.write_block(blockno, data)?;
        self.dirty_since_flush.fetch_add(1, Ordering::Relaxed);
        self.counters.record(CostKind::DeviceWrite, self.model.block_write_ns);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        let service = std::time::Duration::from_nanos(self.service_ns());
        loop {
            let mut state = pair.state.lock();
            self.reap_locked(&mut state);
            if state.inflight.len() < self.config.queue_depth {
                let now = Instant::now();
                // Earliest-free service channel.
                let (slot, busy_until) = state
                    .channels
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, t)| t)
                    .expect("queue_depth is nonzero");
                let completes_at = busy_until.max(now) + service;
                state.channels[slot] = completes_at;
                state.inflight.push(completes_at);
                self.counters.io_submitted();
                return Ok(());
            }
            // Queue full: completions are purely time-driven, so waiting
            // until the earliest deadline is guaranteed to free a slot.
            let earliest = state.inflight.iter().copied().min().expect("full queue is nonempty");
            drop(state);
            Self::wait_until(earliest);
        }
    }

    /// Waits (sleeping) until every outstanding request on `queue` has
    /// completed.
    fn drain_queue(&self, queue: usize) -> KernelResult<()> {
        let _io = crate::trace::phase(crate::trace::Phase::DevIo);
        let pair = self.pair(queue)?;
        loop {
            let deadline = {
                let mut state = pair.state.lock();
                self.reap_locked(&mut state);
                match state.inflight.iter().copied().max() {
                    None => return Ok(()),
                    Some(deadline) => deadline,
                }
            };
            Self::wait_until(deadline);
        }
    }

    /// Sleeps until `deadline`, as an interrupt-driven driver would.
    fn wait_until(deadline: Instant) {
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }
}

impl BlockDevice for MultiQueueDevice {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        // Reads are synchronous (a buffer-cache miss blocks the caller on a
        // real drive too).
        let _io = crate::trace::phase(crate::trace::Phase::DevIo);
        self.inner.read_block(blockno, buf)?;
        self.model.charge(&self.counters, CostKind::DeviceRead, self.model.block_read_ns);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        // The synchronous path behaves exactly like SsdDevice (depth-1
        // service), so non-batched writers see identical costs on both
        // device models; only a batch (`write_blocks`) overlaps.
        let _io = crate::trace::phase(crate::trace::Phase::DevIo);
        self.inner.write_block(blockno, buf)?;
        self.dirty_since_flush.fetch_add(1, Ordering::Relaxed);
        self.counters.io_submitted();
        self.model.charge(&self.counters, CostKind::DeviceWrite, self.model.block_write_ns);
        self.counters.io_completed();
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_blocks(&self, writes: &[(u64, &[u8])]) -> KernelResult<()> {
        // One doorbell ring for the lot, on the caller's queue; the next
        // flush drains it.
        let pair = &self.queues[self.preferred_queue()];
        for &(blockno, data) in writes {
            self.submit(pair, blockno, data)?;
        }
        Ok(())
    }

    fn flush(&self) -> KernelResult<()> {
        // A barrier drains every queue pair first: no submitted write may
        // cross a FLUSH, which is what keeps crashsim's barrier-epoch
        // partitioning sound on queued devices.
        let _io = crate::trace::phase(crate::trace::Phase::DevIo);
        for queue in 0..self.queues.len() {
            self.drain_queue(queue)?;
        }
        self.inner.flush()?;
        let dirty = self.dirty_since_flush.swap(0, Ordering::Relaxed);
        let cost = self.model.flush_base_ns + dirty * self.model.flush_per_dirty_block_ns;
        self.model.charge(&self.counters, CostKind::DeviceFlush, cost);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        DeviceStats {
            reads: self.stats.reads.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pattern(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    fn zero_dev(depth: usize) -> MultiQueueDevice {
        MultiQueueDevice::ram_backed(128, CostModel::zero(), QueueConfig::new(2, depth))
    }

    #[test]
    fn submitted_writes_are_immediately_readable() {
        let dev = zero_dev(8);
        dev.write_blocks(&[(5, &pattern(0xAA))]).unwrap();
        let mut buf = vec![0u8; 4096];
        dev.read_block(5, &mut buf).unwrap();
        assert_eq!(buf, pattern(0xAA), "read-your-writes across submission");
        dev.flush().unwrap();
    }

    #[test]
    fn batch_submission_stores_and_counts_every_write() {
        let dev = zero_dev(8);
        let a = pattern(1);
        let b = pattern(2);
        dev.write_blocks(&[(10, &a), (11, &b)]).unwrap();
        dev.flush().unwrap();
        let snap = dev.counters().snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(dev.stats().writes, 2);
        assert!(snap.max_inflight >= 1);
        let mut buf = vec![0u8; 4096];
        for (blockno, data) in [(10, &a), (11, &b)] {
            dev.read_block(blockno, &mut buf).unwrap();
            assert_eq!(&buf, data, "block {blockno}");
        }
    }

    #[test]
    fn flush_drains_all_queues_and_charges_dirty_cost() {
        let model = CostModel {
            flush_base_ns: 100,
            flush_per_dirty_block_ns: 10,
            inject_delays: false,
            ..CostModel::zero()
        };
        let dev = Arc::new(MultiQueueDevice::ram_backed(64, model, QueueConfig::new(2, 4)));
        // Batches from two threads, plus a synchronous write.
        std::thread::scope(|s| {
            for blockno in [1u64, 2] {
                let dev = &dev;
                s.spawn(move || dev.write_blocks(&[(blockno, &pattern(blockno as u8))]).unwrap());
            }
        });
        dev.write_block(3, &pattern(3)).unwrap();
        assert!(dev.counters().inflight_now() >= 1, "a batch is still in flight");
        dev.flush().unwrap();
        let snap = dev.counters().snapshot();
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.total_ns, 100 + 3 * 10);
        assert_eq!(dev.counters().inflight_now(), 0, "flush drained every queue");
    }

    #[test]
    fn depth_overlaps_service_time() {
        // 8 writes of 2 ms each: serial cost 16 ms, depth-8 cost ≈ 2 ms.
        // Assert the overlapped wall clock stays well under half serial.
        let model =
            CostModel { block_write_ns: 2_000_000, inject_delays: true, ..CostModel::zero() };
        let dev = MultiQueueDevice::ram_backed(64, model, QueueConfig::new(1, 8));
        let data = pattern(7);
        let writes: Vec<(u64, &[u8])> = (0..8u64).map(|i| (i, data.as_slice())).collect();
        let start = Instant::now();
        dev.write_blocks(&writes).unwrap();
        dev.drain_queue(0).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(2), "service time still paid: {elapsed:?}");
        assert!(elapsed < Duration::from_millis(8), "depth-8 batch must overlap: {elapsed:?}");
        let snap = dev.counters().snapshot();
        assert_eq!(snap.max_inflight, 8, "all eight in flight at once");
        assert_eq!(snap.total_ns, 8 * 2_000_000, "busy time accounts every request");
    }

    #[test]
    fn queue_depth_one_serializes() {
        let model =
            CostModel { block_write_ns: 1_000_000, inject_delays: true, ..CostModel::zero() };
        let dev = MultiQueueDevice::ram_backed(64, model, QueueConfig::new(1, 1));
        let data = pattern(9);
        let writes: Vec<(u64, &[u8])> = (0..4u64).map(|i| (i, data.as_slice())).collect();
        let start = Instant::now();
        dev.write_blocks(&writes).unwrap();
        dev.drain_queue(0).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(4), "depth 1 sums serially: {elapsed:?}");
        assert_eq!(dev.counters().snapshot().max_inflight, 1);
    }

    #[test]
    fn finished_requests_are_reaped_at_the_next_submission() {
        let dev = MultiQueueDevice::ram_backed(128, CostModel::zero(), QueueConfig::new(1, 4));
        // Zero model: a request is finished as soon as it is submitted, but
        // it leaves the queue (and the depth gauge) only when reaped — here
        // by the next submission looking for a slot, then by the flush.
        dev.write_blocks(&[(1, &pattern(1))]).unwrap();
        assert_eq!(dev.counters().inflight_now(), 1);
        dev.write_blocks(&[(2, &pattern(2))]).unwrap();
        assert_eq!(dev.counters().inflight_now(), 1, "the first request was reaped");
        assert_eq!(dev.counters().snapshot().max_inflight, 1);
        dev.flush().unwrap();
        assert_eq!(dev.counters().inflight_now(), 0);
    }

    #[test]
    fn invalid_queue_and_block_are_rejected() {
        let dev = zero_dev(4);
        let err = dev.write_blocks(&[(10_000, &pattern(0))]).unwrap_err();
        assert_eq!(err.errno(), Errno::Inval);
        assert_eq!(dev.counters().inflight_now(), 0, "a rejected write is never queued");
        assert_eq!(dev.drain_queue(9).unwrap_err().errno(), Errno::Inval);
    }

    #[test]
    fn a_batch_through_the_block_device_trait_overlaps() {
        // The journal sees only `dyn BlockDevice`: its batch must reach the
        // queued submission path (overlapped, on the caller's queue), while
        // a RamDisk runs the same call as serial writes.
        let model =
            CostModel { block_write_ns: 20_000_000, inject_delays: true, ..CostModel::zero() };
        let mqd = Arc::new(MultiQueueDevice::ram_backed(64, model, QueueConfig::new(2, 4)));
        assert!(mqd.preferred_queue() < 2);
        let dev: Arc<dyn BlockDevice> = Arc::clone(&mqd) as Arc<dyn BlockDevice>;
        let data = pattern(4);
        let writes: Vec<(u64, &[u8])> = (0..4u64).map(|i| (i, data.as_slice())).collect();
        dev.write_blocks(&writes).unwrap();
        assert_eq!(mqd.counters().snapshot().max_inflight, 4, "the batch overlapped");
        dev.flush().unwrap();
        let ram: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 8));
        ram.write_blocks(&writes).unwrap();
        assert_eq!(ram.stats().writes, 4);
    }

    #[test]
    fn backpressure_blocks_at_queue_depth() {
        let model =
            CostModel { block_write_ns: 1_000_000, inject_delays: true, ..CostModel::zero() };
        let dev = MultiQueueDevice::ram_backed(64, model, QueueConfig::new(1, 2));
        let data = pattern(3);
        let start = Instant::now();
        // Third submit must wait for a slot (~1 ms).
        dev.write_blocks(&[(0, &data), (1, &data), (2, &data)]).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(1), "backpressure applied");
        assert!(dev.counters().snapshot().max_inflight <= 2);
        dev.drain_queue(0).unwrap();
    }
}
