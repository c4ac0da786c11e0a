//! Two-stage overlapped commit on the queued (multi-queue) device model,
//! run through the journal-generic harness so **every** log stack — the
//! bare journal and the xv6 core's log, which both xv6 bindings mount —
//! faces the same scenarios:
//!
//! * a deterministic two-thread scenario in which the committer prefetches
//!   the next group's stage-1 payload while its own installs are still in
//!   flight (`overlapped_commits` observes it), and
//! * an 8-thread stress run checking that staging group N+1 while group N
//!   installs never loses data, keeps the barrier discipline (1 barrier
//!   per commit), drives the device above queue depth 1, and that `flush`
//!   drains both stages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crashsim::logharness::{all_stacks, LogHandle, LogStack};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, DeviceStats};
use simkernel::error::KernelResult;
use simkernel::queue::{MultiQueueDevice, QueueConfig, QueuedBlockDevice};
use xv6fs::layout::BSIZE;

/// Passes everything through to the queued device, counting FLUSHes as
/// they are *entered* — the one instant of a commit the journal's own
/// counters cannot show, and the one the deterministic scenario keys on.
struct FlushProbe {
    inner: Arc<MultiQueueDevice>,
    entered: AtomicU64,
}

impl BlockDevice for FlushProbe {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        self.inner.read_block(blockno, buf)
    }

    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        self.inner.write_block(blockno, buf)
    }

    fn flush(&self) -> KernelResult<()> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        self.inner.flush()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn as_queued(&self) -> Option<&dyn QueuedBlockDevice> {
        self.inner.as_queued()
    }
}

/// A log on a queued NVMe-style device.  `model` controls how much
/// wall-clock time barriers and writes cost (that is what makes the
/// deterministic scenario deterministic).
fn setup_queued(
    stack: &dyn LogStack,
    model: CostModel,
    config: QueueConfig,
) -> (Arc<dyn LogHandle>, Arc<FlushProbe>) {
    let mqd = Arc::new(MultiQueueDevice::new(
        Arc::new(simkernel::dev::RamDisk::new(BSIZE as u32, 1024)),
        model,
        config,
    ));
    let probe = Arc::new(FlushProbe { inner: mqd, entered: AtomicU64::new(0) });
    let log = stack.open(Arc::clone(&probe) as Arc<dyn BlockDevice>, 1024);
    (log, probe)
}

fn write_block_via_log(log: &dyn LogHandle, blockno: u64, fill: u8) {
    log.begin_op();
    log.log_fill(blockno, fill).unwrap();
    log.end_op().unwrap();
}

/// One attempt at the deterministic overlap scenario.  Returns `true` when
/// the prefetch was observed.
///
/// Thread T commits group 0 on a device whose FLUSH takes ~25 ms of wall
/// time, so its commit spends ~25 ms inside its one barrier.  The main
/// thread waits for T to enter that barrier, then merges a second
/// operation; the in-flight commit keeps `end_op` from committing it, so
/// the group sits closed-able.  When T's barrier retires it reaches the
/// prefetch point, adopts the group, and batch-submits its payload while
/// running its own installs — `overlapped_commits` ticks.
fn overlap_attempt(stack: &dyn LogStack) -> bool {
    let name = stack.name();
    let mut model = CostModel::zero();
    model.flush_base_ns = 25_000_000;
    model.inject_delays = true;
    let (log, probe) = setup_queued(stack, model, QueueConfig::new(2, 8));

    let t = {
        let log = Arc::clone(&log);
        std::thread::spawn(move || write_block_via_log(&*log, 600, 0xAA))
    };
    // Once T is inside its commit barrier the main thread has ~25 ms to
    // stage the second group.
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.entered.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "{name}: first commit never reached its barrier");
        std::thread::sleep(Duration::from_millis(1));
    }
    write_block_via_log(&*log, 601, 0xBB);
    t.join().unwrap();

    let stats = log.stats();
    assert_eq!(stats.commits, 2, "{name}");
    assert_eq!(stats.barriers, stats.commits, "{name}: overlap must not add barriers");
    for (blockno, fill) in [(600u64, 0xAAu8), (601, 0xBB)] {
        let data = log.read_block(blockno).unwrap();
        assert!(data.iter().all(|&b| b == fill), "{name}: block {blockno} lost its committed data");
    }
    stats.overlapped_commits >= 1
}

#[test]
fn committer_prefetches_next_group_during_installs_on_every_stack() {
    for stack in all_stacks() {
        // The scenario loses its race only if the main thread needs more
        // than ~25 ms (a full commit barrier) to merge one operation;
        // retry a few times so scheduler noise cannot fail the build.
        let observed = (0..5).any(|_| overlap_attempt(&*stack));
        assert!(observed, "{}: no overlapped commit observed in 5 attempts", stack.name());
    }
}

#[test]
fn eight_thread_stress_overlap_preserves_data_and_flush_drains_on_every_stack() {
    // Slow enough that commits dwell in their barriers (so other threads'
    // groups pile up and get prefetched) but fast enough for CI: a barrier
    // costs ~400 µs, a queued block write ~20 µs.
    let mut model = CostModel::zero();
    model.block_write_ns = 20_000;
    model.flush_base_ns = 400_000;
    model.inject_delays = true;
    for stack in all_stacks() {
        let name = stack.name();
        let mut observed_overlap = false;
        for _attempt in 0..3 {
            let (log, probe) = setup_queued(&*stack, model.clone(), QueueConfig::new(4, 32));
            let mqd = &probe.inner;
            let mut handles = Vec::new();
            for t in 0..8u64 {
                let log = Arc::clone(&log);
                handles.push(std::thread::spawn(move || {
                    for round in 0..6u64 {
                        log.begin_op();
                        for i in 0..4u64 {
                            let blockno = 500 + t * 30 + round * 4 + i;
                            log.log_fill(blockno, fill_for(t, round, i)).unwrap();
                        }
                        log.end_op().unwrap();
                    }
                }));
            }
            for handle in handles {
                handle.join().unwrap();
            }
            // fsync path: drains the forming group, any in-flight commit,
            // and every queued submission (the barrier inside the commit
            // drains the device queues).
            log.flush().unwrap();
            assert_eq!(mqd.counters().inflight_now(), 0, "{name}: flush left requests in flight");

            let stats = log.stats();
            assert!(stats.commits >= 1, "{name}");
            assert_eq!(
                stats.barriers, stats.commits,
                "{name}: stress broke the 1-barrier-per-commit discipline"
            );
            assert!(stats.overlapped_commits <= stats.commits, "{name}");
            let depth = mqd.counters().snapshot();
            assert!(
                depth.max_inflight >= 2,
                "{name}: batched payload submission never overlapped requests (max depth {})",
                depth.max_inflight
            );
            for t in 0..8u64 {
                for round in 0..6u64 {
                    for i in 0..4u64 {
                        let blockno = 500 + t * 30 + round * 4 + i;
                        let data = log.read_block(blockno).unwrap();
                        assert!(
                            data.iter().all(|&b| b == fill_for(t, round, i)),
                            "{name}: block {blockno} lost its committed data"
                        );
                    }
                }
            }
            if stats.overlapped_commits >= 1 {
                observed_overlap = true;
                break;
            }
        }
        assert!(observed_overlap, "{name}: no overlapped commit observed in 3 stress runs");
    }
}

fn fill_for(t: u64, round: u64, i: u64) -> u8 {
    (t * 29 + round * 5 + i + 1) as u8
}
