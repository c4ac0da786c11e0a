//! Batched commit epochs on the queued (multi-queue) device model, run
//! through the journal-generic harness so **every** log stack — the bare
//! journal and the xv6 core's log, which both xv6 bindings mount — faces
//! the same scenarios:
//!
//! * a deterministic scenario pinning where installs go: group *N*'s
//!   blocks reach their homes in the epoch of group *N + 3*, submitted
//!   with that group's payload ahead of its record, and in no earlier
//!   epoch; and
//! * an 8-thread stress run checking that the batched epochs never lose
//!   data, keep the barrier discipline (1 barrier per commit), keep more
//!   than one request in flight on average, and that `flush` drains the
//!   queues.

use std::sync::Arc;

use crashsim::logharness::{all_stacks, LogHandle, LogStack};
use crashsim::{Event, FaultConfig, FaultDevice};
use journal::REGIONS;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::queue::{MultiQueueDevice, QueueConfig};
use xv6fs::layout::{BSIZE, LOGSIZE};

const DISK_BLOCKS: u32 = 2048;
/// First home block past the log area the scenarios write.
const HOME: u64 = 1200;

/// A log on a queued NVMe-style device over `dev`.  `model` controls how
/// much wall-clock time barriers and writes cost.
fn setup_queued(
    stack: &dyn LogStack,
    dev: Arc<dyn BlockDevice>,
    model: CostModel,
    config: QueueConfig,
) -> (Arc<dyn LogHandle>, Arc<MultiQueueDevice>) {
    let mqd = Arc::new(MultiQueueDevice::new(dev, model, config));
    let log = stack.open(Arc::clone(&mqd) as Arc<dyn BlockDevice>, DISK_BLOCKS);
    (log, mqd)
}

fn write_block_via_log(log: &dyn LogHandle, blockno: u64, fill: u8) {
    log.begin_op();
    log.log_fill(blockno, fill).unwrap();
    log.end_op().unwrap();
}

#[test]
fn due_installs_share_a_later_commit_epoch_on_every_stack() {
    for stack in all_stacks() {
        let name = stack.name();
        let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS.into()));
        let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
        let (log, _mqd) = setup_queued(
            &*stack,
            Arc::clone(&recorder) as Arc<dyn BlockDevice>,
            CostModel::zero(),
            QueueConfig::new(2, 8),
        );
        let commits = REGIONS as u64 + 1;
        for i in 0..commits {
            write_block_via_log(&*log, HOME + i, 0xA0 + i as u8);
        }
        let stats = log.stats();
        assert_eq!((stats.commits, stats.barriers), (commits, commits), "{name}");
        assert_eq!(stats.installs, 2, "{name}: groups 0 and 1 fell due");

        let trace = recorder.trace();
        let log_area = 2..2 + LOGSIZE as u64;
        for (epoch, range) in trace.epochs().into_iter().take(commits as usize).enumerate() {
            let writes: Vec<u64> = trace.events[range]
                .iter()
                .map(|event| match event {
                    Event::Write { blockno, .. } => *blockno,
                    Event::Flush => unreachable!("epochs exclude flushes"),
                })
                .collect();
            let homes: Vec<u64> =
                writes.iter().copied().filter(|b| !log_area.contains(b)).collect();
            // Group N's epoch installs group N - 3's block, submitted ahead
            // of N's payload and record.
            let due = (epoch + 1).checked_sub(REGIONS).map(|group| HOME + group as u64);
            assert_eq!(homes, due.into_iter().collect::<Vec<_>>(), "{name}: epoch {epoch}");
            if due.is_some() {
                assert!(!log_area.contains(&writes[0]), "{name}: epoch {epoch}: {writes:?}");
                assert_eq!(writes.len(), 3, "{name}: install, payload, record");
            }
        }
        for i in 0..commits {
            let data = log.read_block(HOME + i).unwrap();
            assert!(data.iter().all(|&b| b == 0xA0 + i as u8), "{name}: block {i} lost");
        }
    }
}

#[test]
fn eight_thread_stress_overlap_preserves_data_and_flush_drains_on_every_stack() {
    // Slow enough that batched writes are still in flight when the next
    // one is submitted, fast enough for CI: a barrier costs ~400 µs, a
    // queued block write ~20 µs.
    let mut model = CostModel::zero();
    model.block_write_ns = 20_000;
    model.flush_base_ns = 400_000;
    model.inject_delays = true;
    for stack in all_stacks() {
        let name = stack.name();
        let ram: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS.into()));
        let (log, mqd) = setup_queued(&*stack, ram, model.clone(), QueueConfig::new(4, 32));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for round in 0..6u64 {
                    log.begin_op();
                    for i in 0..4u64 {
                        let blockno = HOME + t * 30 + round * 4 + i;
                        log.log_fill(blockno, fill_for(t, round, i)).unwrap();
                    }
                    log.end_op().unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        // fsync path: drains the forming group, any in-flight commit, and
        // every queued submission (the barrier inside the commit drains
        // the device queues).
        log.flush().unwrap();
        assert_eq!(mqd.counters().inflight_now(), 0, "{name}: flush left requests in flight");

        let stats = log.stats();
        assert!(stats.commits >= 1, "{name}");
        assert_eq!(
            stats.barriers, stats.commits,
            "{name}: stress broke the 1-barrier-per-commit discipline"
        );
        let depth = mqd.counters().snapshot();
        assert!(
            depth.mean_inflight() > 1.0,
            "{name}: batched epochs never overlapped requests (mean depth {:.2})",
            depth.mean_inflight()
        );
        for t in 0..8u64 {
            for round in 0..6u64 {
                for i in 0..4u64 {
                    let blockno = HOME + t * 30 + round * 4 + i;
                    let data = log.read_block(blockno).unwrap();
                    assert!(
                        data.iter().all(|&b| b == fill_for(t, round, i)),
                        "{name}: block {blockno} lost its committed data"
                    );
                }
            }
        }
    }
}

fn fill_for(t: u64, round: u64, i: u64) -> u8 {
    (t * 29 + round * 5 + i + 1) as u8
}
