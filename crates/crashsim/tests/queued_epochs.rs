//! Crash enumeration through the queued (multi-queue) device model.
//!
//! The recording `FaultDevice` sits *under* the `MultiQueueDevice`, so a
//! queued submission is recorded at submission time and the queued device's
//! flush drains its queues before forwarding the FLUSH.  Two properties
//! follow, and both are checked here:
//!
//! * **epoch structure** — every batched payload write lands in the barrier
//!   epoch it was submitted in; crash enumeration therefore reorders queued
//!   writes only *within* a barrier epoch, exactly as for the synchronous
//!   device; and
//! * **end-to-end cleanliness** — full crash-test runs (fsck + durability
//!   oracles over sampled crash states) stay violation-free when the xv6
//!   stacks commit through the queued device with batched epochs of due
//!   installs and payload.

use std::sync::Arc;

use crashsim::{
    run_crash_test, CrashMode, CrashStack, CrashTestConfig, Event, FaultConfig, FaultDevice,
};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::queue::{MultiQueueDevice, QueueConfig, QueuedBlockDevice};

#[test]
fn queued_writes_are_recorded_in_their_submission_epoch() {
    let inner: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 256));
    let fault = Arc::new(FaultDevice::new(inner, FaultConfig::recorder(7)));
    let fault_dyn: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;
    let queued = MultiQueueDevice::new(fault_dyn, CostModel::zero(), QueueConfig::new(2, 8));

    let block = vec![0x5Au8; 4096];
    let q = 0;
    // Epoch 0: blocks 10, 11, 12 batch-submitted, then a barrier.
    queued.submit_write_batch(q, &[(10, &block), (11, &block), (12, &block)]).unwrap();
    queued.flush().unwrap();
    // Epoch 1: blocks 20, 21 submitted on different queues, then a barrier.
    queued.submit_write(0, 20, &block).unwrap();
    queued.submit_write(1, 21, &block).unwrap();
    queued.flush().unwrap();

    let trace = fault.trace();
    let epochs = trace.epochs();
    assert_eq!(trace.flush_count(), 2);
    assert_eq!(epochs.len(), 3, "two flushes split the trace into three epochs");
    let blocks_in = |range: std::ops::Range<usize>| -> Vec<u64> {
        trace.events[range]
            .iter()
            .filter_map(|e| match e {
                Event::Write { blockno, .. } => Some(*blockno),
                Event::Flush => None,
            })
            .collect()
    };
    assert_eq!(blocks_in(epochs[0].clone()), vec![10, 11, 12]);
    let mut second = blocks_in(epochs[1].clone());
    second.sort_unstable();
    assert_eq!(second, vec![20, 21]);
    assert!(blocks_in(epochs[2].clone()).is_empty(), "no writes after the last barrier");
}

fn assert_clean_queued(stack: CrashStack, seed: u64) {
    let cfg = CrashTestConfig {
        ops: 120,
        mode: CrashMode::Sampled { states: 96 },
        ..CrashTestConfig::standard(seed)
    }
    .with_queue_depth(8);
    let report = run_crash_test(stack, &cfg).unwrap();
    assert!(report.trace_epochs > 1, "queued run must still produce barrier epochs");
    assert!(
        report.is_clean(),
        "{stack:?} through the queued device: {} violations, e.g. {:#?}",
        report.violations_found,
        report.violations.iter().take(3).collect::<Vec<_>>()
    );
}

#[test]
fn bento_xv6_recovers_cleanly_through_the_queued_device() {
    assert_clean_queued(CrashStack::BentoXv6, 0x0B3_4EDA);
}

#[test]
fn vfs_xv6_recovers_cleanly_through_the_queued_device() {
    assert_clean_queued(CrashStack::VfsXv6, 0x0C6_4EDA);
}
