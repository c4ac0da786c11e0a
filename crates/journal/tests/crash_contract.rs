//! The journal-level crash contract, checked against the **bare**
//! [`Journal`] — no file system on top, just the journal over crashsim's
//! fault device.  Anything that fails here is a journal bug by
//! construction, not a stack bug; anything that passes here is inherited
//! by every stack, because the stacks are thin adapters.
//!
//! * exhaustive-prefix crash enumeration of a two-transaction conflict
//!   workload: every write-boundary crash must recover to an
//!   all-or-nothing, commit-ordered state,
//! * sampled subset/reorder/tear enumeration of the same workload on the
//!   multi-queue device (the batched stage-1 payload path),
//! * the **two-barrier protocol** over five consecutive commits (both
//!   regions reused twice): exhaustive prefixes and sampled states, on the
//!   synchronous and the queued device, against atomicity, ordering *and*
//!   durability oracles — and the enumeration must actually visit the
//!   states the deferred header clear makes new: record(N) on the medium
//!   without clear(N−1), clear(N−1) without record(N), and installs(N)
//!   partially applied under a durable record,
//! * the planted bug for the new ordering rule (clear(N−1) written before
//!   the payload barrier of N) is caught by the durability oracle,
//! * a multi-thread stress run with the flush/drain invariants: `flush`
//!   leaves nothing in flight, the barrier budget stays exactly 2 per
//!   commit, and every committed byte survives.

use std::sync::Arc;

use crashsim::{
    prefix_states, sampled_states, CrashState, DiskImage, Event, FaultConfig, FaultDevice,
    WriteTrace,
};
use journal::io::{DeviceIo, JournalIo};
use journal::record::{parse_head, BSIZE};
use journal::{Journal, JournalConfig, MAX_OP_BLOCKS};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::queue::{MultiQueueDevice, QueueConfig};

const LOG_BLOCKS: usize = 2 * (4 * MAX_OP_BLOCKS + 1);
const DISK_BLOCKS: u64 = 1024;

fn config() -> JournalConfig {
    JournalConfig::from_geometry(2, LOG_BLOCKS, LOG_BLOCKS, (2 + LOG_BLOCKS as u64, DISK_BLOCKS))
}

fn block_fill(io: &DeviceIo, blockno: u64) -> u8 {
    let mut buf = vec![0u8; BSIZE];
    io.read_block(blockno, &mut buf).unwrap();
    buf[0]
}

/// Runs the two-transaction conflict workload (tx1: 900=0xA1, 901=0xA2;
/// tx2: 900=0xB1, 902=0xB2) against `dev` and returns the journal.
fn conflict_workload(dev: Arc<dyn BlockDevice>) {
    let io = DeviceIo::new(dev);
    let journal = Journal::new(config());
    journal.begin_op();
    journal.log_write(900, &[0xA1; BSIZE]).unwrap();
    journal.log_write(901, &[0xA2; BSIZE]).unwrap();
    journal.end_op(&io).unwrap();
    journal.begin_op();
    journal.log_write(900, &[0xB1; BSIZE]).unwrap();
    journal.log_write(902, &[0xB2; BSIZE]).unwrap();
    journal.end_op(&io).unwrap();
}

/// Recovers one crash state with a fresh journal and asserts the contract:
/// committed-group atomicity, commit ordering, no resurrection on a second
/// recovery.
fn assert_contract(state: &crashsim::CrashState, what: &str) {
    let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
    let io = DeviceIo::new(disk);
    let journal = Journal::new(config());
    journal.recover(&io).unwrap();
    assert_eq!(journal.recover(&io).unwrap(), 0, "{what}: {}", state.description);

    let b900 = block_fill(&io, 900);
    let b901 = block_fill(&io, 901);
    let b902 = block_fill(&io, 902);
    let state = &state.description;
    let tx2_applied = b902 == 0xB2;
    let tx1_applied = b901 == 0xA2;
    if tx2_applied {
        assert!(tx1_applied, "{what}: {state}: tx2 visible without tx1 (commit order broken)");
        assert_eq!(b900, 0xB1, "{what}: {state}: tx2 partially applied");
    } else if tx1_applied {
        assert_eq!(b900, 0xA1, "{what}: {state}: tx1 partially applied");
        assert_eq!(b902, 0x00, "{what}: {state}: tx2 leaked without committing");
    } else {
        assert_eq!((b900, b901, b902), (0, 0, 0), "{what}: {state}: partial transaction visible");
    }
}

/// Exhaustive in-order prefixes on the synchronous device.
#[test]
fn every_write_prefix_crash_recovers_atomically() {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    conflict_workload(Arc::clone(&recorder) as Arc<dyn BlockDevice>);
    let trace = recorder.trace();
    assert_eq!(trace.flush_count(), 4, "two commits, two barriers each");
    for state in prefix_states(&trace, &image) {
        assert_contract(&state, "prefix");
    }
}

/// Sampled subset/reorder/tear states on the multi-queue device: the
/// batched stage-1 payload path must honor the same contract even when the
/// write cache reorders freely within a barrier epoch.
#[test]
fn sampled_queued_crashes_recover_atomically() {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let mqd: Arc<dyn BlockDevice> = Arc::new(MultiQueueDevice::new(
        Arc::clone(&recorder) as Arc<dyn BlockDevice>,
        CostModel::zero(),
        QueueConfig::new(4, 8),
    ));
    conflict_workload(mqd);
    let trace = recorder.trace();
    assert_eq!(trace.flush_count(), 4, "queue path keeps two barriers per commit");
    for state in sampled_states(&trace, &image, 0x005A_11ED, 400) {
        assert_contract(&state, "sampled");
    }
}

/// Transactions of the chain workload: enough that each region is reused
/// twice, so the region-reuse rule is exercised, not just the first fill.
const CHAIN_TXS: u64 = 5;
/// Block every chain transaction rewrites (the cross-group conflict).
const CHAIN_SHARED: u64 = 900;

/// The blocks only chain transaction `t` writes.
fn chain_own_blocks(t: u64) -> [u64; 2] {
    [910 + 2 * t, 911 + 2 * t]
}

fn chain_fill(t: u64) -> u8 {
    0xC0 + t as u8
}

/// Runs [`CHAIN_TXS`] back-to-back commits against `dev`; transaction `t`
/// writes `chain_fill(t)` into the shared block and its own two.
fn chain_workload(dev: Arc<dyn BlockDevice>, plant_early_clear: bool) {
    let io = DeviceIo::new(dev);
    let journal = Journal::new(config());
    if plant_early_clear {
        journal.plant_early_clear_bug();
    }
    for t in 0..CHAIN_TXS {
        journal.begin_op();
        journal.log_write(CHAIN_SHARED, &[chain_fill(t); BSIZE]).unwrap();
        for blockno in chain_own_blocks(t) {
            journal.log_write(blockno, &[chain_fill(t); BSIZE]).unwrap();
        }
        journal.end_op(&io).unwrap();
    }
    assert_eq!(journal.stats().commits, CHAIN_TXS);
}

/// Records the chain workload on a synchronous or a multi-queue device.
fn record_chain(queued: bool, plant_early_clear: bool) -> (WriteTrace, Arc<DiskImage>) {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let dev: Arc<dyn BlockDevice> = if queued {
        Arc::new(MultiQueueDevice::new(
            Arc::clone(&recorder) as Arc<dyn BlockDevice>,
            CostModel::zero(),
            QueueConfig::new(4, 8),
        ))
    } else {
        Arc::clone(&recorder) as Arc<dyn BlockDevice>
    };
    chain_workload(dev, plant_early_clear);
    let trace = recorder.trace();
    assert_eq!(trace.flush_count() as u64, 2 * CHAIN_TXS, "two barriers per commit");
    (trace, image)
}

/// Event count at which each chain transaction became durable: just past
/// its record barrier, the second flush of its commit.
fn chain_ack_points(trace: &WriteTrace) -> Vec<usize> {
    let flushes =
        trace.events.iter().enumerate().filter(|(_, e)| matches!(e, Event::Flush)).map(|(i, _)| i);
    flushes.skip(1).step_by(2).map(|i| i + 1).collect()
}

/// Which of the states the deferred clear introduces an enumeration saw.
#[derive(Debug, Default)]
struct ChainCoverage {
    /// Record(N) and record(N−1) both valid: record without the clear.
    record_without_clear: usize,
    /// No valid record although a commit was acknowledged: the clear of
    /// N−1 persisted, record(N) did not.
    clear_without_record: usize,
    /// A valid record whose own installs are partly on the medium.
    partial_installs_under_record: usize,
}

/// Inspects one chain crash state as the medium holds it, then recovers it
/// and applies the oracles.  Returns a description of the first violated
/// oracle, if any.
fn check_chain_state(
    state: &CrashState,
    acks: &[usize],
    coverage: &mut ChainCoverage,
) -> Result<(), String> {
    let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
    let io = DeviceIo::new(disk);
    let cfg = config();
    let acknowledged = acks.iter().take_while(|&&ack| ack <= state.durable_events).count();

    let mut head = vec![0u8; BSIZE];
    let mut valid: Vec<u64> = Vec::new();
    for region in 0..2u64 {
        io.read_block(cfg.start + region * cfg.region_size as u64, &mut head).unwrap();
        valid.extend(parse_head(&head, cfg.capacity).map(|parsed| parsed.seq));
    }
    match valid.len() {
        2 => coverage.record_without_clear += 1,
        0 if acknowledged > 0 => coverage.clear_without_record += 1,
        _ => {}
    }
    if let Some(&newest) = valid.iter().max() {
        // Single-threaded back-to-back commits: sequence = transaction.
        let installed = chain_own_blocks(newest)
            .iter()
            .filter(|&&blockno| block_fill(&io, blockno) == chain_fill(newest))
            .count();
        if installed == 1 {
            coverage.partial_installs_under_record += 1;
        }
    }

    let journal = Journal::new(cfg);
    journal.recover(&io).unwrap();
    if journal.recover(&io).unwrap() != 0 {
        return Err("second recovery replayed blocks".into());
    }
    // Atomicity and ordering: the applied transactions are a prefix, each
    // wholly applied, and the shared block belongs to the last of them.
    let applied: Vec<bool> = (0..CHAIN_TXS)
        .map(|t| {
            let fills = chain_own_blocks(t).map(|blockno| block_fill(&io, blockno));
            match fills {
                [a, b] if a == chain_fill(t) && b == a => Ok(true),
                [0, 0] => Ok(false),
                _ => Err(format!("tx {t} partially applied: {fills:x?}")),
            }
        })
        .collect::<Result<_, _>>()?;
    let count = applied.iter().take_while(|&&a| a).count();
    if applied[count..].iter().any(|&a| a) {
        return Err(format!("applied transactions are not a prefix: {applied:?}"));
    }
    let shared = block_fill(&io, CHAIN_SHARED);
    let expected = if count == 0 { 0 } else { chain_fill(count as u64 - 1) };
    if shared != expected {
        return Err(format!("shared block holds {shared:#x}, last applied tx wrote {expected:#x}"));
    }
    // Durability: every transaction whose record barrier completed before
    // the crash must be there.
    if count < acknowledged {
        return Err(format!("{acknowledged} transactions acknowledged, only {count} recovered"));
    }
    Ok(())
}

fn chain_violations(states: &[CrashState], acks: &[usize]) -> (Vec<String>, ChainCoverage) {
    let mut coverage = ChainCoverage::default();
    let violations = states
        .iter()
        .filter_map(|state| {
            check_chain_state(state, acks, &mut coverage)
                .err()
                .map(|what| format!("{}: {what}", state.description))
        })
        .collect();
    (violations, coverage)
}

/// Exhaustive in-order prefixes over five commits: the contract holds at
/// every write boundary, and the walk passes through "record(N) written,
/// clear(N−1) not yet" and through half-applied installs under a durable
/// record.
#[test]
fn chained_commits_every_write_prefix_recovers_durably() {
    let (trace, image) = record_chain(false, false);
    let acks = chain_ack_points(&trace);
    assert_eq!(acks.len() as u64, CHAIN_TXS);
    let (violations, coverage) = chain_violations(&prefix_states(&trace, &image), &acks);
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(coverage.record_without_clear > 0, "{coverage:?}");
    assert!(coverage.partial_installs_under_record > 0, "{coverage:?}");
}

/// Sampled subset/reorder/tear states over five commits, on the
/// synchronous and the queued device: a write cache reordering freely
/// inside each barrier epoch may persist the record without the previous
/// clear or the clear without the record, and installs in any subset —
/// all must recover to the contract.
#[test]
fn chained_commits_sampled_crashes_recover_durably() {
    for queued in [false, true] {
        let (trace, image) = record_chain(queued, false);
        let acks = chain_ack_points(&trace);
        let states = sampled_states(&trace, &image, 0x2BA2_21E2, 600);
        let (violations, coverage) = chain_violations(&states, &acks);
        assert!(violations.is_empty(), "queued={queued}: {violations:#?}");
        assert!(coverage.record_without_clear > 0, "queued={queued}: {coverage:?}");
        assert!(coverage.clear_without_record > 0, "queued={queued}: {coverage:?}");
        assert!(coverage.partial_installs_under_record > 0, "queued={queued}: {coverage:?}");
    }
}

/// Planted bug for the deferred-clear rule: a journal that clears group
/// N−1's header before group N's payload barrier lets the write cache
/// persist the clear ahead of the installs it presupposes, losing an
/// acknowledged transaction.  The durability oracle must catch it (the
/// fault is a field of this one journal, so it shares a process with the
/// clean runs above).
#[test]
fn durability_oracle_catches_clear_before_payload_barrier() {
    let (trace, image) = record_chain(false, true);
    let acks = chain_ack_points(&trace);
    let states = sampled_states(&trace, &image, 0x2BA2_21E2, 600);
    let (violations, _) = chain_violations(&states, &acks);
    assert!(
        violations.iter().any(|v| v.contains("acknowledged")),
        "planted early-clear bug produced no durability violation: {violations:#?}"
    );
}

/// Multi-thread stress with the flush/drain invariants on the queued
/// device.
#[test]
fn multithread_stress_flush_drains_and_keeps_barrier_budget() {
    let mut model = CostModel::zero();
    model.block_write_ns = 10_000;
    model.flush_base_ns = 200_000;
    model.inject_delays = true;
    let mqd = Arc::new(MultiQueueDevice::new(
        Arc::new(RamDisk::new(BSIZE as u32, 2048)),
        model,
        QueueConfig::new(4, 32),
    ));
    let io = Arc::new(DeviceIo::new(Arc::clone(&mqd) as Arc<dyn BlockDevice>));
    let journal = Arc::new(Journal::new(JournalConfig::from_geometry(
        2,
        LOG_BLOCKS,
        LOG_BLOCKS,
        (2 + LOG_BLOCKS as u64, 2048),
    )));

    let mut handles = Vec::new();
    for t in 0..8u64 {
        let journal = Arc::clone(&journal);
        let io = Arc::clone(&io);
        handles.push(std::thread::spawn(move || {
            for round in 0..6u64 {
                journal.begin_op();
                for i in 0..4u64 {
                    let blockno = 1200 + t * 30 + round * 4 + i;
                    let fill = (t * 29 + round * 5 + i + 1) as u8;
                    journal.log_write(blockno, &[fill; BSIZE]).unwrap();
                }
                journal.end_op(&*io).unwrap();
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    journal.flush(&*io).unwrap();
    assert_eq!(mqd.counters().inflight_now(), 0, "flush left requests in flight");

    let stats = journal.stats();
    assert!(stats.commits >= 1);
    assert_eq!(stats.barriers, stats.commits * 2, "2-barriers-per-commit discipline broken");
    assert!(stats.overlapped_commits <= stats.commits);
    for t in 0..8u64 {
        for round in 0..6u64 {
            for i in 0..4u64 {
                let blockno = 1200 + t * 30 + round * 4 + i;
                let fill = (t * 29 + round * 5 + i + 1) as u8;
                let mut buf = vec![0u8; BSIZE];
                io.read_block(blockno, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == fill), "block {blockno} lost its committed data");
            }
        }
    }
}
