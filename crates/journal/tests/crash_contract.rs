//! The journal-level crash contract, checked against the **bare**
//! [`Journal`] — no file system on top, just the journal over crashsim's
//! fault device.  Anything that fails here is a journal bug by
//! construction, not a stack bug; anything that passes here is inherited
//! by every stack, because the stacks are thin adapters.
//!
//! * exhaustive-prefix crash enumeration of a two-transaction conflict
//!   workload: every write-boundary crash must recover to an
//!   all-or-nothing, commit-ordered state,
//! * sampled subset/reorder/tear enumeration of the same workload,
//! * the **one-barrier protocol** over six consecutive commits (the ring
//!   of four regions filled, two of them reused) and the checkpoint of a
//!   clean unmount: exhaustive prefixes and sampled states, against
//!   atomicity, ordering *and* durability oracles — and the enumeration
//!   must actually visit the
//!   states that sharing one epoch between payload, record and lazy
//!   installs makes new: record(N) on the medium ahead of part of its
//!   payload, a region partly overwritten under its surviving record while
//!   a newer one is valid (a crash inside a reuse epoch, including one
//!   whose record had superseded blocks), four records valid at once, a
//!   home older than its newest valid copy, and installs partially applied
//!   under a durable record (the planted faults that prove these oracles
//!   have teeth live in `planted_bug.rs`),
//! * the same chain under ext4's close rule, several transactions per
//!   group: groups recover whole, in order, durable once acknowledged,
//! * a multi-thread stress run on a latency-modelled SSD: the barrier
//!   budget stays exactly 1 per commit, and every committed byte survives
//!   the final flush.

mod common;

use std::sync::Arc;

use crashsim::{prefix_states, sampled_states};
use journal::io::DeviceIo;
use journal::record::BSIZE;
use journal::{GroupClose, Journal, JournalConfig, PlantedFault, REGIONS};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, SsdDevice};

use common::{block_fill, config, record_chain, recorded_disk, CHAIN_TXS, DISK_BLOCKS, LOG_BLOCKS};

/// Runs the two-transaction conflict workload (tx1: 1900=0xA1, 1901=0xA2;
/// tx2: 1900=0xB1, 1902=0xB2) against `dev`.
fn conflict_workload(dev: Arc<dyn BlockDevice>) {
    let io = DeviceIo::new(dev);
    let journal = Journal::new(config());
    journal.begin_op();
    journal.log_write(1900, &[0xA1; BSIZE]).unwrap();
    journal.log_write(1901, &[0xA2; BSIZE]).unwrap();
    journal.end_op(&io).unwrap();
    journal.begin_op();
    journal.log_write(1900, &[0xB1; BSIZE]).unwrap();
    journal.log_write(1902, &[0xB2; BSIZE]).unwrap();
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

    let b900 = block_fill(&io, 1900);
    let b901 = block_fill(&io, 1901);
    let b902 = block_fill(&io, 1902);
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
    let (recorder, image, dev) = recorded_disk();
    conflict_workload(dev);
    let trace = recorder.trace();
    assert_eq!(trace.flush_count(), 2, "two commits, one barrier each");
    for state in prefix_states(&trace, &image) {
        assert_contract(&state, "prefix");
    }
}

/// Sampled subset/reorder/tear states: each commit's batched epoch must
/// honor the same contract even when the write cache reorders freely
/// within a barrier epoch.
#[test]
fn sampled_reorder_crashes_recover_atomically() {
    let (recorder, image, dev) = recorded_disk();
    conflict_workload(dev);
    let trace = recorder.trace();
    assert_eq!(trace.flush_count(), 2, "two commits, one barrier each");
    for state in sampled_states(&trace, &image, 0x005A_11ED, 400) {
        assert_contract(&state, "sampled");
    }
}

/// The census asserts every enumeration of the chain must satisfy: the
/// ring's new crash states are visited, not just survived.
fn assert_ring_coverage(coverage: &common::ChainCoverage, what: &str) {
    assert!(coverage.overwritten_under_old_record > 0, "{what}: {coverage:?}");
    assert!(coverage.reuse_over_superseded > 0, "{what}: {coverage:?}");
    assert!(coverage.two_valid_records > 0, "{what}: {coverage:?}");
    assert!(coverage.four_valid_records > 0, "{what}: {coverage:?}");
    assert!(coverage.home_older_than_newest_copy > 0, "{what}: {coverage:?}");
    assert!(coverage.partial_installs_under_record > 0, "{what}: {coverage:?}");
}

/// Exhaustive in-order prefixes over six commits and the checkpoint: the
/// contract holds at every write boundary.  In submission order the
/// record follows its payload, so the walk passes through a region partly
/// overwritten under its old record, through four valid records, homes
/// older than their newest valid copy, and half-applied installs under a
/// durable record — never through a record ahead of its payload, which
/// only a reordering cache produces.
#[test]
fn chained_commits_every_write_prefix_recovers_durably() {
    let chain = record_chain(GroupClose::EveryOp, PlantedFault::None);
    assert_eq!(
        chain.trace.flush_count() as u64,
        CHAIN_TXS + 1 + REGIONS as u64,
        "1 per commit; the checkpoint's installs, then 1 per live header"
    );
    let states = prefix_states(&chain.trace, &chain.image);
    let (violations, coverage) = chain.violations(&states, PlantedFault::None);
    assert!(violations.is_empty(), "{violations:#?}");
    assert_ring_coverage(&coverage, "prefix");
    assert_eq!(coverage.record_ahead_of_payload, 0, "{coverage:?}");
}

/// Sampled subset/reorder/tear states over six commits and the
/// checkpoint: a write cache reordering freely inside each epoch may
/// persist the record ahead of any part of its payload, overwrite a
/// region under its old record, and apply installs in any subset — all
/// must recover to the contract.
#[test]
fn chained_commits_sampled_crashes_recover_durably() {
    let chain = record_chain(GroupClose::EveryOp, PlantedFault::None);
    let states = sampled_states(&chain.trace, &chain.image, 0x2BA2_21E2, 600);
    let (violations, coverage) = chain.violations(&states, PlantedFault::None);
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(coverage.record_ahead_of_payload > 0, "{coverage:?}");
    assert_ring_coverage(&coverage, "sampled");
}

/// The same chain under ext4's close rule ([`GroupClose::OnFlush`]):
/// several transactions per group, groups closed by fsync-style flushes,
/// one by the size threshold, an idle flush after it that costs nothing,
/// and the fifth — which reuses the first region — closed by the
/// checkpoint.  Every write-boundary
/// crash and every sampled reorder recovers to a prefix of whole *groups*
/// — each transaction atomic, ordered, and durable once its group's
/// barrier returned — and the enumeration visits a multi-transaction
/// group's record on the medium.
#[test]
fn on_flush_chain_crashes_recover_durably_by_group() {
    let chain = record_chain(GroupClose::OnFlush, PlantedFault::None);
    assert_eq!(chain.groups, [vec![0, 1], vec![2, 3, 4], vec![5, 6], vec![7, 8], vec![9]]);
    assert_eq!(chain.trace.flush_count(), chain.groups.len() + 1 + REGIONS);
    let mut states = sampled_states(&chain.trace, &chain.image, 0x0F1A_5117, 600);
    states.extend(prefix_states(&chain.trace, &chain.image));
    let (violations, coverage) = chain.violations(&states, PlantedFault::None);
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(coverage.multi_op_group > 0, "{coverage:?}");
    assert!(coverage.record_ahead_of_payload > 0, "{coverage:?}");
    assert!(coverage.overwritten_under_old_record > 0, "{coverage:?}");
    assert!(coverage.four_valid_records > 0, "{coverage:?}");
    assert!(coverage.partial_installs_under_record > 0, "{coverage:?}");
}

/// Multi-thread stress on an SSD with write and flush delays, so commits
/// overlap the threads still staging: the final flush leaves every
/// committed byte at home and the barrier budget at one per commit.
#[test]
fn multithread_stress_flush_drains_and_keeps_barrier_budget() {
    let mut model = CostModel::zero();
    model.block_write_ns = 10_000;
    model.flush_base_ns = 200_000;
    model.inject_delays = true;
    let dev = Arc::new(SsdDevice::ram_backed(DISK_BLOCKS, model));
    let io = Arc::new(DeviceIo::new(dev as Arc<dyn BlockDevice>));
    let journal = Arc::new(Journal::new(JournalConfig::from_geometry(
        2,
        LOG_BLOCKS,
        LOG_BLOCKS,
        (2 + LOG_BLOCKS as u64, DISK_BLOCKS),
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

    let stats = journal.stats();
    assert!(stats.commits >= 1);
    assert_eq!(stats.barriers, stats.commits, "1-barrier-per-commit discipline broken");
    assert!(stats.installs < stats.blocks_logged, "installs wait for their ring slot");
    for t in 0..8u64 {
        for round in 0..6u64 {
            for i in 0..4u64 {
                let blockno = 1200 + t * 30 + round * 4 + i;
                let fill = (t * 29 + round * 5 + i + 1) as u8;
                let mut buf = vec![0u8; BSIZE];
                journal.read_home(&*io, blockno, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == fill), "block {blockno} lost its committed data");
            }
        }
    }
}
