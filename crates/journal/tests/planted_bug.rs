//! Planted-fault tests for the journal-level crash oracles, synchronous
//! device: each [`PlantedFault`] removes one rule the one-barrier commit
//! rests on, and the enumeration of the chain workload (five commits and
//! a checkpoint, see `common`) must then report the violation that rule
//! prevents — while the identical run with nothing planted shows none
//! (`crash_contract.rs`).  This proves the oracles detect real protocol
//! violations rather than vacuously passing.
//!
//! The fault is a field of one journal, so these share a process with
//! correct journals; the queued-device twin is `queued_planted_bug.rs`.

mod common;

use crashsim::prefix_states;
use journal::{GroupClose, PlantedFault};

use common::{is_atomicity, record_chain, sampled_chain_violations};

fn sampled_violations(fault: PlantedFault) -> Vec<String> {
    sampled_chain_violations(false, fault, 0x2BA2_21E2)
}

/// (a) Recovery that trusts the header checksum replays a record the
/// write cache persisted ahead of its payload, installing whatever the
/// region held two commits ago — and, even with no reordering at all, an
/// old record over a region the next group has begun to overwrite, which
/// is why the exhaustive prefix walk catches it too.
#[test]
fn reorder_enumeration_catches_recovery_that_skips_the_payload_digest() {
    let fault = PlantedFault::TrustHeaderChecksum;
    let violations = sampled_violations(fault);
    assert!(violations.iter().any(|v| is_atomicity(v)), "undetected: {violations:#?}");

    let chain = record_chain(GroupClose::EveryOp, false, fault);
    let (in_order, _) = chain.violations(&prefix_states(&chain.trace, &chain.image), fault);
    assert!(in_order.iter().any(|v| is_atomicity(v)), "undetected: {in_order:#?}");
}

/// (b) Installs issued before the commit barrier share an epoch with the
/// record that is supposed to finish them: a crash keeps some installs and
/// loses the record, and the group is half applied for good.
#[test]
fn atomicity_oracle_catches_installs_before_the_commit_barrier() {
    let violations = sampled_violations(PlantedFault::InstallBeforeBarrier);
    assert!(violations.iter().any(|v| is_atomicity(v)), "undetected: {violations:#?}");
}

/// (c) A checkpoint that clears the newest header without first making
/// its installs durable lets the write cache persist the clear ahead of
/// them, losing an acknowledged transaction.
#[test]
fn durability_oracle_catches_checkpoint_clear_without_barrier() {
    let violations = sampled_violations(PlantedFault::CheckpointWithoutBarrier);
    assert!(violations.iter().any(|v| v.contains("acknowledged")), "undetected: {violations:#?}");
}
