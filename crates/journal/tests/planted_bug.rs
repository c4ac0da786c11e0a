//! Planted-fault tests for the journal-level crash oracles: each
//! [`PlantedFault`] removes one rule the one-barrier commit rests on, and
//! the enumeration of the chain workload (six commits and a checkpoint,
//! see `common`) must then report the violation that rule prevents —
//! while the identical run with nothing planted shows none
//! (`crash_contract.rs`).  This proves the oracles detect real protocol
//! violations rather than vacuously passing.
//!
//! The fault is a field of one journal, so these share a process with
//! correct journals.

mod common;

use crashsim::prefix_states;
use journal::{GroupClose, PlantedFault};

use common::{is_atomicity, record_chain, sampled_chain_violations, CHAIN_PERIOD};

fn sampled_violations(fault: PlantedFault) -> Vec<String> {
    sampled_chain_violations(fault, 0x2BA2_21E2)
}

/// (a) Recovery that trusts the header checksum replays a record the
/// write cache persisted ahead of its payload, installing whatever the
/// region held four commits ago — and, even with no reordering at all, an
/// old record over a region a later group has begun to overwrite, which
/// is why the exhaustive prefix walk catches it too.
#[test]
fn reorder_enumeration_catches_recovery_that_skips_the_payload_digest() {
    let fault = PlantedFault::TrustHeaderChecksum;
    let violations = sampled_violations(fault);
    assert!(violations.iter().any(|v| is_atomicity(v)), "undetected: {violations:#?}");

    let chain = record_chain(GroupClose::EveryOp, fault);
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

/// (d) Commits that never install leave the newest committed copy of a
/// block in a region the ring then reuses: once the reusing group's
/// payload has overwritten part of the record, no valid record and no
/// home holds the block, and the exhaustive walk finds it.
#[test]
fn prefix_walk_catches_a_region_reused_before_its_installs() {
    let fault = PlantedFault::ReuseBeforeInstall;
    let chain = record_chain(GroupClose::EveryOp, fault);
    let (violations, _) = chain.violations(&prefix_states(&chain.trace, &chain.image), fault);
    assert!(violations.iter().any(|v| v.contains("not a prefix")), "undetected: {violations:#?}");
    assert!(!sampled_violations(fault).is_empty(), "sampled states missed it");
}

/// (e) The group that overwrites a record counting itself as superseding
/// it: the period block, logged by that group and by the one four commits
/// back and by none between, is never installed, and a crash inside the
/// reuse epoch leaves its newest committed copy nowhere.
#[test]
fn prefix_walk_catches_a_reusing_group_absorbing_the_record_it_overwrites() {
    let fault = PlantedFault::AbsorbIntoReusingGroup;
    let lost = format!("block {CHAIN_PERIOD} holds 0x0");
    let chain = record_chain(GroupClose::EveryOp, fault);
    let (violations, _) = chain.violations(&prefix_states(&chain.trace, &chain.image), fault);
    assert!(violations.iter().any(|v| v.contains(&lost)), "undetected: {violations:#?}");
    assert!(
        sampled_violations(fault).iter().any(|v| v.contains(&lost)),
        "sampled states missed it"
    );
}
